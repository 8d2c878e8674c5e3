import random

import numpy as np
import pytest

import phasetrack as pt
from phasetrack.errors import NotOnMesh, ValueOutsideOmega
from phasetrack.grid import VACUUM_IW, node_fan
from phasetrack.riemann import WaveKind

import references
from statespace import is_vacuum, mesh_nodes, random_state, snap


def test_quanta(laws, mesh5):
    assert mesh5.eps_v == laws.V_c / 32
    assert mesh5.eps_w == (laws.W_c - laws.W_min) / 32
    # the dyadic v-line hits the congested ceiling exactly
    assert mesh5.v_values[mesh5.iv_vc] == laws.V_c
    assert mesh5.v_values[mesh5.iv_free] == laws.V_f
    # the top marker is adjoined as a node even off the lattice
    assert mesh5.w_col[mesh5.num_w] == mesh5.w_values[-1] == laws.W_max
    # column 0 of a state id, VACUUM_IW's, reads W_c
    assert mesh5.w_col[0] == laws.W_c


def test_nodes_in_domain(laws, mesh5):
    count = 0
    for iv, iw in mesh_nodes(mesh5):
        u = mesh5.state(iv, iw)
        assert laws.contains(u, tol=1e-9), (iv, iw, u)
        count += 1
    assert count > 100


def test_snap_fixed_point(laws, flat_laws):
    # every node of levels 5-7 snaps to itself, the flat laws' vacuum node
    # included, however far its recomputed marker w2 rounds from the
    # node's marker line
    for lw in (laws, flat_laws):
        for n in (5, 6, 7):
            mesh = pt.GridMesh(lw, n)
            moved = [node for node in mesh_nodes(mesh)
                     if snap(mesh, mesh.state(*node)) is not mesh.state(*node)]
            assert moved == [], (n, lw.degenerate_free, len(moved))


@pytest.mark.parametrize("family", ["traffic", "flat"])
def test_node_markers_floor_to_their_own_line(laws, flat_laws, family):
    # every node of levels 5-9, free-line nodes included, floors to its own
    # marker index by marker_floor alone, without brackets' comparison of
    # corners: its recomputed marker w2 lies within _IDX_GUARD of its line
    lw = laws if family == "traffic" else flat_laws
    for n in range(5, 10):
        mesh = pt.GridMesh(lw, n)
        off = [(iv, iw) for iv, iw in mesh_nodes(mesh)
               if iw != VACUUM_IW and iw != mesh.marker_floor(
                   lw.w2(mesh.state(iv, iw)), 0 if iv == mesh.iv_free else mesh.iw_c)]
        assert off == [], (n, len(off), off[:5])


def test_approximate_datum_keeps_mesh_data(laws, flat_laws):
    # a datum of mesh nodes is already projected: its states all stay
    rng = random.Random(31)
    for lw in (laws, flat_laws):
        mesh = pt.GridMesh(lw, 7)
        for _ in range(40):
            datum = pt.random_mesh_datum(mesh, rng, max_jumps=25)
            diagram = pt.approximate_datum(datum, mesh)
            kept = [diagram.left_state] + [f.right for f in diagram.fronts]
            # consecutive equal states merge into one (no front between them)
            states = [u for i, u in enumerate(datum.states)
                      if i == 0 or u is not datum.states[i - 1]]
            assert len(kept) == len(states)
            assert all(a is b for a, b in zip(kept, states))


def test_snap_floor(laws, mesh5):
    # a free state one and a half quanta above the bottom floors to one quantum
    w2 = laws.W_min + 1.5 * mesh5.eps_w
    rho = laws.free_rho_from_marker(w2)
    u = pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
    s = snap(mesh5, u)
    assert laws.w2(s) == pytest.approx(laws.W_min + mesh5.eps_w, abs=1e-12)


def test_snap_distance_M1(laws, mesh5, rng):
    for _ in range(300):
        u = random_state(laws, rng)
        s = snap(mesh5, u)
        assert laws.coord_distance(u, s) <= mesh5.eps_v + mesh5.eps_w + 1e-12


def test_snap_monotone(laws, mesh5, rng):
    # order-preserving per coordinate, checked on the node indices
    for _ in range(100):
        v1 = rng.uniform(0, laws.V_c)
        v2 = rng.uniform(0, laws.V_c)
        w_lo, w_hi = sorted((rng.uniform(laws.W_c, laws.W_max),
                             rng.uniform(laws.W_c, laws.W_max)))
        a = snap(mesh5, pt.TrafficState(laws.p_inv(w_lo - min(v1, v2)), min(v1, v2),
                                       pt.Phase.CONGESTED))
        b = snap(mesh5, pt.TrafficState(laws.p_inv(w_hi - max(v1, v2)), max(v1, v2),
                                       pt.Phase.CONGESTED))
        iva, iwa = mesh5.index_of(a)
        ivb, iwb = mesh5.index_of(b)
        assert iva <= ivb
        assert iwa <= iwb


def test_brackets_low_corner_is_snap(laws, flat_laws, rng):
    for lw in (laws, flat_laws):
        mesh = pt.GridMesh(lw, 5)
        for _ in range(200):
            u = random_state(lw, rng)
            (v_lo, v_hi), (w_lo, w_hi) = mesh.brackets(u)
            assert snap(mesh, u) is mesh.state(v_lo, w_lo)
            assert v_hi - v_lo in (0, 1) and w_hi - w_lo in (0, 1)


def test_index_of_accepts_a_near_copy_above_both_floors(mesh5):
    # lowering v also lowers w2, so the copy floors one node below its node
    # in both coordinates
    n = mesh5.state(24, 39)
    u = pt.TrafficState(n.rho, n.v - 1e-10, pt.Phase.CONGESTED)
    assert mesh5.index_of(snap(mesh5, u)) == (23, 38)
    assert mesh5.index_of(u) == (24, 39)


def test_index_of_tells_a_state_off_the_mesh_from_one_off_the_domain(laws, mesh5):
    # halfway between two velocity lines on a marker line: in the domain,
    # but on no node
    v = 0.5 * (mesh5.v_values[10] + mesh5.v_values[11])
    between = pt.TrafficState(laws.p_inv(mesh5.w_values[40] - v), v, pt.Phase.CONGESTED)
    assert laws.contains(between, tol=0.0)
    with pytest.raises(NotOnMesh):
        mesh5.index_of(between)
    # a congested state faster than V_c, and a free one off the free line
    for outside in (pt.TrafficState(between.rho, 1.5 * laws.V_c, pt.Phase.CONGESTED),
                    pt.TrafficState(0.5 * laws.rho_free_max, 0.5 * laws.V_c, pt.Phase.FREE)):
        assert not laws.contains(outside, tol=1e-9)
        with pytest.raises(ValueOutsideOmega):
            mesh5.index_of(outside)


def test_node_separation_M2(laws):
    mesh = pt.GridMesh(laws, 4)
    lattice = [mesh.state(iv, iw) for iv, iw in mesh_nodes(mesh)]
    # distinct nodes on the dyadic lattice are separated by at least a
    # half-quantum (the adjoined top-marker node may sit closer)
    vals = sorted(set(mesh.w_values[:-1]))
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    assert min(gaps) > 0.5 * min(mesh.eps_v, mesh.eps_w)
    assert len({(u.rho, u.v) for u in lattice}) == len(lattice)


def test_solve_approx_identity(mesh5):
    u = mesh5.state(3, 40)
    assert len(pt.solve_approx(mesh5, u, u)) == 0


def test_solve_approx_not_on_mesh(laws, mesh5):
    off = pt.TrafficState(0.34, 0.0123456, pt.Phase.CONGESTED)
    assert laws.in_congested_domain(off)
    with pytest.raises(NotOnMesh):
        pt.solve_approx(mesh5, off, mesh5.state(0, 40))


@pytest.mark.parametrize("family", ["traffic", "flat"])
def test_solve_approx_finds_other_states_by_value(laws, flat_laws, monkeypatch, family):
    # solve_approx finds a state object its own mesh built by identity, with
    # no index_of call; any other state object goes through index_of, one
    # call a side, and gives the node's own fan: a fresh state equal to the
    # node, a copy within 1e-9 of it, and the node of a second mesh on the
    # same laws
    lw = laws if family == "traffic" else flat_laws
    mesh, twin = pt.GridMesh(lw, 5), pt.GridMesh(lw, 5)
    calls = []
    index_of = pt.GridMesh.index_of

    def counted_index_of(self, u):
        calls.append(self)
        return index_of(self, u)

    monkeypatch.setattr(pt.GridMesh, "index_of", counted_index_of)
    nodes = list(mesh_nodes(mesh))
    rng = random.Random(5)
    for _ in range(150):
        ends = [nodes[rng.randrange(len(nodes))] for _ in range(2)]
        a, b = (mesh.state(*node) for node in ends)
        want = pt.solve_approx(mesh, a, b)
        assert calls == []
        copies = {
            "fresh": [pt.TrafficState(u.rho, u.v, u.phase) for u in (a, b)],
            "near": [pt.TrafficState(u.rho, u.v - 1e-10, u.phase) for u in (a, b)],
            "twin": [twin.state(*node) for node in ends],
        }
        for name, (u_l, u_r) in copies.items():
            assert lw.states_equal(u_l, a, tol=1e-9) and lw.states_equal(u_r, b, tol=1e-9)
            assert pt.solve_approx(mesh, u_l, u_r) == want, (name, ends)
            assert calls == [mesh, mesh], name
            calls.clear()


def test_congested_two_step_chain(laws, mesh5):
    iw = mesh5.iw_c + 8
    ul = mesh5.state(4, iw)
    ur = mesh5.state(6, iw)
    fan = pt.solve_approx(mesh5, ul, ur)
    assert [kind for _, _, _, kind, *_ in fan] == [WaveKind.RAREFACTION_STEP] * 2
    (s1, *_), (s2, *_) = fan
    assert s1 < s2  # chord slopes increase along the concave flux
    states = mesh5.states
    assert all(abs(states[b].v - states[a].v - mesh5.eps_v) < 1e-15 for _, a, b, *_ in fan)


def test_shock_matches_exact(laws, mesh5):
    ul = mesh5.state(9, mesh5.iw_c + 4)
    ur = mesh5.state(2, mesh5.iw_c + 4)
    approx = pt.solve_approx(mesh5, ul, ur)
    exact = references.solve_coupled(laws, ul, ur)
    assert [kind for _, _, _, kind, *_ in approx] == [w.kind for w in exact] == [WaveKind.SHOCK]
    assert approx[0][0] == pytest.approx(exact.waves[0].speed, abs=1e-14)


def _fan_bits(fan):
    """A fan's jumps with each speed as its exact bits: their first four
    fields, all that `references.node_fan` gives."""
    return [(s.hex(), a, b, kind) for s, a, b, kind, *_ in fan]


class _NodeKeyed:
    """A mesh as `references.node_fan` reads it: its states keyed by
    (iv, iw), every other attribute the mesh's own."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.states = {node: mesh.state(*node) for node in mesh_nodes(mesh)}

    def __getattr__(self, name):
        return getattr(self.mesh, name)


def _reference_fan(keyed, l, r):
    """`references.node_fan` between the nodes of state ids l and r, its
    jumps' nodes as state ids."""
    mesh = keyed.mesh
    fan = references.node_fan(keyed, mesh.node_of(l), mesh.node_of(r))
    return [(s, mesh.state_id(a), mesh.state_id(b), kind) for s, a, b, kind in fan]


def _walk(mesh, pairs):
    """The mesh and node_fan(mesh, l, r) on each (l, r) of pairs."""
    return mesh, [(l, r, node_fan(mesh, l, r)) for l, r in pairs]


@pytest.fixture(scope="module")
def walks(laws, flat_laws):
    """The fans that the node_fan and jump-term tests check, so that each
    pair set is walked once: walks(name) builds the set's mesh and calls
    node_fan on its pairs the first time a test asks for it.  "traffic"
    and "flat" are every node pair at level 4, "seeded" the same 20,000
    seeded pairs at level 6 of the traffic-light laws."""

    def every_pair(mesh):
        ids = [mesh.state_id(node) for node in mesh_nodes(mesh)]
        return _walk(mesh, [(l, r) for l in ids for r in ids])

    def seeded(mesh):
        ids = [mesh.state_id(node) for node in mesh_nodes(mesh)]
        rng = random.Random(20)
        return _walk(mesh, [(rng.choice(ids), rng.choice(ids)) for _ in range(20_000)])

    sets = {"traffic": lambda: every_pair(pt.GridMesh(laws, 4)),
            "flat": lambda: every_pair(pt.GridMesh(flat_laws, 4)),
            "seeded": lambda: seeded(pt.GridMesh(laws, 6))}
    built = {}

    def walk(name):
        if name not in built:
            built[name] = sets[name]()
        return built[name]

    return walk


def _check_fan_bits(mesh, fans):
    """Assert that each fan keeps the jumps and speed bits of
    `references.node_fan`."""
    keyed = _NodeKeyed(mesh)
    for l, r, fan in fans:
        assert _fan_bits(fan) == _fan_bits(_reference_fan(keyed, l, r)), (l, r)


def _check_jump_terms(mesh, fans):
    """Assert that each jump of each fan carries the bits of
    `references.front_measures` on its two nodes; return how many of the
    jumps have a temple above their tv."""
    surplus = 0
    for l, r, fan in fans:
        for _, a, b, _, tv, temple, boundary in fan:
            ref_tv, ref_temple, ref_boundary = references.front_measures(mesh, a, b)
            assert (tv.hex(), temple.hex(), boundary, type(boundary)) == \
                (ref_tv.hex(), ref_temple.hex(), ref_boundary, int), (l, r, a, b)
            surplus += temple != tv
    return surplus


@pytest.mark.parametrize("family", ["traffic", "flat"])
def test_node_fan_matches_its_path_building_form_on_every_pair(walks, family):
    # node_fan emits its jumps in one walk from the node floats; every fan
    # keeps the jumps, and the speed bits, of the form that built every
    # path of (iv, iw) nodes first and called sigma on each jump
    _check_fan_bits(*walks(family))


def test_node_fan_matches_its_path_building_form_on_seeded_pairs(walks):
    mesh, fans = walks("seeded")
    _check_fan_bits(mesh, fans)
    kinds = {kind for _, _, fan in fans for _, _, _, kind, *_ in fan}
    assert kinds == {WaveKind.SHOCK, WaveKind.CONTACT, WaveKind.RAREFACTION_STEP,
                     WaveKind.PHASE_TRANSITION}


@pytest.mark.parametrize("family", ["traffic", "flat"])
def test_jump_terms_are_front_measures_bits_on_every_pair(walks, family):
    # node_fan writes every jump's (tv, temple, pt) from the node floats:
    # the bits are those the engine once computed per front from its two
    # nodes
    assert _check_jump_terms(*walks(family)) > 0


def test_jump_terms_are_front_measures_bits_on_seeded_pairs(walks):
    assert _check_jump_terms(*walks("seeded")) > 0


@pytest.mark.parametrize("n", [6, 7, 8])
def test_jumps_out_of_vacuum_travel_at_the_right_velocity(laws, n):
    # sigma's vacuum case: a jump from vacuum to a free node travels at the
    # free node's v, bit for bit.  The general formula, rho v / rho, would
    # round away from v on some of these nodes (free marker 5 at level 6)
    mesh = pt.GridMesh(laws, n)
    states = mesh.states
    vacuum = mesh.state_id((mesh.iv_free, 0))
    assert states[vacuum].rho == 0.0
    rounded = 0
    for iw in range(1, mesh.num_w):
        r = mesh.state_id((mesh.iv_free, iw))
        u = states[r]
        (speed, a, b, kind, *_), = node_fan(mesh, vacuum, r)
        assert (speed.hex(), a, b, kind) == (u.v.hex(), vacuum, r, WaveKind.SHOCK), iw
        rounded += u.rho * u.v / u.rho != u.v
    assert rounded > 0


def test_all_outputs_on_mesh_M3(laws, mesh5, rng):
    nodes = list(mesh_nodes(mesh5))
    for _ in range(200):
        a = mesh5.state(*nodes[rng.randrange(len(nodes))])
        b = mesh5.state(*nodes[rng.randrange(len(nodes))])
        fan = pt.solve_approx(mesh5, a, b)
        speeds = [s for s, *_ in fan]
        assert all(s2 >= s1 - 1e-11 for s1, s2 in zip(speeds, speeds[1:]))
        for s, l, r, *_ in fan:
            ul, ur = mesh5.states[l], mesh5.states[r]
            assert ul is mesh5.state(*mesh5.node_of(l)) and ur is mesh5.state(*mesh5.node_of(r))
            assert mesh5.state_id(mesh5.index_of(ul)) == l
            assert mesh5.state_id(mesh5.index_of(ur)) == r
            # mass on every jump, momentum on congested-congested ones
            if ul.phase is pt.Phase.CONGESTED and ur.phase is pt.Phase.CONGESTED:
                mass, mom = references.jump_residuals(s, ul, ur, laws.w2(ul), laws.w2(ur))
            else:
                mass, mom = references.jump_residuals(s, ul, ur)
            assert abs(mass) <= 1e-12 and (mom is None or abs(mom) <= 1e-12)


def test_mesh_states_built_on_lookup_and_freed_with_the_mesh(laws):
    import weakref

    mesh = pt.GridMesh(laws, 4)
    node = (3, mesh.iw_c + 2)
    sid = mesh.state_id(node)
    assert sid not in mesh.states
    u = mesh.states[sid]
    assert u is mesh.state(*node) and mesh.index_of(u) == node
    with pytest.raises(NotOnMesh):
        mesh.states[mesh.state_id((3, mesh.iw_c - 1))]
    # node_values builds a node it has not seen first, as a lookup does
    other = mesh.state_id((4, mesh.iw_c + 2))
    assert other not in mesh.states
    rho, v, congested, marker = mesh.node_values(np.array([other, sid]))
    w = mesh.states[other]
    assert rho.tolist() == [w.rho, u.rho] and v.tolist() == [w.v, u.v]
    assert congested.tolist() == [True, True]
    assert marker.tolist() == [laws.marker_W(w), laws.marker_W(u)]
    # the state table holds its mesh weakly: reference counting frees both
    ref = weakref.ref(mesh)
    del mesh
    assert ref() is None


def test_state_rejects_free_ids_off_the_line(laws, flat_mesh5):
    mesh = pt.GridMesh(laws, 5)
    top = mesh.num_w - 2
    node = mesh.state(mesh.iv_free, top)
    # past the end, a negative alias of a real node, and the vacuum id of a
    # constant free speed
    for iw in (mesh.num_w, -2, VACUUM_IW):
        with pytest.raises(NotOnMesh):
            mesh.state(mesh.iv_free, iw)
    assert mesh.index_of(node) == (mesh.iv_free, top)
    assert is_vacuum(flat_mesh5.state(flat_mesh5.iv_free, VACUUM_IW))
    # past the end of the ceiling's marker line, whose id would be the
    # vacuum node's of the line above
    with pytest.raises(NotOnMesh):
        flat_mesh5.state(flat_mesh5.iv_vc, flat_mesh5.num_w)


def test_free_chain_step_strengths(laws, mesh5):
    ul = mesh5.state(mesh5.iv_free, mesh5.num_w - 1)   # top marker node
    ur = mesh5.state(mesh5.iv_free, 0)                 # vacuum
    fan = pt.solve_approx(mesh5, ul, ur)
    assert all(kind == WaveKind.RAREFACTION_STEP for _, _, _, kind, *_ in fan)
    states = mesh5.states
    drops = [laws.w2(states[a]) - laws.w2(states[b]) for _, a, b, *_ in fan]
    # every step is one quantum except the one leaving the adjoined node
    assert sum(abs(d - mesh5.eps_w) > 1e-10 for d in drops) == 1
    assert all(0 < d <= mesh5.eps_w + 1e-10 for d in drops)


def test_degenerate_mesh_vacuum(flat_laws, flat_mesh5):
    mesh = flat_mesh5
    vac = mesh.state(mesh.iv_free, VACUUM_IW)
    assert is_vacuum(vac)
    # chain from a high free state down to vacuum keeps every drop at one
    # quantum; all fronts are contacts of the degenerate free field
    top = mesh.state(mesh.iv_free, mesh.num_w - 1)
    fan = pt.solve_approx(mesh, top, vac)
    assert all(kind == WaveKind.CONTACT for _, _, _, kind, *_ in fan)
    assert all(s == flat_laws.V_f for s, *_ in fan)
    states = mesh.states
    drops = [flat_laws.w2(states[a]) - flat_laws.w2(states[b]) for _, a, b, *_ in fan]
    assert all(d <= mesh.eps_w + 1e-10 for d in drops)
