import pytest

import phasetrack as pt
from phasetrack.errors import NotOnMesh
from phasetrack.grid import VACUUM_IW
from phasetrack.riemann import WaveKind, check_rankine_hugoniot, fan_is_speed_ordered

from statespace import random_state


def test_quanta(laws, mesh5):
    assert mesh5.eps_v == laws.V_c / 32
    assert mesh5.eps_w == (laws.W_c - laws.W_min) / 32
    # the dyadic v-line hits the congested ceiling exactly
    assert mesh5.v_value(mesh5.iv_vc) == laws.V_c
    assert mesh5.v_value(mesh5.iv_free) == laws.V_f
    # the top marker is adjoined as a node even off the lattice
    assert mesh5.w_value(mesh5.num_w - 1) == laws.W_max


def test_nodes_in_domain(laws, mesh5):
    count = 0
    for iv, iw in mesh5.nodes():
        u = mesh5.state(iv, iw)
        assert laws.contains(u, tol=1e-9), (iv, iw, u)
        count += 1
    assert count > 100


def test_snap_fixed_point(laws, mesh5):
    for iv, iw in [(0, 40), (17, 35), (mesh5.iv_free, 0), (mesh5.iv_free, 12)]:
        u = mesh5.state(iv, iw)
        assert mesh5.snap(u) is u


def test_snap_floor(laws, mesh5):
    # a free state one and a half quanta above the bottom floors to one quantum
    w2 = laws.W_min + 1.5 * mesh5.eps_w
    rho = laws.free_rho_from_marker(w2)
    u = pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
    s = mesh5.snap(u)
    assert laws.w2(s) == pytest.approx(laws.W_min + mesh5.eps_w, abs=1e-12)


def test_snap_distance_M1(laws, mesh5, rng):
    for _ in range(300):
        u = random_state(laws, rng)
        s = mesh5.snap(u)
        assert laws.coord_distance(u, s) <= mesh5.eps_v + mesh5.eps_w + 1e-12


def test_snap_monotone(laws, mesh5, rng):
    # order-preserving per coordinate, checked on the node indices
    for _ in range(100):
        v1 = rng.uniform(0, laws.V_c)
        v2 = rng.uniform(0, laws.V_c)
        w_lo, w_hi = sorted((rng.uniform(laws.W_c, laws.W_max),
                             rng.uniform(laws.W_c, laws.W_max)))
        a = mesh5.snap(pt.TrafficState(laws.p_inv(w_lo - min(v1, v2)), min(v1, v2),
                                       pt.Phase.CONGESTED))
        b = mesh5.snap(pt.TrafficState(laws.p_inv(w_hi - max(v1, v2)), max(v1, v2),
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
            assert mesh.snap(u) is mesh.state(v_lo, w_lo)
            assert v_hi - v_lo in (0, 1) and w_hi - w_lo in (0, 1)


def test_index_of_accepts_a_near_copy_above_both_floors(mesh5):
    # lowering v also lowers w2, so the copy floors one node below its node
    # in both coordinates
    n = mesh5.state(24, 39)
    u = pt.TrafficState(n.rho, n.v - 1e-10, pt.Phase.CONGESTED)
    assert mesh5.index_of(mesh5.snap(u)) == (23, 38)
    assert mesh5.index_of(u) == (24, 39)


def test_node_separation_M2(laws):
    mesh = pt.GridMesh(laws, 4)
    lattice = [mesh.state(iv, iw) for iv, iw in mesh.nodes()]
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


def test_congested_two_step_chain(laws, mesh5):
    iw = mesh5.iw_c + 8
    ul = mesh5.state(4, iw)
    ur = mesh5.state(6, iw)
    fan = pt.solve_approx(mesh5, ul, ur)
    assert [w.kind for w in fan] == [WaveKind.RAREFACTION_STEP] * 2
    s1, s2 = fan.waves[0].speed, fan.waves[1].speed
    assert s1 < s2  # chord slopes increase along the concave flux
    assert all(abs(w.right.v - w.left.v - mesh5.eps_v) < 1e-15 for w in fan)


def test_shock_matches_exact(laws, mesh5):
    ul = mesh5.state(9, mesh5.iw_c + 4)
    ur = mesh5.state(2, mesh5.iw_c + 4)
    approx = pt.solve_approx(mesh5, ul, ur)
    exact = pt.solve_coupled(laws, ul, ur)
    assert [w.kind for w in approx] == [w.kind for w in exact] == [WaveKind.SHOCK]
    assert approx.waves[0].speed == pytest.approx(exact.waves[0].speed, abs=1e-14)


def test_all_outputs_on_mesh_M3(laws, mesh5, rng):
    nodes = list(mesh5.nodes())
    for _ in range(200):
        a = mesh5.state(*nodes[rng.randrange(len(nodes))])
        b = mesh5.state(*nodes[rng.randrange(len(nodes))])
        fan = pt.solve_approx(mesh5, a, b)
        assert fan_is_speed_ordered(fan, tol=1e-11)
        assert check_rankine_hugoniot(laws, fan, tol=1e-12)
        for w in fan:
            mesh5.index_of(w.left)
            mesh5.index_of(w.right)


def test_fan_waves_match_node_jumps(mesh5, flat_mesh5, rng):
    # the engine reads a fan's node jumps, everyone else its waves: both
    # must say the same thing
    for mesh in (mesh5, flat_mesh5):
        nodes = list(mesh.nodes())
        for _ in range(200):
            a = mesh.state(*nodes[rng.randrange(len(nodes))])
            b = mesh.state(*nodes[rng.randrange(len(nodes))])
            fan = pt.solve_approx(mesh, a, b)
            assert fan.jumps == [(w.speed, mesh.index_of(w.left), mesh.index_of(w.right), w.kind)
                                 for w in fan.waves]
            assert all(w.left is mesh.states[j[1]] and w.right is mesh.states[j[2]]
                       for w, j in zip(fan.waves, fan.jumps))


def test_mesh_states_built_on_lookup_and_freed_with_the_mesh(laws):
    import weakref

    mesh = pt.GridMesh(laws, 4)
    node = (3, mesh.iw_c + 2)
    assert node not in mesh.states
    u = mesh.states[node]
    assert u is mesh.state(*node) and mesh.index_of(u) == node
    with pytest.raises(NotOnMesh):
        mesh.states[(3, mesh.iw_c - 1)]
    # the state table holds its mesh weakly: reference counting frees both
    ref = weakref.ref(mesh)
    del mesh
    assert ref() is None


def test_free_chain_step_strengths(laws, mesh5):
    ul = mesh5.state(mesh5.iv_free, mesh5.num_w - 1)   # top marker node
    ur = mesh5.state(mesh5.iv_free, 0)                 # vacuum
    fan = pt.solve_approx(mesh5, ul, ur)
    assert all(w.kind == WaveKind.RAREFACTION_STEP for w in fan)
    drops = [laws.w2(w.left) - laws.w2(w.right) for w in fan]
    # every step is one quantum except the one leaving the adjoined node
    assert sum(abs(d - mesh5.eps_w) > 1e-10 for d in drops) == 1
    assert all(0 < d <= mesh5.eps_w + 1e-10 for d in drops)


def test_degenerate_mesh_vacuum(flat_laws, flat_mesh5):
    mesh = flat_mesh5
    vac = mesh.state(mesh.iv_free, VACUUM_IW)
    assert vac.is_vacuum
    # chain from a high free state down to vacuum keeps every drop at one
    # quantum; all fronts are contacts of the degenerate free field
    top = mesh.state(mesh.iv_free, mesh.num_w - 1)
    fan = pt.solve_approx(mesh, top, vac)
    assert all(w.kind == WaveKind.CONTACT for w in fan)
    assert all(w.speed == flat_laws.V_f for w in fan)
    drops = [flat_laws.w2(w.left) - flat_laws.w2(w.right) for w in fan]
    assert all(d <= mesh.eps_w + 1e-10 for d in drops)
