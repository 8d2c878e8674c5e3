import gc
import hashlib
import math
import random

import numpy as np
import pytest

import phasetrack as pt
from phasetrack import engine, grid
from phasetrack.engine import DiagramFront, FrontDiagram
from phasetrack.errors import ValueOutsideOmega
from phasetrack.invariants import snapshot_violations
from phasetrack.riemann import WaveKind

from statespace import is_vacuum, random_state, snap


def diagram(time, fronts):
    return FrontDiagram(time, fronts[0][2] if fronts else None,
                        [DiagramFront(*f) for f in fronts])


# ---------------------------------------------------------------------------
# datum approximation


def test_constant_datum_no_fronts(laws, mesh5):
    u = mesh5.state(4, 40)
    d = pt.PiecewiseConstantDatum((0.0,), (u, u))
    assert pt.approximate_datum(d, mesh5).fronts == []


def test_traffic_light_datum_three_fronts(scenario_cfg, laws, mesh5):
    _, datum = pt.build_scenario(scenario_cfg)
    d0 = pt.approximate_datum(datum, mesh5)
    assert [f.x for f in d0.fronts] == [-10.0, -7.0, 0.0]
    # the queue states are exactly representable on every mesh
    assert is_vacuum(d0.left_state)
    assert d0.fronts[0].right.rho == pytest.approx(laws.R_c, abs=1e-11)
    assert d0.fronts[1].right.rho == pytest.approx(laws.R_max, abs=1e-11)


def test_datum_outside_domain_rejected(laws, mesh5):
    bad = pt.TrafficState(0.2, 0.01, pt.Phase.CONGESTED)   # below the marker band
    with pytest.raises(ValueOutsideOmega):
        pt.approximate_datum(pt.PiecewiseConstantDatum((0.0,), (laws.vacuum(), bad)),
                             mesh5)


def _diagram_tv(laws, diag):
    return sum(laws.coord_distance(f.left, f.right) for f in diag.fronts)


def test_datum_tv_not_increased_random(laws, mesh5, rng):
    for _ in range(40):
        n = rng.randrange(2, 12)
        xs = sorted(rng.uniform(-5, 5) for _ in range(n))
        states = [random_state(laws, rng) for _ in range(n + 1)]
        d = pt.PiecewiseConstantDatum(tuple(xs), tuple(states))
        d0 = pt.approximate_datum(d, mesh5)
        assert _diagram_tv(laws, d0) <= d.tv_coords(laws) + 1e-9


def test_datum_tv_not_increased_smooth(laws, mesh5):
    # sampled smooth congested profile
    xs = [i * 0.05 for i in range(200)]
    states = []
    for x in xs + [10.0]:
        w2 = 0.5 * (laws.W_c + laws.W_max) + 0.35 * (laws.W_max - laws.W_c) * math.sin(x)
        v = 0.5 * laws.V_c + 0.4 * laws.V_c * math.cos(1.7 * x)
        states.append(pt.TrafficState(laws.p_inv(w2 - v), v, pt.Phase.CONGESTED))
    d = pt.PiecewiseConstantDatum(tuple(xs), tuple(states))
    d0 = pt.approximate_datum(d, mesh5)
    assert _diagram_tv(laws, d0) <= d.tv_coords(laws) + 1e-9


def test_datum_stays_within_one_quantum(laws, mesh5, rng):
    for _ in range(20):
        u = random_state(laws, rng)
        d = pt.PiecewiseConstantDatum((0.0,), (u, u))
        d0 = pt.approximate_datum(d, mesh5)
        snapped = d0.left_state
        assert laws.coord_distance(u, snapped) <= mesh5.eps_v + mesh5.eps_w + 1e-9


def test_datum_l1_converges(laws, rng):
    xs = [i * 0.1 for i in range(100)]
    states = []
    for x in xs + [10.0]:
        w2 = 0.5 * (laws.W_c + laws.W_max) + 0.3 * (laws.W_max - laws.W_c) * math.sin(x)
        states.append(pt.TrafficState(laws.p_inv(w2 - 0.01), 0.01, pt.Phase.CONGESTED))
    d = pt.PiecewiseConstantDatum(tuple(xs), tuple(states))
    errs = []
    for n in (3, 5, 7):
        mesh = pt.GridMesh(laws, n)
        d0 = pt.approximate_datum(d, mesh)
        err = 0.0
        for a, b in zip((-0.05,) + d.breaks, d.breaks):
            mid = 0.5 * (a + b)
            err += laws.coord_distance(d.evaluate(mid), d0.evaluate(mid)) * (b - a)
        errs.append(err)
    assert errs[2] < errs[0]
    assert errs[2] <= (pt.GridMesh(laws, 7).eps_v + pt.GridMesh(laws, 7).eps_w) * 10.0


# ---------------------------------------------------------------------------
# event detection


def _free(mesh, iw):
    return mesh.state(mesh.iv_free, iw)


def test_next_event_kinematics(mesh5):
    # two free shocks one unit apart close at the difference of their speeds
    a, b, c = _free(mesh5, 10), _free(mesh5, 25), _free(mesh5, 45)
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (a, b, c))
    res = pt.run(pt.approximate_datum(d, mesh5), 2000.0, mesh5)
    assert res.events == 1
    assert res.log.ts[1] == pytest.approx(1.0 / (pt.sigma(a, b) - pt.sigma(b, c)),
                                          rel=1e-12)


def test_next_event_none_for_parallel(mesh5):
    # congested contacts at one velocity all travel at that velocity
    iv, iw = 5, mesh5.iw_c
    a, b, c = mesh5.state(iv, iw + 2), mesh5.state(iv, iw + 6), mesh5.state(iv, iw + 4)
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (a, b, c))
    res = pt.run(pt.approximate_datum(d, mesh5), 500.0, mesh5)
    assert [f.speed for f in res.initial.fronts] == [a.v, a.v]
    assert len(res.log.ts) == 1
    assert res.events == 0


def _triple_run(mesh5, T):
    # three free shocks placed to reach x = 0 together at t = T
    a, b, c, e = _free(mesh5, 10), _free(mesh5, 25), _free(mesh5, 35), _free(mesh5, 45)
    speeds = [pt.sigma(a, b), pt.sigma(b, c), pt.sigma(c, e)]
    d = pt.PiecewiseConstantDatum(tuple(-s * T for s in speeds), (a, b, c, e))
    return pt.run(pt.approximate_datum(d, mesh5), 100.0, mesh5)


def test_next_event_groups_triple(mesh5):
    T = 10.0
    res = _triple_run(mesh5, T)
    assert res.events == 1
    assert res.log.waves.tolist() == [3, 1]
    t_event = res.log.ts[1]
    assert t_event == pytest.approx(T, rel=1e-12)
    assert [r.t1 for r in res.records].count(t_event) == 3


def _right_pair_due_first(res):
    fa, fb, fc = res.initial.fronts
    t_ab = (fb.x - fa.x) / (fa.speed - fb.speed)
    t_bc = (fc.x - fb.x) / (fb.speed - fc.speed)
    return t_bc < t_ab


def test_next_event_groups_triple_from_its_right_pair(mesh5):
    # at the first T of 10.01, 10.02, ... where rounding brings the right
    # pair due first, the group is completed by walking left from it
    res = next(r for r in (_triple_run(mesh5, 10.0 + k / 100) for k in range(1, 100))
               if _right_pair_due_first(r))
    assert res.events == 1
    assert res.log.waves.tolist() == [3, 1]
    assert [r.t1 for r in res.records].count(res.log.ts[1]) == 3


# ---------------------------------------------------------------------------
# interaction cases


def test_interaction_two_transitions_become_shock(laws, mesh5):
    # low free | congested ceiling floor-marker | critical free: the two
    # phase boundaries annihilate into one free shock
    u_l = mesh5.state(mesh5.iv_free, 10)            # low free band
    u_m = mesh5.state(mesh5.iv_vc, mesh5.iw_c)      # (p^-1(W_c - V_c), V_c)
    u_r = mesh5.state(mesh5.iv_free, mesh5.iw_c)    # (R_f', v_f(R_f'))
    fan = pt.solve_approx(mesh5, u_l, u_r)
    assert [kind for _, _, _, kind, *_ in fan] == [WaveKind.SHOCK]
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (u_l, u_m, u_r))
    res = pt.run(pt.approximate_datum(d, mesh5), 100.0, mesh5, strict=True)
    assert res.log.phase_transitions[0] == 2
    assert res.log.phase_transitions[-1] == 0
    assert res.final.fronts and all(f.kind == WaveKind.SHOCK for f in res.final.fronts)


def test_interaction_congested_shock_swallows_free_island(laws, mesh5):
    # congested ceiling | critical free | slower congested, equal markers:
    # the phase boundaries cancel into a single congested shock
    iw = mesh5.iw_c
    u_l = mesh5.state(mesh5.iv_vc, iw)
    u_m = mesh5.state(mesh5.iv_free, iw)
    u_r = mesh5.state(mesh5.iv_vc - 8, iw)
    fan = pt.solve_approx(mesh5, u_l, u_r)
    assert [kind for _, _, _, kind, *_ in fan] == [WaveKind.SHOCK]
    assert mesh5.states[fan[0][1]].phase is pt.Phase.CONGESTED


def test_interaction_marker_drop_pays_for_fan(laws, mesh5):
    # slow contact carrying a three-quantum marker drop reaches a
    # congested-to-free boundary: the drop converts into a fan and the
    # wave potential pays exactly that drop
    gap = 3
    u_l = mesh5.state(mesh5.iv_vc, mesh5.iw_c + gap)
    u_m = mesh5.state(mesh5.iv_vc, mesh5.iw_c)
    u_r = mesh5.state(mesh5.iv_free, mesh5.iw_c)
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (u_l, u_m, u_r))
    res = pt.run(pt.approximate_datum(d, mesh5), 500.0, mesh5, strict=True)
    log = res.log
    assert log.waves[0] == 2
    assert len(log.ts) == 2          # exactly one interaction
    assert log.waves[1] == 1 + gap   # transition plus the fan steps
    assert log.temple[1] - log.temple[0] == pytest.approx(-gap * mesh5.eps_w, abs=1e-12)
    assert abs(log.tv[1] - log.tv[0]) < 1e-12


def test_interaction_transition_plus_shock_keeps_potential(laws, mesh5):
    # same geometry with the marker rising instead: boundary plus free shock,
    # both functionals unchanged
    u_l = mesh5.state(mesh5.iv_vc, mesh5.iw_c)
    u_m = mesh5.state(mesh5.iv_vc, mesh5.iw_c + 3)
    u_r = mesh5.state(mesh5.iv_free, mesh5.iw_c + 3)
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (u_l, u_m, u_r))
    res = pt.run(pt.approximate_datum(d, mesh5), 500.0, mesh5, strict=True)
    log = res.log
    assert len(log.ts) == 2
    assert abs(log.temple[1] - log.temple[0]) < 1e-12
    assert abs(log.tv[1] - log.tv[0]) < 1e-12
    kinds = {f.kind for f in res.final.fronts}
    assert kinds == {WaveKind.PHASE_TRANSITION, WaveKind.SHOCK}


def test_two_free_shocks_merge(laws, mesh5):
    a = mesh5.state(mesh5.iv_free, 10)
    b = mesh5.state(mesh5.iv_free, 25)
    c = mesh5.state(mesh5.iv_free, 45)
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (a, b, c))
    res = pt.run(pt.approximate_datum(d, mesh5), 2000.0, mesh5, strict=True)
    assert res.log.waves[0] == 2
    assert res.log.waves[-1] == 1
    (front,) = res.final.fronts
    assert front.speed == pytest.approx(pt.sigma(a, c), abs=1e-13)


# ---------------------------------------------------------------------------
# running and evaluating


def test_riemann_datum_matches_fan(laws, mesh5, rng):
    for _ in range(10):
        a = snap(mesh5, random_state(laws, rng))
        b = snap(mesh5, random_state(laws, rng))
        if a is b:
            continue
        d = pt.PiecewiseConstantDatum((0.0,), (a, b))
        res = pt.run(pt.approximate_datum(d, mesh5), 50.0, mesh5)
        assert res.events == 0
        fan = pt.solve_approx(mesh5, a, b)
        # both sides of every jump, plus one probe beyond each end
        xis = [s + pad for s, *_ in fan for pad in (-1e-6, 1e-6)]
        xis += [min(xis) - 1.0, max(xis) + 1.0]
        t = 37.0
        for xi in sorted(xis):
            u_run = res.diagram_at(t).evaluate(xi * t)
            # the fan right-continuously: the right state of every jump at
            # or left of xi
            u_fan = a
            for s, _, r, *_ in fan:
                if s <= xi:
                    u_fan = mesh5.states[r]
            assert laws.states_equal(u_run, u_fan, tol=1e-9), (a, b, xi)


def test_evaluate_conventions(laws, mesh5):
    a, b = mesh5.state(2, 40), mesh5.state(7, 40)
    d = diagram(0.0, [(1.0, 0.5, a, b, WaveKind.SHOCK)])
    assert d.evaluate(1.0) is b       # right state at the front
    assert d.evaluate(0.999) is a
    assert d.profile([0.0, 1.0, 2.0]) == [a, b, b]


def _resolved_log(mesh, a, b):
    """The functional log of the datum a | b, resolved at t = 0 alone."""
    d = pt.PiecewiseConstantDatum((0.0,), (a, b))
    return pt.run(pt.approximate_datum(d, mesh), 0.0, mesh).log


def test_functionals_on_single_fronts(laws, mesh5):
    # pure congested shock: potential equals the velocity jump
    iw = mesh5.iw_c + 6
    a, b = mesh5.state(9, iw), mesh5.state(2, iw)
    log = _resolved_log(mesh5, a, b)
    assert log.waves.tolist() == [1]
    assert log.temple[0] == pytest.approx(abs(a.v - b.v), abs=1e-12)
    assert log.tv[0] == pytest.approx(abs(a.v - b.v), abs=1e-12)
    # slow contact with a two-quantum drop counts the drop twice
    c, e = mesh5.state(5, iw), mesh5.state(5, iw - 2)
    log = _resolved_log(mesh5, c, e)
    drop = laws.w2(c) - laws.w2(e)
    assert log.waves.tolist() == [1]
    assert log.tv[0] == pytest.approx(drop, abs=1e-10)
    assert log.temple[0] == pytest.approx(2 * drop, abs=1e-10)
    assert log.phase_transitions.tolist() == [0]
    # a free state against a congested one: one phase boundary
    assert _resolved_log(mesh5, mesh5.state(mesh5.iv_free, 10), a).phase_transitions[0] == 1


def test_potential_between_tv_and_twice_tv(laws, mesh5, rng):
    for _ in range(20):
        datum = pt.random_mesh_datum(mesh5, rng, max_jumps=15)
        res = pt.run(pt.approximate_datum(datum, mesh5), 100.0, mesh5)
        for tv, temple in zip(res.log.tv, res.log.temple):
            assert tv - 1e-12 <= temple <= 2.0 * tv + 1e-12


def test_log_monotones_scenario(scenario_cfg):
    laws, datum = pt.build_scenario(scenario_cfg)
    mesh = pt.GridMesh(laws, 6)
    res = pt.run(pt.approximate_datum(datum, mesh), 450.0, mesh)
    log = res.log
    assert all(b - a <= 1e-10 for a, b in zip(log.tv, log.tv[1:]))
    assert all(b - a <= 1e-10 for a, b in zip(log.temple, log.temple[1:]))
    pts = log.phase_transitions
    assert all(b <= a and (a - b) % 2 == 0 for a, b in zip(pts, pts[1:]))


def test_time_lipschitz(laws, mesh5, rng):
    speed_cap = max(laws.V_max, laws.R_max * laws.p.deriv(laws.R_max))
    for _ in range(5):
        datum = pt.random_mesh_datum(mesh5, rng, max_jumps=15)
        L = datum.tv_coords(laws) * speed_cap
        res = pt.run(pt.approximate_datum(datum, mesh5), 80.0, mesh5)
        for _ in range(10):
            t, s = rng.uniform(0, 80), rng.uniform(0, 80)
            assert res.l1_distance(t, s) <= L * abs(t - s) + 1e-8


def test_mass_conserved_in_expanding_window(laws, mesh5, rng):
    # vacuum tails: the car count in any window containing all fronts is
    # constant in time
    vac = mesh5.state(mesh5.iv_free, 0)
    inner = [snap(mesh5, random_state(laws, rng, vacuum_prob=0.0)) for _ in range(4)]
    datum = pt.PiecewiseConstantDatum((-4.0, -2.0, 0.0, 2.0, 4.0),
                                      (vac, *inner, vac))
    res = pt.run(pt.approximate_datum(datum, mesh5), 60.0, mesh5)
    back_cap = laws.R_max * laws.p.deriv(laws.R_max)

    def mass(t):
        d = res.diagram_at(t)
        lo = -4.0 - back_cap * t - 1.0
        hi = 4.0 + laws.V_max * t + 1.0
        cuts = [lo] + [f.x for f in d.fronts if lo < f.x < hi] + [hi]
        return sum(d.evaluate(0.5 * (a + b)).rho * (b - a)
                   for a, b in zip(cuts, cuts[1:]))

    m0 = mass(0.0)
    assert m0 > 0
    for t in (15.0, 30.0, 60.0):
        assert mass(t) == pytest.approx(m0, abs=1e-8)


def test_run_final_bounds(laws, mesh5, rng):
    # final-time variation and sup bounds of the evolved profile
    C = max(abs(laws.W_max), abs(laws.W_min)) + laws.V_max
    for _ in range(5):
        datum = pt.random_mesh_datum(mesh5, rng, max_jumps=20)
        res = pt.run(pt.approximate_datum(datum, mesh5), 150.0, mesh5)
        assert res.log.tv[-1] <= datum.tv_coords(laws) + 1e-10
        assert _diagram_tv(laws, res.final) <= datum.tv_coords(laws) + 1e-10
        for f in res.final.fronts:
            for u in (f.left, f.right):
                assert abs(laws.w1(u)) + abs(laws.w2(u)) <= C + 1e-12


def test_observers_called_at_events(laws, mesh5):
    a = mesh5.state(mesh5.iv_free, 10)
    b = mesh5.state(mesh5.iv_free, 25)
    c = mesh5.state(mesh5.iv_free, 45)
    d = pt.PiecewiseConstantDatum((-1.0, 0.0), (a, b, c))
    seen = []
    res = pt.run(pt.approximate_datum(d, mesh5), 2000.0, mesh5, observers=[seen.append])
    assert len(seen) == res.events == 1
    # a typed record whose functionals are the event's functional-log row
    (event,) = seen
    assert type(event) is engine.Event
    assert event._fields == ("t", "x", "tv", "temple", "waves", "phase_transitions")
    t, x, *functionals = event
    assert (t, *functionals) == list(res.log.rows())[1]
    assert x == res.history.x0[0] + res.history.speed[0] * (t - res.history.t0[0])


@pytest.mark.parametrize("t_end", [-5.0, -1e-300, math.inf, math.nan])
def test_run_rejects_a_negative_or_non_finite_t_end(mesh5, rng, t_end):
    diagram0 = pt.approximate_datum(pt.random_mesh_datum(mesh5, rng), mesh5)
    with pytest.raises(ValueError):
        pt.run(diagram0, t_end, mesh5)
    assert pt.run(diagram0, 0.0, mesh5).events == 0


def test_event_cap_overflow(laws, mesh5, rng):
    from phasetrack.errors import EventOverflow
    datum = pt.random_mesh_datum(mesh5, rng, max_jumps=30)
    with pytest.raises(EventOverflow):
        pt.run(pt.approximate_datum(datum, mesh5), 300.0, mesh5, event_cap=3)


# ---------------------------------------------------------------------------
# bit identity, snapshot order and memory of the event loop

# sha256 per datum of every record field and every functional-log row, as
# the event loop produced them once the free line was built in closed form
# and a pair due before the present was clamped to it; any change to the
# event sequence, a speed, a state or a functional changes a digest
ENGINE_DIGESTS = {
    "traffic": ["6df296b6c1742029cda199d7e720a2730c189fd3945b209539bd6d5784df9172",
                "8385784c014781b43a7db04727b3cc9e6a230c067954d10be07a11676df85068",
                "31978a95858575df2df7121395b9e288c63855b53fe943313a61ceebf9c53885",
                "86426daa485adacc72a665b7fdb7298bcad909f79aa8e164eb823d8790980636",
                "e8cee858b68ae7c4ebbb651935cebc2fdb6042dd344b95a85d3115486d9a71c9",
                "696081af24da661a84bccb2f646a72943a52b0b5b47222bbd197b4107f9a5f2c"],
    "flat": ["8ffc54d1c20694c8052f31212af58b4257ac640bf1075039627a24b07a9b3ca2",
             "fc3bc826a2de5c455ddb94abef23c6661974adbc9e676b768c6ce6e071fc0f62",
             "22fcc8fb184080d3fd403dbd082296b3423f38db8945ef39836caeaf9976f90f",
             "2059326a72f50f44a3c6d4674a5e21acbf79e42b8698763b077bac5decce743a",
             "45f2c8964410ec069272f4c0d730031fb6c41ec8507f4ee30acbcd4497941de9",
             "c0ef52af861ebc2fc394c4974969470b414cd22d88df842dcd217622a5c827ec"],
}


def _seeded_run(mesh, seed, max_jumps, t_end):
    datum = pt.random_mesh_datum(mesh, random.Random(1000 + seed), max_jumps=max_jumps)
    return pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)


def _run_digest(res):
    h = hashlib.sha256()
    for r in res.records:
        h.update(repr((r.t0, r.t1, r.x0, r.speed,
                       r.left.rho, r.left.v, r.left.phase.value,
                       r.right.rho, r.right.v, r.right.phase.value,
                       r.kind and r.kind.value)).encode())
    for row in res.log.rows():
        h.update(repr(row).encode())
    return h.hexdigest()


def test_engine_bit_identity(laws, flat_laws):
    cases = {"traffic": (pt.GridMesh(laws, 6), 12, 250.0),
             "flat": (pt.GridMesh(flat_laws, 5), 8, 150.0)}
    for name, (mesh, jumps, t_end) in cases.items():
        got = [_run_digest(_seeded_run(mesh, s, jumps, t_end))
               for s in range(len(ENGINE_DIGESTS[name]))]
        assert got == ENGINE_DIGESTS[name], name


@pytest.mark.parametrize("family", ["traffic", "flat"])
def test_events_resolve_on_node_ids(laws, flat_laws, monkeypatch, family):
    # run resolves each datum jump and each event by one solve_approx call
    # on the mesh's own node states; solve_approx finds each of those by
    # identity, one id(state) probe, so index_of's search for other states
    # never runs
    mesh = pt.GridMesh(laws if family == "traffic" else flat_laws, 5)
    datum = pt.random_mesh_datum(mesh, random.Random(11), max_jumps=20)
    diagram0 = pt.approximate_datum(datum, mesh)
    calls = {"solve_approx": 0, "index_of": 0}
    solve_approx, index_of = grid.solve_approx, grid.GridMesh.index_of

    def counted_solve(*args):
        calls["solve_approx"] += 1
        return solve_approx(*args)

    def counted_index_of(self, u):
        calls["index_of"] += 1
        return index_of(self, u)

    monkeypatch.setattr(grid.GridMesh, "index_of", counted_index_of)
    for module in (grid, engine):
        monkeypatch.setattr(module, "solve_approx", counted_solve)
    res = pt.run(diagram0, 150.0, mesh)
    n = len(diagram0.fronts)
    assert res.events > 10 * n
    assert calls == {"solve_approx": n + res.events, "index_of": 0}


def _continuity_breaks(d):
    # positions of a stack of equal-speed fronts may be out of order by a
    # few ulps; the states across them may not break
    fr = d.fronts
    bad = [] if not fr or fr[0].left is d.left_state else [-1]
    bad += [i for i, (a, b) in enumerate(zip(fr, fr[1:]))
            if a.right is not b.left or b.x < a.x - 1e-9 * (1.0 + abs(a.x))]
    return bad


def test_snapshots_keep_front_order(flat_laws):
    # constant-free-speed stretches leave stacks of equal-speed contacts
    # whose positions agree only up to rounding; a (position, speed) sort
    # scrambled them and broke the state across fronts
    for n in (5, 7):
        mesh = pt.GridMesh(flat_laws, n)
        for seed in range(12):
            res = _seeded_run(mesh, seed, 8, 150.0)
            assert _continuity_breaks(res.initial) == [], (n, seed)
            assert _continuity_breaks(res.final) == [], (n, seed)


def test_run_leaves_no_front_cycles(laws, mesh5):
    # dead and surviving fronts are unlinked, so reference counting alone
    # frees them
    datum = pt.random_mesh_datum(mesh5, random.Random(7), max_jumps=15)
    diagram0 = pt.approximate_datum(datum, mesh5)
    gc.collect()
    gc.disable()
    try:
        res = pt.run(diagram0, 100.0, mesh5)
        leaked = sum(1 for o in gc.get_objects() if type(o) is engine._F)
    finally:
        gc.enable()
    assert res.events > 0
    assert leaked == 0


def test_front_records_are_immutable(laws, mesh5):
    datum = pt.random_mesh_datum(mesh5, random.Random(3), max_jumps=6)
    res = pt.run(pt.approximate_datum(datum, mesh5), 40.0, mesh5)
    rec = res.records[0]
    for name in ("t0", "t1", "x0", "speed", "left", "right", "kind"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0.0)
    with pytest.raises(AttributeError):
        rec.extra = 0.0
    assert repr(rec).startswith(f"FrontRecord(t0={rec.t0!r}, t1={rec.t1!r}, ")


# ---------------------------------------------------------------------------
# metamorphic checks of the event geometry: a datum moved far from x = 0
# has the same events, and a datum scaled in x and t by a power of two,
# which is exact in binary floating point, has the scaled history bit for bit

META_CASES = {"traffic": (6, 12, 250.0), "flat": (5, 25, 150.0)}   # n, max_jumps, t_end


@pytest.fixture(scope="module", params=list(META_CASES))
def meta_corpus(request, laws, flat_laws):
    """(mesh, t_end, [(datum, its run)]) of eight seeded data of a family."""
    n, jumps, t_end = META_CASES[request.param]
    mesh = pt.GridMesh(laws if request.param == "traffic" else flat_laws, n)
    rng = random.Random(5)
    data = [pt.random_mesh_datum(mesh, rng, max_jumps=jumps) for _ in range(8)]
    return mesh, t_end, [(d, pt.run(pt.approximate_datum(d, mesh), t_end, mesh)) for d in data]


def _run_mapped(mesh, datum, t_end, f):
    """The run of datum with every breakpoint mapped by f."""
    moved = pt.PiecewiseConstantDatum(tuple(map(f, datum.breaks)), datum.states)
    return pt.run(pt.approximate_datum(moved, mesh), t_end, mesh)


def test_shifted_data_keep_their_events(meta_corpus):
    # a dropped collision lets fronts pass through each other: events go
    # missing and the final snapshot loses its order
    mesh, t_end, runs = meta_corpus
    for shift in (2.0 ** 10, 2.0 ** 13):
        for i, (datum, base) in enumerate(runs):
            res = _run_mapped(mesh, datum, t_end, lambda x: x + shift)
            assert res.events == base.events, (shift, i)
            assert snapshot_violations(res.initial) == [], (shift, i)
            assert snapshot_violations(res.final) == [], (shift, i)


def _history_bytes(res, scale):
    """The history's and the log's columns as bytes, with times and
    positions divided by scale."""
    h, log = res.history, res.log
    cols = [np.asarray(c) / scale for c in (h.t0, h.t1, h.x0, log.ts)]
    cols += [np.asarray(c) for c in (h.speed, h.left, h.right, log.tv, log.temple,
                                      log.waves, log.phase_transitions)]
    return [c.tobytes() for c in cols] + [h.kind]


def test_scaled_data_give_the_scaled_history(meta_corpus):
    mesh, t_end, runs = meta_corpus
    for k in (8, -8, 20, -20):
        scale = 2.0 ** k
        for i, (datum, base) in enumerate(runs):
            res = _run_mapped(mesh, datum, t_end * scale, lambda x: x * scale)
            assert _history_bytes(res, scale) == _history_bytes(base, 1.0), (k, i)
