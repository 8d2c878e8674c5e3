import bisect
import dataclasses
import hashlib
import math
import pickle
import random

import mpmath as mp
import pytest

import phasetrack as pt
from phasetrack.errors import NotReached, OutOfWindow
from phasetrack.numerics import BISECT_TOL
from phasetrack.riemann import WaveKind
from phasetrack.scenario import ExactSolution

from references import (FanKind, car_count_residual, project_by_ray_pos, ray_pos,
                        solve_coupled)
from statespace import is_vacuum


@pytest.fixture(scope="module")
def table(scenario_cfg):
    return pt.closed_form_table(scenario_cfg)


@pytest.fixture(scope="module")
def exact(scenario_cfg):
    return ExactSolution(scenario_cfg)


def test_build_scenario_constants(scenario_cfg, laws):
    assert laws.rho_free_crit == pytest.approx(0.3, abs=1e-10)
    assert laws.R_c == pytest.approx(math.sqrt(1.0 / 8.0), abs=1e-10)
    assert laws.R_max == pytest.approx(math.sqrt(4.0 / 30.0), abs=1e-10)


def test_datum_structure(scenario_cfg, laws):
    _, datum = pt.build_scenario(scenario_cfg)
    assert datum.breaks == (-10.0, -7.0, 0.0)
    assert is_vacuum(datum.states[0]) and is_vacuum(datum.states[3])
    assert datum.states[1].v == 0.0 and datum.states[2].v == 0.0


def test_initial_riemann_fans(scenario_cfg, laws):
    _, datum = pt.build_scenario(scenario_cfg)
    # stationary phase transition at x1
    fan1 = solve_coupled(laws, datum.states[0], datum.states[1])
    assert [w.kind for w in fan1] == [WaveKind.PHASE_TRANSITION]
    assert fan1.waves[0].speed == 0.0
    # stationary contact at x2
    fan2 = solve_coupled(laws, datum.states[1], datum.states[2])
    assert [w.kind for w in fan2] == [WaveKind.CONTACT]
    assert fan2.waves[0].speed == 0.0
    # fan + phase transition + fan at the light
    fan3 = solve_coupled(laws, datum.states[2], datum.states[3])
    assert [w.kind for w in fan3] == [FanKind.RAREFACTION, WaveKind.PHASE_TRANSITION,
                                      FanKind.RAREFACTION]


def test_first_interaction_times(table, scenario_cfg, laws):
    # both entries of the interaction chronology ratio through the slopes
    lam_rmax = -2.0 * laws.R_max ** 2
    assert table.a2[0] == pytest.approx(-7.0 / lam_rmax, abs=1e-12)
    assert table.a2[0] > 0
    lam_rc = -2.0 * laws.R_c ** 2
    assert table.a1[0] == pytest.approx(table.a2[0] + (-3.0) / lam_rc, abs=1e-12)


def test_event_chronology(table):
    assert table.a2[0] < table.b2[0] < table.c2[0]
    assert table.a1[0] < table.b1[0] < table.c1[0]
    assert table.t_star < table.t_d2
    assert all(p[1] <= 0.0 for p in (table.a2, table.b2, table.c2,
                                     table.a1, table.b1, table.c1))


def test_car_count_identity(table, scenario_cfg, laws):
    assert abs(car_count_residual(table, laws, scenario_cfg)) <= 1e-10


def test_structural_assumption_flagged(table, scenario_cfg):
    # with these numbers the trailing shocks meet upstream of the light
    assert not table.structural_ok
    assert table.merge is not None and table.merge[1] < 0.0


def test_merged_passage_flux_argument(table, scenario_cfg, laws):
    total_cars = (scenario_cfg.x2 - scenario_cfg.x1) * laws.R_c \
        + (0.0 - scenario_cfg.x2) * laws.R_max
    t_flux = total_cars / (laws.rho_free_max * laws.V_f)
    assert table.t_last == pytest.approx(t_flux, abs=1e-10)


@mp.workdps(50)
def test_closed_form_against_high_precision_oracle(table, scenario_cfg):
    # independent evaluation of every closed form with 50-digit arithmetic
    one = mp.mpf(1)
    g, vmax = mp.mpf(2), one / 20
    wmax, wc = mp.mpf(4) / 30, one / 8
    vc = mp.mpf("0.02")
    x1, x2 = mp.mpf(-10), mp.mpf(-7)

    def solve_quad(w):
        return (vmax / 2 + mp.sqrt(vmax ** 2 / 4 + w - vmax)) / 1  # rho^2 - vmax rho + vmax - w = 0

    rf1 = (vmax + mp.sqrt(vmax ** 2 - 4 * (vmax - wc))) / 2
    rf2 = (vmax + mp.sqrt(vmax ** 2 - 4 * (vmax - wmax))) / 2
    vf = vmax * (1 - rf2)
    rc, rmax = mp.sqrt(wc), mp.sqrt(wmax)

    def sig(rl, vl, rr, vr):
        return (rr * vr - rl * vl) / (rr - rl)

    sig_pt = sig(mp.sqrt(wmax - vc), vc, rf2, vf)
    sig_s = sig(rf1, vmax * (1 - rf1), rf2, vf)
    t_star = rmax * abs(x2) / (rf2 * vf)
    t_c2 = rmax * abs(x2) / (rf2 * (vf - sig_pt))
    x_c2 = sig_pt * t_c2
    t_d2 = t_c2 - x_c2 / sig_s
    vf1 = vmax * (1 - rf1)
    t_d1 = ((x2 - x1) * rc - x2 * rmax) / (rf1 * vf1) + \
        (1 - sig_pt / sig_s) * (1 - rf2 * vf / (rf1 * vf1)) * rmax * abs(x2) \
        / (rf2 * (vf - sig_pt))

    assert table.t_star == pytest.approx(float(t_star), abs=1e-10)
    assert table.c2[0] == pytest.approx(float(t_c2), abs=1e-9)
    assert table.c2[1] == pytest.approx(float(x_c2), abs=1e-9)
    assert table.t_d2 == pytest.approx(float(t_d2), abs=1e-7)
    assert table.t_d1 == pytest.approx(float(t_d1), abs=1e-7)


def test_accelerating_contact_against_closed_form(table, scenario_cfg, laws):
    # for quadratic pressure the contact path through the main fan solves a
    # linear equation: x = W_max t + C t^(1/3)
    t_a2, x2 = table.a2
    C = (x2 - laws.W_max * t_a2) / t_a2 ** (1.0 / 3.0)
    xi_b = laws.V_c - 2.0 * (laws.W_max - laws.V_c)
    t_b2 = ((-C) / (laws.W_max - xi_b)) ** 1.5
    assert table.b2[0] == pytest.approx(t_b2, abs=1e-11)
    assert table.b2[1] == pytest.approx(xi_b * t_b2, abs=1e-11)


def test_d1_matches_construction(table):
    # the car-count closed form and the geometric construction agree
    assert table.t_d1 == pytest.approx(table.t_d1_construction, abs=1e-11)


def test_exact_left_of_everything_is_vacuum(exact):
    assert is_vacuum(exact.evaluate(50.0, -30.0))
    assert is_vacuum(exact.evaluate(50.0, 50.0))


def test_exact_main_fan_identity(exact):
    laws = exact.laws
    t = 20.0
    lo = laws.lambda1(pt.TrafficState(laws.R_max, 0.0, pt.Phase.CONGESTED))
    hi = exact.curves.xi_b
    for i in range(1, 10):
        xi = lo + (hi - lo) * i / 10
        u = exact.evaluate(t, xi * t)
        assert laws.w2(u) == pytest.approx(laws.W_max, abs=1e-10)
        assert laws.lambda1(u) == pytest.approx(xi, abs=1e-10)


def test_exact_reemitted_fan_marker(exact):
    laws = exact.laws
    tab = exact.table
    t = 0.5 * (tab.a1[0] + tab.b1[0])
    x_lo = exact.curves.pt1_pos(t)
    x_hi = exact.curves.c2_pos(t) if t <= tab.b2[0] else exact.curves.last_ray(t)
    for i in range(1, 8):
        x = x_lo + (x_hi - x_lo) * i / 8
        u = exact.evaluate(t, x)
        assert u.phase is pt.Phase.CONGESTED
        assert laws.w2(u) == pytest.approx(laws.W_c, abs=1e-9)


def test_exact_profile_continuity_at_fan_edges(exact):
    tab = exact.table
    t = 0.5 * (tab.a2[0] + tab.b2[0])
    x = exact.curves.c2_pos(t)
    left = exact.evaluate(t, x - 1e-9)
    right = exact.evaluate(t, x + 1e-9)
    # velocity is continuous across the accelerating contact
    assert left.v == pytest.approx(right.v, abs=1e-6)
    assert abs(left.rho - right.rho) > 1e-3   # marker jumps


def test_exact_mass_conserved(exact):
    laws = exact.laws
    total0 = 3.0 * laws.R_c + 7.0 * laws.R_max
    for t in (10.0, 40.0, 120.0, 300.0):
        lo, hi = -12.0, laws.V_max * t + 1.0
        cuts = sorted(set(exact.breakpoints(t)) | {lo, hi})
        cuts = [c for c in cuts if lo <= c <= hi]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            npan = 24
            for j in range(npan):
                m = a + (b - a) * (j + 0.5) / npan
                total += exact.evaluate(t, m).rho * (b - a) / npan
        assert total == pytest.approx(total0, rel=2e-4)


def test_exact_out_of_window(exact):
    with pytest.raises(OutOfWindow):
        exact.evaluate(exact.window_end + 1.0, 0.0)
    with pytest.raises(OutOfWindow):
        exact.evaluate(-1.0, 0.0)


def test_exact_solution_pickle_round_trip(exact):
    # one construction ships to ladder workers; the copy must answer alike
    clone = pickle.loads(pickle.dumps(exact))
    tab = exact.table
    times = [0.5 * tab.a2[0], 0.5 * (tab.a2[0] + tab.a1[0]),
             0.5 * (tab.a1[0] + tab.b1[0]), 0.5 * (tab.b2[0] + tab.c2[0]),
             0.5 * (tab.c2[0] + tab.c1[0]), 0.5 * (tab.c1[0] + tab.t_d1)]
    regions = set()
    for t in times:
        bounds = exact.breakpoints(t)
        assert clone.breakpoints(t) == bounds
        xs = [bounds[0] - 1.0, bounds[-1] + 1.0]
        xs += [0.5 * (a + b) for a, b in zip(bounds, bounds[1:])]
        for x in xs:
            assert clone.evaluate(t, x) == exact.evaluate(t, x)
            regions.add(exact._segments(t)[1][bisect.bisect_right(bounds, x)])
    assert {"fan_main", "fan_reemitted", "fan_free"} <= regions


# sha256 of the construction with closed-form fan states and curved paths
# and bisected ray projections: the c2 and pt1 paths with their source
# speeds and ray slopes at 1,025 evenly spaced source times, the b-points,
# the event table and `evaluate` on a grid that crosses every fan; any
# change to a bit of any of them changes a digest
CONSTRUCTION_DIGESTS = {
    (): "d6180a012648f9c24af6f97a06b277cc68e29204843b8639b5363a13589f4e35",
    (("x1", -13.0), ("x2", -5.0)):
        "98281fe345bb1db0164f84d540c44a7f5e1bcc1866e202e944bdfb6e5c2817f0",
}


def _construction_digest(ex):
    cur, tab = ex.curves, ex.table
    h = (cur.t_b2 - cur.t_a2) / 1024
    ss = [cur.t_a2 + k * h for k in range(1024)] + [cur.t_b2]
    v0 = [cur.source_speed(s) for s in ss]
    parts = [ss, [cur.c2_pos(s) for s in ss], v0, [cur.ray_slope(v) for v in v0],
             [cur.pt1_at(s) for s in ss],
             (cur.t_b2, cur.x_b2, cur.t_b1, cur.x_b1),
             [getattr(tab, f.name) for f in dataclasses.fields(tab)]]
    regions = set()
    t_hi = min(1.5 * tab.c1[0], ex.window_end)
    for k in range(1, 41):
        t = t_hi * k / 40
        bounds, regs = ex._segments(t)
        lo, hi = bounds[0] - 1.0, bounds[-1] + 1.0
        for j in range(121):
            x = lo + (hi - lo) * j / 120
            u = ex.evaluate(t, x)
            parts.append((t, x, u.rho, u.v, u.phase.value))
            regions.add(regs[bisect.bisect_right(bounds, x)])
    return hashlib.sha256(repr(parts).encode()).hexdigest(), regions


def test_exact_construction_bit_identity():
    for kw, digest in CONSTRUCTION_DIGESTS.items():
        ex = ExactSolution(pt.TrafficLightConfig(**dict(kw)))
        got, regions = _construction_digest(ex)
        assert {"fan_main", "fan_reemitted", "fan_free"} <= regions, kw
        assert got == digest, kw


def test_project_matches_bisection_over_ray_pos(exact):
    cur = exact.curves
    u = 2.0 ** -53
    rng = random.Random(5)
    ends = {cur.t_a2: 0, cur.t_b2: 0}
    for _ in range(2000):
        t = rng.uniform(cur.t_a2, 2.0 * cur.t_b1)
        first, last = ray_pos(cur, cur.t_a2, t), ray_pos(cur, cur.t_b2, t)
        x = rng.uniform(min(first, last) - 1.0, max(first, last) + 1.0)
        got, ref = cur.project(t, x), project_by_ray_pos(cur, t, x)
        if x <= first or x >= last:
            # beyond the first or last ray both clamp to the same end
            assert got == ref and got in ends, (t, x)
            ends[got] += 1
            continue
        # inside, both bisect the same float ray position: `project` stops
        # within BISECT_TOL / 2 of its crossing, the 80-step bisection
        # settles to one ulp of it, and the crossing is blurred by the
        # ray's rounding, fewer than eight roundings on terms no larger
        # than `size`, over the ray's slope in s (a central difference)
        lam = cur.ray_slope(cur.source_speed(got))
        size = abs(x) + abs(cur.c2_pos(got)) + abs(t - got) * abs(lam)
        dh = 1e-6 * got
        slope = (ray_pos(cur, got + dh, t) - ray_pos(cur, got - dh, t)) / (2.0 * dh)
        bound = 0.5 * BISECT_TOL + 16.0 * u * (size / slope + got)
        assert abs(got - ref) <= bound, (t, x, got, ref)
    # both clamps and the interior are exercised
    assert min(ends.values()) > 50 and sum(ends.values()) < 1500, ends


def _state_bits(u):
    return u.rho.hex(), u.v.hex(), u.phase


def test_profile_matches_evaluate(exact):
    # a profile builds its region list once; each state keeps the bits of
    # a pointwise read: at t = 0, across every region and at the end of the
    # window
    tab = exact.table
    t_hi = min(1.5 * tab.c1[0], exact.window_end)
    times = [0.0] + [t_hi * k / 40 for k in range(1, 41)] + [exact.window_end]
    regions = set()
    for t in times:
        bounds = exact.breakpoints(t) if t > 0.0 else list(exact.datum.breaks)
        lo, hi = bounds[0] - 1.0, bounds[-1] + 1.0
        xs = [lo + (hi - lo) * j / 150 for j in range(151)]
        xs += [b + d for b in bounds for d in (-1e-9, 0.0, 1e-9)]
        got = exact.profile(t, xs)
        assert [_state_bits(u) for u in got] \
            == [_state_bits(exact.evaluate(t, x)) for x in xs], t
        if t > 0.0:
            _, regs = exact._segments(t)
            regions.update(regs[bisect.bisect_right(bounds, x)] for x in xs)
    cur = exact.curves
    assert {"fan_main", "fan_reemitted", "fan_free", exact.u_rc, exact.u_rmax,
            exact.u_f1, exact.u_f2, exact.vac, cur.u_wmax_vc, cur.u_wc_vc} <= regions
    with pytest.raises(OutOfWindow):
        exact.profile(exact.window_end * 1.01, [0.0])


def test_exact_reference_helper(exact):
    states = exact.profile(10.0, [-20.0, -8.0])
    assert is_vacuum(states[0])
    assert states[1].v == 0.0


def test_last_passage_converges(scenario_cfg, table, laws):
    _, datum = pt.build_scenario(scenario_cfg)
    prev_err = None
    for n in (4, 6, 8):
        mesh = pt.GridMesh(laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), 1.25 * table.t_last, mesh)
        t = pt.last_passage_time(res)
        err = abs(t - table.t_last)
        # the merged front's passage is mesh-exact, and so is the closed
        # form: they agree to rounding at every level
        assert err <= 1e-9
        prev_err = err


def test_last_passage_not_reached(scenario_cfg, laws):
    mesh = pt.GridMesh(laws, 4)
    vac = mesh.state(mesh.iv_free, 0)
    datum = pt.PiecewiseConstantDatum((0.0,), (vac, vac))
    res = pt.run(pt.approximate_datum(datum, mesh), 10.0, mesh)
    with pytest.raises(NotReached):
        pt.last_passage_time(res)
    # ended too early: the queue is still upstream
    _, full = pt.build_scenario(scenario_cfg)
    res2 = pt.run(pt.approximate_datum(full, mesh), 50.0, mesh)
    with pytest.raises(NotReached):
        pt.last_passage_time(res2)


def test_sim_matches_exact_profile_l1(scenario_cfg, exact, laws):
    _, datum = pt.build_scenario(scenario_cfg)
    t_probe = 30.0     # inside the fan-crossing era, where structure is rich
    errs = []
    for n in (4, 6):
        mesh = pt.GridMesh(laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), 35.0, mesh)
        diag = res.diagram_at(t_probe)
        window = (scenario_cfg.x1 - 1.0, 1.0)
        cuts = sorted(set(exact.breakpoints(t_probe)) | set(diag.positions())
                      | set(window))
        cuts = [c for c in cuts if window[0] <= c <= window[1]]
        l1 = 0.0
        for a, b in zip(cuts, cuts[1:]):
            for j in range(8):
                m = a + (b - a) * (j + 0.5) / 8
                l1 += laws.coord_distance(diag.evaluate(m),
                                          exact.evaluate(t_probe, m)) * (b - a) / 8
        errs.append(l1)
    assert errs[1] < 0.5 * errs[0]


def test_l1_at_half_discharge_monotone_with_slack(scenario_cfg, exact, laws):
    # at half the closed-form discharge time the profile is piecewise
    # constant with mesh-exact plateaus, so the error is already tiny at
    # every level; it must never grow by more than the allowed slack
    _, datum = pt.build_scenario(scenario_cfg)
    t_probe = 0.5 * exact.table.t_d1
    errs = []
    for n in (4, 5, 6):
        mesh = pt.GridMesh(laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), t_probe * 1.05, mesh)
        diag = res.diagram_at(t_probe)
        window = (scenario_cfg.x1 - 1.0, 1.0)
        cuts = sorted(set(exact.breakpoints(t_probe)) | set(diag.positions())
                      | set(window))
        cuts = [c for c in cuts if window[0] <= c <= window[1]]
        l1 = sum(laws.coord_distance(diag.evaluate(0.5 * (a + b)),
                                     exact.evaluate(t_probe, 0.5 * (a + b))) * (b - a)
                 for a, b in zip(cuts, cuts[1:]))
        errs.append(l1)
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.1 * a + 1e-12
