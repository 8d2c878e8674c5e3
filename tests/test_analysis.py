import math
import random

import pytest

import phasetrack as pt
from phasetrack.analysis import (entropy_report, record_rh_residual,
                                 step_deficit_totals)
from phasetrack.errors import SamePhase, UnsupportedTestFunction
from phasetrack.riemann import WaveKind

from statespace import random_state


def cong(laws, w2, v):
    return pt.TrafficState(laws.p_inv(w2 - v), v, pt.Phase.CONGESTED)


def run_random(laws, mesh, rng, jumps=12, t_end=120.0):
    datum = pt.random_mesh_datum(mesh, rng, max_jumps=jumps)
    return pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)


# ---------------------------------------------------------------------------
# jump-condition residuals


def test_rh_residuals_on_run(laws, mesh5, rng):
    res = run_random(laws, mesh5, rng)
    for rec in res.records:
        mass, mom = record_rh_residual(laws, rec)
        assert abs(mass) <= 1e-12
        if rec.left.phase is pt.Phase.CONGESTED and rec.right.phase is pt.Phase.CONGESTED:
            assert mom is not None and abs(mom) <= 1e-12


def test_rh_contact_both_residuals(laws):
    a = cong(laws, 0.127, 0.012)
    b = cong(laws, 0.131, 0.012)
    mass, mom = pt.rh_residual(laws, pt.sigma(a, b), a, b)
    assert abs(mass) <= 1e-12
    assert abs(mom) <= 1e-12


def test_rh_wrong_speed_detected(laws):
    a = cong(laws, 0.127, 0.004)
    b = cong(laws, 0.127, 0.016)
    s = pt.sigma(a, b)
    mass, _ = pt.rh_residual(laws, s + 0.01, a, b)
    # analytic value: the residual is linear in the speed error
    assert mass == pytest.approx(0.01 * (b.rho - a.rho), abs=1e-14)


# ---------------------------------------------------------------------------
# phase-boundary classes


def test_classify_vacuum_always_admissible(laws):
    u = cong(laws, 0.13, 0.01)
    cls = pt.classify_transition(laws, laws.vacuum(), u)
    assert cls.label == "G1" and cls.in_weak and cls.in_entropy


def test_classify_reversed_equal_marker_weak_only(laws):
    # congested below the ceiling jumping to the matched free state:
    # a weak-class (transposed) boundary that the entropy class rejects
    w2 = 0.13
    u_minus = cong(laws, w2, 0.5 * laws.V_c)
    rho = laws.rho_f(w2)
    u_plus = pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
    cls = pt.classify_transition(laws, u_minus, u_plus)
    assert cls.label == "G2T"
    assert cls.in_weak and not cls.in_entropy


def test_classify_ceiling_exit_is_admissible(laws):
    w2 = 0.13
    u_minus = cong(laws, w2, laws.V_c)
    rho = laws.rho_f(w2)
    u_plus = pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
    cls = pt.classify_transition(laws, u_minus, u_plus)
    assert cls.label == "G3" and cls.in_entropy


def test_classify_same_phase_rejected(laws):
    u = cong(laws, 0.13, 0.01)
    with pytest.raises(SamePhase):
        pt.classify_transition(laws, u, u)


def test_all_run_transitions_admissible(laws, mesh5, rng):
    for _ in range(10):
        res = run_random(laws, mesh5, rng)
        for rec in res.records:
            if rec.kind is WaveKind.PHASE_TRANSITION:
                cls = pt.classify_transition(laws, rec.left, rec.right)
                assert cls.in_entropy, rec


# ---------------------------------------------------------------------------
# entropy production


def test_entropy_zero_at_free_speed(laws, mesh5, rng):
    res = run_random(laws, mesh5, rng)
    for rec in res.records[:200]:
        u = pt.entropy_production(laws, rec.speed, rec.left, rec.right, laws.V_f)
        assert abs(u) <= 1e-12


def test_entropy_vacuum_transition_formula(laws):
    u_r = cong(laws, 0.13, 0.012)
    for k in (u_r.v, 0.5 * (u_r.v + laws.V_f), laws.V_c, laws.V_f):
        if k < u_r.v:
            continue
        up = pt.entropy_production(laws, u_r.v, laws.vacuum(), u_r, k)
        assert up == pytest.approx(k - u_r.v, abs=1e-12)


def test_entropy_congested_shock_nonnegative(laws, rng):
    for _ in range(200):
        w2 = rng.uniform(laws.W_c, laws.W_max)
        v_hi = rng.uniform(0.0, laws.V_c)
        v_lo = rng.uniform(0.0, v_hi) if v_hi > 0 else 0.0
        a, b = cong(laws, w2, v_hi), cong(laws, w2, v_lo)
        s = pt.sigma(a, b)
        for k in (0.0, v_lo, 0.5 * (v_lo + v_hi), v_hi, laws.V_c):
            assert pt.entropy_production(laws, s, a, b, k) >= -1e-12


def test_entropy_step_deficit_bounded(laws, mesh5):
    # one full congested fan, discretized: per-jump deficit obeys the
    # curvature bound and sits at interior reference speeds only
    ul = mesh5.state(0, mesh5.num_w - 1)
    ur = mesh5.state(mesh5.iv_vc, mesh5.num_w - 1)
    fan = pt.solve_approx(mesh5, ul, ur)
    C = pt.step_entropy_deficit_bound(laws)
    for w in fan:
        assert w.kind == WaveKind.RAREFACTION_STEP
        ks = [w.left.v + (w.right.v - w.left.v) * q for q in (0.25, 0.5, 0.75)]
        worst = max(-pt.entropy_production(laws, w.speed, w.left, w.right, k)
                    for k in ks)
        assert worst <= C * (w.right.v - w.left.v) + 1e-12
        # grid-aligned reference speeds sit on the conservation identity
        for k in (w.left.v, w.right.v):
            assert abs(pt.entropy_production(laws, w.speed, w.left, w.right, k)) <= 1e-12


def test_entropy_report_aggregates(flat_laws, flat_mesh5, rng):
    res = run_random(flat_laws, flat_mesh5, rng)
    rep = entropy_report(res)
    assert rep.min_sharp >= -1e-10
    assert rep.negative_step_total >= 0.0
    ks = set(rep.k_grid)
    assert flat_laws.V_f in ks and flat_laws.V_c in ks
    assert len(rep.records) == len(res.records) * len(rep.k_grid)


def test_step_deficit_totals_match_entropy_report(flat_laws, flat_mesh5, scenario_cfg,
                                                 mesh5):
    vac = flat_laws.vacuum()
    uA = pt.TrafficState(flat_laws.p_inv(flat_laws.W_max), 0.0, pt.Phase.CONGESTED)
    uB = pt.TrafficState(flat_laws.p_inv(flat_laws.W_max - flat_laws.V_c),
                         flat_laws.V_c, pt.Phase.CONGESTED)
    flat_datum = pt.PiecewiseConstantDatum((-6.0, -2.0, 0.0), (vac, uA, uB, vac))
    _, light_datum = pt.build_scenario(scenario_cfg)
    runs = [pt.run(pt.approximate_datum(flat_datum, flat_mesh5), 150.0, flat_mesh5),
            pt.run(pt.approximate_datum(light_datum, mesh5), 430.0, mesh5)]
    for res in runs:
        rep = entropy_report(res)
        weighted, unweighted = step_deficit_totals(res)
        assert weighted > 0.0
        assert weighted == rep.negative_step_total
        assert unweighted == rep.negative_step_total_unweighted


def test_entropy_deficit_halves(flat_laws):
    vac = flat_laws.vacuum()
    uA = pt.TrafficState(flat_laws.p_inv(flat_laws.W_max), 0.0, pt.Phase.CONGESTED)
    uB = pt.TrafficState(flat_laws.p_inv(flat_laws.W_max - flat_laws.V_c),
                         flat_laws.V_c, pt.Phase.CONGESTED)
    datum = pt.PiecewiseConstantDatum((-6.0, -2.0, 0.0), (vac, uA, uB, vac))
    totals = []
    for n in (4, 5, 6):
        mesh = pt.GridMesh(flat_laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), 150.0, mesh)
        rep = entropy_report(res)
        totals.append(rep.negative_step_total)
        # instantaneous sum obeys the strength-times-quantum bound
        strength = flat_laws.V_c
        C = pt.step_entropy_deficit_bound(flat_laws)
        assert rep.negative_step_total_unweighted <= C * strength * mesh.eps_v
    for a, b in zip(totals, totals[1:]):
        assert 0.3 <= b / a <= 0.7


def test_lwr_entropy_pair(laws):
    u = pt.TrafficState(0.2, laws.v_free(0.2), pt.Phase.FREE)
    e, q = pt.lwr_entropy_pair(laws, u, 0.1)
    assert e == pytest.approx(0.1)
    assert q == pytest.approx(u.flow - 0.1 * laws.v_f(0.1))


# ---------------------------------------------------------------------------
# weak-form residuals


def test_weak_residual_constant_region(flat_laws, flat_mesh5):
    u = flat_mesh5.state(3, 10)
    datum = pt.PiecewiseConstantDatum((0.0,), (u, u))
    res = pt.run(pt.approximate_datum(datum, flat_mesh5), 50.0, flat_mesh5)
    phi = pt.BumpTestFunction(25.0, 10.0, 0.0, 2.0)
    mass, mom = pt.weak_residual(res, phi)
    assert mass == 0.0 and mom == 0.0


def test_weak_residual_support_check(flat_laws, flat_mesh5):
    u = flat_mesh5.state(3, 10)
    res = pt.run(pt.approximate_datum(pt.PiecewiseConstantDatum((0.0,), (u, u)),
                                      flat_mesh5), 10.0, flat_mesh5)
    with pytest.raises(UnsupportedTestFunction):
        pt.weak_residual(res, pt.BumpTestFunction(9.0, 5.0, 0.0, 1.0))


def test_weak_residual_shock_straddle(flat_laws, flat_mesh5):
    a = cong(flat_laws, 0.16, 0.018)
    b = cong(flat_laws, 0.16, 0.002)
    datum = pt.PiecewiseConstantDatum((0.0,), (flat_mesh5.snap(a), flat_mesh5.snap(b)))
    res = pt.run(pt.approximate_datum(datum, flat_mesh5), 60.0, flat_mesh5)
    front_mid_x = res.records[0].position(30.0)
    phi = pt.BumpTestFunction(30.0, 20.0, front_mid_x, 1.0)
    mass, mom = pt.weak_residual(res, phi)
    assert abs(mass) <= 1e-8 and abs(mom) <= 1e-8
    # doubled quadrature resolution agrees
    mass2, mom2 = pt.weak_residual(res, phi, nodes_per_segment=64)
    assert mass2 == pytest.approx(mass, abs=1e-12)
    assert mom2 == pytest.approx(mom, abs=1e-12)


def test_weak_residual_nonconstant_free_speed_momentum(laws, mesh5):
    # with a genuinely nonlinear free field the marker-weighted balance can
    # fail across free-phase jumps while mass stays conserved
    a = mesh5.state(mesh5.iv_free, 5)
    b = mesh5.state(mesh5.iv_free, 45)
    datum = pt.PiecewiseConstantDatum((0.0,), (a, b))   # free shock
    res = pt.run(pt.approximate_datum(datum, mesh5), 60.0, mesh5)
    rec = next(r for r in res.records if r.kind is WaveKind.SHOCK)
    phi = pt.BumpTestFunction(30.0, 20.0, rec.position(30.0), 0.5)
    mass, mom = pt.weak_residual(res, phi)
    assert abs(mass) <= 1e-8
    assert abs(mom) > 1e-8


def test_weak_residuals_random_runs(flat_laws, flat_mesh5, rng):
    for _ in range(3):
        res = run_random(flat_laws, flat_mesh5, rng, t_end=100.0)
        span = [f.x for f in res.initial.fronts]
        for _ in range(5):
            phi = pt.BumpTestFunction(rng.uniform(30, 70), rng.uniform(10, 28),
                                      rng.uniform(span[0], span[-1] + 3.0),
                                      rng.uniform(0.5, 4.0))
            mass, mom = pt.weak_residual(res, phi)
            assert abs(mass) <= 1e-8
            assert abs(mom) <= 1e-8


def test_arz_pair_matches_extended_on_its_domain(laws, rng):
    # on congested states and reference speeds up to V_c the extended pair
    # is the congested-branch pair built on the pressure inverse
    for _ in range(50):
        u = random_state(laws, rng, vacuum_prob=0.0, free_prob=0.0)
        k = rng.uniform(0.0, laws.V_c)
        if u.v <= k:
            arz = (0.0, 0.0)
        else:
            rk = laws.p_inv(laws.w2(u) - k)
            arz = (1.0 - u.rho / rk, k - u.flow / rk)
        assert pt.entropy_pair(laws, u, k) == pytest.approx(arz, abs=1e-14)
