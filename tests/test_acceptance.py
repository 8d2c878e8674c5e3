"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 share one 500-run randomized corpus at level 5; criteria 5, 6
and part of 10 use the constant-free-speed laws; criterion 8 drives the
traffic-light refinement ladder.
"""

import math
import random
import time

import pytest

import phasetrack as pt
from phasetrack.analysis import entropy_report, rh_residual, step_deficit_totals
from phasetrack.riemann import WaveKind

from references import (car_count_residual, check_consistency, classify_transition,
                        solve_coupled)

MONO_TOL = 1e-10

_corpus_cache = {}


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def corpus_aggregates(laws):
    """Run the shared 500-datum corpus once and collect everything criteria
    1-4 and 10 need."""
    if "agg" in _corpus_cache:
        return _corpus_cache["agg"]
    mesh = pt.GridMesh(laws, 5)
    rng = random.Random(424242)
    agg = dict(
        runs=0, events=0, wall=0.0,
        worst_dtv=-math.inf, worst_dtemple=-math.inf,
        worst_paid=-math.inf,          # dT + eps_w at wave-count increases
        pt_ok=True, pt_detail="",
        worst_mass=0.0, worst_mom=0.0,
        transitions_checked=0, transitions_bad=0,
        eps_w=mesh.eps_w,
    )
    t0 = time.time()
    for _ in range(500):
        datum = pt.random_mesh_datum(mesh, rng, max_jumps=40)
        res = pt.run(pt.approximate_datum(datum, mesh), 250.0, mesh)
        agg["runs"] += 1
        agg["events"] += res.events
        log = res.log
        dying = {}
        for rec in res.records:
            if rec.t1 < res.t_end:
                dying.setdefault(rec.t1, []).append(rec)
        for i in range(1, len(log.ts)):
            dtv = log.tv[i] - log.tv[i - 1]
            dT = log.temple[i] - log.temple[i - 1]
            agg["worst_dtv"] = max(agg["worst_dtv"], dtv)
            agg["worst_dtemple"] = max(agg["worst_dtemple"], dT)
            if log.waves[i] > log.waves[i - 1]:
                agg["worst_paid"] = max(agg["worst_paid"], dT + mesh.eps_w)
            dpt = log.phase_transitions[i] - log.phase_transitions[i - 1]
            if dpt > 0 or dpt % 2 != 0:
                agg["pt_ok"] = False
                agg["pt_detail"] = f"count changed by {dpt}"
            elif dpt < 0:
                died = dying.get(log.ts[i], [])
                n_pt = sum(1 for r in died
                           if r.kind is WaveKind.PHASE_TRANSITION)
                if n_pt < 2 or n_pt < -dpt:
                    agg["pt_ok"] = False
                    agg["pt_detail"] = (f"drop {dpt} with only {n_pt} colliding "
                                        f"transitions at t={log.ts[i]}")
        for rec in res.records:
            mass, mom = rh_residual(laws, rec.speed, rec.left, rec.right)
            agg["worst_mass"] = max(agg["worst_mass"], abs(mass))
            if mom is not None:
                agg["worst_mom"] = max(agg["worst_mom"], abs(mom))
            if rec.kind is WaveKind.PHASE_TRANSITION:
                agg["transitions_checked"] += 1
                cls = classify_transition(laws, rec.left, rec.right)
                if not cls.in_entropy:
                    agg["transitions_bad"] += 1
    agg["wall"] = time.time() - t0
    _corpus_cache["agg"] = agg
    return agg


def test_criterion_1_tv_monotone(laws):
    agg = corpus_aggregates(laws)
    ok = agg["worst_dtv"] <= MONO_TOL and agg["wall"] < 60.0
    _report(1, ok, f"{agg['runs']} runs / {agg['events']} events, "
                   f"worst TV increment {agg['worst_dtv']:.3e} (tol 1e-10), "
                   f"wall {agg['wall']:.1f}s (< 60s)")


def test_criterion_2_wave_potential(laws):
    agg = corpus_aggregates(laws)
    ok = (agg["worst_dtemple"] <= MONO_TOL and agg["worst_paid"] <= MONO_TOL)
    _report(2, ok, f"worst potential increment {agg['worst_dtemple']:.3e}; "
                   f"worst unpaid split {agg['worst_paid']:.3e} "
                   f"(both vs tol 1e-10, quantum {agg['eps_w']:.3e})")


def test_criterion_3_phase_transition_counting(laws):
    agg = corpus_aggregates(laws)
    _report(3, agg["pt_ok"],
            "transition counts non-increasing, even drops, only at "
            "transition-transition collisions" if agg["pt_ok"] else agg["pt_detail"])


def test_criterion_4_rankine_hugoniot(laws):
    agg = corpus_aggregates(laws)
    ok = agg["worst_mass"] <= MONO_TOL and agg["worst_mom"] <= MONO_TOL
    _report(4, ok, f"worst mass residual {agg['worst_mass']:.3e}, worst "
                   f"congested momentum residual {agg['worst_mom']:.3e} (tol 1e-10)")


def test_criterion_5_entropy(flat_laws):
    rng = random.Random(99)
    worst = math.inf
    mesh = pt.GridMesh(flat_laws, 5)
    for _ in range(25):
        datum = pt.random_mesh_datum(mesh, rng, max_jumps=25)
        res = pt.run(pt.approximate_datum(datum, mesh), 150.0, mesh)
        rep = entropy_report(res)
        worst = min(worst, rep.min_sharp)
    # fixed datum, deficit halves per level
    vac = flat_laws.vacuum()
    uA = pt.TrafficState(flat_laws.p_inv(flat_laws.W_max), 0.0, pt.Phase.CONGESTED)
    uB = pt.TrafficState(flat_laws.p_inv(flat_laws.W_max - flat_laws.V_c),
                         flat_laws.V_c, pt.Phase.CONGESTED)
    datum = pt.PiecewiseConstantDatum((-6.0, -2.0, 0.0), (vac, uA, uB, vac))
    totals = []
    for n in (4, 5, 6, 7):
        mesh_n = pt.GridMesh(flat_laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh_n), 150.0, mesh_n)
        totals.append(step_deficit_totals(res)[0])
    ratios = [b / a for a, b in zip(totals, totals[1:])]
    ok = worst >= -MONO_TOL and all(0.3 <= r <= 0.7 for r in ratios)
    _report(5, ok, f"worst sharp-front production {worst:.3e} (tol -1e-10); "
                   f"fan-step deficit ratios {[f'{r:.3f}' for r in ratios]} "
                   f"(need 0.5 +/- 0.2)")


def test_criterion_6_weak_form(flat_laws):
    rng = random.Random(123)
    mesh = pt.GridMesh(flat_laws, 5)
    worst = 0.0
    n_checked = 0
    for _ in range(10):
        datum = pt.random_mesh_datum(mesh, rng, max_jumps=20)
        res = pt.run(pt.approximate_datum(datum, mesh), 120.0, mesh)
        span = [f.x for f in res.initial.fronts] or [0.0]
        for _ in range(10):
            phi = pt.BumpTestFunction(rng.uniform(30, 90), rng.uniform(10, 29),
                                      rng.uniform(min(span) - 2, max(span) + 4),
                                      rng.uniform(0.5, 5.0))
            mass, mom = pt.weak_residual(res, phi)
            worst = max(worst, abs(mass), abs(mom))
            n_checked += 1
    ok = worst <= 1e-8
    _report(6, ok, f"{n_checked} bump functionals, worst residual {worst:.3e} "
                   f"(tol 1e-8)")


def test_criterion_7_time_lipschitz(laws):
    rng = random.Random(777)
    mesh = pt.GridMesh(laws, 5)
    speed_cap = max(laws.V_max, laws.R_max * laws.p.deriv(laws.R_max))
    worst_excess = -math.inf
    for _ in range(20):
        datum = pt.random_mesh_datum(mesh, rng, max_jumps=20)
        L = datum.tv_coords(laws) * speed_cap
        res = pt.run(pt.approximate_datum(datum, mesh), 100.0, mesh)
        for _ in range(8):
            t, s = rng.uniform(0, 100), rng.uniform(0, 100)
            excess = res.l1_distance(t, s) - L * abs(t - s)
            worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-8
    _report(7, ok, f"worst L1 excess over L|t-s| is {worst_excess:.3e} (tol 1e-8)")


def test_criterion_8_traffic_light(scenario_cfg, laws):
    t0 = time.time()
    table = pt.closed_form_table(scenario_cfg)
    ident = car_count_residual(table, laws, scenario_cfg)
    _, datum = pt.build_scenario(scenario_cfg)
    errs = {}
    for n in range(5, 10):
        mesh = pt.GridMesh(laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), 1.25 * table.t_last, mesh)
        errs[n] = abs(pt.last_passage_time(res) - table.t_d1)
    wall = time.time() - t0
    rel8 = errs[8] / table.t_d1
    mono = all(errs[n + 1] <= errs[n] + 1e-9 for n in range(5, 9))
    ok = rel8 <= 0.02 and mono and abs(ident) <= 1e-10 and wall < 300.0
    _report(8, ok, f"relative error at n=8 is {rel8:.4%} (tol 2%), errors "
                   f"{[f'{errs[n]:.6f}' for n in range(5, 10)]} non-increasing={mono}, "
                   f"car-count residual {ident:.2e} (tol 1e-10), ladder {wall:.0f}s "
                   f"(< 300s)")


def test_criterion_9_solver_consistency(laws):
    rng = random.Random(31337)

    def rand_state():
        r = rng.random()
        if r < 0.08:
            return laws.vacuum()
        if r < 0.5:
            rho = rng.uniform(0.0, laws.rho_free_max)
            return pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
        w2 = rng.uniform(laws.W_c, laws.W_max)
        v = rng.uniform(0.0, laws.V_c)
        return pt.TrafficState(laws.p_inv(w2 - v), v, pt.Phase.CONGESTED)

    fails = 0
    for _ in range(1000):
        ul, ur = rand_state(), rand_state()
        xbar = rng.uniform(-0.3, 0.1)
        um = solve_coupled(laws, ul, ur).eval(xbar)
        ok, _ = check_consistency(laws, ul, um, ur, xbar, per_fan=64)
        fails += 0 if ok else 1
    _report(9, fails == 0, f"1000 randomized triples at sampling resolution 64, "
                           f"{fails} failures")


def test_criterion_10_admissible_transitions(laws, flat_laws):
    agg = corpus_aggregates(laws)
    # a transposed equal-marker boundary without the ceiling speed is weak
    # but not entropy-admissible
    w2 = 0.5 * (laws.W_c + laws.W_max)
    u_minus = pt.TrafficState(laws.p_inv(w2 - 0.5 * laws.V_c), 0.5 * laws.V_c,
                              pt.Phase.CONGESTED)
    rho = laws.rho_f(w2)
    u_plus = pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
    cls = classify_transition(laws, u_minus, u_plus)
    hand_ok = cls.label == "G2T" and cls.in_weak and not cls.in_entropy
    ok = agg["transitions_bad"] == 0 and agg["transitions_checked"] > 1000 and hand_ok
    _report(10, ok, f"{agg['transitions_checked']} simulated transitions all "
                    f"admissible ({agg['transitions_bad']} bad); hand-built "
                    f"weak-only boundary rejected={hand_ok}")
