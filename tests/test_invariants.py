import dataclasses
import random

import pytest

import phasetrack as pt
from phasetrack import engine
from phasetrack.errors import InvariantViolation
from phasetrack.invariants import audit_run, functional_violations
from phasetrack.riemann import WaveKind

EPS_W = 0.01


def _log(*rows):
    log = pt.FunctionalLog()
    for row in rows:
        log.record(*row)
    return log


BASE = (0.0, 1.0, 1.5, 3, 2)


@pytest.mark.parametrize("row, expected", [
    ((2.0, 1.5, 1.5, 3, 2), "TV increased by 0.5 at t=2.0"),
    ((2.0, 1.0, 2.0, 3, 2), "wave potential increased by 0.5 at t=2.0"),
    ((2.0, 1.0, 1.5, 4, 2),
     "wave count grew without paying a quantum (potential changed by 0.0) at t=2.0"),
    ((2.0, 1.0, 1.5, 3, 3), "phase-transition count changed by 1 at t=2.0"),
    ((2.0, 1.0, 1.5, 3, 1), "phase-transition count changed by -1 at t=2.0"),
    ((2.0, 1.0, 1.5, 3, 4), "phase-transition count changed by 2 at t=2.0"),
])
def test_each_functional_rule_flags_its_violation(row, expected):
    assert functional_violations(_log(BASE, row), EPS_W) == [expected]


def test_functional_rules_accept_a_paid_split():
    # two boundaries annihilate and a split pays more than one quantum
    log = _log(BASE, (2.0, 1.0, 1.5 - 1.5 * EPS_W, 5, 0))
    assert functional_violations(log, EPS_W) == []


def test_functional_rules_start_at_first():
    log = _log(BASE, (2.0, 1.5, 1.5, 3, 2), (3.0, 1.5, 1.5, 3, 2))
    assert len(functional_violations(log, EPS_W)) == 1
    assert functional_violations(log, EPS_W, first=2) == []


def _random_run(mesh, seed, t_end=100.0):
    datum = pt.random_mesh_datum(mesh, random.Random(seed), max_jumps=15)
    return pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)


def test_audit_flags_a_perturbed_speed(mesh5):
    res = _random_run(mesh5, 11)
    assert audit_run(res) == []
    i = next(i for i, r in enumerate(res.records) if r.left.rho != r.right.rho)
    res.records[i] = res.records[i]._replace(speed=res.records[i].speed + 1e-3)
    (msg,) = audit_run(res)
    assert msg.startswith("mass jump condition violated (")
    assert msg.endswith(f" on a front born t={res.records[i].t0}")


def _front_pair(res):
    # two adjacent final fronts far enough apart that swapping them is
    # a real inversion
    fr = res.final.fronts
    return next(i for i in range(len(fr) - 1) if fr[i + 1].x - fr[i].x > 1e-3)


def test_audit_accepts_an_unmodified_run(mesh5, flat_mesh5):
    for mesh in (mesh5, flat_mesh5):
        for seed in (11, 12, 13):
            assert audit_run(_random_run(mesh, seed)) == []


def test_audit_flags_swapped_fronts(mesh5):
    res = _random_run(mesh5, 11)
    i = _front_pair(res)
    fr = res.final.fronts
    fr[i], fr[i + 1] = fr[i + 1], fr[i]
    bad = audit_run(res)
    t = res.t_end
    assert f"state continuity broken at front {i} (x={fr[i].x}) at t={t}" in bad
    assert (f"front order broken by {fr[i].x - fr[i + 1].x} at front {i + 1} "
            f"(x={fr[i + 1].x}) at t={t}") in bad


def test_audit_flags_a_replaced_left_state(mesh5):
    res = _random_run(mesh5, 11)
    i = _front_pair(res) + 1
    fr = res.final.fronts
    other = next(u for u in (f.right for f in fr) if u != fr[i].left)
    fr[i] = dataclasses.replace(fr[i], left=other)
    assert audit_run(res) == [
        f"state continuity broken at front {i} (x={fr[i].x}) at t={res.t_end}"]


def test_audit_flags_a_perturbed_congested_contact(laws, mesh5):
    res = _random_run(mesh5, 11)
    i = next(i for i, r in enumerate(res.records)
             if r.kind is WaveKind.CONTACT and r.left.phase is pt.Phase.CONGESTED
             and r.right.phase is pt.Phase.CONGESTED)
    rec = res.records[i]
    assert laws.w2(rec.left) != laws.w2(rec.right)
    # slow both sides so that rho (speed - v) stays equal across the jump:
    # mass still balances, but the two sides now carry momentum at
    # different rates
    a = 1e-3
    b = a * rec.left.rho / rec.right.rho
    left = pt.TrafficState(rec.left.rho, rec.left.v - a, pt.Phase.CONGESTED)
    right = pt.TrafficState(rec.right.rho, rec.right.v - b, pt.Phase.CONGESTED)
    res.records[i] = rec._replace(left=left, right=right)
    (msg,) = audit_run(res)
    assert msg.startswith("momentum jump condition violated (")


def test_strict_run_raises_the_audits_first_message(laws, mesh5, monkeypatch):
    datum = pt.random_mesh_datum(mesh5, random.Random(11), max_jumps=15)
    diagram0 = pt.approximate_datum(datum, mesh5)
    n_initial = pt.run(diagram0, 0.0, mesh5).log.waves[0]
    original = engine._front_measures
    calls = []

    def inflated(mesh, l, r):
        # fronts born at events carry one unit of TV too many
        tv, temple, boundary = original(mesh, l, r)
        calls.append(1)
        return (tv + 1.0 if len(calls) > n_initial else tv), temple, boundary

    monkeypatch.setattr(engine, "_front_measures", inflated)
    res = pt.run(diagram0, 100.0, mesh5)
    bad = audit_run(res)
    assert bad and bad[0].startswith("TV increased by ")
    calls.clear()
    with pytest.raises(InvariantViolation) as exc:
        pt.run(diagram0, 100.0, mesh5, strict=True)
    assert str(exc.value) == bad[0]
