import random
import re

import pytest

import phasetrack as pt
from phasetrack.errors import InvariantViolation
from phasetrack.invariants import ORDER_TOL, audit_run, functional_violations
from phasetrack.riemann import WaveKind

from faults import displace_front, inflate_event_tv, mass_fault, momentum_fault
from references import functional_violations_per_row

EPS_W = 0.01


def _log(*rows):
    log = pt.FunctionalLog()
    for col, values in zip((log.ts, log.tv, log.temple, log.waves, log.phase_transitions),
                           zip(*rows)):
        col.fromlist(list(values))
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


def test_functional_violations_match_the_row_loop(mesh5):
    # real logs, with rows nudged across and along each rule's threshold;
    # the messages and their order are those of the per-row loop
    rng = random.Random(17)
    eps_w = mesh5.eps_w
    for seed in range(6):
        log = _random_run(mesh5, seed).log
        assert functional_violations(log, eps_w) == []
        n = len(log.ts)
        for i in rng.sample(range(1, n), min(40, n - 1)):
            col = rng.choice(("tv", "temple", "waves", "phase_transitions"))
            if col in ("tv", "temple"):
                delta = rng.choice((1e-10, 1.5e-10, 1e-3, eps_w, -eps_w + 1e-10))
            else:
                delta = rng.choice((1, 2, -1))
            getattr(log, col)[i] += delta
        for first in (1, 2, n // 2, n - 1, n):
            got = functional_violations(log, eps_w, first)
            assert got == functional_violations_per_row(log, eps_w, first), (seed, first)
        assert functional_violations(log, eps_w)


def _random_run(mesh, seed, t_end=100.0):
    datum = pt.random_mesh_datum(mesh, random.Random(seed), max_jumps=15)
    return pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)


def test_audit_flags_a_perturbed_speed(mesh5):
    res = _random_run(mesh5, 11)
    assert audit_run(res) == []
    i = next(i for i, r in enumerate(res.records) if r.left.rho != r.right.rho)
    with mass_fault(res, i) as rec:
        (msg,) = audit_run(res)
    assert msg.startswith("mass jump condition violated (")
    assert msg.endswith(f" on a front born t={rec.t0}")
    assert audit_run(res) == []


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
    fr[i] = fr[i]._replace(left=other)
    assert audit_run(res) == [
        f"state continuity broken at front {i} (x={fr[i].x}) at t={res.t_end}"]


def test_audit_flags_a_perturbed_congested_contact(laws, mesh5):
    res = _random_run(mesh5, 11)
    i = next(i for i, r in enumerate(res.records)
             if r.kind is WaveKind.CONTACT and r.left.phase is pt.Phase.CONGESTED
             and r.right.phase is pt.Phase.CONGESTED)
    rec = res.records[i]
    assert laws.w2(rec.left) != laws.w2(rec.right)
    # the right side moves off the contact's velocity and the speed keeps
    # mass balanced: the two sides now carry momentum at different rates
    with momentum_fault(res, i):
        (msg,) = audit_run(res)
    assert msg.startswith("momentum jump condition violated (")
    assert audit_run(res) == []


def test_strict_run_raises_the_audits_first_message(laws, mesh5, monkeypatch):
    datum = pt.random_mesh_datum(mesh5, random.Random(11), max_jumps=15)
    diagram0 = pt.approximate_datum(datum, mesh5)
    n_initial = pt.run(diagram0, 0.0, mesh5).log.waves[0]
    calls = inflate_event_tv(monkeypatch, n_initial)
    res = pt.run(diagram0, 100.0, mesh5)
    bad = audit_run(res)
    assert bad and bad[0].startswith("TV increased by ")
    calls.clear()
    with pytest.raises(InvariantViolation) as exc:
        pt.run(diagram0, 100.0, mesh5, strict=True)
    assert str(exc.value) == bad[0]


ORDER_MESSAGE = re.compile(r"front order broken by (\S+) at event (\d+) \(t=(\S+), x=(\S+)\): "
                           r"the front (before|after) it is at (\S+)")


def _closing_time(history, t0, x0, speed):
    """t1 of the one history row born at t0 with this speed near x0."""
    (i,) = [i for i in range(len(history)) if history.t0[i] == t0
            and history.speed[i] == speed and abs(history.x0[i] - x0) <= 1e-9]
    return history.t1[i]


@pytest.mark.parametrize("built, dx", [(0, 0.1), (5, 0.1), (20, 1e-3)])
def test_strict_run_reports_a_displaced_front_at_its_event(laws, mesh5, monkeypatch, built, dx):
    # one front born at an event lies dx off its line: the audit after the
    # run cannot see it, since it has closed before t_end, but each event
    # of a strict run checks that its point lies between its neighbours
    datum = pt.random_mesh_datum(mesh5, random.Random(11), max_jumps=15)
    diagram0 = pt.approximate_datum(datum, mesh5)
    n_initial = pt.run(diagram0, 0.0, mesh5).log.waves[0]
    clean = pt.run(diagram0, 100.0, mesh5)
    fronts = displace_front(monkeypatch, n_initial + built, dx)
    res = pt.run(diagram0, 100.0, mesh5)
    assert audit_run(res) == []
    # the displaced front keeps its line's collision times: its row closes
    # at its first collision, at the time its clean twin's row does
    f = fronts[n_initial + built]
    t1 = _closing_time(res.history, f.t0, f.x0, f.speed)
    assert t1 < res.t_end
    assert t1 == _closing_time(clean.history, f.t0, f.x0 - dx, f.speed)
    fronts.clear()
    with pytest.raises(InvariantViolation) as exc:
        pt.run(diagram0, 100.0, mesh5, strict=True)
    overlap, event, t, x, side, x_other = ORDER_MESSAGE.fullmatch(str(exc.value)).groups()
    overlap, event, t, x, x_other = float(overlap), int(event), float(t), float(x), float(x_other)
    # the event is named by its functional-log row, which the run without
    # strict wrote at the same time
    assert 1 <= event < len(res.log.ts) and t == res.log.ts[event]
    assert overlap == (x_other - x if side == "before" else x - x_other)
    assert ORDER_TOL * (1.0 + abs(x)) < overlap <= dx
