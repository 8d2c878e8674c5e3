"""The column-store run history, read as a sequence of records, its
column reader `FrontHistory.sides`, and the diagnostics that read it."""

import math
import random

import pytest

import phasetrack as pt
from phasetrack import cli, engine
from phasetrack.analysis import entropy_report, step_deficit_totals
from phasetrack.errors import NotReached
from phasetrack.grid import VACUUM_IW
from phasetrack.invariants import audit_run, snapshot_violations
from phasetrack.riemann import WaveKind

from faults import mass_fault, momentum_fault
from references import (CustomLaw, alive_at, audit_run_per_record, diagram_at_per_record,
                        entropy_report_per_record, last_passage_time_per_record,
                        position, step_deficit_totals_per_record, weak_residual_per_record)


def _random_diagram(mesh, seed, max_jumps=15):
    datum = pt.random_mesh_datum(mesh, random.Random(seed), max_jumps=max_jumps)
    return pt.approximate_datum(datum, mesh)


def _random_run(mesh, seed, max_jumps=15, t_end=100.0):
    return pt.run(_random_diagram(mesh, seed, max_jumps), t_end, mesh)


@pytest.fixture(scope="module")
def long_run(laws):
    """A traffic-light run with more rows than one audit chunk."""
    res = _random_run(pt.GridMesh(laws, 6), 6, max_jumps=30, t_end=250.0)
    assert len(res.records) > engine.CHUNK_ROWS
    return res


# ---------------------------------------------------------------------------
# the history as a read-only sequence


class Unbuildable:
    """Stands in for `engine.FrontRecord`: building a record fails."""

    def __new__(cls, *args):
        raise AssertionError("a record was built")


def test_len_does_not_build_records(mesh5, monkeypatch):
    res = _random_run(mesh5, 11)
    n = len(res.history.t0)
    monkeypatch.setattr(engine, "FrontRecord", Unbuildable)
    assert len(res.records) == n > 0
    with pytest.raises((AssertionError, TypeError)):
        res.records[0]


def test_index_slice_and_iteration_agree(mesh5, flat_mesh5):
    for mesh in (mesh5, flat_mesh5):
        view = _random_run(mesh, 12).records
        n = len(view)
        listed = list(view)
        assert len(listed) == n
        assert [view[i] for i in range(n)] == listed
        assert [view[i - n] for i in range(n)] == listed
        assert view[:] == listed
        assert view[3:40:4] == listed[3:40:4]
        assert view[::-1] == listed[::-1]
        assert view[n - 5:n + 5] == listed[n - 5:]
        assert all(type(r) is pt.FrontRecord for r in listed)
        # states come back as the mesh's own objects
        assert all(r.left is mesh.state(*mesh.index_of(r.left)) for r in listed)


def test_reading_past_the_end_raises(mesh5):
    view = _random_run(mesh5, 13).records
    n = len(view)
    for i in (n, n + 1, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    assert view[-n] == view[0]


def test_records_cannot_be_written(mesh5):
    res = _random_run(mesh5, 13)
    with pytest.raises(TypeError):
        res.records[0] = res.records[0]


def test_state_ids_are_mesh_node_ids(mesh5, flat_mesh5):
    nodes = {}
    for mesh in (mesh5, flat_mesh5):
        h = _random_run(mesh, 11).history
        ids = set(h.left) | set(h.right)
        assert min(ids) >= 0
        assert all(mesh.state_id(mesh.node_of(sid)) == sid for sid in ids)
        # each row's states are the mesh's node states of its ids
        assert all(rec.left is mesh.state(*mesh.node_of(l)) and
                   rec.right is mesh.state(*mesh.node_of(r))
                   for rec, l, r in zip(h, h.left, h.right))
        nodes[mesh] = {mesh.node_of(sid) for sid in ids}
    # the constant-free-speed run reaches the vacuum node, whose marker
    # index is negative
    assert (flat_mesh5.iv_free, VACUUM_IW) in nodes[flat_mesh5]


def test_diagram_at_keeps_the_record_rule(mesh5, flat_mesh5):
    # the live rows picked from the columns are those references.alive_at
    # keeps, in the same order
    for mesh in (mesh5, flat_mesh5):
        res = _random_run(mesh, 12)
        records = list(res.records)
        times = [0.0, res.t_end, 0.5 * res.t_end, records[0].t1, records[-1].t0]
        for t in times:
            live = [r for r in records if alive_at(r, t)]
            live.sort(key=lambda r: (position(r, t), r.speed))
            d = res.diagram_at(t)
            assert [(f.x, f.speed, f.left, f.right, f.kind) for f in d.fronts] == \
                [(position(r, t), r.speed, r.left, r.right, r.kind) for r in live]


@pytest.mark.parametrize("mesh_name", [
    "mesh5",
    pytest.param("flat_mesh5", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
], ids=["traffic_light", "flat"])
def test_diagram_at_the_run_ends_is_its_snapshots(request, mesh_name):
    # the history read at t = 0 and at t_end gives, front by front, the
    # snapshots `run` reads off its live list while resolving the datum and
    # closing out the survivors; constant-free-speed histories are read out
    # of list order at co-located fronts
    mesh = request.getfixturevalue(mesh_name)
    for seed in range(40):
        res = _random_run(mesh, seed)
        for t, snapshot in ((0.0, res.initial), (res.t_end, res.final)):
            assert [repr(f) for f in res.diagram_at(t).fronts] == \
                [repr(f) for f in snapshot.fronts], (seed, t)


# an event closer than this share of t to a probe is the same instant to
# the probe (rounding leaves event times apart by a few ulps)
PROBE_GAP = 1e-6


def _probes(res, isolated, count=5):
    """`count` times spread over the run's events: the event times with no
    other event within PROBE_GAP t when isolated, else the midpoints of the
    gaps between consecutive events wider than PROBE_GAP t."""
    ts = sorted(res.log.ts[1:])
    if isolated:
        picks = [t for a, t, b in zip([-math.inf] + ts, ts, ts[1:] + [math.inf])
                 if min(t - a, b - t) > PROBE_GAP * t]
    else:
        picks = [0.5 * (a + b) for a, b in zip(ts, ts[1:])
                 if b - a > PROBE_GAP * 0.5 * (a + b)]
    return [picks[i * len(picks) // count] for i in range(min(count, len(picks)))]


@pytest.mark.parametrize("mesh_name", [
    "mesh5",
    pytest.param("flat_mesh5", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
], ids=["traffic_light", "flat"])
def test_diagram_at_is_the_run_stopped_there(request, mesh_name):
    # between two events, the history read at t gives, front by front, the
    # final snapshot of the same datum run to t: an exact oracle for every
    # snapshot; constant-free-speed histories are read out of list order at
    # co-located fronts
    mesh = request.getfixturevalue(mesh_name)
    probed = 0
    for seed in range(40):
        diagram0 = _random_diagram(mesh, seed)
        res = pt.run(diagram0, 100.0, mesh)
        for t in _probes(res, isolated=False):
            assert [repr(f) for f in res.diagram_at(t).fronts] == \
                [repr(f) for f in pt.run(diagram0, t, mesh).final.fronts], (seed, t)
            probed += 1
    assert probed > 150, probed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the (position, speed) sort puts "
                                       "colliding co-located fronts slowest-first")
@pytest.mark.parametrize("mesh_name", ["mesh5", "flat_mesh5"], ids=["traffic_light", "flat"])
def test_diagram_at_an_event_time_is_continuous(request, mesh_name):
    # at an event the colliding fronts are shown (left-continuity), all at
    # the event's point, and must still chain state to state
    mesh = request.getfixturevalue(mesh_name)
    for seed in range(40):
        res = _random_run(mesh, seed)
        for t in _probes(res, isolated=True):
            assert snapshot_violations(res.diagram_at(t)) == [], (seed, t)


@pytest.mark.parametrize("mesh_name", ["mesh5", "flat_mesh5"], ids=["traffic_light", "flat"])
def test_the_event_log_never_steps_back(request, mesh_name):
    # a pair whose rounded collision time lies before the present collides
    # at the present, so the log's times never decrease and no front of the
    # history dies before it is born
    mesh = request.getfixturevalue(mesh_name)
    for seed in range(40):
        res = _random_run(mesh, seed)
        ts = res.log.ts
        assert all(a <= b for a, b in zip(ts, ts[1:])), seed
        assert all(a <= b for a, b in zip(res.history.t0, res.history.t1)), seed


def test_a_zero_front_run_reads_empty_everywhere(mesh5, flat_mesh5):
    # a constant datum resolves to no front: every reader of the run sees an
    # empty history, and both snapshots hold the datum's one state
    for mesh in (mesh5, flat_mesh5):
        for u in (mesh.laws.vacuum(), mesh.state(0, mesh.iw_c)):
            diagram0 = pt.approximate_datum(pt.PiecewiseConstantDatum((), (u,)), mesh)
            assert diagram0.fronts == []
            res = pt.run(diagram0, 50.0, mesh)
            assert len(res.history) == 0 and res.events == 0
            assert res.initial.fronts == res.final.fronts == []
            assert res.initial.left_state is res.final.left_state is diagram0.left_state
            assert list(res.log.rows()) == [(0.0, 0.0, 0.0, 0, 0)]
            assert audit_run(res) == []
            assert entropy_report(res).records == []
            assert step_deficit_totals(res) == (0.0, 0.0)
            assert pt.weak_residual(res, pt.BumpTestFunction(25.0, 10.0, 0.0, 2.0)) == (0.0, 0.0)
            for t in (0.0, 20.0, 50.0):
                d = res.diagram_at(t)
                assert d.fronts == [] and d.left_state is diagram0.left_state
            assert res.l1_distance(0.0, 50.0) == 0.0
            strict = pt.run(diagram0, 50.0, mesh, strict=True)
            assert list(strict.log.rows()) == list(res.log.rows())
            assert strict.final.fronts == []


# ---------------------------------------------------------------------------
# the audit against its per-record reference


def test_audit_matches_the_per_record_loop_on_seeded_runs(mesh5, flat_mesh5):
    for mesh in (mesh5, flat_mesh5):
        for seed in range(20, 26):
            res = _random_run(mesh, seed)
            assert audit_run(res) == audit_run_per_record(res) == []


def _speed_faults(res, rows):
    """Audit messages, new and reference, with each row's speed perturbed
    in turn (`faults.mass_fault`); the row is restored after each."""
    for i in rows:
        with mass_fault(res, i) as rec:
            got, want = audit_run(res), audit_run_per_record(res)
        yield i, rec, got, want


@pytest.mark.parametrize("chunk", [None, 64])
def test_audit_matches_on_perturbed_speeds(mesh5, flat_mesh5, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
    for mesh in (mesh5, flat_mesh5):
        res = _random_run(mesh, 11)
        n = len(res.records)
        rows = [0, n // 2, n - 1] + ([chunk + 1] if chunk else [])
        for i, rec, got, want in _speed_faults(res, rows):
            assert got == want, (i, got, want)
            if rec.left.rho != rec.right.rho:
                assert len(got) == 1 and got[0].startswith("mass jump condition"), i
        assert audit_run(res) == []


def test_audit_matches_past_the_first_chunk(long_run):
    n = len(long_run.records)
    rows = [0, engine.CHUNK_ROWS - 1, engine.CHUNK_ROWS, n // 2, n - 1]
    flagged = 0
    for i, rec, got, want in _speed_faults(long_run, rows):
        assert got == want, (i, got, want)
        flagged += bool(got)
    assert flagged >= 2
    assert audit_run(long_run) == []


@pytest.mark.parametrize("chunk", [None, 64])
def test_audit_matches_on_an_off_mesh_momentum_fault(laws, mesh5, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
    # the fault (`faults.momentum_fault`) moves the contact's right state off
    # the contact's velocity: mass still balances, momentum does not
    res = _random_run(mesh5, 11)
    contacts = [i for i, r in enumerate(res.records)
                if r.kind is WaveKind.CONTACT and r.left.phase is pt.Phase.CONGESTED
                and r.right.phase is pt.Phase.CONGESTED]
    for i in (contacts[0], contacts[-1]):
        with momentum_fault(res, i):
            got = audit_run(res)
            assert got == audit_run_per_record(res)
        assert len(got) == 1 and got[0].startswith("momentum jump condition violated (")
    assert contacts[-1] > 64
    assert audit_run(res) == []


# ---------------------------------------------------------------------------
# the column reader, and the diagnostics on it against their record walks


@pytest.mark.parametrize("chunk", [None, 64])
def test_sides_reads_every_row_as_its_record(mesh5, flat_mesh5, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
    for mesh in (mesh5, flat_mesh5):
        res = _random_run(mesh, 12)
        laws = mesh.laws
        got = []
        for start, (t0, kind), left, right in res.history.sides("t0", "kind"):
            assert start == len(got)
            for i, (a, k) in enumerate(zip(t0.tolist(), kind)):
                got.append((a, k) + tuple(tuple(c[i].item() for c in side)
                                          for side in (left, right)))
        want = [(r.t0, r.kind) + tuple((u.rho, u.v, u.phase is pt.Phase.CONGESTED,
                                        laws.marker_W(u)) for u in (r.left, r.right))
                for r in res.records]
        assert repr(got) == repr(want)


def _last_passage(reader, res):
    try:
        return reader(res)
    except NotReached:
        return "not reached"


def _assert_readers_match(res, bumps):
    assert repr(step_deficit_totals(res)) == repr(step_deficit_totals_per_record(res))
    assert repr(_last_passage(pt.last_passage_time, res)) == \
        repr(_last_passage(last_passage_time_per_record, res))
    for phi in bumps:
        assert repr(pt.weak_residual(res, phi)) == repr(weak_residual_per_record(res, phi))


def test_readers_match_their_record_walks_on_the_ladder(scenario_cfg, laws):
    # the traffic-light release at ladder levels 5..7, run to the ladder's t_end
    _, datum = pt.build_scenario(scenario_cfg)
    t_end = 1.25 * pt.closed_form_table(scenario_cfg, laws=laws).t_last
    for n in (5, 6, 7):
        mesh = pt.GridMesh(laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)
        assert step_deficit_totals(res)[0] > 0.0
        _assert_readers_match(res, [pt.BumpTestFunction(0.5 * t_end, 0.4 * t_end, -5.0, 6.0)])


# the two other pressure laws CI's smoke ladders run: gamma = 3, and the log
# law (gamma = 0) with the markers of the free band [0.3, 0.35]
LADDER_LAW_CONFIGS = {"gamma3": {"gamma": 3.0},
                      "log-law": {"gamma": 0.0, "w_max": -1.0173221244986779,
                                  "w_c": -1.1689728043259362}}


@pytest.mark.parametrize("kw", list(LADDER_LAW_CONFIGS.values()), ids=list(LADDER_LAW_CONFIGS))
def test_step_deficits_match_their_record_walk_on_every_law(kw):
    # the traffic-light release of each law at ladder levels 4..6, run to
    # the ladder's t_end
    cfg = pt.TrafficLightConfig(**kw)
    laws, datum = pt.build_scenario(cfg)
    t_end = 1.25 * pt.closed_form_table(cfg, laws=laws).t_last
    for n in (4, 5, 6):
        mesh = pt.GridMesh(laws, n)
        res = pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)
        assert step_deficit_totals(res)[0] > 0.0
        assert repr(step_deficit_totals(res)) == repr(step_deficit_totals_per_record(res))


def test_step_deficits_match_their_record_walk_on_a_bisected_law(laws):
    # the traffic-light laws with the pressure as a CustomLaw, which has no
    # closed-form inverse, so every congested node and every R_k bisects
    p = laws.p
    custom = pt.validate_laws(laws.v_f, CustomLaw(p, p.deriv, p.deriv2),
                              laws.rho_free_crit, laws.rho_free_max, laws.V_c)
    assert custom._p_closed_inv is None
    for n in (4, 5):
        mesh = pt.GridMesh(custom, n)
        for seed in (1, 2):
            res = _random_run(mesh, seed)
            assert step_deficit_totals(res)[0] > 0.0
            assert repr(step_deficit_totals(res)) == repr(step_deficit_totals_per_record(res))


def test_readers_match_their_record_walks_on_criterion_6(flat_laws):
    # criterion 6's data and bumps, drawn in its order; the weak residual is
    # compared on the first bump of each datum
    rng = random.Random(123)
    mesh = pt.GridMesh(flat_laws, 5)
    for _ in range(10):
        datum = pt.random_mesh_datum(mesh, rng, max_jumps=20)
        res = pt.run(pt.approximate_datum(datum, mesh), 120.0, mesh)
        span = [f.x for f in res.initial.fronts] or [0.0]
        bumps = [pt.BumpTestFunction(rng.uniform(30, 90), rng.uniform(10, 29),
                                     rng.uniform(min(span) - 2, max(span) + 4),
                                     rng.uniform(0.5, 5.0)) for _ in range(10)]
        _assert_readers_match(res, bumps[:1])


def _event_times(res, count=6):
    """t = 0, t_end, and about `count` event times and as many midpoints
    between consecutive events."""
    ts = sorted(set(res.log.ts[1:]))
    stride = max(1, len(ts) // count)
    return [0.0, res.t_end] + ts[::stride] + \
        [0.5 * (a + b) for a, b in zip(ts, ts[1:])][::stride]


@pytest.mark.parametrize("chunk", [None, 64])
def test_diagram_at_matches_its_record_walk(mesh5, flat_mesh5, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
    for mesh in (mesh5, flat_mesh5):
        res = _random_run(mesh, 12)
        times = _event_times(res)
        assert len(times) > 10
        for t in times:
            assert repr(res.diagram_at(t)) == repr(diagram_at_per_record(res, t)), t


@pytest.mark.parametrize("chunk", [None, 64])
def test_entropy_report_matches_its_record_walk(mesh5, flat_mesh5, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
    for mesh in (mesh5, flat_mesh5):
        res = _random_run(mesh, 12)
        laws = mesh.laws
        assert len(res.records) > 64
        # the default grid, and one off the mesh speeds on both k branches
        for k_grid in (None, [laws.V_f, 0.0, 0.3 * laws.V_c, laws.V_c, 0.7 * laws.V_f]):
            rep = entropy_report(res, k_grid)
            want = entropy_report_per_record(res, k_grid)
            # row by row, so that a failure reports its first differing row
            assert [repr(r) for r in rep.records] == [repr(r) for r in want.records]
            assert len(rep.records) == len(res.records) * len(rep.k_grid) > 0
            rep.records = want.records = []
            assert repr(rep) == repr(want)


def test_internal_readers_build_no_records(scenario_cfg, laws, flat_mesh5, monkeypatch):
    # a clean run of each family: the traffic-light release at level 5, run
    # past its last passage, and a constant-free-speed random datum
    _, datum = pt.build_scenario(scenario_cfg)
    mesh = pt.GridMesh(laws, 5)
    t_end = 1.25 * pt.closed_form_table(scenario_cfg, laws=laws).t_last
    light = pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)
    flat = _random_run(flat_mesh5, 12)
    monkeypatch.setattr(engine, "FrontRecord", Unbuildable)
    for res in (light, flat):
        with pytest.raises((AssertionError, TypeError)):
            res.records[0]
        assert audit_run(res) == []
        assert len(entropy_report(res).records) > 0
        step_deficit_totals(res)
        t = 0.5 * res.t_end
        pt.weak_residual(res, pt.BumpTestFunction(t, 0.4 * res.t_end, 0.0, 6.0))
        assert res.diagram_at(t).fronts
        res.profile(t, [-1.0, 0.0, 1.0])
        res.l1_distance(0.0, t)
        assert len(list(cli._front_rows(res))) == len(res.history)
    assert pt.last_passage_time(light) > 0.0
