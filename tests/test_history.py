"""The column-store run history, its records view, and the audit over it."""

import random

import pytest

import phasetrack as pt
from phasetrack import engine
from phasetrack.invariants import audit_run
from phasetrack.riemann import WaveKind

from references import audit_run_per_record


def _random_run(mesh, seed, max_jumps=15, t_end=100.0):
    datum = pt.random_mesh_datum(mesh, random.Random(seed), max_jumps=max_jumps)
    return pt.run(pt.approximate_datum(datum, mesh), t_end, mesh)


@pytest.fixture(scope="module")
def long_run(laws):
    """A traffic-light run with more rows than one audit chunk."""
    res = _random_run(pt.GridMesh(laws, 6), 6, max_jumps=30, t_end=250.0)
    assert len(res.records) > engine.CHUNK_ROWS
    return res


# ---------------------------------------------------------------------------
# the records view


def test_len_does_not_build_records(mesh5, monkeypatch):
    res = _random_run(mesh5, 11)
    n = len(res.history.t0)

    class Unbuildable:
        def __new__(cls, *args):
            raise AssertionError("a record was built")

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
        assert all(r.left is mesh.states[mesh.index_of(r.left)] for r in listed)


def test_setitem_round_trips_mesh_and_off_mesh_states(mesh5):
    res = _random_run(mesh5, 11)
    view = res.records
    a, b = view[0], view[-1]
    view[0] = b._replace(t0=a.t0, t1=a.t1)
    got = view[0]
    assert got == b._replace(t0=a.t0, t1=a.t1)
    assert got.left is b.left and got.right is b.right
    assert res.history.states.off == []      # mesh states take their node id

    left = pt.TrafficState(0.5, 0.0125, pt.Phase.CONGESTED)
    right = pt.TrafficState(b.right.rho, b.right.v + 1e-12, b.right.phase)
    view[-1] = b._replace(left=left, right=right, kind=None, speed=-0.25)
    got = view[-1]
    assert got == b._replace(left=left, right=right, kind=None, speed=-0.25)
    assert got.left is left and got.right is right
    assert res.history.left[-1] < 0 and res.history.right[-1] < 0

    view[0], view[-1] = a, b
    assert view[0] == a and view[-1] == b
    assert audit_run(res) == []


def test_reading_past_the_end_raises(mesh5):
    view = _random_run(mesh5, 13).records
    n = len(view)
    for i in (n, n + 1, -n - 1):
        with pytest.raises(IndexError):
            view[i]
        with pytest.raises(IndexError):
            view[i] = view[0]
    assert view[-n] == view[0]


def test_diagram_at_keeps_the_record_rule(mesh5, flat_mesh5):
    # the live rows picked from the columns are those FrontRecord.alive_at
    # keeps, in the same order
    for mesh in (mesh5, flat_mesh5):
        res = _random_run(mesh, 12)
        records = list(res.records)
        times = [0.0, res.t_end, 0.5 * res.t_end, records[0].t1, records[-1].t0]
        for t in times:
            live = [r for r in records if r.alive_at(t)]
            live.sort(key=lambda r: (r.position(t), r.speed))
            d = res.diagram_at(t)
            assert [(f.x, f.speed, f.left, f.right, f.kind) for f in d.fronts] == \
                [(r.position(t), r.speed, r.left, r.right, r.kind) for r in live]


# ---------------------------------------------------------------------------
# the audit against its per-record reference


def test_audit_matches_the_per_record_loop_on_seeded_runs(mesh5, flat_mesh5):
    for mesh in (mesh5, flat_mesh5):
        for seed in range(20, 26):
            res = _random_run(mesh, seed)
            assert audit_run(res) == audit_run_per_record(res) == []


def _speed_faults(res, rows):
    """Audit messages, new and reference, with each row's speed perturbed
    in turn; the row is restored after each."""
    view = res.records
    for i in rows:
        rec = view[i]
        view[i] = rec._replace(speed=rec.speed + 1e-3)
        got, want = audit_run(res), audit_run_per_record(res)
        view[i] = rec
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
    rows = [0, engine.CHUNK_ROWS - 1, engine.CHUNK_ROWS, n - 1]
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
    res = _random_run(mesh5, 11)
    view = res.records
    contacts = [i for i, r in enumerate(view)
                if r.kind is WaveKind.CONTACT and r.left.phase is pt.Phase.CONGESTED
                and r.right.phase is pt.Phase.CONGESTED]
    for i in (contacts[0], contacts[-1]):
        rec = view[i]
        # mass still balances, momentum does not
        a = 1e-3
        b = a * rec.left.rho / rec.right.rho
        left = pt.TrafficState(rec.left.rho, rec.left.v - a, pt.Phase.CONGESTED)
        right = pt.TrafficState(rec.right.rho, rec.right.v - b, pt.Phase.CONGESTED)
        view[i] = rec._replace(left=left, right=right)
        got = audit_run(res)
        assert got == audit_run_per_record(res)
        assert len(got) == 1 and got[0].startswith("momentum jump condition violated (")
        view[i] = rec
    assert contacts[-1] > 64
    assert audit_run(res) == []
