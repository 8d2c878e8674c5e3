"""Tests of the benchmark's own pieces: checks, generator, tracer.

    python -m pytest bench/tests -q
"""

import pytest

import phasetrack as pt
from phasetrack import cli
from phasetrack.engine import DiagramFront, FrontDiagram
from phasetrack.riemann import WaveKind

import checks
import datagen
import tracing
import workloads


def _states():
    C = pt.Phase.CONGESTED
    return (pt.TrafficState(0.30, 0.00, C), pt.TrafficState(0.31, 0.01, C),
            pt.TrafficState(0.32, 0.02, C))


def test_continuity_passes_ordered_stack_and_flags_scrambled_one():
    a, b, c = _states()
    first = DiagramFront(1.0, 0.01, a, b, WaveKind.CONTACT)
    second = DiagramFront(1.0, 0.01, b, c, WaveKind.CONTACT)
    assert checks.continuity_problems(FrontDiagram(5.0, a, [first, second])) == []
    scrambled = FrontDiagram(5.0, a, [second, first])
    problems = checks.continuity_problems(scrambled)
    assert len(problems) == 2      # left state, and the break between the two
    assert "between fronts 0 and 1" in problems[1]


def test_self_time_on_synthetic_span_tree():
    # root [0, 10]: children [1, 3] and [2, 5] overlap, [8, 12] runs past the
    # root; grandchild [1.5, 2] sits in the first child
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(start, end, parent)
    assert selfs == pytest.approx([10.0 - 4.0 - 2.0, 1.5, 3.0, 4.0, 0.5])


def test_generator_is_deterministic_per_seed():
    laws, _ = pt.build_scenario(pt.TrafficLightConfig())

    def draw(seed):
        mesh = pt.GridMesh(laws, 5)
        rng = datagen.make_rng("corpus", seed)
        counts = datagen.jump_counts(rng, 12, 1, 10)
        return [datagen.random_datum(mesh, rng, n) for n in counts]

    one, again, other = draw(7), draw(7), draw(8)
    assert [d.breaks for d in one] == [d.breaks for d in again]
    assert [d.states for d in one] == [d.states for d in again]
    assert [d.breaks for d in one] != [d.breaks for d in other]
    assert sorted(len(d.breaks) for d in one) == sorted(list(range(1, 11)) + [1, 2])


def test_vacuum_bordered_stretches_compose_in_order():
    laws = pt.laws_from_config(workloads.flat_free_model())
    mesh = pt.GridMesh(laws, 5)
    rng = datagen.make_rng("t", 1)
    parts = [datagen.random_datum(mesh, rng, 4, (0.0, 20.0), vacuum_ends=True)
             for _ in range(3)]
    whole = datagen.compose(parts, 100.0)
    assert len(whole.breaks) == 12
    assert whole.states[0] == whole.states[-1] == laws.vacuum()
    assert whole.breaks[4] == parts[1].breaks[0] + 100.0


def test_ini_datum_round_trips_to_the_same_mesh_nodes(tmp_path):
    model = workloads.flat_free_model()
    laws = pt.laws_from_config(model)
    mesh = pt.GridMesh(laws, 5)
    rng = datagen.make_rng("t", 2)
    datum = datagen.compose([datagen.random_datum(mesh, rng, 6, (0.0, 20.0), True)
                             for _ in range(4)], 120.0)
    path = tmp_path / "d.ini"
    datagen.write_ini(path, model, datum, workloads.CLI_RUN_SECTION)
    cfg = cli.RunConfig(path)
    assert cfg.datum.breaks == datum.breaks
    assert cfg.datum.states == datum.states
    snapped = pt.approximate_datum(cfg.datum, pt.GridMesh(cfg.laws, cfg.n))
    assert [f.right for f in snapped.fronts] == list(datum.states[1:])


def test_tracer_wraps_caller_namespaces_and_restores_them():
    import phasetrack.engine as engine
    import phasetrack.grid as grid

    original = grid.solve_approx
    laws, datum = pt.build_scenario(pt.TrafficLightConfig())
    mesh = pt.GridMesh(laws, 5)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert engine.solve_approx is not original
        res = pt.run(pt.approximate_datum(datum, mesh), 100.0, mesh)
        with tr.paused():
            assert engine.solve_approx is original
    finally:
        tr.uninstall()
    assert engine.solve_approx is original and pt.solve_approx is original
    m = tracing.layer_metrics(tr, 1.0, 2.0, 0)
    assert m["engine.events"][0] == res.events
    assert m["grid.solve_approx.calls"][0] >= res.events
    assert 0.0 < m["grid.solve_approx.distinct_pair_ratio"][0] <= 1.0
    assert m["engine.run.self_s"][0] < m["engine.run.s"][0]
    assert m["trace.overhead_ratio"][0] == 2.0


def test_history_reads_are_seen_by_a_tracer_installed_after_setup():
    laws = pt.laws_from_config(workloads.flat_free_model())
    mesh = pt.GridMesh(laws, 5)
    rng = datagen.make_rng("t", 3)
    datum = workloads.stretch(mesh, rng, 4)
    res = pt.run(pt.approximate_datum(datum, mesh), workloads.FF_T_END, mesh)
    hist = (res, 1.0, workloads.stretch_pitch(laws), [0.0, 1.0])
    ops = [workloads._read_op(k, hist, rng) for k in ("weak", "diagram", "profile", "l1")]
    tr = tracing.Tracer()
    tr.install()
    try:
        for op in ops:
            op.call()
    finally:
        tr.uninstall()
    agg = tr.aggregate()
    assert agg["analysis.weak_residual"]["calls"] == 1
    assert agg["engine.l1_distance"]["calls"] == 1
    assert agg["engine.diagram_at"]["calls"] == 4    # one read, one profile, two for L1


def test_traced_history_run_counts_the_stored_histories():
    import run

    laws = pt.laws_from_config(workloads.flat_free_model())
    mesh = pt.GridMesh(laws, 5)
    rng = datagen.make_rng("t", 4)
    hists = []
    for _ in range(2):
        datum = workloads.stretch(mesh, rng, 4)
        res = pt.run(pt.approximate_datum(datum, mesh), workloads.FF_T_END, mesh)
        hists.append((res, 1.0, workloads.stretch_pitch(laws), [0.0, 1.0]))
    ops = [workloads._read_op(k, hists[i % 2], rng)
           for i, k in enumerate(("diagram", "diagram", "l1", "profile"))]
    passes, tr = run.traced_run(ops)
    m = tracing.layer_metrics(tr, passes[0].wall, passes[1].wall, 0)
    assert m["engine.records"][0] == sum(len(h[0].records) for h in hists) > 0
    assert m["engine.events"][0] == sum(h[0].events for h in hists) > 0
    assert m["engine.run.s"][0] == 0.0     # nothing is simulated in the passes


def test_each_time_is_scaled_by_its_nearest_speed_reference():
    import run
    import speed

    ref = speed.REF_S
    meter = speed.Speedometer()
    meter.stamps = [float(t) for t in range(10)]      # a sample every second,
    meter.samples = [ref] * 5 + [2 * ref] * 5         # the machine halving its speed at 5 s
    assert meter.local(5.5, 9.5, 4) == 2 * ref        # four samples inside
    assert meter.local(0.5, 0.6, 4) == ref            # none inside: the four nearest
    assert meter.local(4.5, 6.5, 3) == pytest.approx(5 / 3 * ref)   # the mean, not the median
    slow = run.PassResult(times=[1.0, 3.0], spans=[(0.5, 0.6), (5.5, 9.5)], events=8)
    # (set-up time, reference process time): scaled to 0.2, 0.1 and 0.15 s
    setup = [(0.4, 2 * run.SETUP_REF_S), (0.1, run.SETUP_REF_S), (0.3, 2 * run.SETUP_REF_S)]
    metrics, _ = run.end_to_end([slow], setup, meter)
    assert metrics["wall_s"][0] == pytest.approx(1.0 + 1.5)
    assert metrics["op_s.p50"][0] == pytest.approx(1.25)
    assert metrics["setup_s"][0] == pytest.approx(0.15)
    assert metrics["events_per_s"][0] == pytest.approx(8 / 2.5)

    real = speed.Speedometer()
    real.sample()
    assert len(real.samples) == len(real.stamps) == 1
    assert real.spent >= real.samples[0] > 0.0
