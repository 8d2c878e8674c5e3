"""phasetrack benchmark: runs one workload in this process and reports it.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

With --trace 0 it prints the end-to-end metrics, times in reference-speed
seconds (see speed.py) and, on the human lines, as measured; with --trace 1
it runs one untraced and one traced pass and prints the per-layer metrics,
as measured.  Human-
readable lines come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Run it from a
checkout of the repository: the program is imported from its src/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import REF_S, Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
SETUP_REF_S = 0.15         # reference process time at the reference speed
# starts the interpreter and imports numpy, as every set-up does, and no
# program code
REFERENCE_CMD = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
SAMPLE_EVERY_S = 0.25      # wall time between two machine-speed samples
LOCAL_SAMPLES = 4          # samples that set the machine speed of one operation
P90_MIN_TAIL = 10          # report a percentile only with >= 10 samples above it
PROBE_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5


def load_program() -> None:
    """Import phasetrack from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import phasetrack
    except ImportError as exc:
        sys.exit(f"bench: cannot import phasetrack from {src}: {exc}")
    if Path(phasetrack.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: phasetrack was imported from {phasetrack.__file__}, not {src}")


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)   # (start, end)
    kinds: list[str] = field(default_factory=list)
    events: int = 0
    out_bytes: int = 0
    failed: int = 0
    failed_by_kind: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops, tracer=None, meter=None) -> PassResult:
    """Time each call into the program; check its output untimed (and
    untraced).  An operation fails when it raises or fails its check.
    Time a ticking meter spends sampling inside a call is not the call's."""
    from workloads import Outcome

    res = PassResult()
    gc.collect()
    start = perf_counter()
    for op in ops:
        spent = meter.spent if meter else 0.0
        t0 = perf_counter()
        try:
            out = op.call()
            raised = None
        except Exception as exc:  # an operation that raises counts as failed
            raised = Outcome([f"raised {type(exc).__name__}: {exc}"])
        t1 = perf_counter()
        dt = t1 - t0 - ((meter.spent - spent) if meter else 0.0)
        outcome = raised
        if raised is None:
            with tracer.paused() if tracer else contextlib.nullcontext():
                try:
                    outcome = op.check(out)
                except Exception as exc:  # unreadable output fails the check
                    outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"])
            del out
        res.times.append(dt)
        res.spans.append((t0, t1))
        res.kinds.append(op.kind)
        res.events += outcome.events
        res.out_bytes += outcome.out_bytes
        if outcome.problems:
            res.failed += 1
            res.failed_by_kind[op.kind] = res.failed_by_kind.get(op.kind, 0) + 1
            if res.failed <= MAX_REPORTED_FAILURES:
                print(f"bench: {op.kind} operation failed: {outcome.problems[0]}",
                      file=sys.stderr)
    res.elapsed = perf_counter() - start
    return res


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting cmd to its first line of output, "ready"."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed (exit {proc.returncode})")
    return dt


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """SETUP_PROBES times from starting a fresh process to its workload
    being set up, each paired with the mean time of the reference process
    started right before and right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    refs, probes = [time_to_ready(REFERENCE_CMD)], []
    for _ in range(SETUP_PROBES):
        probes.append(time_to_ready(cmd))
        refs.append(time_to_ready(REFERENCE_CMD))
    return [(p, (a + b) / 2) for p, a, b in zip(probes, refs, refs[1:])]


def traced_run(ops):
    """One untraced pass, then one traced pass of the same operations.
    Runs simulated in set-up, before the tracer was installed, are counted
    from the stored results the operations read."""
    from tracing import Tracer

    passes = [run_pass(ops)]
    tracer = Tracer()
    tracer.install()
    try:
        for res in {id(op.reads): op.reads for op in ops if op.reads is not None}.values():
            tracer.add_stored_run(res)
        passes.append(run_pass(ops, tracer))
    finally:
        tracer.uninstall()
    return passes, tracer


def environment() -> dict[str, str]:
    import numpy

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": str(len(os.sched_getaffinity(0))), "machine": platform.machine(),
            "commit": commit}


def _fmt_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<40} {value:>16.6g} {unit:<6} {note}".rstrip()


def end_to_end(passes: list[PassResult], setup: list[tuple[float, float]],
               meter: Speedometer) -> tuple[dict, list[str]]:
    """The gated metrics, times in reference-speed seconds.  An
    operation's time is scaled by REF_S over the mean kernel time of the
    samples taken during it, or of the LOCAL_SAMPLES nearest when fewer
    were; a set-up probe (measured, reference) by SETUP_REF_S over its
    reference process time.  The measured values follow on the human
    lines."""
    def scaled(t, span):
        return t * REF_S / meter.local(*span, LOCAL_SAMPLES)

    walls = [sum(map(scaled, p.times, p.spans)) for p in passes]
    times = [scaled(t, span) for p in passes for t, span in zip(p.times, p.spans)]
    raw_times = [t for p in passes for t in p.times]
    events = sum(p.events for p in passes)
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_s.p50": statistics.median(raw_times),
        "events_per_s": events / sum(p.wall for p in passes),
    }
    metrics = {
        "setup_s": (statistics.median(t * SETUP_REF_S / ref for t, ref in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "events_per_s": (events / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup)} fresh processes",
             "wall_s": f"median of {len(passes)} passes",
             "op_s.p50": f"n={len(times)} operations"}
    lines = [_fmt_line(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    n_above = len(times) - int(0.9 * len(times))
    if n_above >= P90_MIN_TAIL:
        p90 = statistics.quantiles(times, n=10)[8]
        raw["op_s.p90"] = statistics.quantiles(raw_times, n=10)[8]
        lines.append(_fmt_line("op_s.p90", p90, "s",
                               f"n={len(times)} operations, {n_above} above"))
    else:
        lines.append(f"{'op_s.p90':<40} {'undefined':>16} {'s':<6} "
                     f"n={len(times)} operations, fewer than {P90_MIN_TAIL} above")
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    lines.append(_fmt_line("fail_ratio", failed / attempted, "ratio",
                           f"{failed} of {attempted} operations"))
    lines += [_fmt_line(f"measured {k}", v, "1/s" if k == "events_per_s" else "s")
              for k, v in raw.items()]
    return metrics, lines


def time_shares(p: PassResult) -> str:
    by_kind: dict[str, float] = {}
    for k, t in zip(p.kinds, p.times):
        by_kind[k] = by_kind.get(k, 0.0) + t
    total = p.wall or 1.0
    return ", ".join(f"{k} {by_kind[k] / total:.0%} ({p.kinds.count(k)} ops)"
                     for k in sorted(by_kind))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_program()
    import workloads
    from tracing import layer_metrics

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            build(args.seed, workdir)
            print("ready", flush=True)
            return 0
        ops = build(args.seed, workdir)
        env = environment()
        print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        print("# " + "  ".join(f"{k} {v}" for k, v in env.items()))

        if args.trace:
            passes, tracer = traced_run(ops)
            metrics = layer_metrics(tracer, passes[0].wall, passes[1].wall,
                                    passes[1].out_bytes)
            base = OUT / f"trace-{args.workload}-seed{args.seed}"
            tracer.dump(base, dict(env, workload=args.workload, seed=args.seed,
                                   metrics={k: v for k, (v, _) in metrics.items()}))
            lines = [_fmt_line(k, v, u) for k, (v, u) in metrics.items()]
            lines.append(f"# spans written to {base.relative_to(ROOT)}.npz/.json")
        else:
            setup = probe_setup(args.workload, args.seed)
            meter = Speedometer()
            meter.sample()
            with meter.ticking(SAMPLE_EVERY_S):
                passes = []
                start = perf_counter()
                while True:
                    passes.append(run_pass(ops, meter=meter))
                    if perf_counter() - start + passes[-1].elapsed > args.seconds:
                        break
            metrics, lines = end_to_end(passes, setup, meter)
            lines.append(f"# reference kernel time {REF_S * 1e3:g} ms; measured median "
                         f"{statistics.median(meter.samples) * 1e3:.6g} ms over "
                         f"{len(meter.samples)} samples")

        attempted = sum(len(p.times) for p in passes)
        failed = sum(p.failed for p in passes)
        print(f"# passes {len(passes)}  operations {attempted}  failed {failed}  "
              f"time by kind: {time_shares(passes[-1])}")
        if failed:
            by_kind: dict[str, int] = {}
            for p in passes:
                for k, n in p.failed_by_kind.items():
                    by_kind[k] = by_kind.get(k, 0) + n
            print("# failed by kind: " + ", ".join(f"{k} {n}" for k, n in sorted(by_kind.items())))
        for line in lines:
            print(line)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
