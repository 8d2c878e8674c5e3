"""Layer tracing of phasetrack from outside the package.

The tracer wraps public functions and methods of each module.  Modules
import each other's names directly (``from .grid import solve_approx``), so
a wrapper has to replace every binding of the function object in every
``phasetrack`` module namespace, not only the defining one.  Layer
boundaries get spans (name, start, end, parent); hot leaf functions get
counters, some of them timed, so the overhead stays bounded.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  cli._write_outputs is deliberately
# not a span: cmd_run's self time is what remains after its traced children,
# which is config parsing plus CSV formatting and writing.
SPANS = [
    ("engine", "run", "engine.run"),
    ("engine", "approximate_datum", "engine.approximate_datum"),
    ("engine", "RunResult.diagram_at", "engine.diagram_at"),
    ("engine", "RunResult.profile", "engine.profile"),
    ("engine", "RunResult.l1_distance", "engine.l1_distance"),
    ("grid", "solve_approx", "grid.solve_approx"),
    ("model", "laws_from_config", "model.laws_from_config"),
    ("model", "validate_laws", "model.validate_laws"),
    ("analysis", "entropy_report", "analysis.entropy_report"),
    ("analysis", "weak_residual", "analysis.weak_residual"),
    ("scenario", "build_scenario", "scenario.build_scenario"),
    ("scenario", "closed_form_table", "scenario.closed_form_table"),
    ("scenario", "_Curves.__init__", "scenario.curves_build"),
    ("scenario", "ExactSolution.__init__", "scenario.ExactSolution"),
    ("scenario", "ExactSolution.evaluate", "scenario.ExactSolution.evaluate"),
    ("scenario", "last_passage_time", "scenario.last_passage_time"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_ladder", "cli.cmd_ladder"),
    ("cli", "_ladder_level", "cli.ladder_level"),
    ("cli", "audit_run", "cli.audit_run"),
]

# (module, attribute path, counter name, timed)
COUNTERS = [
    ("grid", "GridMesh.index_of", "grid.index_of", False),
    ("riemann", "sigma", "riemann.sigma", False),
    ("model", "ModelLaws.p_inv", "model.p_inv", True),
    ("model", "ModelLaws.R_k", "model.R_k", False),
    ("numerics", "invert_increasing", "numerics.invert_increasing", True),
    ("numerics", "gauss_integrate", "numerics.gauss_integrate", True),
    ("analysis", "rh_residual", "analysis.rh_residual", False),
]


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once, and a
    child running past its parent is clipped)."""
    n = len(start)
    covered = [0.0] * n
    kids = sorted((p, s, i) for i, (p, s) in enumerate(zip(parent, start)) if p >= 0)
    cur, reach = -1, 0.0
    for p, s, i in kids:
        if p != cur:
            cur, reach = p, start[p]
        lo, hi = max(s, reach), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open: list[int] = []
        self.counters: dict[str, list] = {}      # name -> [calls, seconds]
        self.totals: dict[str, float] = {}       # quantities read off results
        self.pairs: set = set()
        self._mesh_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._mesh_serial = itertools.count()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def _span(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, open_ = (self.span_name, self.span_start,
                                               self.span_end, self.span_parent,
                                               self._open)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counter(self, name: str, fn, timed: bool):
        cell = self.counters.setdefault(name, [0, 0.0])
        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[1] += perf_counter() - t0
                    cell[0] += 1
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- result hooks --------------------------------------------------------

    def _after_run(self, args, res) -> None:
        self.add("engine.events", res.events)
        self.add("engine.records", len(res.records))
        self.add("engine.survivors", len(res.final.fronts))

    def add_stored_run(self, res) -> None:
        """Count a run simulated before install(), such as the stored
        histories that the history workload reads back."""
        self._after_run((), res)

    def _after_solve(self, args, fan) -> None:
        mesh, u_l, u_r = args[:3]
        mid = self._mesh_ids.get(mesh)
        if mid is None:
            mid = self._mesh_ids[mesh] = next(self._mesh_serial)
        self.pairs.add((mid, u_l.rho, u_l.v, u_l.phase, u_r.rho, u_r.v, u_r.phase))

    def _after_entropy(self, args, rep) -> None:
        self.add("analysis.entropy_report.rows", len(rep.records))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {"engine.run": self._after_run, "grid.solve_approx": self._after_solve,
                 "analysis.entropy_report": self._after_entropy}
        for mod, attr, name in SPANS:
            self._patch(mod, attr, lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        for mod, attr, name, timed in COUNTERS:
            self._patch(mod, attr, lambda fn, n=name, t=timed: self._counter(n, fn, t))

    def _patch(self, mod: str, attr: str, make) -> None:
        module = importlib.import_module(f"phasetrack.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            wrapper = make(original)
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, original, wrapper))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for m in list(sys.modules.values()):
            if not getattr(m, "__name__", "").startswith("phasetrack"):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapper)
                    self._patches.append((m, key, original, wrapper))

    def uninstall(self) -> None:
        """Restore the original bindings; the wrappers are kept for resume()."""
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def resume(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.resume()

    # -- summaries -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """name -> calls, inclusive seconds and self seconds over all spans."""
        start, end = self.span_start.tolist(), self.span_end.tolist()
        selfs = self_times(start, end, self.span_parent.tolist())
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for nid, a, b, s in zip(self.span_name, start, end, selfs):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["s"] += b - a
            agg["self_s"] += s
        return out

    def dump(self, path_base: Path, extra: dict) -> None:
        """Write the spans (npz) and names, counters and totals (json)."""
        np.savez(path_base.with_suffix(".npz"),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))
        path_base.with_suffix(".json").write_text(json.dumps(dict(
            extra, span_names=self.names, counters=self.counters,
            totals=self.totals, distinct_solve_pairs=len(self.pairs)), indent=1))


def layer_metrics(tr: Tracer, untraced_wall: float, traced_wall: float,
                  output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, by name: (value, unit)."""
    agg = tr.aggregate()

    def span(name, key="s"):
        return agg.get(name, {}).get(key, 0.0)

    def count(name):
        return tr.counters.get(name, [0, 0.0])[0]

    def ctime(name):
        return tr.counters.get(name, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    events = tr.totals.get("engine.events", 0.0)
    closed = tr.totals.get("engine.records", 0.0) - tr.totals.get("engine.survivors", 0.0)
    solves = span("grid.solve_approx", "calls")
    rows = tr.totals.get("analysis.entropy_report.rows", 0.0)
    wr_calls = span("analysis.weak_residual", "calls")
    m = {
        "engine.run.s": (span("engine.run"), "s"),
        "engine.run.self_s": (span("engine.run", "self_s"), "s"),
        "engine.events": (events, "count"),
        "engine.events_per_s": (ratio(events, span("engine.run")), "1/s"),
        "engine.records": (tr.totals.get("engine.records", 0.0), "count"),
        "engine.fronts_per_event": (ratio(closed, events), "count"),
        "engine.diagram_at.calls": (span("engine.diagram_at", "calls"), "count"),
        "engine.diagram_at.us_per_call": (
            1e6 * ratio(span("engine.diagram_at"), span("engine.diagram_at", "calls")), "us"),
        "engine.l1_distance.s": (span("engine.l1_distance"), "s"),
        "grid.solve_approx.calls": (solves, "count"),
        "grid.solve_approx.s": (span("grid.solve_approx"), "s"),
        "grid.solve_approx.us_per_call": (1e6 * ratio(span("grid.solve_approx"), solves), "us"),
        "grid.index_of.calls": (count("grid.index_of"), "count"),
        "grid.solve_approx.distinct_pair_ratio": (ratio(len(tr.pairs), solves), "ratio"),
        "riemann.sigma.calls": (count("riemann.sigma"), "count"),
        "model.p_inv.calls": (count("model.p_inv"), "count"),
        "model.p_inv.s": (ctime("model.p_inv"), "s"),
        "model.R_k.calls": (count("model.R_k"), "count"),
        "numerics.invert_increasing.calls": (count("numerics.invert_increasing"), "count"),
        "numerics.invert_increasing.s": (ctime("numerics.invert_increasing"), "s"),
        "analysis.entropy_report.s": (span("analysis.entropy_report"), "s"),
        "analysis.entropy_report.rows": (rows, "count"),
        "analysis.entropy_rows_per_s": (ratio(rows, span("analysis.entropy_report")), "1/s"),
        "analysis.weak_residual.calls": (wr_calls, "count"),
        "analysis.weak_residual.ms_per_call": (
            1e3 * ratio(span("analysis.weak_residual"), wr_calls), "ms"),
        "numerics.gauss_integrate.calls": (count("numerics.gauss_integrate"), "count"),
        "numerics.gauss_integrate.s": (ctime("numerics.gauss_integrate"), "s"),
        "analysis.rh_residual.calls": (count("analysis.rh_residual"), "count"),
        "scenario.curves_builds": (span("scenario.curves_build", "calls"), "count"),
        "scenario.closed_form_table.s": (span("scenario.closed_form_table"), "s"),
        "scenario.ExactSolution.s": (span("scenario.ExactSolution"), "s"),
        "scenario.ExactSolution.evaluate.s": (span("scenario.ExactSolution.evaluate"), "s"),
        "scenario.last_passage_time.s": (span("scenario.last_passage_time"), "s"),
        "cli.audit_run.s": (span("cli.audit_run"), "s"),
        "cli.cmd_run.self_s": (span("cli.cmd_run", "self_s"), "s"),
        "cli.output_bytes": (float(output_bytes), "bytes"),
        "trace.overhead_ratio": (ratio(traced_wall, untraced_wall), "ratio"),
    }
    return m
