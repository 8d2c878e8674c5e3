"""Command-line front end: single runs and scenario refinement ladders.

Configs are INI files; outputs are deterministic CSVs plus a metadata
sidecar (the only place a wall clock appears).

Exit codes: 0 success, 2 configuration/validation failure, 3 an invariant
was violated during or after a run.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import datetime
import json
import math
import random
import sys
from pathlib import Path

from . import __version__
from .analysis import entropy_report, step_deficit_totals
from .engine import (PiecewiseConstantDatum, RunResult, approximate_datum,
                     l1_distance, random_mesh_datum, run)
from .errors import InvariantViolation, NotReached, PhasetrackError
from .grid import GridMesh
from .invariants import audit_run
from .model import ModelLaws, Phase, TrafficState, laws_from_config
from .scenario import (ExactSolution, TrafficLightConfig, build_scenario,
                       closed_form_table, last_passage_time)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _parse_state(laws: ModelLaws, text: str) -> TrafficState:
    text = text.strip()
    if text == "vacuum":
        return laws.vacuum()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "free":
        rho = float(rest)
        return TrafficState(rho, laws.v_free(rho), Phase.FREE)
    if kind == "congested":
        rho_s, v_s = rest.split(",")
        return TrafficState(float(rho_s), float(v_s), Phase.CONGESTED)
    raise ValueError(f"cannot parse state {text!r}")


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _some_floats(text: str) -> list[float]:
    """`_floats` of a list key whose empty value would otherwise run as if
    the key were absent, or check nothing."""
    values = _floats(text)
    if not values:
        raise ValueError("needs at least one value")
    return values


class RunConfig:
    """Resolved configuration for a single run.

    The reads below are the config format: every key is read through
    `_read`, and a key of the file that no read took is an error."""

    def __init__(self, path: Path, seed: int | None = None):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.add_section("run")       # every [run] key has a default
        read = cp.read(path)
        if not read:
            raise ValueError(f"cannot read config {path}")
        self._taken: set[tuple[str, str]] = set()
        self.scenario_cfg: TrafficLightConfig | None = None
        if cp.has_section("scenario"):
            s = cp["scenario"]
            self.scenario_cfg = TrafficLightConfig(
                **{f.name: self._read(s, f.name) for f in dataclasses.fields(TrafficLightConfig)
                   if f.name in s})
            self.laws, self.datum = build_scenario(self.scenario_cfg)
        elif cp.has_section("model"):
            m = cp["model"]
            self.laws = laws_from_config(
                {k: self._read(m, k, str if k == "family" else float) for k in m})
            if not cp.has_section("datum"):
                raise ValueError("config needs a [datum] section")
            d = cp["datum"]
            kind = self._read(d, "kind", str, "inline").strip().lower()
            if kind == "inline":
                breaks = self._read(d, "breaks", _floats)
                states = self._read(d, "states", lambda t: [_parse_state(self.laws, u)
                                                            for u in t.split("|")])
                self.datum = PiecewiseConstantDatum(tuple(breaks), tuple(states))
            elif kind == "random":
                self._random = dict(jumps=self._read(d, "jumps", int, 12),
                                    x_lo=self._read(d, "x_lo", float, -10.0),
                                    x_hi=self._read(d, "x_hi", float, 10.0))
                # the datum draws between 3 and `jumps` breakpoints in (x_lo, x_hi)
                if self._random["jumps"] < 3:
                    raise ValueError(f"[datum] jumps must be at least 3, "
                                     f"got {self._random['jumps']}")
                if not -math.inf < self._random["x_lo"] < self._random["x_hi"] < math.inf:
                    raise ValueError(f"[datum] needs a finite x_lo < x_hi, got x_lo = "
                                     f"{self._random['x_lo']}, x_hi = {self._random['x_hi']}")
                self.datum = None
            else:
                raise ValueError(f"unknown datum kind {kind!r}")
        else:
            raise ValueError("config needs a [scenario] or [model] section")

        r = cp["run"]
        self.n = self._read(r, "n", int, 6)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self.t_end = self._read(r, "t_end", float, None)   # 0 is a valid end
        if self.t_end is not None and not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        self.snapshots = self._read(r, "snapshots", _some_floats, [])
        self.x_points = self._read(r, "x_points", int, 400)
        self.x_lo = self._read(r, "x_lo", float, None)
        self.x_hi = self._read(r, "x_hi", float, None)
        entropy = self._read(r, "entropy", str, "on").lower()
        if entropy not in cp.BOOLEAN_STATES:
            raise ValueError(f"[run] entropy must be one of {', '.join(cp.BOOLEAN_STATES)}, "
                             f"got {entropy!r}")
        self.entropy_enabled = cp.BOOLEAN_STATES[entropy]
        self.k_grid = self._read(r, "k_grid", _some_floats, None)
        if self.k_grid is not None and not all(0.0 <= k <= self.laws.V_f for k in self.k_grid):
            raise ValueError(f"k_grid speeds must lie in [0, V_f = {self.laws.V_f}], "
                             f"got {self.k_grid}")
        # a key this config's shape does not read would silently do nothing
        for name in cp.sections():
            for key in cp[name]:
                if (name, key) not in self._taken:
                    raise ValueError(f"unknown [{name}] key {key!r}")
        # the seed of a random datum: 0 unless given; no other datum takes one
        if seed is not None and self.datum is not None:
            raise ValueError("--seed applies only to a [datum] of kind = random")
        self.seed = seed or 0

    def _read(self, section: configparser.SectionProxy, key: str, parse=float, *default):
        """parse(section[key]), or the default if given and the key is absent;
        a missing or unparsable value is a ValueError naming [section] key.
        Either way the key is taken: `__init__` rejects the keys no read took."""
        self._taken.add((section.name, key))
        if key not in section:
            if default:
                return default[0]
            raise ValueError(f"missing [{section.name}] key {key!r}")
        try:
            return parse(section[key])
        except ValueError as exc:
            raise ValueError(f"[{section.name}] {key} = {section[key]!r}: {exc}") from None

    def resolve_datum(self, mesh: GridMesh):
        if self.datum is not None:
            return self.datum
        rng = random.Random(self.seed)
        return random_mesh_datum(mesh, rng, max_jumps=self._random["jumps"],
                                 x_span=(self._random["x_lo"], self._random["x_hi"]))


def _default_t_end(cfg: RunConfig, t_last: float | None = None) -> float:
    """[run] t_end; else, for a scenario, 1.25 times the exact last-passage
    time `t_last` (from the closed-form table when not given); else 100."""
    if cfg.t_end is not None:
        return cfg.t_end
    if cfg.scenario_cfg is None:
        return 100.0
    if t_last is None:
        t_last = closed_form_table(cfg.scenario_cfg, laws=cfg.laws).t_last
    return 1.25 * t_last


def _profile_grid(cfg: RunConfig, datum, t_end: float) -> tuple[list[float], list[float]]:
    """(times, abscissae) of profiles.csv; ValueError if a snapshot lies
    outside [0, t_end] or the x grid is not finite and increasing."""
    times = cfg.snapshots or [0.0, t_end]
    if not all(0.0 <= t <= t_end for t in times):
        raise ValueError(f"snapshots must lie in [0, t_end = {t_end}], got {times}")
    breaks = datum.breaks or (0.0,)     # a constant datum: as if broken at 0
    lo = cfg.x_lo if cfg.x_lo is not None else min(breaks) - 2.0
    hi = cfg.x_hi if cfg.x_hi is not None else \
        max(breaks) + cfg.laws.V_max * t_end + 1.0
    if not (-math.inf < lo < hi < math.inf and cfg.x_points >= 2):
        raise ValueError(f"profiles need a finite x_lo < x_hi and x_points >= 2, "
                         f"got x_lo = {lo}, x_hi = {hi}, x_points = {cfg.x_points}")
    n = cfg.x_points
    return times, [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _write_metadata(outdir: Path, **fields) -> None:
    """metadata.json: the tool header, the only wall-clock value, plus fields."""
    meta = dict(tool="phasetrack", version=__version__,
                written_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
                **fields)
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _front_rows(res: RunResult):
    """The rows of fronts.csv, read from the history's columns."""
    phase = {False: Phase.FREE.value, True: Phase.CONGESTED.value}.__getitem__
    for _, (t0, t1, x0, speed, kind), (rl, vl, cl, _), (rr, vr, cr, _) in \
            res.history.sides("t0", "t1", "x0", "speed", "kind"):
        x1 = x0 + speed * (t1 - t0)
        yield from zip(t0.tolist(), t1.tolist(), x0.tolist(), x1.tolist(), speed.tolist(),
                       [k.value for k in kind],
                       rl.tolist(), vl.tolist(), map(phase, cl.tolist()),
                       rr.tolist(), vr.tolist(), map(phase, cr.tolist()))


def _write_outputs(outdir: Path, cfg: RunConfig, res: RunResult, times, xs, meta_extra: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    laws = res.laws

    prof_rows = []
    for t in times:
        states = res.profile(t, xs)
        for x, u in zip(xs, states):
            prof_rows.append((t, x, u.rho, u.v, laws.w1(u), laws.w2(u)))
    _write_csv(outdir / "profiles.csv",
               ["t", "x", "rho", "v", "w1", "w2"], prof_rows)

    _write_csv(outdir / "fronts.csv",
               ["t0", "t1", "x0", "x1", "speed", "kind",
                "left_rho", "left_v", "left_phase",
                "right_rho", "right_v", "right_phase"],
               _front_rows(res))

    _write_csv(outdir / "functionals.csv",
               ["t", "tv", "temple", "waves", "phase_transitions"],
               res.log.rows())

    if cfg.entropy_enabled:
        rep = entropy_report(res, cfg.k_grid)
        _write_csv(outdir / "entropy.csv",
                   ["t0", "t1", "x0", "kind", "k", "upsilon"], rep.records)

    _write_metadata(
        outdir, n=cfg.n, t_end=res.t_end, events=res.events,
        run_stats=res.stats._asdict(),
        constants=dict(V_max=laws.V_max, V_f=laws.V_f, V_c=laws.V_c,
                       W_min=laws.W_min, W_c=laws.W_c, W_max=laws.W_max,
                       R_f_prime=laws.rho_free_crit, R_f_second=laws.rho_free_max,
                       R_c=laws.R_c, R_max=laws.R_max),
        **meta_extra)


def cmd_run(args) -> int:
    try:
        cfg = RunConfig(Path(args.config), seed=args.seed)
        mesh = GridMesh(cfg.laws, cfg.n)
        datum = cfg.resolve_datum(mesh)
        t_end = _default_t_end(cfg)
        times, xs = _profile_grid(cfg, datum, t_end)
        diagram = approximate_datum(datum, mesh)
    except (PhasetrackError, ValueError, KeyError, configparser.Error) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        res = run(diagram, t_end, mesh, strict=args.strict)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    meta = {} if cfg.scenario_cfg is None else \
        dict(scenario=dataclasses.asdict(cfg.scenario_cfg))
    if cfg.datum is None:
        # a random datum is repeated by running again with its seed
        meta["seed"] = cfg.seed
    _write_outputs(Path(args.out), cfg, res, times, xs, meta)
    bad = audit_run(res)
    if bad:
        for b in bad:
            print(f"invariant violation: {b}", file=sys.stderr)
        return 3
    return 0


PROBE_FRAC = 0.5


def _ladder_level(payload) -> dict:
    exact, n, t_end, strict = payload
    sc, laws, table = exact.cfg, exact.laws, exact.table
    mesh = GridMesh(laws, n)
    res = run(approximate_datum(exact.datum, mesh), t_end, mesh, strict=strict)
    sim_t = last_passage_time(res)
    t_probe = PROBE_FRAC * table.t_d1
    sim_diag = res.diagram_at(t_probe)
    window = (sc.x1 - 1.0, 1.0)
    cuts = sorted(set(exact.breakpoints(t_probe))
                  | set(sim_diag.positions()) | set(window))
    cuts = [c for c in cuts if window[0] <= c <= window[1]]
    # eight panels per cell: the exact side varies smoothly inside the fans
    l1 = l1_distance(laws, sim_diag.profile, lambda xs: exact.profile(t_probe, xs),
                     cuts, panels=8)
    negative_entropy, _ = step_deficit_totals(res)
    bad = audit_run(res)
    return dict(n=n, sim_t_last=sim_t, closed_form_t_d1=table.t_d1,
                abs_error=abs(sim_t - table.t_d1), l1_error=l1,
                negative_entropy=negative_entropy,
                events=res.events, violations=len(bad))


def cmd_ladder(args) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = RunConfig(Path(args.config))
        if cfg.scenario_cfg is None:
            raise ValueError("ladder requires a [scenario] config")
        if args.n_min > args.n_max or args.n_min < 1:
            raise ValueError(f"bad level range {args.n_min}..{args.n_max}")
        # build the construction once, on the config's laws and datum, and
        # hand the same object to every level (pickled to --jobs workers)
        exact = ExactSolution(cfg.scenario_cfg, (cfg.laws, cfg.datum))
    except (PhasetrackError, ValueError, KeyError, configparser.Error) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    sc, table = exact.cfg, exact.table
    t_end = _default_t_end(cfg, table.t_last)
    payloads = [(exact, n, t_end, args.strict) for n in range(args.n_min, args.n_max + 1)]
    try:
        if args.jobs > 1:
            # imported here: the pool machinery costs a fresh process about
            # 15 ms that a serial command never uses
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=args.jobs) as ex:
                rows = list(ex.map(_ladder_level, payloads))
        else:
            rows = [_ladder_level(p) for p in payloads]
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except NotReached as exc:
        print(f"configuration error: {exc} (t_end = {t_end})", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "ladder.csv", list(rows[0]), [r.values() for r in rows])
    _write_metadata(outdir, t_end=t_end, structural_ok=table.structural_ok,
                    exact_last_passage=table.t_last, scenario=dataclasses.asdict(sc))
    if any(r["violations"] for r in rows):
        print("invariant violation: see per-level audits", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="phasetrack",
                                 description="two-phase traffic wave-front tracking")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="phasetrack-out")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed for randomized datum generation")
    p_run.add_argument("--strict", action="store_true",
                       help="abort on the first violated invariant")

    p_lad = sub.add_parser("ladder", help="scenario refinement ladder")
    p_lad.add_argument("config")
    p_lad.add_argument("--n-min", type=int, default=5)
    p_lad.add_argument("--n-max", type=int, default=9)
    p_lad.add_argument("--jobs", type=int, default=1)
    p_lad.add_argument("--out", default="phasetrack-out")
    p_lad.add_argument("--strict", action="store_true",
                       help="abort on the first violated invariant")

    args = ap.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_ladder(args)


if __name__ == "__main__":
    sys.exit(main())
