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
import datetime
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .analysis import entropy_report, step_deficit_totals
from .engine import (PiecewiseConstantDatum, RunResult, approximate_datum,
                     l1_distance, random_mesh_datum, run)
from .errors import InvariantViolation, PhasetrackError
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
    if kind in ("congested", "cong"):
        rho_s, v_s = rest.split(",")
        return TrafficState(float(rho_s), float(v_s), Phase.CONGESTED)
    raise ValueError(f"cannot parse state {text!r}")


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


class RunConfig:
    """Resolved configuration for a single run."""

    def __init__(self, path: Path, seed: int | None = None):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = cp.read(path)
        if not read:
            raise ValueError(f"cannot read config {path}")
        self.scenario_cfg: TrafficLightConfig | None = None
        if cp.has_section("scenario"):
            s = cp["scenario"]
            self.scenario_cfg = TrafficLightConfig(
                gamma=s.getfloat("gamma", 2.0),
                v_max=s.getfloat("v_max", 1.0 / 20.0),
                w_max=s.getfloat("w_max", 4.0 / 30.0),
                w_c=s.getfloat("w_c", 1.0 / 8.0),
                v_c=s.getfloat("v_c", 0.02),
                x1=s.getfloat("x1", -10.0),
                x2=s.getfloat("x2", -7.0),
                n_levels=(s.getint("n_min", 5), s.getint("n_max", 9)),
            )
            self.laws, self.datum = build_scenario(self.scenario_cfg)
        elif cp.has_section("model"):
            self.laws = laws_from_config({k.lower(): v for k, v in cp["model"].items()})
            if not cp.has_section("datum"):
                raise ValueError("config needs a [datum] section")
            d = cp["datum"]
            kind = d.get("kind", "inline").strip().lower()
            if kind == "inline":
                breaks = _floats(d["breaks"])
                states = [_parse_state(self.laws, s) for s in d["states"].split("|")]
                self.datum = PiecewiseConstantDatum(tuple(breaks), tuple(states))
            elif kind == "random":
                self._random = dict(jumps=d.getint("jumps", 12),
                                    x_lo=d.getfloat("x_lo", -10.0),
                                    x_hi=d.getfloat("x_hi", 10.0))
                self.datum = None
            else:
                raise ValueError(f"unknown datum kind {kind!r}")
        else:
            raise ValueError("config needs a [scenario] or [model] section")

        r = cp["run"] if cp.has_section("run") else {}
        self.n = int(r.get("n", 6))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self.t_end = float(r.get("t_end", 0.0)) or None
        self.snapshots = _floats(r.get("snapshots", "")) if r.get("snapshots") else []
        self.x_points = int(r.get("x_points", 400))
        self.x_lo = float(r["x_lo"]) if "x_lo" in r else None
        self.x_hi = float(r["x_hi"]) if "x_hi" in r else None
        self.entropy_enabled = str(r.get("entropy", "on")).lower() not in ("off", "false", "0")
        self.k_grid = _floats(r["k_grid"]) if "k_grid" in r else None
        self.seed = seed

    def resolve_datum(self, mesh: GridMesh):
        if self.datum is not None:
            return self.datum
        rng = random.Random(self.seed or 0)
        return random_mesh_datum(mesh, rng, max_jumps=self._random["jumps"],
                                 x_span=(self._random["x_lo"], self._random["x_hi"]))


def _default_t_end(cfg: RunConfig) -> float:
    if cfg.t_end is not None:
        return cfg.t_end
    if cfg.scenario_cfg is not None:
        return 1.25 * closed_form_table(cfg.scenario_cfg).t_last
    return 100.0


def _x_grid(cfg: RunConfig, datum, t_end: float) -> list[float]:
    lo = cfg.x_lo if cfg.x_lo is not None else min(datum.breaks) - 2.0
    hi = cfg.x_hi if cfg.x_hi is not None else \
        max(datum.breaks) + cfg.laws.V_max * t_end + 1.0
    n = max(cfg.x_points, 2)
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _write_metadata(outdir: Path, **fields) -> None:
    """metadata.json: the tool header, the only wall-clock value, plus fields."""
    meta = dict(tool="phasetrack", version=__version__,
                written_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
                **fields)
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _scenario_meta(sc: TrafficLightConfig) -> dict:
    """The scenario block of metadata.json."""
    return dict(
        scenario=dict(gamma=sc.gamma, v_max=sc.v_max, w_max=sc.w_max,
                      w_c=sc.w_c, v_c=sc.v_c, x1=sc.x1, x2=sc.x2),
        marker_band=dict(
            w_c=sc.w_c, w_max=sc.w_max,
            note="w_max must exceed w_c; configs supplying the reverse "
                 "ordering are rejected by validation"))


def _write_outputs(outdir: Path, cfg: RunConfig, res: RunResult, meta_extra: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    laws = res.laws

    xs = _x_grid(cfg, cfg.datum, res.t_end)
    prof_rows = []
    for t in cfg.snapshots or [0.0, res.t_end]:
        t = min(max(t, 0.0), res.t_end)
        states = res.profile(t, xs)
        for x, u in zip(xs, states):
            prof_rows.append((t, x, u.rho, u.v, laws.w1(u), laws.w2(u)))
    _write_csv(outdir / "profiles.csv",
               ["t", "x", "rho", "v", "w1", "w2"], prof_rows)

    _write_csv(outdir / "fronts.csv",
               ["t0", "t1", "x0", "x1", "speed", "kind",
                "left_rho", "left_v", "left_phase",
                "right_rho", "right_v", "right_phase"],
               [(r.t0, r.t1, r.x0, r.x1, r.speed,
                 r.kind.value if r.kind else "initial",
                 r.left.rho, r.left.v, r.left.phase.value,
                 r.right.rho, r.right.v, r.right.phase.value)
                for r in res.records])

    _write_csv(outdir / "functionals.csv",
               ["t", "tv", "temple", "waves", "phase_transitions"],
               res.log.rows())

    if cfg.entropy_enabled:
        rep = entropy_report(res, cfg.k_grid)
        _write_csv(outdir / "entropy.csv",
                   ["t0", "t1", "x0", "kind", "k", "upsilon"], rep.rows())

    _write_metadata(
        outdir, n=cfg.n, t_end=res.t_end, events=res.events,
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
        cfg.datum = datum
        t_end = _default_t_end(cfg)
        diagram = approximate_datum(datum, mesh)
    except (PhasetrackError, ValueError, KeyError, configparser.Error) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        res = run(diagram, t_end, mesh, strict=args.strict)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    meta = _scenario_meta(cfg.scenario_cfg) if cfg.scenario_cfg is not None else {}
    _write_outputs(Path(args.out), cfg, res, meta)
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
        cfg = RunConfig(Path(args.config))
        if cfg.scenario_cfg is None:
            raise ValueError("ladder requires a [scenario] config")
        n_min = args.n_min if args.n_min is not None else cfg.scenario_cfg.n_levels[0]
        n_max = args.n_max if args.n_max is not None else cfg.scenario_cfg.n_levels[1]
        if n_min > n_max or n_min < 1:
            raise ValueError(f"bad level range {n_min}..{n_max}")
        # the construction depends on the config alone: build it once and
        # hand the same object to every level (pickled to --jobs workers)
        exact = ExactSolution(cfg.scenario_cfg)
    except (PhasetrackError, ValueError, KeyError, configparser.Error) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    sc, table = exact.cfg, exact.table
    t_end = cfg.t_end or 1.25 * table.t_last
    payloads = [(exact, n, t_end, args.strict) for n in range(n_min, n_max + 1)]
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as ex:
                rows = list(ex.map(_ladder_level, payloads))
        else:
            rows = [_ladder_level(p) for p in payloads]
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "ladder.csv",
               ["n", "sim_t_last", "closed_form_t_d1", "abs_error",
                "l1_error", "negative_entropy", "events", "violations"],
               [(r["n"], r["sim_t_last"], r["closed_form_t_d1"], r["abs_error"],
                 r["l1_error"], r["negative_entropy"], r["events"], r["violations"])
                for r in rows])
    _write_metadata(outdir, t_end=t_end, structural_ok=table.structural_ok,
                    exact_last_passage=table.t_last, **_scenario_meta(sc))
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
    p_lad.add_argument("--n-min", type=int, default=None)
    p_lad.add_argument("--n-max", type=int, default=None)
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
