"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations.  An operation
is one call into phasetrack's public API or CLI plus the benchmark's own
check of what the call returned.  Building the list is the workload's
set-up; running it once is a pass.
"""

from __future__ import annotations

import configparser
import functools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import phasetrack as pt
import phasetrack.cli as cli
from phasetrack.errors import EventOverflow

import checks
from datagen import compose, jump_counts, make_rng, random_datum, write_ini

ROOT = Path(__file__).resolve().parent.parent
TRAFFIC_LIGHT_INI = ROOT / "configs" / "traffic_light.ini"
FLAT_FREE_INI = ROOT / "configs" / "flat_free_random.ini"

# corpus: traffic-light laws, one shared mesh
CORPUS_LEVEL = 6
CORPUS_T_END = 250.0
# Many middling data rather than fewer large ones: a datum's event count
# varies several-fold, and over 260 data of 10-30 jumps the median
# operation and the event total vary about half as much from seed to seed
# as over 130 data of 20-40 jumps, for the same pass time; 520 such data
# (a pass of about 35 s) cut the median's seed-to-seed spread again.
CORPUS_MIN_JUMPS = 10
CORPUS_MAX_JUMPS = 30
CORPUS_DATA = 520

# history and cli_run: constant-free-speed laws of flat_free_random.ini.
# Their data are vacuum-bordered stretches placed far enough apart never to
# interact.  A read's cost follows the history's front-time (the sum of
# record lifetimes), which varies little between stretches of a fixed jump
# count, so a history is a fixed number of stretches.  The events a read
# counts vary far more, so only stretches whose own run has a middling
# event count are kept.  A `phasetrack run` costs in proportion to its
# records, which vary much more, so a run's datum gets stretches until its
# run holds a target record count.
FF_LEVEL = 5
FF_T_END = 150.0
STRETCH_WIDTH = 20.0

HISTORY_DATA = 16
HISTORY_STRETCHES = 3
HISTORY_STRETCH_JUMPS = 8
HISTORY_STRETCH_EVENTS = (100, 400)     # about 40% of 8-jump stretches
HISTORY_READS = 9000
# one weak_residual per READ_CYCLE reads; the rest reconstruct diagrams.
# A bump costs about 200 diagram reads, so this mix splits the read time
# roughly evenly between weak_residual and diagram_at-based reads.
READ_CYCLE = ("weak",) + ("diagram",) * 60 + ("profile",) * 30 + ("l1",) * 10
PROFILE_POINTS = 400

CLI_CONFIGS = 10
CLI_RECORDS = 1200
CLI_STRETCH_JUMPS = 4
CLI_RUN_SECTION = {"n": str(FF_LEVEL), "t_end": repr(FF_T_END),
                   "snapshots": "0 50 100 150"}

# 5..6 three times: op_s.p50 is then the middle of three like operations,
# not the time of a single one
LADDER_RANGES = ((5, 5), (5, 6), (5, 6), (5, 6), (5, 7))


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    events: int = 0
    out_bytes: int = 0


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    reads: object = None       # the stored RunResult a history read reads back


def speed_cap(laws) -> float:
    """Largest wave speed magnitude (the L of criterion 7 is TV times this)."""
    return max(laws.V_max, laws.R_max * laws.p.deriv(laws.R_max))


def flat_free_model() -> dict[str, str]:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cp.read(FLAT_FREE_INI):
        raise FileNotFoundError(FLAT_FREE_INI)
    return dict(cp["model"])


def stretch_pitch(laws) -> float:
    """Stretch spacing at which no wave of one reaches another by FF_T_END."""
    return STRETCH_WIDTH + 2.0 * speed_cap(laws) * FF_T_END + 1.0


def stretch(mesh, rng, jumps: int):
    return random_datum(mesh, rng, jumps, (0.0, STRETCH_WIDTH), vacuum_ends=True)


def history_stretch(mesh, rng):
    lo, hi = HISTORY_STRETCH_EVENTS
    while True:
        s = stretch(mesh, rng, HISTORY_STRETCH_JUMPS)
        try:
            # the cap stops a busy stretch early, which keeps set-up time steady
            events = pt.run(pt.approximate_datum(s, mesh), FF_T_END, mesh,
                            event_cap=hi).events
        except EventOverflow:
            continue
        if events >= lo:
            return s


def budgeted_datum(mesh, rng, min_records: int):
    """Stretches of CLI_STRETCH_JUMPS jumps, composed until the composite's
    run holds min_records records.  Each stretch is first simulated alone,
    which bounds how many a try needs; past that point the composite is
    re-simulated after each stretch added."""
    stretches, alone = [], 0
    while True:
        s = stretch(mesh, rng, CLI_STRETCH_JUMPS)
        stretches.append(s)
        if alone < min_records:
            alone += len(pt.run(pt.approximate_datum(s, mesh), FF_T_END, mesh).records)
            if alone < min_records:
                continue
        datum = compose(stretches, stretch_pitch(mesh.laws))
        res = pt.run(pt.approximate_datum(datum, mesh), FF_T_END, mesh)
        if len(res.records) >= min_records:
            return datum


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# corpus: approximate_datum -> run -> audit_run on one random datum


def _corpus_call(datum, mesh):
    res = pt.run(pt.approximate_datum(datum, mesh), CORPUS_T_END, mesh)
    return res, cli.audit_run(res)


def _corpus_check(out) -> Outcome:
    res, violations = out
    return Outcome(list(violations) + checks.run_problems(res), res.events)


def corpus(seed: int, workdir: Path) -> list[Op]:
    laws, _ = pt.build_scenario(pt.TrafficLightConfig())
    mesh = pt.GridMesh(laws, CORPUS_LEVEL)
    rng = make_rng("corpus", seed)
    counts = jump_counts(rng, CORPUS_DATA, CORPUS_MIN_JUMPS, CORPUS_MAX_JUMPS)
    return [Op("run", functools.partial(_corpus_call, random_datum(mesh, rng, n), mesh),
               _corpus_check) for n in counts]


# ---------------------------------------------------------------------------
# history: reads of simulated histories


# A read's events are those of the history it reads back.

def _diagram_check(res, out) -> Outcome:
    return Outcome(checks.continuity_problems(out), res.events)


def _profile_check(res, t, n, out) -> Outcome:
    problems = [] if len(out) == n else [f"profile has {len(out)} of {n} points"]
    return Outcome(problems + checks.continuity_problems(res.diagram_at(t)), res.events)


def _l1_check(res, lip, t, s, out) -> Outcome:
    return Outcome(checks.lipschitz_problems(out, lip, t, s), res.events)


def _weak_check(res, out) -> Outcome:
    return Outcome(checks.weak_problems(out), res.events)


def _weak_read(res, phi):
    return pt.weak_residual(res, phi)


def _method_read(res, name: str, *args):
    # looked up per call, so a tracer installed after set-up sees the call
    return getattr(res, name)(*args)


def _read_op(kind: str, hist, rng) -> Op:
    res, lip, pitch, xs = hist
    if kind == "weak":
        tr = rng.uniform(15.0, 30.0)
        phi = pt.BumpTestFunction(rng.uniform(tr, FF_T_END - tr), tr,
                                  rng.randrange(HISTORY_STRETCHES) * pitch
                                  + rng.uniform(0.0, STRETCH_WIDTH),
                                  rng.uniform(2.0, 8.0))
        return Op(kind, functools.partial(_weak_read, res, phi),
                  functools.partial(_weak_check, res), res)
    t = rng.uniform(0.0, FF_T_END)
    if kind == "diagram":
        return Op(kind, functools.partial(_method_read, res, "diagram_at", t),
                  functools.partial(_diagram_check, res), res)
    if kind == "profile":
        return Op(kind, functools.partial(_method_read, res, "profile", t, xs),
                  functools.partial(_profile_check, res, t, len(xs)), res)
    s = rng.uniform(0.0, FF_T_END)
    return Op(kind, functools.partial(_method_read, res, "l1_distance", t, s),
              functools.partial(_l1_check, res, lip, t, s), res)


def history(seed: int, workdir: Path) -> list[Op]:
    laws = pt.laws_from_config(flat_free_model())
    mesh = pt.GridMesh(laws, FF_LEVEL)
    rng = make_rng("history", seed)
    pitch = stretch_pitch(laws)
    hists = []
    for _ in range(HISTORY_DATA):
        datum = compose([history_stretch(mesh, rng) for _ in range(HISTORY_STRETCHES)],
                        pitch)
        res = pt.run(pt.approximate_datum(datum, mesh), FF_T_END, mesh)
        lo, hi = datum.breaks[0] - 2.0, datum.breaks[-1] + laws.V_max * FF_T_END + 1.0
        xs = [lo + (hi - lo) * i / (PROFILE_POINTS - 1) for i in range(PROFILE_POINTS)]
        lip = datum.tv_coords(laws) * speed_cap(laws)
        hists.append((res, lip, pitch, xs))
    kinds = [READ_CYCLE[i % len(READ_CYCLE)] for i in range(HISTORY_READS)]
    rng.shuffle(kinds)
    return [_read_op(kind, hists[i % HISTORY_DATA], rng) for i, kind in enumerate(kinds)]


# ---------------------------------------------------------------------------
# cli_run: `phasetrack run` in-process


def _cli_run_call(config: Path, out: Path):
    shutil.rmtree(out, ignore_errors=True)
    return cli.main(["run", str(config), "--out", str(out)]), out


def _cli_run_check(result) -> Outcome:
    rc, out = result
    try:
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        problems = checks.run_output_problems(out)
        meta = out / "metadata.json"
        events = int(json.loads(meta.read_text())["events"]) if meta.is_file() else 0
        return Outcome(problems, events, dir_bytes(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def cli_run(seed: int, workdir: Path) -> list[Op]:
    model = flat_free_model()
    mesh = pt.GridMesh(pt.laws_from_config(model), FF_LEVEL)
    rng = make_rng("cli_run", seed)
    configs = [TRAFFIC_LIGHT_INI]
    for i in range(CLI_CONFIGS):
        datum = budgeted_datum(mesh, rng, CLI_RECORDS)
        path = workdir / f"cli_run_{i}.ini"
        write_ini(path, model, datum, CLI_RUN_SECTION)
        configs.append(path)
    return [Op("run", functools.partial(_cli_run_call, c, workdir / f"run_out_{i}"),
               _cli_run_check) for i, c in enumerate(configs)]


# ---------------------------------------------------------------------------
# ladder: `phasetrack ladder` in-process over level ranges starting at 5


def _ladder_call(lo: int, hi: int, out: Path):
    shutil.rmtree(out, ignore_errors=True)
    rc = cli.main(["ladder", str(TRAFFIC_LIGHT_INI), "--n-min", str(lo),
                   "--n-max", str(hi), "--jobs", "1", "--out", str(out)])
    return rc, out


def _ladder_check(levels: range, ref: dict, result) -> Outcome:
    rc, out = result
    try:
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        if "t_d1" not in ref:
            sc = cli.RunConfig(TRAFFIC_LIGHT_INI).scenario_cfg
            ref["t_d1"] = pt.closed_form_table(sc).t_d1
        problems, events = checks.ladder_problems(out / "ladder.csv", levels, ref["t_d1"])
        return Outcome(problems, events, dir_bytes(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def ladder(seed: int, workdir: Path) -> list[Op]:
    """The input is the shipped config, so the seed changes nothing here."""
    ref: dict = {}
    return [Op("ladder", functools.partial(_ladder_call, lo, hi, workdir / f"ladder_{i}"),
               functools.partial(_ladder_check, range(lo, hi + 1), ref))
            for i, (lo, hi) in enumerate(LADDER_RANGES)]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "corpus": corpus, "ladder": ladder, "history": history, "cli_run": cli_run,
}
