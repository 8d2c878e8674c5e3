"""Output checks the benchmark computes itself.

None of these take the program's verdict: each recomputes its property
from the returned history, diagram or output file.  Every function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
from pathlib import Path

MONO_TOL = 1e-10          # functional rise and mass residual (criteria 1-4)
WEAK_TOL = 1e-8           # weak-form residual (criterion 6)
LIPSCHITZ_TOL = 1e-8      # L1-in-time bound (criterion 7)
LADDER_REL_TOL = 0.02     # relative last-passage error (criterion 8)
ENTROPY_TOL = 1e-10       # production of sharp fronts (criterion 5)

RUN_OUTPUTS = ("profiles.csv", "fronts.csv", "functionals.csv", "entropy.csv",
               "metadata.json")


def continuity_problems(diagram) -> list[str]:
    """The state must match across every front of a snapshot."""
    out = []
    fronts = diagram.fronts
    if fronts and fronts[0].left != diagram.left_state:
        out.append(f"t={diagram.time}: left state differs from the first front's left")
    for i, (a, b) in enumerate(zip(fronts, fronts[1:])):
        if a.right != b.left:
            out.append(f"t={diagram.time}: state breaks between fronts {i} and {i + 1} "
                       f"at x={a.x:.17g}")
    return out


def mass_residual(rec) -> float:
    l, r = rec.left, rec.right
    return rec.speed * (r.rho - l.rho) - (r.rho * r.v - l.rho * l.v)


def functional_problems(log) -> list[str]:
    """TV and wave potential never rise; the phase-boundary count changes
    only by non-positive even steps."""
    out = []
    for i in range(1, len(log.ts)):
        if log.tv[i] - log.tv[i - 1] > MONO_TOL:
            out.append(f"TV rose by {log.tv[i] - log.tv[i - 1]:.3e} at t={log.ts[i]}")
        if log.temple[i] - log.temple[i - 1] > MONO_TOL:
            out.append(f"wave potential rose by {log.temple[i] - log.temple[i - 1]:.3e} "
                       f"at t={log.ts[i]}")
        d = log.phase_transitions[i] - log.phase_transitions[i - 1]
        if d > 0 or d % 2 != 0:
            out.append(f"phase-boundary count changed by {d} at t={log.ts[i]}")
    return out


def run_problems(res) -> list[str]:
    """Checks on one simulated history (the `corpus` operation)."""
    out = functional_problems(res.log)
    worst = max((abs(mass_residual(r)) for r in res.records), default=0.0)
    if not worst <= MONO_TOL:
        out.append(f"mass jump residual {worst:.3e} exceeds {MONO_TOL}")
    out.extend(continuity_problems(res.final))
    return out


def weak_problems(residual: tuple[float, float]) -> list[str]:
    bad = [v for v in residual if not abs(v) <= WEAK_TOL]
    return [f"weak residual {v:.3e} exceeds {WEAK_TOL}" for v in bad]


def lipschitz_problems(dist: float, lip: float, t: float, s: float) -> list[str]:
    bound = lip * abs(t - s) + LIPSCHITZ_TOL
    if not dist <= bound:
        return [f"L1({t:.6g}, {s:.6g}) = {dist:.6g} exceeds L|t-s| = {bound:.6g}"]
    return []


def ladder_problems(path: Path, levels: range, t_d1: float) -> tuple[list[str], int]:
    """Criterion 8 tolerance on every level of ladder.csv; returns the
    problems and the summed event count."""
    if not path.is_file():
        return [f"{path.name} missing"], 0
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    if [int(r["n"]) for r in rows] != list(levels):
        out.append(f"ladder.csv levels {[r['n'] for r in rows]} != {list(levels)}")
    for r in rows:
        rel = abs(float(r["sim_t_last"]) - t_d1) / t_d1
        if not rel <= LADDER_REL_TOL:
            out.append(f"level {r['n']}: relative last-passage error {rel:.4%} "
                       f"exceeds {LADDER_REL_TOL:.0%}")
    return out, sum(int(r["events"]) for r in rows)


def run_output_problems(outdir: Path) -> list[str]:
    """All five outputs exist, and no sharp front produces negative entropy."""
    out = [f"{name} missing" for name in RUN_OUTPUTS if not (outdir / name).is_file()]
    if out:
        return out
    with (outdir / "entropy.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        i_kind, i_ups = header.index("kind"), header.index("upsilon")
        bad = [row for row in reader if row[i_kind] != "rarefaction-step"
               and not float(row[i_ups]) >= -ENTROPY_TOL]
    if bad:
        out.append(f"{len(bad)} sharp-front entropy rows below -{ENTROPY_TOL}, "
                   f"first {bad[0]}")
    return out
