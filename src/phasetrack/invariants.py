"""The run invariants, written down once.

The existence proof rests on a priori bounds that every computed history
must show: the coordinate total variation and the wave potential never
rise, a rise in the wave count pays at least one marker quantum of
potential, and phase boundaries vanish only in pairs.  Every front must
also satisfy the mass jump condition, and the momentum one wherever the
marker is conserved across it.  A snapshot must be a profile: its fronts
in order of position, each starting from the state the one before it ends
in.  `run(strict=True)` checks the functional rules at each event's log
row, and front order at each event's point; `audit_run` checks all of
them after a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import ModelLaws, Phase, TrafficState

if TYPE_CHECKING:
    from .engine import FrontDiagram, FunctionalLog, RunResult

MONO_TOL = 1e-10
ORDER_TOL = 1e-9     # relative slack on front positions; rounding leaves ~1e-15


def column_residuals(speed, left, right):
    """(mass, momentum) residuals of jumps, the momentum one on the
    conserved marker rho * max(w2, W_c): over a speed column and the side
    arrays of `FrontHistory.sides`, or one speed and two (rho, v,
    congested, marker) tuples."""
    rl, vl, _, wl = left
    rr, vr, _, wr = right
    yl, yr = rl * wl, rr * wr
    return (speed * (rr - rl) - (rr * vr - rl * vl),
            speed * (yr - yl) - (yr * vr - yl * vl))


def momentum_conserved(laws: ModelLaws, left_congested, right_congested):
    """Whether the momentum jump condition holds across jumps with these
    sides' congested flags (bools or arrays): between two congested states,
    or across every front when the free speed is constant."""
    return True if laws.degenerate_free else left_congested & right_congested


def functional_violations(log: FunctionalLog, eps_w: float, first: int = 1) -> list[str]:
    """Violations of the four functional rules at log rows first..end, each
    compared with the row before it, row by row and rule by rule; eps_w is
    the marker quantum.  Rows are flagged by numpy differences of the log's
    columns and worded from the same differences; no view of a column
    outlives the call, since a column cannot grow while one is alive."""
    cols = ((log.tv, np.float64), (log.temple, np.float64), (log.waves, np.int64),
            (log.phase_transitions, np.int64))
    # v[1:] - v[:-1] is np.diff's floats at under half its per-call cost,
    # which dominates on the two-row window of a strict run's event
    views = (np.frombuffer(c, dtype)[first - 1:] for c, dtype in cols)
    dtv, dtemple, dwaves, dpt = (v[1:] - v[:-1] for v in views)
    tv_up, temple_up = dtv > MONO_TOL, dtemple > MONO_TOL
    unpaid = (dwaves > 0) & (dtemple > -eps_w + MONO_TOL)
    unpaired = (dpt > 0) | (dpt % 2 != 0)
    bad: list[str] = []
    for j in np.flatnonzero(tv_up | temple_up | unpaid | unpaired).tolist():
        # Python scalars: numpy 2 reprs a scalar as np.float64(...)
        t, d_tv, d_temple = log.ts[first + j], dtv[j].tolist(), dtemple[j].tolist()
        if tv_up[j]:
            bad.append(f"TV increased by {d_tv} at t={t}")
        if temple_up[j]:
            bad.append(f"wave potential increased by {d_temple} at t={t}")
        if unpaid[j]:
            bad.append(f"wave count grew without paying a quantum "
                       f"(potential changed by {d_temple}) at t={t}")
        if unpaired[j]:
            bad.append(f"phase-transition count changed by {dpt[j].tolist()} at t={t}")
    return bad


def snapshot_violations(diagram: FrontDiagram) -> list[str]:
    """Breaks of state continuity and of front order in a snapshot."""
    bad: list[str] = []
    t = diagram.time
    state, x_prev = diagram.left_state, -float("inf")
    for i, f in enumerate(diagram.fronts):
        if f.left is not state and f.left != state:
            bad.append(f"state continuity broken at front {i} (x={f.x}) at t={t}")
        if x_prev - f.x > ORDER_TOL * (1.0 + abs(f.x)):
            bad.append(f"front order broken by {x_prev - f.x} at front {i} "
                       f"(x={f.x}) at t={t}")
        state, x_prev = f.right, f.x
    return bad


def event_order_violations(event: int, t: float, x: float, x_before: float,
                           x_after: float) -> list[str]:
    """Breaks of front order at an event, named by its log row: its point
    (t, x) must lie between x_before and x_after, the positions at t of the
    fronts on either side of its group, with the slack of
    `snapshot_violations`."""
    bad: list[str] = []
    for side, x_other, overlap, scale in (("before", x_before, x_before - x, x),
                                          ("after", x_after, x - x_after, x_after)):
        if overlap > ORDER_TOL * (1.0 + abs(scale)):
            bad.append(f"front order broken by {overlap} at event {event} "
                       f"(t={t}, x={x}): the front {side} it is at {x_other}")
    return bad


def rh_residual(laws: ModelLaws, speed: float, left: TrafficState,
                right: TrafficState) -> tuple[float, float | None]:
    """(mass residual, momentum residual on the conserved marker
    rho * max(w2, W_c) where `momentum_conserved` holds, else None), by
    `column_residuals` on the two states."""
    sides = [(u.rho, u.v, u.phase is Phase.CONGESTED, laws.marker_W(u)) for u in (left, right)]
    mass, mom = column_residuals(speed, *sides)
    return mass, (mom if momentum_conserved(laws, sides[0][2], sides[1][2]) else None)


def audit_run(res: RunResult) -> list[str]:
    """Post-hoc invariant checks; returns the violations found: those of the
    functional rules, of the initial and final snapshots, then the first
    jump-condition failure, if any.

    The jump conditions are checked by `column_residuals` over the history's
    columns (`FrontHistory.sides`), with the marker conserved across a row
    where `momentum_conserved` says so; the first flagged row is worded
    from the values that flagged it."""
    bad = functional_violations(res.log, res.mesh.eps_w)
    bad += snapshot_violations(res.initial) + snapshot_violations(res.final)
    for _, (speed, t0), left, right in res.history.sides("speed", "t0"):
        mass, mom = column_residuals(speed, left, right)
        conserves = momentum_conserved(res.laws, left[2], right[2])
        mass_bad = np.abs(mass) > MONO_TOL
        rows = np.flatnonzero(mass_bad | (conserves & (np.abs(mom) > MONO_TOL)))
        if len(rows):
            i = rows[0]
            # Python floats: numpy 2 reprs a scalar as np.float64(...)
            name, value = ("mass", mass[i]) if mass_bad[i] else ("momentum", mom[i])
            bad.append(f"{name} jump condition violated ({value.tolist()}) on a front "
                       f"born t={t0[i].tolist()}")
            break
    return bad
