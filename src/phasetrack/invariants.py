"""The run invariants, written down once.

The existence proof rests on a priori bounds that every computed history
must show: the coordinate total variation and the wave potential never
rise, a rise in the wave count pays at least one marker quantum of
potential, and phase boundaries vanish only in pairs.  Every front must
also satisfy the mass jump condition, and the momentum one wherever the
marker is conserved across it.  A snapshot must be a profile: its fronts
in order of position, each starting from the state the one before it ends
in.  `run(strict=True)` checks the functional rules after each event;
`audit_run` checks all of them after a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import ModelLaws, Phase, TrafficState

if TYPE_CHECKING:
    from .engine import FrontDiagram, FunctionalLog, RunResult

MONO_TOL = 1e-10
ORDER_TOL = 1e-9     # relative slack on front positions; rounding leaves ~1e-15


def jump_residuals(speed: float, left: TrafficState, right: TrafficState,
                   W_left: float | None = None,
                   W_right: float | None = None) -> tuple[float, float | None]:
    """(mass residual, momentum residual) of a jump; the momentum residual
    is None unless the conserved markers max(w2, W_c) of both sides are
    given."""
    mass = speed * (right.rho - left.rho) - (right.flow - left.flow)
    if W_left is None:
        return mass, None
    yl = left.rho * W_left
    yr = right.rho * W_right
    return mass, speed * (yr - yl) - (yr * right.v - yl * left.v)


def momentum_conserved(laws: ModelLaws, left: TrafficState, right: TrafficState) -> bool:
    """Whether the momentum jump condition holds across a jump: between two
    congested states, or across every front when the free speed is
    constant."""
    return (left.phase is Phase.CONGESTED and right.phase is Phase.CONGESTED) \
        or laws.degenerate_free


def functional_violations(log: FunctionalLog, eps_w: float, first: int = 1) -> list[str]:
    """Violations of the four functional rules on log rows first..end, each
    row compared with the one before it; eps_w is the marker quantum."""
    bad: list[str] = []
    for i in range(first, len(log.ts)):
        t = log.ts[i]
        dtv = log.tv[i] - log.tv[i - 1]
        dtemple = log.temple[i] - log.temple[i - 1]
        if dtv > MONO_TOL:
            bad.append(f"TV increased by {dtv} at t={t}")
        if dtemple > MONO_TOL:
            bad.append(f"wave potential increased by {dtemple} at t={t}")
        if log.waves[i] > log.waves[i - 1] and dtemple > -eps_w + MONO_TOL:
            bad.append(f"wave count grew without paying a quantum "
                       f"(potential changed by {dtemple}) at t={t}")
        dpt = log.phase_transitions[i] - log.phase_transitions[i - 1]
        if dpt > 0 or dpt % 2 != 0:
            bad.append(f"phase-transition count changed by {dpt} at t={t}")
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


def audit_run(res: RunResult) -> list[str]:
    """Post-hoc invariant checks; returns the violations found: those of the
    functional rules, of the initial and final snapshots, then the first
    jump-condition failure, if any."""
    bad = functional_violations(res.log, res.mesh.eps_w)
    bad += snapshot_violations(res.initial) + snapshot_violations(res.final)
    laws = res.laws
    # records share a few thousand state objects: one marker evaluation each
    markers: dict[int, float] = {}

    def marker(u: TrafficState) -> float:
        w = markers.get(id(u))
        if w is None:
            w = markers[id(u)] = laws.marker_W(u)
        return w

    for rec in res.records:
        left, right = rec.left, rec.right
        if momentum_conserved(laws, left, right):
            mass, mom = jump_residuals(rec.speed, left, right, marker(left), marker(right))
        else:
            mass, mom = jump_residuals(rec.speed, left, right)
        if abs(mass) > MONO_TOL:
            bad.append(f"mass jump condition violated ({mass}) on a front born t={rec.t0}")
            break
        if mom is not None and abs(mom) > MONO_TOL:
            bad.append(f"momentum jump condition violated ({mom}) on a front born t={rec.t0}")
            break
    return bad
