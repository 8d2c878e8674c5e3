"""Wave kinds of the mesh Riemann fans and the mass-conserving jump speed."""

from __future__ import annotations

from enum import Enum

from .errors import EqualDensities
from .model import TrafficState


class WaveKind(Enum):
    SHOCK = "shock"
    CONTACT = "contact"
    RAREFACTION_STEP = "rarefaction-step"  # one discretized fan jump
    PHASE_TRANSITION = "phase-transition"


def sigma(u_l: TrafficState, u_r: TrafficState) -> float:
    """Jump speed from mass conservation.

    Exact special cases keep contacts riding at the common velocity and
    vacuum fronts at the downstream velocity.
    """
    if u_l.rho == u_r.rho:
        raise EqualDensities(f"sigma undefined between {u_l} and {u_r}")
    if u_l.rho == 0.0:
        return u_r.v
    if u_r.rho == 0.0:
        return u_l.v
    if u_l.v == u_r.v:
        return u_l.v
    return (u_r.rho * u_r.v - u_l.rho * u_l.v) / (u_r.rho - u_l.rho)
