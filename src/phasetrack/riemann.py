"""Exact Riemann solvers for the free branch, the congested branch, and the
coupled two-phase problem, plus jump speeds and solver consistency checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .errors import EqualDensities, MiddleStateOutOfDomain
from .model import ModelLaws, Phase, TrafficState
from .numerics import invert_increasing, invert_decreasing

NULL_WAVE_TOL = 1e-12
SPEED_TIE_TOL = 1e-14


class WaveKind(Enum):
    SHOCK = "shock"
    CONTACT = "contact"
    RAREFACTION = "rarefaction"            # exact centered fan
    RAREFACTION_STEP = "rarefaction-step"  # one discretized fan jump
    PHASE_TRANSITION = "phase-transition"


@dataclass(slots=True)
class Wave:
    kind: WaveKind
    left: TrafficState
    right: TrafficState
    speed_lo: float
    speed_hi: float
    # for RAREFACTION only: xi in [speed_lo, speed_hi] -> state on the fan
    sampler: Optional[Callable[[float], TrafficState]] = None

    @property
    def speed(self) -> float:
        return self.speed_lo

    def is_fan(self) -> bool:
        return self.kind is WaveKind.RAREFACTION and self.speed_hi > self.speed_lo


@dataclass(slots=True)
class WaveFan:
    left: TrafficState
    right: TrafficState
    waves: list[Wave] = field(default_factory=list)

    def __iter__(self):
        return iter(self.waves)

    def __len__(self):
        return len(self.waves)

    def eval(self, xi: float) -> TrafficState:
        """Self-similar solution value at x/t = xi (right-continuous at jumps)."""
        state = self.left
        for w in self.waves:
            if xi < w.speed_lo:
                return state
            if w.is_fan() and xi < w.speed_hi:
                return w.sampler(xi)
            state = w.right
        return state

    def sample_speeds(self, per_fan: int = 64, pad: float = 1e-6) -> list[float]:
        """Evaluation abscissae: fan interiors plus both sides of every jump."""
        pts: list[float] = []
        for w in self.waves:
            pts.extend((w.speed_lo - pad, w.speed_lo + pad))
            if w.is_fan():
                span = w.speed_hi - w.speed_lo
                pts.extend(w.speed_lo + span * (i + 0.5) / per_fan for i in range(per_fan))
                pts.extend((w.speed_hi - pad, w.speed_hi + pad))
        if not pts:
            pts = [0.0]
        lo, hi = min(pts), max(pts)
        pts.extend((lo - 1.0, hi + 1.0))
        return sorted(pts)


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


def _null(laws: ModelLaws, a: TrafficState, b: TrafficState) -> bool:
    return laws.coord_distance(a, b) < NULL_WAVE_TOL and abs(a.rho - b.rho) < NULL_WAVE_TOL


def solve_lwr(laws: ModelLaws, u_l: TrafficState, u_r: TrafficState) -> WaveFan:
    """Scalar solver on the free branch (concave flux)."""
    fan = WaveFan(u_l, u_r)
    if _null(laws, u_l, u_r):
        return fan
    if u_l.rho < u_r.rho:
        fan.waves.append(Wave(WaveKind.SHOCK, u_l, u_r, *(sigma(u_l, u_r),) * 2))
        return fan
    lo, hi = laws.lambda_free(u_l.rho), laws.lambda_free(u_r.rho)
    if hi - lo <= SPEED_TIE_TOL:
        # linearly degenerate free field: the fan collapses to a contact
        s = sigma(u_l, u_r)
        fan.waves.append(Wave(WaveKind.CONTACT, u_l, u_r, s, s))
        return fan

    def sampler(xi: float, _laws=laws, _ul=u_l, _ur=u_r) -> TrafficState:
        rho = invert_decreasing(_laws.lambda_free, _ur.rho, _ul.rho, xi)
        return TrafficState(rho, _laws.v_free(rho), Phase.FREE)

    fan.waves.append(Wave(WaveKind.RAREFACTION, u_l, u_r, lo, hi, sampler))
    return fan


def _congested_fan_sampler(laws: ModelLaws, w2: float, rho_hi: float, rho_lo: float):
    """States along the genuinely-nonlinear curve of constant marker w2."""
    g = lambda r: laws.p(r) + r * laws.p.deriv(r)

    def sampler(xi: float) -> TrafficState:
        rho = invert_increasing(g, rho_lo, rho_hi, w2 - xi)
        return TrafficState(rho, w2 - laws.p(rho), Phase.CONGESTED)

    return sampler


def solve_arz(laws: ModelLaws, u_l: TrafficState, u_r: TrafficState) -> WaveFan:
    """Congested-branch solver: a 1-wave to the middle state, then a contact."""
    fan = WaveFan(u_l, u_r)
    if _null(laws, u_l, u_r):
        return fan
    w2l = laws.w2(u_l)
    rho_m = laws.p_inv(w2l - u_r.v)
    u_m = TrafficState(rho_m, u_r.v, Phase.CONGESTED)
    if not laws.in_congested_domain(u_m, tol=1e-8):
        raise MiddleStateOutOfDomain(f"middle state {u_m} from {u_l}, {u_r}")
    if not _null(laws, u_l, u_m):
        if u_m.v < u_l.v:
            s = sigma(u_l, u_m)
            fan.waves.append(Wave(WaveKind.SHOCK, u_l, u_m, s, s))
        else:
            lo, hi = laws.lambda1(u_l), laws.lambda1(u_m)
            sampler = _congested_fan_sampler(laws, w2l, u_l.rho, u_m.rho)
            fan.waves.append(Wave(WaveKind.RAREFACTION, u_l, u_m, lo, hi, sampler))
    if not _null(laws, u_m, u_r):
        s = u_r.v
        fan.waves.append(Wave(WaveKind.CONTACT, u_m, u_r, s, s))
    return fan


def solve_coupled(laws: ModelLaws, u_l: TrafficState, u_r: TrafficState) -> WaveFan:
    """Two-phase solver: delegates within a phase, otherwise inserts the
    single admissible phase transition."""
    lf, rf = u_l.phase is Phase.FREE, u_r.phase is Phase.FREE
    if lf and rf:
        return solve_lwr(laws, u_l, u_r)
    if not lf and not rf:
        return solve_arz(laws, u_l, u_r)

    fan = WaveFan(u_l, u_r)
    if lf:
        # free -> congested
        if u_l.rho == 0.0:
            s = u_r.v
            fan.waves.append(Wave(WaveKind.PHASE_TRANSITION, u_l, u_r, s, s))
            return fan
        w2m = max(laws.W_c, laws.w2(u_l))
        u_m = TrafficState(laws.p_inv(w2m - u_r.v), u_r.v, Phase.CONGESTED)
        s = sigma(u_l, u_m)
        fan.waves.append(Wave(WaveKind.PHASE_TRANSITION, u_l, u_m, s, s))
        tail = solve_arz(laws, u_m, u_r)
        fan.waves.extend(tail.waves)
        return fan

    # congested -> free
    w2l = laws.w2(u_l)
    u_m1 = TrafficState(laws.p_inv(w2l - laws.V_c), laws.V_c, Phase.CONGESTED)
    head = solve_arz(laws, u_l, u_m1)
    fan.waves.extend(head.waves)
    rho_m2 = laws.rho_f(w2l)
    u_m2 = TrafficState(rho_m2, laws.v_free(rho_m2), Phase.FREE)
    s = sigma(u_m1, u_m2)
    fan.waves.append(Wave(WaveKind.PHASE_TRANSITION, u_m1, u_m2, s, s))
    tail = solve_lwr(laws, u_m2, u_r)
    fan.waves.extend(tail.waves)
    return fan


def check_consistency(laws: ModelLaws, u_l: TrafficState, u_m: TrafficState,
                      u_r: TrafficState, xbar: float, per_fan: int = 64,
                      tol: float = 1e-9):
    """Sampled verification of the two gluing implications of the solver.

    Returns (ok, witness); witness is a (which, xi) pair on failure.
    """
    def eq(a: TrafficState, b: TrafficState) -> bool:
        return laws.coord_distance(a, b) <= tol and abs(a.rho - b.rho) <= math.sqrt(tol)

    fan_lr = solve_coupled(laws, u_l, u_r)
    fan_lm = solve_coupled(laws, u_l, u_m)
    fan_mr = solve_coupled(laws, u_m, u_r)
    xis = sorted(set(fan_lr.sample_speeds(per_fan) + fan_lm.sample_speeds(per_fan)
                     + fan_mr.sample_speeds(per_fan)))
    pad = 1e-6
    xis = [x for x in xis if abs(x - xbar) > pad]
    at_lr = [fan_lr.eval(xi) for xi in xis]
    at_lm = [fan_lm.eval(xi) for xi in xis]
    at_mr = [fan_mr.eval(xi) for xi in xis]

    # implication (I)
    if eq(fan_lr.eval(xbar), u_m):
        for xi, v_lr, v_lm, v_mr in zip(xis, at_lr, at_lm, at_mr):
            want = v_lr if xi <= xbar else u_m
            if not eq(v_lm, want):
                return False, ("I-left", xi)
            want = u_m if xi < xbar else v_lr
            if not eq(v_mr, want):
                return False, ("I-right", xi)

    # implication (II)
    if eq(fan_lm.eval(xbar), u_m) and eq(fan_mr.eval(xbar), u_m):
        for xi, v_lr, v_lm, v_mr in zip(xis, at_lr, at_lm, at_mr):
            want = v_lm if xi < xbar else v_mr
            if not eq(v_lr, want):
                return False, ("II", xi)

    return True, None
