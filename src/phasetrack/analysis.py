"""Diagnostics on computed front histories: entropy production per front,
the fan-step entropy deficits, and Green-Gauss weak-form residuals
against smooth test functions.  `rh_residual`, the jump-condition rule,
lives in `invariants` and is re-exported here."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .engine import RunResult
from .errors import OutOfDomain, UnsupportedTestFunction
from .invariants import column_residuals, rh_residual  # rh_residual is re-exported
from .model import ModelLaws, TrafficState
from .numerics import gauss_integrate
from .riemann import WaveKind

# ---------------------------------------------------------------------------
# entropy pairs and production


def lwr_entropy_pair(laws: ModelLaws, u: TrafficState, h: float) -> tuple[float, float]:
    """Classical scalar pair |rho - h| on the free branch."""
    if not (0.0 <= h <= laws.rho_free_max):
        raise OutOfDomain(f"reference density {h} outside [0, {laws.rho_free_max}]")
    s = math.copysign(1.0, u.rho - h) if u.rho != h else 0.0
    return abs(u.rho - h), s * (u.flow - h * laws.v_f(h))


def entropy_k_grid(laws: ModelLaws, eps_v: float) -> list[float]:
    """Multiples of the velocity quantum up to V_c plus the chord-branch probes."""
    n = int(round(laws.V_c / eps_v))
    ks = [i * eps_v for i in range(n)] + [laws.V_c,
                                          0.5 * (laws.V_c + laws.V_f), laws.V_f]
    return ks


@dataclass
class EntropyReport:
    k_grid: list[float]
    # one (t0, t1, x0, kind, k, upsilon) row per history row and k, in order
    records: list[tuple] = field(default_factory=list)
    min_sharp: float = math.inf          # min production over non-fan-step fronts


STEP_PROBES = np.array([[0.25], [0.5], [0.75]])   # interior fractions of a step's speeds


def _pair_columns(laws: ModelLaws, rho: np.ndarray, v: np.ndarray, marker: np.ndarray,
                  k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extended entropy/flux pair (1 - rho / R_k, k - rho v / R_k) of states
    given as (rho, v, marker) columns, at the reference speeds k in [0, V_f],
    rows of the columns' length: exact zeros where v <= k, and elsewhere
    arithmetic on numpy floats, which round as Python's, with
    `ModelLaws.R_k` the marker-level intersection density."""
    on = v > k
    rho, v, k_on = np.broadcast_to(rho, k.shape)[on], np.broadcast_to(v, k.shape)[on], k[on]
    rk = laws.R_k(np.broadcast_to(marker, k.shape)[on], k_on)
    e, q = np.zeros(k.shape), np.zeros(k.shape)
    e[on] = 1.0 - rho / rk
    q[on] = k_on - rho * v / rk
    return e, q


def step_deficit_totals(run: RunResult) -> tuple[float, float]:
    """(lifetime-weighted, unweighted) sums of the fan-step entropy deficits
    over the run's congested discretized-fan jumps; needs no k grid.

    A jump's deficit is its worst one at the interior reference speeds
    between its sides' velocities, at STEP_PROBES (mesh speeds sit exactly
    on the conservation identity and produce nothing), and no less than 0.
    Deficits are evaluated over each chunk's columns by `_pair_columns`;
    the sums run in row order."""
    laws, step = run.laws, WaveKind.RAREFACTION_STEP
    weighted = unweighted = 0.0
    for _, (kind, speed, t0, t1), (rl, vl, cl, wl), (rr, vr, cr, wr) in \
            run.history.sides("kind", "speed", "t0", "t1"):
        pick = np.flatnonzero(np.array([k is step for k in kind]) & cl & cr)
        lo, hi = np.minimum(vl[pick], vr[pick]), np.maximum(vl[pick], vr[pick])
        k = lo + (hi - lo) * STEP_PROBES
        (el, ql), (er, qr) = (_pair_columns(laws, rho[pick], v[pick], w[pick], k)
                              for rho, v, w in ((rl, vl, wl), (rr, vr, wr)))
        deficits = -(speed[pick] * (er - el) - (qr - ql))
        worst = np.zeros(len(pick))
        for d in deficits:
            # max(worst, d) of Python floats: d replaces worst only if larger
            worst = np.where(d > worst, d, worst)
        for d, a, b in zip(worst.tolist(), t0[pick].tolist(), t1[pick].tolist()):
            weighted += d * (b - a)
            unweighted += d
    return weighted, unweighted


def entropy_report(run: RunResult, k_grid: list[float] | None = None) -> EntropyReport:
    """Entropy production speed * (e_r - e_l) - (q_r - q_l) of every history
    row at every k (by default `entropy_k_grid`), with the pair
    `_pair_columns` over each chunk's columns, and its least sharp value.
    Rows run in history order and, within a row, in k_grid order; the least
    sharp value is the one a walk over them in that order keeps."""
    laws = run.laws
    if k_grid is None:
        k_grid = entropy_k_grid(laws, run.mesh.eps_v)
    rep = EntropyReport(k_grid=k_grid)
    add, step = rep.records.extend, WaveKind.RAREFACTION_STEP
    ks = np.array(k_grid, dtype=float)[:, None]
    for _, (t0, t1, x0, speed, kind), (rl, vl, _, wl), (rr, vr, _, wr) in \
            run.history.sides("t0", "t1", "x0", "speed", "kind"):
        k = np.broadcast_to(ks, (len(ks), len(speed)))
        (el, ql), (er, qr) = (_pair_columns(laws, rho, v, w, k)
                              for rho, v, w in ((rl, vl, wl), (rr, vr, wr)))
        production = (speed * (er - el) - (qr - ql)).T.tolist()
        for a, b, x, kd, us in zip(t0.tolist(), t1.tolist(), x0.tolist(), kind, production):
            add(zip(repeat(a), repeat(b), repeat(x), repeat(kd.value), k_grid, us))
            if kd is not step:
                # min of Python floats in walk order: a value replaces the
                # least only if smaller
                rep.min_sharp = min([rep.min_sharp, *us])
    return rep


# ---------------------------------------------------------------------------
# weak-form residuals

GAUSS_NODES = 32    # Gauss-Legendre nodes per panel of a front's path


class BumpTestFunction:
    """Tensor-product smooth bump exp(1 - 1/(1 - s^2)).  Only its values
    are needed: `weak_residual` integrates it along the fronts."""

    def __init__(self, t_center: float, t_radius: float,
                 x_center: float, x_radius: float):
        if t_radius <= 0 or x_radius <= 0:
            raise ValueError("radii must be positive")
        self.t_center, self.t_radius = t_center, t_radius
        self.x_center, self.x_radius = x_center, x_radius

    @staticmethod
    def _b(s: float) -> float:
        if abs(s) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - s * s))

    def __call__(self, t: float, x: float) -> float:
        return self._b((t - self.t_center) / self.t_radius) * \
            self._b((x - self.x_center) / self.x_radius)

    @property
    def t_support(self) -> tuple[float, float]:
        return (self.t_center - self.t_radius, self.t_center + self.t_radius)


def weak_residual(run: RunResult, phi: BumpTestFunction) -> tuple[float, float]:
    """Green-Gauss line-integral residuals of the mass law and of its
    marker-weighted companion, a balance law only across fronts where
    `momentum_conserved` holds (others add their momentum residuals).

    The area integral of rho (phi_t + v phi_x) (and its marker-weighted
    companion) over the run equals the sum over fronts of the jump deficit
    times phi along the front path; both components are returned.  A row
    of the history is one inter-event segment of a front; its lifetime is
    clipped to the bump support and sub-panelled against the bump radius so
    the fixed Gauss rule, GAUSS_NODES nodes per panel, stays resolved.
    """
    t_lo, t_hi = phi.t_support
    if t_lo < 0.0 or t_hi > run.t_end:
        raise UnsupportedTestFunction(
            f"support [{t_lo}, {t_hi}] exceeds the run window [0, {run.t_end}]")
    res_mass = 0.0
    res_mom = 0.0
    for _, (t0, t1, x0, speed), left, right in run.history.sides("t0", "t1", "x0", "speed"):
        dm, dq = column_residuals(speed, left, right)
        pick = np.flatnonzero((np.minimum(t1, t_hi) > np.maximum(t0, t_lo))
                              & ((dm != 0.0) | (dq != 0.0)))
        for r_t0, r_t1, r_x0, s, m, q in zip(*(c[pick].tolist()
                                               for c in (t0, t1, x0, speed, dm, dq))):
            a = max(r_t0, t_lo)
            b = min(r_t1, t_hi)
            panels = min(64, max(1, math.ceil((b - a) / (0.25 * phi.t_radius))))
            w = 0.0
            h = (b - a) / panels
            for j in range(panels):
                w += gauss_integrate(lambda t: phi(t, r_x0 + s * (t - r_t0)),
                                     a + j * h, a + (j + 1) * h, GAUSS_NODES)
            res_mass += float(m * w)
            res_mom += float(q * w)
    return res_mass, res_mom
