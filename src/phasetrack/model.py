"""Speed/pressure laws, state space, Riemann-invariant coordinates.

The state space is the union of a free-flow branch (velocity a function of
density) and a congested branch (velocity and density independent, with the
Lagrangian marker v + p(rho) confined to a band).  All derived constants are
computed and checked at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .errors import HypothesisViolation, OrderingViolation, OutOfDomain
from .numerics import invert_decreasing, invert_increasing

STATE_TOL = 1e-10       # coordinate-space tolerance for state equality
_GRACE = 1e-12          # slack for sign checks on sampled inequalities
_N_SAMPLES = 2048       # interior sample count per validation interval


class Phase(Enum):
    FREE = "free"
    CONGESTED = "congested"


@dataclass(frozen=True, slots=True)
class TrafficState:
    rho: float
    v: float
    phase: Phase

    @property
    def flow(self) -> float:
        return self.rho * self.v

    def __repr__(self) -> str:  # compact, phase-tagged
        tag = "F" if self.phase is Phase.FREE else "C"
        return f"({self.rho:.6g},{self.v:.6g}|{tag})"


class LinearFreeSpeed:
    """v(rho) = v_max (1 - rho / R); R = inf gives a constant free speed.

    Evaluates scalars and numpy arrays alike (a constant speed returns the
    scalar, which broadcasts)."""

    def __init__(self, v_max: float, R: float = 1.0):
        if v_max <= 0 or R <= 0:
            raise ValueError("v_max and R must be positive")
        self.v_max = float(v_max)
        self.R = float(R)

    def __call__(self, rho: float) -> float:
        if math.isinf(self.R):
            return self.v_max
        return self.v_max * (1.0 - rho / self.R)

    def deriv(self, rho: float) -> float:
        return 0.0 if math.isinf(self.R) else -self.v_max / self.R

    def deriv2(self, rho: float) -> float:
        return 0.0

    def inv(self, v: float) -> float:
        """Closed-form inverse: the density of speed v.  A constant speed is
        v_max at density 0 and no lower speed is reached: 0 at or above
        v_max, inf below it."""
        if math.isinf(self.R):
            return 0.0 if v >= self.v_max else math.inf
        return (self.v_max - v) / self.v_max * self.R


class PowerPressure:
    """p(rho) = (v_ref / gamma) (rho / rho_max)^gamma, or the log law at gamma = 0.

    With v_ref = gamma and rho_max = 1 this reduces to p(rho) = rho^gamma.
    Evaluates scalars and numpy arrays alike.
    """

    def __init__(self, gamma: float, v_ref: float | None = None, rho_max: float = 1.0):
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        if rho_max <= 0:
            raise ValueError("rho_max must be positive")
        self.gamma = float(gamma)
        self.rho_max = float(rho_max)
        if v_ref is None:
            v_ref = gamma if gamma > 0 else 1.0
        if v_ref <= 0:
            raise ValueError("v_ref must be positive")
        self.v_ref = float(v_ref)

    def __call__(self, rho: float) -> float:
        g = self.gamma
        if g == 0.0:
            log = np.log if isinstance(rho, np.ndarray) else math.log
            return self.v_ref * log(rho / self.rho_max)
        return (self.v_ref / g) * (rho / self.rho_max) ** g

    def deriv(self, rho: float) -> float:
        g = self.gamma
        if g == 0.0:
            return self.v_ref / rho
        return (self.v_ref / self.rho_max) * (rho / self.rho_max) ** (g - 1.0)

    def deriv2(self, rho: float) -> float:
        g = self.gamma
        if g == 0.0:
            return -self.v_ref / rho ** 2
        return (g - 1.0) * (self.v_ref / self.rho_max ** 2) * (rho / self.rho_max) ** (g - 2.0)

    def inv(self, y: float) -> float:
        """Closed-form inverse; 0 below the range of a power law.

        `ModelLaws.p_inv` and the traffic-light reference take it as the
        answer: it is within a few ulps of the exact root, where a
        bisection stops at its tolerance.
        """
        g = self.gamma
        if g == 0.0:
            return self.rho_max * math.exp(y / self.v_ref)
        if y <= 0.0:
            return 0.0
        return self.rho_max * (g * y / self.v_ref) ** (1.0 / g)


def _sample_points(lo: float, hi: float) -> np.ndarray:
    """lo, n = _N_SAMPLES interior points lo + i (hi - lo) / (n + 1), and hi."""
    if hi <= lo:
        return np.array([lo])
    step = (hi - lo) / (_N_SAMPLES + 1)
    return np.concatenate(([lo], lo + np.arange(1, _N_SAMPLES + 1) * step, [hi]))


def _raise_first(which: str, r: np.ndarray, checks) -> None:
    """Raise HypothesisViolation at the lowest sample r[i] failing one of
    `checks`, (failed mask, detail) pairs, naming the first that fails there."""
    failed = [np.broadcast_to(mask, r.shape) for mask, _ in checks]
    bad = np.logical_or.reduce(failed)
    if bad.any():
        i = int(np.argmax(bad))
        detail = next(d for mask, (_, d) in zip(failed, checks) if mask[i])
        raise HypothesisViolation(which, float(r[i]), detail)


def _quadratic_free_line(a: float, b: float, v_max: float, w: float) -> float:
    """The larger root of a rho^2 - b rho + (v_max - w) = 0, b > 0: the
    free line of a linear speed and the quadratic pressure.  b is added to
    the square root, so nothing cancels."""
    return (b + math.sqrt(max(b * b + 4.0 * a * (w - v_max), 0.0))) / (2.0 * a)


def _shifted_inverse(inv: Callable[[float], float], v_max: float, w: float) -> float:
    """inv(w - v_max): the free line of a constant speed v_max."""
    return inv(w - v_max)


def _free_line_closed_form(v_f, p) -> Callable[[float], float] | None:
    """w -> the root of v_f(rho) + p(rho) = w, for the laws where it has a
    closed form: a constant free speed (the pressure's inverse at w - V_f)
    and a linear one with the quadratic pressure.  None for any other."""
    if not (isinstance(v_f, LinearFreeSpeed) and isinstance(p, PowerPressure)):
        return None
    if math.isinf(v_f.R):
        return partial(_shifted_inverse, p.inv, v_f.v_max)
    if p.gamma != 2.0:
        return None
    return partial(_quadratic_free_line, p.v_ref / (2.0 * p.rho_max * p.rho_max),
                   v_f.v_max / v_f.R, v_f.v_max)


class ModelLaws:
    """Validated pair of laws plus every derived constant.

    Immutable after construction; all methods are pure, so instances can be
    shared freely across threads.
    """

    def __init__(self, v_f, p, rho_free_crit: float, rho_free_max: float, v_crit: float):
        if not (0.0 < rho_free_crit < rho_free_max):
            raise OrderingViolation(
                f"need 0 < R_f'={rho_free_crit} < R_f''={rho_free_max}")
        self.v_f = v_f
        self.p = p
        self._p_closed_inv = getattr(p, "inv", None)    # a closed-form inverse, if the law has one
        self._v_f_closed_inv = getattr(v_f, "inv", None)
        self._free_line_inv = _free_line_closed_form(v_f, p)
        self.rho_free_crit = float(rho_free_crit)   # R_f'
        self.rho_free_max = float(rho_free_max)     # R_f''

        self.V_max = v_f(0.0)
        self.V_f = v_f(self.rho_free_max)
        self.W_max = p(self.rho_free_max) + self.V_f
        self.W_c = p(self.rho_free_crit) + v_f(self.rho_free_crit)
        self.W_min = self.W_c + v_f(self.rho_free_crit) - self.V_max
        self.V_c = float(v_crit)
        self._p_crit = p(self.rho_free_crit)         # bottom of p_inv's domain

        self._validate_h1()
        # H2 is checked twice: a pre-check near the free band (so degenerate
        # pressures fail loudly), then the full sweep once R_max is known
        self._validate_h2(self.rho_free_crit, 2.0 * self.rho_free_max)
        self.R_max = self._p_inv_raw(self.W_max)
        self.R_c = self._p_inv_band(self.W_c)
        self._validate_h2(self.rho_free_crit, self.R_max)
        self._validate_h3()
        self._validate_orderings()

        # vacuum-excluded lower bound of the congested densities
        self.rho_congested_min = self.p_inv(self.W_c - self.V_c)

    # -- validation ---------------------------------------------------------

    def _validate_h1(self) -> None:
        vf = self.v_f
        if vf(self.rho_free_max) <= 0:
            raise HypothesisViolation("H1", self.rho_free_max, "v_f(R_f'') <= 0")
        r = _sample_points(0.0, self.rho_free_max)
        d1, d2 = vf.deriv(r), vf.deriv2(r)
        _raise_first("H1", r, [(d1 > _GRACE, "v_f' > 0"),
                               (vf(r) + r * d1 <= _GRACE, "v_f + rho v_f' <= 0"),
                               (2.0 * d1 + r * d2 > _GRACE, "2 v_f' + rho v_f'' > 0")])

    def _validate_h2(self, lo: float, hi: float) -> None:
        r = _sample_points(lo, hi)
        d1 = self.p.deriv(r)
        _raise_first("H2", r, [(d1 <= _GRACE, "p' <= 0"),
                               (2.0 * d1 + r * self.p.deriv2(r) <= _GRACE,
                                "2 p' + rho p'' <= 0")])

    def _validate_h3(self) -> None:
        r = _sample_points(self.rho_free_crit, self.rho_free_max)
        dp = self.p.deriv(r)
        _raise_first("H3", r, [(self.v_f.deriv(r) + dp <= _GRACE, "v_f + p not increasing"),
                               (self.v_f(r) >= r * dp - _GRACE, "v_f >= rho p'")])

    def _validate_orderings(self) -> None:
        if not (0.0 < self.V_c < self.V_f):
            raise OrderingViolation(f"need 0 < V_c={self.V_c} < V_f={self.V_f}")
        if self.V_f > self.V_max + _GRACE:
            raise OrderingViolation("V_f > V_max")
        if not (self.R_max > self.rho_free_max):
            raise OrderingViolation("R_max <= R_f''")
        if not (self.R_c > self.rho_free_crit):
            raise OrderingViolation("R_c <= R_f'")
        if not (self.W_max > self.W_c):
            raise OrderingViolation("W_max <= W_c")
        # W_c == W_min exactly when the free speed is constant (V_max == V_f)
        if self.W_c < self.W_min - _GRACE:
            raise OrderingViolation("W_c < W_min")
        if self.W_c <= self.W_min and not self.degenerate_free:
            raise OrderingViolation("W_c <= W_min with a non-constant free speed")

    # -- elementary maps ----------------------------------------------------

    @property
    def degenerate_free(self) -> bool:
        """True when the free speed is constant (the free field degenerates)."""
        return abs(self.V_max - self.V_f) <= _GRACE

    def v_free(self, rho: float) -> float:
        return self.v_f(rho)

    def _p_inv_raw(self, y: float) -> float:
        """p^-1(y) on [R_f', inf): the law's closed form when it has one,
        else a bisection over a doubling bracket.  It finds R_max, the top
        of the bracket `_p_inv_band` bisects over."""
        lo = self.rho_free_crit
        if self._p_closed_inv is not None:
            return max(self._p_closed_inv(y), lo)
        hi = max(2.0 * self.rho_free_max, 2.0 * lo)
        while self.p(hi) < y:
            hi *= 2.0
            if hi > 1e12:
                raise HypothesisViolation("H2", hi, f"p never reaches {y}")
        return invert_increasing(self.p, lo, hi, y)

    def _p_inv_band(self, y: float) -> float:
        """p^-1(y) clamped to [R_f', R_max]: the law's closed form when it
        has one, else a bisection over [R_f', R_max], with y >= W_max read
        as R_max itself."""
        if self._p_closed_inv is not None:
            return min(max(self._p_closed_inv(y), self.rho_free_crit), self.R_max)
        if y >= self.W_max:
            return self.R_max
        return invert_increasing(self.p, self.rho_free_crit, self.R_max, y)

    def p_inv(self, y: float) -> float:
        """Inverse pressure on [p(R_f'), W_max], clamped to [R_f', R_max].

        With one inverse per law, `_p_inv_band`, which also gives R_c,
        p_inv(W_max) is R_max and p_inv(W_c) is R_c bit for bit."""
        if y < self._p_crit - STATE_TOL or y > self.W_max + STATE_TOL:
            raise OutOfDomain(f"p_inv({y}) outside [{self._p_crit}, {self.W_max}]")
        return self._p_inv_band(y)

    def v_f_inv(self, v: float) -> float:
        """Inverse of v_f on [0, R_f'] (used by the low-density marker
        branch): the law's closed form when it has one, clamped, else a
        bisection."""
        if self._v_f_closed_inv is not None:
            return min(max(self._v_f_closed_inv(v), 0.0), self.rho_free_crit)
        return invert_decreasing(self.v_f, 0.0, self.rho_free_crit, v)

    def rho_f(self, w: float) -> float:
        """Density at which the free flow curve meets rho (w - p(rho)).

        Unique in [R_f', R_f''] for w in [W_c, W_max]; the intersection lies on
        the decreasing side of the congested flow (capacity drop).  W_c and
        W_max give R_f' and R_f'' exactly; in between, the closed form of
        the laws when they have one (clamped), else a bisection.
        """
        if w < self.W_c - STATE_TOL or w > self.W_max + STATE_TOL:
            raise OutOfDomain(f"rho_f({w}) outside [{self.W_c}, {self.W_max}]")
        lo, hi = self.rho_free_crit, self.rho_free_max
        if self._free_line_inv is None:
            rho = invert_increasing(lambda r: self.v_f(r) + self.p(r), lo, hi, w)
        elif w <= self.W_c:
            rho = lo
        elif w >= self.W_max:
            rho = hi
        else:
            rho = min(max(self._free_line_inv(w), lo), hi)
        # decreasing-slope side of rho [w - p(rho)]:
        if not w - self.p(rho) - rho * self.p.deriv(rho) < 0.0:
            raise HypothesisViolation("H3", rho, "free line on the rising side of rho (w - p)")
        return rho

    def free_rho_from_marker(self, w2: float) -> float:
        """Free-phase density with the given extended marker value."""
        if w2 > self.W_max + STATE_TOL or w2 < self.W_min - STATE_TOL:
            raise OutOfDomain(f"free marker {w2} outside [{self.W_min}, {self.W_max}]")
        if w2 >= self.W_c:
            return self.rho_f(min(w2, self.W_max))
        # below W_c:  w2 = W_c + v_f(R_f') - v_f(rho)
        return self.v_f_inv(self.W_c + self.v_f(self.rho_free_crit) - w2)

    # -- characteristic speeds ----------------------------------------------

    def lambda_free(self, rho: float) -> float:
        return self.v_f(rho) + rho * self.v_f.deriv(rho)

    def lambda1(self, u: TrafficState) -> float:
        return u.v - u.rho * self.p.deriv(u.rho)

    # -- coordinates ---------------------------------------------------------

    def w1(self, u: TrafficState) -> float:
        return self.V_f if u.phase is Phase.FREE else u.v

    def w2(self, u: TrafficState) -> float:
        if u.phase is Phase.CONGESTED:
            return u.v + self.p(u.rho)
        if u.rho >= self.rho_free_crit:
            return self.v_f(u.rho) + self.p(u.rho)
        # below the critical density the pressure is undefined; the marker
        # continues along the free-speed deficit instead
        return self.W_c + self.v_f(self.rho_free_crit) - self.v_f(u.rho)

    def coord_distance(self, a: TrafficState, b: TrafficState) -> float:
        return abs(self.w1(a) - self.w1(b)) + abs(self.w2(a) - self.w2(b))

    def states_equal(self, a: TrafficState, b: TrafficState, tol: float = STATE_TOL) -> bool:
        return self.coord_distance(a, b) <= tol and abs(a.rho - b.rho) <= tol

    # -- domain membership ---------------------------------------------------

    def in_free_domain(self, u: TrafficState, tol: float = STATE_TOL) -> bool:
        if u.phase is not Phase.FREE:
            return False
        return (-tol <= u.rho <= self.rho_free_max + tol
                and abs(u.v - self.v_f(u.rho)) <= tol)

    def in_congested_domain(self, u: TrafficState, tol: float = STATE_TOL) -> bool:
        if u.phase is not Phase.CONGESTED:
            return False
        w2 = u.v + self.p(u.rho)
        return (-tol <= u.v <= self.V_c + tol
                and self.W_c - tol <= w2 <= self.W_max + tol)

    def contains(self, u: TrafficState, tol: float = STATE_TOL) -> bool:
        return self.in_free_domain(u, tol) or self.in_congested_domain(u, tol)

    # -- entropy auxiliaries --------------------------------------------------

    def marker_W(self, u: TrafficState) -> float:
        """max(w2, W_c): the conserved marker, continuous on the whole domain."""
        return max(self.w2(u), self.W_c)

    def R_k(self, w: float, k: float) -> float:
        """Abscissa where the line f = rho k meets the extended flow curve of
        marker level w, over scalars (a float back) and numpy arrays alike.

        For k up to the congested ceiling V_c this is the pressure inverse
        p_inv(w - k); above it, the intersection lies on the chord joining
        the congested ceiling state p_inv(w - V_c) to the free state
        p_inv(w - V_f) of the same marker.  Every element meets the domain
        checks of R_k and p_inv, and the law's scalar inverse, mapped over
        the elements and clamped to [R_f', R_max], as p_inv clamps it.

        The scalar inverse is mapped because numpy's rounds differently:
        np.power, ** and np.sqrt differ from Python's ** on 863 of 10^6
        inputs in [0.001, 0.3] at exponent 0.5, and on 50,025 of 10^6 at
        exponent 1/3 (numpy 2.4.6, Python 3.11.7, x86_64 with AVX-512).
        A law without a closed form maps `_p_inv_band`, which the clamp
        leaves as it is.
        """
        scalar = np.ndim(w) == np.ndim(k) == 0
        w, k = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(k, dtype=float))
        bad = (w < self.W_c - STATE_TOL) | (w > self.W_max + STATE_TOL)
        if bad.any():
            raise OutOfDomain(f"R_k marker {w[bad][0]} outside [{self.W_c}, {self.W_max}]")
        bad = (k < -STATE_TOL) | (k > self.V_f + STATE_TOL)
        if bad.any():
            raise OutOfDomain(f"R_k speed {k[bad][0]} outside [0, {self.V_f}]")
        chord = k > self.V_c
        # p_inv at w - k below the ceiling and at the chord's free end w - V_f
        # above it, then at the chord's ceiling end w - V_c
        y = np.concatenate((np.where(chord, w - self.V_f, w - k).ravel(),
                            w[chord] - self.V_c))
        bad = (y < self._p_crit - STATE_TOL) | (y > self.W_max + STATE_TOL)
        if bad.any():
            raise OutOfDomain(f"p_inv({y[bad][0]}) outside [{self._p_crit}, {self.W_max}]")
        inv = self._p_closed_inv or self._p_inv_band
        rho = np.array([inv(x) for x in y.tolist()], dtype=float)
        rho = np.minimum(np.maximum(rho, self.rho_free_crit), self.R_max)
        rho, rho_lo = rho[:w.size].reshape(w.shape), rho[w.size:]
        if rho_lo.size:
            rho_hi = rho[chord]
            s = (rho_lo * self.V_c - rho_hi * self.V_f) / (rho_lo - rho_hi)
            rho[chord] = (self.V_f - s) / (k[chord] - s) * rho_hi
        return float(rho) if scalar else rho

    def vacuum(self) -> TrafficState:
        return TrafficState(0.0, self.V_max, Phase.FREE)


def validate_laws(v_f, p, rho_free_crit: float, rho_free_max: float,
                  v_crit: float) -> ModelLaws:
    """Build laws, checking the structural hypotheses by dense sampling."""
    return ModelLaws(v_f, p, rho_free_crit, rho_free_max, v_crit)


def _solve_marker_density(v_f, p, w: float, rho_hint_hi: float) -> float:
    """Rightmost root of v_f(rho) + p(rho) = w; used to derive R_f' / R_f''
    from marker levels before laws exist."""
    f = lambda r: v_f(r) + p(r)
    n = 4096
    lo_edge = rho_hint_hi * 1e-9
    hi = rho_hint_hi
    while f(hi) < w:
        hi *= 2.0
        if hi > 1e9:
            raise OutOfDomain(f"v_f + p never reaches {w}")
    # the last upward crossing, on one array evaluation of the scan points
    xs = lo_edge + (hi - lo_edge) * np.arange(n + 1) / n
    vs, ps = v_f(xs), p(xs)
    fs = vs + ps
    # numpy's pow and log may round differently from the scalar ones; the
    # points that close to w take the scalar value, so the bracket is the
    # one a scalar scan picks
    near = np.flatnonzero(np.abs(fs - w) <= 1e-12 * (np.abs(vs) + np.abs(ps)))
    fs[near] = [f(x) for x in xs[near].tolist()]
    up = np.flatnonzero((fs[:-1] <= w) & (w <= fs[1:]))
    if not up.size:
        raise OutOfDomain(f"no upward crossing of v_f + p = {w}")
    i = int(up[-1])
    return invert_increasing(f, float(xs[i]), float(xs[i + 1]), w)


# the keys of the [model] config block, lowercase as configparser gives them
MODEL_KEYS = ("family", "v_max", "r", "gamma", "v_ref", "rho_max",
              "r_f_prime", "w_c", "r_f_second", "w_max", "v_c")


def laws_from_config(cfg: dict) -> ModelLaws:
    """Build laws from a flat mapping (the [model] config block).

    Keys, of MODEL_KEYS only: family (linear), v_max, r (default inf), gamma
    (2), v_ref, rho_max (1), v_c, and each free-band edge once: r_f_prime or
    its marker w_c, r_f_second or its marker w_max.
    """
    for key in cfg:
        if key not in MODEL_KEYS:
            raise ValueError(f"unknown [model] key {key!r}")
    family = str(cfg.get("family", "linear")).lower()
    if family != "linear":
        raise ValueError(f"unknown speed family {family!r}; build other laws with "
                         f"validate_laws from objects whose __call__, deriv and deriv2 take "
                         f"floats and numpy arrays, with an optional closed-form inverse inv")
    if "v_max" not in cfg or "v_c" not in cfg:
        raise ValueError("[model] needs V_max and V_c")
    R = float(cfg.get("r", math.inf))
    v_f = LinearFreeSpeed(float(cfg["v_max"]), R)
    p = PowerPressure(float(cfg.get("gamma", 2.0)),
                      cfg.get("v_ref") and float(cfg["v_ref"]),
                      float(cfg.get("rho_max", 1.0)))

    def edge(rho_key: str, w_key: str) -> float:
        if rho_key in cfg and w_key in cfg:
            raise ValueError(f"[model] keys {rho_key!r} and {w_key!r} set the same "
                             f"free-band edge: give one of them")
        if rho_key in cfg:
            return float(cfg[rho_key])
        if w_key in cfg:
            return _solve_marker_density(v_f, p, float(cfg[w_key]),
                                         1.0 if math.isinf(R) else R / 2.0)
        raise ValueError(f"[model] needs {rho_key!r} or {w_key!r}")

    return validate_laws(v_f, p, edge("r_f_prime", "w_c"), edge("r_f_second", "w_max"),
                         float(cfg["v_c"]))
