"""Small numeric helpers: bracketed bisection (optionally guided by a guess
of the root, as `ModelLaws.p_inv` guides it by the pressure's closed-form
inverse), Gauss-Legendre panels, polyline interpolation."""

from __future__ import annotations

import bisect
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

BISECT_TOL = 1e-12
GUIDE_DELTA = 1e-9      # half-width of the window placed around a guess
GUIDE_EPS = 1e-12       # margin of the window's values, relative to max(1, |target|)


def guide_window(f: Callable[[float], float], lo: float, hi: float,
                 target: float, guess: float | None) -> tuple[float, float] | None:
    """A window (a, b) = (guess - GUIDE_DELTA, guess + GUIDE_DELTA) inside
    (lo, hi) with f(a) < target - eps and f(b) > target + eps, or None.

    For increasing f a bisection may then decide every midpoint at or left
    of a as below the target, and every one at or right of b as above it,
    without evaluating f there: see `invert_increasing`.
    """
    if guess is None:
        return None
    a, b = guess - GUIDE_DELTA, guess + GUIDE_DELTA
    if not (lo < a and b < hi):     # also rejects a nan guess
        return None
    eps = GUIDE_EPS * max(1.0, abs(target))
    if f(a) < target - eps and f(b) > target + eps:
        return a, b
    return None


def invert_increasing(f: Callable[[float], float], lo: float, hi: float,
                      target: float, tol: float = BISECT_TOL,
                      guess: float | None = None) -> float:
    """Solve f(x) = target for increasing f on [lo, hi] by bisection.

    Values of `target` at or beyond the bracket endpoints clamp to the
    endpoint, so boundary inverses are exact.

    An optional `guess` of the root only saves evaluations: the result has
    the bits of the bisection without it.  When `guide_window` accepts the
    guess, midpoints outside its window (a, b) are decided without calling
    f, and the endpoint clamps cannot apply.  That decision is the one the
    plain bisection takes if the computed f is increasing up to a rounding
    error e with 2e < eps: for mid <= a, f(mid) <= f(a) + 2e < target, and
    for mid >= b, f(mid) >= f(b) - 2e > target.  The functions guided here
    (the pressure laws) take a few float operations on values below 100 in
    magnitude, so e is a few ulps of 100, below 1e-13, while eps is at
    least GUIDE_EPS = 1e-12.  A guess whose window fails the test costs at
    most two evaluations and leaves the plain bisection.
    """
    window = guide_window(f, lo, hi, target, guess)
    if window is None:
        if f(lo) >= target:
            return lo
        if f(hi) <= target:
            return hi
        a, b = lo, hi           # f(lo) < target < f(hi) is known
    else:
        a, b = window
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and f(mid) <= target):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_decreasing(f: Callable[[float], float], lo: float, hi: float,
                      target: float, tol: float = BISECT_TOL) -> float:
    """Solve f(x) = target for decreasing f on [lo, hi] by bisection: the
    increasing inversion of -f, since negation is exact."""
    return invert_increasing(lambda x: -f(x), lo, hi, -target, tol)


@lru_cache(maxsize=8)
def _leggauss(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def gauss_integrate(f: Callable[[float], float], a: float, b: float,
                    npts: int = 32) -> float:
    """Gauss-Legendre quadrature of f over [a, b]."""
    if b <= a:
        return 0.0
    x, w = _leggauss(npts)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))


def interp_polyline(ts: Sequence[float], xs: Sequence[float], t: float) -> float:
    """Linear interpolation on a monotone polyline, clamped at the ends."""
    if t <= ts[0]:
        return xs[0]
    if t >= ts[-1]:
        return xs[-1]
    i = bisect.bisect_right(ts, t) - 1
    f = (t - ts[i]) / (ts[i + 1] - ts[i])
    return xs[i] + f * (xs[i + 1] - xs[i])
