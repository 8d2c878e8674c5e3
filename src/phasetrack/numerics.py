"""Small numeric helpers: bracketed bisection, Gauss-Legendre panels,
polyline interpolation."""

from __future__ import annotations

import bisect
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

BISECT_TOL = 1e-12


def invert_increasing(f: Callable[[float], float], lo: float, hi: float,
                      target: float, tol: float = BISECT_TOL) -> float:
    """Solve f(x) = target for increasing f on [lo, hi] by bisection.

    Values of `target` at or beyond the bracket endpoints clamp to the
    endpoint, so boundary inverses are exact.
    """
    if f(lo) >= target:
        return lo
    if f(hi) <= target:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= target:
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
