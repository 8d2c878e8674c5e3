"""Small numeric helpers: bracketed bisection (the root finder of maps
without a closed-form inverse) and Gauss-Legendre panels."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

BISECT_TOL = 1e-12


def invert_increasing(f: Callable[[float], float], lo: float, hi: float,
                      target: float) -> float:
    """Solve f(x) = target for increasing f on [lo, hi] by bisection.

    Values of `target` at or beyond the bracket endpoints clamp to the
    endpoint, so boundary inverses are exact.  An interior result lies
    within BISECT_TOL of the root.  A pressure with a closed-form inverse is
    not bisected: `ModelLaws.p_inv` returns that inverse.
    """
    if f(lo) >= target:
        return lo
    if f(hi) <= target:
        return hi
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_decreasing(f: Callable[[float], float], lo: float, hi: float,
                      target: float) -> float:
    """Solve f(x) = target for decreasing f on [lo, hi] by bisection: the
    increasing inversion of -f, since negation is exact."""
    return invert_increasing(lambda x: -f(x), lo, hi, -target)


@lru_cache(maxsize=8)
def _leggauss(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def gauss_integrate(f: Callable[[float], float], a: float, b: float,
                    npts: int) -> float:
    """Gauss-Legendre quadrature of f over [a, b] on npts nodes."""
    if b <= a:
        return 0.0
    x, w = _leggauss(npts)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))

