"""Guided root solves return the bits of the plain bisection.

A guess only lets `invert_increasing` (and `_Curves.project`) skip
evaluations; every result here is compared bit for bit against the plain
bisections of `references`.
"""

import math
import random
import struct

import pytest

import phasetrack as pt
from phasetrack.numerics import GUIDE_DELTA, guide_window, invert_increasing
from phasetrack.scenario import ExactSolution, _Curves

from references import plain_invert_increasing, project_by_ray_pos

GAMMAS = (0.0, 0.5, 1.0, 2.0, 3.0)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class Counted:
    """f with a count of its evaluations."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def _check_pressure(p, lo, hi, targets):
    """Guided and plain inversions of p agree bit for bit; returns the
    evaluation counts of the guided solves."""
    counts = []
    for y in targets:
        f = Counted(p)
        got = invert_increasing(f, lo, hi, y, guess=p.inv(y))
        assert bits(got) == bits(plain_invert_increasing(p, lo, hi, y)), (p.gamma, y)
        counts.append(f.calls)
    return counts


@pytest.mark.parametrize("gamma", GAMMAS)
def test_power_pressure_guided_inverse_is_bit_identical(gamma):
    p = pt.PowerPressure(gamma, rho_max=1.7)
    lo, hi = 0.21, 2.9
    y_lo, y_hi = p(lo), p(hi)
    rng = random.Random(int(10 * gamma) + 1)
    interior = [rng.uniform(y_lo, y_hi) for _ in range(400)]
    counts = _check_pressure(p, lo, hi, interior)
    # the guess does its work: most solves evaluate p far fewer times
    # than the ~42 steps of the plain bisection over [lo, hi]
    assert sorted(counts)[len(counts) // 2] <= 16, counts
    span = y_hi - y_lo
    edges = [y_lo, y_hi, y_lo - 1e-3 * span, y_hi + 1e-3 * span,
             y_lo + 1e-14, y_hi - 1e-14, math.nextafter(y_lo, -math.inf),
             math.nextafter(y_hi, math.inf), p(lo + GUIDE_DELTA), p(hi - GUIDE_DELTA)]
    _check_pressure(p, lo, hi, edges)


def test_power_pressure_inv_inverts():
    for gamma in GAMMAS:
        p = pt.PowerPressure(gamma, v_ref=0.8, rho_max=1.7)
        for r in (0.05, 0.3, 1.0, 1.7, 2.5):
            assert p.inv(p(r)) == pytest.approx(r, rel=1e-13)
        if gamma > 0.0:
            assert p.inv(0.0) == 0.0 and p.inv(-1.0) == 0.0


def test_p_inv_is_bit_identical(laws, flat_laws):
    rng = random.Random(3)
    for lw in (laws, flat_laws):
        lo, hi = lw.p(lw.rho_free_crit), lw.W_max
        ys = [rng.uniform(lo, hi) for _ in range(500)] + [lo, hi, lo - 1e-11, hi + 1e-11]
        for y in ys:
            ref = plain_invert_increasing(lw.p, lw.rho_free_crit, lw.R_max, y)
            assert bits(lw.p_inv(y)) == bits(ref), y


def _log_law_markers():
    # the log law p = log(rho) (gamma = 0) with the free band [0.3, 0.35]
    v_f = pt.LinearFreeSpeed(0.05, 1.0)
    return dict(gamma=0.0, w_c=v_f(0.3) + math.log(0.3), w_max=v_f(0.35) + math.log(0.35))


@pytest.fixture(scope="module", params=[{}, {"gamma": 3.0}, _log_law_markers()],
                ids=["default", "gamma3", "log-law"])
def exact(request):
    return ExactSolution(pt.TrafficLightConfig(**request.param))


@pytest.fixture()
def accepted(monkeypatch):
    """Whether each guided solve's window was accepted."""
    seen = []

    def recorded(*args):
        window = guide_window(*args)
        if args[-1] is not None:
            seen.append(window is not None)
        return window

    monkeypatch.setattr("phasetrack.numerics.guide_window", recorded)
    monkeypatch.setattr("phasetrack.scenario.guide_window", recorded)
    return seen


def test_project_is_bit_identical(exact, accepted):
    cur = exact.curves
    rng = random.Random(11)
    interior = 0
    for _ in range(3000):
        t = rng.uniform(cur.t_a2, 2.0 * cur.t_b1)
        first, last = cur.ray_pos(cur.t_a2, t), cur.ray_pos(cur.t_b2, t)
        x = rng.uniform(min(first, last) - 0.1, max(first, last) + 0.1)
        got = cur.project(t, x)
        assert bits(got) == bits(project_by_ray_pos(cur, t, x)), (t, x)
        interior += cur.t_a2 < got < cur.t_b2
    # most unclamped solves reach one segment and take its guess
    assert sum(accepted) > 0.9 * interior > 900, (sum(accepted), interior)


def test_fan_states_are_bit_identical(exact, accepted):
    cur, laws = exact.curves, exact.laws
    g = cur._fan_g
    lam_free = lambda r: -laws.lambda_free(r)
    rng = random.Random(12)
    xis = [rng.uniform(cur.lam_rmax, cur.xi_b) for _ in range(1000)]
    for xi in xis + [cur.lam_rmax, cur.xi_b, cur.lam_rmax - 0.01, cur.xi_b + 0.01]:
        ref = plain_invert_increasing(g, laws.rho_free_crit, laws.R_max, laws.W_max - xi)
        assert bits(cur.fan_state(xi).rho) == bits(ref), xi
    xis = [rng.uniform(exact.lam_f2, laws.V_max) for _ in range(1000)]
    for xi in xis + [exact.lam_f2, laws.V_max]:
        ref = plain_invert_increasing(lam_free, 0.0, laws.rho_free_max, -xi)
        assert bits(exact._free_fan_state(xi).rho) == bits(ref), xi
    # the closed forms guide all but the solves at or near the clamps
    assert sum(accepted) > 0.95 * 2000, (sum(accepted), len(accepted))


def test_wrong_guesses_fall_back():
    p = pt.PowerPressure(2.0, rho_max=1.7)
    lo, hi = 0.21, 2.9
    rng = random.Random(13)
    for _ in range(300):
        y = rng.uniform(p(lo), p(hi))
        root = p.inv(y)
        for guess in (root + 0.1, root - 0.1, root + 3.0 * GUIDE_DELTA,
                      root - 3.0 * GUIDE_DELTA, lo, hi, lo - 1.0, math.nan):
            assert guide_window(p, lo, hi, y, guess) is None, (y, guess)
            got = invert_increasing(p, lo, hi, y, guess=guess)
            assert bits(got) == bits(plain_invert_increasing(p, lo, hi, y)), (y, guess)


def _jitter(x: float) -> float:
    """A fixed pseudo-random value in [-1, 1] for each float x."""
    return random.Random(struct.unpack("<q", bits(x))[0]).uniform(-1.0, 1.0)


def test_guess_near_a_noisy_root_matches():
    # f is increasing only up to an error e = 1e-13 (2e is below the window
    # margin): a window edge a hair from the root must not be taken, since
    # the plain bisection's choices there follow f's noise
    def f(x):
        return x + 1e-13 * _jitter(x)

    rng = random.Random(14)
    for _ in range(200):
        y = rng.uniform(0.3, 0.7)
        guess = y + GUIDE_DELTA - rng.uniform(0.0, 3e-13)
        got = invert_increasing(f, 0.0, 1.0, y, tol=1e-15, guess=guess)
        assert bits(got) == bits(plain_invert_increasing(f, 0.0, 1.0, y, tol=1e-15)), y


def test_project_keeps_one_step_budget():
    # a fan path whose first segment reaches down to t = 1e-30: the
    # bisection needs more than 80 halvings to settle there, so the
    # in-segment steps must continue the budget the bracket search began
    cur = object.__new__(_Curves)
    cur._c2_ts = [1e-30, 1e-3, 1.0]
    cur._c2_xs = list(cur._c2_ts)
    cur._c2_lam = [0.0, 0.0, 0.0]
    cur.t_a2, cur.t_b2 = cur._c2_ts[0], cur._c2_ts[-1]
    for x in (1e-20, 3e-17, 2e-25, 5e-4):
        assert bits(cur.project(2.0, x)) == bits(project_by_ray_pos(cur, 2.0, x)), x

