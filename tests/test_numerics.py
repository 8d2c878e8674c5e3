"""Root solves: the closed-form inverses solve their equations, and the
bisection that laws without one keep returns the plain bisection's bits.

`ModelLaws.p_inv` returns the pressure's closed-form inverse when the law
has one, `ModelLaws.rho_f` and `v_f_inv` the free line's and the free
speed's, and the exact construction's fan states are closed forms: each is
compared against `mpmath` roots of the equation it solves, within a bound
derived from its roundings.  Its ray projection bisects a closed-form ray
position and is compared against the `mpmath` root of the exact ray.  Its
two curved paths are closed forms too: `mpmath` derivatives check them
against the ODEs they solve, and an RK4 integration of those ODEs bounds
their b-points.  A law without a closed form (`CustomLaw`) is inverted by
`invert_increasing`, compared bit for bit against the plain bisection of
`references`.
"""

import math
import random
import struct

import mpmath as mp
import pytest

import phasetrack as pt
from phasetrack.numerics import BISECT_TOL
from phasetrack.scenario import ExactSolution, closed_form_table

from references import (CustomLaw, plain_invert_increasing, project_by_ray_pos, ray_pos,
                        rk4_curves)

U = 2.0 ** -53      # unit roundoff of a double
GAMMAS = (0.0, 0.5, 1.0, 2.0, 3.0)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class Counted:
    """f with a count of its evaluations; its other attributes (a law's
    derivatives and inverse) are f's."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)

    def __getattr__(self, name):
        return getattr(self.f, name)


def _power_laws(gamma):
    """Constant-free-speed laws on the pressure PowerPressure(gamma,
    rho_max=1.7), whose evaluations are counted."""
    p = Counted(pt.PowerPressure(gamma, rho_max=1.7))
    return pt.validate_laws(pt.LinearFreeSpeed(0.01, math.inf), p, 0.3, 0.35, 0.005), p


@pytest.mark.parametrize("gamma", GAMMAS)
def test_power_pressure_guided_inverse_is_bit_identical(gamma):
    # PowerPressure.inv, the closed form that guided p_inv's bisection, is
    # now p_inv's answer, clamped to [R_f', R_max], bit for bit; no
    # bisection is left behind it, so p is not evaluated
    laws, p = _power_laws(gamma)
    lo, hi = laws.p(laws.rho_free_crit), laws.W_max
    rng = random.Random(int(10 * gamma) + 1)
    ys = [rng.uniform(lo, hi) for _ in range(400)]
    ys += [lo, hi, lo - 1e-11, hi + 1e-11, math.nextafter(lo, -math.inf),
           math.nextafter(hi, math.inf)]
    p.calls = 0
    for y in ys:
        ref = min(max(p.inv(y), laws.rho_free_crit), laws.R_max)
        assert bits(laws.p_inv(y)) == bits(ref), (gamma, y)
    assert p.calls == 0


def test_power_pressure_inv_inverts():
    for gamma in GAMMAS:
        p = pt.PowerPressure(gamma, v_ref=0.8, rho_max=1.7)
        for r in (0.05, 0.3, 1.0, 1.7, 2.5):
            assert p.inv(p(r)) == pytest.approx(r, rel=1e-13)
        if gamma > 0.0:
            assert p.inv(0.0) == 0.0 and p.inv(-1.0) == 0.0


def test_p_inv_is_bit_identical(laws, flat_laws):
    # one inverse per law: the end values of the marker band invert to the
    # constants built from them, and values past either end clamp
    for lw in (laws, flat_laws):
        lo = lw.p(lw.rho_free_crit)
        assert lw.p_inv(lw.W_max) == lw.R_max and lw.p_inv(lw.W_c) == lw.R_c
        assert lw.p_inv(lo - 1e-11) == lw.rho_free_crit
        assert lw.p_inv(lw.W_max + 1e-11) == lw.R_max
    # a law without a closed-form inverse has the same two identities, and
    # inside the band keeps the plain bisection's bits; from W_max up it
    # reads R_max, the top of the bisection's bracket
    rng = random.Random(3)
    for lw in (laws, flat_laws):
        p = lw.p
        custom = pt.validate_laws(lw.v_f, CustomLaw(p, p.deriv, p.deriv2),
                                  lw.rho_free_crit, lw.rho_free_max, lw.V_c)
        assert custom.p_inv(custom.W_max) == custom.R_max
        assert custom.p_inv(custom.W_c) == custom.R_c
        lo, hi = custom.p(custom.rho_free_crit), custom.W_max
        for y in [rng.uniform(lo, hi) for _ in range(500)] + [lo, lo - 1e-11]:
            ref = plain_invert_increasing(p, custom.rho_free_crit, custom.R_max, y)
            assert bits(custom.p_inv(y)) == bits(ref), y
        assert custom.p_inv(hi) == custom.p_inv(hi + 1e-11) == custom.R_max


def _log_law_markers():
    # the log law p = log(rho) (gamma = 0) with the free band [0.3, 0.35]
    v_f = pt.LinearFreeSpeed(0.05, 1.0)
    return dict(gamma=0.0, w_c=v_f(0.3) + math.log(0.3), w_max=v_f(0.35) + math.log(0.35))


@pytest.fixture(scope="module", params=[{}, {"gamma": 3.0}, _log_law_markers()],
                ids=["default", "gamma3", "log-law"])
def exact(request):
    return ExactSolution(pt.TrafficLightConfig(**request.param))


# laws whose free line v_f(rho) + p(rho) = w has a closed form: the linear
# speed with the quadratic pressure (the scenario's, and one with v_ref and
# rho_max away from 1), and a constant speed with any power law
FREE_LINE_LAWS = {
    "traffic": lambda: pt.build_scenario(pt.TrafficLightConfig())[0],
    "scaled": lambda: pt.validate_laws(pt.LinearFreeSpeed(0.05, 2.0),
                                       pt.PowerPressure(2.0, v_ref=1.5, rho_max=0.8),
                                       0.3, 0.35, 0.02),
    **{f"flat-gamma{g:g}": (lambda g=g: pt.validate_laws(
        pt.LinearFreeSpeed(0.05, math.inf), pt.PowerPressure(g), 0.3, 0.35, 0.02))
       for g in (0.0, 2.0, 3.0)},
}


def _mp_free_line(lw):
    """v_f + p of the laws in exact arithmetic."""
    v_max, R, p = mp.mpf(lw.v_f.v_max), lw.v_f.R, lw.p
    gam, v_ref, rho_max = (mp.mpf(c) for c in (p.gamma, p.v_ref, p.rho_max))

    def f(r):
        v = v_max if math.isinf(R) else v_max * (1 - r / mp.mpf(R))
        if p.gamma == 0.0:
            return v + v_ref * mp.log(r / rho_max)
        return v + (v_ref / gam) * (r / rho_max) ** gam
    return f


@pytest.mark.parametrize("name", list(FREE_LINE_LAWS))
@mp.workdps(40)
def test_free_line_closed_form_is_accurate(name):
    lw = FREE_LINE_LAWS[name]()
    assert lw.rho_f(lw.W_c) == lw.rho_free_crit
    assert lw.rho_f(lw.W_max) == lw.rho_free_max
    # Relative errors, with u = 2^-53.  The quadratic's larger root
    # (b + sqrt(b^2 + 4 a (w - V))) / 2a adds positive terms only (w > V
    # here): a carries 2u, b and w - V one rounding each, so b^2 has 3u,
    # 4 a (w - V) 4u, their sum 5u, its square root 3.5u, b plus it 4.5u
    # and the quotient by 2a 7.5u: at most 8u.  A constant speed's root
    # p^-1(w - V) rounds w - V (u |ln rho| <= 1.2u after the inverse) and
    # then takes at most 4.5u in p's closed inverse (see test_p_inv_is_
    # accurate; here the exponent's rounding is |ln rho| u <= 1.2u): at
    # most 6u.  The clamp to [R_f', R_f''] is 1-Lipschitz.
    bound = 6.0 * U if lw.degenerate_free else 8.0 * U
    f = _mp_free_line(lw)
    rng = random.Random(7)
    for w in [rng.uniform(lw.W_c, lw.W_max) for _ in range(300)]:
        got = lw.rho_f(w)
        root = mp.findroot(lambda r: f(r) - mp.mpf(w), mp.mpf(got))
        ref = _clamp(root, lw.rho_free_crit, lw.rho_free_max)
        assert abs(got - ref) <= bound * root, (w, got, root)
    if not lw.degenerate_free:
        # v_f^-1(v) = R (V - v) / V: V - v is exact for v in [V/2, V], the
        # quotient and the product round once each: at most 2u
        v_max, R = mp.mpf(lw.V_max), mp.mpf(lw.v_f.R)
        vs = [rng.uniform(lw.v_f(lw.rho_free_crit), lw.V_max) for _ in range(300)]
        for v in vs + [lw.V_max]:
            root = R * (v_max - mp.mpf(v)) / v_max
            assert abs(lw.v_f_inv(v) - root) <= 2.0 * U * root, v
        assert lw.v_f_inv(lw.V_max + 0.01) == 0.0
        assert lw.v_f_inv(0.5 * lw.v_f(lw.rho_free_crit)) == lw.rho_free_crit


def test_free_line_without_closed_form_keeps_the_bisection(laws, flat_laws):
    # the gamma = 3 and log-law scenario laws, and CustomLaw copies of the
    # shipped laws, bisect the free line (and the CustomLaw speed its
    # inverse) with the plain bisection's bits
    cases = [pt.build_scenario(pt.TrafficLightConfig(**kw))[0]
             for kw in ({"gamma": 3.0}, _log_law_markers())]
    for lw in (laws, flat_laws):
        v_f, p = lw.v_f, lw.p
        cases.append(pt.validate_laws(CustomLaw(v_f, v_f.deriv, v_f.deriv2),
                                      CustomLaw(p, p.deriv, p.deriv2),
                                      lw.rho_free_crit, lw.rho_free_max, lw.V_c))
    rng = random.Random(9)
    for lw in cases:
        f = lambda r: lw.v_f(r) + lw.p(r)
        lo, hi = lw.rho_free_crit, lw.rho_free_max
        assert lw.rho_f(lw.W_c) == lo and lw.rho_f(lw.W_max) == hi
        for w in [rng.uniform(lw.W_c, lw.W_max) for _ in range(200)]:
            assert bits(lw.rho_f(w)) == bits(plain_invert_increasing(f, lo, hi, w)), w
        if isinstance(lw.v_f, CustomLaw) and not lw.degenerate_free:
            for v in [rng.uniform(lw.v_f(lo), lw.V_max) for _ in range(200)]:
                ref = plain_invert_increasing(lambda x: -lw.v_f(x), 0.0, lo, -v)
                assert bits(lw.v_f_inv(v)) == bits(ref), v


def _mp_root(f, y, start):
    """Root of the mpmath function f(r) = y, by secant steps from start."""
    return mp.findroot(lambda r: f(r) - y, mp.mpf(start))


def _clamp(r, lo, hi):
    return min(max(r, lo), hi)


@mp.workdps(40)
def test_p_inv_is_accurate(exact):
    laws = exact.laws
    p = laws.p
    gam, v_ref, rho_max = (mp.mpf(c) for c in (p.gamma, p.v_ref, p.rho_max))

    def p_exact(r):
        if p.gamma == 0.0:
            return v_ref * mp.log(r / rho_max)
        return (v_ref / gam) * (r / rho_max) ** gam

    # Relative errors, with u = 2^-53.  The power law's closed form rounds
    # gamma y and the quotient by v_ref before the 1/gamma power: 2u / gamma
    # <= u after it (gamma >= 2 here).  The rounded exponent 1/3 adds
    # |ln base| u / 3 <= 0.8u, since base = y >= p(R_f') > 0.09 for the
    # gamma = 3 laws.  The log law's exponent y / v_ref is off by
    # u |y| <= 1.25u.  pow or exp adds one ulp (2u) and the product with
    # rho_max one rounding (u): at most 4.5u.  The clamp to [R_f', R_max]
    # is 1-Lipschitz, so the clamped root keeps the bound.
    lo, hi = laws.p(laws.rho_free_crit), laws.W_max
    rng = random.Random(15)
    for y in [rng.uniform(lo, hi) for _ in range(500)] + [lo, hi]:
        got = laws.p_inv(y)
        root = _mp_root(p_exact, mp.mpf(y), got)
        ref = _clamp(root, laws.rho_free_crit, laws.R_max)
        assert abs(got - ref) <= 4.5 * U * root, (y, got, root)


@mp.workdps(40)
def test_fan_states_are_accurate(exact):
    cur, laws = exact.curves, exact.laws
    p = laws.p
    gam, v_ref, rho_max = (mp.mpf(c) for c in (p.gamma, p.v_ref, p.rho_max))

    def g(r):   # p + rho p' in exact arithmetic
        if p.gamma == 0.0:
            return v_ref * mp.log(r / rho_max) + v_ref
        return (v_ref / gam) * (r / rho_max) ** gam * (1 + gam)

    # The power law's closed form takes four roundings before the 1/gamma
    # power (y, y / (1 + gamma), gamma y, / v_ref), 4u / gamma <= 2u of
    # relative error after it, with |ln base| u / gamma <= 1.2u from the
    # rounded exponent 1/3; the log law's exponent is off by at most
    # 3u max(1, |y|) = 3u here.  pow or exp adds one ulp (2u) and the
    # product with rho_max one rounding: at most 8u.  The clamp to
    # [R_f', R_max] is 1-Lipschitz, so the clamped root keeps the bound.
    rng = random.Random(12)
    xis = [rng.uniform(cur.lam_rmax, cur.xi_b) for _ in range(300)]
    for xi in xis + [cur.lam_rmax, cur.xi_b, cur.lam_rmax - 0.01, cur.xi_b + 0.01]:
        got = cur.fan_state(xi).rho
        root = _mp_root(g, mp.mpf(laws.W_max) - mp.mpf(xi), laws.R_max)
        ref = _clamp(root, laws.rho_free_crit, laws.R_max)
        assert abs(got - ref) <= 8.0 * U * root, (xi, got, root)

    # lambda_f(rho) = V_max (1 - 2 rho) for the scenario's free speed, and
    # the closed form rounds twice (xi - V_max and the quotient; halving is
    # exact): within (2u + u^2) rho.  xi clamps to [lambda_f(R_f''), V_max]
    # before the inverse, rho to [0, R_f''] after it.
    v_max = mp.mpf(laws.V_max)
    lam_f = lambda r: v_max - 2 * v_max * r
    xis = [rng.uniform(exact.lam_f2, laws.V_max) for _ in range(300)]
    for xi in xis + [exact.lam_f2, laws.V_max, exact.lam_f2 - 0.01, laws.V_max + 0.01]:
        got = exact._free_fan_state(xi).rho
        root = _mp_root(lam_f, _clamp(xi, exact.lam_f2, laws.V_max), got)
        ref = _clamp(root, 0.0, laws.rho_free_max)
        assert abs(got - ref) <= (2.0 * U + U * U) * root, (xi, got, root)
        assert math.copysign(1.0, got) == 1.0, xi      # no -0.0 at xi = V_max


def _mp_curve(cur):
    """The contact c2 and its source speed v0 = c2' of `_Curves` cur in exact
    arithmetic (at the caller's working precision), from the float a2."""
    laws = cur.laws
    g, v_ref, w = (mp.mpf(v) for v in (laws.p.gamma, laws.p.v_ref, laws.W_max))
    t_a2, x2 = mp.mpf(cur.t_a2), mp.mpf(cur.cfg.x2)
    if g == 0:
        c = x2 / t_a2 - v_ref * mp.log(t_a2)
        return lambda s: s * (c + v_ref * mp.log(s)), lambda s: c + v_ref * (mp.log(s) + 1)
    q = 1 / (1 + g)
    c = (x2 - w * t_a2) / t_a2 ** q
    return lambda s: w * s + c * s ** q, lambda s: w + q * c * s ** (q - 1)


def _ray_terms(cur, t, s):
    """Sum of the magnitudes of the terms the float ray position through
    c2(s) at time t rounds: c2's two terms, and |t - s| times those of the
    ray slope and the source speed it is built from."""
    p, c, w = cur.laws.p, cur.c, cur.laws.W_max
    if p.gamma == 0.0:
        ln = abs(math.log(s))
        return s * (abs(c) + p.v_ref * ln) \
            + abs(t - s) * (abs(c) + p.v_ref * (ln + 2.0))
    q, g = cur.q, p.gamma
    return abs(w * s) + abs(c) * s ** q \
        + abs(t - s) * ((1.0 + g) * (abs(w) + q * abs(c) * s ** (q - 1.0))
                        + g * abs(cur.laws.W_c))


@mp.workdps(40)
def test_project_is_accurate(exact):
    # against the source time of the exact ray through (t, x), which leaves
    # c2(s) with the slope `ray_slope(v0(s))`, in 40-digit arithmetic
    cur, laws = exact.curves, exact.laws
    c2, v0 = _mp_curve(cur)
    g, v_ref, w_c = (mp.mpf(v) for v in (laws.p.gamma, laws.p.v_ref, laws.W_c))

    def lam(s):
        return v0(s) - v_ref if g == 0 else (1 + g) * v0(s) - g * w_c

    rng = random.Random(11)
    ends = {cur.t_a2: 0, cur.t_b2: 0}
    interior = 0
    for _ in range(600):
        t = rng.uniform(cur.t_a2, 2.0 * cur.t_b1)
        first, last = ray_pos(cur, cur.t_a2, t), ray_pos(cur, cur.t_b2, t)
        pad = 0.2 * abs(last - first)
        x = rng.uniform(min(first, last) - pad, max(first, last) + pad)
        got = cur.project(t, x)
        if x <= first or x >= last:
            # beyond the first or last ray the source time clamps to the
            # fan, as in the plain bisection
            assert got in ends and got == project_by_ray_pos(cur, t, x), (t, x)
            ends[got] += 1
            continue
        T = mp.mpf(t)

        def ray(s):
            return c2(s) + (T - s) * lam(s)

        root = mp.findroot(lambda s: ray(s) - x, mp.mpf(got))
        # the bisection ends within BISECT_TOL / 2 of the float ray's
        # crossing; that ray rounds fewer than 16 times on terms no larger
        # than x and `_ray_terms`, which moves the crossing by at most
        # 16u of their sum over the ray's slope in s
        size = abs(x) + _ray_terms(cur, t, got)
        bound = 0.5 * BISECT_TOL + 16.0 * U * size / mp.diff(ray, root)
        assert abs(got - root) <= bound, (t, x, got, root)
        interior += 1
    # both clamps and the interior are exercised
    assert min(ends.values()) > 20 and interior > 300, (ends, interior)


# the exact construction's configs: the default, a longer queue, a steeper
# power law and the log law
CURVE_CONFIGS = [{}, {"x1": -13.0, "x2": -5.0}, {"gamma": 3.0}, _log_law_markers()]
CURVE_IDS = ["default", "x1-13-x2-5", "gamma3", "log-law"]


@pytest.mark.parametrize("kw", CURVE_CONFIGS, ids=CURVE_IDS)
def test_curved_paths_match_rk4(kw):
    # the closed forms against the RK4 integration they replaced, whose own
    # error (about 3e-8 at 1024 steps) sets the bound
    cfg = pt.TrafficLightConfig(**kw)
    ex = ExactSolution(cfg)
    ref = closed_form_table(cfg, _curves=rk4_curves(ex.curves))
    for point in ("b2", "b1", "c1"):
        got, want = getattr(ex.table, point), getattr(ref, point)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-7, (point, got, want)


@pytest.mark.parametrize("kw", CURVE_CONFIGS, ids=CURVE_IDS)
@mp.workdps(40)
def test_curved_paths_solve_their_odes(kw):
    # c2 and pt1 in 40-digit arithmetic: c2 from its closed form, whose
    # derivative must be the main fan's speed at c2's ray; the ray slopes
    # from the law's own p and p' (not the closed-form slope); pt1 from its
    # closed form tau(s), whose point (s + tau, c2 + tau lam) must move at
    # the source speed v0 = c2'.  The float closed forms at about 40 source
    # times must lie on their rays and on those mp paths, within 64u of
    # their size.
    ex = ExactSolution(pt.TrafficLightConfig(**kw))
    cur, laws = ex.curves, ex.laws
    g, v_ref, r_max = (mp.mpf(v) for v in (laws.p.gamma, laws.p.v_ref, laws.p.rho_max))
    w, w_c = mp.mpf(laws.W_max), mp.mpf(laws.W_c)
    t_a2, t_a1, x2 = mp.mpf(cur.t_a2), mp.mpf(cur.t_a1), mp.mpf(ex.cfg.x2)

    def p(r):
        return v_ref * mp.log(r / r_max) if g == 0 else v_ref / g * (r / r_max) ** g

    def dp(r):
        return v_ref / r if g == 0 else v_ref / r_max * (r / r_max) ** (g - 1)

    if g == 0:
        c = x2 / t_a2 - v_ref * mp.log(t_a2)

        def c2(s):
            return s * (c + v_ref * mp.log(s))
    else:
        q = 1 / (1 + g)
        c = (x2 - w * t_a2) / t_a2 ** q

        def c2(s):
            return w * s + c * s ** q

    def v0(s):
        return mp.diff(c2, s)

    def lam(s):
        v = v0(s)
        r = mp.findroot(lambda r: p(r) - (w_c - v), mp.mpf(laws.p_inv(float(w_c - v))))
        return v - r * dp(r)

    def tau(s):
        if g == 0:
            return (t_a1 - t_a2) * mp.exp((v0(s) - v0(t_a2)) / v_ref)
        return (t_a1 - t_a2) * ((w_c - v0(t_a2)) / (w_c - v0(s))) ** ((1 + g) / g)

    def pt1_t(s):
        return s + tau(s)

    def pt1_x(s):
        return c2(s) + tau(s) * lam(s)

    # 20 of 1,025 evenly spaced source times, and the midpoints after them
    h = (cur.t_b2 - cur.t_a2) / 1024
    for k in sorted({round(i * 1024 / 19) for i in range(20)}):
        for s_f in [cur.t_a2 + k * h] if k == 1024 else [cur.t_a2 + k * h,
                                                         cur.t_a2 + (k + 0.5) * h]:
            s = mp.mpf(s_f)
            x = c2(s)
            # c2 solves x' = v(x / t), v the speed of the main fan's state
            r = mp.findroot(lambda r: w - p(r) - r * dp(r) - x / s,
                            mp.mpf(cur._fan_rho(float(x / s))))
            assert abs(v0(s) - (w - p(r))) <= 1e-30, s_f
            assert abs(cur.c2_pos(s_f) - x) <= 64 * U * (abs(s) + abs(x)), s_f
            # pt1 moves at v0: dx/ds = v0 dt/ds along the source times
            dx = mp.diff(pt1_x, s)
            assert abs(dx - v0(s) * mp.diff(pt1_t, s)) <= 1e-30, s_f
            t1, x1 = cur.pt1_at(s_f)
            size = 64 * U * (abs(t1) + abs(x1))
            assert abs(x1 - (x + (t1 - s) * lam(s))) <= size, s_f      # on its ray
            assert abs(t1 - pt1_t(s)) <= size and abs(x1 - pt1_x(s)) <= size, s_f
            # pt1_pos bisects for a source time within BISECT_TOL of s
            assert abs(cur.pt1_pos(t1) - x1) <= BISECT_TOL * abs(dx) + size, s_f
