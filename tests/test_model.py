import copy
import math
import random

import numpy as np
import pytest

import phasetrack as pt
from phasetrack.errors import HypothesisViolation, OrderingViolation, OutOfDomain
from phasetrack.model import STATE_TOL, _solve_marker_density

from references import CustomLaw, per_sample_laws, plain_invert_increasing
from references import R_k as ref_R_k
from statespace import mesh_nodes, random_state


def test_scenario_laws_constants(laws):
    # R_f' solves rho^2 - 0.05 rho - 0.075 = 0 exactly at 0.3
    assert laws.rho_free_crit == pytest.approx(0.3, abs=1e-10)
    assert laws.W_c == pytest.approx(0.09 + 0.035, abs=1e-12)
    assert laws.R_c == pytest.approx(math.sqrt(1.0 / 8.0), abs=1e-10)
    assert laws.R_max == pytest.approx(math.sqrt(4.0 / 30.0), abs=1e-10)
    assert laws.V_f == pytest.approx(0.05 * (1.0 - laws.rho_free_max), abs=1e-12)
    # ordering invariants
    assert laws.R_max > laws.rho_free_max > 0
    assert laws.R_c > laws.rho_free_crit > 0
    assert laws.W_max > laws.W_c > laws.W_min
    assert 0 < laws.V_c < laws.V_f <= laws.V_max


def test_bad_pressure_rejected():
    # p = -eps / rho has p' > 0 but 2p' + rho p'' = 0 everywhere: inadmissible
    eps = 0.1
    p = CustomLaw(lambda r: -eps / r, lambda r: eps / r ** 2,
                  lambda r: -2.0 * eps / r ** 3)
    vf = pt.LinearFreeSpeed(1.0, 4.0)
    with pytest.raises(HypothesisViolation) as exc:
        pt.validate_laws(vf, p, 0.3, 0.4, 0.1)
    assert exc.value.which == "H2"


def test_v_crit_above_free_speed_rejected(laws):
    with pytest.raises(OrderingViolation):
        pt.validate_laws(laws.v_f, laws.p, laws.rho_free_crit,
                         laws.rho_free_max, 2.0 * laws.V_f)


def test_unswapped_marker_band_rejected():
    # the printed pair (W_max, W_c) = (1/8, 4/30) reverses the band
    with pytest.raises((OrderingViolation, HypothesisViolation, OutOfDomain)):
        pt.build_scenario(pt.TrafficLightConfig(w_max=1.0 / 8.0, w_c=4.0 / 30.0))


def test_coords_direct_values(laws):
    u = pt.TrafficState(0.3, 0.1, pt.Phase.CONGESTED)
    # outside the band this state is not admissible, but coords are algebraic
    w1, w2 = laws.w1(u), laws.w2(u)
    assert w1 == pytest.approx(0.1)
    assert w2 == pytest.approx(0.1 + 0.09, abs=1e-14)


def test_vacuum_coords(laws):
    vac = laws.vacuum()
    assert laws.w1(vac) == laws.V_f
    assert laws.w2(vac) == pytest.approx(laws.W_min, abs=1e-14)


def test_coords_round_trip(laws, mesh5):
    # the mesh builds each node's state from its coordinates (v, w); the
    # coordinates of that state are (v, w) again
    for iv, iw in mesh_nodes(mesh5):
        u = mesh5.state(iv, iw)
        assert laws.w1(u) == pytest.approx(mesh5.v_values[iv], abs=1e-12), (iv, iw)
        assert laws.w2(u) == pytest.approx(mesh5.w_values[iw], abs=1e-10), (iv, iw)


def test_rho_f_boundaries(laws):
    assert laws.rho_f(laws.W_c) == laws.rho_free_crit
    assert laws.rho_f(laws.W_max) == laws.rho_free_max


def test_rho_f_bisection_oracle(laws):
    w = 0.13
    # independent oracle: bisect rho^2 + 0.05(1 - rho) = w
    lo, hi = laws.rho_free_crit, laws.rho_free_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * mid + 0.05 * (1 - mid) <= w:
            lo = mid
        else:
            hi = mid
    assert laws.rho_f(w) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_rho_f_domain(laws):
    with pytest.raises(OutOfDomain):
        laws.rho_f(laws.W_c - 0.01)


def test_characteristics(laws):
    u = pt.TrafficState(laws.R_max, 0.0, pt.Phase.CONGESTED)
    assert laws.lambda1(u) == pytest.approx(-2.0 * laws.R_max ** 2, abs=1e-12)
    assert laws.lambda_free(laws.vacuum().rho) == pytest.approx(laws.V_max)


def test_characteristic_order(laws, rng):
    for _ in range(1000):
        u = random_state(laws, rng, vacuum_prob=0.0, free_prob=0.0)
        # the second characteristic speed of a congested state is v
        assert laws.lambda1(u) <= u.v
    for _ in range(200):
        u = random_state(laws, rng, vacuum_prob=0.2, free_prob=0.8)
        assert laws.lambda_free(u.rho) <= u.v + 1e-12


def test_marker_W(laws):
    low = pt.TrafficState(0.1, laws.v_free(0.1), pt.Phase.FREE)
    assert laws.marker_W(low) == laws.W_c
    u = pt.TrafficState(0.3, 0.1, pt.Phase.CONGESTED)
    assert laws.marker_W(u) == pytest.approx(0.19, abs=1e-14)


def test_marker_W_continuity(laws):
    rc = laws.rho_free_crit
    below = pt.TrafficState(rc * (1 - 1e-12), laws.v_free(rc * (1 - 1e-12)), pt.Phase.FREE)
    above = pt.TrafficState(rc * (1 + 1e-12), laws.v_free(rc * (1 + 1e-12)), pt.Phase.FREE)
    assert abs(laws.marker_W(below) - laws.marker_W(above)) < 1e-10


def test_R_k_branches(laws):
    w = 0.5 * (laws.W_c + laws.W_max)
    assert laws.R_k(w, 0.0) == pytest.approx(laws.p_inv(w), abs=1e-12)
    assert laws.R_k(laws.W_max, laws.V_c) == pytest.approx(
        laws.p_inv(laws.W_max - laws.V_c), abs=1e-12)


def test_R_k_chord_oracle(laws):
    # independent chord/line intersection by bisection on the segment
    w = 0.5 * (laws.W_c + laws.W_max)
    k = 0.5 * (laws.V_c + laws.V_f)
    ra = laws.p_inv(w - laws.V_f)
    rb = laws.p_inv(w - laws.V_c)
    fa, fb = ra * laws.V_f, rb * laws.V_c

    def line_minus_rk(rho):
        s = (fb - fa) / (rb - ra)
        return fa + s * (rho - ra) - rho * k

    lo, hi = ra, rb
    assert line_minus_rk(lo) * line_minus_rk(hi) <= 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if line_minus_rk(mid) * line_minus_rk(lo) > 0:
            lo = mid
        else:
            hi = mid
    assert laws.R_k(w, k) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_R_k_monotone_in_k(laws):
    w = 0.5 * (laws.W_c + laws.W_max)
    ks = [i * laws.V_f / 40 for i in range(41)]
    vals = [laws.R_k(w, k) for k in ks]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_p_inv_monotone(laws):
    ys = [laws.W_c - laws.v_f(laws.rho_free_crit) + i * 1e-3 for i in range(20)]
    ys = [y for y in ys if y <= laws.W_max]
    vals = [laws.p_inv(y) for y in ys]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def _ceiling_laws(laws, name):
    """The traffic-light laws (gamma2), their gamma = 3 and log-law (gamma
    = 0) variants, or the gamma = 2 pressure as a CustomLaw, which has no
    closed-form inverse and so bisects (custom)."""
    if name == "gamma2":
        return laws
    if name == "custom":
        p = laws.p
        return pt.validate_laws(laws.v_f, CustomLaw(p, p.deriv, p.deriv2),
                                laws.rho_free_crit, laws.rho_free_max, laws.V_c)
    kw = {"gamma3": dict(gamma=3.0),
          "log-law": dict(gamma=0.0, w_max=-1.0173221244986779, w_c=-1.1689728043259362)}
    return pt.build_scenario(pt.TrafficLightConfig(**kw[name]))[0]


@pytest.mark.parametrize("name", ["gamma2", "gamma3", "log-law", "custom"])
def test_R_k_over_arrays_is_its_scalar_reference_bit_for_bit(laws, name):
    lw = _ceiling_laws(laws, name)
    tol = STATE_TOL
    # a dense sweep of [W_c, W_max] x [0, V_f], both branches and the
    # speeds either side of the ceiling V_c, with the markers' slack edges;
    # markers below W_max at the speeds' lower slack edge (above W_max it
    # would take y past W_max + STATE_TOL), every marker at the upper one,
    # and random points; the bisected law gets a coarser sweep
    n_w, n_k = (129, 33) if name == "custom" else (401, 65)
    ws = np.concatenate(([lw.W_c - tol, lw.W_max + tol], np.linspace(lw.W_c, lw.W_max, n_w)))
    ks = np.concatenate((np.linspace(0.0, lw.V_f, n_k), [lw.V_c, math.nextafter(lw.V_c, 1.0)]))
    got = lw.R_k(ws[:, None], ks)
    assert got.shape == (len(ws), len(ks))
    assert _bits(got.ravel()) == _bits([ref_R_k(lw, a, b) for a in ws.tolist()
                                        for b in ks.tolist()])
    rng = np.random.default_rng(5)
    w = np.concatenate((np.delete(ws, 1), ws, rng.uniform(lw.W_c, lw.W_max, 500)))
    k = np.concatenate((np.full(len(ws) - 1, -tol), np.full(len(ws), lw.V_f + tol),
                        rng.uniform(0.0, lw.V_f, 500)))
    assert _bits(lw.R_k(w, k)) == _bits([ref_R_k(lw, a, b)
                                         for a, b in zip(w.tolist(), k.tolist())])
    assert lw.R_k(w[:0], k[:0]).shape == (0,)
    # a scalar call gives a float, on both branches
    for a, b in ((lw.W_c, 0.5 * lw.V_c), (lw.W_max, 0.5 * (lw.V_c + lw.V_f))):
        got = lw.R_k(a, b)
        assert type(got) is float and _bits(got) == _bits(ref_R_k(lw, a, b))

    # one element off the domain fails the whole array, as the reference
    # and a scalar call fail on it
    def fails(law, bad_w, bad_k, match="R_k"):
        for call in (lambda: law.R_k(np.append(w[:50], bad_w), np.append(k[:50], bad_k)),
                     lambda: ref_R_k(law, bad_w, bad_k), lambda: law.R_k(bad_w, bad_k)):
            with pytest.raises(OutOfDomain, match=match):
                call()

    fails(lw, lw.W_max + 2.0 * tol, 0.0)
    fails(lw, lw.W_c - 2.0 * tol, 0.0)
    fails(lw, lw.W_c, -2.0 * tol)
    fails(lw, lw.W_max, lw.V_f + 2.0 * tol)
    # no validated law has a marker minus a speed of [0, V_c], or minus V_f,
    # below p(R_f') (W_c - V_c = p(R_f') + v_f(R_f') - V_c), so p_inv's own
    # check is reached on a copy whose p_inv domain starts above W_c - V_c,
    # below the ceiling and on the chord
    raised = copy.copy(lw)
    raised._p_crit = lw.W_c
    fails(raised, lw.W_c, 0.5 * lw.V_c, match="p_inv")
    fails(raised, lw.W_c, lw.V_f, match="p_inv")


def test_capacity_drop(laws):
    for i in range(21):
        w = laws.W_c + (laws.W_max - laws.W_c) * i / 20
        rho = laws.rho_f(w)
        assert w - laws.p(rho) - rho * laws.p.deriv(rho) < 0


def test_laws_from_config_matches_scenario(laws):
    cfg = dict(family="linear", v_max=0.05, r=1.0, gamma=2.0,
               w_c=0.125, w_max=4.0 / 30.0, v_c=0.02)
    built = pt.laws_from_config(cfg)
    # the scenario builds its laws through laws_from_config, so every
    # derived constant is the same float
    for name in ("rho_free_crit", "rho_free_max", "R_c", "R_max", "W_min", "W_c",
                 "W_max", "V_f"):
        assert getattr(built, name) == getattr(laws, name), name


def test_degenerate_free_band(flat_laws):
    assert flat_laws.degenerate_free
    assert flat_laws.W_min == pytest.approx(flat_laws.W_c, abs=1e-14)


def _marker_density_full_scan(v_f, p, w, rho_hint_hi):
    # `_solve_marker_density` as it scanned left to right, keeping the last
    # bracket and evaluating most points twice
    f = lambda r: v_f(r) + p(r)
    n = 4096
    lo_edge = rho_hint_hi * 1e-9
    hi = rho_hint_hi
    while f(hi) < w:
        hi *= 2.0
        if hi > 1e9:
            raise OutOfDomain(f"v_f + p never reaches {w}")
    xs = [lo_edge + (hi - lo_edge) * i / n for i in range(n + 1)]
    bracket = None
    for a, b in zip(xs, xs[1:]):
        if f(a) <= w <= f(b):
            bracket = (a, b)
    if bracket is None:
        raise OutOfDomain(f"no upward crossing of v_f + p = {w}")
    return plain_invert_increasing(f, bracket[0], bracket[1], w)


def _assert_scan_matches(v_f, p, w, hint):
    try:
        ref = _marker_density_full_scan(v_f, p, w, hint)
    except OutOfDomain:
        with pytest.raises(OutOfDomain):
            _solve_marker_density(v_f, p, w, hint)
        return
    assert _solve_marker_density(v_f, p, w, hint).hex() == ref.hex(), (p.gamma, w)


def test_marker_density_scan_keeps_the_last_crossing():
    rng = random.Random(15)
    # the laws of configs/traffic_light.ini and configs/flat_free_random.ini,
    # with the rho hint each config path passes
    shipped = [(pt.LinearFreeSpeed(0.05, 1.0), 0.5, (0.125, 0.13333333333333333)),
               (pt.LinearFreeSpeed(0.05, math.inf), 1.0, (0.14, 0.1725))]
    p = pt.PowerPressure(2.0)
    for v_f, hint, levels in shipped:
        # below 0.0494 v_f + p never reaches w; just above it there are two
        # crossings, and the scan must keep the upward one
        for w in [*levels, 0.046, 0.0496] + [rng.uniform(0.045, 0.6) for _ in range(100)]:
            _assert_scan_matches(v_f, p, w, hint)
    # the gamma = 3 and log-law (gamma = 0) pressures, which the scan
    # evaluates through numpy's pow and log: with the linear speed, v_f + p
    # has its minimum 0.0457 at rho = 0.129 under gamma = 3, and tends to
    # -inf at 0 under the log law
    log_levels = (0.035 + math.log(0.3), 0.0325 + math.log(0.35))
    for p, ws in ((pt.PowerPressure(3.0), [0.04, 0.0457, 0.046, 0.0496]
                   + [rng.uniform(0.04, 0.6) for _ in range(30)]),
                  (pt.PowerPressure(0.0), [*log_levels, -21.0, -30.0]
                   + [rng.uniform(-4.0, 1.0) for _ in range(30)])):
        for v_f, hint, levels in shipped:
            for w in [*levels, *ws]:
                _assert_scan_matches(v_f, p, w, hint)


def _violation(build, *args):
    with pytest.raises(HypothesisViolation) as exc:
        build(*args)
    return exc.value.which, exc.value.rho, exc.value.detail


# laws breaking each of the eight sampled conditions, as (v_f, p, R_f',
# R_f'', V_c); the CustomLaws use math.* callables, which take no arrays
_LINEAR = pt.LinearFreeSpeed(1.0, 4.0)
_C = 0.1 * math.sqrt(0.35)      # rho p' of p = -C / sqrt(rho) falls to V_f = 0.05 at 0.35
_QUADRATIC = pt.PowerPressure(2.0)
_BROKEN_LAWS = {
    ("H1", "v_f(R_f'') <= 0"): (pt.LinearFreeSpeed(1.0, 0.5), _QUADRATIC, 0.3, 0.6, 0.1),
    ("H1", "v_f' > 0"): (CustomLaw(lambda r: 0.75 - 0.25 * r + 0.75 * math.fabs(r - 0.2),
                                   lambda r: -0.25 + 0.75 * math.copysign(1.0, r - 0.2),
                                   lambda r: 0.0),
                         _QUADRATIC, 0.3, 0.4, 0.1),
    ("H1", "v_f + rho v_f' <= 0"): (pt.LinearFreeSpeed(1.0, 1.0), _QUADRATIC, 0.3, 0.6, 0.1),
    ("H1", "2 v_f' + rho v_f'' > 0"): (CustomLaw(lambda r: 0.5 + math.exp(-10.0 * r),
                                                 lambda r: -10.0 * math.exp(-10.0 * r),
                                                 lambda r: 100.0 * math.exp(-10.0 * r)),
                                       _QUADRATIC, 0.3, 0.5, 0.1),
    ("H2", "p' <= 0"): (_LINEAR, CustomLaw(lambda r: 0.5 - math.fabs(r - 0.5),
                                           lambda r: -math.copysign(1.0, r - 0.5),
                                           lambda r: 0.0),
                        0.3, 0.4, 0.1),
    ("H2", "2 p' + rho p'' <= 0"): (_LINEAR, CustomLaw(
        lambda r: r - 10.0 * math.pow(max(r - 0.6, 0.0), 3),
        lambda r: 1.0 - 30.0 * math.pow(max(r - 0.6, 0.0), 2),
        lambda r: -60.0 * max(r - 0.6, 0.0)), 0.3, 0.4, 0.1),
    ("H3", "v_f + p not increasing"): (pt.LinearFreeSpeed(1.0, 1.0), _QUADRATIC, 0.3, 0.45, 0.1),
    ("H3", "v_f >= rho p'"): (pt.LinearFreeSpeed(0.05, math.inf), CustomLaw(
        lambda r: -_C / math.sqrt(r), lambda r: 0.5 * _C / math.sqrt(r) ** 3,
        lambda r: -0.75 * _C / math.sqrt(r) ** 5), 0.3, 0.4, 0.01),
}


@pytest.mark.parametrize("broken", list(_BROKEN_LAWS), ids=lambda b: f"{b[0]}: {b[1]}")
def test_hypothesis_sweeps_fail_as_the_per_sample_loops(broken):
    # the array sweeps raise at the lowest failing sample, naming the first
    # condition that fails there, as the per-sample loops did
    args = _BROKEN_LAWS[broken]
    got = _violation(pt.validate_laws, *args)
    assert got == _violation(per_sample_laws(), *args)
    assert got[0] == broken[0] and got[2] == broken[1]


def test_custom_law_maps_its_callables_over_arrays():
    law = CustomLaw(math.log, lambda r: 1.0 / r, lambda r: -1.0 / (r * r))
    rs = [0.3 + 0.01 * i for i in range(20)]
    for method, f in ((law, math.log), (law.deriv, lambda r: 1.0 / r)):
        got = method(np.array(rs))
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [f(r) for r in rs]
    assert law(0.3) == math.log(0.3)


def test_rho_f_raises_off_the_capacity_drop_side():
    # with H3's sweep skipped, laws with v_f >= rho p' above rho = 0.35 put
    # the free line's top on the rising side of rho (w - p): rho_f raises
    # H3 there (no assert, so also under python -O)
    class NoH3(pt.ModelLaws):
        def _validate_h3(self):
            pass

    lw = NoH3(*_BROKEN_LAWS[("H3", "v_f >= rho p'")])
    lw.rho_f(lw.W_c)
    with pytest.raises(HypothesisViolation) as exc:
        lw.rho_f(lw.W_max)
    assert (exc.value.which, exc.value.rho) == ("H3", lw.rho_free_max)


class _ArrayHighPressure(pt.PowerPressure):
    """A power law whose array evaluation lies 1e-16 above its scalar one,
    a rounding difference of a few ulps of v_f + p near 0.05."""

    def __call__(self, rho):
        value = super().__call__(rho)
        return value + 1e-16 if isinstance(rho, np.ndarray) else value


def test_marker_density_scan_takes_scalar_values_near_w():
    # w at the scan's lowest point, where the only upward crossing starts:
    # read high, that point would hide the crossing, so the scan takes the
    # scalar value of the points that close to w
    v_f, p, hint = pt.LinearFreeSpeed(0.05, 1.0), _ArrayHighPressure(3.0), 0.5
    xs = [hint * 1e-9 + (hint - hint * 1e-9) * i / 4096 for i in range(4097)]
    w = min(v_f(x) + p(x) for x in xs)
    ref = _marker_density_full_scan(v_f, p, w, hint)
    assert _solve_marker_density(v_f, p, w, hint).hex() == ref.hex()
