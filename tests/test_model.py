import math

import pytest

import phasetrack as pt
from phasetrack.errors import HypothesisViolation, OrderingViolation, OutOfDomain
from phasetrack.model import CustomLaw

from statespace import random_state


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
    c = laws.to_coords(vac)
    assert c.w1 == laws.V_f
    assert c.w2 == pytest.approx(laws.W_min, abs=1e-14)


def test_coords_round_trip(laws, rng):
    for _ in range(100):
        u = random_state(laws, rng, vacuum_prob=0.0, free_prob=0.5)
        back = laws.from_coords(laws.to_coords(u), u.phase)
        assert laws.coord_distance(u, back) < 1e-10
        assert abs(u.rho - back.rho) < 1e-9


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
    lam1, lam2 = laws.characteristics(u)
    assert lam1 == pytest.approx(-2.0 * laws.R_max ** 2, abs=1e-12)
    assert lam2 == 0.0
    assert laws.characteristics(laws.vacuum()) == pytest.approx(laws.V_max)


def test_characteristic_order(laws, rng):
    for _ in range(1000):
        u = random_state(laws, rng, vacuum_prob=0.0, free_prob=0.0)
        lam1, lam2 = laws.characteristics(u)
        assert lam1 <= lam2 == u.v
    for _ in range(200):
        u = random_state(laws, rng, vacuum_prob=0.2, free_prob=0.8)
        assert laws.characteristics(u) <= u.v + 1e-12


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


def test_capacity_drop(laws):
    for i in range(21):
        w = laws.W_c + (laws.W_max - laws.W_c) * i / 20
        rho = laws.rho_f(w)
        assert w - laws.p(rho) - rho * laws.p.deriv(rho) < 0


def test_laws_from_config_matches_scenario(laws):
    cfg = dict(family="linear", v_max=0.05, r=1.0, gamma=2.0,
               w_c=0.125, w_max=4.0 / 30.0, v_c=0.02)
    built = pt.laws_from_config(cfg)
    assert built.rho_free_crit == pytest.approx(laws.rho_free_crit, abs=1e-9)
    assert built.rho_free_max == pytest.approx(laws.rho_free_max, abs=1e-9)


def test_degenerate_free_band(flat_laws):
    assert flat_laws.degenerate_free
    assert flat_laws.W_min == pytest.approx(flat_laws.W_c, abs=1e-14)
