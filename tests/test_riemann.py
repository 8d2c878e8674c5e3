from fractions import Fraction

import pytest

import phasetrack as pt
from phasetrack.errors import EqualDensities
from phasetrack.riemann import WaveKind, check_rankine_hugoniot, fan_is_speed_ordered

from statespace import random_state


def cong(laws, w2, v):
    return pt.TrafficState(laws.p_inv(w2 - v), v, pt.Phase.CONGESTED)


def free(laws, rho):
    return pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)


class TestSigma:
    def test_vacuum_left(self, laws):
        u = cong(laws, laws.W_max, 0.01)
        assert pt.sigma(laws.vacuum(), u) == u.v

    def test_stationary(self, laws):
        a = pt.TrafficState(laws.R_c, 0.0, pt.Phase.CONGESTED)
        b = pt.TrafficState(laws.R_max, 0.0, pt.Phase.CONGESTED)
        assert pt.sigma(a, b) == 0.0

    def test_equal_densities(self, laws):
        a = pt.TrafficState(0.33, 0.01, pt.Phase.CONGESTED)
        b = pt.TrafficState(0.33, 0.02, pt.Phase.CONGESTED)
        with pytest.raises(EqualDensities):
            pt.sigma(a, b)

    def test_rational_oracle(self, laws):
        a = pt.TrafficState(0.25, 0.0125, pt.Phase.CONGESTED)
        b = pt.TrafficState(0.5, 0.015625, pt.Phase.CONGESTED)
        exact = (Fraction(1, 2) * Fraction(1, 64) - Fraction(1, 4) * Fraction(1, 80)) \
            / (Fraction(1, 2) - Fraction(1, 4))
        assert pt.sigma(a, b) == pytest.approx(float(exact), abs=1e-15)


class TestLWR:
    def test_identity(self, laws):
        u = free(laws, 0.2)
        assert len(pt.solve_lwr(laws, u, u)) == 0

    def test_two_point_shock(self, laws):
        ul, ur = laws.vacuum(), free(laws, laws.rho_free_max)
        fan = pt.solve_lwr(laws, ul, ur)
        assert [w.kind for w in fan] == [WaveKind.SHOCK]
        assert fan.waves[0].speed == pt.sigma(ul, ur)

    def test_full_rarefaction(self, laws):
        ul, ur = free(laws, laws.rho_free_max), laws.vacuum()
        fan = pt.solve_lwr(laws, ul, ur)
        (w,) = fan.waves
        assert w.kind == WaveKind.RAREFACTION
        assert w.speed_lo == pytest.approx(laws.lambda_free(laws.rho_free_max))
        assert w.speed_hi == pytest.approx(laws.lambda_free(0.0))
        for i in range(33):
            xi = w.speed_lo + (w.speed_hi - w.speed_lo) * i / 32
            u = w.sampler(xi)
            assert u.v == pytest.approx(laws.v_free(u.rho), abs=1e-12)
            assert laws.lambda_free(u.rho) == pytest.approx(xi, abs=1e-10)


class TestARZ:
    def test_identity(self, laws):
        u = cong(laws, 0.13, 0.01)
        assert len(pt.solve_arz(laws, u, u)) == 0

    def test_pure_rarefaction_same_marker(self, laws):
        ul = cong(laws, 0.13, 0.005)
        ur = cong(laws, 0.13, 0.015)
        fan = pt.solve_arz(laws, ul, ur)
        assert [w.kind for w in fan] == [WaveKind.RAREFACTION]

    def test_pure_contact(self, laws):
        ul = cong(laws, 0.127, 0.01)
        ur = cong(laws, 0.132, 0.01)
        fan = pt.solve_arz(laws, ul, ur)
        assert [w.kind for w in fan] == [WaveKind.CONTACT]
        assert fan.waves[0].speed == ur.v

    def test_shock_then_contact(self, laws):
        ul = cong(laws, 0.128, 0.018)
        ur = cong(laws, 0.133, 0.004)
        fan = pt.solve_arz(laws, ul, ur)
        assert [w.kind for w in fan] == [WaveKind.SHOCK, WaveKind.CONTACT]
        um = fan.waves[0].right
        assert um.v == ur.v
        assert laws.w2(um) == pytest.approx(laws.w2(ul), abs=1e-12)


class TestCoupled:
    def test_vacuum_to_congested_single_transition(self, laws):
        ur = cong(laws, 0.13, 0.012)
        fan = pt.solve_coupled(laws, laws.vacuum(), ur)
        assert [w.kind for w in fan] == [WaveKind.PHASE_TRANSITION]
        assert fan.waves[0].speed == ur.v

    def test_degenerate_congested_to_free(self, laws):
        # left already at the congested ceiling and right exactly the matched
        # free state: a single phase transition remains
        w2 = 0.13
        ul = cong(laws, w2, laws.V_c)
        rho = laws.rho_f(w2)
        ur = pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
        fan = pt.solve_coupled(laws, ul, ur)
        assert [w.kind for w in fan] == [WaveKind.PHASE_TRANSITION]

    def test_free_to_congested_equal_marker_null_contact(self, laws):
        ul = free(laws, 0.31)          # in the high free band
        w2 = laws.w2(ul)
        ur = cong(laws, w2, 0.01)
        fan = pt.solve_coupled(laws, ul, ur)
        assert [w.kind for w in fan] == [WaveKind.PHASE_TRANSITION]
        # contact strength below threshold was dropped
        assert laws.coord_distance(fan.waves[0].right, ur) < 1e-12

    def test_low_free_maps_to_band_floor(self, laws):
        ul = free(laws, 0.1)
        ur = cong(laws, 0.13, 0.012)
        fan = pt.solve_coupled(laws, ul, ur)
        pt_wave = fan.waves[0]
        assert pt_wave.kind == WaveKind.PHASE_TRANSITION
        assert laws.w2(pt_wave.right) == pytest.approx(laws.W_c, abs=1e-12)

    def test_congested_to_free_three_waves(self, laws):
        ul = cong(laws, 0.131, 0.004)
        ur = laws.vacuum()
        fan = pt.solve_coupled(laws, ul, ur)
        kinds = [w.kind for w in fan]
        assert kinds == [WaveKind.RAREFACTION, WaveKind.PHASE_TRANSITION,
                         WaveKind.RAREFACTION]
        assert fan_is_speed_ordered(fan)

    def test_delegates_within_phase(self, laws, rng):
        for _ in range(20):
            a = random_state(laws, rng, vacuum_prob=0.0, free_prob=1.0)
            b = random_state(laws, rng, vacuum_prob=0.0, free_prob=1.0)
            fa = pt.solve_coupled(laws, a, b)
            fb = pt.solve_lwr(laws, a, b)
            for xi in fa.sample_speeds():
                assert laws.coord_distance(fa.eval(xi), fb.eval(xi)) < 1e-12
        for _ in range(20):
            a = random_state(laws, rng, vacuum_prob=0.0, free_prob=0.0)
            b = random_state(laws, rng, vacuum_prob=0.0, free_prob=0.0)
            fa = pt.solve_coupled(laws, a, b)
            fb = pt.solve_arz(laws, a, b)
            for xi in fa.sample_speeds():
                assert laws.coord_distance(fa.eval(xi), fb.eval(xi)) < 1e-12

    def test_fan_invariants_random(self, laws, rng):
        for _ in range(300):
            a = random_state(laws, rng)
            b = random_state(laws, rng)
            fan = pt.solve_coupled(laws, a, b)
            assert fan_is_speed_ordered(fan)
            assert check_rankine_hugoniot(laws, fan, tol=1e-12)
            n_pt = sum(1 for w in fan if w.kind == WaveKind.PHASE_TRANSITION)
            assert n_pt <= 1
            # outside the fan the sampled state equals the end states
            if fan.waves:
                lo = fan.waves[0].speed_lo
                hi = fan.waves[-1].speed_hi
                assert laws.states_equal(fan.eval(lo - 1.0), a, tol=1e-12)
                assert laws.states_equal(fan.eval(hi + 1.0), b, tol=1e-12)


class TestConsistency:
    def test_middle_on_fan(self, laws, rng):
        for _ in range(100):
            a = random_state(laws, rng)
            b = random_state(laws, rng)
            fan = pt.solve_coupled(laws, a, b)
            xbar = rng.uniform(-0.3, 0.1)
            um = fan.eval(xbar)
            ok, witness = pt.check_consistency(laws, a, um, b, xbar)
            assert ok, (a, um, b, xbar, witness)

    def test_vacuous_when_premises_fail(self, laws):
        a = free(laws, 0.05)
        b = cong(laws, 0.13, 0.01)
        um = cong(laws, 0.129, 0.019)   # not on the fan and not gluable
        ok, _ = pt.check_consistency(laws, a, um, b, 0.0)
        assert ok
