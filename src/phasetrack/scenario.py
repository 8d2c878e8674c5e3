"""Traffic-light release experiment: a stopped two-class queue discharging
through a light at x = 0.

Provides the model laws and datum, the closed-form interaction points and
last-passage time, and a piecewise-exact reference solution (centered fans,
a non-centered fan obtained by projecting along characteristic rays, and
the two curved discontinuities evaluated in closed form).
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import PiecewiseConstantDatum, RunResult
from .errors import NotReached, OutOfWindow
from .model import ModelLaws, Phase, TrafficState, laws_from_config
from .numerics import invert_increasing
from .riemann import sigma


@dataclass(frozen=True)
class TrafficLightConfig:
    gamma: float = 2.0
    v_max: float = 1.0 / 20.0
    w_max: float = 4.0 / 30.0
    w_c: float = 1.0 / 8.0
    v_c: float = 0.02
    x1: float = -10.0
    x2: float = -7.0

    def __post_init__(self):
        if not (self.x1 < self.x2 < 0.0):
            raise ValueError("need x1 < x2 < 0")


def build_scenario(cfg: TrafficLightConfig) -> tuple[ModelLaws, PiecewiseConstantDatum]:
    """Laws with linear free speed and power pressure, and the stopped-queue
    datum: heavy class on [x1, x2), light class on [x2, 0), vacuum outside."""
    laws = laws_from_config(dict(v_max=cfg.v_max, r=1.0, gamma=cfg.gamma,
                                 w_c=cfg.w_c, w_max=cfg.w_max, v_c=cfg.v_c))
    vac = laws.vacuum()
    datum = PiecewiseConstantDatum(
        (cfg.x1, cfg.x2, 0.0),
        (vac,
         TrafficState(laws.R_c, 0.0, Phase.CONGESTED),
         TrafficState(laws.R_max, 0.0, Phase.CONGESTED),
         vac))
    return laws, datum


@dataclass
class ExactEventTable:
    a2: tuple[float, float]
    b2: tuple[float, float]
    c2: tuple[float, float]
    a1: tuple[float, float]
    b1: tuple[float, float]
    c1: tuple[float, float]
    t_star: float
    t_d2: float
    t_d1: float
    t_d1_construction: float
    structural_ok: bool
    merge: tuple[float, float] | None
    t_last: float            # last-passage time of the full exact picture
    speeds: dict = field(default_factory=dict)


class _Curves:
    """The construction's two curved pieces, evaluated in closed form.

    On the main fan v = (gamma W_max + x/t) / (1 + gamma), or x/t + v_ref
    for the log law, so the accelerating contact c2 (x' = v) solves a
    linear equation: x = W_max t + C t^q with q = 1 / (1 + gamma), or
    x = t (C + v_ref ln t).  A ray of the re-emitted fan leaves c2(s) with
    the source speed v0(s) = c2'(s) and the slope `ray_slope(v0)`.  The
    phase boundary pt1 meets it at (s + tau, c2(s) + tau lam) and moves at
    v0(s); since c2' = v0 this gives tau' (lam - v0) + tau lam' = 0, so
    tau(s) = tau(t_a2) ((W_c - v0(t_a2)) / (W_c - v0(s)))^((1 + gamma) / gamma),
    or tau(t_a2) exp((v0(s) - v0(t_a2)) / v_ref).  The source times s run
    over [t_a2, t_b2]; b2 and b1 are the points at s = t_b2, where c2
    reaches the fan's last ray xi_b.  pt1's time and a ray's position at a
    fixed time both increase with s, so `pt1_pos` and `project` find their
    source time by bisection.
    """

    def __init__(self, laws: ModelLaws, cfg: TrafficLightConfig):
        self.laws = laws
        self.cfg = cfg
        self.lam_rmax = laws.lambda1(TrafficState(laws.R_max, 0.0, Phase.CONGESTED))
        self.u_wmax_vc = TrafficState(laws.p_inv(laws.W_max - laws.V_c), laws.V_c,
                                      Phase.CONGESTED)
        self.u_wc_vc = TrafficState(laws.p_inv(laws.W_c - laws.V_c), laws.V_c,
                                    Phase.CONGESTED)
        self.xi_b = laws.lambda1(self.u_wmax_vc)
        self.lam_last = laws.lambda1(self.u_wc_vc)
        self.t_a2 = cfg.x2 / self.lam_rmax
        self.t_a1 = self.t_a2 + (cfg.x1 - cfg.x2) / laws.lambda1(
            TrafficState(laws.R_c, 0.0, Phase.CONGESTED))

        self.lam_first = self.ray_slope(0.0)

        p, w, t_a2 = laws.p, laws.W_max, self.t_a2
        if p.gamma == 0.0:
            self.c = cfg.x2 / t_a2 - p.v_ref * math.log(t_a2)
            self.t_b2 = math.exp((self.xi_b - self.c) / p.v_ref)
        else:
            self.q = 1.0 / (1.0 + p.gamma)
            self.c = (cfg.x2 - w * t_a2) / t_a2 ** self.q
            self.t_b2 = (self.c / (self.xi_b - w)) ** (1.0 + 1.0 / p.gamma)
        self.v0_a2 = self.source_speed(t_a2)
        self.tau_a2 = self.t_a1 - t_a2
        self.x_b2 = self.c2_pos(self.t_b2)
        self.t_b1, self.x_b1 = self.pt1_at(self.t_b2)

    # main centered fan, where lambda_1 = W_max - g(rho) = xi with
    # g = p + rho p'; the scenario's power law has g = (1 + gamma) p, its
    # log law g = p + v_ref, so g inverts in closed form
    def _fan_rho(self, xi: float) -> float:
        laws = self.laws
        p = laws.p
        y = laws.W_max - xi
        rho = p.inv(y - p.v_ref) if p.gamma == 0.0 else p.inv(y / (1.0 + p.gamma))
        return min(max(rho, laws.rho_free_crit), laws.R_max)

    def fan_state(self, xi: float) -> TrafficState:
        rho = self._fan_rho(xi)
        return TrafficState(rho, self.laws.W_max - self.laws.p(rho), Phase.CONGESTED)

    def c2_pos(self, t: float) -> float:
        """The contact c2 at time t, which is its own source time."""
        p = self.laws.p
        if p.gamma == 0.0:
            return t * (self.c + p.v_ref * math.log(t))
        return self.laws.W_max * t + self.c * t ** self.q

    def source_speed(self, s: float) -> float:
        """v0(s) = c2'(s), the speed of the rays leaving c2 at s."""
        p = self.laws.p
        if p.gamma == 0.0:
            return self.c + p.v_ref * (math.log(s) + 1.0)
        return self.laws.W_max + self.q * self.c * s ** (self.q - 1.0)

    def pt1_at(self, s: float) -> tuple[float, float]:
        """pt1's point (s + tau, c2(s) + tau lam) on the ray from c2(s)."""
        p, v = self.laws.p, self.source_speed(s)
        if p.gamma == 0.0:
            growth = math.exp((v - self.v0_a2) / p.v_ref)
        else:
            w_c = self.laws.W_c
            growth = ((w_c - self.v0_a2) / (w_c - v)) ** (1.0 + 1.0 / p.gamma)
        tau = self.tau_a2 * growth
        return s + tau, self.c2_pos(s) + tau * self.ray_slope(v)

    def ray_slope(self, v0: float) -> float:
        """Slope v0 - rho p'(rho) of the re-emitted ray whose state has speed
        v0 and marker W_c: rho p' is gamma p = gamma (W_c - v0) for the
        power law and v_ref for the log law."""
        p = self.laws.p
        if p.gamma == 0.0:
            return v0 - p.v_ref
        return (1.0 + p.gamma) * v0 - p.gamma * self.laws.W_c

    def project(self, t: float, x: float) -> float:
        """Source time whose ray passes through (t, x); clamped to the fan."""
        return invert_increasing(
            lambda s: self.c2_pos(s) + (t - s) * self.ray_slope(self.source_speed(s)),
            self.t_a2, self.t_b2, x)

    def reemitted_state(self, t: float, x: float) -> TrafficState:
        laws = self.laws
        v = self.source_speed(self.project(t, x))
        return TrafficState(laws.p_inv(laws.W_c - v), v, Phase.CONGESTED)

    def first_ray(self, t: float) -> float:
        return self.cfg.x2 + (t - self.t_a2) * self.lam_first

    def last_ray(self, t: float) -> float:
        return self.x_b2 + (t - self.t_b2) * self.lam_last

    def pt1_pos(self, t: float) -> float:
        s = invert_increasing(lambda s: self.pt1_at(s)[0], self.t_a2, self.t_b2, t)
        return self.pt1_at(s)[1]


def closed_form_table(cfg: TrafficLightConfig, laws: ModelLaws | None = None,
                      _curves: _Curves | None = None) -> ExactEventTable:
    """Interaction points and passage times of the exact construction.

    a-points and the t_star / c2 / d2 / d1 values come from the closed
    forms, the b-points and c1 from the closed forms of the two curved
    paths (`_Curves`).
    The car-count identity ties d1 to d2 and t_star by construction.  When
    the two trailing free-phase shocks meet upstream of the light the
    closed-form picture is inconsistent; the table then reports the merge
    point and the last-passage time of the merged front.

    `laws` are those of `build_scenario(cfg)`, for a caller that has built
    them already.
    """
    if _curves is None:
        _curves = _Curves(laws if laws is not None else build_scenario(cfg)[0], cfg)
    cur, laws = _curves, _curves.laws
    vf1 = laws.v_f(laws.rho_free_crit)
    u_f2 = TrafficState(laws.rho_free_max, laws.V_f, Phase.FREE)
    u_f1 = TrafficState(laws.rho_free_crit, vf1, Phase.FREE)
    sig_pt = sigma(cur.u_wmax_vc, u_f2)
    sig_s = sigma(u_f1, u_f2)
    sig_pt2p = sigma(cur.u_wc_vc, u_f1)

    t_star = laws.R_max * abs(cfg.x2) / (laws.rho_free_max * laws.V_f)
    t_c2 = laws.R_max * abs(cfg.x2) / (laws.rho_free_max * (laws.V_f - sig_pt))
    x_c2 = sig_pt * t_c2
    t_d2 = t_c2 - x_c2 / sig_s
    t_d1 = ((cfg.x2 - cfg.x1) * laws.R_c - cfg.x2 * laws.R_max) / (laws.rho_free_crit * vf1) \
        + (1.0 - sig_pt / sig_s) * (1.0 - laws.rho_free_max * laws.V_f
                                    / (laws.rho_free_crit * vf1)) \
        * laws.R_max * abs(cfg.x2) / (laws.rho_free_max * (laws.V_f - sig_pt))

    # c1: the straight tail of the left phase boundary meets the upstream
    # free-phase boundary emitted at c2
    t_c1 = (x_c2 - sig_pt2p * t_c2 - cur.x_b1 + laws.V_c * cur.t_b1) / (laws.V_c - sig_pt2p)
    x_c1 = cur.x_b1 + laws.V_c * (t_c1 - cur.t_b1)
    t_d1_constr = t_c1 - x_c1 / vf1

    # do the two trailing shocks meet before x = 0?
    t_m = (x_c2 - sig_s * t_c2 - x_c1 + vf1 * t_c1) / (vf1 - sig_s)
    x_m = x_c1 + vf1 * (t_m - t_c1)
    meets = (t_m > t_c1 and x_m < 0.0)
    if meets:
        t_last = t_m - x_m / laws.V_f
        merge = (t_m, x_m)
    else:
        t_last = t_d1
        merge = None
    return ExactEventTable(
        a2=(cur.t_a2, cfg.x2), b2=(cur.t_b2, cur.x_b2), c2=(t_c2, x_c2),
        a1=(cur.t_a1, cfg.x1), b1=(cur.t_b1, cur.x_b1), c1=(t_c1, x_c1),
        t_star=t_star, t_d2=t_d2, t_d1=t_d1, t_d1_construction=t_d1_constr,
        structural_ok=not meets, merge=merge, t_last=t_last,
        speeds=dict(pt2=sig_pt, s2=sig_s, pt2_prime=sig_pt2p, s1=vf1,
                    merged=laws.V_f))


class ExactSolution:
    """Pointwise evaluator for the exact construction.

    `scenario` is the `(laws, datum)` of `build_scenario(cfg)`, for a
    caller that has built them already."""

    def __init__(self, cfg: TrafficLightConfig,
                 scenario: tuple[ModelLaws, PiecewiseConstantDatum] | None = None):
        self.cfg = cfg
        self.laws, self.datum = scenario if scenario is not None else build_scenario(cfg)
        self.curves = _Curves(self.laws, cfg)
        self.table = closed_form_table(cfg, _curves=self.curves)
        laws = self.laws
        self.vac = laws.vacuum()
        self.u_rc = TrafficState(laws.R_c, 0.0, Phase.CONGESTED)
        self.u_rmax = TrafficState(laws.R_max, 0.0, Phase.CONGESTED)
        self.u_f2 = TrafficState(laws.rho_free_max, laws.V_f, Phase.FREE)
        self.u_f1 = TrafficState(laws.rho_free_crit, laws.v_f(laws.rho_free_crit),
                                 Phase.FREE)
        self.lam_f2 = laws.lambda_free(laws.rho_free_max)
        t = self.table
        caps = [3.0 * t.t_last]
        s2 = t.speeds["s2"]
        if s2 > self.lam_f2:   # the light-side shock eventually enters the fan
            tc2, xc2 = t.c2
            caps.append((xc2 - s2 * tc2) / (self.lam_f2 - s2))
        if t.merge is not None:
            tm, xm = t.merge
            caps.append((xm - laws.V_f * tm) / (self.lam_f2 - laws.V_f))
        self.window_end = min(caps)

    # fan on the outflow side
    def _free_fan_state(self, xi: float) -> TrafficState:
        laws = self.laws
        xi = min(max(xi, self.lam_f2), laws.V_max)
        # the scenario's free speed is linear, so lambda_free(rho) =
        # V_max + 2 v_f' rho; 0.0 first, as max keeps its first argument on a
        # tie, so xi = V_max gives +0.0 rather than -0.0
        rho = min(max(0.0, 0.5 * (xi - laws.V_max) / laws.v_f.deriv(0.0)),
                  laws.rho_free_max)
        return TrafficState(rho, laws.v_f(rho), Phase.FREE)

    def _segments(self, t: float):
        """Ordered boundary positions and the region list at time t."""
        cfg, cur, tab, laws = self.cfg, self.curves, self.table, self.laws
        t_c2, x_c2 = tab.c2
        t_c1, x_c1 = tab.c1
        sp = tab.speeds
        bounds: list[float] = []
        regions: list = [self.vac]

        def add(x, r):
            bounds.append(x)
            regions.append(r)

        if t <= t_c1:
            if t <= cur.t_a2:
                add(cfg.x1, self.u_rc)
                add(cfg.x2, self.u_rmax)
                add(cur.lam_rmax * t, "fan_main")
                add(cur.xi_b * t, cur.u_wmax_vc)
            else:
                if t <= cur.t_a1:
                    add(cfg.x1, self.u_rc)
                    add(cur.first_ray(t), "fan_reemitted")
                elif t <= cur.t_b1:
                    add(cur.pt1_pos(t), "fan_reemitted")
                if t <= cur.t_b2:
                    add(cur.c2_pos(t), "fan_main")
                    add(cur.xi_b * t, cur.u_wmax_vc)
                else:
                    if t <= cur.t_b1:
                        add(cur.last_ray(t), cur.u_wc_vc)
                    else:
                        add(cur.x_b1 + laws.V_c * (t - cur.t_b1), cur.u_wc_vc)
                    if t <= t_c2:
                        add(cur.x_b2 + laws.V_c * (t - cur.t_b2), cur.u_wmax_vc)
            if t <= t_c2:
                add(sp["pt2"] * t, self.u_f2)
            else:
                add(x_c2 + sp["pt2_prime"] * (t - t_c2), self.u_f1)
                add(x_c2 + sp["s2"] * (t - t_c2), self.u_f2)
        else:
            tm = tab.merge
            if tm is not None and t > tm[0]:
                add(tm[1] + laws.V_f * (t - tm[0]), self.u_f2)
            else:
                add(x_c1 + sp["s1"] * (t - t_c1), self.u_f1)
                add(x_c2 + sp["s2"] * (t - t_c2), self.u_f2)
        add(self.lam_f2 * t, "fan_free")
        add(laws.V_max * t, self.vac)
        return bounds, regions

    def evaluate(self, t: float, x: float) -> TrafficState:
        return self.profile(t, (x,))[0]

    def breakpoints(self, t: float) -> list[float]:
        bounds, _ = self._segments(t)
        return bounds

    def profile(self, t: float, xs) -> list[TrafficState]:
        """The states at (t, x) for x in xs, from one region list of t."""
        if not (0.0 <= t <= self.window_end):
            raise OutOfWindow(f"t={t} outside [0, {self.window_end}]")
        if t == 0.0:
            return [self.datum.evaluate(x) for x in xs]
        bounds, regions = self._segments(t)
        out = []
        for x in xs:
            r = regions[_bisect.bisect_right(bounds, x)]
            if isinstance(r, str):
                if r == "fan_main":
                    r = self.curves.fan_state(x / t)
                elif r == "fan_reemitted":
                    r = self.curves.reemitted_state(t, x)
                else:
                    r = self._free_fan_state(x / t)
            out.append(r)
        return out


def last_passage_time(run: RunResult) -> float:
    """Arrival time at the light, at x = 0, of the trailing vacuum-backed front."""
    crossings = []
    for _, (t0, t1, x0, speed), (rl, _, cl, _), (rr, *_) in \
            run.history.sides("t0", "t1", "x0", "speed"):
        pick = np.flatnonzero(~cl & (rl <= 1e-12) & (rr > 1e-12) & (speed != 0.0))
        tc = t0[pick] + (0.0 - x0[pick]) / speed[pick]
        crossings += tc[(t0[pick] <= tc) & (tc <= t1[pick])].tolist()
    probe = run.final.evaluate(0.0 - 1e-6)
    if not crossings or probe.rho > 1e-12:
        raise NotReached("the queue has not fully passed the light in the run window")
    return max(crossings)
