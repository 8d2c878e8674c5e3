"""Code kept apart from the package, for the tests alone.

Plain versions of package routines, as references: `ModelLaws.p_inv` on a
law without a closed-form inverse must return the bits of the plain
bisection, `_Curves.project` the clamps of the plain bisection over the
ray position (`project_by_ray_pos`) and a source time close to its roots,
the closed-form curved paths of `_Curves` the b-points of the RK4
integration they replaced, `invariants.audit_run` and `functional_violations` the
messages of their per-row loops, the history's
column readers (`step_deficit_totals`, `last_passage_time`,
`weak_residual`, `entropy_report`, `RunResult.diagram_at`) the bits of
their record walks, the array sweeps of `ModelLaws` the first violation of
their per-sample loops, `grid.node_fan` the jumps of its path-building
form, and the functional terms of each `grid.node_fan` jump those of
`front_measures`, and `ModelLaws.R_k` over arrays the bits of its scalar
body (`R_k`).

Oracles the package does not ship: the scalar jump rule on two states
(`jump_residuals`), which `column_residuals` computes over the history's
columns; the exact Riemann solver (`solve_lwr`, `solve_arz`,
`solve_coupled`, with `check_consistency` for its gluing implications, and
its own wave kind for exact centered fans, `FanKind`), which the mesh fans
of `run` converge to; the G1-G3
admissibility classes of phase boundaries (`classify_transition`); the
extended entropy pair on states (`entropy_pair`, `entropy_production`)
and the constant of the fan-step deficit bound
(`step_entropy_deficit_bound`); the traffic-light car count
(`car_count_residual`); the ray position of `_Curves` (`ray_pos`); a
record's line (`position`, `alive_at`); and `CustomLaw`, a law from plain
callables with no closed-form inverse."""

import bisect
import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from phasetrack.errors import OutOfDomain, PhasetrackError
from phasetrack.grid import GridMesh, Node
from phasetrack.model import STATE_TOL, ModelLaws, Phase, TrafficState
from phasetrack.numerics import invert_decreasing, invert_increasing
from phasetrack.riemann import WaveKind, sigma


def jump_residuals(speed, left, right, W_left=None, W_right=None):
    """(mass residual, momentum residual) of a jump between two states;
    the momentum residual is None unless the conserved markers max(w2,
    W_c) of both sides are given.  The scalar jump rule the package's
    `column_residuals` and `rh_residual` compute in the same float
    operations."""
    mass = speed * (right.rho - left.rho) - (right.flow - left.flow)
    if W_left is None:
        return mass, None
    yl = left.rho * W_left
    yr = right.rho * W_right
    return mass, speed * (yr - yl) - (yr * right.v - yl * left.v)


def plain_invert_increasing(f, lo, hi, target, tol=1e-12):
    """Bisection for increasing f on [lo, hi], clamped at the ends."""
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


def ray_pos(cur, t0, t):
    """Position at time t of the re-emitted ray of `_Curves` cur that
    leaves the contact c2 at source time t0: c2(t0) + (t - t0) lam(t0),
    both from their closed forms."""
    return cur.c2_pos(t0) + (t - t0) * cur.ray_slope(cur.source_speed(t0))


def project_by_ray_pos(cur, t, x):
    """The plain bisection over `ray_pos`, with its 80-step budget:
    `_Curves.project` must return its clamps and lie close to its roots."""
    lo, hi = cur.t_a2, cur.t_b2
    if ray_pos(cur, lo, t) >= x:
        return lo
    if ray_pos(cur, hi, t) <= x:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ray_pos(cur, mid, t) < x:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return 0.5 * (lo + hi)


RK4_STEPS = 1024


def rk4_path(f, t0, x0, stop, h_guess):
    """Fixed-step RK4 of x' = f(t, x) until `stop` changes sign, then a
    fresh pass with (t_b - t0)/RK4_STEPS steps and a bisected endpoint,
    as `_Curves` integrated its two curved paths before they had closed
    forms.  Returns the endpoint (t_b, x_b)."""
    def advance(t, x, h):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        return x + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    t, x = t0, x0
    while stop(t, x) < 0.0:
        t, x = t + h_guess, advance(t, x, h_guess)
        if t > 1e6:
            raise RuntimeError("curved path never reaches its stop condition")
    t_hi = t
    h = (t_hi - t0) / RK4_STEPS
    ts, xs = [t0], [x0]
    t, x = t0, x0
    for _ in range(RK4_STEPS):
        t, x = t + h, advance(t, x, h)
        ts.append(t)
        xs.append(x)

    # endpoint by bisection on the dense path, one RK4 substep for accuracy
    def value(tq: float) -> float:
        i = min(max(bisect.bisect_right(ts, tq) - 1, 0), len(ts) - 2)
        return advance(ts[i], xs[i], tq - ts[i])

    lo, hi = t0, t_hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if stop(mid, value(mid)) < 0.0:
            if lo == mid:
                break       # (lo, hi) is a fixed point of the loop
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    t_b = 0.5 * (lo + hi)
    return t_b, value(t_b)


def fan_speed(cur, xi):
    """Speed of the main fan's state on the ray xi, clamped to the fan:
    the contact c2 solves x' = fan_speed(cur, x / t)."""
    laws = cur.laws
    return laws.W_max - laws.p(cur._fan_rho(min(max(xi, cur.lam_rmax), cur.xi_b)))


def rk4_curves(cur):
    """A copy of `cur` whose b-points come from RK4 integrations of the two
    curved paths' ODEs: the contact c2 from a2 at the main fan's speed until
    it reaches the fan's last ray, then the phase boundary pt1 from a1 at
    the re-emitted fan's speed (read through `cur`'s ray projection) until
    it reaches the last re-emitted ray from the integrated b2.
    `closed_form_table(cfg, _curves=copy)` then gives the c1 they imply."""
    ref = copy.copy(cur)
    ref.t_b2, ref.x_b2 = rk4_path(
        lambda t, x: fan_speed(cur, x / t), cur.t_a2, cur.cfg.x2,
        lambda t, x: x - cur.xi_b * t, cur.t_a2 / 64.0)
    ref.t_b1, ref.x_b1 = rk4_path(
        lambda t, x: cur.source_speed(cur.project(t, x)), cur.t_a1,
        cur.cfg.x1,
        lambda t, x: x - ref.last_ray(t), (ref.t_b2 - cur.t_a2) / 16.0)
    return ref


def audit_run_per_record(res):
    """`invariants.audit_run` as it was before it read the history's
    columns: one Python pass over the records, one marker evaluation per
    state object.  The body is kept unchanged but for `momentum_conserved`'s
    arguments, now the two sides' congested flags."""
    from phasetrack.invariants import (MONO_TOL, functional_violations, momentum_conserved,
                                       snapshot_violations)

    bad = functional_violations(res.log, res.mesh.eps_w)
    bad += snapshot_violations(res.initial) + snapshot_violations(res.final)
    laws = res.laws
    # records share a few thousand state objects: one marker evaluation each
    markers: dict[int, float] = {}

    def marker(u):
        w = markers.get(id(u))
        if w is None:
            w = markers[id(u)] = laws.marker_W(u)
        return w

    for rec in res.records:
        left, right = rec.left, rec.right
        if momentum_conserved(laws, left.phase is Phase.CONGESTED,
                              right.phase is Phase.CONGESTED):
            mass, mom = jump_residuals(rec.speed, left, right, marker(left), marker(right))
        else:
            mass, mom = jump_residuals(rec.speed, left, right)
        if abs(mass) > MONO_TOL:
            bad.append(f"mass jump condition violated ({mass}) on a front born t={rec.t0}")
            break
        if mom is not None and abs(mom) > MONO_TOL:
            bad.append(f"momentum jump condition violated ({mom}) on a front born t={rec.t0}")
            break
    return bad


def functional_violations_per_row(log, eps_w, first=1):
    """`invariants.functional_violations` as it was before it flagged rows
    with numpy: one Python pass over the log rows, the body unchanged."""
    from phasetrack.invariants import MONO_TOL

    bad = []
    for i in range(first, len(log.ts)):
        t = log.ts[i]
        dtv = log.tv[i] - log.tv[i - 1]
        dtemple = log.temple[i] - log.temple[i - 1]
        if dtv > MONO_TOL:
            bad.append(f"TV increased by {dtv} at t={t}")
        if dtemple > MONO_TOL:
            bad.append(f"wave potential increased by {dtemple} at t={t}")
        if log.waves[i] > log.waves[i - 1] and dtemple > -eps_w + MONO_TOL:
            bad.append(f"wave count grew without paying a quantum "
                       f"(potential changed by {dtemple}) at t={t}")
        dpt = log.phase_transitions[i] - log.phase_transitions[i - 1]
        if dpt > 0 or dpt % 2 != 0:
            bad.append(f"phase-transition count changed by {dpt} at t={t}")
    return bad


def step_deficit_totals_per_record(run):
    """`analysis.step_deficit_totals` as it was before it read the history's
    columns: one pass over the records, the entropy production of the two
    states at three interior reference speeds.  The body is kept unchanged."""
    def step_deficit(laws, rec):
        if rec.left.phase is not Phase.CONGESTED or rec.right.phase is not Phase.CONGESTED:
            return 0.0
        vl, vr = rec.left.v, rec.right.v
        lo, hi = min(vl, vr), max(vl, vr)
        worst = 0.0
        for q in (0.25, 0.5, 0.75):
            k = lo + (hi - lo) * q
            u = entropy_production(laws, rec.speed, rec.left, rec.right, k)
            if -u > worst:
                worst = -u
        return worst

    weighted = unweighted = 0.0
    for rec in run.records:
        if rec.kind is WaveKind.RAREFACTION_STEP:
            d = step_deficit(run.laws, rec)
            weighted += d * (rec.t1 - rec.t0)
            unweighted += d
    return weighted, unweighted


def last_passage_time_per_record(run, x_light=0.0):
    """`scenario.last_passage_time` as it was before it read the history's
    columns, with the record's crossing time written out."""
    from phasetrack.errors import NotReached

    crossings = []
    for rec in run.records:
        if rec.left.phase is Phase.FREE and rec.left.rho <= 1e-12 and rec.right.rho > 1e-12:
            if rec.speed == 0.0:
                continue
            tc = rec.t0 + (x_light - rec.x0) / rec.speed
            if rec.t0 <= tc <= rec.t1:
                crossings.append(tc)
    probe = run.final.evaluate(x_light - 1e-6)
    if not crossings or probe.rho > 1e-12:
        raise NotReached("the queue has not fully passed the light in the run window")
    return max(crossings)


def weak_residual_per_record(run, phi, nodes_per_segment=32):
    """`analysis.weak_residual` as it was before it read the history's
    columns: one pass over the records, `jump_residuals` on their states.
    The body is kept unchanged."""
    from phasetrack.errors import UnsupportedTestFunction
    from phasetrack.numerics import gauss_integrate

    t_lo, t_hi = phi.t_support
    if t_lo < 0.0 or t_hi > run.t_end:
        raise UnsupportedTestFunction(
            f"support [{t_lo}, {t_hi}] exceeds the run window [0, {run.t_end}]")
    laws = run.laws
    res_mass = 0.0
    res_mom = 0.0
    for rec in run.records:
        a = max(rec.t0, t_lo)
        b = min(rec.t1, t_hi)
        if b <= a:
            continue
        dm, dq = jump_residuals(rec.speed, rec.left, rec.right,
                                laws.marker_W(rec.left), laws.marker_W(rec.right))
        if dm == 0.0 and dq == 0.0:
            continue
        panels = min(64, max(1, math.ceil((b - a) / (0.25 * phi.t_radius))))
        w = 0.0
        h = (b - a) / panels
        for j in range(panels):
            w += gauss_integrate(lambda t: phi(t, position(rec, t)),
                                 a + j * h, a + (j + 1) * h, nodes_per_segment)
        res_mass += float(dm * w)
        res_mom += float(dq * w)
    return res_mass, res_mom


def entropy_report_per_record(run, k_grid=None):
    """`analysis.entropy_report` as it was before it read the history's
    columns: one pass over the records, the entropy production of the two
    states at every k by `entropy_production`.  The report's rows are the
    (t0, t1, x0, kind, k, upsilon) tuples its `EntropyRecord`s gave."""
    from phasetrack.analysis import EntropyReport, entropy_k_grid

    laws = run.laws
    if k_grid is None:
        k_grid = entropy_k_grid(laws, run.mesh.eps_v)
    rep = EntropyReport(k_grid=k_grid)
    for rec in run.records:
        is_step = rec.kind is WaveKind.RAREFACTION_STEP
        for k in k_grid:
            u = entropy_production(laws, rec.speed, rec.left, rec.right, k)
            rep.records.append((rec.t0, rec.t1, rec.x0, rec.kind.value, k, u))
            if not is_step:
                rep.min_sharp = min(rep.min_sharp, u)
    return rep


def diagram_at_per_record(res, t):
    """`RunResult.diagram_at` as it was before it read the history's
    columns: the records alive at t, stably sorted by (position, speed)."""
    from phasetrack.engine import DiagramFront, FrontDiagram
    from phasetrack.errors import OutOfWindow

    if not (0.0 <= t <= res.t_end):
        raise OutOfWindow(f"t={t} outside [0, {res.t_end}]")
    live = [r for r in res.records if alive_at(r, t)]
    live.sort(key=lambda r: (position(r, t), r.speed))
    fronts = [DiagramFront(position(r, t), r.speed, r.left, r.right, r.kind) for r in live]
    left = live[0].left if live else res.final.left_state
    return FrontDiagram(t, left, fronts)


def sample_points_list(lo, hi, n=2048):
    """`model._sample_points` as a list of Python floats."""
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n + 1)
    pts = [lo + i * step for i in range(1, n + 1)]
    return [lo] + pts + [hi]


def per_sample_laws():
    """A `ModelLaws` subclass whose hypothesis sweeps are the per-sample
    loops the array sweeps replaced: one scalar call per condition and
    sample, stopping at the first failure.  Construction order, R_max and
    R_c are the package's."""
    from phasetrack.errors import HypothesisViolation
    from phasetrack.model import _GRACE, ModelLaws

    class PerSampleLaws(ModelLaws):
        def _validate_h1(self):
            vf = self.v_f
            if vf(self.rho_free_max) <= 0:
                raise HypothesisViolation("H1", self.rho_free_max, "v_f(R_f'') <= 0")
            for r in sample_points_list(0.0, self.rho_free_max):
                if vf.deriv(r) > _GRACE:
                    raise HypothesisViolation("H1", r, "v_f' > 0")
                if vf(r) + r * vf.deriv(r) <= _GRACE:
                    raise HypothesisViolation("H1", r, "v_f + rho v_f' <= 0")
                if 2.0 * vf.deriv(r) + r * vf.deriv2(r) > _GRACE:
                    raise HypothesisViolation("H1", r, "2 v_f' + rho v_f'' > 0")

        def _validate_h2(self, lo, hi):
            p = self.p
            for r in sample_points_list(lo, hi):
                if p.deriv(r) <= _GRACE:
                    raise HypothesisViolation("H2", r, "p' <= 0")
                if 2.0 * p.deriv(r) + r * p.deriv2(r) <= _GRACE:
                    raise HypothesisViolation("H2", r, "2 p' + rho p'' <= 0")

        def _validate_h3(self):
            for r in sample_points_list(self.rho_free_crit, self.rho_free_max):
                if self.v_f.deriv(r) + self.p.deriv(r) <= _GRACE:
                    raise HypothesisViolation("H3", r, "v_f + p not increasing")
                if self.v_f(r) >= r * self.p.deriv(r) - _GRACE:
                    raise HypothesisViolation("H3", r, "v_f >= rho p'")

    return PerSampleLaws


def step_entropy_deficit_bound(laws, samples=1025):
    """Dense-sampling evaluation of max over the congested densities of
    2 + rho p'' / p', the constant in the per-jump deficit bound."""
    lo = laws.rho_congested_min
    hi = laws.R_max
    worst = -math.inf
    for i in range(samples):
        r = lo + (hi - lo) * i / (samples - 1)
        worst = max(worst, 2.0 + r * laws.p.deriv2(r) / laws.p.deriv(r))
    return worst


def front_measures(mesh: GridMesh, l: int, r: int) -> tuple[float, float, int]:
    """(tv, temple, is_phase_transition) contributions of the front between
    the nodes of state ids l and r: the engine's per-front computation
    before each jump of grid.node_fan carried its own."""
    stride = mesh.id_stride
    ivl, ivr = l // stride, r // stride
    v_values, w_col = mesh.v_values, mesh.w_col
    dw1 = abs(v_values[ivl] - v_values[ivr])
    dw2 = abs(w_col[l % stride] - w_col[r % stride])
    tv = dw1 + dw2
    # the marker drop of a slow contact is counted twice once it exceeds a
    # full quantum (on one velocity line, l - r is the drop in marker index)
    delta = (ivl == ivr and ivl <= mesh.iv_vc and (l - r) >= 2)
    temple = tv + (dw2 if delta else 0.0)
    return tv, temple, 1 if (ivl == mesh.iv_free) != (ivr == mesh.iv_free) else 0


# grid.node_fan before its congested-congested case emitted its jumps
# directly: every case builds its path of nodes first


def _congested_steps(a: Node, b: Node) -> list[tuple[Node, WaveKind]]:
    """Rarefaction steps from node a up the velocity nodes to b (same marker)."""
    iw = a[1]
    return [((iv, iw), WaveKind.RAREFACTION_STEP) for iv in range(a[0] + 1, b[0] + 1)]


def _free_steps(iv_free: int, a: Node, b: Node, kind: WaveKind) -> list[tuple[Node, WaveKind]]:
    """Steps from free node a down the marker nodes to free node b.

    Decreasing density <=> decreasing marker index on the free line.
    Keeping every jump at one marker quantum (also for the contacts of a
    constant free speed) is what lets the wave potential only ever see
    single-quantum drops arriving at a phase boundary."""
    steps = [((iv_free, iw), kind) for iw in range(a[1] - 1, max(b[1], 0), -1)]
    steps.append((b, kind))
    return steps


def node_fan(mesh: GridMesh, l: Node, r: Node) -> list[tuple[float, Node, Node, WaveKind]]:
    """Mesh-valued Riemann solver on node ids: the fan between nodes l and r
    as (speed, left node, right node, kind) jumps, left to right.

    Rarefactions become chains of jumps between consecutive nodes along the
    corresponding wave curve, each jump travelling at its own
    mass-conserving speed."""
    iv_free = mesh.iv_free
    ivl, iwl = l
    ivr, iwr = r
    # the fan as a path of nodes from l: (next node, kind of the jump to it)
    steps: list[tuple[Node, WaveKind]] = []
    free_shock = mesh.free_shock
    lf, rf = ivl == iv_free, ivr == iv_free

    if ivl == ivr and iwl == iwr:
        pass
    elif lf and rf:
        if iwl < iwr:
            steps.append((r, free_shock))
        else:
            steps = _free_steps(iv_free, l, r, mesh.free_wave)
    elif not lf and not rf:
        m = (ivr, iwl)
        if ivr < ivl:
            steps.append((m, WaveKind.SHOCK))
        elif ivr > ivl:
            steps = _congested_steps(l, m)
        if iwl != iwr:
            steps.append((r, WaveKind.CONTACT))
    elif lf:
        # free -> congested: one phase transition, then a possibly-null contact
        if mesh.states[l].rho == 0.0:
            steps.append((r, WaveKind.PHASE_TRANSITION))
        else:
            iw_m = max(mesh.iw_c, iwl)
            steps.append(((ivr, iw_m), WaveKind.PHASE_TRANSITION))
            if iw_m != iwr:
                steps.append((r, WaveKind.CONTACT))
    else:
        # congested -> free: possibly-null 1-wave up to the congested
        # ceiling, one phase transition, then a possibly-null free wave
        m1 = (mesh.iv_vc, iwl)
        if ivl < mesh.iv_vc:
            steps = _congested_steps(l, m1)
        m2 = (iv_free, iwl)
        steps.append((m2, WaveKind.PHASE_TRANSITION))
        if iwl < iwr:
            steps.append((r, free_shock))
        elif iwl > iwr:
            steps += _free_steps(iv_free, m2, r, mesh.free_wave)

    states = mesh.states
    fan: list[tuple[float, Node, Node, WaveKind]] = []
    a, u_a = l, states[l]
    for b, kind in steps:
        u_b = states[b]
        fan.append((sigma(u_a, u_b), a, b, kind))
        a, u_a = b, u_b
    return fan


# ---------------------------------------------------------------------------
# helpers on records and on the traffic-light table


def position(rec, t):
    """Position at time t of the line of a `FrontRecord`."""
    return rec.x0 + rec.speed * (t - rec.t0)


def alive_at(rec, t):
    """Whether a `FrontRecord` is in the snapshot at t: t0 < t <= t1, or
    t = t0 = 0."""
    return (rec.t0 < t <= rec.t1) or (t == rec.t0 == 0.0)


def car_count_residual(table, laws, cfg):
    """The car count of the queue, (x2 - x1) R_c, less the cars that pass
    the light by `table.t_d1`: zero when the table's d-times are
    consistent."""
    vf1 = laws.v_f(laws.rho_free_crit)
    lhs = (cfg.x2 - cfg.x1) * laws.R_c
    rhs = (table.t_d1 - table.t_d2) * laws.rho_free_crit * vf1 \
        + (table.t_d2 - table.t_star) * laws.rho_free_max * laws.V_f
    return lhs - rhs


# ---------------------------------------------------------------------------
# a law from plain callables


def _elementwise(f: Callable[[float], float], rho):
    """f(rho), mapped over the elements of an array as Python floats."""
    if isinstance(rho, np.ndarray):
        return np.fromiter(map(f, rho.tolist()), float, rho.size)
    return f(rho)


class CustomLaw:
    """Wrap plain callables (value, first, second derivative) as a law
    without a closed-form inverse, so that `ModelLaws` bisects it.

    The callables take floats; an array argument is mapped over
    elementwise, so the law evaluates arrays with the callables' bits."""

    def __init__(self, f: Callable[[float], float], df: Callable[[float], float],
                 ddf: Callable[[float], float]):
        self._f, self._df, self._ddf = f, df, ddf

    def __call__(self, rho: float) -> float:
        return _elementwise(self._f, rho)

    def deriv(self, rho: float) -> float:
        return _elementwise(self._df, rho)

    def deriv2(self, rho: float) -> float:
        return _elementwise(self._ddf, rho)


# ---------------------------------------------------------------------------
# the extended entropy pair on states


def R_k(laws: ModelLaws, w: float, k: float) -> float:
    """`ModelLaws.R_k` on one marker w and one speed k, in scalar floats:
    the abscissa where the line f = rho k meets the extended flow curve of
    marker level w.

    For k below the congested ceiling this is the usual pressure inverse;
    above it, the intersection lies on the chord joining the congested
    ceiling state to the free state of the same marker.
    """
    if w < laws.W_c - STATE_TOL or w > laws.W_max + STATE_TOL:
        raise OutOfDomain(f"R_k marker {w} outside [{laws.W_c}, {laws.W_max}]")
    if k < -STATE_TOL or k > laws.V_f + STATE_TOL:
        raise OutOfDomain(f"R_k speed {k} outside [0, {laws.V_f}]")
    if k <= laws.V_c:
        return laws.p_inv(w - k)
    rho_hi = laws.p_inv(w - laws.V_f)   # free-side endpoint of the chord
    rho_lo = laws.p_inv(w - laws.V_c)   # congested ceiling endpoint
    s = (rho_lo * laws.V_c - rho_hi * laws.V_f) / (rho_lo - rho_hi)
    return (laws.V_f - s) / (k - s) * rho_hi


def entropy_pair(laws: ModelLaws, u: TrafficState, k: float) -> tuple[float, float]:
    """Extended entropy/flux pair built on the marker-level intersection
    density `R_k`; defined for reference speeds k in [0, V_f]."""
    if u.v <= k:
        return 0.0, 0.0
    rk = R_k(laws, laws.marker_W(u), k)
    return 1.0 - u.rho / rk, k - u.rho * u.v / rk


def entropy_production(laws: ModelLaws, speed: float, left: TrafficState,
                       right: TrafficState, k: float) -> float:
    """Rate of entropy production of a single front for reference speed k;
    nonnegative for admissible fronts."""
    el, ql = entropy_pair(laws, left, k)
    er, qr = entropy_pair(laws, right, k)
    return speed * (er - el) - (qr - ql)


# ---------------------------------------------------------------------------
# phase-boundary admissibility classes

CLASS_TOL = 1e-10


class SamePhase(PhasetrackError):
    pass


@dataclass(frozen=True)
class TransitionClass:
    in_weak: bool
    in_entropy: bool
    label: str  # G1 | G2 | G3 | G1T | G2T | none


def classify_transition(laws: ModelLaws, u_minus: TrafficState,
                        u_plus: TrafficState) -> TransitionClass:
    """Membership of a phase-boundary jump in the weak and entropy classes."""
    if u_minus.phase is u_plus.phase:
        raise SamePhase(f"{u_minus} and {u_plus} share a phase")

    def low_free(u):     # strictly below the critical free density
        return u.phase is Phase.FREE and u.rho < laws.rho_free_crit - CLASS_TOL

    def high_free(u):    # free at or above the critical density
        return u.phase is Phase.FREE and u.rho >= laws.rho_free_crit - CLASS_TOL

    w2m, w2p = laws.w2(u_minus), laws.w2(u_plus)
    label = "none"
    if low_free(u_minus) and u_plus.phase is Phase.CONGESTED and \
            abs((w2p - laws.W_c) * u_minus.rho) <= CLASS_TOL:
        label = "G1"
    elif high_free(u_minus) and u_plus.phase is Phase.CONGESTED and \
            abs(w2m - w2p) <= CLASS_TOL:
        label = "G2"
    elif u_minus.phase is Phase.CONGESTED and high_free(u_plus) and \
            abs(w2m - w2p) <= CLASS_TOL and abs(u_minus.v - laws.V_c) <= CLASS_TOL:
        label = "G3"
    elif u_plus.phase is Phase.FREE and low_free(u_plus) and \
            abs((w2m - laws.W_c) * u_plus.rho) <= CLASS_TOL:
        label = "G1T"
    elif u_minus.phase is Phase.CONGESTED and high_free(u_plus) and \
            abs(w2m - w2p) <= CLASS_TOL:
        label = "G2T"
    in_entropy = label in ("G1", "G2", "G3")
    # equivalent characterization of the weak class
    in_weak = abs(u_minus.rho * u_plus.rho *
                  (laws.marker_W(u_minus) - laws.marker_W(u_plus))) <= CLASS_TOL
    return TransitionClass(in_weak, in_entropy, label)


# ---------------------------------------------------------------------------
# the exact Riemann solver: the free branch, the congested branch and the
# coupled two-phase problem, with exact centered fans; the oracle the mesh
# solver converges to

NULL_WAVE_TOL = 1e-12
SPEED_TIE_TOL = 1e-14


class MiddleStateOutOfDomain(PhasetrackError):
    pass


class FanKind(Enum):
    """The exact solver's own wave kind, an exact centered fan; its jumps
    take the mesh's `WaveKind`s, whose fans are chains of
    `RAREFACTION_STEP` jumps."""
    RAREFACTION = "rarefaction"


@dataclass(slots=True)
class Wave:
    kind: WaveKind | FanKind
    left: TrafficState
    right: TrafficState
    speed_lo: float
    speed_hi: float
    # for FanKind.RAREFACTION only: xi in [speed_lo, speed_hi] -> state on the fan
    sampler: Optional[Callable[[float], TrafficState]] = None

    @property
    def speed(self) -> float:
        return self.speed_lo

    def is_fan(self) -> bool:
        return self.kind is FanKind.RAREFACTION and self.speed_hi > self.speed_lo


@dataclass(slots=True)
class WaveFan:
    left: TrafficState
    right: TrafficState
    waves: list[Wave] = field(default_factory=list)

    def __iter__(self):
        return iter(self.waves)

    def __len__(self):
        return len(self.waves)

    def eval(self, xi: float) -> TrafficState:
        """Self-similar solution value at x/t = xi (right-continuous at jumps)."""
        state = self.left
        for w in self.waves:
            if xi < w.speed_lo:
                return state
            if w.is_fan() and xi < w.speed_hi:
                return w.sampler(xi)
            state = w.right
        return state

    def sample_speeds(self, per_fan: int = 64, pad: float = 1e-6) -> list[float]:
        """Evaluation abscissae: fan interiors plus both sides of every jump."""
        pts: list[float] = []
        for w in self.waves:
            pts.extend((w.speed_lo - pad, w.speed_lo + pad))
            if w.is_fan():
                span = w.speed_hi - w.speed_lo
                pts.extend(w.speed_lo + span * (i + 0.5) / per_fan for i in range(per_fan))
                pts.extend((w.speed_hi - pad, w.speed_hi + pad))
        if not pts:
            pts = [0.0]
        lo, hi = min(pts), max(pts)
        pts.extend((lo - 1.0, hi + 1.0))
        return sorted(pts)


def _null(laws: ModelLaws, a: TrafficState, b: TrafficState) -> bool:
    return laws.coord_distance(a, b) < NULL_WAVE_TOL and abs(a.rho - b.rho) < NULL_WAVE_TOL


def solve_lwr(laws: ModelLaws, u_l: TrafficState, u_r: TrafficState) -> WaveFan:
    """Scalar solver on the free branch (concave flux)."""
    fan = WaveFan(u_l, u_r)
    if _null(laws, u_l, u_r):
        return fan
    if u_l.rho < u_r.rho:
        fan.waves.append(Wave(WaveKind.SHOCK, u_l, u_r, *(sigma(u_l, u_r),) * 2))
        return fan
    lo, hi = laws.lambda_free(u_l.rho), laws.lambda_free(u_r.rho)
    if hi - lo <= SPEED_TIE_TOL:
        # linearly degenerate free field: the fan collapses to a contact
        s = sigma(u_l, u_r)
        fan.waves.append(Wave(WaveKind.CONTACT, u_l, u_r, s, s))
        return fan

    def sampler(xi: float, _laws=laws, _ul=u_l, _ur=u_r) -> TrafficState:
        rho = invert_decreasing(_laws.lambda_free, _ur.rho, _ul.rho, xi)
        return TrafficState(rho, _laws.v_free(rho), Phase.FREE)

    fan.waves.append(Wave(FanKind.RAREFACTION, u_l, u_r, lo, hi, sampler))
    return fan


def _congested_fan_sampler(laws: ModelLaws, w2: float, rho_hi: float, rho_lo: float):
    """States along the genuinely-nonlinear curve of constant marker w2."""
    g = lambda r: laws.p(r) + r * laws.p.deriv(r)

    def sampler(xi: float) -> TrafficState:
        rho = invert_increasing(g, rho_lo, rho_hi, w2 - xi)
        return TrafficState(rho, w2 - laws.p(rho), Phase.CONGESTED)

    return sampler


def solve_arz(laws: ModelLaws, u_l: TrafficState, u_r: TrafficState) -> WaveFan:
    """Congested-branch solver: a 1-wave to the middle state, then a contact."""
    fan = WaveFan(u_l, u_r)
    if _null(laws, u_l, u_r):
        return fan
    w2l = laws.w2(u_l)
    rho_m = laws.p_inv(w2l - u_r.v)
    u_m = TrafficState(rho_m, u_r.v, Phase.CONGESTED)
    if not laws.in_congested_domain(u_m, tol=1e-8):
        raise MiddleStateOutOfDomain(f"middle state {u_m} from {u_l}, {u_r}")
    if not _null(laws, u_l, u_m):
        if u_m.v < u_l.v:
            s = sigma(u_l, u_m)
            fan.waves.append(Wave(WaveKind.SHOCK, u_l, u_m, s, s))
        else:
            lo, hi = laws.lambda1(u_l), laws.lambda1(u_m)
            sampler = _congested_fan_sampler(laws, w2l, u_l.rho, u_m.rho)
            fan.waves.append(Wave(FanKind.RAREFACTION, u_l, u_m, lo, hi, sampler))
    if not _null(laws, u_m, u_r):
        s = u_r.v
        fan.waves.append(Wave(WaveKind.CONTACT, u_m, u_r, s, s))
    return fan


def solve_coupled(laws: ModelLaws, u_l: TrafficState, u_r: TrafficState) -> WaveFan:
    """Two-phase solver: delegates within a phase, otherwise inserts the
    single admissible phase transition."""
    lf, rf = u_l.phase is Phase.FREE, u_r.phase is Phase.FREE
    if lf and rf:
        return solve_lwr(laws, u_l, u_r)
    if not lf and not rf:
        return solve_arz(laws, u_l, u_r)

    fan = WaveFan(u_l, u_r)
    if lf:
        # free -> congested
        if u_l.rho == 0.0:
            s = u_r.v
            fan.waves.append(Wave(WaveKind.PHASE_TRANSITION, u_l, u_r, s, s))
            return fan
        w2m = max(laws.W_c, laws.w2(u_l))
        u_m = TrafficState(laws.p_inv(w2m - u_r.v), u_r.v, Phase.CONGESTED)
        s = sigma(u_l, u_m)
        fan.waves.append(Wave(WaveKind.PHASE_TRANSITION, u_l, u_m, s, s))
        tail = solve_arz(laws, u_m, u_r)
        fan.waves.extend(tail.waves)
        return fan

    # congested -> free
    w2l = laws.w2(u_l)
    u_m1 = TrafficState(laws.p_inv(w2l - laws.V_c), laws.V_c, Phase.CONGESTED)
    head = solve_arz(laws, u_l, u_m1)
    fan.waves.extend(head.waves)
    rho_m2 = laws.rho_f(w2l)
    u_m2 = TrafficState(rho_m2, laws.v_free(rho_m2), Phase.FREE)
    s = sigma(u_m1, u_m2)
    fan.waves.append(Wave(WaveKind.PHASE_TRANSITION, u_m1, u_m2, s, s))
    tail = solve_lwr(laws, u_m2, u_r)
    fan.waves.extend(tail.waves)
    return fan


def check_consistency(laws: ModelLaws, u_l: TrafficState, u_m: TrafficState,
                      u_r: TrafficState, xbar: float, per_fan: int = 64,
                      tol: float = 1e-9):
    """Sampled verification of the two gluing implications of the solver.

    Returns (ok, witness); witness is a (which, xi) pair on failure.
    """
    def eq(a: TrafficState, b: TrafficState) -> bool:
        return laws.coord_distance(a, b) <= tol and abs(a.rho - b.rho) <= math.sqrt(tol)

    fan_lr = solve_coupled(laws, u_l, u_r)
    fan_lm = solve_coupled(laws, u_l, u_m)
    fan_mr = solve_coupled(laws, u_m, u_r)
    xis = sorted(set(fan_lr.sample_speeds(per_fan) + fan_lm.sample_speeds(per_fan)
                     + fan_mr.sample_speeds(per_fan)))
    pad = 1e-6
    xis = [x for x in xis if abs(x - xbar) > pad]
    at_lr = [fan_lr.eval(xi) for xi in xis]
    at_lm = [fan_lm.eval(xi) for xi in xis]
    at_mr = [fan_mr.eval(xi) for xi in xis]

    # implication (I)
    if eq(fan_lr.eval(xbar), u_m):
        for xi, v_lr, v_lm, v_mr in zip(xis, at_lr, at_lm, at_mr):
            want = v_lr if xi <= xbar else u_m
            if not eq(v_lm, want):
                return False, ("I-left", xi)
            want = u_m if xi < xbar else v_lr
            if not eq(v_mr, want):
                return False, ("I-right", xi)

    # implication (II)
    if eq(fan_lm.eval(xbar), u_m) and eq(fan_mr.eval(xbar), u_m):
        for xi, v_lr, v_lm, v_mr in zip(xis, at_lr, at_lm, at_mr):
            want = v_lm if xi < xbar else v_mr
            if not eq(v_lr, want):
                return False, ("II", xi)

    return True, None
