"""Event-driven wave-front tracking.

A piecewise-constant profile is evolved by moving its fronts along straight
lines and re-solving a mesh Riemann problem wherever fronts collide.  The
loop keeps running totals of the coordinate total variation, the wave-count
potential (a Temple-style functional that pays for every wave split), and
the number of phase-boundary fronts.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import EventOverflow, InvariantViolation, ValueOutsideOmega
from .grid import GridMesh, Node, VACUUM_IW, solve_approx
from .invariants import functional_violations
from .model import ModelLaws, TrafficState
from .riemann import WaveKind

TIME_GROUP_TOL = 1e-12


# ---------------------------------------------------------------------------
# datum description and mesh approximation


@dataclass(frozen=True)
class PiecewiseConstantDatum:
    """Finite piecewise-constant profile: states[i] on (breaks[i-1], breaks[i])."""

    breaks: tuple[float, ...]
    states: tuple[TrafficState, ...]

    def __post_init__(self):
        if len(self.states) != len(self.breaks) + 1:
            raise ValueError("need len(states) == len(breaks) + 1")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if b <= a:
                raise ValueError("breakpoints must increase strictly")

    def evaluate(self, x: float) -> TrafficState:
        return self.states[bisect.bisect_right(self.breaks, x)]

    def tv_coords(self, laws: ModelLaws) -> float:
        return sum(laws.coord_distance(a, b)
                   for a, b in zip(self.states, self.states[1:]))


def _taut_track(brackets: list[tuple[int, int]]) -> list[int]:
    """Minimal-total-variation integer path through index tubes.

    Every forced move exactly spans a gap between consecutive bracket pools,
    which the underlying values must cross as well, so the tracked path never
    has more variation than the input.
    """
    out: list[int] = []
    i = 0
    n = len(brackets)
    cur: int | None = None
    while i < n:
        lo, hi = brackets[i]
        j = i
        while j + 1 < n:
            nlo, nhi = brackets[j + 1]
            if nlo > hi or nhi < lo:
                break
            lo, hi = max(lo, nlo), min(hi, nhi)
            j += 1
        if cur is None:
            if j + 1 < n:
                cur = hi if brackets[j + 1][0] > hi else lo
            else:
                cur = lo
        else:
            cur = min(max(cur, lo), hi)
        out.extend([cur] * (j - i + 1))
        i = j + 1
    return out


def approximate_datum(datum: PiecewiseConstantDatum, mesh: GridMesh) -> "FrontDiagram":
    """Project a datum onto the mesh and emit the initial raw fronts.

    The projection threads each coordinate through its bracketing mesh
    lines with a minimal-variation tracker, so the coordinate variation of
    the projected datum never exceeds that of the input while every value
    stays within one quantum of the original.
    """
    laws = mesh.laws
    for u in datum.states:
        if not laws.contains(u, tol=1e-9):
            raise ValueOutsideOmega(f"datum value {u} not in the model domain")
    pairs = [mesh.brackets(u) for u in datum.states]
    ivs = _taut_track([p[0] for p in pairs])
    iws = _taut_track([p[1] for p in pairs])
    snapped = [mesh.state(iv, iw) for iv, iw in zip(ivs, iws)]

    fronts: list[DiagramFront] = []
    cur = snapped[0]
    for x, nxt in zip(datum.breaks, snapped[1:]):
        if nxt is cur:
            continue
        # raw datum jumps carry no speed; they are resolved at t = 0
        fronts.append(DiagramFront(x, 0.0, cur, nxt, None))
        cur = nxt
    return FrontDiagram(0.0, snapped[0], fronts)


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True, slots=True)
class DiagramFront:
    x: float
    speed: float
    left: TrafficState
    right: TrafficState
    kind: WaveKind | None


@dataclass(frozen=True)
class FrontDiagram:
    """Snapshot of the profile: ordered fronts plus the leftmost state."""

    time: float
    left_state: TrafficState
    fronts: list[DiagramFront]

    def positions(self) -> list[float]:
        return [f.x for f in self.fronts]

    def evaluate(self, x: float) -> TrafficState:
        """Right-continuous evaluation: at a front the right state applies."""
        return self.profile((x,))[0]

    def profile(self, xs) -> list[TrafficState]:
        pos = [f.x for f in self.fronts]
        out = []
        for x in xs:
            i = bisect.bisect_right(pos, x)
            out.append(self.left_state if i == 0 else self.fronts[i - 1].right)
        return out


# ---------------------------------------------------------------------------
# functionals


def _front_measures(mesh: GridMesh, l: Node, r: Node) -> tuple[float, float, int]:
    """(tv, temple, is_phase_transition) contributions of the front between
    nodes l and r."""
    ivl, iwl = l
    ivr, iwr = r
    w_at = mesh.w_at
    dw1 = abs(mesh.v_values[ivl] - mesh.v_values[ivr])
    dw2 = abs(w_at[iwl] - w_at[iwr])
    tv = dw1 + dw2
    # the marker drop of a slow contact is counted twice once it exceeds a
    # full quantum: that is the wave-split budget of the functional
    delta = (ivl == ivr and ivl <= mesh.iv_vc and (iwl - iwr) >= 2)
    temple = tv + (dw2 if delta else 0.0)
    return tv, temple, 1 if (ivl == mesh.iv_free) != (ivr == mesh.iv_free) else 0


def _diagram_measures(mesh: GridMesh, diagram: FrontDiagram):
    for f in diagram.fronts:
        yield _front_measures(mesh, mesh.index_of(f.left), mesh.index_of(f.right))


def tv_coords(mesh: GridMesh, diagram: FrontDiagram) -> float:
    return sum(m[0] for m in _diagram_measures(mesh, diagram))


def temple_functional(mesh: GridMesh, diagram: FrontDiagram) -> float:
    return sum(m[1] for m in _diagram_measures(mesh, diagram))


def count_phase_transitions(diagram: FrontDiagram) -> int:
    return sum(1 for f in diagram.fronts if f.left.phase is not f.right.phase)


@dataclass
class FunctionalLog:
    """Per-event history of the tracked functionals."""

    ts: list[float] = field(default_factory=list)
    tv: list[float] = field(default_factory=list)
    temple: list[float] = field(default_factory=list)
    waves: list[int] = field(default_factory=list)
    phase_transitions: list[int] = field(default_factory=list)

    def record(self, t, tv, temple, waves, pts):
        self.ts.append(t)
        self.tv.append(tv)
        self.temple.append(temple)
        self.waves.append(waves)
        self.phase_transitions.append(pts)

    def rows(self):
        return zip(self.ts, self.tv, self.temple, self.waves, self.phase_transitions)


# ---------------------------------------------------------------------------
# run history


class FrontRecord(NamedTuple):
    """One front over its straight-line lifetime segment.

    Immutable.  A named tuple, because `run` builds two per event and a
    tuple is the cheapest immutable record to build."""

    t0: float
    t1: float
    x0: float
    speed: float
    left: TrafficState
    right: TrafficState
    kind: WaveKind | None

    def position(self, t: float) -> float:
        return self.x0 + self.speed * (t - self.t0)

    @property
    def x1(self) -> float:
        return self.position(self.t1)

    def alive_at(self, t: float) -> bool:
        return (self.t0 < t <= self.t1) or (t == self.t0 == 0.0)

    def crossing_time(self, x: float) -> float | None:
        if self.speed == 0.0:
            return None
        t = self.t0 + (x - self.x0) / self.speed
        return t if self.t0 <= t <= self.t1 else None


class _F:
    """Live front in the simulation's doubly linked list, between the mesh
    nodes l and r ((iv, iw) ids)."""

    __slots__ = ("x0", "t0", "speed", "l", "r", "kind",
                 "prev", "next", "tv", "temple", "pt")

    def __init__(self, x0, t0, speed, l, r, kind):
        self.x0 = x0
        self.t0 = t0
        self.speed = speed
        self.l = l
        self.r = r
        self.kind = kind
        self.prev = None
        self.next = None

    def position(self, t: float) -> float:
        return self.x0 + self.speed * (t - self.t0)


@dataclass
class RunResult:
    laws: ModelLaws
    mesh: GridMesh
    t_end: float
    records: list[FrontRecord]
    log: FunctionalLog
    initial: FrontDiagram
    final: FrontDiagram
    events: int

    def diagram_at(self, t: float) -> FrontDiagram:
        """Left-continuous-in-time snapshot reconstructed from the records."""
        if not (0.0 <= t <= self.t_end):
            from .errors import OutOfWindow
            raise OutOfWindow(f"t={t} outside [0, {self.t_end}]")
        live = [r for r in self.records if r.alive_at(t)]
        live.sort(key=lambda r: (r.position(t), r.speed))
        fronts = [DiagramFront(r.position(t), r.speed, r.left, r.right, r.kind)
                  for r in live]
        left = live[0].left if live else self.final.left_state
        return FrontDiagram(t, left, fronts)

    def evaluate(self, t: float, x: float) -> TrafficState:
        return self.diagram_at(t).evaluate(x)

    def profile(self, t: float, xs) -> list[TrafficState]:
        return self.diagram_at(t).profile(xs)

    def l1_distance(self, t: float, s: float, window: tuple[float, float] | None = None) -> float:
        """Coordinate-metric L1 distance between the profiles at two times."""
        da, db = self.diagram_at(t), self.diagram_at(s)
        pos = sorted(set(da.positions()) | set(db.positions()))
        if window is None:
            if not pos:
                return 0.0
            window = (pos[0] - 1.0, pos[-1] + 1.0)
        lo, hi = window
        cuts = [lo] + [p for p in pos if lo < p < hi] + [hi]
        return l1_distance(self.laws, da.profile, db.profile, cuts)


def l1_distance(laws: ModelLaws, profile_a, profile_b, cuts: list[float],
                panels: int = 1) -> float:
    """Coordinate-metric L1 distance between two profiles over [cuts[0],
    cuts[-1]].

    profile_a and profile_b map a list of abscissae to states.  Each cell
    between consecutive cuts is split into `panels` equal parts, and each
    part is weighted by the distance at its midpoint: exact for profiles
    constant between the cuts, a midpoint rule otherwise.
    """
    cells = list(zip(cuts, cuts[1:]))
    xs = [a + (b - a) * (j + 0.5) / panels for a, b in cells for j in range(panels)]
    widths = [b - a for a, b in cells for _ in range(panels)]
    total = 0.0
    for ua, ub, h in zip(profile_a(xs), profile_b(xs), widths):
        total += laws.coord_distance(ua, ub) * h / panels
    return total


# ---------------------------------------------------------------------------
# the time loop


def _splice(before: _F | None, fronts: list[_F], after: _F | None) -> _F | None:
    """Link fronts, in order, between before and after (either may be None);
    returns the front that now follows before."""
    prev = before
    for f in fronts:
        f.prev = prev
        if prev is not None:
            prev.next = f
        prev = f
    if prev is not None:
        prev.next = after
    if after is not None:
        after.prev = prev
    return fronts[0] if fronts else after


def _snapshot(head: _F | None, t: float, states, left: TrafficState) -> FrontDiagram:
    """The live list from head at time t; left is the leftmost state when
    the list is empty."""
    fronts = []
    f = head
    while f is not None:
        fronts.append(DiagramFront(f.position(t), f.speed, states[f.l],
                                   states[f.r], f.kind))
        f = f.next
    return FrontDiagram(t, fronts[0].left if fronts else left, fronts)


def run(diagram: FrontDiagram, t_end: float, mesh: GridMesh, observers=(),
        event_cap: int = 10_000_000, strict: bool = False) -> RunResult:
    """Advance a diagram to t_end, resolving collisions as they come due.

    Raw (unclassified) fronts of the initial diagram are first resolved into
    mesh Riemann fans at t = 0.  The functional log gets one row at t = 0 and
    one per interaction; with strict=True each new row is checked against
    the functional rules of `invariants`, and the first violation raises
    InvariantViolation.  Inside the loop fronts carry mesh node ids, and
    each fan is read as solve_approx's node jumps; states are looked up
    only to call solve_approx and for the records and the two snapshots.

    Fronts never change once built, so a heap entry stays valid exactly as
    long as its two fronts are adjacent: dead fronts are unlinked.
    """
    laws = mesh.laws
    states = mesh.states
    records: list[FrontRecord] = []
    log = FunctionalLog()
    counter = itertools.count()
    heap: list[tuple[float, int, _F, _F]] = []

    # initial resolution of the datum jumps
    tot_tv = tot_temple = 0.0
    n_waves = n_pts = 0
    fronts: list[_F] = []
    for raw in diagram.fronts:
        for s, a, b, kind in solve_approx(mesh, raw.left, raw.right).jumps:
            f = _F(raw.x, 0.0, s, a, b, kind)
            f.tv, f.temple, f.pt = _front_measures(mesh, a, b)
            tot_tv += f.tv
            tot_temple += f.temple
            n_waves += 1
            n_pts += f.pt
            fronts.append(f)
    head = _splice(None, fronts, None)
    initial = _snapshot(head, 0.0, states, diagram.left_state)

    log.record(0.0, tot_tv, tot_temple, n_waves, n_pts)

    def collision_time(a: _F, b: _F) -> float | None:
        dv = a.speed - b.speed
        if dv <= 0.0:
            return None
        return ((b.x0 - b.speed * b.t0) - (a.x0 - a.speed * a.t0)) / dv

    def push(a: _F | None, b: _F | None, now: float):
        if a is None or b is None:
            return
        t = collision_time(a, b)
        if t is None or t < now - TIME_GROUP_TOL:
            return
        heapq.heappush(heap, (t, next(counter), a, b))

    for a, b in zip(fronts, fronts[1:]):
        push(a, b, 0.0)

    events = 0
    now = 0.0
    while heap:
        t_star, _, fa, fb = heapq.heappop(heap)
        if fa.next is not fb:
            continue
        if t_star > t_end:
            break
        now = max(now, t_star)
        x_star = fa.position(t_star)

        # gather every front arriving at (t_star, x_star)
        group = [fa, fb]
        tol_t = TIME_GROUP_TOL * (1.0 + abs(t_star))
        tol_x = 1e-9 * (1.0 + abs(x_star))
        g = group[0].prev
        while g is not None:
            t = collision_time(g, group[0])
            if t is None or abs(t - t_star) > tol_t or abs(g.position(t) - x_star) > tol_x:
                break
            group.insert(0, g)
            g = g.prev
        g = group[-1].next
        while g is not None:
            t = collision_time(group[-1], g)
            if t is None or abs(t - t_star) > tol_t or abs(group[-1].position(t) - x_star) > tol_x:
                break
            group.append(g)
            g = g.next

        fan = solve_approx(mesh, states[group[0].l], states[group[-1].r])

        before, after = group[0].prev, group[-1].next
        for g in group:
            records.append(FrontRecord(g.t0, t_star, g.x0, g.speed,
                                       states[g.l], states[g.r], g.kind))
            tot_tv -= g.tv
            tot_temple -= g.temple
            n_waves -= 1
            n_pts -= g.pt
            # unlinked, a dead front is freed by reference counting alone
            g.prev = g.next = None

        new_fronts: list[_F] = []
        for s, a, b, kind in fan.jumps:
            nf = _F(x_star, t_star, s, a, b, kind)
            nf.tv, nf.temple, nf.pt = _front_measures(mesh, a, b)
            tot_tv += nf.tv
            tot_temple += nf.temple
            n_waves += 1
            n_pts += nf.pt
            new_fronts.append(nf)
        first = _splice(before, new_fronts, after)
        if before is None:
            head = first

        if new_fronts:
            push(before, new_fronts[0], now)
            push(new_fronts[-1], after, now)
        else:
            push(before, after, now)

        log.record(t_star, tot_tv, tot_temple, n_waves, n_pts)
        for obs in observers:
            obs(dict(t=t_star, x=x_star, tv=tot_tv, temple=tot_temple,
                     waves=n_waves, phase_transitions=n_pts))

        if strict:
            bad = functional_violations(log, mesh.eps_w, len(log.ts) - 1)
            if bad:
                raise InvariantViolation(bad[0])

        events += 1
        if events > event_cap:
            raise EventOverflow(f"more than {event_cap} interactions")

    # close out the survivors in list order, unlinking each
    final = _snapshot(head, t_end, states, initial.left_state)
    f = head
    while f is not None:
        records.append(FrontRecord(f.t0, t_end, f.x0, f.speed,
                                   states[f.l], states[f.r], f.kind))
        nxt = f.next
        f.prev = f.next = None
        f = nxt
    return RunResult(laws, mesh, t_end, records, log, initial, final, events)


# ---------------------------------------------------------------------------
# randomized data


DATUM_VACUUM_PROB = 0.15   # share of vacuum values in a random datum
DATUM_FREE_PROB = 0.4      # share of free, non-vacuum values


def random_mesh_datum(mesh: GridMesh, rng, max_jumps: int = 12,
                      x_span: tuple[float, float] = (-10.0, 10.0)) -> PiecewiseConstantDatum:
    """Random mesh-valued piecewise-constant datum touching both phases."""
    laws = mesh.laws

    def rand_state() -> TrafficState:
        r = rng.random()
        if r < DATUM_VACUUM_PROB:
            if laws.degenerate_free:
                return mesh.state(mesh.iv_free, VACUUM_IW)
            return mesh.state(mesh.iv_free, 0)
        if r < DATUM_VACUUM_PROB + DATUM_FREE_PROB:
            return mesh.state(mesh.iv_free, rng.randrange(mesh.num_w))
        return mesh.state(rng.randrange(mesh.iv_vc + 1),
                          rng.randrange(mesh.iw_c, mesh.num_w))

    n_jumps = rng.randrange(3, max_jumps + 1)
    lo, hi = x_span
    xs = sorted(lo + (hi - lo) * rng.random() for _ in range(n_jumps))
    states = [rand_state()]
    for _ in range(n_jumps):
        nxt = rand_state()
        tries = 0
        while nxt is states[-1] and tries < 20:
            nxt = rand_state()
            tries += 1
        states.append(nxt)
    return PiecewiseConstantDatum(tuple(xs), tuple(states))
