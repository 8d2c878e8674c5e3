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
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EventOverflow, InvariantViolation, OutOfWindow
from .grid import GridMesh, VACUUM_IW, solve_approx
from .invariants import event_order_violations, functional_violations
from .model import ModelLaws, TrafficState
from .riemann import WaveKind

# The event tolerances scale with the event they judge, so that a datum
# scaled by a power of two, which is exact in binary floating point, gives
# the scaled history bit for bit.  This one is relative, on times.
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
        if not all(map(math.isfinite, self.breaks)):
            raise ValueError(f"breakpoints must be finite, got {list(self.breaks)}")
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
    stays within one quantum of the original (brackets rejects off-domain values).
    """
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


class DiagramFront(NamedTuple):
    """One front of a snapshot: its position, speed, the states on either
    side and its kind (None for a raw datum jump).  A named tuple, as
    `FrontRecord` is, the cheapest immutable record to build."""

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


class FunctionalLog:
    """Per-event history of the tracked functionals, one row per event, as
    columns: times and the two functionals array('d'), the wave and
    phase-transition counts array('q').  `run` fills them by
    array.fromlist, a chunk of rows at a time."""

    __slots__ = ("ts", "tv", "temple", "waves", "phase_transitions")

    def __init__(self):
        self.ts = array("d")
        self.tv = array("d")
        self.temple = array("d")
        self.waves = array("q")
        self.phase_transitions = array("q")

    def rows(self):
        return zip(self.ts, self.tv, self.temple, self.waves, self.phase_transitions)


# ---------------------------------------------------------------------------
# run history


class FrontRecord(NamedTuple):
    """One front over its straight-line lifetime segment.

    Immutable.  A named tuple, the cheapest immutable record to build: a
    run stores its records as the rows of a `FrontHistory`, and
    `RunResult.records` builds one each time a row is read."""

    t0: float
    t1: float
    x0: float
    speed: float
    left: TrafficState
    right: TrafficState
    kind: WaveKind


CHUNK_ROWS = 1024     # rows per numpy pass over a history's columns


class FrontHistory(Sequence):
    """A run's closed front segments as a column store, one row each.

    Times, start positions and speeds are array('d') columns, the states on
    either side array('q') columns of mesh state ids (`GridMesh.states`),
    and kinds a list.  `run` types the rows of closing fronts into the
    columns by array.fromlist, a chunk of rows at a time.  Read as a
    sequence, the history is read-only: each row is built into a
    `FrontRecord`, with the mesh's own state objects, when it is read, and
    none is kept.  Its readers in the package read columns (`sides`, `chunks`).
    """

    __slots__ = ("t0", "t1", "x0", "speed", "left", "right", "kind", "mesh")

    def __init__(self, mesh: GridMesh):
        self.t0 = array("d")
        self.t1 = array("d")
        self.x0 = array("d")
        self.speed = array("d")
        self.left = array("q")
        self.right = array("q")
        self.kind: list[WaveKind] = []
        self.mesh = mesh

    def __len__(self) -> int:
        return len(self.t0)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return list(self.records(range(n)[i]))
        j = i + n if i < 0 else i
        if not 0 <= j < n:
            raise IndexError(f"record index {i} out of range for {n} records")
        return next(self.records((j,)))

    def __iter__(self):
        return self.records()

    def records(self, rows=None):
        """Iterator of the records of the given rows, of every row by
        default, each built when it is reached.  tuple.__new__ builds the
        same record as FrontRecord(...) without its Python-level
        constructor, in about half the time."""
        cols = (self.t0, self.t1, self.x0, self.speed, self.left, self.right, self.kind)
        if rows is not None:
            cols = [map(col.__getitem__, rows) for col in cols]
        t0, t1, x0, speed, left, right, kind = cols
        st = self.mesh.states.__getitem__
        return map(tuple.__new__, itertools.repeat(FrontRecord),
                   zip(t0, t1, x0, speed, map(st, left), map(st, right), kind))

    def chunks(self, *names: str):
        """(first row, numpy views of the named columns, list slices of
        "kind") over consecutive runs of at most CHUNK_ROWS rows.  A view
        shares its column's memory, and the column cannot grow while one
        is alive."""
        cols = [getattr(self, name) for name in names]
        n = len(self)
        for start in range(0, n, CHUNK_ROWS):
            m = min(CHUNK_ROWS, n - start)
            yield start, [c[start:start + m] if isinstance(c, list) else
                          np.frombuffer(c, dtype=np.float64 if c.typecode == "d" else np.int64,
                                        count=m, offset=start * c.itemsize) for c in cols]

    def sides(self, *names: str):
        """The history's one column reader: (first row, the named columns,
        then each side's (rho, v, congested, marker_W) arrays, by
        `GridMesh.node_values`) over the chunks of `chunks`."""
        node_values = self.mesh.node_values
        for start, (left, right, *cols) in self.chunks("left", "right", *names):
            m = len(left)
            values = node_values(np.concatenate((left, right)))
            yield start, cols, [c[:m] for c in values], [c[m:] for c in values]


class _F:
    """Live front in the simulation's doubly linked list, between the mesh
    nodes of state ids l and r, with its jump's (tv, temple, pt) and its
    line's intercept at t = 0, which collision times are read from.  `run`
    builds each one inline, object.__new__ plus slot stores, with no
    Python-level constructor, and reads this class once per run."""

    __slots__ = ("x0", "t0", "speed", "icpt", "l", "r", "kind",
                 "prev", "next", "tv", "temple", "pt")

    def position(self, t: float) -> float:
        return self.x0 + self.speed * (t - self.t0)


class RunStats(NamedTuple):
    """Counters of one run's event loop: heap entries popped stale (their
    two fronts no longer adjacent), pushes whose collision time was clamped
    up to the present (see `run`), and the most fronts alive at once."""

    stale_pops: int
    clamped_pushes: int
    peak_fronts: int


class Event(NamedTuple):
    """What `run` hands each observer at an event: its time and point and
    the functionals after it, the values of its functional-log row."""

    t: float
    x: float
    tv: float
    temple: float
    waves: int
    phase_transitions: int


@dataclass
class RunResult:
    laws: ModelLaws
    mesh: GridMesh
    t_end: float
    history: FrontHistory
    log: FunctionalLog
    initial: FrontDiagram
    final: FrontDiagram
    events: int
    stats: RunStats

    @property
    def records(self) -> FrontHistory:
        """The history, read as a sequence of records built when read."""
        return self.history

    def diagram_at(self, t: float) -> FrontDiagram:
        """Left-continuous-in-time snapshot from the history's columns: the
        rows alive at t, t0 < t <= t1 (or t = t0 = 0), at x0 + speed (t - t0)."""
        if not (0.0 <= t <= self.t_end):
            raise OutOfWindow(f"t={t} outside [0, {self.t_end}]")
        h = self.history
        live = []
        for start, (t0, t1, x0, speed, left, right) in \
                h.chunks("t0", "t1", "x0", "speed", "left", "right"):
            pick = np.flatnonzero(((t0 < t) & (t <= t1)) | ((t == 0.0) & (t0 == 0.0)))
            live += zip((x0[pick] + speed[pick] * (t - t0[pick])).tolist(), speed[pick].tolist(),
                        (pick + start).tolist(), left[pick].tolist(), right[pick].tolist())
        # by (position, speed), ties in row order: the row ids are distinct
        live.sort()
        st, kind = h.mesh.states, h.kind
        fronts = [DiagramFront(x, s, st[l], st[r], kind[i]) for x, s, i, l, r in live]
        return FrontDiagram(t, fronts[0].left if fronts else self.final.left_state, fronts)

    def profile(self, t: float, xs) -> list[TrafficState]:
        return self.diagram_at(t).profile(xs)

    def l1_distance(self, t: float, s: float) -> float:
        """Coordinate-metric L1 distance between the profiles at two times,
        over the fronts of both and one unit beyond them."""
        da, db = self.diagram_at(t), self.diagram_at(s)
        pos = sorted(set(da.positions()) | set(db.positions()))
        if not pos:
            return 0.0
        lo, hi = pos[0] - 1.0, pos[-1] + 1.0
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


def run(diagram: FrontDiagram, t_end: float, mesh: GridMesh, observers=(),
        event_cap: int = 10_000_000, strict: bool = False) -> RunResult:
    """Advance a diagram to t_end, resolving collisions as they come due.

    Raw (unclassified) fronts of the initial diagram are first resolved into
    mesh Riemann fans at t = 0, each datum jump a splice after the list's
    tail.  The functional log gets one row at t = 0 and one per
    interaction, and each observer is called with an `Event` per
    interaction; with strict=True each event's point is checked against the
    fronts on either side of its group (`invariants.event_order_violations`)
    and its row against the functional rules, and the first violation
    raises InvariantViolation.  Fronts carry mesh state ids, unchanged from
    the fan that builds them to the history row that closes them.  Each
    datum jump and each collision is resolved by one `solve_approx` call on
    node states, for a collision those of its group's outer ids: the one
    state-level Riemann solve that callers and profilers see, it finds the
    ids again by identity.  States are otherwise looked up only for the two
    snapshots, read after the datum is resolved and as the survivors close.
    One block splices a fan in, for the datum jumps and the events alike:
    it builds each front inline (object.__new__ and slot stores), links it
    after the one before it, and queues the pairs new at the fan's two ends
    inline.  Closing fronts and events append their rows to plain lists,
    whose append CPython specializes; array.fromlist moves them into the
    typed columns every CHUNK_ROWS history rows and at close-out, and a
    strict run moves the log's at each event, before its row is checked.

    Fronts never change once built, so a heap entry stays valid exactly as
    long as its two fronts are adjacent: dead fronts are unlinked, and an
    entry popped later is stale.  Two adjacent fronts a, b collide at
    (b.icpt - a.icpt) / (a.speed - b.speed) when a is the faster; a pair
    due before the present was missed by the rounding of its intercepts
    alone and is queued at the present, so the log never steps back.  A
    fan's own speeds never decrease, so only its two ends make pairs.
    `RunResult.stats` counts stale pops, clamped pushes and the peak number
    of live fronts.  A negative or non-finite t_end raises ValueError.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    laws = mesh.laws
    states = mesh.states
    history = FrontHistory(mesh)
    log = FunctionalLog()
    rows = t0s, t1s, x0s, speeds, lefts, rights = [], [], [], [], [], []
    log_rows = ts, tvs, temples, waves, pts = [], [], [], [], []
    kinds = history.kind
    pending = list(zip((history.t0, history.t1, history.x0, history.speed, history.left,
                        history.right, log.ts, log.tv, log.temple, log.waves,
                        log.phase_transitions), rows + log_rows))
    log_pending = pending[len(rows):]
    # looked up once per run, so a patched module attribute is honoured
    solve, F, chunk = solve_approx, _F, CHUNK_ROWS
    new, new_tuple = object.__new__, tuple.__new__
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: list[tuple[float, int, _F, _F]] = []
    clamped = events = stale = seq = 0
    tot_tv = tot_temple = 0.0
    n_waves = n_pts = 0
    now = 0.0
    eps_w = mesh.eps_w
    head = f = initial = None
    raws = iter(diagram.fronts)
    raw = next(raws, None)
    while True:
        if raw is not None:
            # a datum jump, resolved at t = 0 as a splice after the tail f
            x_star, t_star, before, after = raw.x, 0.0, f, None
            fan = solve(mesh, raw.left, raw.right)
            raw = next(raws, None)
        else:
            if initial is None:
                # the datum is resolved: its snapshot and the log's t = 0 row
                fronts = []
                g = head
                while g is not None:
                    fronts.append(new_tuple(DiagramFront, (g.x0 + g.speed * (0.0 - g.t0), g.speed,
                                                           states[g.l], states[g.r], g.kind)))
                    g = g.next
                initial = FrontDiagram(0.0, fronts[0].left if fronts else diagram.left_state,
                                       fronts)
                for col, value in zip(log_rows, (0.0, tot_tv, tot_temple, n_waves, n_pts)):
                    col.append(value)
            if not heap:
                break
            t_star, _, fa, fb = heappop(heap)
            if fa.next is not fb:
                stale += 1
                continue
            if t_star > t_end:
                break
            if t_star > now:
                now = t_star
            x_star = fa.x0 + fa.speed * (t_star - fa.t0)

            # gather every front arriving at (t_star, x_star): first..last.
            # The position slack is relative to |x_star| plus V_max t_star,
            # the farthest a front can have moved, so it is positive at x = 0
            tol_t = TIME_GROUP_TOL * abs(t_star)
            tol_x = 1e-9 * (abs(x_star) + laws.V_max * t_star)
            first = fa
            g = first.prev
            while g is not None:
                dv = g.speed - first.speed
                if dv <= 0.0:
                    break
                t = (first.icpt - g.icpt) / dv
                if abs(t - t_star) > tol_t or abs(g.x0 + g.speed * (t - g.t0) - x_star) > tol_x:
                    break
                first = g
                g = g.prev
            last = fb
            g = last.next
            while g is not None:
                dv = last.speed - g.speed
                if dv <= 0.0:
                    break
                t = (g.icpt - last.icpt) / dv
                if abs(t - t_star) > tol_t or abs(last.x0 + last.speed * (t - last.t0) - x_star) > tol_x:
                    break
                last = g
                g = g.next

            fan = solve(mesh, states[first.l], states[last.r])

            before, after = first.prev, last.next
            g = first
            while g is not after:
                t0s.append(g.t0)
                t1s.append(t_star)
                x0s.append(g.x0)
                speeds.append(g.speed)
                lefts.append(g.l)
                rights.append(g.r)
                kinds.append(g.kind)
                tot_tv -= g.tv
                tot_temple -= g.temple
                n_waves -= 1
                n_pts -= g.pt
                # unlinked, a dead front is freed by reference counting alone
                nxt = g.next
                g.prev = g.next = None
                g = nxt
            if len(t0s) >= chunk:
                _flush(pending)

        # the fan's fronts, between before and after, each built inline and
        # linked after the one before it
        f = before
        for s, a, b, kind, tv, temple, pt in fan:
            nf = new(F)
            nf.x0 = x_star
            nf.t0 = t_star
            nf.speed = s
            nf.icpt = x_star - s * t_star
            nf.l = a
            nf.r = b
            nf.kind = kind
            nf.tv = tv
            nf.temple = temple
            nf.pt = pt
            nf.prev = f
            if f is None:
                head = nf
            else:
                f.next = nf
            tot_tv += tv
            tot_temple += temple
            n_waves += 1
            n_pts += pt
            f = nf
        # f is now the fan's last front, or before when the fan is empty
        if f is None:
            head = after
        else:
            f.next = after
        if after is not None:
            after.prev = f

        # the pairs new at the fan's two ends, one pair when it is empty
        if before is not None:
            g = before.next
            if g is not None:
                dv = before.speed - g.speed
                if dv > 0.0:
                    t = (g.icpt - before.icpt) / dv
                    if t < now:
                        t = now
                        clamped += 1
                    heappush(heap, (t, seq, before, g))
                    seq += 1
        if f is not before and after is not None:
            dv = f.speed - after.speed
            if dv > 0.0:
                t = (after.icpt - f.icpt) / dv
                if t < now:
                    t = now
                    clamped += 1
                heappush(heap, (t, seq, f, after))
                seq += 1
        if initial is None:
            continue

        ts.append(t_star)
        tvs.append(tot_tv)
        temples.append(tot_temple)
        waves.append(n_waves)
        pts.append(n_pts)
        if observers:
            event = Event(t_star, x_star, tot_tv, tot_temple, n_waves, n_pts)
            for obs in observers:
                obs(event)

        if strict:
            _flush(log_pending)
            i = len(log.ts) - 1
            x_before = before.position(t_star) if before is not None else -math.inf
            x_after = after.position(t_star) if after is not None else math.inf
            bad = event_order_violations(i, t_star, x_star, x_before, x_after)
            bad += functional_violations(log, eps_w, i)
            if bad:
                raise InvariantViolation(bad[0])

        events += 1
        if events > event_cap:
            raise EventOverflow(f"more than {event_cap} interactions")

    # close out the survivors in list order, each read into the final
    # snapshot and unlinked
    fronts = []
    f = head
    while f is not None:
        fronts.append(new_tuple(DiagramFront, (f.x0 + f.speed * (t_end - f.t0), f.speed,
                                               states[f.l], states[f.r], f.kind)))
        t0s.append(f.t0)
        t1s.append(t_end)
        x0s.append(f.x0)
        speeds.append(f.speed)
        lefts.append(f.l)
        rights.append(f.r)
        kinds.append(f.kind)
        nxt = f.next
        f.prev = f.next = None
        f = nxt
    _flush(pending)
    final = FrontDiagram(t_end, fronts[0].left if fronts else initial.left_state, fronts)
    stats = RunStats(stale, clamped, max(log.waves))
    return RunResult(laws, mesh, t_end, history, log, initial, final, events, stats)


def _flush(pending):
    """Move each (typed column, list of rows) pair's rows into its column."""
    for col, rows in pending:
        col.fromlist(rows)
        rows.clear()


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
