"""Dyadic state mesh and the approximate Riemann solver with discretized
rarefactions.

Nodes are addressed by integer indices (iv, iw) into cached coordinate
arrays, so states snapped to the mesh compare exactly and repeated solves
never re-run root finders.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import NotOnMesh, ValueOutsideOmega
from .model import ModelLaws, Phase, TrafficState
from .riemann import WaveKind, sigma

_IDX_GUARD = 1e-9      # index-space slack when flooring coordinates
VACUUM_IW = -1         # synthetic marker index for vacuum under constant v_f

Node = tuple[int, int]  # node id (iv, iw)


class _NodeStates(dict):
    """Node id -> TrafficState of one mesh, each state built on first
    lookup.  The mesh is held weakly, so the two form no reference cycle."""

    __slots__ = ("_mesh",)

    def __init__(self, mesh: GridMesh):
        super().__init__()
        self._mesh = weakref.ref(mesh)

    def __missing__(self, node: Node) -> TrafficState:
        return self._mesh()._build_state(node)


class GridMesh:
    """Mesh of admissible states at refinement level n.

    Velocity nodes are the dyadic multiples of eps_v up to the congested
    ceiling plus the free speed; marker nodes are dyadic multiples of eps_w
    spanning the marker range, with the top of the range adjoined as an
    extra (possibly off-lattice) node.
    """

    def __init__(self, laws: ModelLaws, n: int):
        if n < 1:
            raise ValueError("refinement level must be >= 1")
        self.laws = laws
        self.n = n
        two_n = 1 << n
        self.eps_v = laws.V_c / two_n

        if laws.degenerate_free:
            # constant free speed: the sub-critical marker band collapses,
            # so the quantum is taken from the congested marker span instead
            w_base = laws.W_c
            span = laws.W_max - laws.W_c
            self._iw_c = 0
            # and every free wave, up or down the free line, is a contact
            self.free_shock = self.free_wave = WaveKind.CONTACT
        else:
            w_base = laws.W_min
            span = laws.W_c - laws.W_min
            self._iw_c = two_n
            self.free_shock, self.free_wave = WaveKind.SHOCK, WaveKind.RAREFACTION_STEP
        self.eps_w = span / two_n
        # node_fan's congested-congested branch, most fans of a run, reads
        # its jump kinds from the mesh: on Python 3.11 a WaveKind member read
        # costs 0.16 us against 0.01 us for an instance attribute, and those
        # reads were about 5% of engine.run on level-6 traffic-light data
        self.shock, self.rarefaction_step = WaveKind.SHOCK, WaveKind.RAREFACTION_STEP
        self.contact = WaveKind.CONTACT

        m = int(math.floor((laws.W_max - w_base) / self.eps_w + _IDX_GUARD))
        self.w_values = [w_base + i * self.eps_w for i in range(m + 1)]
        if laws.W_max - self.w_values[-1] > 1e-9 * self.eps_w:
            self.w_values.append(laws.W_max)
        self.v_values = [i * self.eps_v for i in range(two_n + 1)] + [laws.V_f]
        # marker value by any marker index: VACUUM_IW (-1) reads the last entry
        self.w_at = self.w_values + [laws.W_c]
        self.iv_free = two_n + 1
        self.iv_vc = two_n

        # node id -> state, built on first lookup; _rev inverts it
        self.states = _NodeStates(self)
        self._rev: dict[tuple[float, float], Node] = {}
        # a node as one integer, its state id: iv * id_stride + iw + 1
        self.id_stride = len(self.w_values) + 1
        # the node values read so far (node_values), and each state id's
        # place among them (-1: not read), allocated on first use
        self._values = (np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0))
        self._value_at: np.ndarray | None = None

    # -- node access ---------------------------------------------------------

    @property
    def iw_c(self) -> int:
        return self._iw_c

    @property
    def num_w(self) -> int:
        return len(self.w_values)

    def state(self, iv: int, iw: int) -> TrafficState:
        return self.states[iv, iw]

    def state_id(self, node: Node) -> int:
        return node[0] * self.id_stride + node[1] + 1

    def node_of(self, sid: int) -> Node:
        iv, iw = divmod(sid, self.id_stride)
        return iv, iw - 1

    def node_values(self, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """(rho, v, congested, marker_W) of the nodes with the given state
        ids, as arrays.  Each node's values are read from its state once per
        mesh and kept with those of the other nodes read."""
        if self._value_at is None:
            self._value_at = np.full((self.iv_free + 1) * self.id_stride, -1, dtype=np.int32)
        at = self._value_at[ids]
        fresh = ids[at < 0]
        if fresh.size:
            new = sorted(set(fresh.tolist()))
            us = [self.states[self.node_of(sid)] for sid in new]
            marker_W = self.laws.marker_W
            read = ([u.rho for u in us], [u.v for u in us],
                    [u.phase is Phase.CONGESTED for u in us], [marker_W(u) for u in us])
            n = len(self._values[0])
            self._values = tuple(np.concatenate((col, np.array(r, dtype=col.dtype)))
                                 for col, r in zip(self._values, read))
            self._value_at[new] = np.arange(n, n + len(new))
            at = self._value_at[ids]
        return tuple(col[at] for col in self._values)

    def _build_state(self, key: Node) -> TrafficState:
        iv, iw = key
        laws = self.laws
        if iv == self.iv_free:
            if iw == VACUUM_IW and laws.degenerate_free:
                u = laws.vacuum()
            elif 0 <= iw < len(self.w_values):
                rho = laws.free_rho_from_marker(self.w_values[iw])
                u = TrafficState(rho, laws.v_free(rho), Phase.FREE)
            else:
                raise NotOnMesh(f"no free node at (iv={iv}, iw={iw})")
        else:
            if not (0 <= iv <= self.iv_vc and self._iw_c <= iw < len(self.w_values)):
                raise NotOnMesh(f"no congested node at (iv={iv}, iw={iw})")
            v = self.v_values[iv]
            rho = laws.p_inv(self.w_values[iw] - v)
            u = TrafficState(rho, v, Phase.CONGESTED)
        self.states[key] = u
        self._rev[(u.rho, u.v)] = key
        return u

    def nodes(self):
        """All node ids (congested box plus the free line)."""
        for iw in range(self._iw_c, len(self.w_values)):
            for iv in range(self.iv_vc + 1):
                yield (iv, iw)
        for iw in range(len(self.w_values)):
            yield (self.iv_free, iw)
        if self.laws.degenerate_free:
            yield (self.iv_free, VACUUM_IW)

    # -- coordinate -> index -------------------------------------------------

    def brackets(self, u: TrafficState) -> tuple[tuple[int, int], tuple[int, int]]:
        """(floor, ceiling) velocity- and marker-index tubes bracketing a
        state.  Floors are order-preserving in each coordinate; a congested
        marker is clamped into the congested band, and under a constant free
        speed a sub-critical free density, indistinguishable from vacuum in
        coordinates, brackets to the vacuum node.  A state equal to a mesh
        node brackets to that node alone, however its marker rounds."""
        laws = self.laws
        if u.phase is Phase.FREE:
            ivb = (self.iv_free, self.iv_free)
            if laws.degenerate_free and u.rho < laws.rho_free_crit - 1e-12:
                return ivb, (VACUUM_IW, VACUUM_IW)
            iw_min = 0
        else:
            lo = min(max(int(math.floor(u.v / self.eps_v + _IDX_GUARD)), 0), self.iv_vc)
            ivb = (lo, lo if self.v_values[lo] >= u.v - 1e-12 else min(lo + 1, self.iv_vc))
            iw_min = self._iw_c
        w2 = laws.w2(u)
        w = self.w_values
        last = len(w) - 1
        lo = self.marker_floor(w2, iw_min)
        iwb = (lo, lo if w[lo] >= w2 - 1e-12 else min(lo + 1, last))
        if ivb[0] != ivb[1] or iwb[0] != iwb[1]:
            # compare the corners by value: _rev holds only the nodes built so far
            for iv in ivb:
                for iw in iwb:
                    if self.states[iv, iw] == u:
                        return (iv, iv), (iw, iw)
        return ivb, iwb

    def marker_floor(self, w2: float, iw_min: int) -> int:
        """Index of the marker line at or just below w2, within _IDX_GUARD
        of a line in index space, clamped to [iw_min, num_w - 1]."""
        w = self.w_values
        last = len(w) - 1
        if w2 >= w[last] - 1e-9 * self.eps_w:
            return last
        return min(max(int(math.floor((w2 - w[0]) / self.eps_w + _IDX_GUARD)), iw_min), last)

    def snap(self, u: TrafficState) -> TrafficState:
        """The low corner of the state's brackets: componentwise floor of the
        coordinates to mesh lines, clamped into the admissible box."""
        if not self.laws.contains(u, tol=1e-9):
            raise ValueOutsideOmega(f"{u} not in the model domain")
        (iv, _), (iw, _) = self.brackets(u)
        return self.state(iv, iw)

    def index_of(self, u: TrafficState) -> Node:
        key = self._rev.get((u.rho, u.v))
        if key is not None:
            return key
        # tolerate externally built copies of node states: the node lies at
        # or one step above the floor in each coordinate
        snapped = self.snap(u)
        iv, iw = self._rev[(snapped.rho, snapped.v)]
        up_v, up_w = iv < self.iv_vc, iw + 1 < len(self.w_values)
        cand = [(iv + dv, iw + dw) for dv in (0, 1) for dw in (0, 1)
                if (up_v or not dv) and (up_w or not dw)]
        for iv2, iw2 in cand:
            try:
                node = self.state(iv2, iw2)
            except NotOnMesh:
                continue
            if self.laws.states_equal(node, u, tol=1e-9):
                return (iv2, iw2)
        raise NotOnMesh(f"{u} is not a mesh node")


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
    mass-conserving speed.  The congested-congested case, most fans of a
    run, is tested first and emits its jumps as it walks; the other cases
    build their path of nodes first."""
    iv_free = mesh.iv_free
    ivl, iwl = l
    ivr, iwr = r
    states = mesh.states
    lf, rf = ivl == iv_free, ivr == iv_free

    if not lf and not rf:
        # a 1-wave along marker iwl (one shock, or rarefaction steps up the
        # velocity nodes), then a contact along the velocity line of r
        fan: list[tuple[float, Node, Node, WaveKind]] = []
        a, u_a = l, states[l]
        if ivr < ivl:
            b = (ivr, iwl)
            u_b = states[b]
            fan.append((sigma(u_a, u_b), a, b, mesh.shock))
            a, u_a = b, u_b
        elif ivr > ivl:
            step = mesh.rarefaction_step
            for iv in range(ivl + 1, ivr + 1):
                b = (iv, iwl)
                u_b = states[b]
                fan.append((sigma(u_a, u_b), a, b, step))
                a, u_a = b, u_b
        if iwl != iwr:
            fan.append((sigma(u_a, states[r]), a, r, mesh.contact))
        return fan

    # the fan as a path of nodes from l: (next node, kind of the jump to it)
    steps: list[tuple[Node, WaveKind]] = []
    free_shock = mesh.free_shock
    if lf and rf:
        if iwl < iwr:
            steps.append((r, free_shock))
        elif iwl > iwr:
            steps = _free_steps(iv_free, l, r, mesh.free_wave)
    elif lf:
        # free -> congested: one phase transition, then a possibly-null contact
        if states[l].rho == 0.0:
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

    fan = []
    a, u_a = l, states[l]
    for b, kind in steps:
        u_b = states[b]
        fan.append((sigma(u_a, u_b), a, b, kind))
        a, u_a = b, u_b
    return fan


def solve_approx(mesh: GridMesh, u_l: TrafficState,
                 u_r: TrafficState) -> list[tuple[float, Node, Node, WaveKind]]:
    """State-level adapter of node_fan: the mesh Riemann fan between the
    nodes of u_l and u_r, as node jumps.  A node state built by the mesh is
    found by one probe of its (rho, v), index_of's fast path; any other
    state goes through index_of."""
    rev = mesh._rev
    l = rev.get((u_l.rho, u_l.v)) or mesh.index_of(u_l)
    r = rev.get((u_r.rho, u_r.v)) or mesh.index_of(u_r)
    return node_fan(mesh, l, r)
