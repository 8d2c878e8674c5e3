"""Dyadic state mesh and the approximate Riemann solver with discretized
rarefactions.

Nodes are addressed by integer indices (iv, iw) into cached coordinate
arrays, so states snapped to the mesh compare exactly and repeated solves
never re-run root finders.
"""

from __future__ import annotations

import math
import weakref

from .errors import NotOnMesh, ValueOutsideOmega
from .model import ModelLaws, Phase, TrafficState
from .riemann import Wave, WaveFan, WaveKind, sigma

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
        else:
            w_base = laws.W_min
            span = laws.W_c - laws.W_min
            self._iw_c = two_n
        self.eps_w = span / two_n

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

    # -- node access ---------------------------------------------------------

    @property
    def iw_c(self) -> int:
        return self._iw_c

    @property
    def num_w(self) -> int:
        return len(self.w_values)

    def w_value(self, iw: int) -> float:
        return self.w_at[iw]

    def v_value(self, iv: int) -> float:
        return self.v_values[iv]

    def state(self, iv: int, iw: int) -> TrafficState:
        return self.states[iv, iw]

    def _build_state(self, key: Node) -> TrafficState:
        iv, iw = key
        laws = self.laws
        if iv == self.iv_free:
            if iw == VACUUM_IW:
                u = laws.vacuum()
            else:
                rho = laws.free_rho_from_marker(self.w_values[iw])
                u = TrafficState(rho, laws.v_free(rho), Phase.FREE)
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
        coordinates, brackets to the vacuum node."""
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
        if w2 >= w[last] - 1e-9 * self.eps_w:
            lo = last
        else:
            lo = min(max(int(math.floor((w2 - w[0]) / self.eps_w + _IDX_GUARD)), iw_min), last)
        return ivb, (lo, lo if w[lo] >= w2 - 1e-12 else min(lo + 1, last))

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


def _free_wave_kind(laws: ModelLaws) -> WaveKind:
    return WaveKind.CONTACT if laws.degenerate_free else WaveKind.RAREFACTION_STEP


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
    laws = mesh.laws
    iv_free = mesh.iv_free
    ivl, iwl = l
    ivr, iwr = r
    # the fan as a path of nodes from l: (next node, kind of the jump to it)
    steps: list[tuple[Node, WaveKind]] = []
    free_shock = WaveKind.CONTACT if laws.degenerate_free else WaveKind.SHOCK
    lf, rf = ivl == iv_free, ivr == iv_free

    if ivl == ivr and iwl == iwr:
        pass
    elif lf and rf:
        if iwl < iwr:
            steps.append((r, free_shock))
        else:
            steps = _free_steps(iv_free, l, r, _free_wave_kind(laws))
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
            steps += _free_steps(iv_free, m2, r, _free_wave_kind(laws))

    states = mesh.states
    fan: list[tuple[float, Node, Node, WaveKind]] = []
    a, u_a = l, states[l]
    for b, kind in steps:
        u_b = states[b]
        fan.append((sigma(u_a, u_b), a, b, kind))
        a, u_a = b, u_b
    return fan


class MeshFan(WaveFan):
    """Fan of the mesh Riemann solver, held as node_fan's jumps
    (speed, left node, right node, kind).  The waves, which carry states,
    are built from the jumps on first access: the front-tracking engine
    reads only the jumps, and building a Wave per jump would cost it as
    much again as solving."""

    __slots__ = ("jumps", "_states", "_waves")

    def __init__(self, mesh: GridMesh, l: Node, r: Node):
        states = self._states = mesh.states
        self.left = states[l]
        self.right = states[r]
        self.jumps = node_fan(mesh, l, r)
        self._waves = None

    @property
    def waves(self) -> list[Wave]:
        if self._waves is None:
            states = self._states
            self._waves = [Wave(kind, states[a], states[b], s, s)
                           for s, a, b, kind in self.jumps]
        return self._waves


def solve_approx(mesh: GridMesh, u_l: TrafficState, u_r: TrafficState) -> MeshFan:
    """State-level adapter of node_fan: the mesh Riemann fan between the
    nodes of u_l and u_r."""
    return MeshFan(mesh, mesh.index_of(u_l), mesh.index_of(u_r))
