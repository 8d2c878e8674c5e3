"""Dyadic state mesh and the approximate Riemann solver with discretized
rarefactions.

A node, on velocity line iv and marker line iw, is one integer inside the
package, its state id iv * id_stride + iw + 1: a velocity step moves it by
id_stride, a marker step by 1.  Each node's state is built once per mesh,
so states snapped to the mesh compare exactly and repeated solves never
re-run root finders; (iv, iw) is formed only where geometry needs it.
"""

from __future__ import annotations

import math
import weakref
from array import array

import numpy as np

from .errors import NotOnMesh, ValueOutsideOmega
from .model import ModelLaws, Phase, TrafficState
from .riemann import WaveKind

_IDX_GUARD = 1e-9      # index-space slack when flooring coordinates
VACUUM_IW = -1         # synthetic marker index for vacuum under constant v_f
# node_fan's jump kinds and the node phases as module globals: a WaveKind
# member read costs 125 ns against 17.5 ns for a global (timeit, Python
# 3.11.7), and those reads were about 5% of engine.run on level-6
# traffic-light data
SHOCK, RAREFACTION_STEP = WaveKind.SHOCK, WaveKind.RAREFACTION_STEP
CONTACT, PHASE_TRANSITION = WaveKind.CONTACT, WaveKind.PHASE_TRANSITION
FREE, CONGESTED = Phase.FREE, Phase.CONGESTED

Node = tuple[int, int]  # a node's line indices (iv, iw)


class _NodeStates(dict):
    """State id -> TrafficState of one mesh, each state built on first
    lookup.  The mesh is held weakly, so the two form no reference cycle."""

    __slots__ = ("_mesh",)

    def __init__(self, mesh: GridMesh):
        super().__init__()
        self._mesh = weakref.ref(mesh)

    def __missing__(self, sid: int) -> TrafficState:
        return self._mesh()._build_state(sid)


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
            self.iw_c = 0
            # and every free wave, up or down the free line, is a contact
            self.free_shock = self.free_wave = CONTACT
        else:
            w_base = laws.W_min
            span = laws.W_c - laws.W_min
            self.iw_c = two_n
            self.free_shock, self.free_wave = SHOCK, RAREFACTION_STEP
        self.eps_w = span / two_n

        m = int(math.floor((laws.W_max - w_base) / self.eps_w + _IDX_GUARD))
        self.w_values = [w_base + i * self.eps_w for i in range(m + 1)]
        if laws.W_max - self.w_values[-1] > 1e-9 * self.eps_w:
            self.w_values.append(laws.W_max)
        self.v_values = [i * self.eps_v for i in range(two_n + 1)] + [laws.V_f]
        # marker value by a state id's column, id % id_stride = iw + 1:
        # column 0, VACUUM_IW's, reads W_c
        self.w_col = [laws.W_c] + self.w_values
        self.iv_free = two_n + 1
        self.iv_vc = two_n

        # a node as one integer, its state id: iv * id_stride + iw + 1, so
        # that marker index VACUUM_IW (-1) has an id too
        self.id_stride = len(self.w_values) + 1
        # state id -> state, built on first lookup; _rev inverts it by
        # identity, id(state) -> state id: the mesh holds each state it
        # builds for its whole life, so an id found there is that state's
        self.states = _NodeStates(self)
        self._rev: dict[int, int] = {}
        # each built node's (rho, v, congested, marker_W), appended as its
        # state is built, and its place among them by state id, plus 1 (0:
        # not built).  Columns indexed by state id would be simpler, but a
        # rarefaction along a marker line touches one page of each per
        # velocity line: they raised the peak RSS of a level 5..9 ladder
        # from 34 to 42 MB
        self._values = (array("d"), array("d"), array("b"), array("d"))
        self._slot = np.zeros((self.iv_free + 1) * self.id_stride, dtype=np.int32)

    # -- node access ---------------------------------------------------------

    @property
    def num_w(self) -> int:
        return len(self.w_values)

    def state(self, iv: int, iw: int) -> TrafficState:
        # iw is checked before the id is formed: off [VACUUM_IW, num_w) it
        # would alias a node of the next or the previous velocity line
        if not VACUUM_IW <= iw < len(self.w_values):
            raise NotOnMesh(f"no node at (iv={iv}, iw={iw})")
        return self.states[iv * self.id_stride + iw + 1]

    def state_id(self, node: Node) -> int:
        return node[0] * self.id_stride + node[1] + 1

    def node_of(self, sid: int) -> Node:
        iv, iw = divmod(sid, self.id_stride)
        return iv, iw - 1

    def node_values(self, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """(rho, v, congested, marker_W) of the nodes with the given state
        ids, as arrays of the values each node's state wrote when it was
        built; a node not built yet is built first."""
        at = self._slot[ids]
        if not at.all():
            for sid in ids[at == 0].tolist():
                self.states[sid]
            at = self._slot[ids]
        at -= 1
        rho, v, congested, marker = self._values
        return (np.frombuffer(rho)[at], np.frombuffer(v)[at],
                np.frombuffer(congested, dtype=bool)[at], np.frombuffer(marker)[at])

    def _build_state(self, sid: int) -> TrafficState:
        iv, iw = self.node_of(sid)
        laws = self.laws
        if iv == self.iv_free:
            if iw != VACUUM_IW:
                rho = laws.free_rho_from_marker(self.w_values[iw])
                u = TrafficState(rho, laws.v_free(rho), FREE)
            elif laws.degenerate_free:
                u = laws.vacuum()
            else:
                raise NotOnMesh(f"no free node at (iv={iv}, iw={iw})")
            rho, v, congested, marker = u.rho, u.v, False, laws.marker_W(u)
        else:
            if not (0 <= iv <= self.iv_vc and self.iw_c <= iw):
                raise NotOnMesh(f"no congested node at (iv={iv}, iw={iw})")
            v = self.v_values[iv]
            rho = laws.p_inv(self.w_values[iw] - v)
            u = TrafficState(rho, v, CONGESTED)
            # marker_W's arithmetic on a congested state
            congested, marker = True, max(v + laws.p(rho), laws.W_c)
        self.states[sid] = u
        self._rev[id(u)] = sid
        rho_col, v_col, congested_col, marker_col = self._values
        self._slot[sid] = len(rho_col) + 1
        rho_col.append(rho)
        v_col.append(v)
        congested_col.append(congested)
        marker_col.append(marker)
        return u

    # -- coordinate -> index -------------------------------------------------

    def brackets(self, u: TrafficState) -> tuple[tuple[int, int], tuple[int, int]]:
        """(floor, ceiling) velocity- and marker-index tubes bracketing a
        state.  Floors are order-preserving in each coordinate; a congested
        marker is clamped into the congested band, and under a constant free
        speed a sub-critical free density, indistinguishable from vacuum in
        coordinates, brackets to the vacuum node.  A state equal to a mesh
        node brackets to that node alone, however its marker rounds; one
        outside the model domain (1e-9 slack) raises ValueOutsideOmega."""
        laws = self.laws
        if not laws.contains(u, tol=1e-9):
            raise ValueOutsideOmega(f"{u} not in the model domain")
        if u.phase is Phase.FREE:
            ivb = (self.iv_free, self.iv_free)
            if laws.degenerate_free and u.rho < laws.rho_free_crit - 1e-12:
                return ivb, (VACUUM_IW, VACUUM_IW)
            iw_min = 0
        else:
            lo = min(max(int(math.floor(u.v / self.eps_v + _IDX_GUARD)), 0), self.iv_vc)
            ivb = (lo, lo if self.v_values[lo] >= u.v - 1e-12 else min(lo + 1, self.iv_vc))
            iw_min = self.iw_c
        w2 = laws.w2(u)
        w = self.w_values
        last = len(w) - 1
        lo = self.marker_floor(w2, iw_min)
        iwb = (lo, lo if w[lo] >= w2 - 1e-12 else min(lo + 1, last))
        if ivb[0] != ivb[1] or iwb[0] != iwb[1]:
            # compare the corners by value: _rev finds only the state objects
            # this mesh built, not a state equal to one
            for iv in ivb:
                for iw in iwb:
                    if self.state(iv, iw) == u:
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

    def index_of(self, u: TrafficState) -> Node:
        """The corner of the state's brackets that equals it within 1e-9."""
        ivb, iwb = self.brackets(u)
        for iv in ivb:
            for iw in iwb:
                if self.laws.states_equal(self.state(iv, iw), u, tol=1e-9):
                    return iv, iw
        raise NotOnMesh(f"{u} is not a mesh node")


Jump = tuple[float, int, int, WaveKind, float, float, int]


def node_fan(mesh: GridMesh, l: int, r: int) -> list[Jump]:
    """Mesh-valued Riemann solver on state ids: the fan between nodes l and
    r as (speed, left id, right id, kind, tv, temple, pt) jumps, left to
    right, emitted in one walk from the node floats.  Rarefactions become
    chains of jumps between consecutive nodes of their wave curve.

    Each jump travels at riemann.sigma's speed, its cases in sigma's order
    and written only where they can occur: a vacuum left side gives the
    right side's v, a vacuum right side or equal velocities the left
    side's v, anything else sigma's general formula.  Its terms are
    tv = |dv| + |dw| on v_values (V_f on the free line) and w_col, with
    temple = tv but for a congested contact dropping two marker lines or
    more, which adds |dw| again (the wave-split budget of the functional),
    and pt = 1 across a phase boundary; zero parts are dropped, since
    x + 0.0 is x for x >= 0."""
    stride, iv_free = mesh.id_stride, mesh.iv_free
    ivl, ivr = l // stride, r // stride
    states, v_values, w_col = mesh.states, mesh.v_values, mesh.w_col
    fan: list[Jump] = []
    a = l
    if ivl != iv_free:
        # the 1-wave along the marker line of l, one shock or rarefaction
        # steps, to the velocity line of r or, r free, up to the ceiling
        iv_b = ivr if ivr != iv_free else mesh.iv_vc
        if iv_b < ivl:
            ivs, kind = (iv_b,), SHOCK
        else:
            ivs, kind = range(ivl + 1, iv_b + 1), RAREFACTION_STEP
        col = l % stride
        rho_a, v_a = states[l].rho, v_values[ivl]
        for iv in ivs:
            b = iv * stride + col
            rho_b, v_b = states[b].rho, v_values[iv]
            dv = abs(v_b - v_a)
            fan.append(((rho_b * v_b - rho_a * v_a) / (rho_b - rho_a), a, b, kind, dv, dv, 0))
            a, rho_a, v_a = b, rho_b, v_b
        if ivr == iv_free:
            # the phase transition to the free node of the same marker, on
            # the velocity line above the ceiling
            b = a + stride
            u_b = states[b]
            dv = abs(v_values[iv_free] - v_a)
            fan.append(((u_b.rho * u_b.v - rho_a * v_a) / (u_b.rho - rho_a), a, b,
                        PHASE_TRANSITION, dv, dv, 1))
            a = b
    elif ivr != iv_free:
        # one phase transition: straight to r out of vacuum, else to the
        # velocity line of r at the marker of l or the lowest congested one
        u_l = states[l]
        a = r if u_l.rho == 0.0 else ivr * stride + max(mesh.iw_c, l % stride - 1) + 1
        rho_a, v_a = states[a].rho, v_values[ivr]
        speed = v_a if u_l.rho == 0.0 else (rho_a * v_a - u_l.rho * u_l.v) / (rho_a - u_l.rho)
        tv = abs(v_values[iv_free] - v_a) + abs(w_col[l % stride] - w_col[a % stride])
        fan.append((speed, l, a, PHASE_TRANSITION, tv, tv, 1))
    if a == r:
        return fan
    if ivr != iv_free:
        # the contact along the velocity line of r
        dw = abs(w_col[a % stride] - w_col[r % stride])
        fan.append((v_values[ivr], a, r, CONTACT, dw, dw + dw if a - r >= 2 else dw, 0))
        return fan

    # the free wave: one shock up the free line, or one jump per marker line
    # down it, so that every drop reaching a phase boundary is one marker
    # quantum; a drop into vacuum (VACUUM_IW) goes straight from marker 1
    if a < r:
        path, kind = [r], mesh.free_shock
    else:
        path, kind = [*range(a - 1, max(r, iv_free * stride + 1), -1), r], mesh.free_wave
    u_a = states[a]
    rho_a, v_a, w_a = u_a.rho, u_a.v, w_col[a % stride]
    for b in path:
        u_b = states[b]
        rho_b, v_b, w_b = u_b.rho, u_b.v, w_col[b % stride]
        if rho_a == 0.0:
            speed = v_b
        elif rho_b == 0.0 or v_a == v_b:
            speed = v_a
        else:
            speed = (rho_b * v_b - rho_a * v_a) / (rho_b - rho_a)
        dw = abs(w_a - w_b)
        fan.append((speed, a, b, kind, dw, dw, 0))
        a, rho_a, v_a, w_a = b, rho_b, v_b, w_b
    return fan


def solve_approx(mesh: GridMesh, u_l: TrafficState, u_r: TrafficState) -> list[Jump]:
    """State-level adapter of node_fan: the mesh Riemann fan, as node_fan's
    jumps, between the nodes of u_l and u_r.  A state object this mesh
    built is found by identity, one probe of id(u) in _rev (no node has id
    0, so only a missed probe is false); any other state, a copy or another
    mesh's node, goes through index_of."""
    rev = mesh._rev
    l = rev.get(id(u_l)) or mesh.state_id(mesh.index_of(u_l))
    r = rev.get(id(u_r)) or mesh.state_id(mesh.index_of(u_r))
    return node_fan(mesh, l, r)
