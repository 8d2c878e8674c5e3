"""Faults injected into the event loop or into a run's history, for tests
of the invariant checks."""

import contextlib

from phasetrack import engine
from phasetrack.riemann import sigma


def inflate_event_tv(monkeypatch, n_initial):
    """Make fronts born at events carry one unit of TV too many; the first
    n_initial fronts built, those of the t = 0 resolution, stay exact.
    Every jump of the engine's Riemann solves is counted as one front.
    Returns the list of jumps so far: clear it before each further run."""
    original = engine.solve_approx
    calls = []

    def inflated(mesh, u_l, u_r):
        fan = []
        for s, a, b, kind, tv, temple, pt in original(mesh, u_l, u_r):
            calls.append(1)
            fan.append((s, a, b, kind, tv + 1.0 if len(calls) > n_initial else tv, temple, pt))
        return fan

    monkeypatch.setattr(engine, "solve_approx", inflated)
    return calls


def displace_front(monkeypatch, k, dx):
    """Make the k-th front built, counting from 0 with those of the t = 0
    resolution, lie dx to the right of its line: its position moves by dx,
    while the collision times read from its line's intercept do not.  The
    run builds a front by storing its slots, x0 once per front, so the hook
    is an x0 property over the front's own slot that shifts the k-th store.
    Returns the list of fronts built so far: clear it before each further
    run."""
    built = []
    slot = engine._F.x0

    class Displaced(engine._F):
        __slots__ = ()

        @property
        def x0(self):
            return slot.__get__(self)

        @x0.setter
        def x0(self, x):
            slot.__set__(self, x + dx if len(built) == k else x)
            built.append(self)

    monkeypatch.setattr(engine, "_F", Displaced)
    return built


@contextlib.contextmanager
def _row_fault(history, i, speed, right):
    """Row i of a history with the given speed and right state id written
    into its columns; yields the faulted record and restores the row on
    exit."""
    saved = history.speed[i], history.right[i]
    history.speed[i], history.right[i] = speed, right
    try:
        yield history[i]
    finally:
        history.speed[i], history.right[i] = saved


def mass_fault(res, i, offset=1e-3):
    """Row i of the run's history with its speed offset: the front breaks
    the mass jump condition wherever its two densities differ."""
    h = res.history
    return _row_fault(h, i, h.speed[i] + offset, h.right[i])


def momentum_fault(res, i):
    """Row i, a contact between two congested nodes, with its right node
    moved one velocity step along its marker line, which changes its
    density, and the mass-conserving speed from its left node: mass
    balances across the front, momentum does not."""
    mesh, h = res.mesh, res.history
    right = h.right[i]
    iv, _ = mesh.node_of(right)
    # a velocity step along a marker line is one id_stride of state id
    moved = right - mesh.id_stride if iv > 0 else right + mesh.id_stride
    return _row_fault(h, i, sigma(mesh.states[h.left[i]], mesh.states[moved]), moved)
