"""State and mesh helpers for tests: random points of the state space, for
tests that probe off-mesh states, the vacuum test, the enumeration of a
mesh's nodes and the floor of a state onto the mesh."""

import phasetrack as pt
from phasetrack.grid import VACUUM_IW


def random_state(laws, rng, vacuum_prob=0.1, free_prob=0.4):
    """Random point of the state space (not necessarily on any mesh)."""
    r = rng.random()
    if r < vacuum_prob:
        return laws.vacuum()
    if r < vacuum_prob + free_prob:
        rho = rng.uniform(0.0, laws.rho_free_max)
        return pt.TrafficState(rho, laws.v_free(rho), pt.Phase.FREE)
    w2 = rng.uniform(laws.W_c, laws.W_max)
    v = rng.uniform(0.0, laws.V_c)
    return pt.TrafficState(laws.p_inv(w2 - v), v, pt.Phase.CONGESTED)


def is_vacuum(u):
    """Whether a state is the vacuum: free, at density 0."""
    return u.phase is pt.Phase.FREE and u.rho == 0.0


def mesh_nodes(mesh):
    """(iv, iw) of every node of a `GridMesh`: the congested box, then the
    free line."""
    for iw in range(mesh.iw_c, mesh.num_w):
        for iv in range(mesh.iv_vc + 1):
            yield (iv, iw)
    for iw in range(mesh.num_w):
        yield (mesh.iv_free, iw)
    if mesh.laws.degenerate_free:
        yield (mesh.iv_free, VACUUM_IW)


def snap(mesh, u):
    """The low corner of the state's brackets: componentwise floor of the
    coordinates to mesh lines, clamped into the admissible box."""
    (iv, _), (iw, _) = mesh.brackets(u)
    return mesh.state(iv, iw)
