"""Random points of the state space, for tests that probe off-mesh states."""

import phasetrack as pt


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
