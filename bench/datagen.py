"""Seeded inputs for the benchmark workloads.

Every datum is drawn here, from a generator seeded by the benchmark, with
mesh nodes taken through the public ``GridMesh.state``.  Nothing calls the
program's own random helpers, so a change to them cannot change a workload.
"""

from __future__ import annotations

import random
from pathlib import Path

from phasetrack.engine import PiecewiseConstantDatum
from phasetrack.grid import GridMesh, VACUUM_IW
from phasetrack.model import Phase, TrafficState

VACUUM_PROB = 0.15
FREE_PROB = 0.40


def make_rng(workload: str, seed: int) -> random.Random:
    """One generator per (workload, seed); string seeding is stable across
    processes and Python builds."""
    return random.Random(f"phasetrack-bench:{workload}:{seed}")


def vacuum_node(mesh: GridMesh) -> tuple[int, int]:
    return (mesh.iv_free, VACUUM_IW if mesh.laws.degenerate_free else 0)


def draw_node(mesh: GridMesh, rng: random.Random) -> tuple[int, int]:
    """Uniform node of a phase class: vacuum, the free line or the congested box."""
    r = rng.random()
    if r < VACUUM_PROB:
        return vacuum_node(mesh)
    if r < VACUUM_PROB + FREE_PROB:
        return (mesh.iv_free, rng.randrange(mesh.num_w))
    return (rng.randrange(mesh.iv_vc + 1), rng.randrange(mesh.iw_c, mesh.num_w))


def _breaks(rng: random.Random, n: int, lo: float, hi: float) -> tuple[float, ...]:
    while True:
        xs = sorted(rng.uniform(lo, hi) for _ in range(n))
        if all(a < b for a, b in zip(xs, xs[1:])):
            return tuple(xs)


def random_datum(mesh: GridMesh, rng: random.Random, n_jumps: int,
                 x_span: tuple[float, float] = (-10.0, 10.0),
                 vacuum_ends: bool = False) -> PiecewiseConstantDatum:
    """Mesh-valued datum with exactly n_jumps jumps inside x_span.

    With vacuum_ends the profile is vacuum outside the span, so copies
    placed far enough apart never interact.
    """
    if vacuum_ends and n_jumps < 2:
        raise ValueError("a vacuum-bordered datum needs at least two jumps")
    vac = vacuum_node(mesh)
    nodes = [vac if vacuum_ends else draw_node(mesh, rng)]
    for i in range(n_jumps):
        if vacuum_ends and i == n_jumps - 1:
            nodes.append(vac)
            break
        nxt = draw_node(mesh, rng)
        # the last interior piece must differ from the closing vacuum too
        while nxt == nodes[-1] or (vacuum_ends and i == n_jumps - 2 and nxt == vac):
            nxt = draw_node(mesh, rng)
        nodes.append(nxt)
    states = tuple(mesh.state(iv, iw) for iv, iw in nodes)
    return PiecewiseConstantDatum(_breaks(rng, n_jumps, *x_span), states)


def jump_counts(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n jump counts cycling through lo..hi in a seeded order: every count
    appears equally often, which keeps the work of a set of data steadier
    than independent draws would."""
    span = hi - lo + 1
    counts = [lo + i % span for i in range(n)]
    rng.shuffle(counts)
    return counts


def compose(stretches: list[PiecewiseConstantDatum], pitch: float) -> PiecewiseConstantDatum:
    """Place vacuum-bordered stretches pitch apart on one line."""
    breaks: list[float] = []
    states: list[TrafficState] = [stretches[0].states[0]]
    for k, s in enumerate(stretches):
        breaks.extend(x + k * pitch for x in s.breaks)
        states.extend(s.states[1:])
    return PiecewiseConstantDatum(tuple(breaks), tuple(states))


# ---------------------------------------------------------------------------
# INI configs for `phasetrack run`


def state_text(u: TrafficState) -> str:
    """Config spelling of a state; repr() round-trips every float exactly,
    so the CLI rebuilds the very node the generator drew."""
    if u.phase is Phase.FREE:
        return "vacuum" if u.rho == 0.0 else f"free:{u.rho!r}"
    return f"congested:{u.rho!r},{u.v!r}"


def write_ini(path: Path, model: dict[str, str], datum: PiecewiseConstantDatum,
              run: dict[str, str]) -> None:
    lines = ["[model]"]
    lines += [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[datum]", "kind = inline",
              "breaks = " + " ".join(repr(x) for x in datum.breaks),
              "states = " + " | ".join(state_text(u) for u in datum.states),
              "", "[run]"]
    lines += [f"{k} = {v}" for k, v in run.items()]
    path.write_text("\n".join(lines) + "\n")
