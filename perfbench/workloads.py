"""The benchmark's workloads: which maps each one sets up and which specs it runs.

Every workload is built from ``--seed`` alone.  The seed jitters the
scale-gen pillars and seeds the random replay targets; the bundled maps
and their specs are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Wall limit of a case that no workload is expected to reach.  It keeps a
# run that a later change slows down (or sends into a loop) inside the
# benchmark's time budget, and reports such a case as undecided.
DEFAULT_WALL_S = 60.0

# liveness10x15's bundled spec has never finished: the counterexample-graph
# analysis grows without bound from about 5 s into the case.  The limit
# lets that analysis run for a few seconds, so its spans and partial node
# count are recorded, and keeps the run inside its time budget.  Wall limits
# are in reference seconds (probe.py).
LIVENESS_WALL_S = 10.0

SCALE_SIZES = (12, 16, 20)
SCALE_CFG = "agent_radius=1\ntarget_radius=1\nallow_stay=false\nvision_range=3\n"


@dataclass(frozen=True)
class Problem:
    """One distinct map and config; set up once per run."""

    name: str
    map_text: str
    cfg_text: str
    # predicates beyond the map's own letters, as PredicateDef arguments
    # (name, cells, on_target)
    extra_predicates: tuple = ()


@dataclass(frozen=True)
class Case:
    """One ``surveil synth`` call: a spec on a problem."""

    problem: str
    spec: str
    # verdict pinned by an argument that does not depend on the CEGAR loop
    expect: str | None = None
    # compare the verdict with the exact belief-game oracle
    oracle: bool = False
    wall_s: float = DEFAULT_WALL_S
    # whether the case counts towards peak_rss_mb; a case excluded from it
    # must come after every included one
    counts_rss: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    cases: tuple
    # closed-loop steps per replay of each realizable controller, per policy
    replay_steps: int


def pillar_grid(n: int, seed: int) -> str:
    """An ``n`` x ``n`` room with one pillar per 4x4 tile.

    The seed moves each pillar within the centre 2x2 of its tile.  The
    agent starts in the top-left corner and the target in the
    bottom-right one, which no pillar can reach, so every seed gives the
    same number of free cells and the same start distance.
    """
    rng = random.Random(f"scale-gen:{seed}:{n}")
    rows = [["."] * n for _ in range(n)]
    for i in range(0, n - 2, 4):
        for j in range(0, n - 2, 4):
            rows[i + 1 + rng.randrange(2)][j + 1 + rng.randrange(2)] = "#"
    rows[0][0] = "A"
    rows[n - 1][n - 1] = "T"
    return "".join("".join(r) + "\n" for r in rows)


def _free_cells(map_text: str) -> int:
    return sum(ch not in "#\n" for ch in map_text)


def _always_true(problem: Problem) -> Case:
    # p<=k with k = number of free cells holds in every state, so the spec
    # is realizable whatever the CEGAR loop does
    return Case(problem.name, f"G p<={_free_cells(problem.map_text)}", expect="realizable")


def _bundled(name: str, read) -> Problem:
    return Problem(name, read(f"{name}.txt"), read(f"{name}.cfg"))


def paper_oracle(read, seed: int) -> Workload:
    # goal is the agent standing on cell 0, as in the oracle-equivalence test
    problem = Problem(
        "paper5x5",
        read("paper5x5.txt"),
        read("paper5x5.cfg"),
        extra_predicates=(("goal", (0,), False),),
    )
    specs = (
        [f"G p<={k}" for k in range(1, 7)]
        + [f"GF p<={k}" for k in range(1, 7)]
        + ["G p<=5 & GF p<=2", "GF p<=1 & GF goal"]
    )
    cases = tuple(Case("paper5x5", s, oracle=True) for s in specs)
    return Workload("paper-oracle", (problem,), cases, replay_steps=300)


def bigroom(read, seed: int) -> Workload:
    spec = read("bigroom_liveness.spec").strip()
    # pinned to the verdict this bundled README example has always had
    cases = (Case("bigroom", spec, expect="realizable"),)
    return Workload("bigroom", (_bundled("bigroom", read),), cases, replay_steps=2000)


def scale_gen(read, seed: int) -> Workload:
    problems, cases = [], []
    for n in SCALE_SIZES:
        problem = Problem(f"pillars{n}", pillar_grid(n, seed), SCALE_CFG)
        problems.append(problem)
        cases += [Case(problem.name, "G p<=2"), _always_true(problem)]
    return Workload("scale-gen", tuple(problems), tuple(cases), replay_steps=1000)


def liveness10x15(read, seed: int) -> Workload:
    problem = _bundled("liveness10x15", read)
    cases = (
        # a cheap decidable case on the same map, so the workload has a
        # verdict and a controller to replay while the bundled spec has none
        _always_true(problem),
        # What the analysis graph holds when the limit stops it depends on
        # how far it got and on where its tables last doubled: 107-147 MB
        # over five runs.  So this case is left out of peak_rss_mb; its
        # growth shows in cegar.analysis_nodes.
        Case(problem.name, read("liveness10x15.spec").strip(),
             wall_s=LIVENESS_WALL_S, counts_rss=False),
    )
    return Workload("liveness10x15", (problem,), cases, replay_steps=2000)


WORKLOADS = {
    "paper-oracle": paper_oracle,
    "bigroom": bigroom,
    "scale-gen": scale_gen,
    "liveness10x15": liveness10x15,
}
