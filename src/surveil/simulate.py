"""The controller file, and its closed-loop execution against a target.

This module owns the controller format: :func:`export_strategy` writes a
solved controller as a JSON-ready dictionary, and :func:`load_runner`
checks such a dictionary against the map and builds the only runner
there is from it, whether the controller comes from a file or from a
synthesis in the same process.  The runner keeps the controller state
and memory; the simulator additionally tracks the exact belief and the
target's true location, checking on every step that the true location
lies in the exact belief and the exact belief inside the concretized
abstract one.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .abstraction import Partition
from .belief import TurnGame, belief_key, belief_moves, label_json, landing_cells
from .grid import GridWorld
from .structure import SurveillanceGameStructure


class SimulationError(RuntimeError):
    """A move outside the game structure, or a controller without a move."""


def export_strategy(arena: TurnGame, strat, digest: str, partition: Partition) -> dict:
    """JSON-ready dump of a finite-memory controller whose moves cover
    the ``(state, memory)`` pairs that a run from ``(arena.initial, 0)``
    can reach, as :func:`~surveil.solver.solve` builds them in its
    ``StrategyData``.

    The arena numbers its states as they were found; the file does not
    depend on that numbering.  Only the states the pairs use are
    written, renumbered in canonical order (agent cell, then
    :func:`~surveil.belief.belief_key` of the label), and
    ``winning_region`` lists them all; moves are sorted by state, memory
    and the canonical order of their labels.  ``blocks`` is the arena's
    ``partition``, which the block-set labels refer to.  Raises
    :class:`SimulationError` when ``(initial, 0)`` or a pair that a move
    leads to lacks a move for one of its state's choices.
    """
    labels, label, start = arena.labels, arena.choice_label, arena.choice_off
    states = arena.states
    pairs = sorted(
        {(arena.initial, 0), *strat.moves.values()},
        key=lambda p: (states[p[0]][0], belief_key(states[p[0]][1]), p[1]),
    )
    new = {}
    for i, _ in pairs:
        new.setdefault(i, len(new))
    moves = []
    for i, mem in pairs:
        choices = {labels[label[c]] for c in range(start[i], start[i + 1])}
        for choice in sorted(choices, key=belief_key):
            move = strat.moves.get((i, mem, choice))
            if move is None:
                raise SimulationError(
                    f"controller has no move in state {i}, memory {mem} for "
                    f"choice {label_json(choice)!r}"
                )
            r, mem2 = move
            moves.append([new[i], mem, label_json(choice), new[r], mem2])
    blocks = {str(bid): sorted(cells) for bid, cells in partition.blocks.items()}
    return {
        "digest": digest,
        "memory_count": strat.memory_count,
        "initial": new[arena.initial],
        "winning_region": list(range(len(new))),
        "states": [[states[i][0], label_json(states[i][1])] for i in new],
        "moves": moves,
        "blocks": blocks,
    }


@dataclass
class StrategyRunner:
    """Steps an exported finite-memory controller, as :func:`load_runner`
    reads it, along observed target moves.

    ``states[i]`` is the ``(agent cell, label)`` pair of controller state
    ``i``, and ``moves[(i, memory, label)] = (reply, memory')``.  A move
    labelled by a location is played when the agent sees the target land
    there.  ``set_move[i]`` is the controller's block-set move in state
    ``i`` under ``partition``, which it plays while the agent does not
    see the target; a controller with two block-set moves in one state
    is rejected.  An exact-game controller is one under
    :func:`~surveil.abstraction.singletons`, and reads the same way.
    """

    G: SurveillanceGameStructure
    states: list
    initial: int
    moves: dict
    partition: Partition
    state: int = field(init=False)
    memory: int = field(init=False)
    set_move: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.state = self.initial
        self.memory = 0
        self.set_move = {}
        for i, _, c in self.moves:
            if not isinstance(c, int) and self.set_move.setdefault(i, c) != c:
                raise SimulationError(f"controller has two block-set moves in state {i}")

    @property
    def abstract_state(self):
        return self.states[self.state]

    def step(self, target_loc: int) -> int:
        """Feed the target's observation; returns the agent's next cell."""
        l_a, _ = self.states[self.state]
        if self.G.vis(l_a, target_loc):
            choice = target_loc
        else:
            choice = self.set_move.get(self.state)
            if choice is None:
                raise SimulationError(
                    f"no invisible move available from state {self.state}"
                )
        key = (self.state, self.memory, choice)
        if key not in self.moves:
            raise SimulationError(f"controller has no move for {key}")
        self.state, self.memory = self.moves[key]
        return self.states[self.state][0]


def load_runner(
    G: SurveillanceGameStructure, payload: dict, expected_digest: Optional[str] = None
) -> StrategyRunner:
    """Rebuild a runner from an exported controller dictionary.

    A counterexample dump, which ``synth`` writes for an unrealizable
    specification and marks ``"verdict": "unrealizable"``, is refused
    first.  With ``expected_digest`` the payload's embedded map digest
    must match, so a controller synthesized for a different map is
    rejected before it can produce nonsense moves.  So is a controller
    whose initial state, winning region or moves name a state index it
    does not list, whose initial state is outside its winning region or
    is not the map's start ``G.initial``, that lists two moves for one
    ``(state, memory, label)``, whose ``memory_count`` is not a positive
    int, whose moves use a memory outside ``range(memory_count)``, whose
    states or move labels name a cell or block id the map or its
    partition lacks, or whose ``blocks``, the partition its block-set
    labels refer to, is missing or does not cover exactly the map's
    target cells.  So is a move whose reply state's label is not the
    move's label, or whose reply puts the agent on a cell that is not a
    legal reply to the move.
    """
    if not isinstance(payload, dict):
        raise SimulationError("strategy file must hold a JSON object")
    if payload.get("verdict") == "unrealizable":
        raise SimulationError(
            "strategy file holds a counterexample, not a controller: "
            "its specification is unrealizable"
        )
    if expected_digest is not None and payload.get("digest") != expected_digest:
        raise SimulationError(
            "strategy file was synthesized for a different map or config"
        )
    if not isinstance(payload.get("blocks"), dict):
        raise SimulationError(
            'strategy file has no partition: "blocks" must map block ids to '
            "cells; export the controller again"
        )
    try:
        states = [
            (l_a, label if isinstance(label, int) else frozenset(label))
            for l_a, label in payload["states"]
        ]
        moves = {}
        for i, mem, c, r, mem2 in payload["moves"]:
            key = (i, mem, c if isinstance(c, int) else frozenset(c))
            if key in moves:
                raise SimulationError(
                    f"strategy file lists two moves for state {i}, memory {mem} "
                    f"and label {label_json(key[2])}"
                )
            moves[key] = (r, mem2)
        initial, region = payload["initial"], payload["winning_region"]
        n = len(states)
        used = [initial, *region]
        used += [i for i, _, _ in moves] + [r for r, _ in moves.values()]
        bad = [i for i in used if not (isinstance(i, int) and 0 <= i < n)]
        if bad:
            raise SimulationError(
                f"strategy file refers to state {bad[0]!r}, but lists {n} states"
            )
        count = payload["memory_count"]
        if not (isinstance(count, int) and count > 0):
            raise SimulationError(
                f"strategy file has memory_count {count!r}, not a positive int"
            )
        mems = [mem for _, mem, _ in moves] + [mem2 for _, mem2 in moves.values()]
        bad = [m for m in mems if not (isinstance(m, int) and 0 <= m < count)]
        if bad:
            raise SimulationError(
                f"strategy file uses memory {bad[0]!r}, but has memory_count {count}"
            )
        blocks = {
            int(bid): frozenset(cells) for bid, cells in payload["blocks"].items()
        }
        partition = Partition(blocks, G.target_locations)
        _check_cells(G, states, partition)
        _check_moves(G, states, moves, partition)
        if initial not in region:
            raise SimulationError("initial state is not in the winning region")
        if states[initial] != G.initial:
            l_a, label = states[initial]
            raise SimulationError(
                f"strategy file starts in state {initial}, {[l_a, label_json(label)]}, "
                f"not at the map's start {list(G.initial)}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed strategy file: {exc}") from exc
    return StrategyRunner(G, states, initial, moves, partition)


def _check_cells(G: SurveillanceGameStructure, states, partition: Partition) -> None:
    """Every state's agent and target cells must be cells of ``G``, and
    every block-set label must name blocks of ``partition``."""
    agents, targets = G.agent_locations, G.target_locations
    ids = frozenset(partition.blocks)
    for i, (l_a, label) in enumerate(states):
        if l_a not in agents:
            raise SimulationError(
                f"strategy file state {i} puts the agent on {l_a!r}, "
                "which is not an agent cell of the map"
            )
        if isinstance(label, int):
            if label not in targets:
                raise SimulationError(
                    f"strategy file state {i} puts the target on {label!r}, "
                    "which is not a target cell of the map"
                )
        elif not label <= ids:
            raise SimulationError(
                f"strategy file state {i} names {sorted(label - ids)}, "
                "which are not blocks of its partition"
            )


def _check_moves(G: SurveillanceGameStructure, states, moves, partition: Partition) -> None:
    """Every move's label must name a target cell of ``G`` or blocks of
    ``partition``, and its reply state must carry that label with the
    agent on a legal reply: to a seen cell ``c``, one of ``G.succ_a(l_a,
    c)``; to a block set, a move of ``G.agent_succ[l_a]`` or ``l_a``."""
    targets, ids = G.target_locations, frozenset(partition.blocks)
    for (i, _, c), (r, _) in moves.items():
        where = f"strategy file move {label_json(c)} of state {i}"
        if isinstance(c, int):
            if c not in targets:
                raise SimulationError(f"{where} is not a target cell of the map")
        elif not c <= ids:
            raise SimulationError(
                f"{where} names {sorted(c - ids)}, which are not blocks of its partition"
            )
        l_a, (r_a, label) = states[i][0], states[r]
        if label != c:
            raise SimulationError(
                f"{where} replies with state {r}, labelled {label_json(label)}"
            )
        legal = G.succ_a(l_a, c) if isinstance(c, int) else (*G.agent_succ[l_a], l_a)
        if r_a not in legal:
            raise SimulationError(
                f"{where} moves the agent {l_a} -> {r_a}, which is illegal after it"
            )


class TargetPolicy:
    def choose(self, G: SurveillanceGameStructure, l_a: int, l_t: int) -> int:
        raise NotImplementedError


class RandomPolicy(TargetPolicy):
    """Uniform over legal successors, reproducible from a seed."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def choose(self, G, l_a, l_t):
        return self.rng.choice(G.target_step(l_a, l_t))


class EvasivePolicy(TargetPolicy):
    """Prefers invisible successors, then maximum distance from the agent."""

    def __init__(self, grid: GridWorld):
        self.grid = grid

    def choose(self, G, l_a, l_t):
        ar, ac = self.grid.rc(l_a)

        def score(l_t2):
            r, c = self.grid.rc(l_t2)
            return (G.vis(l_a, l_t2), -((r - ar) ** 2 + (c - ac) ** 2), l_t2)

        return min(G.target_step(l_a, l_t), key=score)


class GoalSeekingPolicy(TargetPolicy):
    """Greedy descent of the BFS distance field toward the goal cells."""

    def __init__(self, grid: GridWorld):
        goals = grid.goal_cells
        if not goals:
            raise SimulationError("no goal cells to seek")
        dist = {g: 0 for g in goals}
        queue = deque(sorted(goals))
        while queue:
            cell = queue.popleft()
            for n in grid.neighbors(cell):
                if n not in dist:
                    dist[n] = dist[cell] + 1
                    queue.append(n)
        self.dist = dist

    def choose(self, G, l_a, l_t):
        big = len(self.dist) + 1
        return min(
            G.target_step(l_a, l_t),
            key=lambda l: (self.dist.get(l, big), l),
        )


@dataclass
class TraceStep:
    step: int
    target: int
    agent: int
    belief: frozenset
    abstract: object


@dataclass
class Trace:
    grid: GridWorld
    steps: list


def simulate(
    G: SurveillanceGameStructure,
    grid: GridWorld,
    runner: StrategyRunner,
    policy: TargetPolicy,
    steps: int,
) -> Trace:
    """Run the closed loop for ``steps`` rounds, recording every state.

    Checks every round that both moves are legal in the game structure,
    that the target's true location is inside the exact belief and that
    the exact belief is inside the concretized abstract belief; raises
    :class:`SimulationError` otherwise.
    """
    l_a, l_t = G.initial
    mask = 1 << l_t
    trace = [TraceStep(0, l_t, l_a, frozenset({l_t}), runner.abstract_state[1])]
    # for the whole run, per belief mask: one BeliefMoves record, and one
    # belief set, which the steps with that belief share
    records: dict = {}
    beliefs: dict = {}
    for n in range(1, steps + 1):
        l_t2 = policy.choose(G, l_a, l_t)
        if l_t2 not in G.target_step(l_a, l_t):
            raise SimulationError(f"target move {l_t} -> {l_t2} is illegal")
        if G.vis(l_a, l_t2):
            mask = 1 << l_t2
        else:
            moves = records.get(mask)
            if moves is None:
                moves = records[mask] = belief_moves(G, mask)
            mask = landing_cells(G, l_a, moves)[1]
        belief = beliefs.get(mask)
        if belief is None:
            belief = beliefs[mask] = G.cells_of(mask)
        l_a2 = runner.step(l_t2)
        if l_a2 not in G.succ_a(l_a, l_t2):
            raise SimulationError(
                f"controller moved the agent {l_a} -> {l_a2}, which is illegal "
                f"after the target move {l_t} -> {l_t2}"
            )
        label = runner.abstract_state[1]
        if l_t2 not in belief:
            raise SimulationError("true target location left the exact belief")
        if mask & ~runner.partition.gamma_mask(label):
            raise SimulationError("exact belief left the abstract belief")
        l_a, l_t = l_a2, l_t2
        trace.append(TraceStep(n, l_t, l_a, belief, label))
    return Trace(grid, trace)


def render_trace(trace: Trace, fmt: str = "text") -> str:
    if fmt == "text":
        return _render_text(trace)
    if fmt == "svg":
        return _render_svg(trace)
    raise ValueError(f"unknown trace format {fmt!r}")


def _render_text(trace: Trace) -> str:
    g = trace.grid
    frames = []
    for ts in trace.steps:
        lines = []
        for r in range(g.rows):
            row = []
            for c in range(g.cols):
                cell = r * g.cols + c
                if cell in g.obstacles:
                    ch = "#"
                elif cell == ts.agent:
                    ch = "A"
                elif cell == ts.target:
                    ch = "*"
                elif cell in ts.belief:
                    ch = "?"
                else:
                    ch = "."
                row.append(ch)
            lines.append("".join(row))
        frames.append(f"step {ts.step}\n" + "\n".join(lines))
    return "\n\n".join(frames) + "\n"


def _render_svg(trace: Trace) -> str:
    """One SVG per run: the final frame plus the agent/target paths."""
    g = trace.grid
    cell = 20  # pixels per grid cell
    w, h = g.cols * cell, g.rows * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for o in sorted(g.obstacles):
        r, c = g.rc(o)
        parts.append(
            f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" '
            f'height="{cell}" fill="black"/>'
        )
    last = trace.steps[-1]
    for b in sorted(last.belief):
        r, c = g.rc(b)
        parts.append(
            f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" '
            f'height="{cell}" fill="lightgray"/>'
        )

    def path(points, color):
        coords = " ".join(
            f"{col * cell + cell // 2},{row * cell + cell // 2}"
            for row, col in (g.rc(p) for p in points)
        )
        return f'<polyline points="{coords}" fill="none" stroke="{color}"/>'

    parts.append(path([ts.agent for ts in trace.steps], "blue"))
    parts.append(path([ts.target for ts in trace.steps], "red"))
    ar, ac = g.rc(last.agent)
    tr, tc = g.rc(last.target)
    parts.append(
        f'<circle cx="{ac * cell + cell // 2}" cy="{ar * cell + cell // 2}" '
        f'r="{cell // 3}" fill="blue"/>'
    )
    parts.append(
        f'<circle cx="{tc * cell + cell // 2}" cy="{tr * cell + cell // 2}" '
        f'r="{cell // 3}" fill="red"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def trace_jsonl(trace: Trace) -> str:
    """One JSON object per line, one line per simulation step."""
    lines = []
    for ts in trace.steps:
        lines.append(
            json.dumps(
                {
                    "step": ts.step,
                    "target": ts.target,
                    "agent": ts.agent,
                    "belief": sorted(ts.belief),
                    "abstract": label_json(ts.abstract),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
