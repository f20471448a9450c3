import importlib.util
import sys
from collections import deque
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import strategies as st

from surveil import (
    GridWorld,
    MotionConfig,
    Partition,
    PredicateDef,
    VisionConfig,
    abstract_successors,
    build_game_structure,
    parse_grid,
)
from surveil.belief import atom_test, target_moves
from surveil.solver import CounterexampleGraph
from surveil.structure import cell_mask

# 5x5 arena: agent top-right, target bottom middle, a wall of three
# obstacles in the middle row
PAPER5X5 = """\
....A
.....
.###.
...T.
.....
"""

# first two columns vs the rest (of the free cells)
TWO_COLUMNS = (
    frozenset({0, 1, 5, 6, 10, 15, 16, 20, 21}),
    frozenset({2, 3, 4, 7, 8, 9, 14, 17, 18, 19, 22, 23, 24}),
)


@pytest.fixture(scope="session")
def grid5():
    return parse_grid(PAPER5X5)


@pytest.fixture(scope="session")
def game5(grid5):
    return build_game_structure(grid5, MotionConfig(), VisionConfig())


@pytest.fixture(scope="session")
def rows_partition(game5):
    """One block per grid row (restricted to free cells)."""
    blocks = {}
    for r in range(5):
        cells = frozenset(
            c for c in range(r * 5, r * 5 + 5) if c in game5.target_locations
        )
        if cells:
            blocks[r] = cells
    return Partition(blocks, frozenset(game5.target_locations))


@pytest.fixture(scope="session")
def two_col_partition(game5):
    q1, q2 = TWO_COLUMNS
    return Partition({0: q1, 1: q2}, frozenset(game5.target_locations))


@pytest.fixture(scope="session")
def goal_pred():
    """Task predicate: the agent stands on cell 0."""
    return {"goal": PredicateDef("goal", frozenset({0}))}


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def pillar_problem(n: int, seed: int):
    """The map and config texts of the benchmark's ``pillars<n>`` at
    ``seed``, from the benchmark's own generator, loaded by path."""
    name = "perfbench_workloads"
    workloads = sys.modules.get(name)
    if workloads is None:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while they are made
        sys.modules[name] = workloads
        spec.loader.exec_module(workloads)
    return workloads.pillar_grid(n, seed), workloads.SCALE_CFG


@st.composite
def random_problems(draw):
    """A random grid of up to 6x6 cells with obstacles, motion options and
    a vision range or none."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    cells = list(range(rows * cols))
    agent, target = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    others = [c for c in cells if c not in (agent, target)]
    obstacles = draw(st.frozensets(st.sampled_from(others))) if others else frozenset()
    grid = GridWorld(rows, cols, obstacles, agent, target)
    motion = MotionConfig(
        agent_radius=draw(st.integers(1, 2)),
        target_radius=draw(st.integers(1, 2)),
        allow_stay=draw(st.booleans()),
        restrict_agent_to_visible=draw(st.booleans()),
    )
    vision_range = draw(st.none() | st.floats(0.5, 6.0))
    return grid, motion, VisionConfig(range=vision_range)


def abstract_choices(G, Q, state) -> list:
    """The choices of an abstract state as ``(label, replies)`` pairs:
    ``target_moves`` on the record that ``abstract_successors`` returns,
    one per seen cell, by cell, then the block-set choice of the unseen
    cells, if any."""
    _, _, moves = abstract_successors(G, Q, state)
    visible, invisible = target_moves(G, state[0], moves)
    if invisible is not None:
        unseen, replies = invisible
        visible.append((Q.alpha_mask(unseen), replies))
    return visible


def set_choice(choices):
    """The block-set choice among abstract choices, or None.  The target
    has at most one: all invisible successors form a single move."""
    sets = [c for c in choices if not isinstance(c, int)]
    assert len(sets) <= 1
    return sets[0] if sets else None


def build_hide_reveal_cex(game, partition):
    """Finite-memory target strategy as a counterexample graph.

    Phase one: always take the invisible block-set move.  The first time
    the agent stands on cell 19 with full uncertainty, the target shows
    itself by moving to the visible cell 15, then returns to hiding
    forever.  The single reveal lets the pursuing agent's belief collapse
    to one cell, so the graph is a spurious recurrence counterexample.
    """
    full = frozenset(partition.blocks)
    init = (game.initial[0], game.initial[1], "hide")
    choice, edges, mode = {}, {}, {}
    queue = deque([init])
    while queue:
        v = queue.popleft()
        if v in choice:
            continue
        l_a, label, phase = v
        moves = dict(abstract_choices(game, partition, (l_a, label)))
        if phase == "hide" and l_a == 19 and label == full:
            lab, phase2 = 15, "settle"
        else:
            lab, phase2 = set_choice(moves), phase
            assert lab is not None
        choice[v] = lab
        kids = tuple((r, lab, phase2) for r in moves[lab])
        edges[v] = kids
        mode[v] = ("avoid", 0)
        queue.extend(k for k in kids if k not in choice)
    return CounterexampleGraph(initial=init, choice=choice, edges=edges, mode=mode)


def _replayed_label(choices, old_choice):
    """The new partition's label for an old target choice: the same
    visible location, or the block-set move; None when it has gone."""
    if isinstance(old_choice, int):
        return old_choice if old_choice in choices else None
    return set_choice(choices)


def atom_holds(G, l_a: int, locs, atom, predicates) -> bool:
    """``atom_test`` on the agent cell ``l_a`` and a set of target cells."""
    return atom_test(G, atom, predicates)(l_a, cell_mask(locs))


def refines(finer: Partition, coarser: Partition) -> bool:
    """True iff every block of ``finer`` lies inside a block of ``coarser``."""
    if finer.universe != coarser.universe:
        return False
    return all(
        any(cells <= other for other in coarser.blocks.values())
        for cells in finer.blocks.values()
    )


def members(mask) -> frozenset:
    """The state numbers that a mask over states, a ``bytearray`` of 0s
    and 1s such as ``Arena.atom_sets`` holds, marks with 1."""
    return frozenset(compress(range(len(mask)), mask))


def alpha(Q, locs) -> frozenset:
    """Abstract a set of locations to the ids of the blocks of ``Q``
    touching it."""
    return Q.alpha_mask(cell_mask(locs))


def succ_t(G, l_a: int, belief) -> frozenset:
    """Union of target successors over all locations in the belief."""
    target_succ = G.target_succ
    out = frozenset().union(*[target_succ[l_t] for l_t in belief])
    if l_a not in out:
        return out
    # the cells that could move onto the agent step around it instead
    return (out - {l_a}).union(
        *[G.target_step(l_a, l_t) for l_t in belief if l_a in target_succ[l_t]]
    )


def invisible_succ(G, l_a: int, belief) -> frozenset:
    """Target successors of the belief that are invisible from ``l_a``."""
    return succ_t(G, l_a, belief) - G.visibility[l_a]


def choices(game, i: int) -> list:
    """``(choice, replies)`` pairs of state ``i`` of a flat game in
    canonical order, with the replies as an array of state numbers read
    through each choice's reply set."""
    labels, label = game.labels, game.choice_label
    return [
        (labels[label[c]], game.replies_of(c))
        for c in range(game.choice_off[i], game.choice_off[i + 1])
    ]


def choice_labels(arena, target_strategy) -> dict:
    """The target strategy's choices as labels: each state's choice id
    looked up in the arena, None where the state has no choice."""
    return {
        i: None if c is None else arena.labels[arena.choice_label[c]]
        for i, c in target_strategy.choice.items()
    }


def tree_eliminated(G, Qold, Qnew, cex, safety, predicates=None) -> bool:
    """Structural check of counterexample elimination for safety.

    Replays the target choices of the old counterexample graph ``cex``,
    unfolded into a tree, in the game refined from ``Qold`` to ``Qnew``;
    the old counterexample survives only if the replay keeps every new
    abstract belief gamma-contained in the old one, reproduces the
    branching, and still violates the ``safety`` conjunction at every
    sink.  Returns True when it is eliminated.
    """
    predicates = predicates or {}

    def walk(v, new_state):
        if not cex.edges[v]:
            l_a, label = new_state
            locs = Qnew.gamma(label)
            return all(atom_holds(G, l_a, locs, a, predicates) for a in safety)
        choices = dict(abstract_choices(G, Qnew, new_state))
        new_label = _replayed_label(choices, cex.choice[v])
        if new_label is None:
            return True
        old_child_label = cex.edges[v][0][1]
        if not Qnew.gamma(new_label) <= Qold.gamma(old_child_label):
            return True
        replies = set(choices[new_label])
        old_replies = {v2[0] for v2 in cex.edges[v]}
        if replies != old_replies:
            return True
        return any(walk(v2, (v2[0], new_label)) for v2 in cex.edges[v])

    return walk(cex.initial, G.initial)


def graph_eliminated(G, Qold, Qnew, cex) -> bool:
    """Structural elimination check for counterexample graphs.

    Replays the graph's positional target choices under ``Qnew``.  The
    old counterexample survives only if every old node maps to a single
    gamma-contained new label and the replay closes.  Label conflicts,
    missing choices, or containment failures all mean elimination.
    """
    new_label_of = {cex.initial: G.initial[1]}
    queue = deque([cex.initial])
    seen = {cex.initial}
    while queue:
        v = queue.popleft()
        state = (v[0], new_label_of[v])
        choices = dict(abstract_choices(G, Qnew, state))
        new_label = _replayed_label(choices, cex.choice[v])
        if new_label is None:
            return True
        for v2 in cex.edges[v]:
            if not Qnew.gamma(new_label) <= Qold.gamma(v2[1]):
                return True
            if v2 in new_label_of:
                if new_label_of[v2] != new_label:
                    return True
            else:
                new_label_of[v2] = new_label
            if v2 not in seen:
                seen.add(v2)
                queue.append(v2)
    return False
