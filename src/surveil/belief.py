"""Exact belief-set game construction and predicate evaluation.

The belief game is the oracle semantics: agent location paired with the
set of target locations considered possible.  After every transition a
belief is either a visible singleton or a set of all-invisible locations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .objective import SurvAtom
from .structure import SurveillanceGameStructure


class BudgetExceeded(RuntimeError):
    """Explicit game construction exceeded the configured state budget."""


class PredicateError(ValueError):
    """Undeclared or unobservable task predicate."""


@dataclass(frozen=True)
class PredicateDef:
    """A task predicate over concrete states.

    Agent-kind predicates hold when the agent stands on a labelled cell;
    target-kind ones when the target does.  Target-kind predicates must be
    observable: invisible locations may not disagree on membership.
    """

    name: str
    cells: frozenset[int]
    on_target: bool = False

    def holds(self, l_a: int, l_t: int) -> bool:
        return (l_t if self.on_target else l_a) in self.cells


def predicates_from_grid(grid) -> dict[str, PredicateDef]:
    """Declared predicates of a grid: one per label letter plus ``goal``."""
    preds = {
        name: PredicateDef(name, cells) for name, cells in grid.labels.items()
    }
    if grid.goal_cells:
        preds["goal"] = PredicateDef("goal", grid.goal_cells)
    return preds


def check_observable(G: SurveillanceGameStructure, pred: PredicateDef) -> None:
    """Reject target-kind predicates whose truth could depend on which
    invisible location the target occupies."""
    if not pred.on_target:
        return
    for l_a in G.agent_locations:
        invisible = G.target_locations - G.visibility[l_a]
        if invisible & pred.cells and invisible - pred.cells:
            raise PredicateError(
                f"predicate {pred.name!r} is not observable: invisible "
                f"locations from agent cell {l_a} disagree"
            )


def concretize(belief, partition=None) -> frozenset[int]:
    """Concrete target locations denoted by a belief.

    With a partition, frozenset beliefs are block-id sets and are expanded
    through it; without one they are already concrete location sets.
    """
    if isinstance(belief, int):
        return frozenset({belief})
    if partition is not None:
        return partition.gamma(belief)
    return belief


def invisible_count(G: SurveillanceGameStructure, l_a: int, locs: Iterable[int]) -> int:
    visible = G.visibility[l_a]
    return sum(1 for l in locs if l not in visible)


def atom_holds(G, l_a: int, locs, atom, predicates) -> bool:
    """A spec atom on the agent cell ``l_a`` and a concrete set of target
    cells: ``p<=k`` bounds the number of invisible cells, and a task
    predicate must hold for every cell.  Abstract labels are turned into
    cells with :func:`concretize` first."""
    if isinstance(atom, SurvAtom):
        if atom.k < 1:
            raise ValueError("surveillance threshold k must be >= 1")
        return invisible_count(G, l_a, locs) <= atom.k
    pred = predicates[atom.name]
    return all(pred.holds(l_a, l_t) for l_t in locs)


def target_moves(G: SurveillanceGameStructure, l_a: int, belief):
    """The target's moves from a concrete belief, with the agent's replies.

    Returns ``(visible, invisible)``: ``visible`` lists
    ``(location, replies)`` for every successor the agent on ``l_a``
    sees, by location; ``invisible`` is ``(locations, replies)`` for the
    set of all invisible successors, or None when there are none.  Its
    replies come from one representative move, which is enough under
    invisible-independence.  Both the exact and the abstract game expand
    their states through this function.
    """
    if not belief:
        raise ValueError("empty belief")
    succs = G.succ_t(l_a, belief)
    visible = G.visibility[l_a]
    moves = [(l_t2, G.succ_a(l_a, l_t2)) for l_t2 in sorted(succs & visible)]
    invisible = succs - visible
    if not invisible:
        return moves, None
    # the representative is the first invisible move in belief order
    first = next(
        l_t2
        for l_t in sorted(belief)
        for l_t2 in G.target_step(l_a, l_t)
        if l_t2 not in visible
    )
    return moves, (invisible, G.succ_a(l_a, first))


def next_belief(G: SurveillanceGameStructure, l_a: int, belief, seen) -> frozenset[int]:
    """Exact belief after one target move from ``belief``: ``{seen}`` when
    the agent on ``l_a`` sees the target land on cell ``seen``, else
    (``seen`` is None) every invisible successor of ``belief``."""
    if seen is not None:
        return frozenset({seen})
    return G.invisible_succ(l_a, belief)


def belief_successors(G: SurveillanceGameStructure, state):
    """Target belief choices and agent replies from an exact belief state.

    Returns a list of ``(new_belief, replies)`` pairs: one visible
    singleton per observable successor location, plus at most one
    all-invisible set.  Sorted canonically (visible by location, invisible
    set last).
    """
    l_a, belief = state
    visible, invisible = target_moves(G, l_a, belief)
    choices = [(frozenset({l_t2}), replies) for l_t2, replies in visible]
    if invisible is not None:
        choices.append(invisible)
    return choices


@dataclass
class TurnGame:
    """Explicit reachable game with target-then-agent turn structure.

    ``moves[s]`` lists ``(choice, reply_states)`` pairs in canonical
    order, where ``choice`` is the target's successor belief and the reply
    states are the agent's possible follow-up states.
    """

    initial: tuple
    moves: dict = field(default_factory=dict)

    @property
    def states(self) -> list:
        return sorted(self.moves, key=state_key)

    def __len__(self) -> int:
        return len(self.moves)


def belief_key(belief):
    if isinstance(belief, int):
        return (0, (belief,))
    return (1, tuple(sorted(belief)))


def state_key(state):
    return (state[0],) + belief_key(state[1])


def _explore(initial, successors, max_states):
    game = TurnGame(initial=initial)
    queue = deque([initial])
    game.moves[initial] = None
    while queue:
        state = queue.popleft()
        out = []
        for new_belief, replies in successors(state):
            reply_states = tuple((l_a2, new_belief) for l_a2 in replies)
            for s2 in reply_states:
                if s2 not in game.moves:
                    if len(game.moves) >= max_states:
                        raise BudgetExceeded(
                            f"state budget of {max_states} exceeded"
                        )
                    game.moves[s2] = None
                    queue.append(s2)
            out.append((new_belief, reply_states))
        game.moves[state] = out
    return game


def build_belief_game(G: SurveillanceGameStructure, max_states: int = 2_000_000) -> TurnGame:
    """Enumerate the reachable exact belief game (the oracle).

    Raises :class:`BudgetExceeded` past ``max_states``; the exponential
    blow-up of the construction is the reason the abstraction exists.
    """
    l_a0, l_t0 = G.initial
    initial = (l_a0, frozenset({l_t0}))
    return _explore(initial, lambda s: belief_successors(G, s), max_states)
