"""Beliefs, their successor kernel, predicates and the flat turn game.

A belief is the set of target locations the agent considers possible.
After every target move it is either a location the agent sees or the
set of locations the target may have landed on unseen; in the CEGAR
loop it is a cell mask.  The kernel here (:func:`belief_moves`,
:func:`landing_cells`, :func:`move_replies`,
:func:`invisible_replies`) expands beliefs for every game the package
builds, and :func:`target_moves` lists a belief's moves with their
replies through the same functions.  The exact belief game, the oracle
semantics, is the abstract game under the partition into one block per
location (:func:`~surveil.abstraction.singletons`), whose block-set
labels are the beliefs themselves; there is no second builder for it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .objective import SurvAtom
from .structure import SurveillanceGameStructure, cell_mask


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


def invisible_count(G: SurveillanceGameStructure, l_a: int, locs: Iterable[int]) -> int:
    return len(frozenset(locs) - G.visibility[l_a])


def atom_test(G: SurveillanceGameStructure, atom, predicates):
    """A spec atom as a test ``(l_a, mask) -> bool`` of the agent cell and
    a :func:`~surveil.structure.cell_mask` of target cells: ``p<=k``
    bounds the number of cells that ``l_a`` does not see, and holds on at
    most ``k`` cells outright; a task predicate must hold for every cell,
    so an empty mask satisfies every atom.  Labels become masks through
    :meth:`~surveil.abstraction.Partition.gamma_mask`."""
    if isinstance(atom, SurvAtom):
        k = atom.k
        if k < 1:
            raise ValueError("surveillance threshold k must be >= 1")
        visible = G.masks.visible
        return lambda l_a, m: m.bit_count() <= k or (m & ~visible[l_a]).bit_count() <= k
    pred = predicates[atom.name]
    if pred.on_target:
        outside = ~cell_mask(pred.cells)
        return lambda l_a, m: not m & outside
    cells = pred.cells
    return lambda l_a, m: not m or l_a in cells


def safety_test(G, safety, predicates=None):
    """The conjunction of the ``safety`` atoms, one mask of target cells
    at a time: ``test(mask)`` is None when it holds on the mask whatever
    the agent's cell, and otherwise a test ``l_a -> bool`` through
    :func:`atom_test`.  Only ``p<=k`` atoms on at most ``k`` cells are
    taken to hold outright, so without atoms ``test`` is always None.
    ``predicates`` must declare each task atom of ``safety``."""
    atoms = sorted(safety, key=str)
    tests = [atom_test(G, a, predicates or {}) for a in atoms]
    bound = min((a.k if isinstance(a, SurvAtom) else -1 for a in atoms), default=None)

    # one atom is its own test, with no conjunction built on every call
    holds = tests[0] if len(tests) == 1 else (lambda l_a, m: all(t(l_a, m) for t in tests))

    def test(mask):
        if bound is None or mask.bit_count() <= bound:
            return None
        return lambda l_a: holds(l_a, mask)

    return test


@dataclass(frozen=True, slots=True)
class BeliefMoves:
    """The target's moves from a belief, as far as they do not depend on
    the agent's cell: the belief's ``cells`` in sorted order, the
    ``union`` of their moves as a bit mask (see
    :class:`~surveil.structure.CellMasks`), and per cell the mask of the
    cells ``stuck`` on it, whose only move is onto it (an agent there
    blocks them, so they stay put).  A game keeps one record per belief
    and expands every state with that belief from it through
    :func:`landing_cells`."""

    cells: tuple[int, ...]
    union: int
    stuck: dict[int, int]


def belief_moves(G: SurveillanceGameStructure, mask: int) -> BeliefMoves:
    """The :class:`BeliefMoves` record of a nonempty
    :func:`~surveil.structure.cell_mask` of target cells."""
    if not mask:
        raise ValueError("empty belief")
    cells = tuple(G.cells_in(mask))
    target_succ, moves = G.target_succ, G.masks.moves
    union = 0
    stuck: dict[int, int] = {}
    for l_t in cells:
        union |= moves[l_t]
        out = target_succ[l_t]
        if len(out) == 1:
            stuck[out[0]] = stuck.get(out[0], 0) | 1 << l_t
    return BeliefMoves(cells, union, stuck)


def landing_cells(G: SurveillanceGameStructure, l_a: int, belief: BeliefMoves):
    """The cells the target can land on from a belief, split by what the
    agent on ``l_a`` sees: ``(seen, unseen)``, as bit masks.

    ``belief`` is the belief's :class:`BeliefMoves` record: the moves of
    its cells are its union, except that no cell moves onto ``l_a`` and
    the cells stuck on ``l_a`` stay put.  ``unseen`` is the exact belief
    after a move the agent does not see; ``G.cells_of`` turns it into
    cells.
    """
    succs = belief.union
    if succs >> l_a & 1:
        succs ^= 1 << l_a
        succs |= belief.stuck.get(l_a, 0)
    seen = succs & G.masks.visible[l_a]
    return seen, succs ^ seen


def target_moves(G: SurveillanceGameStructure, l_a: int, belief: BeliefMoves):
    """The target's moves from a belief, with the agent's replies.

    ``belief`` is the belief's :class:`BeliefMoves` record, whose landing
    cells :func:`landing_cells` gives.  Returns ``(visible, invisible)``:
    ``visible`` lists ``(location, replies)`` for every successor the
    agent on ``l_a`` sees, by location; ``invisible`` is ``(unseen,
    replies)`` for the mask of all invisible successors, or None when
    there are none.  The replies are those :func:`move_replies` and
    :func:`invisible_replies` give, which
    :func:`~surveil.abstraction.build_abstract_game` reads too.
    """
    seen, unseen = landing_cells(G, l_a, belief)
    cell = G.masks.cell
    moves = []
    # the seen cells in ascending order, lowest bit first
    while seen:
        low = seen & -seen
        l_t2 = cell[low.bit_length() - 1]
        moves.append((l_t2, move_replies(G, l_a, l_t2)))
        seen ^= low
    if not unseen:
        return moves, None
    return moves, (unseen, invisible_replies(G, l_a, belief, unseen))


def move_replies(G: SurveillanceGameStructure, l_a: int, l_t2: int):
    """The agent's replies on ``l_a`` to a target move onto ``l_t2``:
    the structure's table of restricted replies, or the whole ball where
    the table has no entry."""
    return G.masks.replies[l_a].get(l_t2, G.agent_succ[l_a])


def invisible_replies(G: SurveillanceGameStructure, l_a: int, belief: BeliefMoves, unseen: int):
    """The agent's replies on ``l_a`` to the target's moves from a belief
    onto the nonempty mask ``unseen`` of the cells it may land on unseen.

    They come from one representative move, the first invisible one in
    sorted-belief order, which is enough under invisible-independence.
    When no unseen cell lies in the agent's ball, every invisible move,
    the first one too, gets the whole ball.
    """
    masks = G.masks
    if not unseen & masks.ball[l_a]:
        return G.agent_succ[l_a]
    visible = masks.visible[l_a]
    target_step = G.target_step
    first = next(
        l_t2
        for l_t in belief.cells
        for l_t2 in target_step(l_a, l_t)
        if not visible >> l_t2 & 1
    )
    return move_replies(G, l_a, first)


def belief_successors(G: SurveillanceGameStructure, state):
    """Target belief choices and agent replies from an exact belief state
    ``(l_a, belief)``, with each belief a set of locations.

    Returns a list of ``(new_belief, replies)`` pairs: one singleton per
    location the agent sees the target land on, by location, then at
    most one set of all the unseen ones.  No game is built from it; the
    benchmark's output checks and the belief tests read the target's
    moves through it.
    """
    l_a, belief = state
    visible, invisible = target_moves(G, l_a, belief_moves(G, cell_mask(belief)))
    choices = [(frozenset({l_t2}), replies) for l_t2, replies in visible]
    if invisible is not None:
        unseen, replies = invisible
        choices.append((G.cells_of(unseen), replies))
    return choices


@dataclass
class TurnGame:
    """Explicit reachable game with target-then-agent turn structure.

    The game is flat.  A built game numbers its states as exploration
    finds them, so ``initial``, a state number, is 0 there; a hand-built
    arena may use any numbering.  The target's choices in state ``i``
    have the ids ``choice_off[i]`` up to ``choice_off[i + 1]``, in
    canonical order (:func:`belief_key`).  Choice ``c`` moves the
    target to the belief ``labels[choice_label[c]]``, and the agent's
    replies to it are the members of the reply set ``choice_set[c]``.
    Reply set ``s`` holds the states ``replies[reply_off[s]:reply_off[s +
    1]]``; choices with the same label and the same replies (in the
    abstract game, the same agent cells after the same target move) share
    one set, stored once.  ``labels`` holds each distinct belief once, in
    the order it was found, and the states share these objects.  The
    reverse tables, which exploration fills as it adds each choice and
    member, let the solver walk the game backwards: ``owners[s]`` lists
    the state of each choice whose set is ``s``, in the order the states
    were expanded (by choice id in a game built breadth first), and
    ``holders[j]`` each set that holds state ``j``, once per occurrence,
    by set id.  No solver result depends on either order.

    A state may have no choices: a state of a game built for safety
    atoms that breaks one of them is not expanded, although it has its
    number and counts against the state budget.  So is a safe state of
    a ``partial`` game, one solved on the fly that was explored only as
    far as its answer at the initial state reads: a safety game, or a
    game of a spec with recurrence terms alone that the target wins in
    the solver's first trap round (see
    :func:`~surveil.abstraction.build_abstract_game`); ``partial`` is
    False for a game built whole.

    A game that the builder solved on the fly and found lost carries the
    counterexample it read there as ``reading``: the ``(choice, mode)``
    maps of a :class:`~surveil.solver.TargetStrategyData` over the states
    the counterexample reads.  It is None for every other game.
    """

    states: list
    initial: int
    labels: list
    choice_off: array
    choice_label: array
    choice_set: array
    reply_off: array
    replies: array
    owners: list
    holders: list
    partial: bool = field(default=False, kw_only=True)
    reading: Optional[tuple[dict, dict]] = field(default=None, kw_only=True)

    def __len__(self) -> int:
        return len(self.states)

    def replies_of(self, c: int) -> array:
        """The agent's replies to choice ``c``, as state numbers."""
        s = self.choice_set[c]
        return self.replies[self.reply_off[s] : self.reply_off[s + 1]]


def belief_key(belief):
    if isinstance(belief, int):
        return (0, (belief,))
    return (1, tuple(sorted(belief)))


def label_json(label):
    """A belief as JSON: a cell stays an int, a set becomes a sorted list."""
    return label if isinstance(label, int) else sorted(label)
