"""Exact belief-set game construction and predicate evaluation.

The belief game is the oracle semantics: agent location paired with the
set of target locations considered possible.  After every transition a
belief is either a visible singleton or a set of all-invisible locations.

A game built for a specification's safety terms does not expand a state
that breaks one of them: the target has won every play through it, so
the state stays a sink without choices, and whatever is reachable only
through such states is never built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional

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
    return len(frozenset(locs) - G.visibility[l_a])


def atom_holds(G, l_a: int, locs, atom, predicates) -> bool:
    """A spec atom on the agent cell ``l_a`` and a concrete set of target
    cells: ``p<=k`` bounds the number of invisible cells, and a task
    predicate must hold for every cell.  Abstract labels are turned into
    cells with :func:`concretize` first.  A set of at most ``k`` cells
    satisfies ``p<=k`` whatever the agent sees, so it is not counted."""
    if isinstance(atom, SurvAtom):
        if atom.k < 1:
            raise ValueError("surveillance threshold k must be >= 1")
        return len(locs) <= atom.k or invisible_count(G, l_a, locs) <= atom.k
    pred = predicates[atom.name]
    return all(pred.holds(l_a, l_t) for l_t in locs)


def safety_test(G, safety, predicates=None):
    """The conjunction of the ``safety`` atoms, one set of target cells at
    a time: ``test(cells)`` is None when it holds on ``cells`` whatever
    the agent's cell, and otherwise a test ``l_a -> bool`` through
    :func:`atom_holds`.  Only ``p<=k`` atoms on at most ``k`` cells are
    taken to hold outright, so without atoms ``test`` is always None.
    ``predicates`` must declare each task atom of ``safety``."""
    predicates = predicates or {}
    atoms = sorted(safety, key=str)

    def test(cells):
        if all(isinstance(a, SurvAtom) and len(cells) <= a.k for a in atoms):
            return None
        return lambda l_a: all(atom_holds(G, l_a, cells, a, predicates) for a in atoms)

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
    :func:`target_moves`."""

    cells: tuple[int, ...]
    union: int
    stuck: dict[int, int]


def belief_moves(G: SurveillanceGameStructure, belief: Iterable[int]) -> BeliefMoves:
    """The :class:`BeliefMoves` record of a nonempty set of target cells."""
    cells = tuple(sorted(belief))
    if not cells:
        raise ValueError("empty belief")
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
    there are none.  Its replies come from one representative move, the
    first invisible one in sorted-belief order, which is enough under
    invisible-independence.  Both the exact and the abstract game expand
    their states through this function.
    """
    seen, unseen = landing_cells(G, l_a, belief)
    masks = G.masks
    cell, replies = masks.cell, masks.replies[l_a]
    ball = G.agent_succ[l_a]
    moves = []
    # the seen cells in ascending order, lowest bit first
    while seen:
        low = seen & -seen
        l_t2 = cell[low.bit_length() - 1]
        moves.append((l_t2, replies.get(l_t2, ball)))
        seen ^= low
    if not unseen:
        return moves, None
    if not unseen & masks.ball[l_a]:
        # every invisible move, the first one too, gets the whole ball
        return moves, (unseen, ball)
    visible = masks.visible[l_a]
    target_step = G.target_step
    first = next(
        l_t2
        for l_t in belief.cells
        for l_t2 in target_step(l_a, l_t)
        if not visible >> l_t2 & 1
    )
    return moves, (unseen, replies.get(first, ball))


def belief_successors(G: SurveillanceGameStructure, state, records=None, beliefs=None):
    """Target belief choices and agent replies from an exact belief state.

    Returns a list of ``(new_belief, replies)`` pairs: one visible
    singleton per observable successor location, plus at most one
    all-invisible set.  Sorted canonically (visible by location, invisible
    set last).  ``records`` maps beliefs to their :class:`BeliefMoves`
    records, and ``beliefs`` maps a cell mask (a visible move's bit, or
    the invisible cells) to its belief; a missing entry is made and added
    to them.
    """
    l_a, belief = state
    if records is None:
        records = {}
    if beliefs is None:
        beliefs = {}
    moves = records.get(belief)
    if moves is None:
        moves = records[belief] = belief_moves(G, belief)
    visible, invisible = target_moves(G, l_a, moves)
    choices = []
    for l_t2, replies in visible:
        out = beliefs.get(1 << l_t2)
        if out is None:
            out = beliefs[1 << l_t2] = frozenset({l_t2})
        choices.append((out, replies))
    if invisible is not None:
        unseen, replies = invisible
        out = beliefs.get(unseen)
        if out is None:
            out = beliefs[unseen] = G.cells_of(unseen)
        choices.append((out, replies))
    return choices


@dataclass
class TurnGame:
    """Explicit reachable game with target-then-agent turn structure.

    The game is flat.  States are numbered in canonical order (agent
    cell, then :func:`belief_key`), and ``initial`` is a state number.
    The target's choices in state ``i`` have the ids ``choice_off[i]`` up
    to ``choice_off[i + 1]``, in canonical order.  Choice ``c`` moves the
    target to the belief ``labels[choice_label[c]]``, and the agent's
    replies to it are the members of the reply set ``choice_set[c]``.
    Reply set ``s`` holds the states ``replies[reply_off[s]:reply_off[s +
    1]]``; choices with the same label and the same replies (in the
    abstract game, the same agent cells after the same target move) share
    one set, stored once.  ``labels`` holds each distinct belief once, in
    canonical order, and the states share these objects.

    A state may have no choices: a state of a game built for safety
    atoms that breaks one of them is not expanded, although it has its
    number and counts against the state budget.
    """

    states: list
    initial: int
    labels: list
    choice_off: array
    choice_label: array
    choice_set: array
    reply_off: array
    replies: array

    def __len__(self) -> int:
        return len(self.states)

    def replies_of(self, c: int) -> array:
        """The agent's replies to choice ``c``, as state numbers."""
        s = self.choice_set[c]
        return self.replies[self.reply_off[s] : self.reply_off[s + 1]]

    @classmethod
    def from_moves(cls, states, initial, moves, **fields):
        """A flat game from ``moves[i]``, the ``(choice, replies)`` pairs
        of state ``i`` in canonical order.  Choices with the same label
        and equal replies share a reply set."""
        labels = sorted({c for out in moves for c, _ in out}, key=belief_key)
        label_id = {c: k for k, c in enumerate(labels)}
        set_id = {}
        choice_label, choice_set, widths, replies = (array("i") for _ in range(4))
        for c, r in (cr for out in moves for cr in out):
            key = (label_id[c], tuple(r))
            s = set_id.get(key)
            if s is None:
                s = set_id[key] = len(set_id)
                widths.append(len(r))
                replies.extend(r)
            choice_label.append(key[0])
            choice_set.append(s)
        return cls(
            list(states),
            initial,
            labels,
            array("i", accumulate(map(len, moves), initial=0)),
            choice_label,
            choice_set,
            array("i", accumulate(widths, initial=0)),
            replies,
            **fields,
        )


def belief_key(belief):
    if isinstance(belief, int):
        return (0, (belief,))
    return (1, tuple(sorted(belief)))


def label_json(label):
    """A belief as JSON: a cell stays an int, a set becomes a sorted list."""
    return label if isinstance(label, int) else sorted(label)


def _explore(initial, successors, max_states) -> TurnGame:
    """Enumerate the game reachable from ``initial`` breadth first.

    A state gets a number when it is first found, and each distinct
    belief is interned once.  Each distinct pair of a belief and a tuple
    of agent cells is interned once too, as a reply set, whose members
    are numbered and appended to one flat array.  One permutation at the
    end puts states and beliefs in canonical order and renumbers the set
    members; choices keep the order ``successors`` gives them, and sets
    keep the order they were found in.  Every set belongs to one belief,
    so a choice's belief is read off its set.
    """
    l_a0, label0 = initial
    labels = [label0]
    label_id = {label0: 0}
    # per belief id: agent cell -> number of the state (cell, belief),
    # and agent-cell tuple -> reply set id
    numbered = [{l_a0: 0}]
    set_ids = [{}]
    found = [initial]
    found_label = array("i", [0])
    # per reply set: its belief id and its width
    set_label, widths = array("i"), array("i")
    n_choices, choice_set, replies = array("i"), array("i"), array("i")
    get_label, add_choice, add_reply = label_id.get, choice_set.append, replies.append
    # ``found`` is its own queue: the loop reaches the states it appends
    for state in found:
        out = successors(state)
        n_choices.append(len(out))
        for label, agent_cells in out:
            lid = get_label(label)
            if lid is None:
                lid = label_id[label] = len(labels)
                labels.append(label)
                numbered.append({})
                set_ids.append({})
            sets = set_ids[lid]
            s = sets.get(agent_cells)
            if s is None:
                s = sets[agent_cells] = len(widths)
                set_label.append(lid)
                widths.append(len(agent_cells))
                # the interned object, which the new states share
                label, at = labels[lid], numbered[lid]
                for l_a2 in agent_cells:
                    j = at.get(l_a2)
                    if j is None:
                        if len(found) >= max_states:
                            raise BudgetExceeded(f"state budget of {max_states} exceeded")
                        j = at[l_a2] = len(found)
                        found.append((l_a2, label))
                        found_label.append(lid)
                    add_reply(j)
            add_choice(s)

    # canonical order: beliefs by belief_key, states by (cell, belief)
    n_labels = len(labels)
    by_key = sorted(range(n_labels), key=lambda k: belief_key(labels[k]))
    rank = [0] * n_labels
    for r, k in enumerate(by_key):
        rank[k] = r
    keys = [s[0] * n_labels + rank[k] for s, k in zip(found, found_label)]
    order = sorted(range(len(found)), key=keys.__getitem__)
    number = [0] * len(order)
    for i, d in enumerate(order):
        number[d] = i
    set_rank = list(map(rank.__getitem__, set_label))
    choice_at = array("i", accumulate(n_choices, initial=0))
    sets_out = array("i")
    for d in order:
        sets_out += choice_set[choice_at[d] : choice_at[d + 1]]
    # an array fills about twice as fast from a list as from an iterator
    return TurnGame(
        [found[d] for d in order],
        number[0],
        [labels[k] for k in by_key],
        array("i", accumulate(map(n_choices.__getitem__, order), initial=0)),
        array("i", list(map(set_rank.__getitem__, sets_out))),
        sets_out,
        array("i", accumulate(widths, initial=0)),
        array("i", list(map(number.__getitem__, replies))),
    )


def build_belief_game(
    G: SurveillanceGameStructure,
    max_states: int = 2_000_000,
    safety: frozenset = frozenset(),
    predicates: Optional[dict[str, PredicateDef]] = None,
) -> TurnGame:
    """Enumerate the reachable exact belief game (the oracle).

    A state whose belief breaks one of the ``safety`` atoms is not
    expanded (see :func:`~surveil.abstraction.build_abstract_game` for
    why no verdict or strategy changes); without them every state is
    expanded.  ``predicates`` must declare each task atom of ``safety``.
    Raises :class:`BudgetExceeded` past ``max_states``; the
    exponential blow-up of the construction is the reason the
    abstraction exists.
    """
    l_a0, l_t0 = G.initial
    initial = (l_a0, frozenset({l_t0}))
    # one BeliefMoves record per belief and one belief per invisible
    # mask, for the whole exploration
    records: dict = {}
    beliefs: dict = {}

    test = safety_test(G, safety, predicates)

    def successors(state):
        l_a, belief = state
        holds = test(belief)
        if holds is not None and not holds(l_a):
            return ()
        # an invisible set can sort before a visible singleton
        return sorted(
            belief_successors(G, state, records, beliefs), key=lambda cr: belief_key(cr[0])
        )

    return _explore(initial, successors, max_states)
