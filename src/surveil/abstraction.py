"""Abstraction partitions and the abstract belief game.

A partition groups target locations into blocks; abstract beliefs are
sets of block ids (or a concrete location while the target is visible).
Coarser partitions give smaller games at the price of over-approximated
beliefs.  The finest partition, :func:`singletons`, gives the exact
belief game, the oracle that the abstraction is checked against.

The abstract game is built for a specification's safety terms: a state
whose concretized belief breaks one of them is a sink without choices,
and is not expanded (:func:`build_abstract_game` gives the reason).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import not_, sub
from typing import Iterable, Optional

from .belief import (
    BudgetExceeded,
    PredicateDef,
    TurnGame,
    belief_moves,
    invisible_replies,
    landing_cells,
    move_replies,
    safety_test,
)
from .structure import SurveillanceGameStructure, cell_mask


class PartitionError(ValueError):
    """Invalid abstraction partition."""


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of target locations covering all of them.

    Block ids are stable across refinement: a split retires the old id
    and allocates fresh ids for the parts, everything else keeps its id.
    """

    blocks: dict[int, frozenset[int]]
    universe: frozenset[int]
    next_id: int = 0
    # cell mask -> the ids of the blocks it touches, see alpha_mask, and
    # each distinct id set -> itself, the one object those masks share
    _alphas: dict[int, frozenset[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _blocksets: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # block-id set -> the mask of its cells, see gamma_mask
    _gammas: dict[frozenset[int], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        covered: set[int] = set()
        for bid, cells in self.blocks.items():
            if not cells:
                raise PartitionError(f"empty block {bid}")
            if covered & cells:
                raise PartitionError("blocks are not disjoint")
            covered |= cells
        if covered != self.universe:
            raise PartitionError("blocks do not cover the target locations")
        if self.next_id <= (max(self.blocks) if self.blocks else -1):
            object.__setattr__(self, "next_id", max(self.blocks) + 1)

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def masks(self) -> dict[int, int]:
        """Block id -> the bit mask of its cells (see
        :func:`~surveil.structure.cell_mask`)."""
        return {bid: cell_mask(cells) for bid, cells in sorted(self.blocks.items())}

    def alpha_mask(self, mask: int) -> frozenset[int]:
        """Abstract the cells of a mask to the ids of the blocks touching
        them.  Each mask's blocks are found once for as long as the
        partition lives, which in the CEGAR loop is one game, and masks
        that touch the same blocks share one set."""
        out = self._alphas.get(mask)
        if out is None:
            out = frozenset([bid for bid, block in self.masks.items() if block & mask])
            out = self._alphas[mask] = self._blocksets.setdefault(out, out)
        return out

    def gamma_mask(self, abstract) -> int:
        """:meth:`gamma` as a bit mask of cells.  Each block-id set's mask
        is summed once for as long as the partition lives, as
        :meth:`alpha_mask` finds each mask's blocks once."""
        if isinstance(abstract, int):
            return 1 << abstract
        out = self._gammas.get(abstract)
        if out is None:
            # the blocks are disjoint, so their masks add up to their union
            out = self._gammas[abstract] = sum(map(self.masks.__getitem__, abstract))
        return out

    def gamma(self, abstract) -> frozenset[int]:
        """Concretize an abstract belief (block-id set or location)."""
        if isinstance(abstract, int):
            return frozenset({abstract})
        out: set[int] = set()
        for bid in abstract:
            out |= self.blocks[bid]
        return frozenset(out)

    def split(self, scope: int, separator: int) -> "Partition":
        """Split every block inside the cell mask ``scope`` against the
        cell mask ``separator``; a scope of ``-1`` holds every cell.

        Blocks not contained in ``scope`` are untouched.  Returns self if
        nothing splits.
        """
        new_blocks = dict(self.blocks)
        nid = self.next_id
        for bid, mask in self.masks.items():
            inter = mask & separator
            if mask & ~scope or not inter or inter == mask:
                continue
            cells = new_blocks.pop(bid)
            new_blocks[nid] = part = frozenset([l for l in cells if inter >> l & 1])
            new_blocks[nid + 1] = cells - part
            nid += 2
        if nid == self.next_id:
            return self
        return Partition(new_blocks, self.universe, nid)

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement of two partitions of the same set,
        split against ``other``'s blocks in the order of their sorted
        cells."""
        result = self
        # disjoint blocks sort by their sorted cells as by their lowest cell
        for mask in sorted(other.masks.values(), key=lambda m: m & -m):
            result = result.split(-1, mask)
        return result


def initial_partition(
    G: SurveillanceGameStructure, predicates: Iterable[PredicateDef] = ()
) -> Partition:
    """Coarsest partition that is uniform for every target-kind predicate."""
    preds = [p for p in predicates if p.on_target]
    groups: dict[tuple[bool, ...], set[int]] = {}
    for l_t in sorted(G.target_locations):
        sig = tuple(l_t in p.cells for p in preds)
        groups.setdefault(sig, set()).add(l_t)
    blocks = {
        i: frozenset(cells)
        for i, (_, cells) in enumerate(sorted(groups.items()))
    }
    return Partition(blocks, frozenset(G.target_locations))


def singletons(G: SurveillanceGameStructure) -> Partition:
    """The partition with one block per target location, whose id is the
    location.  Under it a block-set label is the exact belief itself, and
    :func:`build_abstract_game` builds the exact belief game."""
    cells = frozenset(G.target_locations)
    return Partition({c: frozenset({c}) for c in sorted(cells)}, cells)


def abstract_successors(G: SurveillanceGameStructure, Q: Partition, state, records=None):
    """The landing split of an abstract state ``(l_a, label)``.

    Returns ``(seen, unseen, moves)``: the masks of the cells the target
    can land on that the agent on ``l_a`` sees and does not see (see
    :func:`~surveil.belief.landing_cells`), and ``moves``, the
    :class:`~surveil.belief.BeliefMoves` record of the concretized label.
    The state's choices are one per seen cell, with the replies that
    :func:`~surveil.belief.move_replies` gives, then at most one
    covering ``unseen``, labelled ``Q.alpha_mask(unseen)``, with the
    replies that :func:`~surveil.belief.invisible_replies` picks; this
    is :func:`~surveil.belief.target_moves` on ``moves``.  ``records`` maps
    labels to their records; a missing record is made and added to it.
    """
    l_a, label = state
    if records is None:
        records = {}
    moves = records.get(label)
    if moves is None:
        moves = records[label] = belief_moves(G, Q.gamma_mask(label))
    seen, unseen = landing_cells(G, l_a, moves)
    return seen, unseen, moves


class _Reach:
    """The target's attractor to the unsafe states of a game that
    :func:`build_abstract_game` explores, on the part explored so far.

    A state is in it when it is unsafe, or when one of its choices has
    every reply in it.  Exploration only adds states and choices, so the
    attractor only grows; :meth:`update` takes in what was added since
    the last call.  ``won`` flags its states and ``missing`` counts each
    reply set's members outside it.  Until the first unsafe state
    nothing is kept, and each state's flag is scanned once.  The object
    holds the game's tables under the arena's names, so the solver's
    attractor rule (:func:`~surveil.solver._emptied`) and its
    level-by-level attractor run on it.
    """

    def __init__(self, unsafe, choice_off, choice_set, reply_off, replies, owners, holders):
        self.unsafe = unsafe
        self.choice_off, self.choice_set = choice_off, choice_set
        self.reply_off, self.replies = reply_off, replies
        self.owners, self.holders = owners, holders
        self.won, self.missing = bytearray(), []
        # states scanned for the first unsafe one, and states whose
        # choices are taken in
        self.scanned = self.expanded = 0

    def update(self, expanded: int) -> bool:
        """Take in the states and reply sets made since the last call, and
        the choices of the states before ``expanded``; True when the
        initial state is in the attractor."""
        # imported here: the solver imports this module
        from .solver import _emptied

        unsafe, won, missing = self.unsafe, self.won, self.missing
        n = len(unsafe)
        if not won and unsafe.find(1, self.scanned) < 0:
            self.scanned = n
            return False
        reply_off, replies = self.reply_off, self.replies
        choice_off, choice_set = self.choice_off, self.choice_set
        start = len(won)
        won.extend(bytes(n - start))
        # the new sets' widths, less their members already in: one flat
        # scan and a search per hit cost less than a loop per set
        s0, r0 = len(missing), reply_off[len(missing)]
        missing.extend(map(sub, reply_off[s0 + 1 :], reply_off[s0:-1]))
        hits = bytes(map(won.__getitem__, replies[r0:]))
        p = hits.find(1)
        while p >= 0:
            missing[bisect_right(reply_off, r0 + p) - 1] -= 1
            p = hits.find(1, p + 1)
        # the new unsafe states, and the owners of new choices whose sets
        # have no member outside
        joined = list(compress(range(start, n), unsafe[start:]))
        c0 = choice_off[self.expanded]
        hits = bytes(map(not_, map(missing.__getitem__, choice_set[c0:])))
        p = hits.find(1)
        while p >= 0:
            joined.append(bisect_right(choice_off, c0 + p) - 1)
            p = hits.find(1, p + 1)
        self.expanded = expanded
        # the solver's attractor rule, without its levels
        while joined:
            fresh = []
            for i in joined:
                if not won[i]:
                    won[i] = 1
                    fresh.append(i)
            joined = _emptied(self, missing, fresh)
        return bool(won[0])

    def initial_rank(self) -> int:
        """The initial state's rank in the attractor, by the solver's
        level-by-level attractor on the part explored so far."""
        # imported here: the solver imports this module
        from .solver import _target_attractor

        won = bytearray(self.unsafe)
        missing = array("i", map(sub, self.reply_off[1:], self.reply_off))
        layer = _target_attractor(self, won, list(compress(range(len(won)), won)), missing, 0)
        return next(rank for i, rank, _ in layer if i == 0)


def build_abstract_game(
    G: SurveillanceGameStructure,
    Q: Partition,
    max_states: int = 1_000_000,
    safety: frozenset = frozenset(),
    predicates: Optional[dict[str, PredicateDef]] = None,
    *,
    cut: bool = False,
) -> TurnGame:
    """Enumerate the reachable abstract game for partition ``Q``, breadth
    first from ``G.initial``.

    States are numbered as they are found, so the initial state is 0,
    and each distinct label is interned once, in the order it is found.
    Each distinct pair of a label and a tuple of agent cells is interned
    once too, as a reply set, whose members are numbered and appended to
    one flat array.  Each expanded state makes one call of
    :func:`abstract_successors`, and its choices are read off the
    landing split that call returns, in the order given there; sets keep
    the order they were found in.  Every set belongs to one label, so a
    choice's label is read off its set.

    A visible move, and an invisible one whose replies are the whole
    ball, has one reply set per agent cell and seen cell (or block-set
    label): a row per agent cell, kept for this game only, maps each to
    its set id, so such a move costs one probe of the row once an
    earlier state on the same agent cell has met it.

    Each label's safety test is made once per game, when the label is
    found, and each state is tested when it is numbered.  When a state
    with the label is first expanded, the label's moves are collected
    into one :class:`~surveil.belief.BeliefMoves` record, kept for this
    exploration only; every state with that label is expanded from it.

    A state where the conjunction of the ``safety`` atoms fails on the
    concretized label is not expanded: it gets its number, its atom
    valuation in :func:`~surveil.solver.make_arena` and its count
    against ``max_states``, but no choices, and a state reachable only
    through such states is not built at all.  Nothing that the game is
    used for changes:

    * an unsafe state is a rank-0 seed of the target's attractor
      whatever its choices are;
    * for every other state, each quantity :func:`~surveil.solver.solve`
      computes (attractor ranks, the first winning choice in canonical
      order, traps and Buchi ranks) depends only on the states reachable
      from it through safe states,
      and those keep their choices;
    * :func:`~surveil.solver.extract_cex_graph` makes unsafe nodes
      sinks;
    * the controller lives in the agent's winning region, which lies
      inside the safe states.

    So verdicts, counterexamples and controllers are those of the full
    game; only state numbers and reply-set ids differ.  Without safety
    atoms every state is expanded.  ``predicates`` must declare each
    task atom of ``safety``.

    With ``cut``, a game the target wins by reaching an unsafe state is
    built only as deep as its counterexample reads.  From the first
    unsafe state on, the builder keeps the target's attractor to the
    unsafe states up to date (:class:`_Reach`) at each breadth-first
    depth boundary ``d``, where every state of depth at most ``d`` is
    expanded and every state of depth ``d + 1`` numbered and tested.  At
    the first boundary ``D`` where the attractor holds the initial
    state, the builder takes that state's rank ``R`` there, stops the
    bookkeeping, and expands no state deeper than ``D* = max(D, R - 1)``:
    the states found after that keep their numbers but get no choices.
    The game records ``D*`` as its ``cut_depth``, and only its states
    count against ``max_states``.

    The cut is exact for a lost game's counterexample.  An expanded
    state keeps all its choices, and a state without choices joins the
    target's attractor only when it is unsafe; more choices never take a
    state out of the attractor or raise its rank.  So the cut game's
    attractor lies inside the full game's, each rank at least as high,
    and the part explored at ``D`` has no choice the cut game lacks: the
    initial state is in the cut game's attractor with rank at most
    ``R``, the agent never wins a cut game, and the initial state's
    full-game rank ``R0`` is at most ``R <= D* + 1``.  A state of depth
    ``d`` whose full-game rank ``r`` has ``d + r <= D* + 1`` has the
    same rank and the same first winning choice in both games, since a
    shortest certificate of rank ``r`` from depth ``d`` uses only states
    of depth at most ``d + r``.  By induction on ``r``: an unsafe state
    of depth at most ``D* + 1`` is numbered and tested; a state of rank
    ``r >= 1`` lies at depth at most ``D*``, so it is expanded; the
    replies of its first winning choice lie at depth at most ``d + 1``
    with full-game ranks below ``r``, which they keep in the cut game;
    and a choice before it in canonical order has a reply whose
    full-game rank, and so its rank in the cut game, is at least ``r``.
    A counterexample state ``m`` steps from the initial state, with
    ranks falling along the way, has depth ``d <= m`` and rank ``r <= R0
    - m``, so ``d + r <= R0 <= D* + 1``.  So every counterexample state
    has the same rank, first winning choice and mode (the attractor to
    the unsafe states comes before any trap) as in the full game, and
    the counterexample, its analysis, the refinement and the verdict are
    the same.
    """
    records: dict = {}
    test = safety_test(G, safety, predicates)
    masks = G.masks
    cell, ball = masks.cell, masks.ball
    alpha_mask, gamma_mask = Q.alpha_mask, Q.gamma_mask
    # per agent cell: seen cell, or block-set label of a move whose
    # replies are the whole ball -> reply set id
    rows = [{} for _ in cell]

    l_a0, label0 = G.initial
    labels = [label0]
    label_id = {label0: 0}
    # per label id: its safety test of the agent's cell, None when it
    # needs none; agent cell -> number of the state (cell, label); and
    # agent-cell tuple -> reply set id
    tests = [test(gamma_mask(label0))]
    numbered = [{l_a0: 0}]
    set_ids = [{}]
    found = [G.initial]
    # per state: 1 when it breaks a safety atom
    unsafe = bytearray([tests[0] is not None and not tests[0](l_a0)])
    # the reverse tables of TurnGame, filled as choices and members come
    owners, holders = [], [[]]
    # per reply set: its label id
    set_label = array("i")
    choice_off, choice_set = array("i", [0]), array("i")
    reply_off, replies = array("i", [0]), array("i")
    get_label, add_choice, add_reply = label_id.get, choice_set.append, replies.append
    add_unsafe = unsafe.append

    def intern(i, label, agent_cells) -> int:
        """The reply set of ``label`` and ``agent_cells``, made on first
        sight with its new states numbered, with state ``i`` recorded as
        the owner of one more choice."""
        lid = get_label(label)
        if lid is None:
            lid = label_id[label] = len(labels)
            labels.append(label)
            tests.append(test(gamma_mask(label)))
            numbered.append({})
            set_ids.append({})
        sets = set_ids[lid]
        s = sets.get(agent_cells)
        if s is not None:
            owners[s].append(i)
            return s
        s = sets[agent_cells] = len(set_label)
        set_label.append(lid)
        owners.append([i])
        # the interned object, which the new states share
        label, holds, at = labels[lid], tests[lid], numbered[lid]
        for l_a2 in agent_cells:
            j = at.get(l_a2)
            if j is None:
                if len(found) >= max_states:
                    raise BudgetExceeded(f"state budget of {max_states} exceeded")
                j = at[l_a2] = len(found)
                found.append((l_a2, label))
                holders.append([s])
                add_unsafe(holds is not None and not holds(l_a2))
            else:
                holders[j].append(s)
            add_reply(j)
        reply_off.append(len(replies))
        return s

    reach = None
    if cut:
        reach = _Reach(unsafe, choice_off, choice_set, reply_off, replies, owners, holders)
    # the depth being expanded, the end of its states in ``found``, and
    # once the cut is set, the deepest depth to expand
    depth, level_end, cut_depth = 0, 1, None
    # ``found`` is its own queue: the loop reaches the states it appends
    for i, state in enumerate(found):
        if i == level_end:
            # every state of depth ``depth`` or less is expanded
            if reach is not None and reach.update(i):
                cut_depth = max(depth, reach.initial_rank() - 1)
                reach = None
            if cut_depth == depth:
                choice_off.extend(repeat(len(choice_set), len(found) - i))
                break
            depth, level_end = depth + 1, len(found)
        if not unsafe[i]:
            l_a = state[0]
            seen, unseen, moves = abstract_successors(G, Q, state, records)
            row = rows[l_a]
            # the seen cells in ascending order, lowest bit first
            while seen:
                low = seen & -seen
                l_t2 = cell[low.bit_length() - 1]
                s = row.get(l_t2)
                if s is None:
                    s = row[l_t2] = intern(i, l_t2, move_replies(G, l_a, l_t2))
                else:
                    owners[s].append(i)
                add_choice(s)
                seen ^= low
            if unseen:
                label2 = alpha_mask(unseen)
                # the replies are the whole ball, which the row may keep,
                # unless an unseen cell lies in the ball
                key = None if unseen & ball[l_a] else label2
                s = row.get(key)
                if s is None:
                    s = intern(i, label2, invisible_replies(G, l_a, moves, unseen))
                    if key is not None:
                        row[key] = s
                else:
                    owners[s].append(i)
                add_choice(s)
        choice_off.append(len(choice_set))

    # free the rows before the last array is made, the build's memory peak
    del rows, reach
    # an array fills about twice as fast from a list as from an iterator
    return TurnGame(
        found,
        0,
        labels,
        choice_off,
        array("i", list(map(set_label.__getitem__, choice_set))),
        choice_set,
        reply_off,
        replies,
        owners,
        holders,
        cut_depth=cut_depth,
    )


def build_belief_game(G, max_states=2_000_000, safety=frozenset(), predicates=None) -> TurnGame:
    """The exact belief game: :func:`build_abstract_game` under
    :func:`singletons`."""
    return build_abstract_game(G, singletons(G), max_states, safety, predicates)
