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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import sub
from typing import Iterable, Optional

from .belief import (
    BudgetExceeded,
    PredicateDef,
    TurnGame,
    atom_test,
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


def _on_demand(
    found, unsafe, expanded, choice_off, choice_set, reply_off, replies, owners, holders, recurrence
):
    """The states :func:`build_abstract_game` expands with ``cut``, as
    ``(number, state)`` pairs, in the order the answer at the initial
    state reads them.  A generator over the builder's tables, which it
    reads again each time it resumes.  It records in ``expanded`` each
    state's place in that order, so that the ``e``-th state's choices
    are the reply sets ``choice_set[choice_off[e]:choice_off[e + 1]]``.
    The proof that the answer is exact is in the builder's docstring.

    Phase A expands depth first along the agent's picks.  ``won`` marks
    the target's attractor to the unsafe states on the explored part,
    grown by the solver's rule (:func:`~surveil.solver._emptied`) over
    ``missing``, each reply set's members outside it; ``pick`` is the
    position of the first of them, the set's pick.  The sets of each
    state expanded outside the attractor are stacked, and when a member
    joins, each set that picked it moves its pick on and is stacked
    again; a set popped from the stack has its pick expanded, unless
    the pick is expanded already or every owner of the set has joined.
    So every pick of an expanded state outside the attractor is
    expanded or stacked.  The phase ends when the attractor holds the
    initial state, or when the stack runs dry.

    Phase B, in a game the target wins, walks the counterexample from
    the initial state: each state's rank in the target's attractor and
    its first winning choice, through bounded queries (``at_most``) that
    expand states as they read them.  ``upper`` and ``lower`` bound each
    rank; the attractor's levels on the part phase A explored give the
    first upper bounds, so a state whose rank is its level there needs
    one refuted query.

    Phase C, in a game the agent wins, runs only for a spec with
    recurrence terms, which needs the whole game: the remaining states
    in number order.  Every game ends in :func:`_laid_out`, which lays
    the choices out in state order and runs phase C as it goes.

    Phases A and B serve a spec with safety terms.  Phase R, for a spec
    with recurrence terms alone, is :func:`_trap_round`, which the
    builder runs in their place: it reads the target's first trap round
    on the explored part and walks its counterexample, and ends in
    :func:`_laid_out` too.
    """
    # imported here: the solver imports this module
    from .solver import _UNRANKED, _emptied

    won = bytearray(unsafe)
    missing, pick = array("i"), array("i")
    # reply sets whose picks are to be expanded while the set has an
    # owner outside the attractor
    stack, i = [], 0
    while not won[0]:
        expanded[i] = len(expanded)
        n = len(found)
        yield i, found[i]
        won += unsafe[n:]
        # each new set of the state gets its members outside and the
        # first of them; a set without one puts the state in the attractor
        fresh, sets = [], []
        for k in choice_set[choice_off[-2] :]:
            if k == len(pick):
                p, end = reply_off[k], reply_off[k + 1]
                while p < end and won[replies[p]]:
                    p += 1
                pick.append(p)
                missing.append(end - p - sum(map(won.__getitem__, replies[p:end])))
            if not missing[k]:
                fresh = [i]
            elif replies[pick[k]] not in expanded:
                sets.append(k)
        if not fresh:
            # the last choice's set on top: the move out of sight, which
            # comes last, is the target's likeliest win, and following it
            # first keeps the search of a lost game short
            stack += sets
        else:
            won[i] = 1
        while fresh:
            joined = _emptied(owners, holders, missing, fresh)
            for j in fresh:
                for k in holders[j]:
                    if missing[k] and replies[pick[k]] == j:
                        p = pick[k] + 1
                        while won[replies[p]]:
                            p += 1
                        pick[k] = p
                        if replies[p] not in expanded:
                            stack.append(k)
            fresh = []
            for j in joined:
                if not won[j]:
                    won[j] = 1
                    fresh.append(j)
        i = None
        while stack:
            k = stack.pop()
            if (
                missing[k]
                and replies[pick[k]] not in expanded
                and not all(map(won.__getitem__, owners[k]))
            ):
                i = replies[pick[k]]
                break
        if i is None:
            break
    if not won[0]:
        yield from _laid_out(found, unsafe, expanded, choice_off, choice_set, recurrence)
        return
    del won, missing, pick, stack

    # the attractor's levels on the explored part: no rank is higher
    upper = array("i", [_UNRANKED]) * len(found)
    fresh = list(compress(range(len(found)), unsafe))
    for j in fresh:
        upper[j] = 0
    widths = array("i", map(sub, reply_off[1:], reply_off))
    level = 0
    while fresh:
        level += 1
        joined, fresh = _emptied(owners, holders, widths, fresh), []
        for j in joined:
            if upper[j] == _UNRANKED:
                upper[j] = level
                fresh.append(j)
    # a safe state's rank is above 0
    lower = array("i", [0]) * len(found)

    def expand(s):
        expanded[s] = len(expanded)
        n = len(found)
        yield s, found[s]
        for u in unsafe[n:]:
            upper.append(0 if u else _UNRANKED)
            lower.append(0)

    def at_most(s0, k0):
        """Whether state ``s0`` has rank at most ``k0``.  Depth first with
        a frame per open query, ``[state, bound, choice, reply position]``;
        a finished query sets its state's bound, which its parent reads."""
        if upper[s0] <= k0 or lower[s0] >= k0:
            return upper[s0] <= k0
        frames = [[s0, k0, 0, -1]]
        while frames:
            f = frames[-1]
            s, k, c, q = f
            if s not in expanded:
                yield from expand(s)
            e = expanded[s]
            start, b = choice_off[e], k - 1
            while start + c < choice_off[e + 1]:
                k2 = choice_set[start + c]
                end = reply_off[k2 + 1]
                if q < 0:
                    q = reply_off[k2]
                while q < end and upper[replies[q]] <= b:
                    q += 1
                if q == end:
                    upper[s] = k
                    frames.pop()
                    break
                if lower[replies[q]] < b:
                    f[2], f[3] = c, q
                    frames.append([replies[q], b, 0, -1])
                    break
                c, q = c + 1, -1
            else:
                lower[s] = k
                frames.pop()
        return upper[s0] <= k0

    order, seen = [0], {0}
    for s in order:
        if unsafe[s]:
            continue
        rank = upper[s]
        while (yield from at_most(s, rank - 1)):
            rank = upper[s]
        # the first choice whose replies all rank below ``rank``
        e = expanded[s]
        for k in choice_set[choice_off[e] : choice_off[e + 1]]:
            members = replies[reply_off[k] : reply_off[k + 1]]
            for r in members:
                if not (yield from at_most(r, rank - 1)):
                    break
            else:
                break
        for r in members:
            if r not in seen:
                seen.add(r)
                order.append(r)
    yield from _laid_out(found, unsafe, expanded, choice_off, choice_set, False)


def _target_wins(
    found, unsafe, expanded, choice_off, choice_set, reply_off, replies, owners, holders,
    recurrence, tests, gamma_mask,
):
    """Whether the target wins the part explored so far as it stands, a
    state not expanded without choices, in the solver's first trap round
    (:func:`~surveil.solver._target_strategy`): the traps away from each
    atom of ``recurrence`` and the attractor to them.  ``tests`` and
    ``gamma_mask`` are :func:`_trap_round`'s.  A state without choices
    joins every agent attractor, so only the expanded states' goals are
    read."""
    from .solver import Arena, _avoid_trap, _target_attractor, _widths

    # laid out in state order by the builder's own layout, on copies;
    # without ``rest`` it expands nothing, so it runs to its end at once
    off, cset = choice_off[:], choice_set[:]
    for _ in _laid_out(found, unsafe, expanded, off, cset, False):
        pass
    atom_sets = {}
    for a, test in zip(recurrence, tests):
        goal = atom_sets[a] = bytearray(len(found))
        for s in expanded:
            l_a, label = found[s]
            goal[s] = test(l_a, gamma_mask(label))
    game = Arena(
        found, 0, [], off, array("i"), cset, reply_off, replies, owners, holders,
        atom_sets=atom_sets,
    )
    degree = _widths(off)
    won, traps = bytearray(len(found)), []
    for a in recurrence:
        traps += [i for i, _ in _avoid_trap(game, degree, won, atom_sets[a])[0]]
    _target_attractor(game, won, traps, _widths(reply_off), 0)
    return won[0]


def _trap_round(
    found, unsafe, expanded, choice_off, choice_set, reply_off, replies, owners, holders,
    recurrence, tests, gamma_mask,
):
    """Phase R of :func:`_on_demand`, for a spec whose terms are the
    recurrence atoms ``recurrence`` alone; ``tests`` holds each atom's
    :func:`~surveil.belief.atom_test`, which ``gamma_mask`` gives the
    labels' cells to.

    *Facts.*  The count ``inside[s]`` is the number of atoms ``j`` whose
    agent attractor, run outside the traps of the atoms before ``j``,
    holds ``s`` on the explored part, where a state not expanded joins
    only through goals: those of atom 0 up to the first one it misses.
    A reply set's ``cover`` is its members' highest count, so it is
    covered for atom ``j`` once a member's count passes ``j``.  A state
    whose count is ``j`` joins when all its choices are covered for
    ``j`` (``count[s]`` holds the others), or at once in the atom's
    goal: the solver's rule, kept by counters as states are expanded,
    for exploration only adds joins.  A state is *trapped* while its
    count is below the number of atoms, and *attracted* once it is not.

    *Walks.*  A walk reads, breadth first and a layer at a time, the
    counterexample these facts give, and expands the states of each
    layer it reaches before any of them chooses.  A trapped state with
    count ``j`` follows its first choice not covered for ``j``.  An
    attracted state follows its first choice whose members all lie
    below it in the levels of the attractor to the trapped states, an
    attracted state not expanded at level 1 (``levels``).  The levels
    are read once per walk, and an attracted state expanded after that
    is left to the next walk.  Walks repeat until one expands nothing and
    leaves nothing: the game is left partial, the walk's reading being
    the whole game's counterexample (the proof is in
    :func:`build_abstract_game`).  A walk that finds the initial state
    attracted at no level (it reads the levels there first, before it
    expands anything) ends the phase with the rest expanded (phase C):
    the target does not win the whole game's first trap round.  The
    bookkeeping is incremental: no solve runs while the walks go on.

    *Seed.*  An initial state attracted from its own expansion on is
    where the walks add about one attractor layer each, and where a game
    the agent wins would be explored at length before the levels rule it
    out.  So its closure under each state's last choice, the target's
    move out of sight, is expanded first, and the phase goes on only if
    the target wins that part as it stands in its first trap round
    (:func:`_target_wins`, a state not expanded having no choices); else
    the rest is expanded at once.  Either way the answer is exact: phase
    C builds the whole game."""
    from .solver import _UNRANKED, _emptied

    m = len(recurrence)
    # per state: its count, its goal bits (an int, for any number of
    # atoms), whether it is expanded, and its choices not covered for
    # the atom its count names; per reply set, the number of atoms it is
    # covered for, its members' highest count
    inside, goal, done, count = array("i"), [], bytearray(), array("i")
    cover = array("i")
    # ``(j, s)``: ``s`` joined atom ``j``'s attractor, its sets not yet
    # covered for ``j``
    work = []

    def join(s, j):
        """``s``, with count ``j``, joins atom ``j``'s attractor, and the
        next atoms' as far as its goals and choices take it."""
        while True:
            inside[s] = j + 1
            work.append((j, s))
            j += 1
            if j == m:
                return
            if not goal[s] >> j & 1:
                if not done[s]:
                    return
                e = expanded[s]
                n = 0
                for k in choice_set[choice_off[e] : choice_off[e + 1]]:
                    if cover[k] <= j:
                        n += 1
                count[s] = n
                if n:
                    return

    def settle():
        while work:
            j, s = work.pop()
            # the joins of ``s`` may be taken out of order: a set is
            # covered for every atom up to ``j`` at once
            for k in holders[s]:
                c = cover[k]
                if c <= j:
                    cover[k] = j + 1
                    # an owner counts the set once per choice onto it,
                    # and joins after all of them
                    ready = []
                    for o in owners[k]:
                        i = inside[o]
                        if c <= i <= j:
                            count[o] -= 1
                            if not count[o]:
                                ready.append(o)
                    for o in ready:
                        join(o, inside[o])

    def learn(states):
        """Take in the expansions of ``states``, and the states and reply
        sets numbered since the last call."""
        size = len(inside)
        if size < len(found):
            more = max(len(found), 2 * size) - size
            zeros = array("i", bytes(4 * more))
            done.extend(bytes(more))
            inside.extend(zeros)
            count.extend(zeros)
        start = len(goal)
        if start < len(found):
            new = found[start:]
            masks = [gamma_mask(label) for _, label in new]
            bits = [0] * len(new)
            for j, test in enumerate(tests):
                bit = 1 << j
                bits = [
                    b | bit if test(l_a, mask) else b
                    for b, (l_a, _), mask in zip(bits, new, masks)
                ]
            goal.extend(bits)
            for t, b in enumerate(bits, start):
                # the goals of atom 0 up to the first one it misses
                inside[t] = (b + 1 & ~b).bit_length() - 1
        # a new set is covered by the members inside already
        for k in range(len(cover), len(reply_off) - 1):
            cover.append(max(map(inside.__getitem__, replies[reply_off[k] : reply_off[k + 1]])))
        for s in states:
            done[s] = 1
            j, e = inside[s], expanded[s]
            n = 0
            for k in choice_set[choice_off[e] : choice_off[e + 1]]:
                if cover[k] <= j:
                    n += 1
            count[s] = n
        for s in states:
            j = inside[s]
            if j < m and not count[s]:
                join(s, j)
        settle()

    def levels():
        """Each state's level in the attractor to the trapped states, an
        attracted state not expanded at level 1, grown by the solver's
        rule (:func:`~surveil.solver._emptied`).  Only the sets of
        attracted states are counted, by their attracted members."""
        n = len(found)
        level = array("i", bytes(4 * n))
        sets = len(reply_off) - 1
        missing, counted = array("i", bytes(4 * sets)), bytearray(sets)
        fresh = []
        for s in compress(range(n), map(m.__eq__, inside[:n])):
            level[s] = _UNRANKED
            if not done[s]:
                level[s] = 1
                fresh.append(s)
                continue
            e = expanded[s]
            for k in choice_set[choice_off[e] : choice_off[e + 1]]:
                if not counted[k]:
                    counted[k] = 1
                    members = replies[reply_off[k] : reply_off[k + 1]]
                    missing[k] = list(map(inside.__getitem__, members)).count(m)
                if not missing[k] and level[s] == _UNRANKED:
                    level[s] = 1
                    fresh.append(s)
        depth = 1
        while fresh:
            depth += 1
            # a set no attracted state owns counts below 0 and never empties
            joined = _emptied(owners, holders, missing, fresh)
            fresh = []
            for o in joined:
                if level[o] == _UNRANKED:
                    level[o] = depth
                    fresh.append(o)
        return level

    expanded[0] = 0
    yield 0, found[0]
    learn([0])
    if inside[0] == m:
        # the seed; its expansions are taken in only if the walks go on
        seed, stack, met = [], [0], {0}
        while stack:
            s = stack.pop()
            if s not in expanded:
                expanded[s] = len(expanded)
                yield s, found[s]
                seed.append(s)
            e = expanded[s]
            if choice_off[e] < choice_off[e + 1]:
                k = choice_set[choice_off[e + 1] - 1]
                for t in replies[reply_off[k] : reply_off[k + 1]]:
                    if t not in met:
                        met.add(t)
                        stack.append(t)
        if not _target_wins(
            found, unsafe, expanded, choice_off, choice_set, reply_off, replies, owners,
            holders, recurrence, tests, gamma_mask,
        ):
            yield from _laid_out(found, unsafe, expanded, choice_off, choice_set, True)
            return
        learn(seed)
        del seed, met
    while True:
        # ``start`` tells a walk that expands nothing, and ``whole`` one
        # that reads every attracted state it reaches
        level, start, whole = None, len(expanded), True
        layer, seen = [0], {0}
        while layer:
            fresh = []
            for s in layer:
                if not done[s]:
                    expanded[s] = len(expanded)
                    yield s, found[s]
                    fresh.append(s)
            if fresh:
                learn(fresh)
            after = []
            for s in layer:
                j = inside[s]
                if j < m:
                    e = expanded[s]
                    for c in range(choice_off[e], choice_off[e + 1]):
                        k = choice_set[c]
                        if cover[k] <= j:
                            break
                else:
                    if level is None:
                        level, known = levels(), len(expanded)
                    e = expanded[s]
                    if e >= known:
                        whole = False
                        continue
                    r = level[s]
                    if r == _UNRANKED:
                        if not s:
                            # the initial state, whose levels this walk
                            # read before it expanded anything: phase C
                            yield from _laid_out(
                                found, unsafe, expanded, choice_off, choice_set, True
                            )
                            return
                        # a state that joined since its parent chose:
                        # the next walk reads it again
                        whole = False
                        continue
                    for c in range(choice_off[e], choice_off[e + 1]):
                        k = choice_set[c]
                        members = replies[reply_off[k] : reply_off[k + 1]]
                        if max(map(level.__getitem__, members)) < r:
                            break
                for t in replies[reply_off[k] : reply_off[k + 1]]:
                    if t not in seen:
                        seen.add(t)
                        after.append(t)
            layer = after
        if whole and len(expanded) == start:
            break
    yield from _laid_out(found, unsafe, expanded, choice_off, choice_set, False)


def _laid_out(found, unsafe, expanded, choice_off, choice_set, rest):
    """Lay the choices of the states :func:`_on_demand` expanded out in
    state order, in place, and with ``rest`` expand the other safe
    states too, as ``(number, state)`` pairs in number order; their
    choices land in state order as the builder appends them.  An unsafe
    state, and without ``rest`` a state not expanded, has no choices."""
    # each expanded state's place in the order expanded, and its choices
    place, sets, ends = dict(expanded), choice_set[:], choice_off[:]
    del choice_set[:], choice_off[1:]
    for i, state in enumerate(found):
        e = place.get(i)
        if e is not None:
            choice_set += sets[ends[e] : ends[e + 1]]
        elif rest and not unsafe[i]:
            expanded[i] = len(expanded)
            yield i, state
            continue
        choice_off.append(len(choice_set))


def build_abstract_game(
    G: SurveillanceGameStructure,
    Q: Partition,
    max_states: int = 1_000_000,
    safety: frozenset = frozenset(),
    predicates: Optional[dict[str, PredicateDef]] = None,
    *,
    cut: bool = False,
    recurrence: tuple = (),
) -> TurnGame:
    """Enumerate the reachable abstract game for partition ``Q``, breadth
    first from ``G.initial``, or with ``cut`` only as far as the answer
    at the initial state reads.

    States are numbered as they are found, so the initial state is 0,
    and each distinct label is interned once, in the order it is found.
    Each distinct pair of a label and a tuple of agent cells is interned
    once too, as a reply set, whose members are numbered and appended to
    one flat array.  Each expanded state makes one call of
    :func:`abstract_successors`, and its choices are read off the
    landing split that call returns, in the order given there; sets keep
    the order they were found in.  Every set belongs to one label, so a
    choice's label is read off its set.  The choices' sets are appended
    to one array state by state, in the order the states are expanded,
    and with ``cut`` laid out in state order at the end;
    ``owners`` lists each set's owners in the order they were expanded.

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
    atoms and without ``cut`` every state is expanded.  ``recurrence``
    lists the spec's recurrence atoms in its order, and ``predicates``
    must declare each task atom of ``safety`` and, with ``cut``, of
    ``recurrence``.

    With ``cut``, the game is solved on the fly, in the manner of the
    local fixpoint algorithms of Liu and Smolka (ICALP 1998) and of
    Cassez, David, Fleury, Larsen and Lime (CONCUR 2005): states are
    expanded in the order :func:`_on_demand` reads them (or, for a spec
    whose terms are the ``recurrence`` atoms alone, :func:`_trap_round`),
    and a game the target wins, or a safety game the agent wins, is left
    ``partial``: some safe states it numbered have no choices.  Only its
    states count against ``max_states``.  The controller or the counterexample read off it is
    the whole game's.  Call the whole game's target attractor to the
    unsafe states ``A``, ``rank(s)`` the level at which ``s`` joins it,
    and ``Z`` the rest, the agent's winning region for the safety terms;
    ``A'`` and ``rank'`` are the same on a part of the game, in which the
    expanded states have all their choices and the others none.  A state
    without choices joins only when it is unsafe, and more choices never
    take a state out or raise its rank, so ``A'`` lies inside ``A`` and
    ``rank'`` is never below ``rank``.

    *Won.*  Phase A ends with the initial state outside ``A'`` and every
    pick of an expanded state outside ``A'`` expanded.  So the states
    that a walk from the initial state along the picks reaches are
    expanded, safe and outside ``A'``, and each of their choices has a
    reply among them, its pick: none of them lies in ``A`` (a first one
    to join would need a choice whose replies all joined before), so
    they lie in ``Z``.  The members before a pick are in ``A'``, hence
    in ``A``, so each pick is the first reply in ``Z`` of its set, the
    reply that :func:`~surveil.solver._buchi_strategy` chooses for a spec
    without recurrence terms, on the whole game and on the partial one
    (whose winning region is the complement of ``A'``) alike.  So both
    walks from the initial state build the same controller.  A spec with
    recurrence terms gets the whole game.

    *Lost.*  Phase A ends with the initial state in ``A'``, so in ``A``:
    the target wins, and every counterexample state lies in ``A``, with
    mode ``("reach", rank)``.  A query ``rank(s) <= k`` answered yes is
    backed by expanded states, so ``rank'(s) <= k``, and so ``rank(s) <=
    k``.  One answered no is backed by the full game: ``s`` is expanded
    with all its choices, each with a reply answered no at ``k - 1``
    (or ``s`` is safe and ``k`` is 0), so ``rank(s) > k``, and so
    ``rank'(s) > k``.  The first upper bounds, ``rank'`` on the part phase
    A explored, stay upper bounds as exploration goes on.  Phase B gives
    each counterexample state a rank ``R`` answered yes at ``R`` and no at
    ``R - 1``, so ``rank'(s) = rank(s) = R``, and a choice whose replies
    are all answered yes at ``R - 1``, each choice before it having a
    reply answered no there: the first winning choice of both games.  So
    the walk from the initial state along those choices reads the same
    states, ranks, choices and modes in both games, and the
    counterexample, its analysis, the refinement and the verdict are the
    whole game's.

    *Recurrence alone.*  Without safety terms the solver's first trap
    round decides the counterexample (in the manner of Stevens and
    Stirling's local model checking games, TACAS 1998, the exploration
    follows the target's candidate strategy).  On the whole game, call
    ``D_j`` the states outside the traps of the atoms before ``j``,
    ``A_j`` the agent attractor to atom ``j``'s goal run inside ``D_j``,
    ``T_j = D_j - A_j`` atom ``j``'s trap, ``T`` their union and
    ``level`` the target's attractor levels to ``T``; a state's whole
    count ``inside_W`` is the number of atoms ``j`` with the state in
    ``A_j``.  A state's mode is ``("avoid", j)`` in ``T_j``, with its
    first choice no member of which is in ``A_j``, and ``("reach",
    level)`` elsewhere in the round, with its first choice whose
    members all lie lower.  A later round's levels continue from the top
    level of the round before, a whole-game quantity, so only the first
    round is read off a partial game.

    - Every join of :func:`_trap_round`'s counts is a whole-game fact,
      ``inside <= inside_W``: a join of atom ``j`` needs the state in
      ``D_j`` (its count is ``j``) and in the goal, or expanded, with
      all its choices, each covered by a member inside ``A_j``.  So a
      state of ``T`` is trapped, and ``level`` is never below the walk's
      levels, where a trapped state is at 0 and an attracted state not
      expanded at 1 (it lies outside ``T``, at 1 or more in the whole
      game).
    - Take a walk that expands nothing and reads every attracted state
      it reaches.  Its states are expanded.  For ``i`` from 0 up, the
      trapped states it reads with count ``i`` form a set ``S_i`` none
      of which is in atom ``i``'s goal, and each follows a choice whose
      members have counts of ``i`` or less: those below ``i`` lie
      outside ``D_i`` (by the claim for the smaller counts), the others
      in ``S_i``.  A first state of ``S_i`` to join ``A_i`` would need
      that choice covered by an earlier one: none joins, and each is in
      ``T_i`` with count ``i``.  Its choices before the one it follows
      are covered by members inside ``A_i``, and that one is not: the
      mode and choice are the whole game's.
    - An attracted state it reads, at level ``r``, follows a choice whose
      members lie below ``r`` in the walk's levels, and so by induction
      in the whole game's (a trapped one is in ``T``); every choice
      before it has a member at ``r`` or higher, a lower bound for the
      whole game too.  So ``level`` is ``r``, and the choice is the
      whole game's.  A walk that finds the initial state at no level
      has shown it outside the round, and the whole game is built.
    - The partial game is then solved as it stands: a state without
      choices joins the agent's attractors at rank 1 and never the
      target's, so on it ``A_j`` can only grow and each trap and level
      only shrink or rise.  Every state of the whole game's
      counterexample is expanded, so its traps close on themselves in
      the partial game as in the whole, and by the same induction the
      solver reads the same modes, levels and choices there.  The
      counterexample, its analysis, the refinement and the verdict are
      the whole game's.
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
    # the reply sets of the choices, state by state in the order the
    # states are expanded, and where each state's sets end
    choice_off, choice_set = array("i", [0]), array("i")
    # the reverse tables of TurnGame, filled as choices and members come
    owners, holders = [], [[]]
    # per reply set: its label id
    set_label = array("i")
    reply_off, replies = array("i", [0]), array("i")
    get_label, add_reply, add_unsafe = label_id.get, replies.append, unsafe.append
    add_choice = choice_set.append

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

    # with ``cut``: each expanded state's place in the order expanded
    expanded: dict = {}
    if cut and recurrence and not safety:
        schedule = _trap_round(
            found, unsafe, expanded, choice_off, choice_set, reply_off, replies, owners, holders,
            tuple(recurrence), [atom_test(G, a, predicates or {}) for a in recurrence], gamma_mask,
        )
    elif cut:
        schedule = _on_demand(
            found, unsafe, expanded, choice_off, choice_set,
            reply_off, replies, owners, holders, bool(recurrence),
        )
    else:
        # ``found`` is its own queue: the loop reaches the states it appends
        schedule = enumerate(found)
    for i, state in schedule:
        if unsafe[i]:
            choice_off.append(len(choice_set))
            continue
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

    # free the rows before the last arrays are made, the build's memory peak
    del rows, schedule
    partial = cut and len(expanded) + unsafe.count(1) < len(found)
    del expanded
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
        partial=partial,
    )


def build_belief_game(G, max_states=2_000_000, safety=frozenset(), predicates=None) -> TurnGame:
    """The exact belief game: :func:`build_abstract_game` under
    :func:`singletons`."""
    return build_abstract_game(G, singletons(G), max_states, safety, predicates)
