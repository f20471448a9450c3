"""Turn-based game solving for the supported objective fragment.

Arenas are turn-expanded explicit games: in every state the target picks
a belief-level choice, then the agent picks a reply; every choice has a
reply.  Atom valuations and regions are masks over states, a
``bytearray`` with 1 at each member.  The solver has two attractors, one
per player, over the reverse tables that exploration records in the
game; each is a counter-based worklist that touches every edge a bounded
number of times.  Each game is solved in one layered pass from the
target's side: its attractor to the unsafe states, then traps away from
a recurrence atom (each the complement of the agent's attractor to the
atom) and the attractors to them, until its region is closed.  The rest
is the agent's region, which the last trap round's attractors rank
toward each recurrence atom: they give the agent's controller, with a
memory index cycling through the atoms.  The controller is a
:class:`StrategyData` on arena states; its file format, written by
:func:`~surveil.simulate.export_strategy`, belongs to
:mod:`surveil.simulate`, which replays it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from operator import sub
from typing import Optional

from .abstraction import singletons
from .belief import PredicateDef, TurnGame, atom_test, belief_key
from .objective import Atom, Objective, SurvAtom


class SolverError(RuntimeError):
    pass


@dataclass
class Arena(TurnGame):
    """A flat turn game plus atom valuations: ``atom_sets`` maps each
    objective atom to the mask of the states satisfying it."""

    atom_sets: dict[Atom, bytearray] = field(default_factory=dict)


# bytes 0 and 1 swapped: the complement of a mask
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _meet(a, b) -> bytearray:
    """The states in both masks: with bytes 0 and 1, the and of their ints."""
    both = int.from_bytes(a, "little") & int.from_bytes(b, "little")
    return bytearray(both.to_bytes(len(a), "little"))


def _widths(off: array) -> array:
    """Lengths of the ranges that the offsets ``off`` delimit."""
    return array("i", map(sub, off[1:], off))


def _reply_widths(game: TurnGame) -> array:
    """The sizes of the game's reply sets.  Raises :class:`SolverError`
    when the game is not total, naming its first choice in canonical
    order that has no agent reply: by the state's agent cell and
    :func:`~surveil.belief.belief_key` of its label, then in the order
    the state lists its choices.  A state that is not such a pair, as in
    a hand-built arena, is ordered by itself."""
    widths = _widths(game.reply_off)
    if 0 in widths:
        states, off = game.states, game.choice_off

        def key(c):
            s = states[bisect_right(off, c) - 1]
            return ((s[0], belief_key(s[1])) if isinstance(s, tuple) else s), c

        c = min((c for c, k in enumerate(game.choice_set) if not widths[k]), key=key)
        s = states[bisect_right(off, c) - 1]
        raise SolverError(
            f"choice {game.labels[game.choice_label[c]]!r} of state {s!r} has "
            "no agent reply: the game structure is not total"
        )
    return widths


def check_predicates(
    objective: Objective, predicates: Optional[dict[str, PredicateDef]]
) -> None:
    """Raise :class:`SolverError` for a task atom of ``objective`` that
    ``predicates`` does not declare.  The game builders need the safety
    atoms' predicates, so callers check before building a game."""
    for atom in objective.atoms:
        if not isinstance(atom, SurvAtom) and atom.name not in (predicates or {}):
            raise SolverError(f"undeclared task predicate {atom.name!r}")


def make_arena(
    game: TurnGame,
    structure,
    objective: Objective,
    predicates: Optional[dict[str, PredicateDef]] = None,
    partition=None,
) -> Arena:
    """Evaluate the objective's atoms on the abstract game for
    ``partition``, by default :func:`~surveil.abstraction.singletons`,
    under which the game is the exact belief game.

    The arena shares the game's arrays.  Raises :class:`SolverError` for
    an undeclared task predicate (:func:`check_predicates`) and for a
    target choice without any agent reply, which a game structure that
    is not total produces and :func:`solve` does not take.
    """
    predicates = predicates or {}
    check_predicates(objective, predicates)
    _reply_widths(game)
    if partition is None:
        partition = singletons(structure)
    gamma_mask = partition.gamma_mask
    atom_sets = {}
    for atom in objective.atoms:
        test = atom_test(structure, atom, predicates)
        atom_sets[atom] = bytearray([test(l_a, gamma_mask(label)) for l_a, label in game.states])
    return Arena(**vars(game), atom_sets=atom_sets)


# rank of a state outside an attractor; above every real rank
_UNRANKED = 2**31 - 1


def _attractor(arena: Arena, degree, target, domain: bytearray, covered: bytearray) -> array:
    """Agent attractor toward the ``target`` states inside the ``domain``
    mask; ``degree[i]`` counts the choices of state ``i``.

    Returns each state's rank, the BFS level at which every target
    choice has a reply of lower rank (``_UNRANKED`` outside).  A reply
    set, and every choice that uses it, is covered once one of its
    members is ranked; ``covered``, a zeroed mask over the reply sets, is
    left marking those sets.  A domain state without choices joins at 1.
    """
    owners, holders, n = arena.owners, arena.holders, len(arena)
    rank = array("i", [_UNRANKED]) * n
    uncovered = array("i", degree)
    frontier = list(target)
    for i in frontier:
        rank[i] = 0
    added = [i for i in compress(range(n), domain) if not degree[i] and rank[i] == _UNRANKED]
    level = 1
    while True:
        for j in frontier:
            for k in holders[j]:
                if not covered[k]:
                    covered[k] = 1
                    for i in owners[k]:
                        uncovered[i] -= 1
                        if not uncovered[i] and domain[i] and rank[i] == _UNRANKED:
                            added.append(i)
        if not added:
            return rank
        for i in added:
            rank[i] = level
        frontier, added = added, []
        level += 1


def _emptied(owners: list, holders: list, missing: array, states) -> list:
    """Take the ``states`` out of the ``missing`` counts of the reply sets
    they belong to, read through a game's reverse tables ``owners`` and
    ``holders``.  Returns the owners of each set whose count reaches 0,
    once per choice onto the set: each has a choice whose replies are
    all in now.  The target's attractor grows by this rule alone."""
    out = []
    for j in states:
        for k in holders[j]:
            m = missing[k] = missing[k] - 1
            if not m:
                out.extend(owners[k])
    return out


def _target_attractor(
    arena: Arena, won: bytearray, fresh: list, missing: array, level: int
) -> list:
    """Target attractor toward the ``won`` mask, which it extends.

    ``missing[k]`` counts the members of reply set ``k`` outside ``won``
    before the states of ``fresh`` joined it; the call brings the counts
    up to date.  A state joins at the first level where one of its
    choices has all its replies attracted at lower levels; it records
    the first such choice in canonical order.  Levels continue after
    ``level``.  Returns ``[(state, rank, choice)]``.
    """
    start, cset = arena.choice_off, arena.choice_set
    owners, holders = arena.owners, arena.holders
    candidates = _emptied(owners, holders, missing, fresh)
    out = []
    while candidates:
        level += 1
        added = []
        for i in candidates:
            if won[i]:
                continue
            for c in range(start[i], start[i + 1]):
                if not missing[cset[c]]:
                    break
            won[i] = 1
            added.append(i)
            out.append((i, level, c))
        candidates = _emptied(owners, holders, missing, added)
    return out


def _avoid_trap(arena: Arena, degree, won: bytearray, avoid: bytearray) -> tuple[list, array]:
    """The target's trap away from the ``avoid`` mask: the states outside
    ``won`` that the agent's attractor to ``avoid``, run outside ``won``,
    leaves unranked.

    In each trap state the target has a choice of whose replies none is
    ranked, so the play stays in the trap or in ``won``.  The trap joins
    ``won``.  Returns ``[(state, choice)]`` by state, with the first such
    choice in canonical order, and the attractor's ranks.
    """
    start, cset = arena.choice_off, arena.choice_set
    states = range(len(arena))
    domain = won.translate(_NOT)
    # a set is covered exactly when one of its members is ranked
    covered = bytearray(len(arena.reply_off) - 1)
    rank = _attractor(arena, degree, compress(states, _meet(avoid, domain)), domain, covered)
    out = []
    for i in compress(states, domain):
        if rank[i] == _UNRANKED:
            for c in range(start[i], start[i + 1]):
                if not covered[cset[c]]:
                    out.append((i, c))
                    won[i] = 1
                    break
    return out, rank


@dataclass
class StrategyData:
    """Finite-memory agent controller on arena states.

    Memory is an index into the recurrence atoms (a single mode for pure
    safety).  ``moves[(state, memory, choice)] = (reply, memory')``, for
    every choice of every ``(state, memory)`` pair that a run from
    ``(initial, 0)`` reaches, and for no other pair.
    """

    memory_count: int
    moves: dict


@dataclass
class TargetStrategyData:
    """Positional spoiling strategy on the target's winning region.

    ``mode[i]`` explains why the target wins from state ``i``:
    ``("unsafe",)`` for a safety-atom violation at the state itself,
    ``("reach", rank)`` while forcing toward a violation, and
    ``("avoid", j)`` while trapping the play away from recurrence atom j.
    ``choice[i]`` is the id of the arena choice the target picks in state
    ``i``, or None for a state without choices, such as an unsafe state
    of a game built for the safety terms.
    """

    choice: dict
    mode: dict


@dataclass
class SolveResult:
    agent_wins: bool
    winning_region: bytearray
    agent_strategy: Optional[StrategyData] = None
    target_strategy: Optional[TargetStrategyData] = None


def _canonical_reply(i, replies, allowed: bytearray):
    for r in replies:
        if allowed[r]:
            return r
    raise SolverError(f"no winning reply from state {i}")


def solve(arena: Arena, objective: Objective) -> SolveResult:
    """Solve the arena for the objective and build the winner's strategy.

    The arena must be total, as :func:`make_arena` builds it: every
    target choice has an agent reply, or :class:`SolverError` is raised.

    The attractors walk the arena's reverse tables with counters started
    from ``degree`` (choices per state) and ``width`` (members per reply
    set).  A state is held once per occurrence, so a counter counts a
    repeated reply as often as it occurs and reaches zero exactly when
    the last copy goes; a set is covered or emptied once, whatever the
    number of choices that use it, so each attractor touches each set
    member and each choice a bounded number of times.

    The target's region comes first, by the iterated-attractor algorithm
    for Buchi games (W. Thomas, STACS 1995) in :func:`_target_strategy`,
    seeded with the unsafe states.  ``Z`` is the rest.  If it lacks the
    initial state, the layering is the target's strategy.  Otherwise the
    last trap round, which found no trap, ranked the agent's states: per
    recurrence atom ``F_j``, its attractor in ``Z`` to the core ``F_j &
    Z``, one round of the generalized-Buchi fixpoint on ``Z``.  Each
    ranks all of ``Z``: a state of ``Z`` left unranked has a choice whose
    reply set is not covered, and the set has members, none ranked, so
    the state would have joined a trap.  The fixpoint's core is ``F_j &
    Z & cpre(Z)``, with ``cpre`` the agent's controllable predecessor,
    but ``Z`` lies inside ``cpre(Z)``: a choice of a ``Z`` state whose
    replies all left ``Z`` would have put its state in the target's
    attractor.

    The two regions need no cross-check.  The layering certifies that
    the target wins outside ``Z``: its ranks fall until a trap or an
    unsafe state, and in a trap its choice keeps every reply in the trap
    or an earlier layer, off one atom.  The ranks certify that the agent
    wins in ``Z``: it can force the play into each core inside ``Z``,
    and from a core back into ``Z``.  Disjoint regions that cover the
    arena and are each won by their player are exact, so ``Z`` is the
    greatest fixpoint that the nested loop computed, and the last trap
    round is its last round.

    The agent's controller holds moves only for the ``(state, memory)``
    pairs reachable from ``(arena.initial, 0)``; the result's
    ``winning_region`` is still the whole of ``Z``.

    On a game built for the objective's safety terms, an unsafe state has
    no choices.  The result is the same as on the full game, restricted
    to the states the smaller game has: an unsafe state is a seed
    whatever its choices; every other state's attractor ranks, first
    winning choice, trap membership and Buchi ranks depend only on the
    states reachable from it through safe states; and ``Z`` lies inside
    the safe states.  Only ``TargetStrategyData.choice`` of an unsafe
    state differs: it is None where it was the state's first choice.

    A ``partial`` game (see
    :func:`~surveil.abstraction.build_abstract_game`) is solved as it
    stands, and its safe states without choices are won by the agent
    there: such a state joins every agent attractor at rank 1 and never
    the target's.  So its ``winning_region`` is not the full game's;
    what carries over is the agent's controller when it wins, and the
    target's win and its strategy on the counterexample's states when
    it loses: states of the target's attractor to the unsafe states for
    a spec with safety terms, and of the first trap round for a spec
    with recurrence terms alone.  The CEGAR loop solves only the
    partial games the agent wins: a lost one comes with that strategy
    on those states, the builder's ``reading``.
    """
    width = _reply_widths(arena)
    degree = _widths(arena.choice_off)
    n = len(arena)
    safe = bytearray(b"\x01") * n
    for atom in objective.safety_terms:
        safe = _meet(safe, arena.atom_sets[atom])
    won = safe.translate(_NOT)
    unsafe = list(compress(range(n), won))
    mode, choice, ranks = _target_strategy(arena, degree, width, objective, unsafe, won)
    Z = won.translate(_NOT)
    if not Z[arena.initial]:
        tstrat = TargetStrategyData(choice, mode)
        return SolveResult(False, Z, target_strategy=tstrat)
    cores = [_meet(arena.atom_sets[a], Z) for a in objective.recurrence_terms]
    if not cores:
        # without recurrence terms the one core is Z, and no rank is read
        cores, ranks = [Z], [None]
    return SolveResult(True, Z, agent_strategy=_buchi_strategy(arena, Z, cores, ranks))


def _buchi_strategy(arena, Z, cores, ranks) -> StrategyData:
    """Controller from the Buchi ranks of :func:`solve`, built only for
    the ``(state, memory)`` pairs that a run from ``(arena.initial, 0)``
    reaches.

    The walk pops a pair and writes the move for each choice of its
    state: in memory ``j``, inside ``cores[j]`` the canonical reply in
    ``Z`` with memory ``j + 1``; elsewhere the first reply that descends
    ``ranks[j]``, keeping memory ``j``.  Each reply pair not seen yet is
    walked in turn.  A rank-decreasing reply still lies in ``Z``: it can
    force the play into the core, whence into ``Z`` and on to every
    other core, so the walk never leaves ``Z``; a pair outside it raises
    :class:`SolverError`.
    """
    labels, label, start = arena.labels, arena.choice_label, arena.choice_off
    replies_of = arena.replies_of
    m = len(cores)
    moves = {}
    seen = {(arena.initial, 0)}
    stack = [(arena.initial, 0)]
    while stack:
        i, j = stack.pop()
        if not Z[i]:
            raise SolverError(f"controller reaches state {i} outside the winning region")
        # one move per label; a later choice with the same label overrides
        out = {}
        if cores[j][i]:
            for c in range(start[i], start[i + 1]):
                out[labels[label[c]]] = (_canonical_reply(i, replies_of(c), Z), (j + 1) % m)
        else:
            rank = ranks[j]
            level = rank[i]
            for c in range(start[i], start[i + 1]):
                for r in replies_of(c):
                    if rank[r] < level:
                        break
                else:
                    raise SolverError(f"no rank-decreasing reply from state {i}")
                out[labels[label[c]]] = (r, j)
        for c, move in out.items():
            moves[(i, j, c)] = move
            if move not in seen:
                seen.add(move)
                stack.append(move)
    return StrategyData(m, moves)


def _target_strategy(arena, degree, width, objective, unsafe, won) -> tuple[dict, dict, list]:
    """The target's layered positional strategy, as ``(mode, choice)``
    of :class:`TargetStrategyData`, on a region it extends ``won`` to,
    and the ranks of the last round's agent attractors, one per
    recurrence atom.

    ``won`` marks the ``unsafe`` states, listed in increasing order,
    which the target wins at once.
    The attractor to them comes first; then traps in which the target
    confines the play away from one recurrence atom, iterated with
    further attractors until a round adds nothing to ``won``.  The
    layering keeps ranks well-founded, so a safety counterexample is
    acyclic and every cycle lies in one trap.
    """
    # members of each reply set outside ``won``
    missing = array("i", width)
    layer = _target_attractor(arena, won, unsafe, missing, 0)
    mode: dict[int, tuple] = {}
    choice: dict = {}
    for i in unsafe:
        mode[i] = ("unsafe",)
        choice[i] = arena.choice_off[i] if degree[i] else None
    top = 0
    while True:
        grown = False
        for i, rank, c in layer:
            mode[i] = ("reach", rank)
            choice[i] = c
            top = rank
            grown = True
        fresh, ranks = [], []
        for j, atom in enumerate(objective.recurrence_terms):
            trap, rank = _avoid_trap(arena, degree, won, arena.atom_sets[atom])
            ranks.append(rank)
            for i, c in trap:
                mode[i] = ("avoid", j)
                choice[i] = c
                fresh.append(i)
                grown = True
        if not grown:
            return mode, choice, ranks
        layer = _target_attractor(arena, won, fresh, missing, top)


@dataclass
class CounterexampleGraph:
    """Closure of the target's positional strategy under all agent replies."""

    initial: tuple
    choice: dict
    edges: dict
    mode: dict


def extract_cex_graph(game: TurnGame, ts: Optional[TargetStrategyData]) -> CounterexampleGraph:
    """The target's strategy ``ts`` on ``game`` closed under the agent's
    replies, breadth first from the initial state.  Only the game's
    arrays are read, so ``game`` need not be an arena.  A missing
    strategy (a won game's ``target_strategy``) raises
    :class:`SolverError`."""
    if ts is None:
        raise SolverError("no target strategy to extract a counterexample from")
    choice, edges, mode = {}, {}, {}
    queue = deque([game.initial])
    seen = {game.initial}
    # every state reached lies in the target's region, where ``ts`` picks
    while queue:
        i = queue.popleft()
        s = game.states[i]
        c = ts.choice[i]
        choice[s] = None if c is None else game.labels[game.choice_label[c]]
        mode[s] = ts.mode[i]
        if mode[s] == ("unsafe",):
            # the safety violation already happened here; the play is
            # decided, so the node is a sink of the counterexample
            edges[s] = ()
            continue
        out = game.replies_of(c)
        edges[s] = tuple(game.states[r] for r in out)
        for r in out:
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return CounterexampleGraph(game.states[game.initial], choice, edges, mode)

