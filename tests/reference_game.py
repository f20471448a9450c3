"""The game as tuples, the reference for the flat game of ``surveil``.

``_explore`` builds a dict from each state to its ``(choice, reply
states)`` pairs, with the target's moves read off sets by
:func:`target_moves` rather than through the package's successor
kernel, and ``make_arena`` sorts every state and re-indexes it into
lists of ``(choice, reply numbers)``.  ``surveil`` builds the same game
in one flat pass, numbering the states as it finds them; both must
give the same states, initial state, choices, replies and atom
valuations, up to that numbering, and so the same solutions.
"""

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from conftest import alpha, choices, members
from surveil.abstraction import singletons
from surveil.belief import BudgetExceeded, PredicateDef, belief_key
from surveil.objective import Atom, Objective, SurvAtom
from surveil import solver
from surveil.solver import SolverError


def atom_holds(G, l_a: int, locs, atom, predicates) -> bool:
    """A spec atom on the agent cell ``l_a`` and a set of target cells, by
    its definition on sets: ``p<=k`` holds on at most ``k`` cells or when
    at most ``k`` of them are invisible from ``l_a``, and a task predicate
    must hold for every cell."""
    if isinstance(atom, SurvAtom):
        if atom.k < 1:
            raise ValueError("surveillance threshold k must be >= 1")
        return len(locs) <= atom.k or len(frozenset(locs) - G.visibility[l_a]) <= atom.k
    pred = predicates[atom.name]
    return all(pred.holds(l_a, l_t) for l_t in locs)


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


def target_moves(G, l_a: int, belief):
    """The target's moves from a set of cells while the agent stands on
    ``l_a``, on sets and by the structure's own ``target_step``,
    ``succ_a`` and ``visibility``: ``(visible, invisible)``, where
    ``visible`` lists ``(cell, replies)`` for each landing cell the agent
    sees, by cell, and ``invisible`` is the set of the unseen landing
    cells with the replies to the first invisible move in sorted-belief
    order, or None when there are none."""
    seen = G.visibility[l_a]
    landing, first = set(), None
    for l_t in sorted(belief):
        for l_t2 in G.target_step(l_a, l_t):
            landing.add(l_t2)
            if first is None and l_t2 not in seen:
                first = l_t2
    visible = [(l_t2, G.succ_a(l_a, l_t2)) for l_t2 in sorted(landing & seen)]
    if first is None:
        return visible, None
    return visible, (frozenset(landing - seen), G.succ_a(l_a, first))


def build_belief_game(G, max_states: int = 2_000_000) -> TurnGame:
    def successors(state):
        l_a, belief = state
        visible, invisible = target_moves(G, l_a, belief)
        out = [(frozenset({l_t2}), replies) for l_t2, replies in visible]
        return out if invisible is None else out + [invisible]

    l_a0, l_t0 = G.initial
    return _explore((l_a0, frozenset({l_t0})), successors, max_states)


def build_abstract_game(G, Q, max_states: int = 1_000_000) -> TurnGame:
    """The abstract game: each label concretized through ``Q.gamma``, and
    the invisible moves abstracted with ``conftest.alpha``."""
    def successors(state):
        l_a, label = state
        visible, invisible = target_moves(G, l_a, Q.gamma(label))
        if invisible is None:
            return visible
        unseen, replies = invisible
        return visible + [(alpha(Q, unseen), replies)]

    return _explore(G.initial, successors, max_states)


@dataclass
class Arena:
    """Indexed turn game plus atom valuations.

    ``moves[i]`` lists ``(choice, reply_indices)`` in canonical choice
    order; ``atom_sets`` maps each objective atom to the set of state
    indices satisfying it.
    """

    states: list
    index: dict
    moves: list
    initial: int
    atom_sets: dict[Atom, frozenset[int]]

    def __len__(self) -> int:
        return len(self.states)

    def sat(self, atom: Atom, i: int) -> bool:
        return i in self.atom_sets[atom]


def make_arena(
    game: TurnGame,
    structure,
    objective: Objective,
    predicates: Optional[dict[str, PredicateDef]] = None,
    partition=None,
) -> Arena:
    """Index a belief or abstract game and evaluate the objective's atoms.

    Raises :class:`SolverError` for an undeclared task predicate and for
    a target choice without any agent reply, which a game structure that
    is not total produces.  Without a ``partition`` the labels are read
    as cells, under :func:`~surveil.abstraction.singletons`.
    """
    predicates = predicates or {}
    if partition is None:
        partition = singletons(structure)
    states = game.states
    index = {s: i for i, s in enumerate(states)}
    moves = []
    for s in states:
        out = sorted(game.moves[s], key=lambda cr: belief_key(cr[0]))
        for c, replies in out:
            if not replies:
                raise SolverError(
                    f"choice {c!r} of state {s!r} has no agent reply: "
                    "the game structure is not total"
                )
        moves.append(
            [(c, tuple(index[r] for r in replies)) for c, replies in out]
        )
    atom_sets = {}
    for atom in objective.atoms:
        if not isinstance(atom, SurvAtom) and atom.name not in predicates:
            raise SolverError(f"undeclared task predicate {atom.name!r}")
        atom_sets[atom] = frozenset(
            i
            for i, (l_a, label) in enumerate(states)
            if atom_holds(
                structure, l_a, partition.gamma(label), atom, predicates
            )
        )
    return Arena(states, index, moves, index[game.initial], atom_sets)


def from_flat(arena) -> Arena:
    """The reference arena with the states, choices, replies and atom
    valuations of a flat arena."""
    moves = [
        [(c, tuple(replies)) for c, replies in choices(arena, i)]
        for i in range(len(arena))
    ]
    index = {s: i for i, s in enumerate(arena.states)}
    atom_sets = {atom: members(mask) for atom, mask in arena.atom_sets.items()}
    return Arena(arena.states, index, moves, arena.initial, atom_sets)


def _group(keys, n: int, values) -> list:
    """``values`` grouped by their ``keys``, which lie in ``range(n)``:
    row ``k`` lists, in their order, the values whose key is ``k``."""
    rows = [[] for _ in range(n)]
    for k, v in zip(keys, values):
        rows[k].append(v)
    return rows


def reverse_tables(game) -> tuple[list, list]:
    """A flat game's ``owners`` and ``holders``, regrouped from its
    forward arrays: each set's owner states in choice order, and each
    state's holding sets, once per occurrence, in set order."""
    n, n_sets = len(game.states), len(game.reply_off) - 1
    off, reply_off = game.choice_off, game.reply_off
    owner = [i for i in range(n) for _ in range(off[i], off[i + 1])]
    holder = [k for k in range(n_sets) for _ in range(reply_off[k], reply_off[k + 1])]
    return _group(game.choice_set, n_sets, owner), _group(game.replies, n, holder)


def flat_arena(
    states, initial, labels, choice_off, choice_label, choice_set, reply_off, replies, atom_sets
) -> solver.Arena:
    """A hand-built flat arena, with the reverse tables that exploration
    records in a built one regrouped from its forward arrays."""
    arena = solver.Arena(
        states, initial, labels, choice_off, choice_label, choice_set, reply_off, replies,
        None, None, atom_sets,
    )
    arena.owners, arena.holders = reverse_tables(arena)
    return arena


def to_flat(arena, states=None) -> solver.Arena:
    """The flat arena with the choices, replies and atom valuations of a
    reference arena, and its states or ``states``.  Choices with the
    same label and equal replies share a reply set, as in the flat game
    that ``surveil`` builds."""
    labels = sorted({c for out in arena.moves for c, _ in out}, key=belief_key)
    label_id = {c: k for k, c in enumerate(labels)}
    set_id = {}
    choice_label, choice_set, widths, replies = (array("i") for _ in range(4))
    for c, r in (cr for out in arena.moves for cr in out):
        key = (label_id[c], tuple(r))
        s = set_id.get(key)
        if s is None:
            s = set_id[key] = len(set_id)
            widths.append(len(r))
            replies.extend(r)
        choice_label.append(key[0])
        choice_set.append(s)
    n = len(arena)
    return flat_arena(
        list(arena.states if states is None else states),
        arena.initial,
        labels,
        array("i", accumulate(map(len, arena.moves), initial=0)),
        choice_label,
        choice_set,
        array("i", accumulate(widths, initial=0)),
        replies,
        {a: bytearray(i in s for i in range(n)) for a, s in arena.atom_sets.items()},
    )


def tuple_moves(game) -> dict:
    """A flat game's moves as the reference keeps them: each state's
    ``(choice, reply states)`` pairs, keyed by state."""
    return {
        s: [(c, tuple(game.states[r] for r in replies)) for c, replies in choices(game, i)]
        for i, s in enumerate(game.states)
    }
