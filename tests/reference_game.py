"""The game as tuples, the reference for the flat game of ``surveil``.

``_explore`` builds a dict from each state to its ``(choice, reply
states)`` pairs, and ``make_arena`` sorts every state and re-indexes it
into lists of ``(choice, reply numbers)``.  ``surveil`` builds the same
game in one flat pass, numbering the states as it finds them; both must
give the same states, initial state, choices, replies and atom
valuations, up to that numbering, and so the same solutions.
"""

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from conftest import choices
from surveil.abstraction import abstract_successors, singletons
from surveil.belief import (
    BudgetExceeded,
    PredicateDef,
    atom_holds,
    belief_key,
    belief_successors,
)
from surveil.objective import Atom, Objective, SurvAtom
from surveil import solver
from surveil.solver import SolverError


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


def build_belief_game(G, max_states: int = 2_000_000) -> TurnGame:
    l_a0, l_t0 = G.initial
    initial = (l_a0, frozenset({l_t0}))
    return _explore(initial, lambda s: belief_successors(G, s), max_states)


def build_abstract_game(G, Q, max_states: int = 1_000_000) -> TurnGame:
    return _explore(G.initial, lambda s: abstract_successors(G, Q, s), max_states)


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
    return Arena(arena.states, index, moves, arena.initial, arena.atom_sets)


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
    return solver.Arena(
        list(arena.states if states is None else states),
        arena.initial,
        labels,
        array("i", accumulate(map(len, arena.moves), initial=0)),
        choice_label,
        choice_set,
        array("i", accumulate(widths, initial=0)),
        replies,
        arena.atom_sets,
    )


def tuple_moves(game) -> dict:
    """A flat game's moves as the reference keeps them: each state's
    ``(choice, reply states)`` pairs, keyed by state."""
    return {
        s: [(c, tuple(game.states[r] for r in replies)) for c, replies in choices(game, i)]
        for i, s in enumerate(game.states)
    }
