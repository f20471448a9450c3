from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import reference_game
from conftest import atom_holds
from reference_game import tuple_moves
from surveil import (
    BudgetExceeded,
    PredicateDef,
    PredicateError,
    SurvAtom,
    TaskAtom,
    belief_successors,
    build_abstract_game,
    build_belief_game,
    build_game_structure,
    check_observable,
    invisible_count,
    parse_config,
    parse_grid,
    predicates_from_grid,
    singletons,
)
from surveil.belief import atom_test
from surveil.cli import bundled_map
from surveil.structure import cell_mask


def oracle_belief_transitions(G, state):
    """Belief transitions re-derived from the definition, independently of
    belief_successors: replies are unioned over all generating pairs
    (l_t in B, l_t' in B')."""
    l_a, B = state
    succ_all = set()
    for l_t in B:
        succ_all.update(G.target_step(l_a, l_t))
    out = {}
    for l_t2 in succ_all:
        if G.vis(l_a, l_t2):
            B2 = frozenset({l_t2})
        else:
            B2 = frozenset(l for l in succ_all if not G.vis(l_a, l))
        replies = set()
        for l_t in B:
            for l in B2:
                if l in G.target_step(l_a, l_t):
                    replies.update(G.succ_a(l_a, l))
        out[B2] = frozenset(replies)
    return out


def oracle_belief_reach(G, max_states=100_000):
    """Independent BFS enumeration of the reachable belief states."""
    l_a0, l_t0 = G.initial
    init = (l_a0, frozenset({l_t0}))
    seen = {init}
    queue = deque([init])
    while queue:
        l_a, B = queue.popleft()
        for B2, replies in oracle_belief_transitions(G, (l_a, B)).items():
            for l_a2 in replies:
                s = (l_a2, B2)
                if s not in seen:
                    assert len(seen) < max_states
                    seen.add(s)
                    queue.append(s)
    return seen


def test_belief_successors_from_initial(game5):
    """Hand-derived successor states of (4, {18}): visible singleton {19}
    and the invisible pair {17, 23}, with agent replies 3 and 9."""
    succs = belief_successors(game5, (4, frozenset({18})))
    states = {
        (l_a2, B2) for B2, replies in succs for l_a2 in replies
    }
    assert states == {
        (3, frozenset({19})),
        (9, frozenset({19})),
        (3, frozenset({17, 23})),
        (9, frozenset({17, 23})),
    }


def test_belief_successors_match_oracle(game5):
    """belief_successors agrees with the from-the-definition oracle on
    every reachable belief state."""
    for state in sorted(oracle_belief_reach(game5), key=str):
        got = {
            B2: frozenset(replies)
            for B2, replies in belief_successors(game5, state)
        }
        assert got == oracle_belief_transitions(game5, state), state


def test_belief_game_states_match_oracle(game5):
    """The exact game is the abstract game under the singletons partition;
    with its labels read as location sets, its states are the oracle's."""
    Q = singletons(game5)
    game = build_abstract_game(game5, Q)
    assert {(l_a, Q.gamma(b)) for l_a, b in game.states} == oracle_belief_reach(game5)


def test_belief_game_state_count_regression(game5):
    """Sizes pinned for regression: a location the agent sees (label
    ``c``) and the same location left as a one-cell unseen belief (label
    ``{c}``) are two states of the exact game, one of the oracle."""
    Q = singletons(game5)
    game = build_abstract_game(game5, Q)
    assert len(game) == 473
    assert len({(l_a, Q.gamma(b)) for l_a, b in game.states}) == 444


def test_build_belief_game_is_the_singletons_game(game5):
    """The name the benchmark builds its oracle by."""
    game, want = build_belief_game(game5), build_abstract_game(game5, singletons(game5))
    assert game.states == want.states and tuple_moves(game) == tuple_moves(want)


def test_belief_shape_invariant(game5):
    """A block-set move's cells were all invisible from the agent
    location it was made at; a location the agent sees is an int."""
    game = build_abstract_game(game5, singletons(game5))
    moves = tuple_moves(game)
    for l_a, B in game.states:
        assert B or isinstance(B, int)
        for choice, _ in moves[(l_a, B)]:
            if isinstance(choice, int):
                assert game5.vis(l_a, choice)
            else:
                assert all(not game5.vis(l_a, l) for l in choice)


def test_budget_exceeded(game5):
    with pytest.raises(BudgetExceeded):
        build_abstract_game(game5, singletons(game5), max_states=10)


def test_budget_counts_states_exactly(game5):
    Q = singletons(game5)
    assert len(build_abstract_game(game5, Q, max_states=473)) == 473
    with pytest.raises(BudgetExceeded, match="state budget of 472 exceeded"):
        build_abstract_game(game5, Q, max_states=472)


def test_surveillance_predicate(game5):
    assert atom_holds(game5, 4, frozenset({19}), SurvAtom(1), {})
    assert not atom_holds(game5, 4, frozenset({17, 23}), SurvAtom(1), {})
    assert atom_holds(game5, 4, frozenset({17, 23}), SurvAtom(2), {})
    with pytest.raises(ValueError):
        atom_holds(game5, 4, frozenset({19}), SurvAtom(0), {})


@pytest.fixture(scope="module")
def structures(game5):
    grid = parse_grid(bundled_map("bigroom.txt"))
    return [game5, build_game_structure(grid, *parse_config(bundled_map("bigroom.cfg")))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_evaluator_matches_the_set_definition(structures, data):
    """``atom_test`` on a cell mask agrees with the definition on sets
    for ``p<=1..4`` and for a target-kind and an agent-kind predicate, on
    any belief, the empty one included."""
    G = data.draw(st.sampled_from(structures))
    l_a = data.draw(st.sampled_from(sorted(G.agent_locations)))
    cells = st.sampled_from(sorted(G.target_locations))
    belief = data.draw(st.frozensets(cells))
    predicates = {
        "zone": PredicateDef("zone", data.draw(st.frozensets(cells)), on_target=True),
        "goal": PredicateDef("goal", data.draw(st.frozensets(cells))),
    }
    for atom in [SurvAtom(k) for k in range(1, 5)] + [TaskAtom("zone"), TaskAtom("goal")]:
        want = reference_game.atom_holds(G, l_a, belief, atom, predicates)
        assert atom_test(G, atom, predicates)(l_a, cell_mask(belief)) == want, atom


@pytest.mark.parametrize("k", [0, -1])
def test_mask_evaluator_refuses_a_threshold_below_one(game5, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        atom_test(game5, SurvAtom(k), {})


def test_invisible_count(game5):
    assert invisible_count(game5, 4, {17, 19, 23}) == 2


def test_task_predicate_universal_over_belief(game5):
    preds = {
        "goal": PredicateDef("goal", frozenset({0})),
        "zone": PredicateDef("zone", frozenset({17}), on_target=True),
    }
    goal, zone = TaskAtom("goal"), TaskAtom("zone")
    assert atom_holds(game5, 0, frozenset({17, 23}), goal, preds)
    assert not atom_holds(game5, 3, frozenset({17, 23}), goal, preds)
    assert not atom_holds(game5, 0, frozenset({17, 23}), zone, preds)
    assert atom_holds(game5, 0, frozenset({17}), zone, preds)


def test_concretize_with_partition(game5, two_col_partition):
    # a seen location is itself; under the singletons partition the block
    # ids are the cells
    Q = singletons(game5)
    assert Q.gamma(17) == two_col_partition.gamma(17) == {17}
    assert Q.gamma(frozenset({17, 23})) == {17, 23}
    assert two_col_partition.gamma(frozenset({0})) == two_col_partition.blocks[0]


def test_predicates_from_grid():
    from surveil import parse_grid

    g = parse_grid("A.g\n.G.\ng.T\n")
    preds = predicates_from_grid(g)
    assert preds["goal"].cells == {4}
    assert preds["g"].cells == {2, 6}
    assert not preds["g"].on_target


def test_unobservable_target_predicate_rejected(game5):
    # 17 and 23 are both invisible from 4 but disagree on membership
    bad = PredicateDef("zone", frozenset({17}), on_target=True)
    with pytest.raises(PredicateError):
        check_observable(game5, bad)


def test_agent_predicate_always_observable(game5):
    check_observable(game5, PredicateDef("goal", frozenset({17})))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from(sorted(range(25))), min_size=1, max_size=5))
def test_belief_successor_shapes(game5, cells):
    belief = frozenset(c for c in cells if c in game5.target_locations)
    if not belief:
        return
    for l_a in (0, 4, 19):
        for B2, replies in belief_successors(game5, (l_a, belief)):
            assert replies
            if len(B2) == 1:
                (l,) = B2
            else:
                assert all(not game5.vis(l_a, l) for l in B2)
