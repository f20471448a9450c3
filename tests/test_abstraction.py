import pytest
from hypothesis import given, settings, strategies as st

from conftest import abstract_choices, alpha, refines
from reference_game import reverse_tables, tuple_moves
from surveil import (
    Partition,
    PartitionError,
    PredicateDef,
    abstract_successors,
    build_abstract_game,
    build_game_structure,
    cegar_loop,
    initial_partition,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    singletons,
)
from surveil.cli import bundled_map
from surveil.structure import SurveillanceGameStructure, cell_mask


def check_uniform(partition, predicates):
    """Every target-kind predicate must be constant on each block."""
    for pred in predicates:
        if not pred.on_target:
            continue
        for bid, cells in partition.blocks.items():
            vals = {c in pred.cells for c in cells}
            if len(vals) > 1:
                raise PartitionError(
                    f"predicate {pred.name!r} is not uniform on block {bid}"
                )


def test_partition_validation(game5):
    universe = frozenset(game5.target_locations)
    with pytest.raises(PartitionError):
        Partition({0: frozenset()}, universe)
    with pytest.raises(PartitionError):
        Partition({0: universe, 1: frozenset({0})}, universe)  # overlap
    with pytest.raises(PartitionError):
        Partition({0: universe - {0}}, universe)  # not covering


def test_alpha_gamma(rows_partition):
    assert alpha(rows_partition, {17}) == {3}
    assert alpha(rows_partition, {23}) == {4}
    got = rows_partition.gamma(alpha(rows_partition, {17, 23}))
    assert got == {15, 16, 17, 18, 19, 20, 21, 22, 23, 24}
    assert rows_partition.gamma(17) == {17}


def test_abstract_successors_from_initial(game5, rows_partition):
    """The four abstract successor states of (4, 18) under the row
    partition: visible 19 and the block pair for rows 4 and 5."""
    blocks = alpha(rows_partition, {17, 23})
    seen, unseen, _ = abstract_successors(game5, rows_partition, game5.initial)
    assert (seen, unseen) == (1 << 19, cell_mask({17, 23}))
    succs = abstract_choices(game5, rows_partition, game5.initial)
    states = {(l_a2, A) for A, replies in succs for l_a2 in replies}
    assert states == {(3, 19), (9, 19), (3, blocks), (9, blocks)}


def test_split_retires_ids(rows_partition):
    scope = rows_partition.blocks[3]
    refined = rows_partition.split(cell_mask(scope), 1 << 17)
    assert 3 not in refined.blocks
    assert frozenset({17}) in refined.blocks.values()
    assert scope - {17} in refined.blocks.values()
    assert refines(refined, rows_partition)


def test_split_noop_returns_self(rows_partition):
    assert rows_partition.split(rows_partition.masks[0], 0) is rows_partition


def test_meet(game5, rows_partition, two_col_partition):
    m = rows_partition.meet(two_col_partition)
    assert refines(m, rows_partition)
    assert refines(m, two_col_partition)
    # the meet is the coarsest such partition: block count of the product
    expected = {
        r & c
        for r in rows_partition.blocks.values()
        for c in two_col_partition.blocks.values()
        if r & c
    }
    assert set(m.blocks.values()) == expected


def test_refines_is_a_preorder(rows_partition, two_col_partition):
    assert refines(rows_partition, rows_partition)
    assert not refines(rows_partition, two_col_partition)
    assert not refines(two_col_partition, rows_partition)


def test_initial_partition_trivial(game5):
    q = initial_partition(game5)
    assert len(q) == 1
    assert q.gamma(alpha(q, {17})) == game5.target_locations


def test_initial_partition_predicate_uniform(game5):
    zone = PredicateDef("zone", frozenset({17, 23}), on_target=True)
    q = initial_partition(game5, [zone])
    assert len(q) == 2
    check_uniform(q, [zone])
    assert frozenset({17, 23}) in q.blocks.values()


def test_check_uniform_rejects(game5, rows_partition):
    zone = PredicateDef("zone", frozenset({17}), on_target=True)
    with pytest.raises(PartitionError):
        check_uniform(rows_partition, [zone])


def test_abstract_game_overapproximates(game5, rows_partition):
    """Joint BFS: every reachable exact belief is gamma-contained in a
    reachable abstract belief with the same agent location."""
    Q = singletons(game5)
    exact = build_abstract_game(game5, Q)
    abstract = build_abstract_game(game5, rows_partition)
    # pair exact and abstract states along matched transitions
    seen = set()
    init_e = exact.states[exact.initial]
    init_a = abstract.states[abstract.initial]
    exact_moves, abstract_moves = tuple_moves(exact), tuple_moves(abstract)
    queue = [(init_e, init_a)]
    seen.add((init_e, init_a))
    while queue:
        (l_a, B), (l_a2, A) = queue.pop(0)
        assert l_a == l_a2
        gamma = rows_partition.gamma(A)
        assert Q.gamma(B) <= gamma, ((l_a, B), (l_a2, A))
        amoves = dict(abstract_moves[(l_a2, A)])
        for B2, replies in exact_moves[(l_a, B)]:
            if isinstance(B2, int):
                key = B2
            else:
                key = next(k for k in amoves if not isinstance(k, int))
            for r in replies:
                pair = (r, (r[0], key))
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)


def test_singletons_labels_are_beliefs(game5):
    """One block per target location, whose id is the location, so a
    block-set label concretizes to itself."""
    Q = singletons(game5)
    assert Q.blocks == {c: frozenset({c}) for c in game5.target_locations}
    assert refines(Q, initial_partition(game5))
    assert alpha(Q, {17, 23}) == {17, 23} == Q.gamma(frozenset({17, 23}))
    assert Q.split(-1, 1 << 17) is Q


def test_abstract_game_smaller_than_exact(game5, two_col_partition):
    exact = build_abstract_game(game5, singletons(game5))
    abstract = build_abstract_game(game5, two_col_partition)
    assert len(abstract) < len(exact)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 24), min_size=1))
def test_gamma_alpha_overapproximates(game5, rows_partition, cells):
    locs = frozenset(cells) & game5.target_locations
    if not locs:
        return
    assert locs <= rows_partition.gamma(alpha(rows_partition, locs))


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(0, 24), min_size=1),
    st.sets(st.integers(0, 24), min_size=1),
)
def test_refinement_monotonicity(game5, rows_partition, cells, sep):
    """A split never coarsens: gamma after refinement is contained in
    gamma before, for every abstract belief over surviving blocks."""
    locs = frozenset(cells) & game5.target_locations
    separator = frozenset(sep) & game5.target_locations
    if not locs or not separator:
        return
    refined = rows_partition.split(-1, cell_mask(separator))
    assert refines(refined, rows_partition)
    before = rows_partition.gamma(alpha(rows_partition, locs))
    after = refined.gamma(alpha(refined, locs))
    assert locs <= after <= before


def assert_recorded_tables(game):
    """The reverse tables that exploration records are the ones regrouped
    from the game's forward arrays."""
    owners, holders = reverse_tables(game)
    assert game.owners == owners
    assert game.holders == holders


def test_recorded_tables_match_regrouping_on_paper5x5(game5):
    initial = initial_partition(game5)
    refined = cegar_loop(game5, parse_spec("GF p<=2")).final_partition
    assert len(refined) > len(initial)
    for Q in (initial, refined, singletons(game5)):
        assert_recorded_tables(build_abstract_game(game5, Q))
    # a game built for a safety term has states without choices
    game = build_abstract_game(game5, singletons(game5), safety=parse_spec("G p<=2").safety_terms)
    assert any(not out for out in tuple_moves(game).values())
    assert_recorded_tables(game)


def test_recorded_tables_match_regrouping_on_bigroom():
    grid = parse_grid(bundled_map("bigroom.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map("bigroom.cfg")))
    Q = initial_partition(G, predicates_from_grid(grid).values())
    assert_recorded_tables(build_abstract_game(G, Q))


def test_recorded_tables_count_a_repeated_reply_per_occurrence():
    """The agent on cell 0 sees nothing and its ball lists cell 1 twice,
    so the target's hidden move from {5} to {6} gets one set that holds
    state 1 twice.  States 0 and 2 both make that move, the second
    through the agent cell's row: the set lists each owner once per
    choice, and state 1 lists the set once per occurrence."""
    G = SurveillanceGameStructure(
        initial=(0, 5),
        target_succ={5: (6,), 6: (5,)},
        agent_succ={0: (1, 1), 1: (0,)},
        visibility={0: frozenset(), 1: frozenset()},
    )
    game = build_abstract_game(G, singletons(G))
    assert game.states == [(0, 5), (1, frozenset({6})), (0, frozenset({5}))]
    assert list(game.choice_set) == [0, 1, 0]
    assert list(game.replies) == [1, 1, 2]
    assert game.owners == [[0, 2], [1]]
    assert game.holders == [[], [0, 0], [1]]
    assert_recorded_tables(game)
