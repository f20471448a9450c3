"""The flat game against the game as tuples (``tests/reference_game.py``).

Both must give the same states, initial state, choices, replies and atom
valuations, up to the numbering of the states, the same errors, and so
the same solutions: for abstract games under initial and refined
partitions, and under the singletons partition, which gives the exact
belief game.  That game is also checked against the reference's own
exact belief game, whose labels are location sets, through the quotient
that merges a location seen and the same location left as a one-cell
unseen belief.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import reference_game
import reference_solver
from conftest import TWO_COLUMNS, choice_labels, choices, members, random_problems
from surveil import (
    BudgetExceeded,
    PredicateDef,
    SolverError,
    SurveillanceGameStructure,
    VisionConfig,
    abstract_successors,
    build_abstract_game,
    build_game_structure,
    cegar_loop,
    initial_partition,
    make_arena,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    singletons,
    solve,
)
from surveil.cli import bundled_map
from surveil.structure import cell_mask

SPECS = ("G p<=1", "G p<=2", "GF p<=1", "G p<=3 & GF p<=1", "GF p<=2 & GF goal")


def _outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the type and message of the game error
    it raised."""
    try:
        return fn(*args, **kwargs)
    except (BudgetExceeded, SolverError) as exc:
        return type(exc), str(exc)


def assert_same_game(G, build, ref_build, objectives, predicates, partition=None):
    """Build the game both ways; then for every objective require the
    same arena (or the same error) and the same solution.  The flat game
    numbers its states as they are found, the reference in canonical
    order, so state numbers are compared through :func:`renumbering`."""
    game = _outcome(build)
    ref_game = _outcome(ref_build)
    if isinstance(ref_game, tuple):
        assert game == ref_game
        return
    assert len(game) == len(ref_game)
    assert (game.owners, game.holders) == reference_game.reverse_tables(game)
    for objective in objectives:
        arena = _outcome(make_arena, game, G, objective, predicates, partition)
        ref = _outcome(reference_game.make_arena, ref_game, G, objective, predicates, partition)
        if isinstance(ref, tuple):
            assert arena == ref
            continue
        to_ref = renumbering(arena, ref)
        assert [ref.states[k] for k in to_ref] == arena.states
        assert to_ref[arena.initial] == ref.initial
        for i in range(len(arena)):
            assert [
                (c, tuple(to_ref[r] for r in replies)) for c, replies in choices(arena, i)
            ] == ref.moves[to_ref[i]]
        assert {
            atom: frozenset(to_ref[i] for i in members(mask))
            for atom, mask in arena.atom_sets.items()
        } == ref.atom_sets
        assert_same_solution(arena, ref, objective, to_ref)


def renumbering(arena, ref) -> list:
    """Each arena state's number in the reference arena ``ref``: a
    bijection onto ``range(len(ref))``."""
    to_ref = [ref.index[s] for s in arena.states]
    assert sorted(to_ref) == list(range(len(ref)))
    return to_ref


def assert_same_solution(arena, ref, objective, to_ref):
    """The same solution of ``arena`` and ``ref``, with the arena's state
    numbers translated through ``to_ref``."""
    got = _outcome(solve, arena, objective)
    want = _outcome(reference_solver.solve, ref, objective)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert isinstance(got, tuple) and isinstance(want, tuple)
        return
    assert got.agent_wins == want.agent_wins
    assert {to_ref[i] for i in members(got.winning_region)} == want.winning_region
    if want.agent_wins:
        assert got.agent_strategy.memory_count == want.agent_strategy.memory_count
        assert {
            (to_ref[i], mem, c): (to_ref[r], mem2)
            for (i, mem, c), (r, mem2) in got.agent_strategy.moves.items()
        } == reference_solver.reachable_moves(want.agent_strategy, ref.initial)
    else:
        target = got.target_strategy
        assert {
            to_ref[i]: c for i, c in choice_labels(arena, target).items()
        } == want.target_strategy.choice
        assert {to_ref[i]: m for i, m in target.mode.items()} == want.target_strategy.mode


def assert_same_games(G, partitions, objectives, predicates, exact_states):
    """The abstract game under each partition, and under
    :func:`singletons`, the exact game, built up to ``exact_states``
    states."""
    budgets = [(singletons(G), exact_states)] + [(Q, 1_000_000) for Q in partitions]
    for Q, budget in budgets:
        assert_same_game(
            G,
            lambda: build_abstract_game(G, Q, budget),
            lambda: reference_game.build_abstract_game(G, Q, budget),
            objectives,
            predicates,
            Q,
        )


def quotient(state):
    """An exact game state as the reference's exact belief game keeps it:
    the agent's cell and the belief as a set of locations.  A location
    the agent sees and the same location left as a one-cell unseen
    belief become one state."""
    l_a, label = state
    return l_a, frozenset({label}) if isinstance(label, int) else label


def assert_quotient_is_reference(G, objectives, predicates, max_states):
    """The exact game, the abstract game under :func:`singletons`, against
    ``reference_game.build_belief_game``: the quotient of its states is
    the reference's states, each state's choices concretized are the
    choices of its quotient, and every objective's winning region is the
    reference's under the quotient.  Skipped when the reference game does
    not fit in ``max_states``; the exact game has at most two states per
    reference state."""
    ref = _outcome(reference_game.build_belief_game, G, max_states)
    if isinstance(ref, tuple):
        return
    Q = singletons(G)
    game = build_abstract_game(G, Q, 2 * max_states)
    assert {quotient(s) for s in game.states} == set(ref.moves)
    assert quotient(game.states[game.initial]) == ref.initial
    for i, s in enumerate(game.states):
        got = {
            Q.gamma(c): tuple(quotient(game.states[r]) for r in replies)
            for c, replies in choices(game, i)
        }
        assert got == dict(ref.moves[quotient(s)]), s
    for objective in objectives:
        arena = _outcome(make_arena, game, G, objective, predicates, Q)
        ref_arena = _outcome(reference_game.make_arena, ref, G, objective, predicates)
        if isinstance(ref_arena, tuple):
            # the error names the label in each game's own form
            assert isinstance(arena, tuple) and arena[0] == ref_arena[0]
            continue
        got = _outcome(solve, arena, objective)
        want = _outcome(reference_solver.solve, ref_arena, objective)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert isinstance(got, tuple) and isinstance(want, tuple)
            continue
        assert got.agent_wins == want.agent_wins
        assert {
            i for i, s in enumerate(arena.states)
            if ref_arena.index[quotient(s)] in want.winning_region
        } == members(got.winning_region)


def test_exact_game_quotient_is_reference_on_paper5x5(game5, goal_pred):
    objectives = [parse_spec(s) for s in SPECS]
    assert_quotient_is_reference(game5, objectives, goal_pred, 10_000)


@settings(max_examples=100, deadline=None)
@given(random_problems(), st.data())
def test_exact_game_quotient_is_reference_on_random_problems(problem, data):
    G = build_game_structure(*problem)
    goal = data.draw(st.frozensets(st.sampled_from(sorted(G.agent_locations)), min_size=1))
    predicates = {"goal": PredicateDef("goal", goal)}
    objectives = [parse_spec(s) for s in data.draw(st.lists(st.sampled_from(SPECS), min_size=1, max_size=3))]
    assert_quotient_is_reference(G, objectives, predicates, 1_000)


@st.composite
def broken(draw, G):
    """``G``, or ``G`` with one agent or target move set emptied, so that
    the game is not total."""
    kind = draw(st.sampled_from(["total", "agent", "target"]))
    if kind == "total":
        return G
    agent_succ, target_succ = dict(G.agent_succ), dict(G.target_succ)
    if kind == "agent":
        agent_succ[draw(st.sampled_from(sorted(agent_succ)))] = ()
    else:
        target_succ[draw(st.sampled_from(sorted(target_succ)))] = ()
    return SurveillanceGameStructure(G.initial, target_succ, agent_succ, G.visibility)


@settings(max_examples=100, deadline=None)
@given(random_problems(), st.data())
def test_flat_game_matches_reference_on_random_problems(problem, data):
    G = data.draw(broken(build_game_structure(*problem)))
    cells = sorted(G.target_locations)
    goal = data.draw(st.frozensets(st.sampled_from(sorted(G.agent_locations)), min_size=1))
    predicates = {"goal": PredicateDef("goal", goal)}
    Q = initial_partition(G, predicates.values())
    masks = st.frozensets(st.sampled_from(cells)).map(cell_mask)
    refined = Q.split(-1, data.draw(masks))
    refined = refined.split(data.draw(masks), data.draw(masks))
    objectives = [parse_spec(s) for s in data.draw(st.lists(st.sampled_from(SPECS), min_size=1, max_size=3))]
    assert_same_games(G, [Q, refined], objectives, predicates, exact_states=1_000)


def test_no_agent_reply_error_still_fires():
    """The agent on cell 0 has no move: both builds refuse the arena with
    the same state and choice named."""
    G = SurveillanceGameStructure(
        initial=(0, 1),
        target_succ={1: (2,), 2: (1,)},
        agent_succ={0: ()},
        visibility={0: frozenset({1, 2})},
    )
    objective = parse_spec("G p<=1")
    msg = "choice 2 of state (0, 1) has no agent reply"
    with pytest.raises(SolverError, match=re.escape(msg)):
        make_arena(build_abstract_game(G, initial_partition(G)), G, objective)
    assert_same_games(G, [initial_partition(G)], [objective], {}, exact_states=100)


# a refining spec per map, cheap enough to run to its verdict, and the
# map's own specs to compare solutions on
BUNDLED = {
    "paper5x5": ("G p<=3", ("G p<=3", "GF p<=1", "G p<=5 & GF p<=2", "GF p<=1 & GF goal")),
    "bigroom": ("G p<=2", ("G p<=2", "GF p<=10 & GF goal")),
    "liveness10x15": ("G p<=3", ("G p<=3", "G p<=126")),
}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_flat_game_matches_reference_on_bundled_maps(name):
    grid = parse_grid(bundled_map(f"{name}.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map(f"{name}.cfg")))
    predicates = predicates_from_grid(grid)
    predicates.setdefault("goal", PredicateDef("goal", frozenset({0})))
    refining, specs = BUNDLED[name]
    Q = initial_partition(G, predicates.values())
    refined = cegar_loop(G, parse_spec(refining), predicates=predicates).final_partition
    assert len(refined) > len(Q)
    # the exact game fits on paper5x5 only; elsewhere both builds stop at
    # the same budget
    assert_same_games(G, [Q, refined], [parse_spec(s) for s in specs], predicates, 5_000)


def test_flat_game_matches_reference_where_unseen_cells_meet_the_ball():
    """On paper5x5 with a vision range of 0.5 the agent sees only its own
    cell.  The target then lands unseen inside the agent's ball from some
    states, where the hidden move's replies are those to its
    representative move, and only outside it from others, where they are
    the whole ball that the agent cell's row keeps.  No bundled map
    reaches the first case."""
    grid = parse_grid(bundled_map("paper5x5.txt"))
    motion, _ = parse_config(bundled_map("paper5x5.cfg"))
    G = build_game_structure(grid, motion, VisionConfig(range=0.5))
    predicates = {"goal": PredicateDef("goal", frozenset({0}))}
    Q = initial_partition(G, predicates.values())
    columns = Q.split(-1, cell_mask(TWO_COLUMNS[0]))
    for partition in (Q, columns, singletons(G)):
        meets = set()
        for state in build_abstract_game(G, partition).states:
            _, unseen, _ = abstract_successors(G, partition, state)
            if unseen:
                meets.add(bool(unseen & G.masks.ball[state[0]]))
        assert meets == {False, True}
    objectives = [parse_spec(s) for s in SPECS]
    assert_same_games(G, [Q, columns], objectives, predicates, exact_states=1_000)


def _reply_sets(game):
    """Each reply set of a flat game as ``(label, members)``, with the
    labels of the choices that use it; every set must have one."""
    labels = [set() for _ in range(len(game.reply_off) - 1)]
    for c, k in enumerate(game.choice_set):
        labels[k].add(game.choice_label[c])
    assert all(len(used) == 1 for used in labels), "a set unused or under two labels"
    off, replies = game.reply_off, game.replies
    return [(used.pop(), tuple(replies[off[k] : off[k + 1]])) for k, used in enumerate(labels)]


@pytest.mark.parametrize(
    "name, refining", [("paper5x5", None), ("paper5x5", "G p<=3"), ("bigroom", None)]
)
def test_abstract_game_stores_each_reply_set_once(name, refining):
    """Choices with the same label and agent cells share one reply set:
    no set is unused or stored twice, the choices read through their
    sets are the reference game's, and the sets hold fewer members than
    the choices have replies."""
    grid = parse_grid(bundled_map(f"{name}.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map(f"{name}.cfg")))
    predicates = predicates_from_grid(grid)
    Q = initial_partition(G, predicates.values())
    if refining:
        Q = cegar_loop(G, parse_spec(refining), predicates=predicates).final_partition
    game = build_abstract_game(G, Q)
    sets = _reply_sets(game)
    assert len(set(sets)) == len(sets)
    assert reference_game.tuple_moves(game) == reference_game.build_abstract_game(G, Q).moves
    expanded = sum(len(game.replies_of(c)) for c in range(len(game.choice_set)))
    assert len(game.replies) < expanded
