import json
import random
import re
from array import array
from itertools import accumulate

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_export
import reference_game
import reference_solver
from conftest import choice_labels, choices, members
import surveil.cegar
import surveil.solver
from surveil import (
    Partition,
    SimulationError,
    SolverError,
    SurveillanceGameStructure,
    build_abstract_game,
    build_analysis_graph,
    build_game_structure,
    cegar_loop,
    export_strategy,
    extract_cex_graph,
    make_arena,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    singletons,
    solve,
    validate_assumptions,
)
from surveil.belief import label_json
from surveil.cegar import counterexample_tree
from surveil.cli import bundled_map
from surveil.objective import Objective, TaskAtom
from surveil.solver import StrategyData


def _tree_nodes(tree):
    """The nodes of a counterexample tree, depth first in child order."""
    stack = [tree.root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def _product_graph(arena, strat):
    """Graph of (state, memory) nodes reachable under the agent strategy,
    branching over every target choice."""
    g = nx.DiGraph()
    start = (arena.initial, 0)
    queue = [start]
    g.add_node(start)
    while queue:
        i, mem = queue.pop(0)
        for c, _ in choices(arena, i):
            reply, mem2 = strat.moves[(i, mem, c)]
            nxt = (reply, mem2)
            if nxt not in g:
                g.add_node(nxt)
                queue.append(nxt)
            g.add_edge((i, mem), nxt)
    return g


def verify_agent_strategy(arena, objective, strat):
    """Independent correctness check by exhaustive adversarial replay."""
    g = _product_graph(arena, strat)
    safe = set(range(len(arena)))
    for atom in objective.safety_terms:
        safe &= members(arena.atom_sets[atom])
    for i, _ in g.nodes:
        assert i in safe, f"strategy reaches unsafe state {i}"
    for atom in objective.recurrence_terms:
        hit = members(arena.atom_sets[atom])
        avoiders = [n for n in g.nodes if n[0] not in hit]
        sub = g.subgraph(avoiders)
        assert nx.is_directed_acyclic_graph(sub), (
            f"a play can avoid recurrence atom {atom} forever"
        )


def verify_target_strategy(arena, objective, result):
    """The extracted counterexample graph must defeat every agent play."""
    cex = extract_cex_graph(arena, result.target_strategy)
    index = {s: i for i, s in enumerate(arena.states)}
    safe = set(range(len(arena)))
    for atom in objective.safety_terms:
        safe &= members(arena.atom_sets[atom])
    g = nx.DiGraph()
    for s, succs in cex.edges.items():
        for s2 in succs:
            g.add_edge(s, s2)
    if not g.nodes:
        g.add_node(cex.initial)
    for scc in nx.strongly_connected_components(g):
        sub = g.subgraph(scc)
        if sub.number_of_edges() == 0:
            continue
        modes = {cex.mode[s] for s in scc}
        assert len(modes) == 1, f"cycle spans modes {modes}"
        (mode,) = modes
        assert mode[0] == "avoid", f"cycle in non-trap mode {mode}"
        j = mode[1]
        atom = objective.recurrence_terms[j]
        for s in scc:
            assert not arena.atom_sets[atom][index[s]]


@pytest.fixture(scope="module")
def exact_arena_factory(game5):
    """Arenas of the exact belief game, the abstract game under the
    singletons partition."""
    Q = singletons(game5)
    game = build_abstract_game(game5, Q)

    def make(spec, predicates=None):
        obj = parse_spec(spec)
        return obj, make_arena(game, game5, obj, predicates, Q)

    return make


def test_safety_realizable_verified(exact_arena_factory):
    obj, arena = exact_arena_factory("G p<=3")
    result = solve(arena, obj)
    assert result.agent_wins
    verify_agent_strategy(arena, obj, result.agent_strategy)


def test_safety_unrealizable_verified(exact_arena_factory):
    obj, arena = exact_arena_factory("G p<=2")
    result = solve(arena, obj)
    assert not result.agent_wins
    verify_target_strategy(arena, obj, result)


def test_buchi_realizable_verified(exact_arena_factory):
    obj, arena = exact_arena_factory("GF p<=1")
    result = solve(arena, obj)
    assert result.agent_wins
    verify_agent_strategy(arena, obj, result.agent_strategy)


def test_conjunction_verified(exact_arena_factory, goal_pred):
    obj, arena = exact_arena_factory("G p<=4 & GF p<=1 & GF goal", goal_pred)
    result = solve(arena, obj)
    if result.agent_wins:
        verify_agent_strategy(arena, obj, result.agent_strategy)
    else:
        verify_target_strategy(arena, obj, result)


def test_mixed_conjunction_with_goal(exact_arena_factory, goal_pred):
    obj, arena = exact_arena_factory("GF p<=1 & GF goal", goal_pred)
    result = solve(arena, obj)
    if result.agent_wins:
        verify_agent_strategy(arena, obj, result.agent_strategy)
    else:
        verify_target_strategy(arena, obj, result)


def test_winning_regions_partition_states(exact_arena_factory):
    for spec in ("G p<=2", "G p<=3", "GF p<=2"):
        obj, arena = exact_arena_factory(spec)
        result = solve(arena, obj)
        if not result.agent_wins:
            ts = result.target_strategy
            assert frozenset(ts.mode) == frozenset(range(len(arena))) - members(
                result.winning_region
            )


def test_cex_tree_leaves_violate_safety(game5, two_col_partition):
    obj = parse_spec("G p<=5")
    game = build_abstract_game(game5, two_col_partition)
    arena = make_arena(game, game5, obj, partition=two_col_partition)
    result = solve(arena, obj)
    assert not result.agent_wins
    cex = extract_cex_graph(arena, result.target_strategy)
    tree = counterexample_tree(game5, build_analysis_graph(game5, two_col_partition, cex), cex)
    index = {s: i for i, s in enumerate(arena.states)}
    leaves = [n for n in _tree_nodes(tree) if not n.children]
    assert leaves
    for leaf in leaves:
        i = index[leaf.state]
        assert any(not arena.atom_sets[a][i] for a in obj.safety_terms)
    # internal nodes branch over every reply of the chosen move
    for n in _tree_nodes(tree):
        if n.children:
            replies = dict(choices(arena, index[n.state]))[n.choice]
            assert [index[c.state] for c in n.children] == list(replies)


def test_cex_graph_closed_under_replies(game5, two_col_partition):
    obj = parse_spec("GF p<=2")
    game = build_abstract_game(game5, two_col_partition)
    arena = make_arena(game, game5, obj, partition=two_col_partition)
    result = solve(arena, obj)
    assert not result.agent_wins
    cex = extract_cex_graph(arena, result.target_strategy)
    index = {s: i for i, s in enumerate(arena.states)}
    for s, succs in cex.edges.items():
        i = index[s]
        replies = dict(choices(arena, i))[cex.choice[s]]
        assert tuple(arena.states[r] for r in replies) == succs
        for s2 in succs:
            assert s2 in cex.edges


def test_no_target_strategy_error(exact_arena_factory):
    obj, arena = exact_arena_factory("G p<=3")
    result = solve(arena, obj)
    with pytest.raises(SolverError):
        extract_cex_graph(arena, result.target_strategy)


def test_make_arena_rejects_choice_without_reply():
    """A structure that is not total: the agent on cell 0 has no move, so
    once the target moves from cell 1 to cell 2 there is no reply.  The
    arena is refused with the state and the choice named, before the
    solver can misread the game."""
    G = SurveillanceGameStructure(
        initial=(0, 1),
        target_succ={1: (2,), 2: (1,)},
        agent_succ={0: ()},
        visibility={0: frozenset({1, 2})},
    )
    assert not validate_assumptions(G).total
    game = build_abstract_game(G, singletons(G))
    # a move the agent sees is labelled by its location, in the exact game too
    msg = "choice 2 of state (0, 1) has no agent reply"
    with pytest.raises(SolverError, match=re.escape(msg)):
        make_arena(game, G, parse_spec("G p<=1"))


def test_make_arena_rejects_undeclared_predicate(game5):
    game = build_abstract_game(game5, singletons(game5))
    with pytest.raises(SolverError, match="undeclared task predicate 'goal'"):
        make_arena(game, game5, parse_spec("GF goal"))


@pytest.mark.parametrize("spec", ["G p<=2", "GF p<=1", "G p<=5 & GF goal"])
def test_make_arena_reads_labels_under_singletons_by_default(game5, goal_pred, spec):
    """The benchmark's oracle makes the exact game's arena without a
    partition: its atoms are those under the singletons partition."""
    obj = parse_spec(spec)
    Q = singletons(game5)
    game = build_abstract_game(game5, Q)
    want = make_arena(game, game5, obj, goal_pred, Q).atom_sets
    assert make_arena(game, game5, obj, goal_pred).atom_sets == want
    # each atom holds on some states and fails on others
    assert all(0 < len(members(mask)) < len(game) for mask in want.values())


def test_export_strategy_deterministic(game5, exact_arena_factory):
    obj, arena = exact_arena_factory("GF p<=2")
    Q = singletons(game5)
    a = json.dumps(
        export_strategy(arena, solve(arena, obj).agent_strategy, "d", Q), sort_keys=True
    )
    b = json.dumps(
        export_strategy(arena, solve(arena, obj).agent_strategy, "d", Q), sort_keys=True
    )
    assert a == b


def check_export(arena, objective, strat, partition):
    """The export equals the full reference export of the reference
    solver's controller, which has every move, restricted to the pairs
    reachable from ``(initial, 0)`` and renumbered; its states lie in the
    winning region, and every exported ``(state, memory)`` pair has one
    move per distinct choice label of its arena state, in canonical
    order."""
    got = export_strategy(arena, strat, "d", partition)
    full = reference_solver.solve(reference_game.from_flat(arena), objective)
    want = reference_export.export_strategy(arena, full.agent_strategy, "d", partition)
    assert got == reference_export.restrict_to_reachable(want)
    index = {json.dumps([l_a, label_json(b)]): i for i, (l_a, b) in enumerate(arena.states)}
    exported = [index[json.dumps(s)] for s in got["states"]]
    assert set(exported) <= full.winning_region
    labels_of = {(got["initial"], 0): []}
    for i, mem, c, r, mem2 in got["moves"]:
        labels_of.setdefault((i, mem), []).append(c)
        labels_of.setdefault((r, mem2), [])
    for (k, mem), labels in labels_of.items():
        distinct = dict.fromkeys(c for c, _ in choices(arena, exported[k]))
        assert labels == [label_json(c) for c in distinct], (k, mem)


# the paper5x5 specs of acceptance criterion 5 that are realizable
REALIZABLE = (
    [f"G p<={k}" for k in range(3, 7)]
    + [f"GF p<={k}" for k in range(1, 7)]
    + ["G p<=5 & GF p<=2"]
)


@pytest.mark.parametrize("spec", REALIZABLE)
def test_export_is_the_reachable_part_of_the_reference(game5, exact_arena_factory, spec):
    out = cegar_loop(game5, parse_spec(spec))
    assert out.verdict == "realizable"
    check_export(out.arena, parse_spec(spec), out.strategy, out.final_partition)
    obj, arena = exact_arena_factory(spec)
    result = solve(arena, obj)
    assert result.agent_wins
    check_export(arena, obj, result.agent_strategy, singletons(game5))


def test_export_of_a_reached_pair_without_a_move_fails(game5, exact_arena_factory):
    obj, arena = exact_arena_factory("G p<=3")
    strat = solve(arena, obj).agent_strategy
    del strat.moves[next(k for k in strat.moves if k[:2] == (arena.initial, 0))]
    with pytest.raises(SimulationError, match=f"no move in state {arena.initial}, memory 0"):
        export_strategy(arena, strat, "d", singletons(game5))


@st.composite
def random_games(draw, total=True):
    """Small total arenas with sinks and repeated replies, plus random
    safety and recurrence atoms.  With ``total`` false, one choice in
    sixteen has no reply at all, and about half the arenas are not
    total."""
    n = draw(st.integers(1, 40))
    state = st.integers(0, n - 1)

    def replies():
        empty = not total and draw(st.integers(0, 15)) == 0
        return tuple(draw(st.lists(state, min_size=0 if empty else 1, max_size=4)))

    moves = [
        [(c, replies()) for c in range(k)]
        for k in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ]
    everything = frozenset(range(n))
    safety = [TaskAtom(f"s{k}") for k in range(draw(st.integers(0, 2)))]
    recurrence = [TaskAtom(f"r{k}") for k in range(draw(st.integers(0, 2)))]
    if not safety and not recurrence:
        safety = [TaskAtom("s0")]
    atom_sets = {a: everything - draw(st.frozensets(state, max_size=8)) for a in safety}
    atom_sets.update({a: draw(st.frozensets(state)) for a in recurrence})
    arena = reference_game.Arena(
        states=list(range(n)),
        index={i: i for i in range(n)},
        moves=moves,
        initial=draw(state),
        atom_sets=atom_sets,
    )
    return arena, Objective(frozenset(safety), tuple(recurrence))


def check_against_reference(flat, arena, obj):
    """``solve`` on the flat arena and the reference solver on the same
    arena as tuples agree: neither fails, and they give the same winner
    and region, the same reachable controller, or the same target
    region, modes and choices."""
    got = solve(flat, obj)
    want = reference_solver.solve(arena, obj)
    assert got.agent_wins == want.agent_wins
    assert members(got.winning_region) == want.winning_region
    if want.agent_wins:
        assert got.agent_strategy.memory_count == want.agent_strategy.memory_count
        assert got.agent_strategy.moves == reference_solver.reachable_moves(
            want.agent_strategy, arena.initial
        )
    else:
        assert choice_labels(flat, got.target_strategy) == want.target_strategy.choice
        assert got.target_strategy.mode == want.target_strategy.mode


@settings(max_examples=400, deadline=None)
@given(random_games())
def test_solver_matches_naive_reference(game):
    arena, obj = game
    check_against_reference(reference_game.to_flat(arena), arena, obj)


# the specs of the benchmark's paper-oracle workload, whose goal is the
# agent standing on cell 0 as in ``goal_pred``
PAPER_ORACLE_SPECS = (
    [f"G p<={k}" for k in range(1, 7)]
    + [f"GF p<={k}" for k in range(1, 7)]
    + ["G p<=5 & GF p<=2", "GF p<=1 & GF goal"]
)


@pytest.mark.parametrize("spec", PAPER_ORACLE_SPECS)
def test_cegar_games_match_naive_reference(monkeypatch, game5, goal_pred, spec):
    """Every abstract game that the CEGAR loop builds on paper5x5, solved
    here (the loop does not solve a game the builder found lost), gets
    the reference solver's solution."""
    built = []
    build = surveil.cegar.build_abstract_game

    def recorded(G, Q, *args, **kwargs):
        built.append((Q, build(G, Q, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(surveil.cegar, "build_abstract_game", recorded)
    obj = parse_spec(spec)
    predicates = goal_pred if "goal" in spec else None
    cegar_loop(game5, obj, predicates=predicates)
    assert built
    for Q, game in built:
        arena = make_arena(game, game5, obj, predicates, partition=Q)
        check_against_reference(arena, reference_game.from_flat(arena), obj)


@pytest.mark.parametrize(
    "spec, verdict, calls",
    [("GF p<=1 & GF goal", "unrealizable", 0), ("GF p<=2", "realizable", 1)],
)
def test_only_the_game_the_agent_wins_runs_the_buchi_round(
    monkeypatch, game5, goal_pred, spec, verdict, calls
):
    """A game the target wins is solved by its layered region alone, and
    one the agent wins also gets the controller built from the ranks of
    the last trap round: over a whole CEGAR loop, whose last game alone
    can be won by the agent, the controller is built once for a
    realizable recurrence spec and never for an unrealizable one."""
    buchi = surveil.solver._buchi_strategy
    runs = []

    def counted(arena, Z, cores, ranks):
        runs.append(Z)
        return buchi(arena, Z, cores, ranks)

    monkeypatch.setattr(surveil.solver, "_buchi_strategy", counted)
    preds = goal_pred if "goal" in spec else None
    assert cegar_loop(game5, parse_spec(spec), predicates=preds).verdict == verdict
    assert len(runs) == calls


@pytest.mark.parametrize(
    "name, spec", [("paper5x5", "GF p<=2"), ("bigroom", "GF p<=10 & GF goal")]
)
def test_solve_runs_every_agent_attractor_in_a_trap_round(monkeypatch, name, spec):
    """On the last game of a realizable CEGAR loop, the Buchi ranks are
    those of the last trap round: every agent attractor that ``solve``
    runs is run by ``_avoid_trap``, none by a separate Buchi round."""
    grid = parse_grid(bundled_map(f"{name}.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map(f"{name}.cfg")))
    obj = parse_spec(spec)
    out = cegar_loop(G, obj, predicates=predicates_from_grid(grid))
    assert out.verdict == "realizable"
    attractor, avoid_trap = surveil.solver._attractor, surveil.solver._avoid_trap
    in_trap, calls = [], []

    def attractor_call(*args):
        calls.append(bool(in_trap))
        return attractor(*args)

    def trap_round(*args):
        in_trap.append(True)
        try:
            return avoid_trap(*args)
        finally:
            in_trap.pop()

    monkeypatch.setattr(surveil.solver, "_attractor", attractor_call)
    monkeypatch.setattr(surveil.solver, "_avoid_trap", trap_round)
    assert solve(out.arena, obj).agent_wins
    assert calls and all(calls)


@settings(max_examples=200, deadline=None)
@given(random_games())
def test_moves_cover_exactly_the_reached_pairs(game):
    """The controller has a move for each choice of every ``(state,
    memory)`` pair that its moves reach from ``(initial, 0)``, following
    every arena choice, and no move elsewhere; every reply is winning."""
    arena, obj = game
    flat = reference_game.to_flat(arena)
    result = solve(flat, obj)
    if not result.agent_wins:
        return
    strat = result.agent_strategy
    labels_of = {}
    for i, mem, c in strat.moves:
        labels_of.setdefault((i, mem), []).append(c)
    reached = _product_graph(flat, strat)
    assert set(labels_of) == {(i, mem) for i, mem in reached if choices(flat, i)}
    for i, mem in reached:
        assert sorted(labels_of.get((i, mem), [])) == [c for c, _ in choices(flat, i)]
    assert {r for r, _ in strat.moves.values()} <= members(result.winning_region)


def test_solve_refuses_an_arena_that_is_not_total():
    """States 3, 4, 6 and 7 have a choice without replies.  The reference
    solver puts them outside the safe region, but its target strategy
    does not force through such a choice and cannot cover them, so it
    fails its determinacy check; ``solve`` refuses the arena up front,
    naming the first such choice."""
    moves = [
        [(0, (7,))],
        [],
        [],
        [(0, ()), (1, (0,))],
        [(0, ()), (1, ()), (2, (0,))],
        [],
        [(0, ()), (1, ()), (2, (0,))],
        [(0, ()), (1, ()), (2, (3,))],
    ]
    r0 = TaskAtom("r0")
    arena = reference_game.Arena(
        states=list(range(8)),
        index={i: i for i in range(8)},
        moves=moves,
        initial=0,
        atom_sets={r0: frozenset({0})},
    )
    obj = Objective(frozenset(), (r0,))
    with pytest.raises(SolverError, match="determinacy check failed"):
        reference_solver.solve(arena, obj)
    msg = "choice 0 of state 3 has no agent reply"
    with pytest.raises(SolverError, match=re.escape(msg)):
        solve(reference_game.to_flat(arena), obj)


@settings(max_examples=200, deadline=None)
@given(random_games(total=False))
def test_solve_refuses_every_arena_that_is_not_total(game):
    arena, obj = game
    empty = [(i, c) for i, out in enumerate(arena.moves) for c, r in out if not r]
    assume(empty)
    i, c = empty[0]
    msg = f"choice {c} of state {i} has no agent reply"
    with pytest.raises(SolverError, match=re.escape(msg)):
        solve(reference_game.to_flat(arena), obj)


@settings(max_examples=400, deadline=None)
@given(random_games())
def test_agent_region_lies_in_its_controllable_predecessor(game):
    """``solve`` takes each recurrence atom's core as ``F_j & Z``, which
    is ``F_j & Z & cpre(Z)`` only because ``Z`` lies inside
    ``cpre(Z)``: every choice of a state of ``Z`` has a reply in ``Z``."""
    arena, obj = game
    Z = members(solve(reference_game.to_flat(arena), obj).winning_region)
    assert Z <= reference_solver.cpre(arena, Z)


@settings(max_examples=200, deadline=None)
@given(random_games())
def test_export_matches_reference_on_random_games(game):
    arena, obj = game
    # the reference arena's states are bare numbers; export needs pairs
    flat = reference_game.to_flat(arena, [(i, i) for i in arena.states])
    result = solve(flat, obj)
    if result.agent_wins:
        # every label is a cell, so no block is named
        check_export(flat, obj, result.agent_strategy, Partition({}, frozenset()))


def renumbered(arena, strat, order, label_order):
    """The arena and its controller with state ``order[k]`` numbered
    ``k`` and label ``label_order[k]`` given id ``k``; choices and reply
    sets keep their order within a state and a set."""
    new = {old: k for k, old in enumerate(order)}
    new_label = {old: k for k, old in enumerate(label_order)}
    off = arena.choice_off
    ids = [c for i in order for c in range(off[i], off[i + 1])]
    flat = reference_game.flat_arena(
        [arena.states[i] for i in order],
        new[arena.initial],
        [arena.labels[k] for k in label_order],
        array("i", accumulate((off[i + 1] - off[i] for i in order), initial=0)),
        array("i", [new_label[arena.choice_label[c]] for c in ids]),
        array("i", [arena.choice_set[c] for c in ids]),
        arena.reply_off,
        array("i", [new[r] for r in arena.replies]),
        {atom: bytearray(map(mask.__getitem__, order)) for atom, mask in arena.atom_sets.items()},
    )
    moves = {
        (new[i], mem, c): (new[r], mem2) for (i, mem, c), (r, mem2) in strat.moves.items()
    }
    return flat, StrategyData(strat.memory_count, moves)


@settings(max_examples=200, deadline=None)
@given(random_games(), st.data())
def test_export_does_not_depend_on_the_numbering(game, data):
    """The controller file is the same whatever numbers the arena gives
    its states and labels: ``export_strategy`` orders what it writes by
    cell and label."""
    arena, obj = game
    flat = reference_game.to_flat(arena, [(i, i) for i in arena.states])
    result = solve(flat, obj)
    if not result.agent_wins:
        return
    strat, none = result.agent_strategy, Partition({}, frozenset())
    order = data.draw(st.permutations(range(len(flat))))
    label_order = data.draw(st.permutations(range(len(flat.labels))))
    assert export_strategy(*renumbered(flat, strat, order, label_order), "d", none) == (
        export_strategy(flat, strat, "d", none)
    )


def test_exact_export_does_not_depend_on_the_numbering(game5, exact_arena_factory):
    obj, arena = exact_arena_factory("GF p<=2")
    strat = solve(arena, obj).agent_strategy
    Q = singletons(game5)
    want = export_strategy(arena, strat, "d", Q)
    rng = random.Random(0)
    for _ in range(3):
        order, label_order = list(range(len(arena))), list(range(len(arena.labels)))
        rng.shuffle(order)
        rng.shuffle(label_order)
        assert export_strategy(*renumbered(arena, strat, order, label_order), "d", Q) == want
