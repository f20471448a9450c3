"""Lost safety games cut at the target's forcing depth, against whole games.

With ``cut``, ``build_abstract_game`` stops exploring once the target's
attractor to the unsafe states holds the initial state, at the depth
that the game's counterexample reads.  These tests take every game a
CEGAR run builds, build the whole game (pruned at its unsafe states,
not cut) under the same partition, and check where the cut falls
against a naive computation, and that the counterexample graph and the
reported tree are those of the whole game.
"""

import pytest

import surveil.cegar
from conftest import choices
from surveil import (
    BudgetExceeded,
    SolverError,
    build_abstract_game,
    build_analysis_graph,
    build_game_structure,
    cegar_loop,
    extract_cex_graph,
    initial_partition,
    make_arena,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    solve,
)
from surveil.cegar import counterexample_tree
from surveil.cli import bundled_map, main
from surveil.solver import SolveResult, TargetStrategyData
from test_pruned_game import _graph_json, _tree_json

SAFETY_SPECS = {
    "paper5x5": [f"G p<={k}" for k in range(1, 9)] + ["G p<=5 & GF p<=2"],
    "bigroom": [f"G p<={k}" for k in range(1, 7)] + ["bigroom_safety.spec"],
}


def _problem(name):
    grid = parse_grid(bundled_map(f"{name}.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map(f"{name}.cfg")))
    return G, predicates_from_grid(grid)


def _spec(text):
    return parse_spec(bundled_map(text) if text.endswith(".spec") else text)


def _recorded_run(monkeypatch, G, objective, predicates):
    """The outcome of a CEGAR run and each ``(partition, game)`` it built."""
    built = []
    build = surveil.cegar.build_abstract_game

    def recorded(G, Q, *args, **kw):
        built.append((Q, build(G, Q, *args, **kw)))
        return built[-1][1]

    monkeypatch.setattr(surveil.cegar, "build_abstract_game", recorded)
    outcome = cegar_loop(G, objective, predicates=predicates)
    return outcome, built


def _depths(game) -> list:
    """The breadth-first depth of each state of a game built whole,
    whose states are numbered breadth first."""
    depth = [None] * len(game)
    depth[game.initial] = 0
    for i in range(len(game)):
        for _, replies in choices(game, i):
            for j in replies:
                if depth[j] is None:
                    depth[j] = depth[i] + 1
    return depth


def _initial_rank(game, depth, d):
    """The initial state's rank in the target's attractor to the unsafe
    states (the states without choices of a game built for the safety
    terms) on the part of ``game`` that exploration to depth ``d``
    builds: its states of depth at most ``d + 1``, with the choices of
    those of depth at most ``d``.  None when it is not in the attractor.
    Level by level, straight from the definition."""
    moves = {i: choices(game, i) for i in range(len(game)) if depth[i] <= d + 1}
    rank = {i: 0 for i, out in moves.items() if not out}
    inner = [i for i, out in moves.items() if out and depth[i] <= d]
    level = 0
    while game.initial not in rank:
        level += 1
        added = [
            i for i in inner
            if i not in rank
            and any(all(r in rank for r in replies) for _, replies in moves[i])
        ]
        if not added:
            return None
        for i in added:
            rank[i] = level
    return rank[game.initial]


def _forcing_depth(game, depth):
    """``(D, R)``: the first depth ``D`` at which :func:`_initial_rank`
    holds the initial state, and its rank ``R`` there; None when no depth
    does.  The attractor only grows with ``d``, so ``D`` is found by
    bisection."""
    top = max(depth)
    if _initial_rank(game, depth, top) is None:
        return None
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi) // 2
        if _initial_rank(game, depth, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo, _initial_rank(game, depth, lo)


def _counterexample(G, Q, game, objective, predicates):
    """The counterexample graph and tree of a game the target wins, as
    JSON text, for a spec with or without recurrence terms."""
    arena = make_arena(game, G, objective, predicates, partition=Q)
    result = solve(arena, objective)
    assert not result.agent_wins
    graph = extract_cex_graph(arena, result)
    tree = counterexample_tree(G, build_analysis_graph(G, Q, graph), graph)
    if not objective.recurrence_terms:
        return _graph_json(graph), _tree_json(tree.root)
    # a recurrence counterexample's tree may have cycles: list its nodes
    index = {id(node): k for k, node in enumerate(tree.nodes)}
    nodes = [
        (n.state, n.choice, sorted(n.annotation), n.mode, [index[id(c)] for c in n.children])
        for n in tree.nodes
    ]
    return _graph_json(graph), nodes


@pytest.mark.parametrize(
    "problem, spec", [(p, s) for p, specs in SAFETY_SPECS.items() for s in specs]
)
def test_cut_game_counterexample_equals_the_whole_games(monkeypatch, problem, spec):
    """Every game the run loses is compared with the whole game: the
    counterexample graph and the reported tree are the same.  A game the
    agent wins is never cut, so a realizable run's last game is whole."""
    G, predicates = _problem(problem)
    objective = _spec(spec)
    outcome, built = _recorded_run(monkeypatch, G, objective, predicates)
    for n, (Q, game) in enumerate(built):
        whole = build_abstract_game(G, Q, safety=objective.safety_terms, predicates=predicates)
        if outcome.verdict == "realizable" and n == len(built) - 1:
            assert game.cut_depth is None
            assert outcome.arena.cut_depth is None
            assert game.states == whole.states
            continue
        assert _counterexample(G, Q, game, objective, predicates) == _counterexample(
            G, Q, whole, objective, predicates
        ), n
        if not objective.recurrence_terms:
            # a lost safety game is always lost by reaching an unsafe state
            assert game.cut_depth is not None
        if game.cut_depth is None:
            assert game.states == whole.states


@pytest.mark.parametrize(
    "problem, spec",
    [("paper5x5", f"G p<={k}") for k in range(1, 9)]
    + [("paper5x5", "G p<=5 & GF p<=2"), ("bigroom", "G p<=4")],
)
def test_cut_falls_at_the_forcing_depth(monkeypatch, problem, spec):
    """Each game is cut at ``max(D, R - 1)``, where ``D`` is the first
    depth whose explored part has the initial state in the target's
    attractor and ``R`` its rank there.  The cut game is the whole game's
    states up to one depth further, numbered alike, with the choices of
    those up to the cut depth.  On bigroom ``G p<=4`` the attractor holds
    the initial state before depth ``R - 1`` in some games, and the
    builder keeps expanding."""
    G, predicates = _problem(problem)
    objective = _spec(spec)
    _, built = _recorded_run(monkeypatch, G, objective, predicates)
    smaller = kept_expanding = 0
    for Q, game in built:
        whole = build_abstract_game(G, Q, safety=objective.safety_terms, predicates=predicates)
        depth = _depths(whole)
        forcing = _forcing_depth(whole, depth)
        if forcing is None:
            assert game.cut_depth is None
            assert game.states == whole.states
            continue
        D, R = forcing
        cut = max(D, R - 1)
        assert game.cut_depth == cut
        kept_expanding += D < cut
        assert game.states == [s for s, d in zip(whole.states, depth) if d <= cut + 1]
        for i in range(len(game)):
            want = choices(whole, i) if depth[i] <= cut else []
            assert [(c, list(r)) for c, r in choices(game, i)] == [
                (c, list(r)) for c, r in want
            ]
        smaller += len(game) < len(whole)
    assert smaller, "no game was cut short"
    if problem == "bigroom":
        assert kept_expanding


def test_state_budget_counts_the_states_of_the_cut_game(tmp_path, capsys):
    """paper5x5 with ``G p<=1``: the first game built whole for the safety
    term has more than 40 states, but each cut game fits in a 40-state
    budget, so the run decides as it does without a budget."""
    G, predicates = _problem("paper5x5")
    objective = parse_spec("G p<=1")
    with pytest.raises(BudgetExceeded):
        build_abstract_game(
            G, initial_partition(G, predicates.values()), 40, objective.safety_terms, predicates
        )
    spec = tmp_path / "spec"
    spec.write_text("G p<=1\n")
    argv = ["synth", "--map", "bundled:paper5x5.txt", "--config", "bundled:paper5x5.cfg",
            "--spec", str(spec), "--dump-partition"]
    assert main(argv) == 10
    unbudgeted = capsys.readouterr()
    assert main(argv + ["--max-states", "40"]) == 10
    assert capsys.readouterr() == unbudgeted


@pytest.mark.parametrize("report", ["agent wins", "rank too high"])
def test_cegar_loop_refuses_a_cut_game_report_the_cut_rules_out(monkeypatch, report):
    """A solver report that the cut's proof rules out, the agent winning a
    cut game or an initial rank above the cut depth plus one, is an
    error of its own, not a wrong verdict."""
    G, predicates = _problem("paper5x5")
    real_solve = surveil.cegar.solve

    def misreport(arena, objective):
        result = real_solve(arena, objective)
        if arena.cut_depth is None:
            return result
        if report == "agent wins":
            return SolveResult(True, result.winning_region)
        mode = dict(result.target_strategy.mode)
        mode[arena.initial] = ("reach", arena.cut_depth + 2)
        return SolveResult(
            False, result.winning_region,
            target_strategy=TargetStrategyData(result.target_strategy.choice, mode),
        )

    monkeypatch.setattr(surveil.cegar, "solve", misreport)
    with pytest.raises(SolverError, match="cut at depth"):
        cegar_loop(G, parse_spec("G p<=3"), predicates=predicates)

