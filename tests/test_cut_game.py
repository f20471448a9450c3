"""Safety games solved on the fly (``cut``), against whole games.

With ``cut``, ``build_abstract_game`` explores only the states that the
controller or the counterexample at the initial state reads, and leaves
the game ``partial``.  These tests take every game a CEGAR run builds,
build the whole game (pruned at its unsafe states, not cut) under the
same partition, and check that the counterexample graph and tree of a
lost game, and the exported controller of a won one, are the whole
game's.
"""

import json

import pytest

import surveil.cegar
from conftest import choices, pillar_problem
from surveil import (
    BudgetExceeded,
    SolverError,
    build_abstract_game,
    build_analysis_graph,
    build_game_structure,
    cegar_loop,
    export_strategy,
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
from surveil.solver import SolveResult, StrategyData, TargetStrategyData
from test_pruned_game import _graph_json, _tree_json

SAFETY_SPECS = {
    "paper5x5": [f"G p<={k}" for k in range(1, 9)] + ["G p<=5 & GF p<=2"],
    # the agent starts off its one ``goal`` cell: the initial state is unsafe
    "bigroom": [f"G p<={k}" for k in range(1, 7)]
    + ["bigroom_safety.spec", "G goal", "G goal & GF p<=3"],
    "liveness10x15": ["G p<=6"],
    # every free cell: the spec holds in every state
    "pillars12": ["G p<=135"],
}


def _problem(name):
    if name.startswith("pillars"):
        map_text, cfg_text = pillar_problem(int(name[len("pillars"):]), 1)
    else:
        map_text, cfg_text = bundled_map(f"{name}.txt"), bundled_map(f"{name}.cfg")
    grid = parse_grid(map_text)
    G = build_game_structure(grid, *parse_config(cfg_text))
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


def _moves(game) -> dict:
    """Each expanded state's choices, with the replies as states."""
    states = game.states
    return {
        states[i]: [(label, [states[r] for r in replies]) for label, replies in out]
        for i in range(len(game))
        if (out := choices(game, i))
    }


def _answer(G, Q, game, objective, predicates):
    """The exported controller of a game the agent wins, as JSON text, or
    the counterexample graph and tree of a game the target wins, for a
    spec with or without recurrence terms."""
    arena = make_arena(game, G, objective, predicates, partition=Q)
    result = solve(arena, objective)
    if result.agent_wins:
        payload = export_strategy(arena, result.agent_strategy, "digest", Q)
        return "won", json.dumps(payload, sort_keys=True)
    graph = extract_cex_graph(arena, result)
    tree = counterexample_tree(G, build_analysis_graph(G, Q, graph), graph)
    if not objective.recurrence_terms:
        return "lost", _graph_json(graph), _tree_json(tree.root)
    # a recurrence counterexample's tree may have cycles: list its nodes
    index = {id(node): k for k, node in enumerate(tree.nodes)}
    nodes = [
        (n.state, n.choice, sorted(n.annotation), n.mode, [index[id(c)] for c in n.children])
        for n in tree.nodes
    ]
    return "lost", _graph_json(graph), nodes


@pytest.mark.parametrize(
    "problem, spec", [(p, s) for p, specs in SAFETY_SPECS.items() for s in specs]
)
def test_cut_game_counterexample_equals_the_whole_games(monkeypatch, problem, spec):
    """Every game the run builds is compared with the whole game: a lost
    game's counterexample graph and tree, and a won game's exported
    controller, are the same, and the cut game's states are whole-game
    states.  A game of a spec with recurrence terms that the agent wins
    the safety terms of is built whole."""
    G, predicates = _problem(problem)
    objective = _spec(spec)
    outcome, built = _recorded_run(monkeypatch, G, objective, predicates)
    for n, (Q, game) in enumerate(built):
        whole = build_abstract_game(G, Q, safety=objective.safety_terms, predicates=predicates)
        assert not whole.partial
        assert set(game.states) <= set(whole.states), n
        moves, whole_moves = _moves(game), _moves(whole)
        assert all(whole_moves[s] == out for s, out in moves.items()), n
        answer = _answer(G, Q, game, objective, predicates)
        assert answer == _answer(G, Q, whole, objective, predicates), n
        if objective.recurrence_terms and not game.partial:
            assert set(game.states) == set(whole.states), n
        if answer[0] == "won" and objective.recurrence_terms:
            assert not game.partial, n
    assert outcome.arena.partial == built[-1][1].partial


@pytest.mark.parametrize("spec", ["G goal", "G goal & GF p<=3"])
def test_cut_game_with_an_unsafe_initial_state_is_lost_at_once(spec):
    """bigroom's agent starts off its one ``goal`` cell, so ``G goal``
    fails in the initial state: the game is that one state, without
    choices, and the target wins it in the first iteration."""
    G, predicates = _problem("bigroom")
    assert G.initial[0] not in predicates["goal"].cells
    objective = parse_spec(spec)
    Q = initial_partition(G, predicates.values())
    game = build_abstract_game(G, Q, safety=objective.safety_terms, predicates=predicates, cut=True)
    assert list(game.choice_off) == [0, 0] and not game.partial
    outcome = cegar_loop(G, objective, predicates=predicates)
    assert (outcome.verdict, outcome.iterations) == ("unrealizable", 1)
    assert outcome.counterexample.root.mode == ("unsafe",)


@pytest.mark.parametrize("problem, spec", [("paper5x5", "G p<=1"), ("pillars12", "G p<=135")])
def test_cut_game_leaves_out_states_the_whole_game_has(problem, spec):
    """A lost game (paper5x5 ``G p<=1``) and a won one (``pillars12`` with
    every free cell allowed) are each built partial, with fewer states
    than the whole game under the same partition."""
    G, predicates = _problem(problem)
    objective = parse_spec(spec)
    Q = initial_partition(G, predicates.values())
    game = build_abstract_game(G, Q, safety=objective.safety_terms, predicates=predicates, cut=True)
    whole = build_abstract_game(G, Q, safety=objective.safety_terms, predicates=predicates)
    assert game.partial
    assert len(game) < len(whole)


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


def test_state_budget_counts_the_states_of_a_cut_game_the_agent_wins(tmp_path):
    """``pillars20`` (seed 1) with ``G p<=375``, every free cell: the whole
    game has 12,532 states, but the cut game that the controller reads
    fits in 2,000, so the run writes the unbudgeted controller."""
    map_text, cfg_text = pillar_problem(20, 1)
    files = {"map": map_text, "cfg": cfg_text, "spec": "G p<=375\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["synth", "--map", str(tmp_path / "map"), "--config", str(tmp_path / "cfg"),
            "--spec", str(tmp_path / "spec")]
    assert main(argv + ["--out", str(tmp_path / "whole.json")]) == 0
    assert main(argv + ["--max-states", "2000", "--out", str(tmp_path / "cut.json")]) == 0
    assert (tmp_path / "cut.json").read_text() == (tmp_path / "whole.json").read_text()


@pytest.mark.parametrize(
    "report", ["agent wins", "choiceless controller state", "initial mode not reach"]
)
def test_cegar_loop_refuses_a_cut_game_report_the_cut_rules_out(monkeypatch, report):
    """A solver report on a partial game that the proof in
    ``build_abstract_game`` rules out is an error of its own, not a
    wrong verdict: the agent winning a spec with recurrence terms, a
    controller that reaches a state without choices, and a lost game
    whose initial state is outside the target's attractor to the
    unsafe states.  paper5x5 builds partial games that the target wins
    for ``G p<=5 & GF p<=2`` and partial games of both outcomes for
    ``G p<=3``."""
    G, predicates = _problem("paper5x5")
    spec = "G p<=5 & GF p<=2" if report == "agent wins" else "G p<=3"
    real_solve = surveil.cegar.solve

    def misreport(arena, objective):
        result = real_solve(arena, objective)
        if not arena.partial:
            return result
        if report == "agent wins":
            return SolveResult(True, result.winning_region)
        if report == "choiceless controller state":
            if not result.agent_wins:
                return result
            off = arena.choice_off
            bare = next(i for i in range(len(arena)) if off[i] == off[i + 1]
                        and result.winning_region[i])
            moves = dict(result.agent_strategy.moves)
            key = next(iter(moves))
            moves[key] = (bare, 0)
            return SolveResult(True, result.winning_region,
                               agent_strategy=StrategyData(1, moves))
        if result.agent_wins:
            return result
        mode = dict(result.target_strategy.mode)
        mode[arena.initial] = ("avoid", 0)
        return SolveResult(
            False, result.winning_region,
            target_strategy=TargetStrategyData(result.target_strategy.choice, mode),
        )

    monkeypatch.setattr(surveil.cegar, "solve", misreport)
    with pytest.raises(SolverError, match="partial game"):
        cegar_loop(G, parse_spec(spec), predicates=predicates)
