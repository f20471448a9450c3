"""Games solved on the fly (``cut``), against whole games.

With ``cut``, ``build_abstract_game`` explores only the states that the
controller or the counterexample at the initial state reads, and leaves
the game ``partial``: a safety game either way, a game of a spec with
recurrence terms alone when the target wins it in its first trap round.
These tests take every game a CEGAR run builds, build the whole game
(pruned at its unsafe states, not cut) under the same partition, and
check that the counterexample graph and tree of a lost game, and the
exported controller of a won one, are the whole game's.  A game the
builder found lost carries the counterexample it read, its ``reading``:
that is checked against ``solve`` on the same game, and a mutated
reading is refused by the loop's certificate.
"""

import json
from dataclasses import replace

import pytest

import surveil.cegar
from conftest import choices, pillar_problem
from surveil import (
    BudgetExceeded,
    PredicateDef,
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
from surveil.belief import atom_test
from surveil.cegar import counterexample_tree
from surveil.cli import bundled_map, main
from surveil.solver import (
    SolveResult,
    StrategyData,
    _avoid_trap,
    _target_attractor,
    _widths,
)
from test_pruned_game import _graph_json, _tree_json

# nine recurrence atoms: a state's goal bits need more than a byte
NINE_ATOMS = " & ".join(f"GF p<={k}" for k in range(1, 10))

SPECS = {
    "paper5x5": [f"G p<={k}" for k in range(1, 9)]
    + ["G p<=5 & GF p<=2"]
    + [f"GF p<={k}" for k in range(1, 7)]
    + ["GF p<=1 & GF goal", NINE_ATOMS],
    # the agent starts off its one ``goal`` cell: the initial state is
    # unsafe; ``GF p<=1``'s second game is lost only in a later trap round
    "bigroom": [f"G p<={k}" for k in range(1, 7)]
    + ["bigroom_safety.spec", "G goal", "G goal & GF p<=3", "bigroom_liveness.spec", "GF p<=1"],
    "liveness10x15": ["G p<=6"],
    # every free cell: the spec holds in every state, and the agent wins
    # the recurrence spec's first game, built whole
    "pillars12": ["G p<=135", "GF p<=135"],
}


def _problem(name):
    if name.startswith("pillars"):
        map_text, cfg_text = pillar_problem(int(name[len("pillars"):]), 1)
    else:
        map_text, cfg_text = bundled_map(f"{name}.txt"), bundled_map(f"{name}.cfg")
    grid = parse_grid(map_text)
    G = build_game_structure(grid, *parse_config(cfg_text))
    predicates = predicates_from_grid(grid)
    # paper5x5 has no goal cell: ``goal`` is the agent on cell 0, as in
    # the oracle-equivalence tests
    predicates.setdefault("goal", PredicateDef("goal", frozenset({0})))
    return G, predicates


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
    graph = extract_cex_graph(arena, result.target_strategy)
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
    "problem, spec", [(p, s) for p, specs in SPECS.items() for s in specs]
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
    if spec == NINE_ATOMS:
        # its first game is lost, and cut
        assert built[0][1].partial


def _lost_in_the_first_trap_round(arena, objective) -> bool:
    """Whether the solver's first trap round holds the initial state: a
    trap away from one recurrence atom, or the attractor to the traps."""
    won, traps = bytearray(len(arena)), []
    degree = _widths(arena.choice_off)
    for atom in objective.recurrence_terms:
        traps += [i for i, _ in _avoid_trap(arena, degree, won, arena.atom_sets[atom])[0]]
    _target_attractor(arena, won, traps, _widths(arena.reply_off), 0)
    return bool(won[arena.initial])


def test_cut_game_of_liveness10x15_first_game_equals_the_whole_game():
    """liveness10x15's bundled spec never decides, so only its first game
    is checked, and only its counterexample graph: the analysis of that
    graph is what grows without bound.  The target wins the game in its
    first trap round; the cut game numbers every state but expands fewer
    than a tenth of them, and has the whole game's counterexample."""
    G, predicates = _problem("liveness10x15")
    objective = _spec("liveness10x15.spec")
    assert not objective.safety_terms
    Q = initial_partition(G, predicates.values())
    game = build_abstract_game(
        G, Q, predicates=predicates, cut=True, recurrence=objective.recurrence_terms
    )
    whole = build_abstract_game(G, Q, predicates=predicates)
    assert game.partial and 10 * len(_moves(game)) < len(whole)
    graphs = []
    for g in (game, whole):
        arena = make_arena(g, G, objective, predicates, partition=Q)
        strategy = solve(arena, objective).target_strategy
        graphs.append(_graph_json(extract_cex_graph(arena, strategy)))
    assert graphs[0] == graphs[1]


def test_cut_game_lost_in_a_later_trap_round_is_built_whole(monkeypatch):
    """bigroom with ``GF p<=1``: the target wins the second game, but not
    in its first trap round, whose levels alone a partial game can
    certify; that game is built whole, and the first one, lost in its
    first round, is partial."""
    G, predicates = _problem("bigroom")
    objective = parse_spec("GF p<=1")
    _, built = _recorded_run(monkeypatch, G, objective, predicates)
    rounds = []
    for Q, game in built:
        whole = build_abstract_game(G, Q, predicates=predicates)
        arena = make_arena(whole, G, objective, predicates, partition=Q)
        lost = not solve(arena, objective).agent_wins
        rounds.append((lost, lost and _lost_in_the_first_trap_round(arena, objective)))
        assert game.partial == rounds[-1][1]
    assert rounds[:2] == [(True, True), (True, False)]


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


def test_state_budget_counts_the_states_of_the_cut_recurrence_game(tmp_path):
    """bigroom's README spec (``GF p<=10 & GF goal``): its second game,
    lost, has 9,568 states whole and 3,390 cut, so a 5,000-state budget
    that the whole game breaks holds the run, which writes the
    unbudgeted controller."""
    argv = ["synth", "--map", "bundled:bigroom.txt", "--config", "bundled:bigroom.cfg",
            "--spec", "bundled:bigroom_liveness.spec"]
    assert main(argv + ["--out", str(tmp_path / "whole.json")]) == 0
    assert main(argv + ["--max-states", "5000", "--out", str(tmp_path / "cut.json")]) == 0
    assert (tmp_path / "cut.json").read_text() == (tmp_path / "whole.json").read_text()


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


def _mutated(game, Q, report, tests):
    """``game`` with its reading mutated as ``report`` says, or ``game``
    itself when the reading has no state that the mutation applies to;
    ``tests`` are the spec's recurrence atoms' tests."""
    choice, mode = dict(game.reading[0]), dict(game.reading[1])
    states, off, i = game.states, game.choice_off, game.initial
    cells = {i: Q.gamma_mask(states[i][1]) for i in mode}

    def replies(i):
        return game.replies_of(choice[i]) if mode[i] != ("unsafe",) else ()

    if report == "initial mode":
        mode[i] = ("unsafe",) if tests else ("avoid", 0)
    elif report == "missing initial reading":
        del choice[i], mode[i]
    elif report == "choice outside its state":
        choice[i] = off[i + 1]
    elif report == "reply not read":
        r = next(r for r in replies(i) if r != i)
        del choice[r], mode[r]
    elif report == "reach reply does not descend":
        # a reach state with a reach reply takes that reply's rank
        found = next(((i, mode[r]) for i, m in mode.items() if m[0] == "reach"
                      for r in replies(i) if mode[r][0] == "reach"), None)
        if found is None:
            return game
        mode[found[0]] = found[1]
    elif report == "safe state read as unsafe":
        mode[next(i for i, m in mode.items() if m[0] == "reach")] = ("unsafe",)
    elif report == "avoid state meets its atom":
        # a state that meets atom 0 claims to avoid it
        i = next((i for i in mode if tests[0](states[i][0], cells[i])), None)
        if i is None:
            return game
        mode[i] = ("avoid", 0)
    elif report == "reply to a higher trap":
        # a trapped reply of an ``("avoid", j)`` state moves to the trap
        # of a later atom that it fails
        found = next(
            ((r, k) for i, m in mode.items() if m[0] == "avoid"
             for r in replies(i) if mode[r][0] == "avoid"
             for k in range(m[1] + 1, len(tests))
             if not tests[k](states[r][0], cells[r])),
            None,
        )
        if found is None:
            return game
        mode[found[0]] = ("avoid", found[1])
    return replace(game, reading=(choice, mode))


@pytest.mark.parametrize(
    "report, spec, error",
    [
        pytest.param("agent wins", "G p<=5 & GF p<=2", "the agent wins a partial game",
                     id="agent wins"),
        pytest.param("choiceless controller state", "G p<=3", "controller of a partial game",
                     id="choiceless controller state"),
        pytest.param("agent wins", "GF p<=2", "the agent wins a partial game",
                     id="agent wins a recurrence game"),
        pytest.param("no reading", "GF p<=2", "without its reading",
                     id="lost partial game without its reading"),
        pytest.param("initial mode", "G p<=3", "has mode", id="initial mode not reach"),
        pytest.param("initial mode", "GF p<=2", "breaks no safety term",
                     id="initial mode neither avoid nor reach"),
        pytest.param("missing initial reading", "G p<=3", "misses the initial state",
                     id="missing initial reading, G p<=3"),
        pytest.param("missing initial reading", "GF p<=2", "misses the initial state",
                     id="missing initial reading, GF p<=2"),
        pytest.param("choice outside its state", "G p<=3", "picks .* in state",
                     id="choice outside its state, G p<=3"),
        pytest.param("choice outside its state", "GF p<=2", "picks .* in state",
                     id="choice outside its state, GF p<=2"),
        pytest.param("reply not read", "G p<=3", "is not read", id="reply not read, G p<=3"),
        pytest.param("reply not read", "GF p<=2", "is not read", id="reply not read, GF p<=2"),
        pytest.param("reach reply does not descend", "G p<=3", "does not descend",
                     id="reach reply does not descend, G p<=3"),
        pytest.param("reach reply does not descend", "GF p<=1 & GF goal", "does not descend",
                     id="reach reply does not descend, GF p<=1 & GF goal"),
        pytest.param("safe state read as unsafe", "G p<=3", "breaks no safety term",
                     id="safe state read as unsafe, G p<=3"),
        pytest.param("avoid state meets its atom", "GF p<=2", "meets the atom it avoids",
                     id="avoid state meets its atom, GF p<=2"),
        pytest.param("reply to a higher trap", "GF p<=1 & GF goal", "leaves its trap",
                     id="reply to a higher trap, GF p<=1 & GF goal"),
    ],
)
def test_cegar_loop_refuses_a_cut_game_report_the_cut_rules_out(
    monkeypatch, report, spec, error
):
    """A report on a partial game that the proof in ``build_abstract_game``
    rules out is an error of its own, named by ``error``, not a wrong
    verdict.  The solver's reports: the agent winning a spec with
    recurrence terms, and a controller that reaches a state without
    choices.  The partial games that paper5x5 builds for ``G p<=5 & GF
    p<=2`` and ``GF p<=2`` are lost, and come with the builder's
    reading; for the agent-wins reports they come without it, so that
    the loop solves them, and so does one for the report of a lost
    partial game without its reading.  The builder's reports: a lost cut game's
    reading mutated so that it no longer shows the target winning, in
    the first lost cut game that the mutation applies to.  An initial
    mode of ``("avoid", 0)`` in a safety game, or ``("unsafe",)`` in a
    recurrence game, is one such mutant."""
    G, predicates = _problem("paper5x5")
    objective = parse_spec(spec)
    tests = [atom_test(G, a, predicates) for a in objective.recurrence_terms]
    real_solve = surveil.cegar.solve
    build = surveil.cegar.build_abstract_game

    def reported(G, Q, *args, **kw):
        game = build(G, Q, *args, **kw)
        if game.reading is None:
            return game
        if report in ("agent wins", "no reading"):
            return replace(game, reading=None)
        return _mutated(game, Q, report, tests)

    def misreport(arena, objective):
        result = real_solve(arena, objective)
        if not arena.partial:
            return result
        if report == "agent wins":
            return SolveResult(True, result.winning_region)
        if report != "choiceless controller state" or not result.agent_wins:
            return result
        off = arena.choice_off
        bare = next(i for i in range(len(arena)) if off[i] == off[i + 1]
                    and result.winning_region[i])
        moves = dict(result.agent_strategy.moves)
        key = next(iter(moves))
        moves[key] = (bare, 0)
        return SolveResult(True, result.winning_region, agent_strategy=StrategyData(1, moves))

    monkeypatch.setattr(surveil.cegar, "build_abstract_game", reported)
    monkeypatch.setattr(surveil.cegar, "solve", misreport)
    with pytest.raises(SolverError, match=error):
        cegar_loop(G, objective, predicates=predicates)


@pytest.mark.parametrize(
    "problem, spec", [(p, s) for p, specs in SPECS.items() for s in specs]
)
def test_reading_of_a_lost_cut_game_is_the_solvers_strategy(monkeypatch, problem, spec):
    """Every game of the run that the builder found lost carries, on every
    state its counterexample reads, the mode and choice that ``solve``
    gives on the same game.  The loop certifies each such reading and
    does not solve that game; it solves every other game once, and no
    partial game it solves is lost."""
    G, predicates = _problem(problem)
    objective = _spec(spec)
    solved, certified = [], []
    real_solve, certify = surveil.cegar.solve, surveil.cegar._certified

    def counted_solve(arena, objective):
        result = real_solve(arena, objective)
        solved.append((arena.partial, result.agent_wins))
        return result

    def counted_certify(G, Q, game, *args):
        certified.append(game)
        return certify(G, Q, game, *args)

    monkeypatch.setattr(surveil.cegar, "solve", counted_solve)
    monkeypatch.setattr(surveil.cegar, "_certified", counted_certify)
    _, built = _recorded_run(monkeypatch, G, objective, predicates)
    read = [game for _, game in built if game.reading is not None]
    assert [id(g) for g in certified] == [id(g) for g in read]
    assert len(solved) == len(built) - len(read)
    assert (True, False) not in solved
    for Q, game in built:
        if game.reading is None:
            continue
        result = real_solve(make_arena(game, G, objective, predicates, partition=Q), objective)
        assert not result.agent_wins
        choice, mode = game.reading
        want = result.target_strategy
        assert mode == {i: want.mode[i] for i in mode}
        assert choice == {i: want.choice[i] for i in choice}
        # the reading covers the counterexample's states and no others
        graph = extract_cex_graph(game, want)
        assert {game.states[i] for i in mode} == set(graph.mode)
