"""End-to-end acceptance gate.

One test per shipped guarantee; the verbose pytest report gives one
pass/fail line per criterion.
"""

import random

import pytest

from conftest import (
    abstract_choices,
    alpha,
    build_hide_reveal_cex,
    graph_eliminated,
    invisible_succ,
    pillar_problem,
    refines,
)
from reference_game import tuple_moves
from surveil import (
    CONCRETIZABLE,
    BudgetExceeded,
    Partition,
    SurvAtom,
    annotate_tree,
    belief_successors,
    build_abstract_game,
    build_analysis_graph,
    build_game_structure,
    cegar_loop,
    extract_cex_graph,
    find_good_lasso,
    make_arena,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    refine_liveness,
    refine_safety,
    singletons,
    solve,
    trace_jsonl,
)
from surveil.cli import bundled_map
from surveil.structure import cell_mask


def test_criterion_1_fixture_fidelity(game5, rows_partition):
    # turn-based transitions out of the initial state
    assert set(game5.target_step(4, 18)) == {17, 19, 23}
    pairs = {
        (l_a2, l_t2)
        for l_t2 in game5.target_step(4, 18)
        for l_a2 in game5.succ_a(4, l_t2)
    }
    assert pairs == {(3, 17), (3, 19), (3, 23), (9, 17), (9, 19), (9, 23)}
    # belief-set successors of the initial belief state
    succs = belief_successors(game5, (4, frozenset({18})))
    states = {(l_a2, B) for B, replies in succs for l_a2 in replies}
    assert states == {
        (3, frozenset({19})),
        (9, frozenset({19})),
        (3, frozenset({17, 23})),
        (9, frozenset({17, 23})),
    }
    # abstract successors under the one-block-per-row partition
    blocks = alpha(rows_partition, {17, 23})
    asucc = abstract_choices(game5, rows_partition, (4, 18))
    astates = {(l_a2, A) for A, replies in asucc for l_a2 in replies}
    assert astates == {(3, 19), (9, 19), (3, blocks), (9, blocks)}
    # visibility of the relevant cells from the initial agent cell
    assert game5.vis(4, 18) is False
    assert game5.vis(4, 17) is False
    assert game5.vis(4, 19) is True
    assert game5.vis(4, 23) is False


def test_criterion_2_safety_analysis_and_refinement(game5, two_col_partition):
    obj = parse_spec("G p<=5")
    game = build_abstract_game(game5, two_col_partition)
    arena = make_arena(game, game5, obj, partition=two_col_partition)
    result = solve(arena, obj)
    assert not result.agent_wins
    cex = extract_cex_graph(arena, result.target_strategy)
    D = build_analysis_graph(game5, two_col_partition, cex)
    path = annotate_tree(game5, D, obj.safety_terms)
    assert path is not CONCRETIZABLE
    assert sorted(game5.cells_of(D.beliefs[path[-1]][1])) == [16, 18, 22, 24]
    refined = refine_safety(game5, two_col_partition, D, path)
    q1, q2 = sorted(two_col_partition.blocks.values(), key=min)
    # exactly two splits: the leaf belief out of each block, no backward
    # splits beyond that
    assert set(refined.blocks.values()) == {
        frozenset({16}),
        q1 - {16},
        frozenset({18, 22, 24}),
        q2 - {18, 22, 24},
    }


def test_criterion_3_liveness_analysis_and_refinement(game5, two_col_partition):
    cex = build_hide_reveal_cex(game5, two_col_partition)
    D = build_analysis_graph(game5, two_col_partition, cex)
    assert (19, 1 << 10) in D.beliefs
    lasso = find_good_lasso(game5, D, SurvAtom(2), ("avoid", 0))
    assert lasso is not None
    refined = refine_liveness(game5, two_col_partition, D, lasso)
    assert graph_eliminated(game5, two_col_partition, refined, cex)
    assert len(refined) <= 12
    assert len(refined) == 10  # pinned regression value
    assert refines(refined, two_col_partition)


def test_criterion_4_verdict_reproduction(game5):
    assert cegar_loop(game5, parse_spec("G p<=5")).verdict == "realizable"
    assert cegar_loop(game5, parse_spec("GF p<=2")).verdict == "realizable"
    assert cegar_loop(game5, parse_spec("G p<=2")).verdict == "unrealizable"


def test_criterion_5_oracle_equivalence(game5, goal_pred):
    Q = singletons(game5)
    exact = build_abstract_game(game5, Q)
    specs = (
        [f"G p<={k}" for k in range(1, 7)]
        + [f"GF p<={k}" for k in range(1, 7)]
        + ["G p<=5 & GF p<=2", "GF p<=1 & GF goal"]
    )
    for spec in specs:
        obj = parse_spec(spec)
        preds = goal_pred if "goal" in spec else None
        arena = make_arena(exact, game5, obj, preds, Q)
        oracle = solve(arena, obj).agent_wins
        out = cegar_loop(game5, obj, predicates=preds)
        assert (out.verdict == "realizable") == oracle, spec


@pytest.mark.parametrize(
    "problem, spec",
    [("bigroom", "bigroom_liveness.spec"), ("bigroom", "bigroom_safety.spec")]
    + [(f"pillars{n}", f"G p<={k}") for n in (12, 16) for k in (2, 4)],
)
def test_criterion_5_oracle_equivalence_beyond_paper5x5(problem, spec):
    """The CEGAR verdict equals the exact oracle's, on bigroom and on
    seed 1 of the benchmark's pillar maps.  Like ``surveil oracle``, the
    exact game is built for the spec's safety terms."""
    if problem == "bigroom":
        map_text, cfg_text, spec = map(bundled_map, ("bigroom.txt", "bigroom.cfg", spec))
    else:
        map_text, cfg_text = pillar_problem(int(problem[len("pillars"):]), 1)
    grid = parse_grid(map_text)
    G = build_game_structure(grid, *parse_config(cfg_text))
    preds = predicates_from_grid(grid)
    obj = parse_spec(spec)
    Q = singletons(G)
    exact = build_abstract_game(G, Q, safety=obj.safety_terms, predicates=preds)
    oracle = solve(make_arena(exact, G, obj, preds, Q), obj).agent_wins
    out = cegar_loop(G, obj, predicates=preds)
    assert (out.verdict == "realizable") == oracle


def test_criterion_6_invariant_suites(game5, grid5, rows_partition):
    rng = random.Random(20240817)
    locs = sorted(game5.target_locations)
    # concretization of abstraction never loses locations, and splitting
    # never coarsens
    for _ in range(1000):
        cells = frozenset(rng.sample(locs, rng.randint(1, len(locs))))
        over = rows_partition.gamma(alpha(rows_partition, cells))
        assert cells <= over
        sep = frozenset(rng.sample(locs, rng.randint(1, len(locs))))
        finer = rows_partition.split(-1, cell_mask(sep))
        assert refines(finer, rows_partition)
        assert cells <= finer.gamma(alpha(finer, cells)) <= over
    # belief shape on every reachable exact state: a visible location or
    # the set of all cells the target lands on unseen from the belief
    Q = singletons(game5)
    exact = build_abstract_game(game5, Q)
    for (l_a, B), moves in tuple_moves(exact).items():
        for B2, _ in moves:
            if isinstance(B2, int):
                assert game5.vis(l_a, B2)
            else:
                assert B2 == invisible_succ(game5, l_a, Q.gamma(B))
    # replay soundness and byte determinism
    from surveil import RandomPolicy, export_strategy, load_runner, simulate

    out = cegar_loop(game5, parse_spec("G p<=5"))
    payload = export_strategy(out.arena, out.strategy, "", out.final_partition)
    outputs = []
    for attempt in range(2):
        lines = []
        for seed in range(100):
            runner = load_runner(game5, payload)
            trace = simulate(game5, grid5, runner, RandomPolicy(seed), steps=10)
            lines.append(trace_jsonl(trace))
        outputs.append("".join(lines))
    assert outputs[0] == outputs[1]


def test_criterion_7_scale_sanity():
    grid = parse_grid(bundled_map("liveness10x15.txt"))
    motion, vision = parse_config(bundled_map("liveness10x15.cfg"))
    G = build_game_structure(grid, motion, vision)
    locs = sorted(G.target_locations)
    bands: dict[int, set] = {}
    for c in locs:
        bands.setdefault(min((c // grid.cols) * 7 // grid.rows, 6), set()).add(c)
    Q = Partition(
        {k: frozenset(v) for k, v in bands.items()}, frozenset(locs)
    )
    assert len(Q) == 7
    game = build_abstract_game(G, Q)
    agents = {s[0] for s in game.states}
    set_beliefs = {s[1] for s in game.states if not isinstance(s[1], int)}
    assert len(agents) + len(set_beliefs) <= 150 + 2**7
    with pytest.raises(BudgetExceeded):
        build_abstract_game(G, singletons(G), max_states=50_000)
