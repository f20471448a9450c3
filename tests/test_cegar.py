import re

import networkx as nx
import pytest

from conftest import build_hide_reveal_cex, graph_eliminated, tree_eliminated
from surveil import (
    CONCRETIZABLE,
    BudgetExceeded,
    CegarOutcome,
    IterationBudgetExceeded,
    SurvAtom,
    annotate_tree,
    build_abstract_game,
    build_analysis_graph,
    build_belief_game,
    cegar_loop,
    extract_cex_graph,
    extract_cex_tree,
    find_good_lasso,
    initial_partition,
    invisible_count,
    make_arena,
    parse_spec,
    refine_liveness,
    refine_safety,
    refines,
    solve,
)


@pytest.fixture(scope="module")
def safety_tree(game5, two_col_partition):
    """Spurious counterexample tree for G p<=5 on the two-column split."""
    obj = parse_spec("G p<=5")
    game = build_abstract_game(game5, two_col_partition)
    arena = make_arena(game, game5, obj, partition=two_col_partition)
    result = solve(arena, obj)
    assert not result.agent_wins
    return extract_cex_tree(arena, result, obj)


def test_annotate_tree_returns_expected_path(game5, two_col_partition, safety_tree):
    path = annotate_tree(game5, two_col_partition, safety_tree)
    assert path is not CONCRETIZABLE
    assert [sorted(n.annotation) for n in path] == [
        [18],
        [17, 23],
        [16, 18, 22, 24],
    ]


def test_refine_safety_splits_both_blocks(game5, two_col_partition, safety_tree):
    q1, q2 = sorted(two_col_partition.blocks.values(), key=min)
    path = annotate_tree(game5, two_col_partition, safety_tree)
    refined = refine_safety(game5, two_col_partition, path)
    # the leaf belief is split out of each block; nothing else moves
    assert set(refined.blocks.values()) == {
        frozenset({16}),
        q1 - {16},
        frozenset({18, 22, 24}),
        q2 - {18, 22, 24},
    }
    assert refines(refined, two_col_partition)


def test_refine_safety_eliminates_tree(game5, two_col_partition, safety_tree):
    path = annotate_tree(game5, two_col_partition, safety_tree)
    refined = refine_safety(game5, two_col_partition, path)
    assert tree_eliminated(game5, two_col_partition, refined, safety_tree)


def test_concrete_tree_is_not_spurious(game5):
    """On the final partition of an unrealizable run, annotation confirms
    the counterexample: every leaf belief genuinely violates safety."""
    out = cegar_loop(game5, parse_spec("G p<=2"))
    assert out.verdict == "unrealizable"
    result = annotate_tree(game5, out.final_partition, out.counterexample)
    assert result is CONCRETIZABLE


def test_hide_reveal_graph_is_a_valid_counterexample(game5, two_col_partition):
    """Every cycle reachable in the hand-built graph stays imprecise: no
    node on a cycle has at most two invisible belief cells."""
    cex = build_hide_reveal_cex(game5, two_col_partition)
    g = nx.DiGraph()
    for v, kids in cex.edges.items():
        for k in kids:
            g.add_edge(v, k)
    for scc in nx.strongly_connected_components(g):
        if g.subgraph(scc).number_of_edges() == 0:
            continue
        for l_a, label, _ in scc:
            gamma = two_col_partition.gamma(label)
            assert invisible_count(game5, l_a, gamma) > 2


def test_analysis_graph_narrows_belief_to_single_cell(game5, two_col_partition):
    """Forward propagation over the reveal-once strategy pins the target:
    after the reveal at 15 and one hidden move, the belief at agent cell
    19 is exactly {10}."""
    cex = build_hide_reveal_cex(game5, two_col_partition)
    D = build_analysis_graph(game5, two_col_partition, cex)
    assert (19, frozenset({10})) in D.beliefs


def test_analysis_graph_beliefs_contained_in_labels(game5, two_col_partition):
    cex = build_hide_reveal_cex(game5, two_col_partition)
    D = build_analysis_graph(game5, two_col_partition, cex)
    for (l_a, belief), (l_a2, label, _) in zip(D.beliefs, D.cex_states):
        assert l_a == l_a2
        if isinstance(label, int):
            assert belief <= {label}
        else:
            assert belief <= two_col_partition.gamma(label)


def test_good_lasso_and_liveness_refinement(game5, two_col_partition):
    cex = build_hide_reveal_cex(game5, two_col_partition)
    D = build_analysis_graph(game5, two_col_partition, cex)
    lasso = find_good_lasso(game5, D, SurvAtom(2))
    assert lasso is not None
    stem, cycle = lasso
    assert stem[0] == D.initial
    assert stem[-1] == cycle[0] == cycle[-1]
    good = [i for i in cycle if invisible_count(game5, *D.beliefs[i]) <= 2]
    assert good
    refined = refine_liveness(game5, two_col_partition, D, lasso)
    assert len(refined) == 10
    assert refines(refined, two_col_partition)
    assert graph_eliminated(game5, two_col_partition, refined, cex)


def test_extracted_liveness_counterexample_also_refines(game5, two_col_partition):
    """The solver's own counterexample for GF p<=2 on the coarse split is
    spurious as well and refinement eliminates it."""
    obj = parse_spec("GF p<=2")
    game = build_abstract_game(game5, two_col_partition)
    arena = make_arena(game, game5, obj, partition=two_col_partition)
    result = solve(arena, obj)
    assert not result.agent_wins
    cex = extract_cex_graph(arena, result)
    D = build_analysis_graph(game5, two_col_partition, cex)
    lasso = find_good_lasso(game5, D, SurvAtom(2))
    assert lasso is not None
    refined = refine_liveness(game5, two_col_partition, D, lasso)
    assert graph_eliminated(game5, two_col_partition, refined, cex)


def test_verdicts(game5):
    assert cegar_loop(game5, parse_spec("G p<=5")).verdict == "realizable"
    assert cegar_loop(game5, parse_spec("GF p<=2")).verdict == "realizable"
    assert cegar_loop(game5, parse_spec("G p<=2")).verdict == "unrealizable"


def test_cegar_verdicts_match_exact_game(game5, goal_pred):
    exact = build_belief_game(game5)
    for spec in ("G p<=1", "G p<=4", "GF p<=1", "GF p<=1 & GF goal"):
        obj = parse_spec(spec)
        preds = goal_pred if "goal" in spec else None
        arena = make_arena(exact, game5, obj, preds)
        oracle = solve(arena, obj).agent_wins
        out = cegar_loop(game5, obj, predicates=preds)
        assert (out.verdict == "realizable") == oracle, spec


def test_transcript_format(game5):
    out = cegar_loop(game5, parse_spec("G p<=5"))
    assert len(out.transcript) == out.iterations
    for line in out.transcript[:-1]:
        assert re.fullmatch(
            r"iter=\d+ blocks=\d+ verdict=continue action=refine->\d+", line
        )
    assert re.fullmatch(
        r"iter=\d+ blocks=\d+ verdict=(un)?realizable action=stop",
        out.transcript[-1],
    )


def test_partition_grows_monotonically(game5):
    out = cegar_loop(game5, parse_spec("G p<=5"))
    sizes = [int(re.search(r"blocks=(\d+)", ln).group(1)) for ln in out.transcript]
    assert sizes == sorted(sizes)
    assert len(out.final_partition) >= sizes[-1]


def test_cegar_deterministic(game5):
    a = cegar_loop(game5, parse_spec("GF p<=2"))
    b = cegar_loop(game5, parse_spec("GF p<=2"))
    assert a.transcript == b.transcript
    assert a.final_partition.blocks == b.final_partition.blocks


def test_realizable_outcome_carries_strategy(game5):
    out = cegar_loop(game5, parse_spec("G p<=5"))
    assert out.strategy is not None
    assert out.arena is not None
    assert out.counterexample is None


def test_unrealizable_outcome_carries_counterexample(game5):
    out = cegar_loop(game5, parse_spec("G p<=2"))
    assert out.strategy is None
    assert out.counterexample is not None


def test_outcome_rejects_unknown_verdict(game5):
    with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
        CegarOutcome("maybe", 1, initial_partition(game5), [])


def test_iteration_budget(game5):
    with pytest.raises(IterationBudgetExceeded):
        cegar_loop(game5, parse_spec("G p<=5"), max_iters=1)


def test_state_budget(game5):
    with pytest.raises(BudgetExceeded):
        cegar_loop(game5, parse_spec("G p<=5"), max_states=10)
