import json
import re
from itertools import compress

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_analysis
import reference_cex_tree
import reference_lasso
import reference_partition
import surveil.cegar
from conftest import (
    build_hide_reveal_cex,
    graph_eliminated,
    random_problems,
    refines,
    tree_eliminated,
)
from surveil import (
    CONCRETIZABLE,
    BudgetExceeded,
    CegarOutcome,
    IterationBudgetExceeded,
    Partition,
    PartitionError,
    PredicateDef,
    RefinementError,
    SolverError,
    SurvAtom,
    annotate_tree,
    build_abstract_game,
    build_analysis_graph,
    build_game_structure,
    cegar_loop,
    extract_cex_graph,
    find_good_lasso,
    initial_partition,
    invisible_count,
    make_arena,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    refine_liveness,
    singletons,
    refine_safety,
    solve,
    split_along,
    validate_assumptions,
)
from surveil.belief import atom_test
from surveil.cegar import AnalysisGraphD
from surveil.cli import bundled_map, main
from surveil.objective import TaskAtom
from surveil.structure import cell_mask


def _safety_cex(G, Q, obj):
    """The solver's counterexample for the safety spec ``obj`` on ``Q``
    and its analysis graph."""
    game = build_abstract_game(G, Q)
    arena = make_arena(game, G, obj, partition=Q)
    result = solve(arena, obj)
    assert not result.agent_wins
    cex = extract_cex_graph(arena, result.target_strategy)
    return cex, build_analysis_graph(G, Q, cex)


def _distinct_nodes(tree) -> list:
    """The node objects of a counterexample tree, each once."""
    seen, stack = {}, [tree.root]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack.extend(n.children)
    return list(seen.values())


@pytest.fixture(scope="module")
def safety_cex(game5, two_col_partition):
    """Spurious counterexample for G p<=5 on the two-column split, with
    its analysis graph."""
    return _safety_cex(game5, two_col_partition, parse_spec("G p<=5"))


def test_annotate_tree_returns_expected_path(game5, two_col_partition, safety_cex):
    _, D = safety_cex
    path = annotate_tree(game5, D, parse_spec("G p<=5").safety_terms)
    assert path is not CONCRETIZABLE
    assert [sorted(game5.cells_of(D.beliefs[i][1])) for i in path] == [
        [18],
        [17, 23],
        [16, 18, 22, 24],
    ]


def test_refine_safety_splits_both_blocks(game5, two_col_partition, safety_cex):
    q1, q2 = sorted(two_col_partition.blocks.values(), key=min)
    _, D = safety_cex
    path = annotate_tree(game5, D, parse_spec("G p<=5").safety_terms)
    refined = refine_safety(game5, two_col_partition, D, path)
    # the leaf belief is split out of each block; nothing else moves
    assert set(refined.blocks.values()) == {
        frozenset({16}),
        q1 - {16},
        frozenset({18, 22, 24}),
        q2 - {18, 22, 24},
    }
    assert refines(refined, two_col_partition)


def test_refine_safety_eliminates_tree(game5, two_col_partition, safety_cex):
    cex, D = safety_cex
    safety = parse_spec("G p<=5").safety_terms
    path = annotate_tree(game5, D, safety)
    refined = refine_safety(game5, two_col_partition, D, path)
    assert tree_eliminated(game5, two_col_partition, refined, cex, safety)


def test_concrete_tree_is_not_spurious(game5):
    """On the final partition of an unrealizable run, annotation confirms
    the counterexample: every leaf belief genuinely violates safety."""
    obj = parse_spec("G p<=2")
    out = cegar_loop(game5, obj)
    assert out.verdict == "unrealizable"
    _, D = _safety_cex(game5, out.final_partition, obj)
    result = annotate_tree(game5, D, obj.safety_terms)
    assert result is CONCRETIZABLE
    # the outcome's tree carries those beliefs, one node per graph node
    nodes = _distinct_nodes(out.counterexample)
    assert len(nodes) == len(D)
    for n in nodes:
        if not n.children:
            assert invisible_count(game5, n.state[0], n.annotation) > 2


def test_annotate_tree_rejects_a_cycle(game5, two_col_partition, safety_cex):
    """A cycle above the sinks would make the memo unsound: the walk
    refuses it instead of looping."""
    _, D = safety_cex
    safety = parse_spec("G p<=5").safety_terms
    path = annotate_tree(game5, D, safety)
    edges = list(D.edges)
    edges[path[1]] = (path[0],) + edges[path[1]]
    looped = AnalysisGraphD(D.beliefs, D.cex_states, D.modes, edges, D.parent)
    with pytest.raises(RefinementError):
        annotate_tree(game5, looped, safety)


def _bundled_problem(name):
    grid = parse_grid(bundled_map(f"{name}.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map(f"{name}.cfg")))
    return G, predicates_from_grid(grid)


def _lost_games(monkeypatch, G, obj, predicates):
    """``(partition, arena, result)`` of every game that the CEGAR loop
    loses to the target on ``obj``, each solved here: the loop does not
    solve a game the builder found lost."""
    built = []
    build = surveil.cegar.build_abstract_game

    def recorded(G, Q, *args, **kwargs):
        built.append((Q, build(G, Q, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(surveil.cegar, "build_abstract_game", recorded)
    cegar_loop(G, obj, predicates=predicates)
    lost = []
    for Q, game in built:
        arena = make_arena(game, G, obj, predicates, partition=Q)
        result = solve(arena, obj)
        if not result.agent_wins:
            lost.append((Q, arena, result))
    return lost


@pytest.mark.parametrize(
    "name, spec",
    [("paper5x5", f"G p<={k}") for k in range(1, 9)]
    + [("bigroom", f"G p<={k}") for k in range(1, 7)],
)
def test_safety_walk_matches_tree_reference(monkeypatch, name, spec):
    """On every game the CEGAR loop loses to the target, the walk over
    the analysis graph finds the reference tree walk's path, or its
    CONCRETIZABLE verdict."""
    G, predicates = _bundled_problem(name)
    obj = parse_spec(spec)
    lost = _lost_games(monkeypatch, G, obj, predicates)
    assert lost
    for Q, arena, result in lost:
        root = reference_cex_tree.unfold(arena, result, obj)
        want = reference_cex_tree.first_good_path(G, Q, root, obj.safety_terms, predicates)
        D = build_analysis_graph(G, Q, extract_cex_graph(arena, result.target_strategy))
        got = annotate_tree(G, D, obj.safety_terms, predicates)
        if want is CONCRETIZABLE:
            assert got is CONCRETIZABLE
        else:
            got = [(D.beliefs[i][0], D.cex_states[i][1], G.cells_of(D.beliefs[i][1])) for i in got]
            assert got == want


@pytest.mark.parametrize(
    "name, spec, games",
    [("paper5x5", f"G p<={k}", None) for k in range(1, 4)]
    + [("paper5x5", f"GF p<={k}", None) for k in range(1, 4)]
    + [("paper5x5", "G p<=5 & GF p<=2", None), ("bigroom", "GF p<=10 & GF goal", 1)],
)
def test_analysis_graph_matches_set_reference(monkeypatch, name, spec, games):
    """The analysis graph of every game the loop loses (of the first
    ``games`` of them, if given), with beliefs as cell masks, is the
    set-based reference graph node by node: the same beliefs, states,
    modes, edges and parents."""
    G, predicates = _bundled_problem(name)
    lost = _lost_games(monkeypatch, G, parse_spec(spec), predicates)[:games]
    assert lost
    for Q, arena, result in lost:
        cex = extract_cex_graph(arena, result.target_strategy)
        D = build_analysis_graph(G, Q, cex)
        want = reference_analysis.build_analysis_graph(G, Q, cex)
        assert [(l_a, G.cells_of(b)) for l_a, b in D.beliefs] == want.beliefs
        assert (D.cex_states, D.modes, D.edges, D.parent) == (
            want.cex_states, want.modes, want.edges, want.parent
        )


def test_analysis_graph_bounds_the_safety_analysis(monkeypatch):
    """liveness10x15 ``G p<=12``, whose tree unfolding has millions of
    nodes, is decided with small analysis graphs."""
    G, predicates = _bundled_problem("liveness10x15")
    sizes = []
    build = surveil.cegar.build_analysis_graph

    def built(*args):
        D = build(*args)
        sizes.append(len(D))
        return D

    monkeypatch.setattr(surveil.cegar, "build_analysis_graph", built)
    out = cegar_loop(G, parse_spec("G p<=12"), predicates=predicates)
    assert (out.verdict, out.iterations) == ("realizable", 8)
    assert sizes and max(sizes) <= 10_000


def test_counterexample_tree_shares_its_nodes():
    """The unrealizable tree of bigroom ``G p<=3`` has no more distinct
    nodes than its analysis graph, and unfolds to the reference tree."""
    G, predicates = _bundled_problem("bigroom")
    obj = parse_spec("G p<=3")
    out = cegar_loop(G, obj, predicates=predicates)
    assert out.verdict == "unrealizable"
    result = solve(out.arena, obj)
    cex = extract_cex_graph(out.arena, result.target_strategy)
    D = build_analysis_graph(G, out.final_partition, cex)
    assert len(_distinct_nodes(out.counterexample)) <= len(D)
    want = reference_cex_tree.unfold(out.arena, result, obj)
    reference_cex_tree.first_good_path(G, out.final_partition, want, obj.safety_terms)
    pairs = zip(reference_cex_tree.nodes(want), reference_cex_tree.nodes(out.counterexample.root))
    for a, b in pairs:
        assert (a.state, a.choice, a.annotation) == (b.state, b.choice, b.annotation)
        assert len(a.children) == len(b.children)


@pytest.mark.parametrize(
    "name, spec", [("paper5x5", "G p<=1"), ("paper5x5", "G p<=2"), ("bigroom", "G p<=3")]
)
def test_safety_dump_unfolds_to_the_reference_tree(tmp_path, name, spec):
    """The unrealizable safety dump, a graph, unfolded from its initial
    node along its edges is the reference tree of the target's strategy
    annotated with exact beliefs: node by node, the same agent cell,
    belief and number of children."""
    (tmp_path / "spec.txt").write_text(spec + "\n")
    out = tmp_path / "cex.json"
    code = main(["synth", "--map", f"bundled:{name}.txt", "--config", f"bundled:{name}.cfg",
                 "--spec", str(tmp_path / "spec.txt"), "--out", str(out)])
    assert code == 10
    dump = json.loads(out.read_text())
    assert dump["kind"] == "graph"
    G, predicates = _bundled_problem(name)
    obj = parse_spec(spec)
    outcome = cegar_loop(G, obj, predicates=predicates)
    root = reference_cex_tree.unfold(outcome.arena, solve(outcome.arena, obj), obj)
    annotated = reference_cex_tree.first_good_path(
        G, outcome.final_partition, root, obj.safety_terms, predicates
    )
    # no leaf's belief is safe, so the walk annotated every node
    assert annotated is CONCRETIZABLE
    nodes, edges = dump["nodes"], dump["edges"]
    stack = [(root, dump["initial"])]
    while stack:
        want, i = stack.pop()
        got, out_edges = nodes[i], edges[str(i)]
        assert (got["agent"], got["belief"], len(out_edges)) == (
            want.state[0], sorted(want.annotation), len(want.children)
        )
        # the replies to one target move put the agent on distinct cells
        child_of = {nodes[j]["agent"]: j for j in out_edges}
        assert sorted(child_of) == sorted(c.state[0] for c in want.children)
        stack.extend((c, child_of[c.state[0]]) for c in want.children)


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
    assert (19, 1 << 10) in D.beliefs


def test_analysis_graph_beliefs_contained_in_labels(game5, two_col_partition):
    cex = build_hide_reveal_cex(game5, two_col_partition)
    D = build_analysis_graph(game5, two_col_partition, cex)
    for (l_a, belief), (l_a2, label, _) in zip(D.beliefs, D.cex_states):
        assert l_a == l_a2
        if isinstance(label, int):
            assert game5.cells_of(belief) <= {label}
        else:
            assert game5.cells_of(belief) <= two_col_partition.gamma(label)


def test_good_lasso_and_liveness_refinement(game5, two_col_partition):
    cex = build_hide_reveal_cex(game5, two_col_partition)
    D = build_analysis_graph(game5, two_col_partition, cex)
    lasso = find_good_lasso(game5, D, SurvAtom(2), ("avoid", 0))
    assert lasso is not None
    stem, cycle = lasso
    assert stem[0] == 0
    assert stem[-1] == cycle[0] == cycle[-1]
    beliefs = [(l_a, game5.cells_of(b)) for l_a, b in D.beliefs]
    good = [i for i in cycle if invisible_count(game5, *beliefs[i]) <= 2]
    assert good
    refined = refine_liveness(game5, two_col_partition, D, lasso)
    assert len(refined) == 10
    assert refines(refined, two_col_partition)
    assert graph_eliminated(game5, two_col_partition, refined, cex)


# the agent cells and target cells of the random analysis graphs below,
# all of them free cells of the 5x5 map
CELLS = (0, 4, 16, 17, 18, 22, 23)
MODES = (("avoid", 0), ("avoid", 1), ("reach", 1))
# a task atom that holds on agent cells 0 and 4; it holds vacuously on
# an empty belief, so the beliefs of TOP and SIDE are not empty
ON_TOP = {"top": PredicateDef("top", frozenset({0, 4}))}
TOP, SIDE = (0, 1 << 18), (16, 1 << 18)


def _graph(beliefs, edges, modes=None):
    """An analysis graph over the given beliefs, with every node's parent
    the node before it, and every node of mode ``("avoid", 0)`` unless
    ``modes`` says otherwise."""
    n = len(beliefs)
    modes = modes or [("avoid", 0)] * n
    return AnalysisGraphD(beliefs, list(beliefs), modes, edges, [None, *range(n - 1)])


@st.composite
def lasso_problems(draw):
    """A random analysis graph, an atom and a restricting mode.
    A node's edges may be empty, repeated or a self-loop."""
    n = draw(st.integers(1, 9))
    cells = st.sampled_from(CELLS)
    beliefs = [(draw(cells), cell_mask(draw(st.frozensets(cells, max_size=4)))) for _ in range(n)]
    modes = draw(st.lists(st.sampled_from(MODES), min_size=n, max_size=n))
    edges = [tuple(draw(st.lists(st.integers(0, n - 1), max_size=3))) for _ in range(n)]
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    D = AnalysisGraphD(beliefs, list(beliefs), modes, edges, parent)
    atom = draw(st.sampled_from((SurvAtom(1), SurvAtom(2), TaskAtom("top"))))
    return D, atom, draw(st.sampled_from(MODES))


@settings(max_examples=500, deadline=None)
@given(problem=lasso_problems())
@example(problem=(_graph([TOP], [(0,)]), TaskAtom("top"), ("avoid", 0)))
@example(problem=(_graph([TOP] * 3, [()] * 3), TaskAtom("top"), ("avoid", 0)))
@example(
    problem=(
        _graph([TOP, SIDE, SIDE], [(1,), (2,), (1,)]),
        TaskAtom("top"),
        ("avoid", 0),
    )
)
def test_find_good_lasso_matches_per_node_search(game5, problem):
    """One pass over the strongly connected components finds exactly the
    lasso that one breadth-first search per good node finds."""
    D, atom, mode = problem
    want = reference_lasso.find_good_lasso(game5, D, atom, mode, ON_TOP)
    assert find_good_lasso(game5, D, atom, mode, ON_TOP) == want


def test_find_good_lasso_cases(game5):
    top, avoid0 = TaskAtom("top"), ("avoid", 0)
    # a self-loop is a cycle of one node
    D = _graph([SIDE, TOP], [(1,), (1,)])
    assert find_good_lasso(game5, D, top, avoid0, ON_TOP) == ([0, 1], [1, 1])
    # nodes without edges lie on no cycle
    assert find_good_lasso(game5, _graph([TOP, TOP], [(), ()]), top, avoid0, ON_TOP) is None
    # the cycle holds no good node; the good node leads into it
    D = _graph([TOP, SIDE, SIDE], [(1,), (2,), (1,)])
    assert find_good_lasso(game5, D, top, avoid0, ON_TOP) is None
    # the first good node on a cycle, and the shortest way back to it
    D = _graph([SIDE, TOP, TOP, SIDE], [(1,), (2,), (3, 1), (1, 2)])
    assert find_good_lasso(game5, D, top, avoid0, ON_TOP) == ([0, 1], [1, 2, 1])
    # of two shortest cycles, the one through the first neighbour
    D = _graph([TOP, SIDE, SIDE], [(1, 2), (0,), (0,)])
    assert find_good_lasso(game5, D, top, avoid0, ON_TOP) == ([0], [0, 1, 0])
    # a cycle through a node of another mode does not count under a mode
    modes = [("avoid", 0), ("avoid", 0), ("avoid", 1)]
    D = _graph([SIDE, TOP, SIDE], [(1,), (2,), (1,)], modes)
    assert find_good_lasso(game5, D, top, avoid0, ON_TOP) is None
    assert find_good_lasso(game5, D, top, ("avoid", 1), ON_TOP) is None


def test_extracted_liveness_counterexample_also_refines(game5, two_col_partition):
    """The solver's own counterexample for GF p<=2 on the coarse split is
    spurious as well and refinement eliminates it."""
    obj = parse_spec("GF p<=2")
    game = build_abstract_game(game5, two_col_partition)
    arena = make_arena(game, game5, obj, partition=two_col_partition)
    result = solve(arena, obj)
    assert not result.agent_wins
    cex = extract_cex_graph(arena, result.target_strategy)
    D = build_analysis_graph(game5, two_col_partition, cex)
    lasso = find_good_lasso(game5, D, SurvAtom(2), ("avoid", 0))
    assert lasso is not None
    refined = refine_liveness(game5, two_col_partition, D, lasso)
    assert graph_eliminated(game5, two_col_partition, refined, cex)


# every spec has a recurrence term, so lasso witnesses turn up
WITNESS_SPECS = ("GF goal", "GF p<=1", "GF p<=1 & GF goal", "G p<=2 & GF goal", "G p<=1 & GF p<=2")


# an example's cost grows with its counterexample graph, which varies
# widely between draws; a fixed draw keeps the test's time fixed
@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_problems(), st.data())
def test_every_witness_splits_a_block(problem, data):
    """The progress lemma of ``_refine_along``: on a random split of the
    initial partition, the backward split along the stem of every
    strict-subset node, and along stem + cycle of every good lasso,
    adds a block."""
    G = build_game_structure(*problem)
    if not validate_assumptions(G).ok:
        return
    cells = sorted(G.target_locations)
    goal = data.draw(st.frozensets(st.sampled_from(sorted(G.agent_locations)), min_size=1))
    predicates = {"goal": PredicateDef("goal", goal)}
    masks = st.frozensets(st.sampled_from(cells)).map(cell_mask)
    Q = initial_partition(G, predicates.values()).split(-1, data.draw(masks))
    Q = Q.split(data.draw(masks), data.draw(masks))
    obj = parse_spec(data.draw(st.sampled_from(WITNESS_SPECS)))
    game = build_abstract_game(G, Q, 100_000, obj.safety_terms, predicates)
    arena = make_arena(game, G, obj, predicates, partition=Q)
    result = solve(arena, obj)
    if result.agent_wins:
        return
    D = build_analysis_graph(G, Q, extract_cex_graph(arena, result.target_strategy))

    def splits(path):
        pairs = [(D.beliefs[i][0], D.cex_states[i][1], D.beliefs[i][1]) for i in path]
        return len(split_along(G, Q, pairs)) > len(Q)

    for i, (_, belief) in enumerate(D.beliefs):
        label = D.cex_states[i][1]
        if isinstance(label, int):
            continue
        g = Q.gamma_mask(label)
        if belief != g and not belief & ~g:
            assert splits(D.stem(i))
    for j, atom in enumerate(obj.recurrence_terms):
        test = atom_test(G, atom, predicates)
        allowed = {i for i, m in enumerate(D.modes) if m == ("avoid", j)}
        for g in compress(range(len(D)), surveil.cegar._on_cycle(D.edges, allowed)):
            l_a, belief = D.beliefs[g]
            if test(l_a, belief):
                assert not test(l_a, Q.gamma_mask(D.cex_states[g][1]))
                cycle = surveil.cegar._cycle(D.edges, g, allowed)
                assert splits(D.stem(g) + cycle[1:])


def _block_table(Q) -> tuple:
    """A partition's blocks in order, with their ids, and its next id."""
    return list(Q.blocks.items()), Q.next_id


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_problems(), st.data())
def test_mask_refinement_equals_one_partition_per_split(problem, data):
    """``Partition.split``, ``meet`` and ``split_along`` (with a stem met
    in, as ``_refine_along`` refines) split a table of block masks and
    build one partition at the end; ``reference_partition`` builds a
    partition per split from frozensets.  On random partitions, scopes,
    separators and witness paths both give the same blocks in the same
    order, the same ids and the same ``next_id``."""
    G = build_game_structure(*problem)
    cells = sorted(G.target_locations)
    masks = st.frozensets(st.sampled_from(cells)).map(cell_mask)
    Q = initial_partition(G)
    for _ in range(data.draw(st.integers(0, 3))):
        scope, separator = data.draw(st.just(-1) | masks), data.draw(masks)
        split = Q.split(scope, separator)
        assert _block_table(split) == _block_table(reference_partition.split(Q, scope, separator))
        assert split.masks == {b: cell_mask(c) for b, c in sorted(split.blocks.items())}
        assert split == Partition(split.blocks, split.universe, split.next_id)
        Q = split
    other = initial_partition(G).split(-1, data.draw(masks)).split(-1, data.draw(masks))
    assert _block_table(Q.meet(other)) == _block_table(reference_partition.meet(Q, other))
    # a witness path: agent cells, labels (a cell, or a set of Q's blocks)
    # and exact beliefs, the last label a block set
    ids = sorted(Q.blocks)
    labels = st.sampled_from(cells) | st.frozensets(st.sampled_from(ids), min_size=1)
    pair = st.tuples(st.sampled_from(sorted(G.agent_locations)), labels, masks)
    pairs = data.draw(st.lists(pair, min_size=1, max_size=5))
    last = data.draw(st.frozensets(st.sampled_from(ids), min_size=1))
    pairs[-1] = (pairs[-1][0], last, pairs[-1][2])
    stem = data.draw(st.integers(0, len(pairs) - 1))
    assert _block_table(split_along(G, Q, pairs)) == _block_table(
        reference_partition.split_along(G, Q, pairs)
    )
    expected = reference_partition.refine_along(G, Q, pairs, stem)
    assert _block_table(split_along(G, Q, pairs, stem)) == _block_table(expected)


def test_refined_partition_is_checked_on_its_masks(rows_partition):
    """A refinement's blocks are checked on their masks: a table that
    leaves a cell out, or holds it twice, raises ``PartitionError``."""
    masks, blocks = rows_partition.masks, rows_partition.blocks
    low = min(masks)
    with pytest.raises(PartitionError, match="empty or not disjoint"):
        rows_partition._refined(blocks, {**masks, 99: masks[low]}, 100)
    with pytest.raises(PartitionError, match="empty or not disjoint"):
        rows_partition._refined(blocks, {**masks, 99: 0}, 100)
    with pytest.raises(PartitionError, match="do not cover"):
        rows_partition._refined(blocks, {b: m for b, m in masks.items() if b != low}, 100)


def test_verdicts(game5):
    assert cegar_loop(game5, parse_spec("G p<=5")).verdict == "realizable"
    assert cegar_loop(game5, parse_spec("GF p<=2")).verdict == "realizable"
    assert cegar_loop(game5, parse_spec("G p<=2")).verdict == "unrealizable"


def test_cegar_verdicts_match_exact_game(game5, goal_pred):
    Q = singletons(game5)
    exact = build_abstract_game(game5, Q)
    for spec in ("G p<=1", "G p<=4", "GF p<=1", "GF p<=1 & GF goal"):
        obj = parse_spec(spec)
        preds = goal_pred if "goal" in spec else None
        arena = make_arena(exact, game5, obj, preds, Q)
        oracle = solve(arena, obj).agent_wins
        out = cegar_loop(game5, obj, predicates=preds)
        assert (out.verdict == "realizable") == oracle, spec


@pytest.mark.parametrize("spec", ["G goal", "GF goal", "G p<=5 & GF goal"])
def test_cegar_rejects_undeclared_predicate_before_building(game5, spec):
    # one exception type, whether the undeclared atom is a safety term or not
    with pytest.raises(SolverError, match="undeclared task predicate 'goal'"):
        cegar_loop(game5, parse_spec(spec))


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


def test_recurrence_counterexample_nodes_compare_by_identity(game5, goal_pred):
    """The nodes of a recurrence counterexample form cycles: comparing
    or printing them does not walk the graph."""
    obj = parse_spec("GF p<=1 & GF goal")
    out = cegar_loop(game5, obj, predicates=goal_pred)
    again = cegar_loop(game5, obj, predicates=goal_pred)
    assert out.verdict == again.verdict == "unrealizable"
    assert out.counterexample.root == out.counterexample.root
    assert out.counterexample.root != again.counterexample.root
    assert len(repr(out.counterexample.root)) < 100


def test_outcome_rejects_unknown_verdict(game5):
    with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
        CegarOutcome("maybe", 1, initial_partition(game5), [])


def test_iteration_budget(game5):
    with pytest.raises(IterationBudgetExceeded):
        cegar_loop(game5, parse_spec("G p<=5"), max_iters=1)


def test_state_budget(game5):
    with pytest.raises(BudgetExceeded):
        cegar_loop(game5, parse_spec("G p<=5"), max_states=10)
