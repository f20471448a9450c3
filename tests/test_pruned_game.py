"""Games built for a spec's safety terms against the full games.

``build_abstract_game`` leaves a state that breaks a safety term
unexpanded.  These tests build the pruned and the full game at every
partition a CEGAR run visits, and under the singletons partition, which
gives the exact belief game, and check that the pruned game is the full
one cut at its unsafe states, and that solving either gives the same
verdict, winning region, controller and counterexample.
"""

import json

import pytest

import reference_game
import surveil.cegar
from conftest import atom_holds, members
from reference_game import tuple_moves
from surveil import (
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
    singletons,
    solve,
)
from surveil.belief import belief_key, label_json
from surveil.cegar import counterexample_tree
from surveil.cli import bundled_map

# the specs of acceptance criterion 5
PAPER_SPECS = (
    [f"G p<={k}" for k in range(1, 7)]
    + [f"GF p<={k}" for k in range(1, 7)]
    + ["G p<=5 & GF p<=2", "GF p<=1 & GF goal"]
)


def _state_json(state):
    return [state[0], label_json(state[1])]


def _tree_json(node):
    return {
        "state": _state_json(node.state),
        "choice": None if node.choice is None else label_json(node.choice),
        "belief": sorted(node.annotation),
        "children": [_tree_json(c) for c in node.children],
    }


def _graph_json(graph, drop_unsafe_choices=False):
    """A counterexample graph as JSON text; with ``drop_unsafe_choices``
    the choice of each unsafe sink is left out."""
    nodes = []
    for s in sorted(graph.edges, key=reference_game.state_key):
        node = {
            "state": _state_json(s),
            "mode": list(graph.mode[s]),
            "edges": [_state_json(t) for t in graph.edges[s]],
        }
        if not (drop_unsafe_choices and graph.mode[s] == ("unsafe",)):
            c = graph.choice[s]
            node["choice"] = None if c is None else label_json(c)
        nodes.append(node)
    return json.dumps({"initial": _state_json(graph.initial), "nodes": nodes})


def assert_pruned_equivalent(G, objective, predicates, partition):
    """The pruned game against the full one, for one objective, under
    ``partition``."""
    safety = objective.safety_terms
    ref = reference_game.build_abstract_game(G, partition)
    full = build_abstract_game(G, partition)
    pruned = build_abstract_game(G, partition, safety=safety, predicates=predicates)
    assert len(full) == len(ref)
    assert set(pruned.states) <= set(ref.moves)
    assert pruned.states[pruned.initial] == ref.initial

    def unsafe(state):
        l_a, label = state
        cells = partition.gamma(label)
        return not all(atom_holds(G, l_a, cells, a, predicates) for a in safety)

    moves = tuple_moves(pruned)
    # the states left without choices are exactly the unsafe ones
    assert {s for s, out in moves.items() if not out} == set(filter(unsafe, pruned.states))
    for s, out in moves.items():
        if out:
            want = sorted(ref.moves[s], key=lambda cr: belief_key(cr[0]))
            assert out == want, s

    arena_p = make_arena(pruned, G, objective, predicates, partition)
    arena_f = make_arena(full, G, objective, predicates, partition)
    for atom, mask in arena_p.atom_sets.items():
        assert {arena_p.states[i] for i in members(mask)} == {
            arena_f.states[i] for i in members(arena_f.atom_sets[atom])
        } & set(pruned.states)
    got, want = solve(arena_p, objective), solve(arena_f, objective)
    assert got.agent_wins == want.agent_wins
    assert {arena_p.states[i] for i in members(got.winning_region)} == {
        arena_f.states[i] for i in members(want.winning_region)
    } & set(pruned.states)
    if want.agent_wins:
        assert export_strategy(arena_p, got.agent_strategy, "d", partition) == export_strategy(
            arena_f, want.agent_strategy, "d", partition
        )
        return
    ts = got.target_strategy
    for i, c in ts.choice.items():
        assert (c is None) == (ts.mode[i] == ("unsafe",))
    graph_p = extract_cex_graph(arena_p, got.target_strategy)
    graph_f = extract_cex_graph(arena_f, want.target_strategy)
    if not objective.recurrence_terms:
        # the reported tree is a function of the analysis graph, so this
        # holds once the graphs match
        tree_p, tree_f = (
            counterexample_tree(G, build_analysis_graph(G, partition, g), g)
            for g in (graph_p, graph_f)
        )
        assert _tree_json(tree_p.root) == _tree_json(tree_f.root)
    assert all(graph_p.choice[s] is None for s, m in graph_p.mode.items() if m == ("unsafe",))
    assert _graph_json(graph_p, True) == _graph_json(graph_f, True)


def _visited_partitions(monkeypatch, G, objective, predicates):
    """The partitions a CEGAR run builds its games for, in order."""
    visited = []
    build = surveil.cegar.build_abstract_game

    def recorded(G, Q, *args, **kwargs):
        visited.append(Q)
        return build(G, Q, *args, **kwargs)

    monkeypatch.setattr(surveil.cegar, "build_abstract_game", recorded)
    cegar_loop(G, objective, predicates=predicates)
    return visited


@pytest.mark.parametrize("spec", PAPER_SPECS)
def test_pruned_game_equals_full_game_on_paper5x5(monkeypatch, game5, goal_pred, spec):
    objective = parse_spec(spec)
    predicates = goal_pred if "goal" in spec else {}
    partitions = _visited_partitions(monkeypatch, game5, objective, predicates)
    assert partitions
    for Q in partitions:
        assert_pruned_equivalent(game5, objective, predicates, Q)


@pytest.mark.parametrize("spec", [s for s in PAPER_SPECS if s.startswith("G ")])
def test_pruned_belief_game_equals_full_game_on_paper5x5(game5, spec):
    assert_pruned_equivalent(game5, parse_spec(spec), {}, singletons(game5))


@pytest.mark.parametrize("spec", ["bigroom_liveness.spec", "bigroom_safety.spec"])
def test_pruned_game_equals_full_game_on_bigroom(spec):
    grid = parse_grid(bundled_map("bigroom.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map("bigroom.cfg")))
    predicates = predicates_from_grid(grid)
    objective = parse_spec(bundled_map(spec))
    Q = initial_partition(G, predicates.values())
    assert_pruned_equivalent(G, objective, predicates, Q)
