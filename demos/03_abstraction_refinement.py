"""Watch one abstraction-refinement step, then the full loop.

Starts from a deliberately coarse two-block partition of the target
locations, extracts the target's spoiling strategy in the abstract game,
pairs each of its states with the exact belief propagated forward along
it to show it is spurious, and refines the partition just enough to
rule it out.  Then runs the complete loop
and prints its transcript.
"""

from surveil import (
    CONCRETIZABLE,
    MotionConfig,
    Partition,
    VisionConfig,
    annotate_tree,
    build_abstract_game,
    build_analysis_graph,
    build_game_structure,
    cegar_loop,
    extract_cex_graph,
    make_arena,
    parse_grid,
    parse_spec,
    refine_safety,
    solve,
)
from surveil.cli import bundled_map


def main():
    grid = parse_grid(bundled_map("paper5x5.txt"))
    G = build_game_structure(grid, MotionConfig(), VisionConfig())
    universe = frozenset(G.target_locations)
    left = frozenset({0, 1, 5, 6, 10, 15, 16, 20, 21})
    Q = Partition({0: left, 1: universe - left}, universe)
    obj = parse_spec("G p<=5")

    game = build_abstract_game(G, Q)
    arena = make_arena(game, G, obj, partition=Q)
    result = solve(arena, obj)
    print(f"coarse partition ({len(Q)} blocks): agent wins = {result.agent_wins}")

    D = build_analysis_graph(G, Q, extract_cex_graph(arena, result.target_strategy))
    path = annotate_tree(G, D, obj.safety_terms)
    assert path is not CONCRETIZABLE
    print(f"exact beliefs along the spurious counterexample path ({len(D)} nodes):")
    for i in path:
        l_a, belief = D.beliefs[i]
        print(f"  agent {l_a:2d}: belief {sorted(G.cells_of(belief))}")

    refined = refine_safety(G, Q, D, path)
    print(f"refined to {len(refined)} blocks:")
    for cells in sorted(refined.blocks.values(), key=sorted):
        print(f"  {sorted(cells)}")
    print()

    print("full loop:")
    out = cegar_loop(G, obj)
    for line in out.transcript:
        print(" ", line)
    print(f"verdict: {out.verdict} with {len(out.final_partition)} blocks")


if __name__ == "__main__":
    main()
