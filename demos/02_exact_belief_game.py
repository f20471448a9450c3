"""Solve the explicit belief-set game as a ground-truth oracle.

Builds every reachable belief state of the 5x5 arena and solves a few
objectives directly.  The exact game is the abstract game under the
finest partition, one block per cell, whose block-set labels are the
beliefs themselves.  This only works on tiny maps; the abstraction loop
in demo 03 exists precisely because this construction blows up
elsewhere.
"""

from surveil import (
    MotionConfig,
    VisionConfig,
    abstract_successors,
    build_abstract_game,
    build_game_structure,
    make_arena,
    parse_grid,
    parse_spec,
    singletons,
    solve,
)
from surveil.belief import target_moves
from surveil.cli import bundled_map


def main():
    grid = parse_grid(bundled_map("paper5x5.txt"))
    G = build_game_structure(grid, MotionConfig(), VisionConfig())
    Q = singletons(G)

    print("belief successors of the initial state (agent 4, target seen at 18):")
    # the target's moves from the initial belief's record: a seen target
    # is its cell, an unseen one the set of cells it may be in
    l_a = G.initial[0]
    _, _, moves = abstract_successors(G, Q, G.initial)
    visible, invisible = target_moves(G, l_a, moves)
    for cell, replies in visible:
        print(f"  seen at {[cell]}, agent replies {sorted(replies)}")
    if invisible is not None:
        unseen, replies = invisible
        print(f"  hidden in {sorted(G.cells_of(unseen))}, agent replies {sorted(replies)}")
    print()

    game = build_abstract_game(G, Q)
    beliefs = {(l_a, Q.gamma(b)) for l_a, b in game.states}
    print(f"reachable belief states: {len(game)}, "
          f"{len(beliefs)} distinct (agent cell, belief) pairs")
    print()

    for spec in ("G p<=2", "G p<=3", "GF p<=1"):
        obj = parse_spec(spec)
        arena = make_arena(game, G, obj, partition=Q)
        result = solve(arena, obj)
        verdict = "realizable" if result.agent_wins else "unrealizable"
        print(f"  {spec:10s} -> {verdict}")


if __name__ == "__main__":
    main()
