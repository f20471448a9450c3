"""Walk through the raw game structure on the bundled 5x5 arena.

Shows the map, line-of-sight answers around the obstacle wall, and the
turn-based transitions (target moves first, agent replies) from the
initial state.
"""

from surveil import MotionConfig, VisionConfig, build_game_structure, parse_grid
from surveil.cli import bundled_map


def main():
    text = bundled_map("paper5x5.txt")
    print(text)
    grid = parse_grid(text)
    G = build_game_structure(grid, MotionConfig(), VisionConfig())

    print("agent starts at", grid.agent_init, "- target at", grid.target_init)
    print()
    print("line of sight from the agent start (cell 4):")
    for cell in (17, 18, 19, 23):
        verdict = "visible" if G.vis(4, cell) else "hidden"
        print(f"  cell {cell:2d}: {verdict}")
    print()

    print("transitions from the initial state (4, 18):")
    for l_t2 in G.target_step(4, 18):
        replies = G.succ_a(4, l_t2)
        print(f"  target -> {l_t2:2d}, agent replies {sorted(replies)}")


if __name__ == "__main__":
    main()
