"""Synthesize a controller and run it against an evasive target.

The agent must keep the number of possible hidden target locations at
three or below forever.  After synthesis the closed loop is simulated
for a few steps and rendered as text frames: A agent, * target, ? cells
the agent still considers possible, # obstacles.
"""

from surveil import (
    EvasivePolicy,
    MotionConfig,
    VisionConfig,
    build_game_structure,
    cegar_loop,
    export_strategy,
    load_runner,
    parse_grid,
    parse_spec,
    render_trace,
    simulate,
)
from surveil.cli import bundled_map


def main():
    grid = parse_grid(bundled_map("paper5x5.txt"))
    G = build_game_structure(grid, MotionConfig(), VisionConfig())
    out = cegar_loop(G, parse_spec("G p<=3"))
    print(f"synthesis: {out.verdict} after {out.iterations} iterations, "
          f"{len(out.final_partition)} blocks")
    print()

    # the runner plays the controller as synth exports it, checked on load
    runner = load_runner(G, export_strategy(out.arena, out.strategy, "", out.final_partition))
    trace = simulate(G, grid, runner, EvasivePolicy(grid), steps=8)
    print(render_trace(trace, "text"))


if __name__ == "__main__":
    main()
