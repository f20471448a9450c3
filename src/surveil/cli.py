"""Command line front end.

Subcommands: ``synth`` (abstraction-refinement synthesis), ``oracle``
(exact belief-game solving), ``simulate``, ``render``, and ``validate``.
Exit codes: 0 realizable / ok, 10 unrealizable, 20 state or iteration
budget exceeded or out of memory, 1 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources

from .abstraction import PartitionError, build_belief_game, singletons
from .belief import (
    BudgetExceeded,
    PredicateError,
    check_observable,
    predicates_from_grid,
)
from .cegar import IterationBudgetExceeded, RefinementError, cegar_loop
from .grid import MapError, build_game_structure, parse_config, parse_grid
from .objective import SpecError, parse_spec
from .simulate import (
    EvasivePolicy,
    GoalSeekingPolicy,
    RandomPolicy,
    SimulationError,
    export_strategy,
    load_runner,
    render_trace,
    simulate,
    trace_jsonl,
)
from .solver import SolverError, check_predicates, make_arena, solve
from .structure import validate_assumptions

EXIT_OK = 0
EXIT_UNREALIZABLE = 10
EXIT_BUDGET = 20
EXIT_USAGE = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(least: int):
    """An argparse type: an int no smaller than ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


def bundled_map(name: str):
    """Text of a bundled data file (``paper5x5.txt`` and friends)."""
    return resources.files("surveil.maps").joinpath(name).read_text()


def _read(path: str) -> str:
    if path.startswith("bundled:"):
        return bundled_map(path.split(":", 1)[1])
    with open(path) as fh:
        return fh.read()


def _load_structure(args):
    """The map and config text that the digest covers, the grid, its
    game structure and the structure's assumption report."""
    map_text = _read(args.map)
    cfg_text = _read(args.config) if args.config else ""
    grid = parse_grid(map_text)
    motion, vision = parse_config(cfg_text)
    G = build_game_structure(grid, motion, vision)
    return map_text + "\n" + cfg_text, grid, G, validate_assumptions(G)


def _load_problem(args):
    text, grid, G, report = _load_structure(args)
    if not report.ok:
        raise MapError(
            "game structure assumptions violated: "
            + "; ".join(str(v) for v in report.violations[:5])
        )
    spec_text = _read(args.spec) if getattr(args, "spec", None) else None
    objective = parse_spec(spec_text) if spec_text is not None else None
    predicates = predicates_from_grid(grid)
    for p in predicates.values():
        check_observable(G, p)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return grid, G, objective, predicates, digest


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _synthesize(args, G, objective, predicates):
    return cegar_loop(
        G,
        objective,
        predicates=predicates,
        max_states=args.max_states,
        max_iters=args.max_iters,
    )


def cmd_synth(args) -> int:
    grid, G, objective, predicates, digest = _load_problem(args)
    outcome = _synthesize(args, G, objective, predicates)
    for line in outcome.transcript:
        print(line)
    if args.dump_partition:
        for bid in sorted(outcome.final_partition.blocks):
            cells = sorted(outcome.final_partition.blocks[bid])
            print("block " + ",".join(str(c) for c in cells))
    if outcome.verdict == "realizable":
        payload = export_strategy(
            outcome.arena, outcome.strategy, digest, outcome.final_partition
        )
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    print("unrealizable", file=sys.stderr)
    dump = _counterexample_json(outcome)
    _write_out(args, json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return EXIT_UNREALIZABLE


def _counterexample_json(outcome) -> dict:
    """JSON dump of the concrete counterexample behind an unrealizable
    verdict: its nodes, each with the agent's cell, the exact belief and
    the target's winning mode, and the edges between them."""
    cex = outcome.counterexample
    index = {id(n): i for i, n in enumerate(cex.nodes)}
    return {
        "kind": "graph",
        "verdict": "unrealizable",
        "initial": index[id(cex.root)],
        "nodes": [
            {"agent": n.state[0], "belief": sorted(n.annotation), "mode": list(n.mode)}
            for n in cex.nodes
        ],
        "edges": {
            str(i): sorted(index[id(c)] for c in n.children)
            for i, n in enumerate(cex.nodes)
        },
        "blocks": {
            str(bid): sorted(cells)
            for bid, cells in outcome.final_partition.blocks.items()
        },
    }


def cmd_oracle(args) -> int:
    grid, G, objective, predicates, digest = _load_problem(args)
    check_predicates(objective, predicates)
    game = build_belief_game(G, args.max_states, objective.safety_terms, predicates)
    arena = make_arena(game, G, objective, predicates)
    result = solve(arena, objective)
    print(f"states={len(arena)} realizable={result.agent_wins}")
    if result.agent_wins:
        if args.out:
            payload = export_strategy(arena, result.agent_strategy, digest, singletons(G))
            _write_out(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    return EXIT_UNREALIZABLE


def _simulate_and_write(args, render) -> int:
    """Body of ``simulate`` and ``render``, which differ only in how
    ``render`` turns the trace into text."""
    grid, G, objective, predicates, digest = _load_problem(args)
    if args.policy == "random":
        policy = RandomPolicy(args.seed)
    elif args.policy == "evasive":
        policy = EvasivePolicy(grid)
    else:
        policy = GoalSeekingPolicy(grid)
    if args.strategy:
        with open(args.strategy) as fh:
            payload = json.load(fh)
    elif objective is None:
        raise SimulationError("either --spec or --strategy is required")
    else:
        outcome = _synthesize(args, G, objective, predicates)
        if outcome.verdict != "realizable":
            print("unrealizable", file=sys.stderr)
            return EXIT_UNREALIZABLE
        payload = export_strategy(
            outcome.arena, outcome.strategy, digest, outcome.final_partition
        )
    # a controller synthesized here is checked and played like a file's
    runner = load_runner(G, payload, expected_digest=digest)
    _write_out(args, render(simulate(G, grid, runner, policy, args.steps)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    return _simulate_and_write(args, trace_jsonl)


def cmd_render(args) -> int:
    return _simulate_and_write(args, lambda trace: render_trace(trace, args.format))


def cmd_validate(args) -> int:
    _, grid, G, report = _load_structure(args)
    print(
        f"cells={len(grid.free_cells)} total={report.total} "
        f"invisible_independent={report.invisible_independent}"
    )
    for v in report.violations[:20]:
        print(f"violation: {v}")
    return EXIT_OK if report.ok else EXIT_USAGE


def _add_structure(p):
    p.add_argument("--map", required=True, help="map file (or bundled:NAME)")
    p.add_argument("--config", help="key=value config file")


def _add_common(p, spec_required=True, oracle=False):
    _add_structure(p)
    p.add_argument("--spec", required=spec_required, help="specification file")
    p.add_argument("--out", help="output file (default stdout)")
    game = "the exact belief game" if oracle else "each abstract game"
    p.add_argument(
        "--max-states",
        type=_at_least(1),
        default=2_000_000 if oracle else 1_000_000,
        help=f"state budget of {game} (default: %(default)s)",
    )
    if not oracle:
        p.add_argument(
            "--max-iters",
            type=_at_least(1),
            default=200,
            help="refinement iteration budget (default: %(default)s)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surveil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a controller by refinement")
    _add_common(p)
    p.add_argument(
        "--dump-partition",
        action="store_true",
        help="print the final partition's blocks after the transcript",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle", help="solve the exact belief game")
    _add_common(p, oracle=True)
    p.set_defaults(func=cmd_oracle)

    for name, func, text in (
        ("simulate", cmd_simulate, "run a controller against a target, as JSON lines"),
        ("render", cmd_render, "draw a controller's run as text or SVG"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p, spec_required=False)
        p.add_argument(
            "--strategy", help="controller JSON from synth (else synthesize here)"
        )
        p.add_argument(
            "--steps",
            type=_at_least(0),
            default=20,
            help="rounds to run (default: %(default)s)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="seed of the random target policy (default: %(default)s)",
        )
        p.add_argument(
            "--policy",
            choices=("random", "evasive", "goal"),
            default="random",
            help="how the target moves (default: %(default)s)",
        )
        if name == "render":
            p.add_argument(
                "--format",
                choices=("text", "svg"),
                default="text",
                help="drawing format (default: %(default)s)",
            )
        p.set_defaults(func=func)

    p = sub.add_parser("validate", help="check the game structure assumptions")
    _add_structure(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, IterationBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (
        MapError,
        SpecError,
        SimulationError,
        SolverError,
        RefinementError,
        PartitionError,
        PredicateError,
        OSError,
        UnicodeDecodeError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
