"""The benchmark's tracer still finds the functions it wraps.

``perfbench/tracing.py`` rebinds library functions by name to count the
work of each layer, and drops a metric silently when its function is
missing.  This test loads the tracer as the benchmark does and checks
that one synthesis run gives it every metric it looks for.
"""

import importlib
import importlib.util
from pathlib import Path

from surveil import build_game_structure, cegar_loop, parse_config, parse_grid, parse_spec
from surveil.belief import predicates_from_grid
from surveil.cli import bundled_map

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_successor_call():
    tracing = _load_tracing()
    grid = parse_grid(bundled_map("paper5x5.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map("paper5x5.cfg")))
    bound = [
        (module, attr, getattr(module, attr))
        for module, attr in {
            (importlib.import_module(name), attr) for name, attr, *_ in tracing.TARGETS
        }
    ]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.current = case = tracing.CaseTrace("paper5x5 G p<=3")
        outcome = cegar_loop(G, parse_spec("G p<=3"), predicates=predicates_from_grid(grid))
    finally:
        for module, attr, fn in bound:
            setattr(module, attr, fn)
    assert outcome.verdict == "realizable"
    assert tracer.absent == set()
    counts = case.counts
    assert counts["cegar.iterations"] >= 1
    assert counts["abstraction.abstract_states"] > 0
    assert counts["abstraction.successor_calls"] == counts["abstraction.abstract_states"]
