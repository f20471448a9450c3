"""The benchmark's tracer still finds the functions it wraps.

``perfbench/tracing.py`` rebinds library functions by name to count the
work of each layer, and drops a metric silently when its function is
missing.  These tests load the tracer as the benchmark does and check
that synthesis runs give it every metric it looks for.
"""

import contextlib
import importlib
import importlib.util
from pathlib import Path

import pytest

import surveil.cegar
from surveil import build_game_structure, cegar_loop, parse_config, parse_grid, parse_spec
from surveil.belief import predicates_from_grid
from surveil.cli import bundled_map

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _traced(label):
    """The tracer installed for one case; yields the tracer and the case,
    and restores every rebound function on the way out.  A target that
    the library no longer has is left out, as the tracer leaves it."""
    tracing = _load_tracing()
    bound = [
        (module, attr, getattr(module, attr))
        for module, attr in {
            (importlib.import_module(name), attr) for name, attr, *_ in tracing.TARGETS
        }
        if hasattr(module, attr)
    ]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.current = case = tracing.CaseTrace(label)
        yield tracer, case
    finally:
        for module, attr, fn in bound:
            setattr(module, attr, fn)


def _synth(spec):
    grid = parse_grid(bundled_map("paper5x5.txt"))
    G = build_game_structure(grid, *parse_config(bundled_map("paper5x5.cfg")))
    return cegar_loop(G, parse_spec(spec), predicates=predicates_from_grid(grid))


def _expanded(game) -> int:
    """The number of states of a game that have choices: those whose
    successors were asked for."""
    return sum(map(bool, (b - a for a, b in zip(game.choice_off, game.choice_off[1:]))))


def test_traced_run_counts_every_successor_call(monkeypatch):
    """One successor call per expanded state.  A spec with a safety term
    leaves the states that break it unexpanded; without one, every state
    is expanded."""
    games = []
    build = surveil.cegar.build_abstract_game

    def recorded(*args, **kwargs):
        games.append(build(*args, **kwargs))
        return games[-1]

    # installed before the tracer, which then wraps it
    monkeypatch.setattr(surveil.cegar, "build_abstract_game", recorded)
    for spec, pruned in (("G p<=3", True), ("GF p<=2", False)):
        games.clear()
        with _traced(f"paper5x5 {spec}") as (tracer, case):
            outcome = _synth(spec)
        assert outcome.verdict == "realizable"
        assert tracer.absent == set()
        counts = case.counts
        assert counts["cegar.iterations"] == len(games) >= 1
        assert counts["abstraction.abstract_states"] == sum(map(len, games)) > 0
        expanded = sum(map(_expanded, games))
        assert counts["abstraction.successor_calls"] == expanded
        if pruned:
            assert expanded < counts["abstraction.abstract_states"]
        else:
            assert expanded == counts["abstraction.abstract_states"]


def test_traced_liveness_run_counts_analysis_nodes():
    with _traced("paper5x5 GF p<=2") as (tracer, case):
        outcome = _synth("GF p<=2")
    assert outcome.verdict == "realizable"
    assert tracer.absent == set()
    assert case.counts["cegar.analysis_nodes"] > 0


def test_traced_safety_run_times_its_analysis():
    """A safety spec is analysed on the analysis graph too: its walk and
    its refinement are timed by name, and its nodes are counted."""
    with _traced("paper5x5 G p<=3") as (tracer, case):
        outcome = _synth("G p<=3")
    assert outcome.verdict == "realizable"
    assert tracer.absent == set()
    spans = {name for name, *_ in case.spans}
    assert {
        "solver.extract_cex",
        "cegar.build_analysis_graph",
        "cegar.annotate_tree",
        "cegar.refine_safety",
    } <= spans
    assert case.counts["cegar.analysis_nodes"] > 0


class _WallLimit(BaseException):
    """Stands for the benchmark's wall limit, which interrupts a run."""


def test_interrupted_analysis_counts_the_nodes_reached(monkeypatch):
    """An interrupt inside ``build_analysis_graph`` leaves the graph's
    nodes so far in its frame, where the tracer's hook counts them."""
    with _traced("paper5x5 GF p<=2") as (_, case):
        _synth("GF p<=2")
    whole = case.counts["cegar.analysis_nodes"]
    steps = []
    landing_cells = surveil.cegar.landing_cells

    def interrupted(*args):
        steps.append(args)
        if len(steps) == 20:
            raise _WallLimit
        return landing_cells(*args)

    monkeypatch.setattr(surveil.cegar, "landing_cells", interrupted)
    with _traced("paper5x5 GF p<=2, interrupted") as (tracer, case):
        with pytest.raises(_WallLimit):
            _synth("GF p<=2")
    assert tracer.absent == set()
    # the nodes expanded before the interrupt and the one it stopped
    assert 20 <= case.counts["cegar.analysis_nodes"] < whole
