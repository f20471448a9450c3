"""Run one workload in this process: set-up, timed passes, checks, replay.

``run.py`` starts this file in a child process of its own, with ``src``
and this directory on ``PYTHONPATH``, and reads the last line of its
standard output: a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output check
passed and 1 otherwise.

A case is what ``surveil synth`` does after loading its inputs:
``cegar_loop`` and, for a realizable verdict, ``export_strategy`` and JSON
serialisation.  Cases run in passes over the workload until ``--seconds``
have gone by; times are medians over passes.

The end-to-end times are given at reference speed: each timed region's
seconds are scaled by ``probe.PROBE_REF_S`` over the speed probe's time
next to it, which cancels the host's drift (see ``probe.py``).  The raw
seconds are printed alongside.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import surveil
from surveil import (
    BudgetExceeded,
    EvasivePolicy,
    IterationBudgetExceeded,
    PredicateDef,
    RandomPolicy,
    SimulationError,
    build_belief_game,
    build_game_structure,
    cegar_loop,
    check_observable,
    export_strategy,
    load_runner,
    make_arena,
    parse_config,
    parse_grid,
    parse_spec,
    predicates_from_grid,
    simulate,
    solve,
    validate_assumptions,
)
from surveil.cli import bundled_map

from checks import check_counterexample_tree, check_replay
from probe import PROBE_REF_S, probe
from tracing import CaseTrace, Tracer, install
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# set-up repeats per map: at least this many, and more until the map has
# had this many seconds, so small maps get a steady median too
SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 200
# during set-up, the speed probe runs between repeats at most this often
SETUP_PROBE_EVERY_S = 0.2


class WallLimit(BaseException):
    """A case ran past its wall limit.

    A BaseException, so that no ``except Exception`` on the way up can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise WallLimit()


@dataclass
class Loaded:
    grid: object
    G: object
    predicates: dict
    digest: str


def load_problem(problem):
    """Set a problem up the way ``surveil synth`` does; returns the loaded
    problem, its ``validate_assumptions`` report and seconds per phase."""
    t0 = perf_counter()
    grid = parse_grid(problem.map_text)
    motion, vision = parse_config(problem.cfg_text)
    t1 = perf_counter()
    G = build_game_structure(grid, motion, vision)
    t2 = perf_counter()
    report = validate_assumptions(G)
    t3 = perf_counter()
    predicates = predicates_from_grid(grid)
    for name, cells, on_target in problem.extra_predicates:
        predicates[name] = PredicateDef(name, frozenset(cells), on_target)
    for p in predicates.values():
        check_observable(G, p)
    t4 = perf_counter()
    digest = hashlib.sha256((problem.map_text + "\n" + problem.cfg_text).encode()).hexdigest()
    phases = {
        "setup": t4 - t0,
        "grid.build_game_structure_s": t2 - t1,
        "structure.validate_assumptions_s": t3 - t2,
    }
    return Loaded(grid, G, predicates, digest), report, phases


@dataclass
class CaseResult:
    status: str  # realizable | unrealizable | undecided | error
    synth_s: float
    # reference-speed seconds per measured second (probe.py), for the
    # case and for its replay
    scale: float = 1.0
    replay_scale: float = 1.0
    controller_states: int = 0
    fingerprint: str = ""
    steps: int = 0
    sim_s: float = 0.0
    load_s: float = 0.0
    errors: list = field(default_factory=list)
    trace: CaseTrace | None = None


@dataclass
class PassResult:
    cases: list

    @property
    def synth_s(self):
        return sum(c.synth_s for c in self.cases)

    @property
    def synth_ref_s(self):
        return sum(c.synth_s * c.scale for c in self.cases)

    @property
    def steps_per_ref_s(self):
        sim = sum(c.sim_s * c.replay_scale for c in self.cases)
        return sum(c.steps for c in self.cases) / sim if sim else 0.0


class Bench:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.problems: dict[str, Loaded] = {}
        self.setup: dict[str, dict] = {}
        self.errors: list[str] = []
        self.oracle: dict[str, bool] = {}
        self.oracle_s = 0.0
        self.first: dict[int, tuple] = {}
        # ru_maxrss before the first case left out of peak_rss_mb ran
        self.rss_kib: int | None = None

    def peak_rss_kib(self) -> int:
        """ru_maxrss (KiB on Linux) over set-up and the cases that count."""
        if self.rss_kib is not None:
            return self.rss_kib
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- set-up ---------------------------------------------------------
    def set_up(self):
        for problem in self.workload.problems:
            samples, loaded = [], None
            probes = [probe()]
            start = last_probe = perf_counter()
            while len(samples) < SETUP_MIN_REPS or (
                perf_counter() - start < SETUP_MIN_S and len(samples) < SETUP_MAX_REPS
            ):
                loaded = None  # let the previous copy go before building the next
                loaded, report, phases = load_problem(problem)
                samples.append(phases)
                if perf_counter() - last_probe >= SETUP_PROBE_EVERY_S:
                    probes.append(probe())
                    last_probe = perf_counter()
            if len(probes) == 1:
                probes.append(probe())
            self.problems[problem.name] = loaded
            self.setup[problem.name] = {
                k: statistics.median(s[k] for s in samples) for k in samples[0]
            }
            self.setup[problem.name]["scale"] = PROBE_REF_S / statistics.median(probes)
            G = loaded.G
            self.setup[problem.name]["counts"] = {
                "structure.agent_succ_entries": _size(G, "agent_succ"),
                "grid.visibility_entries": _size(G, "visibility"),
            }
            print(f"map {problem.name}: sha256={loaded.digest} "
                  f"free_cells={len(loaded.grid.free_cells)} set-up reps={len(samples)} "
                  f"validate_assumptions total={report.total} "
                  f"invisible_independent={report.invisible_independent} "
                  f"violations={len(report.violations)}")
            if not report.ok:
                self.errors.append(f"{problem.name}: game structure assumptions violated")

    def run_oracle(self):
        """Exact belief-game verdicts (the ``surveil oracle`` path)."""
        for problem in self.workload.problems:
            cases = [c for c in self.workload.cases if c.oracle and c.problem == problem.name]
            if not cases:
                continue
            p = self.problems[problem.name]
            t0 = perf_counter()
            exact = build_belief_game(p.G)
            for case in cases:
                objective = parse_spec(case.spec)
                arena = make_arena(exact, p.G, objective, p.predicates)
                self.oracle[case.spec] = solve(arena, objective).agent_wins
            self.oracle_s += perf_counter() - t0

    # -- cases ----------------------------------------------------------
    def run_case(self, idx, case, tracer) -> CaseResult:
        p = self.problems[case.problem]
        objective = parse_spec(case.spec)
        trace = CaseTrace(f"{case.problem}: {case.spec}") if tracer else None
        span = trace.span if trace else (lambda name: nullcontext())
        if tracer:
            tracer.current = trace
        outcome = text = None
        failure = ""
        if not case.counts_rss and self.rss_kib is None:
            self.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probe_before = statistics.median(probe() for _ in range(3))
        t0 = perf_counter()
        try:
            # the limit is in reference seconds too, so that a case stopped
            # by it has done about the same work however fast the host runs
            signal.setitimer(signal.ITIMER_REAL, case.wall_s * probe_before / PROBE_REF_S)
            try:
                with span("cegar.loop"):
                    outcome = cegar_loop(p.G, objective, predicates=p.predicates)
                if outcome.verdict == "realizable":
                    with span("solver.export_strategy"):
                        payload = export_strategy(
                            outcome.arena, outcome.strategy, p.digest, outcome.final_partition
                        )
                    with span("bench.serialize"):
                        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = outcome.verdict
        except (BudgetExceeded, IterationBudgetExceeded, WallLimit):
            status = "undecided"
        except Exception:  # a broken case is reported, the other cases still run
            status, failure = "error", traceback.format_exc()
        synth_s = perf_counter() - t0
        probe_after = probe()
        scale = 2 * PROBE_REF_S / (probe_before + probe_after)
        if status == "undecided":
            scale = PROBE_REF_S / probe_before  # as the wall limit was set
        if tracer:
            tracer.current = None
            trace.close()
        result = CaseResult(status, synth_s, scale, trace=trace)
        if failure:
            result.errors.append(failure)
        self.check_case(idx, case, p, objective, outcome, text, result)
        if result.steps:
            probes = [probe_after] + [probe() for _ in range(3)]
            result.replay_scale = PROBE_REF_S / statistics.median(probes)
        return result

    def check_case(self, idx, case, p, objective, outcome, text, result):
        errors = result.errors
        if case.expect and result.status != case.expect:
            errors.append(f"verdict {result.status}, pinned {case.expect}")
        if case.oracle and result.status in ("realizable", "unrealizable"):
            oracle = "realizable" if self.oracle[case.spec] else "unrealizable"
            if result.status != oracle:
                errors.append(f"verdict {result.status}, exact oracle {oracle}")
        if result.status == "unrealizable" and not objective.recurrence_terms:
            errors += check_counterexample_tree(
                p.G, outcome.counterexample, objective, p.predicates
            )
        if result.status == "realizable":
            result.controller_states = len(json.loads(text)["states"])
            result.fingerprint = hashlib.sha256(text.encode()).hexdigest()
            self.replay(idx, case, p, objective, text, result)
        if result.status in ("realizable", "unrealizable"):
            seen = (result.status, result.fingerprint)
            if self.first.setdefault(idx, seen) != seen:
                errors.append(f"pass differs from the first one: {seen} vs {self.first[idx]}")

    def replay(self, idx, case, p, objective, text, result):
        """Reload the controller from its JSON and run it closed-loop."""
        policies = (RandomPolicy(self.seed * 1000 + idx), EvasivePolicy(p.grid))
        for policy in policies:
            payload = json.loads(text)
            gc.collect()
            try:
                t0 = perf_counter()
                runner = load_runner(p.G, payload, expected_digest=p.digest)
                t1 = perf_counter()
                # simulate makes no reference cycles, so collections during
                # it reclaim nothing; left on, they swung its time by 20%
                gc.disable()
                try:
                    trace = simulate(p.G, p.grid, runner, policy, self.workload.replay_steps)
                finally:
                    gc.enable()
                t2 = perf_counter()
            except (SimulationError, AssertionError) as exc:
                result.errors.append(f"replay: {type(exc).__name__}: {exc}")
                return
            result.load_s += t1 - t0
            result.sim_s += t2 - t1
            result.steps += self.workload.replay_steps
            result.errors += check_replay(p.G, trace, objective, p.predicates)

    def run_pass(self, tracer) -> PassResult:
        cases = []
        for idx, case in enumerate(self.workload.cases):
            cases.append(self.run_case(idx, case, tracer))
            gc.collect()  # free a case's garbage before the next one is timed
        return PassResult(cases)

    def passes(self, seconds, tracer=None) -> list[PassResult]:
        out = []
        start = perf_counter()
        while not out or perf_counter() - start < seconds:
            out.append(self.run_pass(tracer))
        return out


def _size(G, attr):
    table = getattr(G, attr, None)
    return len(table) if table is not None else None


def end_to_end(bench, passes) -> dict:
    cases = [c for p in passes for c in p.cases]
    decided = sum(c.status in ("realizable", "unrealizable") for c in cases)
    return {
        "synth_s": (statistics.median(p.synth_ref_s for p in passes), "s"),
        "setup_s": (sum(s["setup"] * s["scale"] for s in bench.setup.values()), "s"),
        "peak_rss_mb": (bench.peak_rss_kib() / 1024, "MB"),
        "decided_ratio": (decided / len(cases), "ratio"),
        "controller_states": (sum(c.controller_states for c in passes[0].cases), "count"),
    }


SPAN_METRICS = {
    "abstraction.build_abstract_game_s": "abstraction.build_abstract_game",
    "solver.make_arena_s": "solver.make_arena",
    "solver.solve_s": "solver.solve",
    "solver.extract_cex_s": "solver.extract_cex",
    "solver.export_strategy_s": "solver.export_strategy",
    "bench.serialize_s": "bench.serialize",
    "cegar.annotate_tree_s": "cegar.annotate_tree",
    "cegar.refine_safety_s": "cegar.refine_safety",
    "cegar.build_analysis_graph_s": "cegar.build_analysis_graph",
    "cegar.analyze_general_s": "cegar.analyze_general",
    "cegar.loop_self_s": "cegar.loop_self",
}
SUM_COUNTS = ("abstraction.abstract_states", "abstraction.successor_calls",
              "cegar.iterations", "cegar.final_blocks", "cegar.analysis_nodes")


def _layer_values(p: PassResult) -> dict:
    """Per-layer values of one traced pass, summed over its cases."""
    out = {name: 0.0 for name in SPAN_METRICS}
    out.update({name: 0 for name in SUM_COUNTS})
    out.update({"solver.arena_states_max": 0, "cegar.iterations_max": 0})
    repeats = attributed = 0.0
    for c in p.cases:
        totals = c.trace.totals()
        for metric, span in SPAN_METRICS.items():
            out[metric] += totals.get(span, 0.0)
        counts = c.trace.counts
        for name in SUM_COUNTS:
            out[name] += counts.get(name, 0)
        out["solver.arena_states_max"] = max(
            out["solver.arena_states_max"], counts.get("solver.arena_states_max", 0))
        out["cegar.iterations_max"] = max(
            out["cegar.iterations_max"], counts.get("cegar.iterations", 0))
        repeats += counts.get("abstraction.successor_repeats", 0)
        attributed += totals.get("attributed", 0.0)
    calls = out["abstraction.successor_calls"]
    out["abstraction.successor_repeat_ratio"] = repeats / calls if calls else 0.0
    out["abstraction.budget_exits"] = sum(c.status == "undecided" for c in p.cases)
    out["simulate.step_s"] = sum(c.sim_s for c in p.cases)
    out["simulate.steps_per_s"] = p.steps_per_ref_s
    out["simulate.load_runner_s"] = sum(c.load_s for c in p.cases)
    out["trace.attributed_share"] = attributed / p.synth_s
    return out


def per_layer(bench, untraced, traced, tracer) -> dict:
    per_pass = [_layer_values(p) for p in traced]
    out = {}
    for name in per_pass[0]:
        out[name] = None if name in tracer.absent else statistics.median(v[name] for v in per_pass)
    for name in ("grid.build_game_structure_s", "structure.validate_assumptions_s"):
        out[name] = sum(s[name] for s in bench.setup.values())
    for name in ("structure.agent_succ_entries", "grid.visibility_entries"):
        sizes = [s["counts"][name] for s in bench.setup.values()]
        out[name] = None if None in sizes else sum(sizes)
    out["oracle_s"] = bench.oracle_s
    out["trace.overhead_ratio"] = (
        statistics.median(p.synth_ref_s for p in traced)
        / statistics.median(p.synth_ref_s for p in untraced)
    )
    return out


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="file for the traced run's span trees")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(surveil.__file__).resolve().parents:
        print(f"error: surveil was imported from {surveil.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    bench = Bench(WORKLOADS[args.workload](bundled_map, args.seed), args.seed)
    bench.set_up()
    bench.run_oracle()
    if args.trace:
        untraced = bench.passes(args.seconds / 2)
        tracer = Tracer()
        install(tracer)
        traced = bench.passes(args.seconds / 2, tracer)
        runs = untraced + traced
        metrics = {k: (v, _unit(k)) for k, v in per_layer(bench, untraced, traced, tracer).items()}
    else:
        runs = bench.passes(args.seconds)
        metrics = end_to_end(bench, runs)

    print("pass synth_s measured: " + " ".join(f"{p.synth_s:.3f}" for p in runs))
    print("pass synth_s at reference speed: " + " ".join(f"{p.synth_ref_s:.3f}" for p in runs))
    print("set-up s measured: " + " ".join(f"{n}={s['setup']:.4f}" for n, s in bench.setup.items()))
    for case, r in zip(bench.workload.cases, runs[0].cases):
        print(f"case {case.problem}: {case.spec}: {r.status} "
              f"synth={r.synth_s:.3f}s controller_states={r.controller_states}")
    errors = list(bench.errors)
    for p in runs:
        for case, r in zip(bench.workload.cases, p.cases):
            errors += [f"{case.problem}: {case.spec}: {e}" for e in r.errors]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    attempted = sum(len(p.cases) for p in runs)
    failed = sum(bool(r.errors) for p in runs for r in p.cases)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    if args.trace and args.trace_out:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "maps": {name: p.digest for name, p in bench.problems.items()},
            "cases": [c.trace.to_json() for p in traced for c in p.cases],
            "metrics": result["metrics"],
        }
        Path(args.trace_out).write_text(json.dumps(dump) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
