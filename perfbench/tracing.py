"""Spans and counts for the traced run, recorded from outside the library.

``install`` rebinds public functions of ``surveil`` to wrappers that time
each call as a span of the current case and count its work.  The CEGAR
phases are wrapped where ``surveil.cegar`` looks them up, so the loop
itself is untouched.  A function that a later change renames or removes
leaves its metrics absent instead of failing the run, and untraced runs
never call ``install``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter


class CaseTrace:
    """The span tree and counters of one case.

    A span is ``[name, start, end, parent_index]``; spans of one case share
    this object, which is its identifier.
    """

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # (agent cell, concrete belief) keys of abstract_successors calls,
        # from earlier iterations and from the current one
        self.seen_keys: set = set()
        self.iter_keys: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            if self._stack and self._stack[-1] == idx:
                self._stack.pop()

    def close(self) -> None:
        """End spans that an interrupt left open (a wall limit can fire
        between a span's body and its exit)."""
        now = perf_counter()
        for s in self.spans:
            if s[2] is None:
                s[2] = now
        self._stack.clear()

    def totals(self) -> dict[str, float]:
        """Seconds per span name, plus ``cegar.loop_self`` and the time
        covered by named spans (``attributed``)."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "cegar.loop":
                out["cegar.loop_self"] += (end - start) - child_time[i]
                out["attributed"] += child_time[i]
            elif parent is None:
                out["attributed"] += end - start
        return out

    def to_json(self) -> dict:
        return {
            "case": self.label,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


class Tracer:
    """Holds the case being traced; wrappers record into it."""

    def __init__(self):
        self.current: CaseTrace | None = None
        # metrics whose wrapped function is missing or changed shape
        self.absent: set[str] = set()


def _on_abstract_game(case, args, result, exc):
    _, Q = args[:2]
    case.counts["cegar.iterations"] += 1
    case.counts["cegar.final_blocks"] = len(Q)
    case.seen_keys |= case.iter_keys
    case.iter_keys = set()
    if exc is None:
        case.counts["abstraction.abstract_states"] += len(result)


def _on_successors(case, args, result, exc):
    _, Q, (l_a, label) = args[:3]
    key = (l_a, Q.gamma(label))
    case.counts["abstraction.successor_calls"] += 1
    if key in case.seen_keys:
        case.counts["abstraction.successor_repeats"] += 1
    case.iter_keys.add(key)


def _on_arena(case, args, result, exc):
    if exc is None:
        c = case.counts
        c["solver.arena_states_max"] = max(c["solver.arena_states_max"], len(result))


def _on_analysis_graph(case, args, result, exc):
    if exc is None:
        case.counts["cegar.analysis_nodes"] += len(result)
        return
    # interrupted (wall limit): count the nodes the graph had reached
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code.co_name != "build_analysis_graph":
        tb = tb.tb_next
    if tb is not None and "beliefs" in tb.tb_frame.f_locals:
        case.counts["cegar.analysis_nodes"] += len(tb.tb_frame.f_locals["beliefs"])


# (module, function, span name or None, hook, metrics that depend on it)
TARGETS = (
    ("surveil.cegar", "build_abstract_game", "abstraction.build_abstract_game", _on_abstract_game,
     ("abstraction.build_abstract_game_s", "abstraction.abstract_states",
      "abstraction.successor_repeat_ratio", "cegar.iterations", "cegar.iterations_max",
      "cegar.final_blocks")),
    ("surveil.abstraction", "abstract_successors", None, _on_successors,
     ("abstraction.successor_calls", "abstraction.successor_repeat_ratio")),
    ("surveil.cegar", "make_arena", "solver.make_arena", _on_arena,
     ("solver.make_arena_s", "solver.arena_states_max")),
    ("surveil.cegar", "solve", "solver.solve", None, ("solver.solve_s",)),
    ("surveil.cegar", "extract_cex_tree", "solver.extract_cex", None, ()),
    ("surveil.cegar", "extract_cex_graph", "solver.extract_cex", None, ()),
    ("surveil.cegar", "annotate_tree", "cegar.annotate_tree", None, ("cegar.annotate_tree_s",)),
    ("surveil.cegar", "refine_safety", "cegar.refine_safety", None, ("cegar.refine_safety_s",)),
    ("surveil.cegar", "build_analysis_graph", "cegar.build_analysis_graph", _on_analysis_graph,
     ("cegar.build_analysis_graph_s", "cegar.analysis_nodes")),
    ("surveil.cegar", "analyze_general", "cegar.analyze_general", None,
     ("cegar.analyze_general_s",)),
)


def _wrap(tracer, fn, span_name, hook, metrics):
    def run_hook(case, args, result, exc):
        try:
            hook(case, args, result, exc)
        except (AttributeError, LookupError, TypeError, ValueError):
            # the wrapped function changed shape: drop its counts, keep the run
            tracer.absent.update(metrics)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        case = tracer.current
        if case is None:
            return fn(*args, **kwargs)
        try:
            with case.span(span_name) if span_name else contextlib.nullcontext():
                result = fn(*args, **kwargs)
        except BaseException as exc:
            if hook is not None:
                run_hook(case, args, None, exc)
            raise
        if hook is not None:
            run_hook(case, args, result, None)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every target present; mark the metrics of missing ones absent.

    The rebinding lasts for the rest of the process, which runs a single
    workload.
    """
    wrapped = set()
    for module_name, attr, span_name, hook, metrics in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.absent.update(metrics)
            continue
        setattr(module, attr, _wrap(tracer, fn, span_name, hook, metrics))
        wrapped.add(attr)
    if not wrapped & {"extract_cex_tree", "extract_cex_graph"}:
        tracer.absent.add("solver.extract_cex_s")
