"""Benchmark for surveil: time to verdict, set-up, memory and replay speed.

    python3 perfbench/run.py --workload paper-oracle --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in a single-threaded child process of its own
(``child.py``), one at a time, against the library under ``src/``.  The
run prints every metric by name and unit and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run also writes its span trees to
``perfbench/out/``.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-oracle", "bigroom", "scale-gen", "liveness10x15")
# a single run must end within 180 s
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, int]:
    """Run one workload in a child process; returns its result and exit code."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--trace-out", str(HERE / "out" / f"trace-{name}-seed{seed}.json")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONHASHSEED="0",
    )
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{name}: exited with code {proc.returncode} without a result")
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    return result, proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "surveil" / "__init__.py").is_file():
        print(f"error: no surveil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, code = {}, 0
    try:
        for name in names:
            results[name], rc = run_workload(name, args.seed, args.seconds, args.trace)
            code = code or rc
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
