"""Repeatability command: run a workload k times, report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload design --runs 10 --seed 1
    python3 perfbench/repeat.py --workload admission --runs 3 --seed 7 --same-seed

Each run is a fresh ``perfbench/run.py`` process, one after another.
Seeds are ``seed, seed+1, ...`` (``--same-seed`` reuses ``seed``, and
then also requires identical admission decision-log digests).  For
every end-to-end metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and the metric's bound from ``BENCHMARK.json``; it exits 1
when a run fails, the failed-operation share differs between runs, or
a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    extra: Dict[str, Any] = {}
    for line in done.stderr.splitlines():
        if " extra " in line:
            extra = json.loads(line.split(" extra ", 1)[1])
    result["extra"] = extra
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        results: List[Dict[str, Any]] = []
        for index in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + index
            try:
                result = run_once(workload, seed, args.seconds, 0)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{workload}: {exc}")
                ok = False
                break
            results.append(result)
            values = {key: round(entry["value"], 4) for key, entry in result["metrics"].items()}
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"{result['attempted']} attempted, {result['failed']} failed, {values}, "
                  f"extra {json.dumps(result['extra'])}",
                  flush=True)
        if len(results) != args.runs:
            continue
        shares = {result["failed"] / result["attempted"] for result in results}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        if args.same_seed:
            digests = {result["extra"].get("log_digest") for result in results}
            if len(digests) != 1:
                print(f"{workload}: decision-log digests differ: {sorted(map(str, digests))}")
                ok = False
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for metric in sorted(bounds):
            values = [result["metrics"][metric]["value"] for result in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bounds[metric]:
                flag = "  over bound"
                ok = False
            elif spread > bounds[metric] / 3:
                flag = "  above a third of the bound"
            print(f"{metric:<14}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}{bounds[metric]:>8.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
