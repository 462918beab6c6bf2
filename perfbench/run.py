"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same rounds alternately untraced and traced, prints the per-layer
metrics and writes the span document to ``perfbench/out/``.  The last
line of standard output is always the result object; a checker
disagreement exits with status 3 and prints no result.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per run.  Each starts cold: every memo cache of the program
#: is emptied first, so no set-up answers from an earlier one.
#: ``setup_s`` is the median import time plus the median set-up, so one
#: slow set-up does not move it.
SETUP_REPEATS = 3
#: Fresh interpreters that time the import again, besides this one's.
#: The import is most of the set-up (0.4-0.6 s against 0.02-0.35 s), and
#: one import timed per run read 0.38-0.62 s in consecutive runs.
IMPORT_PROBES = 4
#: What a probe runs: this file's own imports, timed the same way.
IMPORT_PROBE = """
import time
start = time.perf_counter()
import argparse, gc, importlib, json, os, statistics, subprocess, sys
sys.path[:0] = [{src!r}, {here!r}]
importlib.import_module({module!r})
print(time.perf_counter() - start)
"""

WORKLOADS = ("design", "simulate", "casestudy", "admission")


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb(child_pids: List[int]) -> float:
    """Peak resident set of this process plus the given children, MB."""
    import resource

    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def load_workload(name: str):
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"no program source at {source}; run from a repository checkout")
    sys.path.insert(0, source)
    import importlib

    return importlib.import_module(f"workloads.{name}")


def probe_import(name: str) -> float:
    """Import time of the workload in a fresh interpreter, s."""
    code = IMPORT_PROBE.format(
        src=os.path.join(ROOT, "src"), here=HERE, module=f"workloads.{name}"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    module = load_workload(name)
    imports = [time.perf_counter() - PROCESS_START]
    imports += [probe_import(name) for _probe in range(IMPORT_PROBES)]

    from common import clear_memo_caches

    setups: List[float] = []
    workload = None
    for _repeat in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        clear_memo_caches()
        gc.collect()
        start = time.perf_counter()
        workload = module.Workload(seed)
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        setups.append(time.perf_counter() - start)
    assert workload is not None
    setup_s = statistics.median(imports) + statistics.median(setups)
    print(
        f"imports {[round(value, 3) for value in imports]} s, "
        f"set-ups {[round(value, 3) for value in setups]} s",
        file=sys.stderr,
    )

    from tracing import Tracer

    tracer = Tracer() if trace else None
    latencies: List[float] = []
    busy = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    attempted = failed = 0
    round_index = 0
    try:
        gc.collect()
        while busy[False] + busy[True] < seconds:
            traced = trace and round_index % 2 == 1
            if trace:
                gc.collect()
            if traced:
                workload.begin_trace(tracer)
            try:
                result = workload.run_round(round_index, tracer if traced else None)
            finally:
                if traced:
                    workload.end_trace(tracer)
            busy[traced] += result.busy
            ops[traced] += len(result.latencies)
            attempted += result.attempted
            failed += result.failed
            if not traced:
                latencies.extend(result.latencies)
            workload.check_round(round_index)
            round_index += 1
        extra = workload.finish(tracer)
        children = workload.child_pids()
        rss = peak_rss_mb(children)
    finally:
        workload.close()

    if trace:
        assert tracer is not None
        metrics = workload.layer_metrics(tracer, ops[True])
        untraced = busy[False] / max(1, ops[False])
        traced_per_op = busy[True] / max(1, ops[True])
        metrics["obs.trace_overhead"] = traced_per_op / untraced if untraced else 0.0
        os.makedirs(OUT_DIR, exist_ok=True)
        document = {
            "workload": name,
            "seed": seed,
            "rounds": round_index,
            "untraced": {"ops": ops[False], "busy_s": busy[False]},
            "traced": {"ops": ops[True], "busy_s": busy[True]},
            "metrics": metrics,
            "extra": extra,
            "trace": tracer.to_json(),
        }
        path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
        from common import LAYER_UNITS

        reported = {
            key: {"value": value, "unit": LAYER_UNITS[key]}
            for key, value in sorted(metrics.items())
        }
    else:
        if not latencies:
            from common import CheckFailure

            raise CheckFailure("no operation completed")
        reported = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / busy[False], "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * percentile(latencies, 0.50), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * percentile(latencies, 0.90), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print(
            f"{name}: seed {seed}, {round_index} rounds, {len(latencies)} ops "
            f"in {busy[False]:.2f} s measured; last error {workload.last_error}; "
            f"extra {json.dumps(extra)}",
            file=sys.stderr,
        )
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    from common import CheckFailure

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
