"""Benchmark command: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Workloads: census, orbits, witness, cli, or "all" (each in turn).  Each
timed pass is one cold pass over the workload's inputs in a fresh worker
process (perfbench/worker.py); passes repeat, one at a time, until
``--seconds`` have passed, and the run reports medians over them.  With
``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced passes, each traced
pass following an untraced one so the tracing overhead can be reported.
The metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 150
# the library does integer work only; one thread per process keeps the
# benchmark at one caller and at most two running processes
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75)


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str = "plain") -> tuple[dict, str]:
    """One pass in a fresh worker: its result and its standard error."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def repeat(seconds: float, one_pass) -> list:
    """Whole passes, one at a time, until ``seconds`` have passed."""
    start, results = perf_counter(), []
    while True:
        results.append(one_pass())
        if perf_counter() - start >= seconds:
            return results


def tail_line(workload: str, latencies: list[float]) -> str | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 40:
        return None
    p = next(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10)
    value = statistics.quantiles(latencies, n=1000, method="inclusive")[round(p * 10) - 1]
    return f"tail {workload}: p{p:g} latency {1e3 * value:.3f} ms over {n} operations (no bound)"


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    passes = repeat(seconds, lambda: spawn(workload, seed))
    results = [r for r, _ in passes]
    latencies = [t for r in results for t in r["latencies"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": statistics.median(len(r["latencies"]) / sum(r["latencies"]) for r in results),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    notes = [f"{workload}: {len(results)} passes; corpus {results[0]['corpus']}"]
    tail = tail_line(workload, latencies)
    if tail:
        notes.append(tail)
    notes += sorted({line for _, err in passes for line in err.splitlines() if line.startswith("failed:")})
    return summary(results, metrics), notes


def traced_pass(workload: str, seed: int) -> tuple[list[dict], dict]:
    """An untraced pass, a pass with spans and, where partitions run, a pass
    with tracemalloc; the cli worker does all three in one process.
    Returns every pass's result and the per-layer metrics."""
    if not WORKLOADS[workload].in_process:
        result = spawn(workload, seed, "spans")[0]
        return [result], result["layers"]
    plain, spans = spawn(workload, seed)[0], spawn(workload, seed, "spans")[0]
    layers = dict(spans["layers"])
    layers["trace.overhead_pct"] = 100 * (sum(spans["latencies"]) / sum(plain["latencies"]) - 1)
    if not layers["orbits.partition_calls"]:
        return [plain, spans], layers
    memory = spawn(workload, seed, "memory")[0]
    layers.update(memory["layers"])
    return [plain, spans, memory], layers


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    runs = repeat(seconds, lambda: traced_pass(workload, seed))
    names = set().union(*(layers for _, layers in runs))
    metrics = {name: statistics.median(layers[name] for _, layers in runs) for name in names}
    results = [r for passes, _ in runs for r in passes]
    return summary(results, metrics), [f"{workload}: {len(runs)} traced passes; spans in perfbench/out/"]


def summary(results: list[dict], metrics: dict) -> dict:
    mismatches = [m for r in results for m in r["mismatches"]]
    for m in mismatches[:20]:
        print(f"mismatch: {m}", file=sys.stderr)
    return {
        "correct": not mismatches,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def declared(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def with_units(metrics: dict, spec: list[dict], prefix: str = "") -> dict:
    """The declared metrics with their units; a layer the workload never
    calls reads 0 (no calls, no time)."""
    out = {}
    for m in spec:
        out[prefix + m["name"]] = {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="orbispin benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "orbispin", "__init__.py")):
        print(f"perfbench: {ROOT} holds no src/orbispin; run from the root of an orbispin checkout",
              file=sys.stderr)
        return 2
    spec = declared(bool(args.trace))
    # bytecode is compiled once here, so no pass pays for compiling it
    compileall.compile_dir(os.path.join(ROOT, "src", "orbispin"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced_run if args.trace else untraced_run
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, notes = run(name, args.seed, args.seconds)
            for note in notes:
                print(note)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics = with_units(result["metrics"], spec, prefix)
            for key, m in metrics.items():
                print(f"  {key:<32} {m['value']:>14.4f} {m['unit']}")
            print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update(metrics)
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
