"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload census --seed 1 --t0 <perf_counter> --mode plain

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by processes on Linux), so set-up
time runs from process start to the first timed operation.  The timed
pass covers the operations only; the checks between them are not timed.

Modes: ``plain`` runs untraced; ``spans`` wraps the library's public
functions before set-up, writes the spans to ``perfbench/out/`` and
returns the per-layer metrics; ``memory`` does the same pass with
tracemalloc around each ``partition_orbits`` call and returns only the
peak bytes per state, since tracemalloc would distort the span times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from tracer import SpanIndex, Tracer, install  # noqa: E402

LIBRARY_MODULES = ("orbifold", "seifert", "roots", "twists", "orbits", "moduli",
                   "presentation", "verification", "cli")


def install_tracer(memory: bool) -> Tracer:
    import importlib

    import orbispin

    modules = [importlib.import_module(f"orbispin.{m}") for m in LIBRARY_MODULES]
    tracer = Tracer()
    tracer.memory = memory
    hooks = {
        "orbits.partition_orbits": {"extra": lambda args, p: {"g": p.genus, "r": p.order}, "memory": True},
        "twists.reduce_with_witness": {"extra": lambda args, out: {"letters": len(out[1])}},
    }
    install(tracer, modules, [orbispin, *modules], hooks)
    return tracer


def partition_states(ix: SpanIndex) -> int:
    return sum(ix.extra(i, "r") ** (2 * ix.extra(i, "g")) for i in ix.of("orbits.partition_orbits"))


def memory_metrics(spans: list) -> dict[str, float]:
    """tracemalloc peak over each partition, summed, per state searched."""
    ix = SpanIndex(spans)
    states = partition_states(ix)
    peak = sum(ix.extra(i, "peak_bytes") for i in ix.of("orbits.partition_orbits"))
    return {"orbits.peak_bytes_per_state": peak / states if states else 0}


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of the library layers from one traced pass."""
    ix = SpanIndex(spans)
    reduce_calls = ix.of("twists.reduce_with_witness")
    letters = [ix.extra(i, "letters") for i in reduce_calls]
    partitions = ix.of("orbits.partition_orbits")
    states = partition_states(ix)
    reports = ix.of("moduli.moduli_report")
    children = {"orbits.partition_orbits", "orbits.genus_one_orbit_size"}
    return {
        "orbifold.admissible_us": 1e6 * ix.mean("orbifold.admissible_root_orders"),
        "seifert.solve_us": 1e6 * ix.mean("seifert.solve_raymond_vasquez"),
        "seifert.recognize_us": 1e6 * ix.mean("seifert.recognize_fibre_index"),
        "twists.reduce_us": 1e6 * ix.mean("twists.reduce_with_witness"),
        "twists.replay_us": 1e6 * ix.mean("twists.apply_word"),
        "twists.letters_per_root": sum(letters) / len(letters) if letters else 0,
        "twists.letters_max": max(letters, default=0),
        "orbits.partition_calls": len(partitions),
        "orbits.partition_distinct_gr": len({(ix.extra(i, "g"), ix.extra(i, "r")) for i in partitions}),
        "orbits.states": states,
        "orbits.partition_ns_per_state": 1e9 * ix.total("orbits.partition_orbits") / states if states else 0,
        "orbits.genus1_size_ms": 1e3 * ix.mean("orbits.genus_one_orbit_size"),
        "moduli.report_ms": 1e3 * ix.mean("moduli.moduli_report"),
        "moduli.self_ms": 1e3 * statistics.fmean([ix.self_time(i, children) for i in reports]) if reports else 0,
        "moduli.checked_contexts": sum("orbits.partition_orbits" in ix.child_names(i) for i in reports),
    }


def timed_pass(wl, items) -> tuple[list[float], int, list[str]]:
    latencies, failed, mismatches = [], 0, []
    for item in items:
        start = perf_counter()
        try:
            out = wl.run(item)
        except Exception as err:  # a library exception is a failed operation
            latencies.append(perf_counter() - start)
            failed += 1
            print(f"failed: {type(err).__name__}: {err}", file=sys.stderr)
            continue
        latencies.append(perf_counter() - start)
        try:
            problem = wl.check(item, out)
        except workloads.OpFailed as err:
            failed += 1
            print(f"failed: {err}", file=sys.stderr)
            problem = None
        del out  # so the next operation runs without this one's output alive
        if problem:
            mismatches.append(problem)
    return latencies, failed, mismatches


def subprocess_ms(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, cwd=workloads.ROOT, env=workloads.child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def in_process_main(main, items) -> list[float]:
    """Run ``main(argv)`` for every script entry with output captured."""
    times = []
    for item in items:
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                main(item.argv)
            except (SystemExit, Exception):  # usage exits, and the uncaught error the script keeps
                pass
        times.append(perf_counter() - start)
    return times


def cli_layers(items) -> tuple[dict[str, float], list[float], int, list[str]]:
    """Process probes, one child pass, then main(argv) untraced, with
    spans, and with tracemalloc."""
    interp = subprocess_ms([sys.executable, "-c", "pass"], 5)
    metrics = {
        "cli.interp_ms": interp,
        "cli.import_ms": subprocess_ms([sys.executable, "-c", "import orbispin.cli"], 5) - interp,
    }
    wl = workloads.WORKLOADS["cli"]
    latencies, failed, mismatches = timed_pass(wl, items)
    for sub in workloads.CLI_SUBCOMMANDS:
        times = [t for it, t in zip(items, latencies) if it.subcommand == sub]
        metrics[f"cli.{sub}.process_ms"] = 1e3 * statistics.median(times)

    os.environ.pop("ORBISPIN_STATE_CAP", None)
    import orbispin.cli

    in_process_main(orbispin.cli.main, [workloads.CliItem("chi", ["chi", workloads.sig_json(5, ())], 0, None)])
    untraced = sum(in_process_main(orbispin.cli.main, items))
    tracer = install_tracer(memory=False)
    traced = in_process_main(orbispin.cli.main, items)
    spans = list(tracer.spans)
    tracer.memory = True
    in_process_main(orbispin.cli.main, items)
    metrics.update(memory_metrics(tracer.spans[len(spans):]))
    main_spans = [i for i, s in enumerate(spans) if s[0] == "cli.main" and s[3] == -1]
    for sub in workloads.CLI_SUBCOMMANDS:
        times = [spans[i][2] - spans[i][1] for it, i in zip(items, main_spans) if it.subcommand == sub]
        metrics[f"cli.{sub}.main_ms"] = 1e3 * statistics.median(times)
    metrics.update(layer_metrics(spans))
    metrics["trace.overhead_pct"] = 100 * (sum(traced) / untraced - 1)
    write_spans(tracer, "cli")
    return metrics, latencies, failed, mismatches


def write_spans(tracer: Tracer, name: str) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{name}.jsonl"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory"), default="plain")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    tracer = install_tracer(args.mode == "memory") if args.mode != "plain" and wl.in_process else None
    items = wl.setup(args.seed)
    if tracer:
        tracer.paused = True
    wl.warm_up()
    if tracer:
        tracer.paused = False
    setup_s = perf_counter() - args.t0

    layers = None
    if args.mode != "plain" and not wl.in_process:
        layers, latencies, failed, mismatches = cli_layers(items)
    else:
        latencies, failed, mismatches = timed_pass(wl, items)
        if tracer:
            layers = (memory_metrics if tracer.memory else layer_metrics)(tracer.spans)
            write_spans(tracer, f"{args.workload}-{args.mode}")

    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "mismatches": mismatches,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "corpus": wl.describe(items),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
