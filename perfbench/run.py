"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tenant-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice from a fresh set-up, untraced and
then traced, and prints the per-layer metrics of the traced run plus the
tracing overhead. The human-readable lines name every metric with its
unit and sample count; the last line is one JSON object. The exit code is
non-zero when any served pattern set differs from the reference, and
(with no JSON line) when the program source is missing or a run cannot
collect enough samples for its 90th percentile.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from harness import (
    SERVED,
    ErrorTally,
    TailTooThin,
    min_samples_for,
    percentile,
    run_closed_loop,
    samples_beyond,
)
from layers import determinism_record, install_layer_spans, layer_metrics
from tracing import SpanRecorder

ROOT = Path(__file__).resolve().parents[1]

#: Sessions whose per-path counts and work totals the determinism check
#: compares between runs of one seed.
DETERMINISM_SESSIONS = 12
#: A loop that has not reached the sample rule by ``--seconds`` keeps
#: going until it does, but never past this many seconds.
MAX_LOOP_SECONDS = 60.0


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parents[1] != source.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_program()

    from workloads import WORKLOADS  # imports the program

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    min_samples = min_samples_for(0.9)
    max_seconds = max(args.seconds, MAX_LOOP_SECONDS)

    def measure(runtime):
        return run_closed_loop(
            workload.sessions(runtime),
            workload.check,
            workload.clients,
            args.seconds,
            min_samples,
            max_seconds,
        )

    try:
        workload.prepare()
        if args.trace:
            result = traced_run(workload, measure)
        else:
            result = untraced_run(workload, measure)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = ErrorTally()
    for loop in result["loops"]:
        for sample in loop.samples:
            tally.record(sample.outcome, sample.verdict)
    loop = result["loops"][-1]
    diverged = determinism_check(workload, result["loops"])
    print(f"workload {workload.name} seed {args.seed}: {json.dumps(workload.sizes())}")
    print(f"  loads: {workload.loads}; bypasses: {workload.bypasses}")

    print(f"  paths: {json.dumps(result['paths'])}")

    if args.trace:
        metrics = result["per_layer"]
        metrics["determinism.divergent"] = (float(diverged), "count")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:>12.6g} {unit}")
        print(f"  (n={len(loop.samples)} traced requests; s/req = self seconds per request)")
    else:
        latencies = [s.latency for s in loop.samples]
        served = served_count(loop)
        metrics = {
            "setup_s": (statistics.median(result["setups"]), "s"),
            "throughput_rps": (served / loop.wall_seconds, "req/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p90_s": (p90(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        n = len(latencies)
        counts = {
            "setup_s": f"n={len(result['setups'])} set-ups",
            "throughput_rps": f"n={served} served in {loop.wall_seconds:.2f} s",
            "latency_p50_s": f"n={n}",
            "latency_p90_s": f"n={n}, {samples_beyond(n, 0.9)} beyond p90",
            "peak_rss_mb": "n=1 process",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:>12.6g} {unit:<6} ({counts[name]})")
        print(
            f"  {'error_rate':<16} {tally.error_rate:>12.6g} {'share':<6} "
            f"({tally.failed} of {tally.attempted} attempted: "
            + ", ".join(f"{k}={v}" for k, v in tally.counts.items())
            + ")"
        )
    correct = tally.counts["mismatched"] == 0
    if not correct:
        print(f"perfbench: {tally.counts['mismatched']} served pattern sets differ from the reference", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def p90(latencies: list[float]) -> float:
    try:
        return percentile(latencies, 0.9)
    except TailTooThin as exc:
        raise SystemExit(f"perfbench: {exc}") from None


def _setup(workload):
    workload.reset()
    gc.collect()  # the previous set-up's garbage is not this one's cost
    started = time.perf_counter()
    runtime = workload.setup()
    return runtime, time.perf_counter() - started


def untraced_run(workload, measure) -> dict:
    setups = []
    runtime = None
    for _ in range(workload.setups):
        if runtime is not None:
            runtime.close()
        runtime, seconds = _setup(workload)
        setups.append(seconds)
    try:
        loop = measure(runtime)
    finally:
        runtime.close()
    return {"setups": setups, "loops": [loop], "paths": path_counts(runtime)}


def served_count(loop) -> int:
    return sum(1 for s in loop.samples if s.outcome == SERVED)


def path_counts(runtime) -> dict[str, int]:
    stats = runtime.service.stats.snapshot()
    return {
        key: int(stats[key])
        for key in ("misses", "recycles", "filter_hits", "updates", "coalesced", "computations")
    }


def traced_run(workload, measure) -> dict:
    runtime, _ = _setup(workload)
    try:
        untraced = measure(runtime)
    finally:
        runtime.close()
    with SpanRecorder() as recorder:
        install_layer_spans(recorder)
        runtime, _ = _setup(workload)
        try:
            traced = measure(runtime)
            per_layer = layer_metrics(recorder, traced, runtime)
        finally:
            runtime.close()
    recorder.write(ROOT / ".perfbench" / "spans" / f"{workload.name}-{workload.seed}.jsonl")
    untraced_rps = served_count(untraced) / untraced.wall_seconds
    traced_rps = served_count(traced) / traced.wall_seconds
    per_layer["trace.untraced_throughput_rps"] = (untraced_rps, "req/s")
    per_layer["trace.traced_throughput_rps"] = (traced_rps, "req/s")
    per_layer["trace.overhead"] = (1.0 - traced_rps / untraced_rps, "share")
    return {"loops": [untraced, traced], "per_layer": per_layer, "paths": path_counts(runtime)}


def determinism_check(workload, loops) -> bool:
    """Compare the early-session paths and work of runs of one seed.

    The record covers the first sessions only, which every run completes
    whatever its speed. It is compared with the record an earlier run of
    the same workload and seed left, and between the loops of this run
    (a traced run has an untraced twin). Returns True on a difference.
    """
    records = [r for r in (determinism_record(loop, DETERMINISM_SESSIONS) for loop in loops) if r]
    if not records:
        return False
    path = ROOT / ".perfbench" / "determinism" / f"{workload.name}-{workload.seed}.json"
    if path.exists():
        records.insert(0, json.loads(path.read_text()))
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records[0], sort_keys=True))
    for other in records[1:]:
        if other != records[0]:
            print(
                f"perfbench: determinism check FAILED for {workload.name} seed "
                f"{workload.seed}: {records[0]} != {other}",
                file=sys.stderr,
            )
            return True
    return False


if __name__ == "__main__":
    sys.exit(main())
