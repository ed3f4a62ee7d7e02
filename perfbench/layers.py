"""Where the traced run wraps the program, and the per-layer metrics it reports.

Each ``wrap`` targets the attribute the caller looks up, module by
module. Per-layer seconds are *self* seconds per attempted request
(unit ``s/req``), so the layers of a single-client workload add up to
its mean latency; counters are totals over the run.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from pathlib import Path

from harness import SERVED
from tracing import SpanRecorder


def _plan_path(args, kwargs) -> str:
    plan = args[0] if args else kwargs["plan"]
    return f"core.{plan.path}"


def _miner_kind(args, kwargs) -> str:
    return "mining.baseline" if args[0].kind == "baseline" else "mining.recycling"


def _merge_result(span, args, kwargs, result) -> None:
    span.attrs.update(result.as_dict())


def _engine_result(span, args, kwargs, outcome) -> None:
    span.attrs["shard_max_s"] = max((s.elapsed_seconds for s in outcome.shards), default=0.0)
    span.attrs["fallback"] = int(outcome.fallback)


def _lookup_result(span, args, kwargs, hit) -> None:
    span.attrs["hit"] = int(hit is not None)


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    request_key = lambda request: (request.tenant, id(request.db))

    # Client-side entry points: the root span of each request. The
    # request is bound by (tenant, database) so the service worker that
    # computes it — even a gateway batch's rewritten request — joins it.
    for owner, attr in (
        ("repro.gateway.gateway:MiningGateway", "execute"),
        ("repro.service.service:MiningService", "execute"),
    ):
        _wrap_root(recorder, owner, attr, request_key)
    recorder.wrap_path(
        "repro.service.service:MiningService",
        "_compute",
        "service.compute",
        request_of=lambda args, kwargs: request_key(args[2]),
    )
    recorder.wrap_path("repro.service.service:MiningService", "apply_delta", "service.apply_delta")
    recorder.wrap_path("repro.service.service", "execute_plan", _plan_path)
    recorder.wrap_path("repro.core.recycle", "compress", "core.compress")
    recorder.wrap_path("repro.core.fup", "fup_update_delta", "core.fup")
    recorder.wrap_path("repro.parallel.executor", "compress", "parallel.phase1")
    recorder.wrap_path(
        "repro.parallel.executor", "merge_shard_patterns", "parallel.merge", _merge_result
    )
    for attr in ("mine", "recycle_mine"):
        recorder.wrap_path(
            "repro.parallel.executor:ParallelEngine", attr, "parallel.engine", _engine_result
        )
    recorder.wrap_path("repro.mining.registry:MinerSpec", "mine", _miner_kind)
    for module in ("repro.core.naive", "repro.storage.projection"):
        recorder.wrap_path(module, "mine_grouped", "storage.kernel")
    warehouse = "repro.service.warehouse:PatternWarehouse"
    recorder.wrap_path(warehouse, "put", "warehouse.put")
    for attr in ("best_feedstock", "ancestor_feedstock"):
        recorder.wrap_path(warehouse, attr, "warehouse.lookup", _lookup_result)
    recorder.wrap_path(warehouse, "persist_chain", "durability.persist_chain")
    recorder.wrap_path(warehouse, "restore_version", "durability.restore_version")
    recorder.wrap_path("repro.durability.store:DurableStore", "recover", "durability.recover")
    for attr in ("begin", "commit"):
        recorder.wrap_path("repro.durability.journal:WriteAheadJournal", attr, "durability.journal")
    recorder.wrap(os, "fsync", "durability.fsync")
    recorder.wrap_path("repro.data.versioned:VersionedDatabase", "apply", "data.apply_delta")
    recorder.wrap_path("repro.data.versioned:VersionedDatabase", "lineage", "data.lineage")


def _wrap_root(recorder: SpanRecorder, owner: str, attr: str, request_key) -> None:
    module_name, _, class_name = owner.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    original = getattr(cls, attr)
    counter = iter(range(1, 1 << 62))

    @functools.wraps(original)
    def wrapper(self, request, *args, **kwargs):
        mine_request = getattr(request, "request", request)
        request_id = next(counter)
        with recorder.span("client.request", request=request_id) as span:
            recorder.bind_request(request_key(mine_request), request_id, span.id)
            return original(self, request, *args, **kwargs)

    recorder.patch(cls, attr, wrapper)


#: Per-request self seconds reported for each span name.
SELF_SECONDS = {
    # The request as the client saw it, less the service computation:
    # gateway queueing and dispatch, or the service pool's hand-off.
    "client.handoff_s": "client.request",
    "service.self_s": "service.compute",
    "core.mine_s": "core.mine",
    "core.recycle_s": "core.recycle",
    "core.update_s": "core.update",
    "core.filter_s": "core.filter",
    "core.compress_s": "core.compress",
    "core.fup_s": "core.fup",
    "storage.kernel_s": "storage.kernel",
    "mining.baseline_s": "mining.baseline",
    "mining.recycling_s": "mining.recycling",
    "parallel.phase1_s": "parallel.phase1",
    # Engine time outside phase 1 and the merge: starting the worker
    # pool, waiting for the shards and taking their results back.
    "parallel.engine_s": "parallel.engine",
    "parallel.merge_s": "parallel.merge",
    "warehouse.put_s": "warehouse.put",
    "warehouse.lookup_s": "warehouse.lookup",
    "durability.fsync_s": "durability.fsync",
    "durability.journal_s": "durability.journal",
    "durability.persist_chain_s": "durability.persist_chain",
    "durability.restore_s": "durability.restore_version",
    "data.apply_delta_s": "data.apply_delta",
    "data.lineage_s": "data.lineage",
}

STORAGE_COUNTERS = (
    "item_visits",
    "tuple_scans",
    "group_counts",
    "projections",
    "single_group_enumerations",
)


def _unique_work(samples):
    """(path, CostCounters) of each computation, once however many it served."""
    seen: set[int] = set()
    for sample in samples:
        if sample.outcome != SERVED or id(sample.detail.counters) in seen:
            continue
        seen.add(id(sample.detail.counters))
        yield sample.detail.path, sample.detail.counters


def work_totals(samples) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for path, counters in _unique_work(samples):
        totals[f"work.{path}"] += counters.total_work()
        for name, value in counters.as_dict().items():
            totals[name] += value
    return dict(totals)


def determinism_record(loop, sessions: int) -> dict | None:
    """Per-path request counts and work totals of the first ``sessions``."""
    early = [s for s in loop.samples if s.session < sessions]
    if not any(s.session == sessions - 1 for s in early):
        return None
    paths: dict[str, int] = defaultdict(int)
    for sample in early:
        key = sample.detail.path if sample.outcome == SERVED else sample.outcome
        paths[key] += 1
    return {"paths": dict(sorted(paths.items())), "work": dict(sorted(work_totals(early).items()))}


def _directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def layer_metrics(recorder: SpanRecorder, loop, runtime) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced loop, as ``name -> (value, unit)``."""
    samples = loop.samples
    attempted = max(1, len(samples))
    seconds, counts = recorder.totals()
    metrics: dict[str, tuple[float, str]] = {
        "trace.requests": (float(len(samples)), "count"),
        "trace.spans": (float(len(recorder.spans)), "count"),
    }
    for metric, span_name in SELF_SECONDS.items():
        metrics[metric] = (seconds.get(span_name, 0.0) / attempted, "s/req")

    served = [s.detail for s in samples if s.outcome == SERVED]
    metrics["gateway.queue_wait_s"] = (sum(r.queue_seconds for r in served) / attempted, "s/req")
    metrics["gateway.batched_share"] = (sum(r.batched for r in served) / attempted, "share")

    stats = runtime.service.stats.snapshot()
    for metric, key in (
        ("service.computations", "computations"),
        ("service.coalesced", "coalesced"),
        ("service.path_mine", "misses"),
        ("service.path_recycle", "recycles"),
        ("service.path_filter", "filter_hits"),
        ("service.path_update", "updates"),
    ):
        metrics[metric] = (float(stats[key]), "count")

    by_id = {span.id: span for span in recorder.spans}
    lookups = [
        span
        for span in recorder.spans
        if span.name == "warehouse.lookup"
        and span.parent in by_id
        and by_id[span.parent].name == "service.compute"
    ]
    metrics["warehouse.hit_rate"] = (
        sum(span.attrs.get("hit", 0) for span in lookups) / max(1, len(lookups)),
        "share",
    )
    warehouse = runtime.warehouse
    store = warehouse.stats()
    metrics["warehouse.evictions"] = (float(store["evictions"]), "count")
    metrics["warehouse.stored_bytes"] = (float(store["stored_bytes"]), "bytes")
    metrics["warehouse.condensation_ratio"] = (warehouse.condensation_ratio(), "ratio")

    work = work_totals(samples)
    metrics["core.containment_checks"] = (float(work.get("containment_checks", 0)), "count")
    metrics["core.update_fallbacks"] = (float(work.get("update_fallbacks", 0)), "count")
    for name in STORAGE_COUNTERS:
        metrics[f"storage.{name}"] = (float(work.get(name, 0)), "count")
    for path in ("mine", "recycle", "update"):
        metrics[f"work.{path}"] = (float(work.get(f"work.{path}", 0)), "count")

    engines = [span for span in recorder.spans if span.name == "parallel.engine"]
    merges = [span for span in recorder.spans if span.name == "parallel.merge"]
    metrics["parallel.shard_max_s"] = (
        sum(span.attrs.get("shard_max_s", 0.0) for span in engines) / attempted,
        "s/req",
    )
    metrics["parallel.fallbacks"] = (
        float(sum(span.attrs.get("fallback", 0) for span in engines)),
        "count",
    )
    for metric, key in (("candidates", "candidate_count"), ("counted", "counted")):
        metrics[f"parallel.merge_{metric}"] = (
            float(sum(span.attrs.get(key, 0) for span in merges)),
            "count",
        )

    metrics["durability.fsyncs"] = (float(counts.get("durability.fsync", 0)), "count")
    metrics["durability.recover_s"] = (seconds.get("durability.recover", 0.0), "s")
    disk = (
        _directory_bytes(warehouse.directory)
        if warehouse.directory is not None and warehouse.directory.exists()
        else 0
    )
    metrics["durability.disk_bytes"] = (float(disk), "bytes")
    metrics["durability.write_amplification"] = (
        disk / store["stored_bytes"] if store["stored_bytes"] else 0.0,
        "ratio",
    )
    metrics["data.generate_s"] = (runtime.generate_seconds, "s")
    metrics["process.cpu_s"] = (loop.cpu_seconds, "s")
    metrics["process.cpu_per_wall"] = (loop.cpu_seconds / loop.wall_seconds, "ratio")
    return metrics
