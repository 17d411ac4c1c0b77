"""One run of one workload: set up, drive, check, and compute metrics."""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import statistics
import threading
from pathlib import Path

import numpy as np

from repro.core import WriteAheadLog, build_tardis_index, query_signature
from repro.telemetry.perf import KERNELS

from . import inputs
from .checks import brute_force_ids, durability, recall_at_k
from .loadgen import (
    PhaseReport,
    Sample,
    clock,
    closed_loop,
    open_loop,
    percentile,
)
from .spans import SpanRecorder
from .workloads import reject_degraded

LO_SHARE, HI_SHARE, CAPACITY_SHARE = 0.45, 0.3, 0.25
BLOCKS = 6
SETUPS = 3
CALLERS = 2
REPLAY_REQUESTS = 24
RECALL_PROBE = 512
BURST_RECORDS = 3200

KERNEL_NAMES = ("paa", "sax", "encode", "mindist", "euclidean", "leaf_scan",
                "route")

#: Per-layer metrics; a layer a workload bypasses reports 0.
PER_LAYER = (
    [(f"kernel.{k}_s", "s") for k in KERNEL_NAMES]
    + [("core.signature_us", "us"), ("core.route_us", "us"),
       ("core.tna_ms", "ms"), ("core.opa_ms", "ms"), ("core.exact_ms", "ms"),
       ("core.bloom_reject_frac", "fraction"),
       ("core.mpa_ms", "ms"), ("core.partitions_per_query", "count"),
       ("core.candidates_per_query", "count"),
       ("core.nodes_pruned_frac", "fraction"),
       ("floor.brute_ms", "ms"),
       ("serving.overhead_ms", "ms"), ("serving.batch_occupancy", "count"),
       ("serving.partitions_per_query", "count"),
       ("serving.result_cache_hit_rate", "fraction"),
       ("serving.max_queue_depth", "count"),
       ("wire.rtt_overhead_ms", "ms"), ("wire.bytes_per_request", "bytes"),
       ("sharding.router_overhead_ms", "ms"),
       ("sharding.shard_calls_per_query", "count"),
       ("sharding.replica_failures", "count"), ("sharding.spawn_s", "s"),
       ("wal.append_ms", "ms"), ("wal.sync_ms", "ms"),
       ("wal.bytes_per_record", "bytes"),
       ("core.insert_ms", "ms"),
       ("rebalance.cycles_committed", "count"),
       ("rebalance.cycles_aborted", "count"),
       ("rebalance.partitions_split", "count"),
       ("rebalance.max_pause_ms", "ms"),
       ("rebalance.max_partition_fill", "fraction"),
       ("ingest.write_p50_ms", "ms"), ("ingest.write_p99_ms", "ms"),
       ("ingest.hi_write_p99_ms", "ms"),
       ("ingest.wal_bytes_per_user_byte", "ratio"),
       ("ingest.recovery_s", "s"),
       ("cluster.build_s", "s"), ("cluster.global_s", "s"),
       ("cluster.local_s", "s"), ("cluster.shuffle_s", "s"),
       ("core.index_mb", "MiB"),
       ("tail.p90_ms", "ms"), ("tail.p99_ms", "ms"),
       ("tail.hi_p90_ms", "ms"), ("tail.hi_p99_ms", "ms"),
       ("gen.late_p99_ms", "ms"), ("trace.overhead_ms", "ms")]
)

END_TO_END = (
    ("setup_s", "s"), ("p50_ms", "ms"), ("hi_p50_ms", "ms"),
    ("capacity_qps", "1/s"), ("recall_at_10", "fraction"), ("rss_mb", "MiB"),
)


def clean(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)


def rss_mb(pids=("self",)) -> float:
    """Resident set of the given processes, summed, in MiB."""
    total = 0
    for pid in pids:
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended between listing and reading
    return total * os.sysconf("SC_PAGE_SIZE") / 2**20


class RssSampler:
    """Samples resident memory of this process and its children.

    The peak over the measured phases is what serving costs in memory;
    the kernel's own high-water mark would also count the transient
    peaks of the three set-ups and of the allocator's fragmentation
    between them, which vary from run to run.
    """

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
            self.peak_mb = max(self.peak_mb, rss_mb(pids))
            self.samples += 1
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5.0)


def _measure(w, seconds: float):
    """Alternate short ``lo``, ``hi`` and capacity blocks for ``seconds``.

    Interleaving spreads every phase over the whole run, so a slow
    stretch of the host lands on all three alike instead of on one.
    Each block drains before the next starts.  Returns one merged
    report per phase.
    """
    rngs = [inputs.phase_rng(w.seed, phase) for phase in range(3)]
    shares = (LO_SHARE, HI_SHARE, CAPACITY_SHARE)
    reports = [PhaseReport([], 0.0) for _ in range(3)]
    for _ in range(BLOCKS):
        for i, (rng, share) in enumerate(zip(rngs, shares)):
            block_s = seconds * share / BLOCKS
            if i < 2:
                rate = w.lo if i == 0 else w.hi
                offsets = inputs.poisson_offsets(rng, rate, block_s)
                ops = inputs.request_stream(w.source, rng, len(offsets))
                block = open_loop(w.submit, ops, offsets,
                                  on_result=reject_degraded)
            else:
                block = closed_loop(w.call, lambda: w.source.op(rng),
                                    callers=CALLERS,
                                    duration_s=block_s,
                                    on_result=reject_degraded)
            reports[i].samples.extend(block.samples)
            reports[i].duration_s += block.duration_s
    return reports


def _reads(report):
    return report.ok(("knn", "exact"))


def _writes(report):
    return report.ok(("write",))


def _ms(samples, q):
    return percentile([s.latency_ms for s in samples], q)


def run_workload(cls, seed: int, seconds: float, trace: bool, root) -> dict:
    """Set up, measure for ``seconds``, check, and return the result.

    The measured system is the first set-up, on a fresh process heap;
    the other set-ups run after it, only to time them (``setup_s`` is
    the median).  A traced run sets up once.
    """
    work = root / cls.name
    clean(work)
    w = cls(seed, work)
    failures: list[str] = []
    try:
        started = clock()
        w.setup()
        setup_times = [clock() - started]

        with RssSampler() as memory:
            lo, hi, cap = _measure(w, seconds)
        phases = [lo, hi, cap]
        if trace:
            traced, recorder = _traced_phase(w, seconds * LO_SHARE)
            phases.append(traced)
            if hasattr(w.source, "hot_op"):
                phases.append(_rebalance_burst(w))
        served = [s for p in phases for s in p.ok()] + _recall_probe(w)
        if trace:
            layer = _per_layer(w, lo, hi, traced, recorder, w.stats())
            recorder.write(work / "spans.json")
        w.teardown()

        w.check_answers(
            [s for s in served if s.op.kind != "write"], failures
        )
        recall, n_recall = _recall(w, served)
        run_wal = getattr(w, "wal_path", None)
        acked = list(getattr(w, "acked", ()))

        for _ in range(0 if trace else SETUPS - 1):
            gc.collect()  # free the last set-up before the next
            started = clock()
            w.setup()
            setup_times.append(clock() - started)
            w.teardown()
        ingest = {}
        if run_wal is not None:
            # The last set-up's index was never written: a fresh base.
            base = w.index if not trace else build_tardis_index(
                w.data, inputs.index_config())
            ingest = _durability(w, base, run_wal, acked, failures, trace)

        attempted = sum(len(p.samples) for p in phases)
        failed = sum(p.failed for p in phases)
        if trace:
            layer.update(ingest)
            values = {name: layer.get(name, 0.0) for name, _ in PER_LAYER}
            units = PER_LAYER
            report = [(n, values[n], u, None) for n, u in PER_LAYER]
        else:
            lo_all, hi_all = lo.ok(), hi.ok()
            values = {
                "setup_s": statistics.median(setup_times),
                "p50_ms": _ms(lo_all, 50),
                "hi_p50_ms": _ms(hi_all, 50),
                "capacity_qps": len(cap.ok()) / cap.duration_s,
                "recall_at_10": recall,
                "rss_mb": memory.peak_mb,
            }
            units = END_TO_END
            report = _report(values, setup_times, lo, hi, cap, n_recall,
                             attempted, failed, ingest, memory)
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units},
            "report": report,
            "failures": failures,
        }
    finally:
        w.teardown()
        for path in work.iterdir():
            if path.name != "spans.json":
                shutil.rmtree(path) if path.is_dir() else path.unlink()


def _report(values, setup_times, lo, hi, cap, n_recall, attempted, failed,
            ingest, memory) -> list:
    """Every end-to-end figure with its unit and sample count.

    The gated metrics (``END_TO_END``) are a subset: tails, failures and
    the write path are shown here and in the traced run's per-layer
    metrics, but are too unsteady from run to run on a 2-CPU host (or
    zero, for failures) to carry a regression bound.
    """
    lo_all, hi_all = lo.ok(), hi.ok()
    rows = [
        ("setup_s", values["setup_s"], "s", len(setup_times)),
        ("p50_ms", values["p50_ms"], "ms", len(lo_all)),
        ("p99_ms", _ms(lo_all, 99), "ms", len(lo_all)),
        ("hi_p50_ms", values["hi_p50_ms"], "ms", len(hi_all)),
        ("hi_p99_ms", _ms(hi_all, 99), "ms", len(hi_all)),
        ("capacity_qps", values["capacity_qps"], "1/s", len(cap.ok())),
        ("failed_frac", failed / attempted, "fraction", attempted),
        ("recall_at_10", values["recall_at_10"], "fraction", n_recall),
        ("rss_mb", values["rss_mb"], "MiB", memory.samples),
    ]
    if ingest:
        lo_w, hi_w = _writes(lo), _writes(hi)
        rows += [
            ("write_p50_ms", _ms(lo_w, 50), "ms", len(lo_w)),
            ("write_p99_ms", _ms(lo_w, 99), "ms", len(lo_w)),
            ("hi_write_p99_ms", _ms(hi_w, 99), "ms", len(hi_w)),
            ("wal_bytes_per_user_byte",
             ingest["ingest.wal_bytes_per_user_byte"], "ratio",
             ingest["acked"]),
            ("recovery_s", ingest["ingest.recovery_s"], "s", 1),
        ]
    return rows


def _recall_probe(w) -> list:
    """Extra held-out kNN queries served after the measured phases.

    Per-query recall of the target-node strategy varies widely, so a
    few hundred more distinct queries steady the mean; they are sent in
    bursts of 16 and take no part in any timing.
    """
    if not hasattr(w.source, "probe_op"):
        return []
    rng = inputs.phase_rng(w.seed, 5)
    ops = [w.source.probe_op(rng) for _ in range(RECALL_PROBE)]
    samples = []
    for lo in range(0, len(ops), 16):
        chunk = ops[lo:lo + 16]
        for op, future in zip(chunk, [w.submit(op) for op in chunk]):
            samples.append(Sample(op, 0.0, result=future.result(60.0)))
    return samples


def _recall(w, served) -> tuple[float, int]:
    """Recall@10 of served answers to distinct held-out kNN queries.

    Averaged per strategy, then weighted by the workload's designed kNN
    mix, so the run's random share of each strategy does not move it.
    """
    by_query = {}
    for s in served:
        if s.op.kind == "knn" and s.op.held_out:
            by_query.setdefault((s.op.strategy, s.op.query_id), s)
    picked = list(by_query.values())
    data, ids = w.truth_data()
    truth = brute_force_ids(
        data, np.vstack([s.op.series for s in picked]), inputs.K, ids
    )
    mix = w.source.KNN_MIX
    total = 0.0
    for strategy, share in mix.items():
        rows = [i for i, s in enumerate(picked) if s.op.strategy == strategy]
        total += share * recall_at_k(
            [picked[i].result.record_ids for i in rows], truth[rows]
        )
    return total / sum(mix.values()), len(picked)


def _traced_phase(w, duration_s: float):
    """The ``lo`` loop again, with kernel counters and spans on."""
    recorder = SpanRecorder()
    admitted: dict[int, float] = {}

    def submit(op):
        future = w.submit(op)
        admitted[id(op)] = clock()
        return future

    rng = inputs.phase_rng(w.seed, 3)
    offsets = inputs.poisson_offsets(rng, w.lo, duration_s)
    ops = inputs.request_stream(w.source, rng, len(offsets))
    KERNELS.enable(reset=True)
    try:
        report = open_loop(submit, ops, offsets, on_result=reject_degraded)
        report.extra["kernels"] = KERNELS.totals()
    finally:
        KERNELS.disable()
    for i, s in enumerate(report.samples):
        root = recorder.add("request", s.due, s.done, i)
        recorder.add("generator-late", s.due, s.sent, i, root)
        at = admitted.get(id(s.op), s.sent)
        recorder.add("admit", s.sent, at, i, root)
        recorder.add("wait", at, s.done, i, root)
    return report, recorder


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _replay(w, recorder) -> dict:
    """Replay sampled reads serially through each layer in turn."""
    rng = inputs.phase_rng(w.seed, 7)
    ops = [op for op in inputs.request_stream(w.source, rng,
                                              4 * REPLAY_REQUESTS)
           if op.kind != "write"][:REPLAY_REQUESTS]
    base = 1_000_000  # request ids after the traced loop's
    layer_s: dict[str, list] = {}
    by_strategy: dict[str, list] = {}
    mpa = []
    signature_s, route_s, brute_s = [], [], []
    data = w.data.values
    w.open_replay()
    try:
        for i, op in enumerate(ops):
            rid = base + i
            with recorder.span("request", rid) as root:
                times = {}
                for name, call in w.layers(op):
                    with recorder.span(name, rid, root["id"]):
                        started = clock()
                        result = call()
                        times[name] = clock() - started
                    if name == "core":
                        key = op.strategy or "exact"
                        by_strategy.setdefault(key, []).append(times[name])
                        if op.strategy == "multi-partitions":
                            mpa.append(result)
            for name, seconds in times.items():
                layer_s.setdefault(name, []).append(seconds)
            started = clock()
            signature, _paa = query_signature(w.index, op.series)
            signature_s.append(clock() - started)
            started = clock()
            w.index.global_index.route(signature)
            route_s.append(clock() - started)
            if i < 8:
                started = clock()
                dist = np.sqrt(((data - op.series) ** 2).sum(axis=1))
                np.argpartition(dist, inputs.K)[: inputs.K]
                brute_s.append(clock() - started)
    finally:
        w.close_replay()

    def overhead(upper, lower):
        if upper not in layer_s:
            return 0.0
        return _median_ms([a - b for a, b in
                           zip(layer_s[upper], layer_s[lower])])

    out = {
        "core.signature_us": 1000.0 * _median_ms(signature_s),
        "core.route_us": 1000.0 * _median_ms(route_s),
        "core.tna_ms": _median_ms(by_strategy.get("target-node", [])),
        "core.opa_ms": _median_ms(by_strategy.get("one-partition", [])),
        "core.exact_ms": _median_ms(by_strategy.get("exact", [])),
        "core.mpa_ms": _median_ms(by_strategy.get("multi-partitions", [])),
        "floor.brute_ms": _median_ms(brute_s),
        "serving.overhead_ms": overhead("service", "core"),
        "wire.rtt_overhead_ms": overhead("wire", "service"),
        "sharding.router_overhead_ms": overhead("router", "service"),
    }
    if mpa:
        visited = sum(r.nodes_visited for r in mpa)
        pruned = sum(r.nodes_pruned for r in mpa)
        out.update({
            "core.partitions_per_query": float(np.mean(
                [r.partitions_loaded for r in mpa])),
            "core.candidates_per_query": float(np.mean(
                [r.candidates_examined for r in mpa])),
            "core.nodes_pruned_frac": pruned / max(1, visited + pruned),
        })
    if getattr(w, "wire_bytes", None):
        out["wire.bytes_per_request"] = float(np.mean(w.wire_bytes))
    return out


def _per_layer(w, lo, hi, traced, recorder, stats) -> dict:
    out = {}
    kernels = traced.extra["kernels"]
    for name in KERNEL_NAMES:
        out[f"kernel.{name}_s"] = kernels.get(name, {}).get("seconds", 0.0)
    exact = [s for p in (lo, hi) for s in p.ok(("exact",))]
    if exact:
        out["core.bloom_reject_frac"] = float(np.mean(
            [s.result.bloom_rejected for s in exact]))
    serving = stats
    if hasattr(w, "shard_stats"):
        shards = w.shard_stats()
        serving = {
            key: float(np.mean([s[key] for s in shards]))
            for key in ("batch_occupancy_mean", "partitions_per_query")
        }
        serving["result_cache_hit_rate"] = stats["result_cache_hit_rate"]
        serving["max_queue_depth"] = max(
            [stats["max_queue_depth"]] + [s["max_queue_depth"] for s in shards]
        )
        completed = max(1, stats["requests_completed"])
        out.update({
            "sharding.shard_calls_per_query": sum(
                s["requests"] for s in stats["shards"]) / completed,
            "sharding.replica_failures": sum(
                s["failures"] for s in stats["shards"])
            + stats["ingest"]["replica_failures"],
            "sharding.spawn_s": w.spawn_s,
        })
    out.update({
        "serving.batch_occupancy": serving["batch_occupancy_mean"],
        "serving.partitions_per_query": serving["partitions_per_query"],
        "serving.result_cache_hit_rate": serving["result_cache_hit_rate"],
        "serving.max_queue_depth": serving["max_queue_depth"],
    })
    rebalance = stats.get("rebalance")
    if rebalance:
        capacity = w.index.config.partition_capacity
        out.update({
            "rebalance.cycles_committed":
                rebalance["cycles_total"] - rebalance["cycles_aborted"],
            "rebalance.cycles_aborted": rebalance["cycles_aborted"],
            "rebalance.partitions_split": rebalance["partitions_split"],
            "rebalance.max_pause_ms": 1000.0 * rebalance["max_pause_s"],
            "rebalance.max_partition_fill": max(
                w.index.partition_record_counts().values()) / capacity,
        })
    for prefix, report in (("", lo), ("hi_", hi)):
        reads = _reads(report)
        out[f"tail.{prefix}p90_ms"] = _ms(reads, 90)
        out[f"tail.{prefix}p99_ms"] = _ms(reads, 99)
    lo_writes, hi_writes = _writes(lo), _writes(hi)
    if lo_writes:
        out["ingest.write_p50_ms"] = _ms(lo_writes, 50)
        out["ingest.write_p99_ms"] = _ms(lo_writes, 99)
    if hi_writes:
        out["ingest.hi_write_p99_ms"] = _ms(hi_writes, 99)
    ledger = w.index.construction_ledger.breakdown()
    out.update({
        "cluster.build_s": sum(ledger.values()),
        "cluster.global_s": sum(v for k, v in ledger.items()
                                if k.startswith("global/")),
        "cluster.local_s": sum(v for k, v in ledger.items()
                               if k.startswith("local/")),
        "cluster.shuffle_s": ledger.get("local/shuffle", 0.0),
        "core.index_mb": (w.index.global_index_nbytes()
                          + w.index.local_index_nbytes()
                          + w.index.bloom_nbytes()) / 2**20,
        "gen.late_p99_ms": percentile(
            [s.late_ms for p in (lo, hi) for s in p.samples], 99),
        "trace.overhead_ms": _ms(_reads(traced), 50) - _ms(_reads(lo), 50),
    })
    out.update(_replay(w, recorder))
    return out


def _rebalance_burst(w):
    """Hot-region writes, enough to push a partition past the watermark.

    Only the traced run sends them: under sustained writes the
    rebalancer's cycles keep aborting, and the run's latencies would
    depend on when the watermark was crossed, so the untraced run stays
    below it and the rebalancer's counters come from here.
    """
    rng = inputs.phase_rng(w.seed, 4)
    rate = 2 * w.hi
    offsets = inputs.poisson_offsets(
        rng, rate, BURST_RECORDS / inputs.WRITE_BATCH / rate)
    ops = [w.source.hot_op(rng) for _ in offsets]
    return open_loop(w.submit, ops, offsets, on_result=reject_degraded)


def _durability(w, base, wal_path, acked, failures: list,
                trace: bool) -> dict:
    """Replay the run's WAL onto a fresh base index; time it."""
    wal_bytes = wal_path.stat().st_size
    started = clock()
    problems, _report = durability(base, wal_path, acked)
    recovery_s = clock() - started
    failures.extend(problems)
    out = {
        "acked": len(acked),
        "ingest.recovery_s": recovery_s,
        "ingest.wal_bytes_per_user_byte":
            wal_bytes / max(1, len(acked) * inputs.LENGTH * 8),
    }
    if trace:
        out.update(_write_path(w, base))
    return out


def _write_path(w, index) -> dict:
    """Time WAL append, fsync and index insert for sampled write batches."""
    rng = inputs.phase_rng(w.seed, 7)
    batches = [op.series for op in inputs.request_stream(
        w.source, rng, 4 * REPLAY_REQUESTS) if op.kind == "write"]
    batches = batches[:REPLAY_REQUESTS]
    path = w.work / "timing.wal"
    append_s, sync_s, insert_s = [], [], []
    next_id = 10 * inputs.N_SERIES
    with WriteAheadLog(path) as wal:
        for batch in batches:
            records = [(next_id + j, row) for j, row in enumerate(batch)]
            next_id += len(batch)
            started = clock()
            wal.log_appends(records, sync=False)
            append_s.append(clock() - started)
            started = clock()
            wal.sync()
            sync_s.append(clock() - started)
            started = clock()
            index.ingest(batch)
            insert_s.append(clock() - started)
    n_records = sum(len(b) for b in batches)
    return {
        "wal.append_ms": _median_ms(append_s),
        "wal.sync_ms": _median_ms(sync_s),
        "wal.bytes_per_record": path.stat().st_size / max(1, n_records),
        "core.insert_ms": _median_ms(insert_s),
    }
