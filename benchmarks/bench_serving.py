#!/usr/bin/env python
"""Serving-tier benchmark: batched vs. unbatched, closed and open loop.

Drives a real :class:`repro.serving.QueryService` (threads executor, no
result cache, so every request truly executes) with the
:mod:`repro.experiments.loadgen` drivers and records, per concurrency
level:

* throughput and client-observed p50/p95/p99 latency, and
* **partitions loaded per query** — the figure partition-aware
  micro-batching exists to shrink: grouping a flush window by Tardis-G
  home partition amortizes one load across every grouped query, so at
  concurrency >= 8 the batched value must be strictly below the
  unbatched 1.0 (the ``--check`` gate CI enforces).  The services run
  with their default flush policy (no linger), so at concurrency 1 the
  batched throughput must reach at least half the unbatched one.

Also runs an open-loop (Poisson) pass at a deliberately low offered
rate against a ``shed``-policy service and checks nothing sheds — the
admission queue must absorb normal traffic without dropping.

Finally measures observability overhead (docs/OBSERVABILITY.md): the
same batched closed-loop workload with request tracing off and on,
interleaved.  With tracing disabled the serving hot path runs no-op
null spans, so two identical disabled configurations must agree to <3%
— the ``--check`` gate enforces that the disabled-tracing delta stays
within run noise.  The enabled-tracing overhead is reported alongside
for sizing.

The *trace-overhead* section repeats that discipline on the sharded
scatter/gather path: the same multi-partitions workload against a
2-shard cluster with the distributed-tracing plane off, sampled at 10%
and fully on.  Carrier stamping and compact span shipping only run for
sampled-in traces, so the off/sampled/full spread prices the cluster
observability plane; only the disabled A/B delta gates (<3%).

A final *attribution* pass re-runs the batched closed loop with the
kernel cost counters on (docs/OBSERVABILITY.md, "Cost attribution &
profiling") and reports how much of the pass's wall the named kernels
explain.  Serving walls include client think time and queue waits, so
the fraction is informational here (unlike bench_parallel, where the
batch stages must reach 90%); the per-kernel seconds still show where
execute time actually goes.

The *ingest* section prices the streaming-write path
(docs/SERVING.md, "Writes & online rebalancing"): closed-loop mixes at
0/10/50% writes against a WAL-backed service with the online
rebalancer running, plus a pure-append pass for throughput.  Read
latencies are segregated from write latencies, so the gated claim —
p99 read at a 10% write mix within 25% of the read-only p99 — compares
like with like; the longest rebalance swap pause is reported and
bounded (reads never block on a repack).

The host block records ``cpu_count`` *and* ``cpu_affinity`` (cores
this process may actually schedule on — cgroup-limited in CI) plus
``oversubscribed`` when the peak client concurrency exceeds them, so a
committed report can't mistake scheduler thrash for a regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py                 # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --check # CI
    PYTHONPATH=src python benchmarks/bench_serving.py --out BENCH_serving.json

Wall-clock numbers depend on the host (the report records cpu_count
and cpu_affinity); the partitions-per-query ratios are load-dependent
but hardware-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import host_info  # noqa: E402
from repro.core import TardisConfig, build_tardis_index  # noqa: E402
from repro.experiments.loadgen import closed_loop, open_loop  # noqa: E402
from repro.serving import QueryService  # noqa: E402
from repro.telemetry.perf import (  # noqa: E402
    KERNELS,
    attributed_fraction,
)
from repro.tsdb import random_walk  # noqa: E402


def make_service(index, max_batch: int, policy: str = "block",
                 queue: int = 512, **overrides) -> QueryService:
    return QueryService(
        index,
        queue_capacity=queue,
        policy=policy,
        max_batch=max_batch,
        executor="threads",
        result_cache_size=None,  # measure execution, not memoization
        **overrides,
    )


def closed_loop_scenarios(index, pool, args) -> list[dict]:
    rows = []
    for concurrency in args.concurrencies:
        for label, max_batch in (("unbatched", 1), ("batched", args.batch)):
            with make_service(index, max_batch) as service:
                report = closed_loop(
                    service, pool, total=args.total,
                    concurrency=concurrency, seed=11,
                    op="knn", strategy="target-node", k=10,
                )
                stats = service.stats()
            row = {
                "scenario": label,
                "concurrency": concurrency,
                "max_batch": max_batch,
                **report.to_dict(),
                "partitions_per_query": stats["partitions_per_query"],
                "batch_occupancy_mean": stats["batch_occupancy_mean"],
                "partition_loads": stats["partition_loads"],
            }
            rows.append(row)
            print(
                f"  closed-loop c={concurrency:<3} {label:<9} "
                f"{report.achieved_qps:8.0f} q/s  "
                f"p95 {report.percentiles()['p95_s'] * 1000:7.2f} ms  "
                f"loads/query {row['partitions_per_query']:.3f}  "
                f"occupancy {row['batch_occupancy_mean']:.2f}"
            )
    return rows


def open_loop_scenario(index, pool, args) -> dict:
    with make_service(index, args.batch, policy="shed") as service:
        report = open_loop(
            service, pool, rate_qps=args.rate, duration_s=args.duration,
            seed=13, op="knn", strategy="target-node", k=10,
        )
        stats = service.stats()
    row = {
        "scenario": "open-loop-low-rate",
        "policy": "shed",
        **report.to_dict(),
        "partitions_per_query": stats["partitions_per_query"],
        "queue_max_depth": stats["max_queue_depth"],
    }
    print(
        f"  open-loop  rate={args.rate:.0f} q/s  sent {report.sent}  "
        f"shed {report.shed}  p99 {report.percentiles()['p99_s'] * 1000:.2f} ms"
    )
    return row


def observability_overhead(index, pool, args) -> dict:
    """Traced vs. untraced throughput on the identical batched workload."""
    from repro.telemetry.spans import disable_tracing, enable_tracing

    def one_pass() -> float:
        # The A/B gate below compares two identical configurations, so
        # its passes keep a 2 ms linger: the flush timer, not CPU
        # contention among the client, batcher and executor threads,
        # paces them.  Without it, passes on a shared 2-vCPU host spread
        # by up to 2x.
        with make_service(index, args.batch, max_delay_ms=2.0) as service:
            report = closed_loop(
                service, pool, total=args.total, concurrency=8, seed=17,
                op="knn", strategy="target-node", k=10,
            )
        return report.achieved_qps

    # Two interleaved sets of DISABLED passes (A, B) measure what the
    # acceptance bar cares about: with tracing off the hot path runs
    # null-span no-ops, so two identical disabled configurations must
    # agree to <3% — any instrumentation cost is inside run noise.  The
    # enabled passes price full tracing, reported but not gated (at
    # microsecond query latencies span bookkeeping is legitimately
    # visible).
    off_a: list[float] = []
    off_b: list[float] = []
    on: list[float] = []
    disable_tracing()
    one_pass()  # warm partition caches and thread pools before timing
    for _ in range(args.overhead_reps):
        disable_tracing()
        off_a.append(one_pass())
        off_b.append(one_pass())
        tracer = enable_tracing(reset=True)
        tracer.set_root_limit(256)
        on.append(one_pass())
    disable_tracing()

    off = off_a + off_b
    qps_off = float(np.median(off))
    qps_on = float(np.median(on))
    disabled_delta_pct = (
        100.0 * abs(float(np.median(off_a)) - float(np.median(off_b)))
        / qps_off
    )
    enabled_overhead_pct = 100.0 * (qps_off - qps_on) / qps_off
    row = {
        "scenario": "observability-overhead",
        "reps": args.overhead_reps,
        "qps_tracing_off": round(qps_off, 1),
        "qps_tracing_on": round(qps_on, 1),
        "tracing_off_reps_qps": [round(v, 1) for v in off],
        "tracing_on_reps_qps": [round(v, 1) for v in on],
        "disabled_delta_pct": round(disabled_delta_pct, 2),
        "enabled_overhead_pct": round(enabled_overhead_pct, 2),
    }
    print(
        f"  overhead   tracing off {qps_off:8.0f} q/s  "
        f"on {qps_on:8.0f} q/s  "
        f"disabled A/B delta {disabled_delta_pct:.2f}%  "
        f"enabled {enabled_overhead_pct:+.2f}%"
    )
    return row


def kernel_attribution(index, pool, args) -> dict:
    """One batched closed-loop pass with the kernel counters enabled.

    Serving wall time includes client think time, admission queueing
    and flush-window delays, so the attributed fraction is expected to
    sit well below bench_parallel's 90% bar — it is reported for
    context, not gated.  The per-kernel seconds are the useful part:
    they split the execute path (route, exec_compute, exec_dispatch)
    out of the end-to-end latency.
    """
    KERNELS.enable(reset=True)
    try:
        t0 = time.perf_counter()
        with make_service(index, args.batch) as service:
            closed_loop(
                service, pool, total=args.total, concurrency=8, seed=19,
                op="knn", strategy="target-node", k=10,
            )
        wall_s = time.perf_counter() - t0
    finally:
        KERNELS.disable()
    kernels = KERNELS.totals()
    attributed_s, fraction = attributed_fraction(kernels, wall_s)
    row = {
        "scenario": "kernel-attribution",
        "wall_s": round(wall_s, 6),
        "attributed_s": round(attributed_s, 6),
        "fraction": round(fraction, 4),
        "kernels": {
            name: {
                "calls": stats["calls"],
                "elements": stats["elements"],
                "seconds": round(stats["seconds"], 6),
            }
            for name, stats in sorted(kernels.items())
        },
    }
    print(
        f"  attribution  {fraction:4.0%} of {wall_s:.2f}s wall in named "
        f"kernels ({len(kernels)} kernels)"
    )
    return row


def shard_scaling(index, pool, args) -> dict:
    """Distributed kNN throughput at 1/2/4 shards, plus a failover run.

    Shards are spawned processes (each loads its partition subset from a
    persisted copy of the index), so adding shards adds real CPUs —
    in-process threads would share one GIL and show nothing.  (That
    also means the monotonic-QPS check only means something on a host
    with >= 4 schedulable cores; see the ``checks`` assembly.)  The
    workload is multi-partitions kNN: every query scatters under the
    ``pth`` cap and gathers per-shard top-k lists, which is the code
    path sharding exists to parallelize.  The failover run (2 shards,
    R=1) SIGKILLs one shard mid-run; with a replica of every partition
    alive, zero requests may fail or degrade.
    """
    import shutil
    import tempfile
    import threading

    from repro.core.persistence import save_index
    from repro.sharding import (
        RouterIndex,
        RouterService,
        ShardCluster,
        plan_shards,
    )

    sizes = {pid: p.n_records for pid, p in index.partitions.items()}
    router_index = RouterIndex.from_index(index)
    index_dir = tempfile.mkdtemp(prefix="repro-bench-shards-")
    save_index(index, index_dir)

    def run_cluster(n_shards, replication, total, kill_after_s=None):
        plan = plan_shards(sizes, n_shards, replication)
        cluster = ShardCluster(
            plan, mode="processes", index_dir=index_dir,
            service_kwargs={"result_cache_size": None},
        )
        killer = None
        try:
            cluster.start()
            with RouterService(
                router_index, plan, cluster.addresses,
                workers=8, result_cache_size=None, call_timeout_s=20.0,
            ) as router:
                closed_loop(  # warm shard partition loads and sockets
                    router, pool, total=16, concurrency=8, seed=23,
                    op="knn", strategy="multi-partitions", k=10,
                )
                if kill_after_s is not None:
                    killer = threading.Timer(
                        kill_after_s, cluster.kill_shard, args=(1,)
                    )
                    killer.start()
                report = closed_loop(
                    router, pool, total=total, concurrency=8, seed=29,
                    op="knn", strategy="multi-partitions", k=10,
                )
            return report, plan
        finally:
            if killer is not None:
                killer.cancel()
            cluster.stop()

    rows = []
    try:
        for n_shards in (1, 2, 4):
            report, plan = run_cluster(n_shards, 0, args.shard_total)
            row = {
                "scenario": "shard-scaling",
                "topology": {
                    "shards": n_shards, "replicas": 0,
                    "pth": index.config.pth,
                },
                **report.to_dict(),
            }
            rows.append(row)
            print(
                f"  shards={n_shards}  "
                f"{report.achieved_qps:8.0f} q/s  "
                f"p99 {report.percentiles()['p99_s'] * 1000:7.2f} ms  "
                f"errors {report.errors}  degraded {report.degraded}"
            )

        # Failover: time a clean 2-shard R=1 pass, then repeat it and
        # kill shard 1 partway through.
        clean, _ = run_cluster(2, 1, args.shard_total)
        kill_after_s = max(0.05, clean.duration_s * 0.4)
        failover, _ = run_cluster(
            2, 1, args.shard_total, kill_after_s=kill_after_s
        )
        failover_row = {
            "scenario": "shard-failover",
            "topology": {"shards": 2, "replicas": 1,
                         "pth": index.config.pth},
            "killed_shard": 1,
            "killed_after_s": round(kill_after_s, 3),
            **failover.to_dict(),
        }
        print(
            f"  failover   shard 1 killed at {kill_after_s:.2f}s: "
            f"{failover.completed}/{failover.sent} completed, "
            f"{failover.errors} errors, {failover.degraded} degraded"
        )
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)
    return {"scaling": rows, "failover": failover_row}


def trace_overhead(index, pool, args) -> dict:
    """Distributed-tracing cost on the *sharded* path, off/sampled/full.

    The single-service overhead pass above prices span bookkeeping; this
    one prices the cluster plane the scatter/gather path adds on top —
    carrier stamping on every shard call, compact span shipping in
    replies, and router-side re-parenting (docs/OBSERVABILITY.md,
    "Distributed tracing across shards").  Three configurations over the
    identical multi-partitions workload: tracing disabled (no-op null
    spans, no carrier on the wire), sampled at 10% (the production
    default posture — only 1 in 10 traces ships shard summaries), and
    full (every trace ships).  Like the single-service pass, only the
    disabled A/B delta gates: with tracing off the sharded hot path must
    be indistinguishable from itself.
    """
    from repro.sharding import RouterIndex, RouterService, ShardCluster
    from repro.telemetry.spans import disable_tracing, enable_tracing

    router_index = RouterIndex.from_index(index)
    topology = {"shards": 2, "replicas": 0, "pth": index.config.pth}

    off_a: list[float] = []
    off_b: list[float] = []
    sampled: list[float] = []
    full: list[float] = []
    # One cluster serves every pass: cluster spin-up and first-touch
    # partition loads are far noisier than the instrumentation being
    # measured, so rebuilding per pass (as the single-service overhead
    # pass does) would drown the signal.  The sampling rate is flipped
    # on the live router between passes — it is read per call.
    with ShardCluster.for_index(
        index, topology["shards"], topology["replicas"], mode="threads",
        service_kwargs={"result_cache_size": None, "max_delay_ms": 1.0},
    ) as cluster:
        with RouterService(
            router_index, cluster.plan, cluster.addresses,
            result_cache_size=None, call_timeout_s=20.0,
            health_interval_s=0.0, trace_sample=1.0,
        ) as router:

            # Sharded passes run an order of magnitude slower than the
            # single-service ones (socket hops per scatter leg), so the
            # per-pass qps estimate is noisier: longer passes and two
            # extra repetitions buy the medians back their stability.
            total = max(args.shard_total, 320)
            reps = args.overhead_reps + 2

            def one_pass(trace_sample: float) -> float:
                router.trace_sample = trace_sample
                report = closed_loop(
                    router, pool, total=total, concurrency=8,
                    seed=37, op="knn", strategy="multi-partitions", k=10,
                )
                return report.achieved_qps

            disable_tracing()
            one_pass(1.0)  # warm partition caches and thread pools
            one_pass(1.0)
            for _ in range(reps):
                disable_tracing()
                off_a.append(one_pass(1.0))  # tracer off: no carrier
                off_b.append(one_pass(1.0))
                tracer = enable_tracing(reset=True)
                tracer.set_root_limit(64)
                sampled.append(one_pass(0.1))
                tracer = enable_tracing(reset=True)
                tracer.set_root_limit(64)
                full.append(one_pass(1.0))
            disable_tracing()

    off = off_a + off_b
    qps_off = float(np.median(off))
    qps_sampled = float(np.median(sampled))
    qps_full = float(np.median(full))
    disabled_delta_pct = (
        100.0 * abs(float(np.median(off_a)) - float(np.median(off_b)))
        / qps_off
    )
    row = {
        "scenario": "trace-overhead-sharded",
        "topology": topology,
        "reps": reps,
        "total_per_pass": total,
        "trace_sample_rate": 0.1,
        "qps_tracing_off": round(qps_off, 1),
        "qps_trace_sampled": round(qps_sampled, 1),
        "qps_trace_full": round(qps_full, 1),
        "tracing_off_reps_qps": [round(v, 1) for v in off],
        "sampled_reps_qps": [round(v, 1) for v in sampled],
        "full_reps_qps": [round(v, 1) for v in full],
        "disabled_delta_pct": round(disabled_delta_pct, 2),
        "sampled_overhead_pct": round(
            100.0 * (qps_off - qps_sampled) / qps_off, 2
        ),
        "full_overhead_pct": round(
            100.0 * (qps_off - qps_full) / qps_off, 2
        ),
    }
    print(
        f"  trace-ovh  sharded off {qps_off:8.0f} q/s  "
        f"sampled {qps_sampled:8.0f} q/s ({row['sampled_overhead_pct']:+.2f}%)  "
        f"full {qps_full:8.0f} q/s ({row['full_overhead_pct']:+.2f}%)  "
        f"disabled A/B delta {disabled_delta_pct:.2f}%"
    )
    return row


def ingest_scenarios(dataset, config, pool, args) -> dict:
    """Streaming-ingest section: append throughput, read tail latency
    at 0/10/50% write mix, and online-rebalance pause time.

    Each mix gets a *fresh* index (writes mutate), a real WAL (fsync on
    every acknowledged batch — the durability cost is part of the
    number), and the online rebalancer.  Read latencies come from the
    loadgen's segregated read histogram, so "p99 read at 10% writes"
    is directly comparable to the 0% row — the acceptance bar is that
    a modest write stream costs the read tail at most 25%.
    """
    import shutil
    import tempfile

    write_pool = (
        random_walk(max(256, args.total), length=args.length, seed=83)
        .z_normalized().values
    )
    tmp = tempfile.mkdtemp(prefix="repro-bench-ingest-")
    mixes = []
    append_row = None
    try:
        def one_mix(mix: float, write_batch: int, seed: int):
            index = build_tardis_index(dataset, config)
            wal = Path(tmp) / f"mix-{int(mix * 100)}.wal"
            with QueryService(
                index,
                queue_capacity=512,
                max_batch=args.batch,
                max_delay_ms=2.0,
                executor="threads",
                result_cache_size=None,
                wal=wal,
                rebalance=True,
                rebalance_overflow=1.5,
                rebalance_interval_s=0.05,
            ) as service:
                report = closed_loop(
                    service, pool, total=args.total, concurrency=8,
                    seed=seed, write_mix=mix, writes=write_pool,
                    write_batch=write_batch,
                    op="knn", strategy="target-node", k=10,
                )
                stats = service.stats()
            return report, stats

        for mix in (0.0, 0.1, 0.5):
            report, stats = one_mix(mix, write_batch=4, seed=41)
            doc = report.to_dict()
            row = {
                "scenario": f"mixed-{int(mix * 100)}pct-writes",
                "write_mix": mix,
                **doc,
                "read_p99_s": doc["latency"]["p99_s"],
                "rebalance": stats.get("rebalance"),
            }
            mixes.append(row)
            rebal = stats.get("rebalance") or {}
            print(
                f"  ingest mix={mix:4.0%}  reads {report.completed:4d} "
                f"p99 {doc['latency']['p99_s'] * 1000:7.2f} ms  "
                f"writes {report.writes_completed:4d} "
                f"({report.write_records} records)  "
                f"cycles {rebal.get('cycles_total', 0)} "
                f"pause<= {rebal.get('max_pause_s', 0.0) * 1000:.2f} ms"
            )

        # Pure append throughput: all-writes closed loop, bigger batches.
        report, stats = one_mix(1.0, write_batch=8, seed=43)
        rebal = stats.get("rebalance") or {}
        append_row = {
            "scenario": "append-throughput",
            "write_batch": 8,
            **report.to_dict(),
            "records_per_s": (
                report.write_records / report.duration_s
                if report.duration_s else 0.0
            ),
            "rebalance": rebal,
        }
        print(
            f"  ingest append  {append_row['records_per_s']:8.0f} rec/s  "
            f"write p99 {append_row['writes']['p99_s'] * 1000:7.2f} ms  "
            f"cycles {rebal.get('cycles_total', 0)}"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"mixes": mixes, "append": append_row}


def run(args) -> dict:
    dataset = random_walk(args.series, length=args.length, seed=97)
    dataset = dataset.z_normalized()
    config = TardisConfig(
        g_max_size=max(60, args.series // 16),
        l_max_size=max(10, args.series // 150),
        pth=4,
    )
    index = build_tardis_index(dataset, config)
    # Query pool with production-like reuse: mostly indexed rows (drawn
    # several times each under the seeded load RNG) plus held-out probes.
    rng = np.random.default_rng(5)
    rows = rng.choice(len(dataset), size=args.pool * 3 // 4, replace=False)
    heldout = (
        random_walk(args.pool - len(rows), length=args.length, seed=79)
        .z_normalized().values
    )
    pool = np.vstack([dataset.values[rows], heldout])
    print(
        f"index: {args.series} series, {len(index.partitions)} partitions; "
        f"query pool {len(pool)}"
    )

    # Sections run selectively (--sections) so CI jobs can gate one
    # surface — e.g. the sharded tracing-overhead check — without
    # paying for the whole suite.  Checks over a skipped section record
    # null, the same "skipped, not passed" convention as the host gate.
    on = args.sections
    closed = closed_loop_scenarios(index, pool, args) \
        if "closed" in on else []
    open_row = open_loop_scenario(index, pool, args) \
        if "open" in on else None
    overhead_row = observability_overhead(index, pool, args) \
        if "overhead" in on else None
    trace_row = trace_overhead(index, pool, args) \
        if "trace" in on else None
    attribution_row = kernel_attribution(index, pool, args) \
        if "attribution" in on else None
    sharded = shard_scaling(index, pool, args) if "shards" in on else None
    ingest_row = ingest_scenarios(dataset, config, pool, args) \
        if "ingest" in on else None

    def closed_row(concurrency: int, scenario: str) -> dict:
        for row in closed:
            if (row["concurrency"] == concurrency
                    and row["scenario"] == scenario):
                return row
        raise KeyError((concurrency, scenario))

    def ratio(concurrency: int, scenario: str) -> float:
        return closed_row(concurrency, scenario)["partitions_per_query"]

    high = [c for c in args.concurrencies if c >= 8]
    checks = {
        "open_loop_zero_shed": (
            open_row["shed"] == 0 and open_row["errors"] == 0
        ) if open_row else None,
        "batching_reduces_partition_loads": all(
            ratio(c, "batched") < ratio(c, "unbatched") for c in high
        ) if closed else None,
        # A lone client must not pay for batching: the batcher flushes
        # as soon as it is free, so batched keeps pace with unbatched.
        "batching_free_at_c1": (
            closed_row(1, "batched")["achieved_qps"]
            >= 0.5 * closed_row(1, "unbatched")["achieved_qps"]
        ) if closed else None,
        "all_queries_answered": all(
            row["completed"] == row["sent"] for row in closed
        ) if closed else None,
        "disabled_tracing_overhead_in_noise": (
            overhead_row["disabled_delta_pct"] < 3.0
        ) if overhead_row else None,
        "sharded_disabled_tracing_in_noise": (
            trace_row["disabled_delta_pct"] < 3.0
        ) if trace_row else None,
        # Shard scaling needs real cores: on a box with fewer than 4
        # schedulable CPUs, extra shard processes only add context
        # switches, so the monotonic-QPS claim is untestable there —
        # recorded as null (skipped), same spirit as bench_parallel's
        # oversubscription flag.
        "shard_qps_monotonic": (all(
            later["achieved_qps"] > earlier["achieved_qps"]
            for earlier, later in zip(
                sharded["scaling"], sharded["scaling"][1:]
            )
        ) if host_info()["cpu_affinity"] >= 4 else None)
        if sharded else None,
        "shard_p99_within_slo": all(
            row["latency"]["p99_s"] * 1000.0 <= args.slo_ms
            for row in sharded["scaling"]
        ) if sharded else None,
        "shard_failover_zero_failures": (
            sharded["failover"]["errors"] == 0
            and sharded["failover"]["shed"] == 0
            and sharded["failover"]["degraded"] == 0
            and sharded["failover"]["completed"]
            == sharded["failover"]["sent"]
        ) if sharded else None,
        "ingest_zero_write_errors": (
            all(row["writes"]["errors"] == 0 and row["errors"] == 0
                for row in ingest_row["mixes"] if row["write_mix"] > 0.0)
            and ingest_row["append"]["writes"]["errors"] == 0
        ) if ingest_row else None,
        # The acceptance bar for online rebalancing: a 10% write stream
        # (with the WAL fsyncing and the rebalancer splitting under it)
        # costs the read tail at most 25%.  A small absolute floor
        # absorbs scheduler noise when the read-only p99 is sub-ms.
        "ingest_mixed_p99_within_25pct": (
            ingest_row["mixes"][1]["read_p99_s"]
            <= max(1.25 * ingest_row["mixes"][0]["read_p99_s"],
                   ingest_row["mixes"][0]["read_p99_s"] + 0.005)
        ) if ingest_row else None,
        # Reads never block on a repack: the swap window is the only
        # gated region, so the longest observed pause stays far below
        # human-visible stall territory.
        "ingest_rebalance_pause_bounded": all(
            (row["rebalance"] or {}).get("max_pause_s", 0.0) <= 0.25
            for row in ingest_row["mixes"] + [ingest_row["append"]]
        ) if ingest_row else None,
    }
    return {
        "benchmark": "serving",
        # jobs = peak client concurrency: that is the parallelism the
        # closed-loop driver actually offers the box.
        "host": host_info(jobs=max(args.concurrencies)),
        "workload": {
            "series": args.series,
            "length": args.length,
            "partitions": len(index.partitions),
            "query_pool": len(pool),
            "total_per_scenario": args.total,
            "strategy": "target-node",
            "k": 10,
            "batch_max": args.batch,
            "batch_delay_ms": make_service(
                index, args.batch
            ).stats()["config"]["max_delay_ms"],
        },
        "sections": sorted(on),
        "closed_loop": closed,
        "open_loop": open_row,
        "observability_overhead": overhead_row,
        "trace_overhead": trace_row,
        "attribution": attribution_row,
        "shard_scaling": sharded["scaling"] if sharded else None,
        "shard_failover": sharded["failover"] if sharded else None,
        "ingest": ingest_row,
        "checks": checks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (smaller index and totals)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any report check fails")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here")
    parser.add_argument("--series", type=int, default=None)
    parser.add_argument("--length", type=int, default=64)
    parser.add_argument("--pool", type=int, default=None)
    parser.add_argument("--total", type=int, default=None)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop offered rate (q/s)")
    parser.add_argument("--duration", type=float, default=None,
                        help="open-loop duration (s)")
    parser.add_argument("--shard-total", type=int, default=None,
                        help="requests per shard-scaling run")
    parser.add_argument("--slo-ms", type=float, default=500.0,
                        help="p99 bound for the shard-scaling check")
    parser.add_argument(
        "--sections",
        default="closed,open,overhead,trace,attribution,shards,ingest",
        metavar="LIST",
        help="comma list of sections to run (checks over skipped "
             "sections record null)")
    args = parser.parse_args()
    known = {"closed", "open", "overhead", "trace", "attribution",
             "shards", "ingest"}
    args.sections = {
        s.strip() for s in args.sections.split(",") if s.strip()
    }
    unknown = args.sections - known
    if unknown:
        parser.error(f"unknown sections {sorted(unknown)}; "
                     f"choose from {sorted(known)}")
    args.series = args.series or (1500 if args.smoke else 4000)
    args.pool = args.pool or (32 if args.smoke else 64)
    args.total = args.total or (240 if args.smoke else 800)
    args.rate = args.rate or (40.0 if args.smoke else 100.0)
    args.duration = args.duration or (1.5 if args.smoke else 3.0)
    args.shard_total = args.shard_total or (160 if args.smoke else 480)
    args.concurrencies = (1, 8) if args.smoke else (1, 8, 16)
    args.overhead_reps = 3 if args.smoke else 4

    started = time.perf_counter()
    report = run(args)
    report["elapsed_s"] = round(time.perf_counter() - started, 2)
    print(f"checks: {report['checks']}  ({report['elapsed_s']:.1f}s)")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    # None = check skipped (untestable on this host); only real failures
    # gate.
    failed = [
        name for name, value in report["checks"].items() if value is False
    ]
    if args.check and failed:
        print(f"BENCH CHECK FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
