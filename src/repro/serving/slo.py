"""SLO tracking for the serving tier.

Serving quality is a distribution, not an average: the tracker feeds
per-request wall-clock latencies into a log-bucketed
:class:`~repro.telemetry.metrics.Histogram` and reports estimated
p50/p95/p99 alongside the operational signals an operator pages on —
queue depth, shed count, batch occupancy, partition loads per query,
partition skew, and result-cache hit rate.

Everything is double-published:

* :meth:`SLOTracker.report` — a JSON-ready snapshot consumed by the
  ``stats`` wire op, ``repro query-remote --stats``, ``repro top``, and
  the serving benchmark.
* the shared :mod:`repro.telemetry` registry — ``serving_*`` counters,
  gauges and histograms (names documented in docs/OBSERVABILITY.md) so
  ``--metrics`` exports cover the serving tier with zero extra wiring.

The per-tracker percentile state is a *private* histogram instance (not
registered) so multiple trackers — tests, several services in one
process — don't bleed into each other, while the identically-bucketed
shared ``serving_latency_seconds`` keeps exposition-text output whole.
"""

from __future__ import annotations

import math
import threading
from collections import Counter as TallyCounter

from ..telemetry.metrics import Histogram, get_registry, log_buckets

__all__ = ["SLOTracker", "nearest_rank", "LATENCY_BUCKETS"]

#: Buckets for the real (not simulated) serving latency histogram:
#: log-spaced from 50 µs (cache hits) to 5 s (straggler partition loads),
#: so relative quantile-estimation error is uniform across five decades.
LATENCY_BUCKETS = log_buckets(5e-5, 5.0, per_decade=5)

#: Buckets for batch-group occupancy (queries sharing one partition load).
OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def nearest_rank(sorted_samples: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending sample list (0 when empty)."""
    if not sorted_samples:
        return 0.0
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    rank = min(len(sorted_samples), max(1, math.ceil(quantile * len(sorted_samples))))
    return sorted_samples[rank - 1]


class SLOTracker:
    """Aggregates serving health; thread-safe, telemetry-published."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latency_hist = Histogram(
            "slo_latency_seconds", buckets=LATENCY_BUCKETS
        )
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.deadline_shed = 0
        self.degraded = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches = 0
        self.batched_queries = 0
        self.groups = 0
        self.partition_loads = 0
        self.max_queue_depth = 0
        self._partition_hits: TallyCounter = TallyCounter()

    # -- recording ----------------------------------------------------------

    def record_admitted(self, queue_depth: int) -> None:
        registry = get_registry()
        with self._lock:
            self.admitted += 1
            self.max_queue_depth = max(self.max_queue_depth, queue_depth)
        registry.counter(
            "serving_requests_total", "Requests admitted by the serving tier"
        ).inc()
        registry.gauge(
            "serving_queue_depth", "Admission-queue depth after last enqueue"
        ).set(queue_depth)

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1
        get_registry().counter(
            "serving_shed_total",
            "Requests rejected by the shed backpressure policy",
        ).inc()

    def record_deadline_shed(self) -> None:
        """One request cancelled in-queue because its deadline expired.

        Counted apart from capacity sheds (:meth:`record_shed`) and from
        failures: the queue had room and nothing raised — the budget
        simply ran out before execution started.
        """
        with self._lock:
            self.deadline_shed += 1
        get_registry().counter(
            "serving_deadline_shed_total",
            "Requests cancelled in-queue after their deadline expired",
        ).inc()

    def record_completed(
        self, latency_s: float, cached: bool = False, failed: bool = False,
        degraded: bool = False, write: bool = False,
    ) -> None:
        registry = get_registry()
        with self._lock:
            if failed:
                self.failed += 1
            else:
                self.completed += 1
                if degraded:
                    self.degraded += 1
                self._latency_hist.observe(float(latency_s))
                # Failures and writes stay out of the hit/miss ledger:
                # neither consults the cache for an answer, so counting
                # them would deflate hit_rate and inflate the
                # partitions_per_query denominator.
                if cached:
                    self.cache_hits += 1
                elif not write:
                    self.cache_misses += 1
        if failed:
            registry.counter(
                "serving_failed_total", "Requests that raised while serving"
            ).inc()
            return
        if degraded:
            registry.counter(
                "serving_degraded_total",
                "Requests answered degraded (partitions unavailable)",
            ).inc()
        registry.histogram(
            "serving_latency_seconds",
            "Wall-clock request latency (admission to completion)",
            buckets=LATENCY_BUCKETS,
        ).observe(latency_s)
        if write:
            return
        name = (
            "serving_result_cache_hits_total" if cached
            else "serving_result_cache_misses_total"
        )
        registry.counter(
            name,
            "Requests answered from the keyed result cache" if cached
            else "Requests that executed against the index",
        ).inc()

    def record_batch(
        self, n_queries: int, n_groups: int, partitions_loaded
    ) -> None:
        """Account one flushed micro-batch and its partition-load bill.

        ``partitions_loaded`` is either a bare count or an iterable of
        partition ids; ids additionally feed the per-partition skew
        tally surfaced by :meth:`report` and ``repro top``.
        """
        registry = get_registry()
        if isinstance(partitions_loaded, int):
            n_loads, pids = partitions_loaded, ()
        else:
            pids = list(partitions_loaded)
            n_loads = len(pids)
        with self._lock:
            self.batches += 1
            self.batched_queries += n_queries
            self.groups += n_groups
            self.partition_loads += n_loads
            for pid in pids:
                self._partition_hits[pid] += 1
        registry.counter(
            "serving_batches_total", "Micro-batches flushed by the batcher"
        ).inc()
        registry.counter(
            "serving_partition_loads_total",
            "Distinct partition loads performed by batch groups",
        ).inc(n_loads)
        if pids:
            registry.gauge(
                "serving_partition_skew",
                "Hottest-partition load share vs a uniform spread "
                "(1.0 == balanced)",
            ).set(self._skew_locked()["skew"])
        if n_groups:
            registry.histogram(
                "serving_batch_occupancy",
                "Queries per partition group (amortization factor)",
                buckets=OCCUPANCY_BUCKETS,
            ).observe(n_queries / n_groups)

    # -- reporting ----------------------------------------------------------

    def latency_percentiles(self) -> dict:
        """Estimated percentiles from the log-bucketed latency histogram.

        Bucket-interpolated (see :meth:`Histogram.quantile`), so values
        are accurate to within one bucket's relative width (~58% per
        bucket at 5/decade) rather than exact order statistics.
        """
        hist = self._latency_hist
        return {
            "p50_s": hist.quantile(0.50),
            "p95_s": hist.quantile(0.95),
            "p99_s": hist.quantile(0.99),
            "samples": hist.count,
        }

    def _skew_locked(self) -> dict:
        """Partition-load imbalance summary; caller holds ``self._lock``."""
        hits = self._partition_hits
        if not hits:
            return {
                "partitions_touched": 0, "max_loads": 0,
                "mean_loads": 0.0, "skew": 0.0, "hottest": [],
            }
        mean = self.partition_loads / len(hits)
        top = hits.most_common(5)
        return {
            "partitions_touched": len(hits),
            "max_loads": top[0][1],
            "mean_loads": mean,
            "skew": top[0][1] / mean if mean else 0.0,
            "hottest": [
                {"partition_id": pid, "loads": n} for pid, n in top
            ],
        }

    def report(self, queue_depth: int = 0) -> dict:
        """JSON-ready snapshot of every SLO signal."""
        percentiles = self.latency_percentiles()
        with self._lock:
            executed = self.cache_misses  # requests that reached the index
            cache_total = self.cache_hits + self.cache_misses
            return {
                "requests_admitted": self.admitted,
                "requests_completed": self.completed,
                "requests_failed": self.failed,
                "requests_shed": self.shed,
                "requests_deadline_shed": self.deadline_shed,
                "requests_degraded": self.degraded,
                "queue_depth": queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "latency": percentiles,
                "batches": self.batches,
                "batch_groups": self.groups,
                "batch_occupancy_mean": (
                    self.batched_queries / self.groups if self.groups else 0.0
                ),
                "partition_loads": self.partition_loads,
                "partitions_per_query": (
                    self.partition_loads / executed if executed else 0.0
                ),
                "partition_skew": self._skew_locked(),
                "result_cache_hits": self.cache_hits,
                "result_cache_misses": self.cache_misses,
                "result_cache_hit_rate": (
                    self.cache_hits / cache_total if cache_total else 0.0
                ),
            }
