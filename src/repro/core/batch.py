"""Batch query processing: answer many queries in one partition pass.

Interactive queries (paper §V) load one partition per query.  Analytical
workloads — classification, motif candidates, dedup of a whole ingest
batch — issue thousands of queries at once, and the distributed idiom is
to *group queries by target partition* so each partition is loaded exactly
once and its queries are answered together, partitions in parallel across
workers.  This module provides that execution strategy for exact match
and target-node kNN; per-query answers are identical to the interactive
path (tests assert it), only the cost model differs.

The per-partition groups really do run concurrently: each group is one
task on the configured execution backend (``executor=`` — see
:mod:`repro.cluster.executors` and docs/PARALLELISM.md), defaulting to
the process-wide executor, so a multicore driver processes a batch as a
cluster would.  Per-query accounting keeps the invariant the interactive
path established (tests/test_accounting.py): every result reports its
``partition_ids_loaded``, ``strategy``, ``nodes_visited``, and a ledger
whose partition-load tasks match ``partitions_loaded`` — the shared
group load is amortized over the group's queries as a
``query/load partition (batch-shared)`` stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from time import perf_counter

from ..cluster import SimulationLedger
from ..cluster.costmodel import timed_stage
from ..cluster.executors import resolve_executor
from ..faults.errors import PartialResultError, PartitionUnavailableError
from ..telemetry.perf import KERNELS as _KERNELS
from ..tsdb.paa import paa_transform
from ..tsdb.sax import sax_symbols
from .builder import TardisIndex
from .isaxt import batch_signatures
from .queries import ExactMatchResult, KnnResult, rank_neighbors

__all__ = [
    "BatchReport",
    "batch_exact_match",
    "batch_knn_target_node",
    "group_queries_by_partition",
]


@dataclass
class BatchReport:
    """Per-query answers plus whole-batch execution accounting."""

    results: list
    partitions_loaded: int = 0
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


def group_queries_by_partition(
    index: TardisIndex, queries: np.ndarray
) -> tuple[dict[int, list[int]], list[tuple[str, np.ndarray]]]:
    """Route every query; returns partition → query indices, plus the
    per-query (signature, PAA) conversions for reuse.

    This is *the* grouping rule of the batch tier — the serving
    micro-batcher (:mod:`repro.serving.batcher`) calls it too, so a
    request's batch group always matches where a batch pass would have
    placed it.

    Conversion is one PAA → SAX → transpose-encode pass over the whole
    query matrix (identical, row for row, to :func:`query_signature` —
    the equivalence suite pins it); only the routing table walk remains
    per query."""
    if len(queries) == 0:
        return {}, []
    config = index.config
    values = np.asarray(queries, dtype=np.float64)
    paa = paa_transform(values, config.word_length)
    symbols = sax_symbols(paa, config.cardinality_bits)
    signatures = batch_signatures(symbols, config.cardinality_bits)
    converted = list(zip(signatures, paa))
    t0 = perf_counter() if _KERNELS.enabled else 0.0
    groups: dict[int, list[int]] = {}
    for i, signature in enumerate(signatures):
        pid = index.global_index.route(signature)
        groups.setdefault(pid, []).append(i)
    if _KERNELS.enabled:
        _KERNELS.record("route", elements=len(converted),
                        seconds=perf_counter() - t0)
    return groups, converted


def _parallel_wall(per_partition_times: list[float], n_workers: int) -> float:
    """Longest-processing-time assignment of partition tasks to workers."""
    if not per_partition_times:
        return 0.0
    workers = [0.0] * max(1, n_workers)
    for task in sorted(per_partition_times, reverse=True):
        workers[workers.index(min(workers))] += task
    return max(workers)


def _charge_shared_load(
    result, load_s: float, group_size: int, partition_id: int
) -> None:
    """Amortize one group's partition load over its queries.

    Each query in the group carries an equal share of the single load, as
    one ``query/load partition (batch-shared)`` task — so the per-result
    accounting invariant (one load task per reported partition) holds
    while the batch as a whole still pays for the partition only once.
    """
    share = load_s / group_size
    result.partitions_loaded = 1
    result.partition_ids_loaded = [partition_id]
    result.ledger.record_stage(
        "query/load partition (batch-shared)", wall_s=share, io_s=share,
        tasks=1,
    )


def _run_groups(groups: dict[int, list[int]], group_fn, executor) -> list:
    """Run one task per (pid, indices) group, in deterministic pid order."""
    items = sorted(groups.items())
    return resolve_executor(executor).map_tasks(
        lambda _i, item: group_fn(item[0], item[1]), items
    )


def batch_exact_match(
    index: TardisIndex,
    queries: np.ndarray,
    use_bloom: bool = True,
    executor: object | str | None = None,
) -> BatchReport:
    """Exact-match a whole batch with one load per touched partition.

    Bloom filters still short-circuit: a partition whose filter rejects
    *all* of its routed queries is never loaded at all.  Partition groups
    run concurrently on ``executor`` (default: the process-wide backend).
    """
    report = BatchReport(results=[None] * len(queries))
    with timed_stage(report.ledger, "batch/route"):
        groups, converted = group_queries_by_partition(index, queries)

    def match_group(pid: int, indices: list[int]):
        partition = index.partitions[pid]
        results: dict[int, ExactMatchResult] = {}
        pending: list[int] = []
        for i in indices:
            signature = converted[i][0]
            if use_bloom and not partition.might_contain(signature):
                results[i] = ExactMatchResult(
                    record_ids=[], bloom_rejected=True
                )
            else:
                pending.append(i)
        if not pending:
            return results, 0.0, "skipped"
        load_ledger = SimulationLedger()
        try:
            index.load_partition(pid, ledger=load_ledger)
        except PartitionUnavailableError:
            # Bloom-rejected queries in this group are already answered;
            # the ones that needed the partition get the typed error as
            # their result slot (exact match has no sound partial answer).
            for i in pending:
                results[i] = PartialResultError(
                    [pid], detail="batch exact-match"
                )
            return results, load_ledger.clock_s, "failed"
        scratch = SimulationLedger()
        with timed_stage(scratch, "lookup"):
            for i in pending:
                signature = converted[i][0]
                leaf = partition.tree.descend(signature)
                result = ExactMatchResult(
                    record_ids=partition.exact_lookup(
                        signature, np.asarray(queries[i])
                    ),
                    nodes_visited=leaf.layer + 1,
                )
                _charge_shared_load(
                    result, load_ledger.clock_s, len(pending), pid
                )
                results[i] = result
        return results, load_ledger.clock_s + scratch.clock_s, "loaded"

    outcomes = _run_groups(groups, match_group, executor)
    partition_times: list[float] = []
    for results, group_time, status in outcomes:
        for i, result in results.items():
            report.results[i] = result
        if status == "loaded":
            report.partitions_loaded += 1
        if status != "skipped":
            # Failed loads still consumed retry/backoff wall time; the
            # batch pass must account for it even though no partition
            # became available.
            partition_times.append(group_time)
    wall = _parallel_wall(partition_times, index.config.n_workers)
    report.ledger.record_stage(
        "batch/partition pass", wall_s=wall, io_s=sum(partition_times),
        tasks=len(partition_times),
    )
    return report


def batch_knn_target_node(
    index: TardisIndex,
    queries: np.ndarray,
    k: int,
    executor: object | str | None = None,
) -> BatchReport:
    """Target-Node-Access kNN for a whole batch, one load per partition.

    Partition groups run concurrently on ``executor`` (default: the
    process-wide backend); answers are identical to the interactive
    target-node strategy query for query.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not index.clustered:
        raise RuntimeError("batch kNN needs a clustered index")
    report = BatchReport(results=[None] * len(queries))
    with timed_stage(report.ledger, "batch/route"):
        groups, converted = group_queries_by_partition(index, queries)
    qmat = np.asarray(queries, dtype=np.float64)

    def knn_group(pid: int, indices: list[int]):
        load_ledger = SimulationLedger()
        try:
            partition = index.load_partition(pid, ledger=load_ledger)
        except PartitionUnavailableError:
            # Home partition lost after retries: every query in the group
            # degrades to the empty (trivially correct) subset.
            return {
                i: KnnResult(
                    neighbors=[], strategy="target-node", degraded=True,
                    missing_partitions=[pid],
                )
                for i in indices
            }, load_ledger.clock_s, "failed"
        results: dict[int, KnnResult] = {}
        scratch = SimulationLedger()
        with timed_stage(scratch, "search"):
            for i in indices:
                signature = converted[i][0]
                target = partition.target_node(signature, k)
                candidates = partition.entries_under(target)
                result = KnnResult(neighbors=[], strategy="target-node")
                result.candidates_examined = len(candidates)
                # entries_under just (re)filled the node's subtree cache;
                # its node count is the visited count a traversal reports.
                result.nodes_visited = (
                    (target.layer + 1) + target.subtree_rows[2]
                )
                _charge_shared_load(
                    result, load_ledger.clock_s, len(indices), pid
                )
                if len(candidates):
                    # The node cache hands back the subtree's value rows
                    # already gathered, so scoring is the same subtract /
                    # row-reduce / sqrt as :func:`batch_euclidean`
                    # (bit-identical answers) without the per-query copy.
                    values, rids = partition.node_candidates(target)
                    t0 = perf_counter() if _KERNELS.enabled else 0.0
                    diff = values - qmat[i]
                    distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                    if _KERNELS.enabled:
                        _KERNELS.record("euclidean", elements=diff.size,
                                        seconds=perf_counter() - t0)
                    result.neighbors = rank_neighbors(distances, rids, k)
                results[i] = result
        return results, load_ledger.clock_s + scratch.clock_s, "loaded"

    outcomes = _run_groups(groups, knn_group, executor)
    partition_times: list[float] = []
    for results, group_time, status in outcomes:
        for i, result in results.items():
            report.results[i] = result
        if status == "loaded":
            report.partitions_loaded += 1
        if status != "skipped":
            # A failed load's retry/backoff time still belongs to the
            # batch pass even though no partition became available.
            partition_times.append(group_time)
    wall = _parallel_wall(partition_times, index.config.n_workers)
    report.ledger.record_stage(
        "batch/partition pass", wall_s=wall, io_s=sum(partition_times),
        tasks=len(partition_times),
    )
    return report
