"""TARDIS query processing (paper §V).

Implements the Exact-Match algorithm (with and without the Bloom-filter
short-circuit) and the three kNN-Approximate strategies:

* **Target Node Access (TNA)** — route to the home partition, descend
  Tardis-L to the *target node* (lowest node with ≥ k entries), answer from
  its entries.  One partition load, minimal scan.
* **One Partition Access (OPA)** — TNA's k-th distance becomes a pruning
  threshold; the rest of the home partition's Tardis-L is scanned with the
  MINDIST lower bound to widen the candidate pool.
* **Multi-Partitions Access (MPA, Alg. 1)** — additionally loads up to
  ``pth`` sibling partitions (from the Tardis-G parent's id list) and
  prunes them all in parallel with the same threshold.  Its scan
  (:func:`scan_partitions`) and merge (:func:`gather`) are also what
  shards and the router of :mod:`repro.sharding` run.

Every partition access is charged to a query ledger so average query times
reproduce the Fig. 14-16 latency shapes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from ..cluster import SimulationLedger
from ..cluster.costmodel import timed_stage
from ..faults.errors import PartialResultError, PartitionUnavailableError
from ..telemetry.metrics import get_registry
from ..telemetry.spans import get_tracer
from ..tsdb.distance import batch_euclidean
from ..tsdb.paa import paa_transform
from .builder import TardisIndex
from .isaxt import signature_of_paa
from .local_index import LocalPartition, ScanStats

__all__ = [
    "Neighbor",
    "KnnResult",
    "ExactMatchResult",
    "query_signature",
    "exact_match",
    "knn_target_node_access",
    "knn_one_partition_access",
    "knn_multi_partitions_access",
    "select_mpa_partitions",
    "PartitionScan",
    "scan_partitions",
    "gather",
    "rank_neighbors",
    "top_k",
    "KNN_STRATEGIES",
]


@dataclass(frozen=True)
class Neighbor:
    """One answer: distance to the query plus the record id."""

    distance: float
    record_id: int


@dataclass
class KnnResult:
    """kNN answer set plus execution accounting."""

    neighbors: list[Neighbor]
    partitions_loaded: int = 0
    candidates_examined: int = 0
    #: Which strategy produced this result (drives answer certification).
    strategy: str = ""
    #: Ids of the partitions actually loaded (used by answer certification).
    partition_ids_loaded: list[int] = field(default_factory=list)
    #: sigTree nodes touched during descent/scan across all partitions.
    nodes_visited: int = 0
    #: Subtrees skipped by the MINDIST lower bound.
    nodes_pruned: int = 0
    #: True when partitions were unavailable after retries and the answer
    #: is a (guaranteed) subset of the no-fault baseline.
    degraded: bool = False
    #: Partition ids that could not be loaded (empty unless degraded).
    missing_partitions: list[int] = field(default_factory=list)
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def record_ids(self) -> list[int]:
        return [n.record_id for n in self.neighbors]

    @property
    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors]

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


@dataclass
class ExactMatchResult:
    """Exact-match answer plus execution accounting."""

    record_ids: list[int]
    bloom_rejected: bool = False
    partitions_loaded: int = 0
    #: Ids of the partitions actually loaded (empty on Bloom rejection).
    partition_ids_loaded: list[int] = field(default_factory=list)
    #: Tardis-L nodes on the descent path of the leaf lookup.
    nodes_visited: int = 0
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def found(self) -> bool:
        return bool(self.record_ids)

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.clock_s


logger = logging.getLogger(__name__)


def query_signature(index: TardisIndex, query: np.ndarray) -> tuple[str, np.ndarray]:
    """Convert a query series to ``(isaxt(b) signature, PAA word)``."""
    config = index.config
    paa = paa_transform(np.asarray(query, dtype=np.float64), config.word_length)
    return signature_of_paa(paa, config.cardinality_bits), paa


def _record_query_metrics(
    candidates: int = 0,
    nodes_visited: int = 0,
    nodes_pruned: int = 0,
    simulated_s: float = 0.0,
) -> None:
    """Fold one query's accounting into the shared metrics registry."""
    registry = get_registry()
    registry.counter(
        "queries_total", "Queries executed across all strategies"
    ).inc()
    if candidates:
        registry.counter(
            "query_candidates_examined_total",
            "Candidate series ranked by true distance",
        ).inc(candidates)
    if nodes_visited:
        registry.counter(
            "query_nodes_visited_total", "sigTree nodes touched by queries"
        ).inc(nodes_visited)
    if nodes_pruned:
        registry.counter(
            "query_mindist_prunes_total",
            "Subtrees/partitions skipped via the MINDIST lower bound",
        ).inc(nodes_pruned)
    registry.histogram(
        "query_simulated_seconds", "Simulated end-to-end query latency"
    ).observe(simulated_s)


def _annotate_knn_span(span, result: "KnnResult") -> None:
    """Copy a kNN result's accounting onto its root trace span."""
    span.set("partitions_loaded", result.partitions_loaded)
    span.set("candidates_examined", result.candidates_examined)
    span.set("nodes_visited", result.nodes_visited)
    span.set("nodes_pruned", result.nodes_pruned)
    span.set("simulated_s", result.ledger.clock_s)
    if result.degraded:
        span.set("degraded", True)
        span.set("missing_partitions", list(result.missing_partitions))


def _count_degraded() -> None:
    get_registry().counter(
        "query_degraded_total",
        "kNN queries answered degraded (partitions unavailable)",
    ).inc()


# ---------------------------------------------------------------------------
# Exact match (paper §V-A)
# ---------------------------------------------------------------------------


def exact_match(
    index: TardisIndex,
    query: np.ndarray,
    use_bloom: bool = True,
) -> ExactMatchResult:
    """Find all records identical to ``query`` (Definition 3).

    Steps: signature conversion → Tardis-G routing → Bloom-filter test
    (skipped by the NoBF variant) → partition load → Tardis-L leaf lookup.
    A negative Bloom test terminates with zero results *without* the
    partition load — the source of the Fig. 14 speedup on absent queries.
    """
    result = ExactMatchResult(record_ids=[])
    registry = get_registry()
    with get_tracer().span(
        "query/exact-match", use_bloom=use_bloom
    ) as query_span:
        with timed_stage(result.ledger, "query/route"):
            signature, _paa = query_signature(index, query)
            partition_id = index.global_index.route(signature)
        partition = index.partitions[partition_id]
        if use_bloom:
            with timed_stage(result.ledger, "query/bloom test"):
                positive = partition.might_contain(signature)
            if positive:
                registry.counter(
                    "query_bloom_positives_total",
                    "Bloom tests that passed (partition load required)",
                ).inc()
            else:
                registry.counter(
                    "query_bloom_negatives_total",
                    "Bloom tests that short-circuited an absent query",
                ).inc()
                result.bloom_rejected = True
                query_span.set("bloom_rejected", True)
                query_span.set("found", False)
                _record_query_metrics(simulated_s=result.ledger.clock_s)
                return result
        try:
            partition = index.load_partition(partition_id, ledger=result.ledger)
        except PartitionUnavailableError as exc:
            # Exact match has no sound partial answer — the lost partition
            # may hold the only match — so surface the typed error.
            raise PartialResultError(
                [partition_id], detail="exact-match home partition"
            ) from exc
        result.partitions_loaded = 1
        result.partition_ids_loaded = [partition_id]
        with timed_stage(result.ledger, "query/local search"):
            leaf = partition.tree.descend(signature)
            result.nodes_visited = leaf.layer + 1
            result.record_ids = partition.exact_lookup(
                signature, np.asarray(query)
            )
        query_span.set("partition_id", partition_id)
        query_span.set("nodes_visited", result.nodes_visited)
        query_span.set("found", result.found)
    _record_query_metrics(
        nodes_visited=result.nodes_visited,
        simulated_s=result.ledger.clock_s,
    )
    logger.debug(
        "exact-match: partition %d, found=%s", partition_id, result.found
    )
    return result


# ---------------------------------------------------------------------------
# kNN approximate (paper §V-B)
# ---------------------------------------------------------------------------


def rank_neighbors(distances, record_ids, k: int) -> list[Neighbor]:
    """The ``k`` smallest ``distances`` as neighbors, ties by record id.

    The one (distance, record_id) ranking every strategy, batch pass and
    ground-truth scan shares, so each returns the identical neighbor list.
    """
    order = np.lexsort((record_ids, distances))[:k]
    return [
        Neighbor(d, r)
        for d, r in zip(distances[order].tolist(), record_ids[order].tolist())
    ]


def top_k(
    query: np.ndarray, partition: LocalPartition, rows: np.ndarray, k: int
) -> list[Neighbor]:
    """k nearest block rows to the query by true Euclidean distance.

    One vectorized distance pass over the columnar value matrix, then
    :func:`rank_neighbors`.
    """
    if len(rows) == 0:
        return []
    block = partition.block
    distances = batch_euclidean(
        np.asarray(query, dtype=np.float64), block.values[rows]
    )
    return rank_neighbors(distances, block.record_ids[rows], k)


def _require_clustered(index: TardisIndex) -> None:
    if not index.clustered:
        raise RuntimeError(
            "TARDIS kNN strategies refine with raw series and need a "
            "clustered index (build with clustered=True)"
        )


def knn_target_node_access(
    index: TardisIndex, query: np.ndarray, k: int
) -> KnnResult:
    """Target Node Access: answer from the lowest ≥ k-entry node."""
    _require_clustered(index)
    result = KnnResult(neighbors=[], strategy="target-node")
    with get_tracer().span("query/knn", strategy="target-node", k=k) as span:
        with timed_stage(result.ledger, "query/route"):
            signature, _paa = query_signature(index, query)
            partition_id = index.global_index.route(signature)
        try:
            partition = index.load_partition(partition_id, ledger=result.ledger)
        except PartitionUnavailableError:
            # Home partition lost: degrade to the empty (trivially correct)
            # subset rather than failing the query.
            result.degraded = True
            result.missing_partitions = [partition_id]
            _annotate_knn_span(span, result)
            _count_degraded()
            _record_query_metrics(simulated_s=result.ledger.clock_s)
            return result
        result.partitions_loaded = 1
        result.partition_ids_loaded = [partition_id]
        with timed_stage(result.ledger, "query/local search"):
            scan = ScanStats()
            target = partition.target_node(signature, k)
            candidates = partition.entries_under(target, stats=scan)
            result.candidates_examined = len(candidates)
            result.nodes_visited = (target.layer + 1) + scan.visited
            result.neighbors = top_k(query, partition, candidates, k)
        _annotate_knn_span(span, result)
    _record_query_metrics(
        candidates=result.candidates_examined,
        nodes_visited=result.nodes_visited,
        nodes_pruned=result.nodes_pruned,
        simulated_s=result.ledger.clock_s,
    )
    return result


def knn_one_partition_access(
    index: TardisIndex, query: np.ndarray, k: int
) -> KnnResult:
    """One Partition Access: widen TNA with a pruned home-partition scan."""
    _require_clustered(index)
    result = KnnResult(neighbors=[], strategy="one-partition")
    with get_tracer().span("query/knn", strategy="one-partition", k=k) as span:
        with timed_stage(result.ledger, "query/route"):
            signature, paa = query_signature(index, query)
            partition_id = index.global_index.route(signature)
        try:
            partition = index.load_partition(partition_id, ledger=result.ledger)
        except PartitionUnavailableError:
            result.degraded = True
            result.missing_partitions = [partition_id]
            _annotate_knn_span(span, result)
            _count_degraded()
            _record_query_metrics(simulated_s=result.ledger.clock_s)
            return result
        result.partitions_loaded = 1
        result.partition_ids_loaded = [partition_id]
        with timed_stage(result.ledger, "query/local search"):
            scan = ScanStats()
            target = partition.target_node(signature, k)
            seed_entries = partition.entries_under(target, stats=scan)
            seed = top_k(query, partition, seed_entries, k)
            threshold = seed[-1].distance if len(seed) >= k else np.inf
            extra = partition.pruned_entries(
                paa, threshold, index.series_length, skip=target, stats=scan
            )
            candidates = np.concatenate([seed_entries, extra])
            result.candidates_examined = len(candidates)
            result.nodes_visited = (target.layer + 1) + scan.visited
            result.nodes_pruned = scan.pruned
            result.neighbors = top_k(query, partition, candidates, k)
        _annotate_knn_span(span, result)
    _record_query_metrics(
        candidates=result.candidates_examined,
        nodes_visited=result.nodes_visited,
        nodes_pruned=result.nodes_pruned,
        simulated_s=result.ledger.clock_s,
    )
    return result


def select_mpa_partitions(global_index, signature, pth, bound_of):
    """Candidate partitions for one Multi-Partitions Access query.

    Starts from the routed node's sibling id list in Tardis-G (Alg. 1
    line 4) plus the home partition.  When the list exceeds ``pth``, the
    cap keeps the home partition plus the ``pth - 1`` other candidates
    with the smallest MINDIST lower bound — ``bound_of(pid)``, computed
    from the partition's region synopsis — ties broken by partition id.
    Deterministic, so a sharded router holding only Tardis-G plus the
    per-partition synopses selects the same fan-out as single-process
    serving (the bit-equivalence contract of ``repro.sharding``).
    """
    home_pid = global_index.route(signature)
    pid_list = global_index.sibling_partition_ids(signature)
    if home_pid not in pid_list:
        pid_list.append(home_pid)
    if len(pid_list) > pth:
        others = sorted(
            (pid for pid in pid_list if pid != home_pid),
            key=lambda pid: (bound_of(pid), pid),
        )
        pid_list = [home_pid] + others[: pth - 1]
    return home_pid, pid_list


@dataclass
class PartitionScan:
    """One slice of a Multi-Partitions Access query, scanned.

    Single-process MPA scans the whole capped partition list as one
    slice; a shard scans the partitions it hosts.  Either way the
    per-partition top-k lists in ``tops`` are what :func:`gather` merges.
    """

    #: Partition ids that loaded, in request order.
    loaded: list[int] = field(default_factory=list)
    #: Partition ids still unavailable after the loader's retries.
    missing: list[int] = field(default_factory=list)
    #: Per-partition top-k lists (a seed slice's target-node list first).
    tops: list[list[Neighbor]] = field(default_factory=list)
    candidates: int = 0
    visited: int = 0
    pruned: int = 0
    #: Seed slice only: the k-th seed distance (``None`` = fewer than k
    #: seed candidates, an open threshold) and the target node's layer.
    threshold: float | None = None
    target_layer: int | None = None
    #: Seed slice whose home partition did not load: nothing was scanned.
    home_lost: bool = False


def scan_partitions(
    index: TardisIndex,
    query: np.ndarray,
    k: int,
    partition_ids,
    home_pid: int | None = None,
    threshold: float | None = None,
    ledger: SimulationLedger | None = None,
) -> PartitionScan:
    """Load and scan one slice of an MPA query (Alg. 1 lines 5-16).

    With ``home_pid`` given (the seed slice, which must list it), the
    pruning threshold is the k-th distance under the home partition's
    target node (lines 10-14); otherwise ``threshold`` carries the value
    a seed slice returned (``None`` meaning +inf).  Every loaded
    partition is MINDIST-pruned with it and ranks its own top-k (lines
    15-16).  Loads and scans run on parallel workers, so ``ledger`` is
    charged the slowest one of each.
    """
    ledger = ledger if ledger is not None else SimulationLedger()
    signature, paa = query_signature(index, query)
    out = PartitionScan()
    loaded: dict[int, LocalPartition] = {}
    load_times = []
    for pid in partition_ids:
        sub_ledger = SimulationLedger()
        try:
            loaded[pid] = index.load_partition(pid, ledger=sub_ledger)
        except PartitionUnavailableError:
            out.missing.append(pid)
        load_times.append(sub_ledger.clock_s)
    ledger.record_stage(
        "query/load partitions", wall_s=max(load_times, default=0.0),
        io_s=sum(load_times), tasks=len(load_times),
    )
    out.loaded = list(loaded)
    scan = ScanStats()
    target = None
    if home_pid is not None:
        if home_pid not in loaded:
            out.home_lost = True
            return out
        with timed_stage(ledger, "query/threshold"):
            home = loaded[home_pid]
            target = home.target_node(signature, k)
            seed_entries = home.entries_under(target, stats=scan)
            seed_top = top_k(query, home, seed_entries, k)
        out.tops.append(seed_top)
        out.candidates += len(seed_entries)
        out.threshold = seed_top[-1].distance if len(seed_top) >= k else None
        out.target_layer = target.layer
        threshold = out.threshold
    bound = np.inf if threshold is None else float(threshold)
    scan_times = []
    for pid, partition in loaded.items():
        skip = target if pid == home_pid else None
        scratch = SimulationLedger()
        with timed_stage(scratch, "query/scan partition"):
            survivors = partition.pruned_entries(
                paa, bound, index.series_length, skip=skip, stats=scan
            )
            out.tops.append(top_k(query, partition, survivors, k))
        out.candidates += len(survivors)
        scan_times.append(scratch.clock_s)
    ledger.record_stage(
        "query/parallel scan+rank",
        wall_s=max(scan_times, default=0.0),
        cpu_s=sum(scan_times),
        tasks=len(scan_times),
    )
    out.visited = scan.visited
    out.pruned = scan.pruned
    return out


def gather(
    tops, k: int, missing=(), bound_of=None
) -> tuple[list[Neighbor], float | None]:
    """Merge per-partition top-k lists into the answer (Alg. 1 line 17).

    Sorts by ``(distance, record_id)``, keeps each record id once, and
    takes ``k``.  With partitions ``missing``, the answer is cut below
    ``min(bound_of(pid) for pid in missing)``: the region synopsis gives
    a MINDIST lower bound on the distance to ANY record of a missing
    partition, so every kept neighbor strictly below it provably
    precedes all missing candidates in the no-fault ordering, and the
    cut answer is a prefix of the no-fault one.  Returns the neighbors
    and the cut bound (``None`` when nothing is missing).
    """
    merged = sorted(
        chain.from_iterable(tops), key=attrgetter("distance", "record_id")
    )
    neighbors: list[Neighbor] = []
    seen_ids: set[int] = set()
    for neighbor in merged:
        if len(neighbors) == k:
            break
        if neighbor.record_id not in seen_ids:
            seen_ids.add(neighbor.record_id)
            neighbors.append(neighbor)
    if not missing:
        return neighbors, None
    safe_bound = min(bound_of(pid) for pid in missing)
    return [n for n in neighbors if n.distance < safe_bound], safe_bound


def knn_multi_partitions_access(
    index: TardisIndex,
    query: np.ndarray,
    k: int,
    pth: int | None = None,
) -> KnnResult:
    """Multi-Partitions Access (Alg. 1): prune across sibling partitions.

    :func:`select_mpa_partitions` picks the home partition plus up to
    ``pth - 1`` siblings, :func:`scan_partitions` scans them all as one
    slice, and :func:`gather` merges the per-partition top-k lists.  A
    sharded router runs the same three functions, the scan split across
    shards.  Partitions unavailable after retries degrade the answer to
    a provable prefix instead of failing the query.
    """
    _require_clustered(index)
    pth = pth or index.config.pth
    result = KnnResult(neighbors=[], strategy="multi-partitions")
    with get_tracer().span(
        "query/knn", strategy="multi-partitions", k=k, pth=pth
    ) as span:
        with timed_stage(result.ledger, "query/route"):
            signature, paa = query_signature(index, query)

            def bound_of(pid: int) -> float:
                return index.partitions[pid].region_bound(
                    paa, index.series_length
                )

            home_pid, pid_list = select_mpa_partitions(
                index.global_index, signature, pth, bound_of
            )
        scan = scan_partitions(
            index, query, k, pid_list, home_pid=home_pid, ledger=result.ledger
        )
        result.partitions_loaded = len(scan.loaded)
        result.partition_ids_loaded = scan.loaded
        if scan.missing:
            result.degraded = True
            result.missing_partitions = sorted(scan.missing)
            _count_degraded()
        if scan.home_lost:
            # The threshold partition itself is gone: no sound subset of
            # the baseline can be computed, so degrade to empty.
            _annotate_knn_span(span, result)
            _record_query_metrics(simulated_s=result.ledger.clock_s)
            return result
        with timed_stage(result.ledger, "query/merge"):
            result.neighbors, _bound = gather(
                scan.tops, k, scan.missing, bound_of
            )
        result.candidates_examined = scan.candidates
        result.nodes_visited = (scan.target_layer + 1) + scan.visited
        result.nodes_pruned = scan.pruned
        _annotate_knn_span(span, result)
    _record_query_metrics(
        candidates=result.candidates_examined,
        nodes_visited=result.nodes_visited,
        nodes_pruned=result.nodes_pruned,
        simulated_s=result.ledger.clock_s,
    )
    logger.debug(
        "multi-partitions kNN: %d partitions, %d candidates",
        result.partitions_loaded, result.candidates_examined,
    )
    return result


#: Strategy registry used by benchmarks and examples.
KNN_STRATEGIES = {
    "target-node": knn_target_node_access,
    "one-partition": knn_one_partition_access,
    "multi-partitions": knn_multi_partitions_access,
}
