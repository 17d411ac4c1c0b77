"""Signature-only kNN for un-clustered indices (paper §II-D).

DPiSAX is natively *un-clustered*: local leaves store only ``(signature,
record id)``, the raw series stay wherever they were loaded from.  Queries
must then either (a) answer from the signatures alone — ranking candidates
by the iSAX lower-bound distance, which further degrades accuracy — or
(b) pay scattered random I/O to refine against the raw data.  The paper
calls out (a)'s degradation as one of the baseline's weaknesses and builds
clustered indices for both systems in the evaluation.

This module implements path (a) for *both* systems so the degradation is
measurable (see ``benchmarks/test_ablation_unclustered.py``): candidates
come from the same target node the clustered strategies use, but the
final ranking uses ``mindist`` against the query PAA instead of the true
Euclidean distance, and the reported "distances" are those lower bounds.
"""

from __future__ import annotations

import numpy as np

from ..baseline.dpisax import BaselineQueryResult, DpisaxIndex
from ..cluster.costmodel import timed_stage
from ..tsdb.distance import mindist_paa_to_word, mindist_paa_to_words
from ..tsdb.paa import paa_transform
from .builder import TardisIndex
from .queries import KnnResult, query_signature, rank_neighbors

__all__ = [
    "knn_signature_only_tardis",
    "knn_signature_only_baseline",
]


def knn_signature_only_tardis(
    index: TardisIndex, query: np.ndarray, k: int
) -> KnnResult:
    """Target-node kNN answered purely from iSAX-T signatures.

    Works on clustered and un-clustered indices alike (raw series are
    never touched).  Returned ``distance`` values are MINDIST lower
    bounds, not true distances — matching what an un-clustered deployment
    can know without extra I/O.
    """
    result = KnnResult(neighbors=[])
    with timed_stage(result.ledger, "query/route"):
        signature, paa = query_signature(index, query)
        partition_id = index.global_index.route(signature)
    partition = index.load_partition(partition_id, ledger=result.ledger)
    result.partitions_loaded = 1
    with timed_stage(result.ledger, "query/signature rank"):
        target = partition.target_node(signature, k)
        candidates = partition.entries_under(target)
        result.candidates_examined = len(candidates)
        if len(candidates):
            # The block's pre-decoded symbol matrix makes the candidate
            # ranking a single batched lower-bound call.
            block = partition.block
            bounds = mindist_paa_to_words(
                paa,
                block.symbols[candidates],
                index.config.cardinality_bits,
                index.series_length,
            )
            result.neighbors = rank_neighbors(
                bounds, block.record_ids[candidates], k
            )
    return result


def knn_signature_only_baseline(
    index: DpisaxIndex, query: np.ndarray, k: int
) -> BaselineQueryResult:
    """DPiSAX's native un-clustered kNN: rank by word-region lower bound."""
    result = BaselineQueryResult(record_ids=[])
    with timed_stage(result.ledger, "query/route"):
        word = index.convert_query(query)
        pid = index.table.route(word)
    partition = index.load_partition(pid, ledger=result.ledger)
    result.partitions_loaded = 1
    with timed_stage(result.ledger, "query/signature rank"):
        paa = paa_transform(
            np.asarray(query, dtype=np.float64), index.config.word_length
        )
        target = partition.target_node(word, k)
        candidates = partition.tree.entries_under(target)
        result.candidates_examined = len(candidates)
        scored = []
        for cand_word, rid, _series in candidates:
            bound = mindist_paa_to_word(
                paa,
                np.asarray(cand_word.symbols),
                cand_word.bits[0],
                index.series_length,
            )
            scored.append((bound, rid))
        scored.sort()
        result.record_ids = [rid for _d, rid in scored[:k]]
        result.distances = [d for d, _rid in scored[:k]]
    return result
