"""Correctness and durability checks; any failure fails the run.

Each check is a plain function of answers and references, so the
self-tests can hand it a corrupted answer or a WAL with an acknowledged
record dropped and watch it fail.
"""

from __future__ import annotations

import numpy as np

from repro.core import replay_wal


def knn_pairs(result) -> list[tuple[float, int]]:
    return [(n.distance, n.record_id) for n in result.neighbors]


def same_knn(served, reference) -> bool:
    """Bit-identical answers: every (distance, record_id), in order."""
    return knn_pairs(served) == knn_pairs(reference)


def exact_ok(result, row: int) -> bool:
    """A hit returns exactly its row's record id; a miss finds nothing."""
    if row < 0:
        return not result.found
    return list(result.record_ids) == [row]


def brute_force_ids(data: np.ndarray, queries: np.ndarray, k: int,
                    ids: np.ndarray | None = None) -> np.ndarray:
    """Top-``k`` record ids per query by a full numpy scan."""
    norms = np.einsum("ij,ij->i", data, data)
    out = np.empty((len(queries), k), dtype=np.int64)
    for lo in range(0, len(queries), 256):
        block = queries[lo:lo + 256]
        dist = norms[None, :] - 2.0 * block @ data.T
        top = np.argpartition(dist, k, axis=1)[:, :k]
        out[lo:lo + 256] = top if ids is None else ids[top]
    return out


def recall_at_k(answers: list[list[int]], truth: np.ndarray) -> float:
    k = truth.shape[1]
    hits = [len(set(a) & set(t.tolist())) / k for a, t in zip(answers, truth)]
    return float(np.mean(hits)) if hits else float("nan")


def durability(base_index, wal_path, acked_ids) -> tuple[list[str], object]:
    """Replay only the WAL bytes on disk onto ``base_index``.

    Every acknowledged record id must come back and ``n_records`` must
    equal the base count plus the acknowledged records.  Returns the
    failures and the replay report.
    """
    base_n = base_index.n_records
    report = replay_wal(base_index, wal_path)
    failures = []
    missing = set(acked_ids) - set(report.record_ids)
    if missing:
        failures.append(
            f"durability: {len(missing)} acknowledged records not in the WAL"
        )
    if base_index.n_records != base_n + len(set(acked_ids)):
        failures.append(
            f"durability: n_records {base_index.n_records} != base {base_n}"
            f" + acknowledged {len(set(acked_ids))}"
        )
    return failures, report
