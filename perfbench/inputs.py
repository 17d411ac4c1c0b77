"""Seeded inputs: the indexed data, query pools, request streams, writes.

Everything the program receives is made here from the ``--seed``
argument alone, so one seed always yields identical inputs
(``selftest.py`` checks it).  The program never sees the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import TardisConfig
from repro.tsdb import random_walk

#: Indexed series and their length: large enough that the index beats a
#: numpy scan, small enough for a 2-CPU host.
N_SERIES = 50_000
LENGTH = 128
K = 10

#: Distinct queries the point-serve stream draws from.  With Zipf
#: s = 1 the result cache (1024 entries, LRU) answers ~58% of requests,
#: which puts the median right on the edge between the cache-hit and
#: the executed mode and makes it flip from run to run; s = 0.8 gives
#: ~34% hits, so the median is an executed request.
POOL_SIZE = 8192
ZIPF_S = 0.8
#: Ingest writes are noisy copies of this many indexed series, drawn at
#: random: enough that the mean size of the partitions written to, which
#: sets the insert cost, varies little from seed to seed.
WRITE_SOURCES = 64
#: Row whose 16 nearest neighbours make the hot region of the traced
#: rebalance burst.
HOT_ROW = 10
HOT_SOURCES = 16
WRITE_BATCH = 8
WRITE_NOISE = 0.05


def index_config() -> TardisConfig:
    return TardisConfig(
        g_max_size=N_SERIES // 16, l_max_size=N_SERIES // 150, pth=8
    )


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


def _z(values: np.ndarray) -> np.ndarray:
    values = values - values.mean(axis=-1, keepdims=True)
    return values / values.std(axis=-1, keepdims=True)


#: The indexed collection is the same for every seed, like a fixed
#: benchmark dataset; the seed varies the traffic (queries, arrival
#: times, writes).  A per-seed collection would add build and layout
#: variance to every metric without testing anything the traffic
#: does not.
DATASET_SEED = 20190408


def dataset():
    """The 50k x 128 random-walk collection (z-normalized)."""
    return random_walk(N_SERIES, length=LENGTH, seed=DATASET_SEED).z_normalized()


def held_out(seed: int, count: int) -> np.ndarray:
    """``count`` random walks that are not in the index."""
    rng = _streams(seed, 2)[1]
    return random_walk(
        count, length=LENGTH, seed=int(rng.integers(2**31))
    ).z_normalized().values


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over ``duration_s``."""
    n = max(1, int(rate * duration_s * 1.5) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while offsets[-1] < duration_s:  # pragma: no cover - 1.5x is ample
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration_s]


@dataclass(frozen=True)
class Op:
    """One generated request: what to send, and what a right answer is.

    ``kind`` is ``knn``, ``exact`` or ``write``.  ``row`` is the indexed
    row an exact-match must find (-1: must miss); ``query_id`` names a
    distinct query so answers can be sampled and recall computed once
    per query.
    """

    kind: str
    series: np.ndarray
    strategy: str = ""
    row: int = -1
    query_id: int = -1
    held_out: bool = False


class PointServeInputs:
    """Zipf draws from an 8,192-query pool: half indexed rows, half not.

    Mix: 70% target-node kNN, 10% one-partition kNN, 20% exact-match.
    An exact-match on an indexed row must find that row; on a held-out
    series it must miss, so hits and misses are about half each.
    """

    MIX = (("knn", "target-node", 0.7), ("knn", "one-partition", 0.1),
           ("exact", "", 0.2))
    KNN_MIX = {"target-node": 0.7, "one-partition": 0.1}

    def __init__(self, seed: int, data: np.ndarray):
        rng = _streams(seed, 3)[2]
        half = POOL_SIZE // 2
        self.rows = rng.choice(len(data), size=half, replace=False)
        self.pool = np.vstack([data[self.rows], held_out(seed, half)])
        # Popularity rank -> pool slot, so hot queries are a random mix
        # of indexed and held-out series.
        self.rank_to_slot = rng.permutation(POOL_SIZE)
        weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights) / weights.sum()

    def op(self, rng: np.random.Generator) -> Op:
        slot = int(self.rank_to_slot[
            min(POOL_SIZE - 1, int(np.searchsorted(self.cdf, rng.random())))
        ])
        indexed = slot < len(self.rows)
        draw = rng.random()
        for kind, strategy, share in self.MIX:
            if draw < share:
                break
            draw -= share
        return Op(
            kind=kind, series=self.pool[slot], strategy=strategy,
            row=int(self.rows[slot]) if indexed else -1,
            query_id=slot, held_out=not indexed,
        )

    def probe_op(self, rng: np.random.Generator) -> Op:
        """A held-out pool query, uniformly, for the recall probe."""
        slot = len(self.rows) + int(rng.integers(POOL_SIZE - len(self.rows)))
        strategy = "target-node" if rng.random() < 0.875 else "one-partition"
        return Op(kind="knn", series=self.pool[slot], strategy=strategy,
                  query_id=slot, held_out=True)


class MpaInputs:
    """Unique held-out Multi-Partitions kNN queries (no cache reuse)."""

    KNN_MIX = {"multi-partitions": 1.0}

    def __init__(self, seed: int, count: int):
        self.queries = held_out(seed, count)
        self.next = 0

    def op(self, rng: np.random.Generator) -> Op:
        i = self.next % len(self.queries)
        self.next += 1
        return Op(kind="knn", series=self.queries[i],
                  strategy="multi-partitions", query_id=i, held_out=True)


class IngestInputs:
    """Half write batches, half reads (80% target-node, 20% MPA).

    Writes are noisy copies of 64 indexed series drawn at random, so
    they spread over most partitions and none reaches the rebalance
    watermark within a run.  Reads are unique held-out queries.
    ``hot_op`` makes writes that all land near row ``HOT_ROW`` instead;
    the traced run uses them to push one region past the watermark.
    """

    KNN_MIX = {"target-node": 0.8, "multi-partitions": 0.2}

    def __init__(self, seed: int, data: np.ndarray, n_reads: int):
        rng = _streams(seed, 4)[3]
        self.sources = data[rng.choice(len(data), WRITE_SOURCES,
                                       replace=False)]
        dist = np.einsum("ij,ij->i", data, data) - 2.0 * data @ data[HOT_ROW]
        self.hot_sources = data[np.argsort(dist)[:HOT_SOURCES]]
        self.queries = held_out(seed, n_reads)
        self.next_read = 0

    def _write(self, rng: np.random.Generator, sources: np.ndarray) -> Op:
        picks = rng.integers(len(sources), size=WRITE_BATCH)
        noisy = sources[picks] + WRITE_NOISE * rng.standard_normal(
            (WRITE_BATCH, LENGTH)
        )
        return Op(kind="write", series=_z(noisy))

    def op(self, rng: np.random.Generator) -> Op:
        if rng.random() < 0.5:
            return self._write(rng, self.sources)
        return self.probe_op(rng)

    def probe_op(self, rng: np.random.Generator) -> Op:
        """The next unique held-out read."""
        i = self.next_read % len(self.queries)
        self.next_read += 1
        strategy = "target-node" if rng.random() < 0.8 else "multi-partitions"
        return Op(kind="knn", series=self.queries[i], strategy=strategy,
                  query_id=i, held_out=True)

    def hot_op(self, rng: np.random.Generator) -> Op:
        return self._write(rng, self.hot_sources)


def request_stream(source, rng: np.random.Generator, n: int) -> list[Op]:
    return [source.op(rng) for _ in range(n)]


def phase_rng(seed: int, phase: int) -> np.random.Generator:
    """Independent generator per load phase (lo, hi, capacity, ...)."""
    return _streams(seed, 8 + phase)[4 + phase]
