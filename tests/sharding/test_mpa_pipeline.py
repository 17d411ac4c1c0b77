"""One MPA pipeline: select → scan slices → gather, however it is split.

Single-process Multi-Partitions Access scans the capped partition list
as one slice; a sharded router scans it as a seed slice (home partition
plus whatever else the home shard hosts) and scatter slices on other
shards.  Both call :func:`scan_partitions` and :func:`gather`, so any
split of the list must reproduce ``knn_multi_partitions_access``
exactly: neighbors with their tie order, and every accounting counter.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import (
    Neighbor,
    gather,
    knn_multi_partitions_access,
    query_signature,
    scan_partitions,
    select_mpa_partitions,
)
from repro.faults.errors import PartitionUnavailableError


@contextmanager
def _unavailable(index, lost_pid):
    """Make one partition fail to load, as after exhausted retries."""
    original = index.load_partition

    def load(pid, ledger=None, **kwargs):
        if pid == lost_pid:
            raise PartitionUnavailableError(pid, 1)
        return original(pid, ledger=ledger, **kwargs)

    index.load_partition = load
    try:
        yield
    finally:
        del index.load_partition


def _split_scan(index, query, k, pth, labels, n_scatter):
    """Scan the capped list as a seed slice plus scatter slices, then
    gather — the router's shape, minus the wire."""
    signature, paa = query_signature(index, query)

    def bound_of(pid):
        return index.partitions[pid].region_bound(paa, index.series_length)

    home, pids = select_mpa_partitions(
        index.global_index, signature, pth, bound_of
    )
    seed_slice = [
        pid for pid, label in zip(pids, labels) if label == 0 or pid == home
    ]
    seed = scan_partitions(index, query, k, seed_slice, home_pid=home)
    scans = [seed] + [
        scan_partitions(index, query, k, slice_, threshold=seed.threshold)
        for slice_ in (
            [
                pid for pid, label in zip(pids, labels)
                if label == j and pid != home
            ]
            for j in range(1, n_scatter + 1)
        )
        if slice_
    ]
    missing = sorted(pid for scan in scans for pid in scan.missing)
    neighbors, _bound = gather(
        [top for scan in scans for top in scan.tops], k, missing, bound_of
    )
    loaded = {pid for scan in scans for pid in scan.loaded}
    return {
        "neighbors": neighbors,
        "candidates": sum(scan.candidates for scan in scans),
        "visited": seed.target_layer + 1 + sum(s.visited for s in scans),
        "pruned": sum(scan.pruned for scan in scans),
        "loaded": [pid for pid in pids if pid in loaded],
        "missing": missing,
    }


def _assert_same(got, want):
    assert got["neighbors"] == want.neighbors
    assert got["candidates"] == want.candidates_examined
    assert got["visited"] == want.nodes_visited
    assert got["pruned"] == want.nodes_pruned
    assert got["loaded"] == want.partition_ids_loaded
    assert got["missing"] == want.missing_partitions


@given(
    query_no=st.integers(0, 39),
    k=st.integers(1, 25),
    pth=st.integers(1, 8),
    n_scatter=st.integers(1, 3),
    labels=st.lists(st.integers(0, 3), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_any_split_equals_single_process_mpa(
    tardis_small, heldout_queries, query_no, k, pth, n_scatter, labels
):
    query = heldout_queries[query_no]
    labels = [min(label, n_scatter) for label in labels]
    got = _split_scan(tardis_small, query, k, pth, labels, n_scatter)
    want = knn_multi_partitions_access(tardis_small, query, k, pth=pth)
    assert not want.degraded
    _assert_same(got, want)


@given(
    query_no=st.integers(0, 39),
    k=st.integers(1, 25),
    n_scatter=st.integers(1, 3),
    labels=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    lost_rank=st.integers(0, 6),
)
@settings(max_examples=40, deadline=None)
def test_missing_partition_gives_the_same_degraded_prefix(
    tardis_small, heldout_queries, query_no, k, n_scatter, labels,
    lost_rank,
):
    index = tardis_small
    query = heldout_queries[query_no]
    pth = 8
    labels = [min(label, n_scatter) for label in labels]
    signature, paa = query_signature(index, query)
    home, pids = select_mpa_partitions(
        index.global_index, signature, pth,
        lambda pid: index.partitions[pid].region_bound(
            paa, index.series_length
        ),
    )
    others = [pid for pid in pids if pid != home]
    if not others:
        return
    lost = others[lost_rank % len(others)]
    with _unavailable(index, lost):
        got = _split_scan(index, query, k, pth, labels, n_scatter)
        want = knn_multi_partitions_access(index, query, k, pth=pth)
    assert want.degraded and want.missing_partitions == [lost]
    _assert_same(got, want)


def _reference(tops, k, bound=None):
    """Plain sort, first occurrence per record id, take k, then cut."""
    best = {}
    for distance, rid in sorted(pair for top in tops for pair in top):
        best.setdefault(rid, distance)
    ranked = sorted((d, r) for r, d in best.items())[:k]
    if bound is not None:
        ranked = [(d, r) for d, r in ranked if d < bound]
    return [Neighbor(d, r) for d, r in ranked]


_pairs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
        st.integers(0, 12),
    ),
    max_size=12,
)


@given(
    tops=st.lists(_pairs, max_size=5),
    k=st.integers(1, 15),
    bound=st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.75, 9.0])),
)
@settings(max_examples=200, deadline=None)
def test_gather_matches_sorted_dedup_reference(tops, k, bound):
    neighbor_tops = [[Neighbor(d, r) for d, r in top] for top in tops]
    missing = [] if bound is None else [7]
    got, cut = gather(
        neighbor_tops, k, missing, bound_of=lambda pid: bound
    )
    assert got == _reference(tops, k, bound)
    assert cut == bound
    # the cut answer is a prefix of the complete one, all below the bound
    complete, _ = gather(neighbor_tops, k)
    assert complete[: len(got)] == got
    if bound is not None:
        assert all(n.distance < bound for n in got)
        assert all(n.distance >= bound for n in complete[len(got):])


def test_gather_cut_uses_the_smallest_missing_bound():
    tops = [[Neighbor(float(d), d) for d in range(6)]]
    bounds = {3: 4.0, 5: 2.5, 9: np.inf}
    got, cut = gather(tops, 6, [3, 5, 9], bound_of=bounds.__getitem__)
    assert cut == 2.5
    assert [n.record_id for n in got] == [0, 1, 2]
