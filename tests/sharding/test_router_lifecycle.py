"""Router request lifecycle and forwarded-op failover.

* ``stop(drain=False)`` fails the abandoned backlog through the shared
  finish path: every trace ends and the SLO tracker counts each
  admitted ticket exactly once.
* A shard replying ``overloaded`` to a forwarded exact-match, TNA or OPA
  request is failed over like a dead one: the replica answers, the
  answer stays bit-identical to single-process serving, and the journal
  records the failover.
"""

import threading
import time

import numpy as np
import pytest

from repro.serving import QueryRequest, QueryService
from repro.serving.admission import OverloadedError
from repro.telemetry.journal import EventJournal
from repro.telemetry.spans import disable_tracing, enable_tracing


@pytest.fixture
def tracer():
    tracer = enable_tracing()
    try:
        yield tracer
    finally:
        disable_tracing()


def test_stop_without_drain_finishes_abandoned_tickets(
    tardis_small, heldout_queries, tracer, router_factory
):
    gate = threading.Event()
    with router_factory(tardis_small, n_shards=2, workers=1) as (
        router, _cluster
    ):
        forward = router._execute_forward

        def held(*args):
            gate.wait(10)
            return forward(*args)

        # The lone worker holds the first ticket; the rest stay queued.
        router._execute_forward = held
        futures = [
            router.submit(QueryRequest(q, strategy="target-node", k=5))
            for q in heldout_queries[:6]
        ]
        deadline = time.monotonic() + 10
        while router.queue.depth != 5:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        router.stop(drain=False, timeout=0.05)
        gate.set()
        for thread in router._threads:
            thread.join(10)
        errors = [future.exception(timeout=10) for future in futures]
        report = router.stats()
    assert errors[0] is None
    assert all(
        isinstance(e, RuntimeError) and "without draining" in str(e)
        for e in errors[1:]
    )
    for future in futures:
        assert all(
            span.end_s is not None for span in future.trace_root.iter_spans()
        )
    assert report["requests_admitted"] == 6
    assert report["requests_completed"] == 1
    assert report["requests_failed"] == 5
    assert report["requests_deadline_shed"] == 0


def test_forwarded_ops_fail_over_on_overloaded(
    tardis_small, rw_small, heldout_queries, router_factory
):
    busy = 0
    probes = np.vstack([rw_small.values[:4], heldout_queries[:8]])
    requests = [
        QueryRequest(q, op=op, strategy=strategy, k=10)
        for q in probes
        for op, strategy in (
            ("knn", "target-node"),
            ("knn", "one-partition"),
            ("exact-match", "target-node"),
        )
    ]
    with QueryService(tardis_small, result_cache_size=None) as single:
        want = [single.query(request, timeout=60) for request in requests]
    journal = EventJournal()
    with router_factory(
        tardis_small, n_shards=3, replication=1, journal=journal
    ) as (router, cluster):
        service = cluster._shards[busy].server.service
        capacity = service.queue.capacity

        def overloaded(request):
            raise OverloadedError(capacity, capacity)

        service.submit = overloaded
        got = [router.query(request, timeout=60) for request in requests]
        report = router.stats()
    for request, g, w in zip(requests, got, want):
        if request.op == "exact-match":
            assert g.record_ids == w.record_ids
        else:
            assert g.record_ids == w.record_ids
            assert g.distances == w.distances
            assert not g.degraded
    assert report["requests_failed"] == 0
    failovers = [
        r for r in journal.snapshot()
        if r.get("kind") == "failover" and r["shard_id"] == busy
    ]
    assert failovers
    assert all(r["reason"].startswith("OverloadedError") for r in failovers)
