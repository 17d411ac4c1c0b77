"""Every admitted ticket finishes exactly once, however the service ends.

A ticket leaves the service through one finish path: answered, failed
or deadline-shed.  Abandoning the backlog (``stop(drain=False)``) and a
crashed batch window fail their tickets through that same path, so
their traces end and the SLO tracker counts them.
"""

import time

import pytest

from repro.serving import QueryRequest, QueryService
from repro.telemetry.spans import disable_tracing, enable_tracing


@pytest.fixture
def tracer():
    tracer = enable_tracing()
    try:
        yield tracer
    finally:
        disable_tracing()


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.005)


def assert_every_ticket_finished(service, futures):
    """Roots (and all their segments) ended; each ticket counted once."""
    for future in futures:
        future.exception(timeout=10)
        assert all(
            span.end_s is not None for span in future.trace_root.iter_spans()
        )
    report = service.stats()
    assert report["requests_admitted"] == len(futures)
    assert (
        report["requests_completed"] + report["requests_failed"]
        + report["requests_deadline_shed"]
    ) == len(futures)
    return report


def _knn(query):
    return QueryRequest(query, op="knn", strategy="target-node", k=5)


def test_stop_without_drain_finishes_abandoned_tickets(
    tardis_small, heldout_queries, tracer
):
    service = QueryService(
        tardis_small, max_batch=1, result_cache_size=None
    ).start()
    # The batcher takes the first ticket, then blocks on the maintenance
    # lock; everything after it is still queued when the service stops.
    with service._maintenance_lock:
        futures = [service.submit(_knn(q)) for q in heldout_queries[:6]]
        wait_until(lambda: service.queue.depth == 5)
        service.stop(drain=False, timeout=0.05)
    service._thread.join(10)
    errors = [future.exception(timeout=10) for future in futures]
    assert errors[0] is None
    assert all(
        isinstance(e, RuntimeError) and "without draining" in str(e)
        for e in errors[1:]
    )
    report = assert_every_ticket_finished(service, futures)
    assert report["requests_failed"] == 5


def test_crashed_batch_window_finishes_its_tickets(
    tardis_small, heldout_queries, tracer
):
    service = QueryService(tardis_small, result_cache_size=None)

    def crash(window):
        raise RuntimeError("window crashed")

    service._execute_window = crash
    with service:
        futures = [service.submit(_knn(q)) for q in heldout_queries[:4]]
        errors = [future.exception(timeout=10) for future in futures]
    assert all(str(e) == "window crashed" for e in errors)
    report = assert_every_ticket_finished(service, futures)
    assert report["requests_failed"] == 4
    assert len(tracer.roots) == 4
