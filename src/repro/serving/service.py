"""The query service: admission → micro-batch → worker pool → SLO.

:class:`QueryService` is the long-lived serving loop over one loaded
:class:`~repro.core.builder.TardisIndex`:

1. :meth:`submit` checks the keyed result cache, then admits the request
   into the bounded :class:`~repro.serving.admission.AdmissionQueue`
   (blocking or shedding per the backpressure policy).
2. A dedicated batcher thread takes everything queued (up to
   ``max_batch``) as soon as it is free — requests that arrived while the
   previous window ran share the next one — groups the window by plan +
   Tardis-G home partition, and dispatches one task per group onto the
   configured :mod:`repro.cluster.executors` backend — per-strategy
   routing happens inside :func:`repro.serving.batcher.run_group`.
3. Completed groups resolve their request futures, feed the result
   cache, and report latency / occupancy / partition-load figures to the
   :class:`~repro.serving.slo.SLOTracker`.

Every request also owns one **trace**: :meth:`submit` mints a
``serve/request`` root span, hands it across the queue and executor
boundaries on the ticket, and the batcher stitches ``serve/queue-wait``
/ ``serve/batch-wait`` / ``serve/execute`` (and the core load/scan
spans beneath it) under that root — one per-query timeline regardless
of which thread did what.  Completed requests additionally feed the
:class:`~repro.telemetry.journal.SlowQueryLog`, whose structured
records land in the bounded :class:`~repro.telemetry.journal.EventJournal`
served by the ``journal`` wire op.

Shutdown is graceful by default: :meth:`stop` closes admissions, lets
the batcher drain everything already accepted, and joins the thread.
Answers are identical to the serial :mod:`repro.core.queries` path for
every backend and batch size (tests/serving/test_service_equivalence.py).
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path

from ..cluster.executors import resolve_executor
from ..core.builder import TardisIndex
from ..core.rebalance import OnlineRebalancer
from ..core.wal import WriteAheadLog
from ..faults.errors import InjectedTaskCrash
from ..faults.injector import get_injector
from ..telemetry.context import trace_id_of
from ..telemetry.journal import EventJournal, SlowQueryLog, get_journal
from ..telemetry.metrics import get_registry
from ..telemetry.spans import NULL_SPAN, Span, get_tracer
from .admission import AdmissionQueue, DeadlineExceededError, OverloadedError
from .batcher import group_tickets, partitions_loaded, run_group
from .requests import QueryRequest, WriteRequest, WriteResult
from .result_cache import ResultCache
from .slo import SLOTracker

__all__ = ["QueryService", "Ticket"]

logger = logging.getLogger(__name__)


@dataclass
class Ticket:
    """One in-flight request: the work, its future, its clock — and its
    trace.  The span handles ride the ticket across the admission queue
    and the executor so every pipeline stage can stitch its segment
    under the same ``serve/request`` root (no-op spans when tracing is
    off)."""

    request: QueryRequest
    future: Future
    enqueued_at: float
    span: object = field(default=NULL_SPAN, repr=False)
    queue_span: object = field(default=NULL_SPAN, repr=False)
    wait_span: object = field(default=NULL_SPAN, repr=False)
    dequeued_at: float = 0.0
    exec_started_at: float = 0.0
    exec_finished_at: float = 0.0
    #: Monotonic instant the deadline budget runs out (None = no budget).
    deadline_at: float | None = None

    @property
    def trace_id(self):
        return trace_id_of(self.span)


class _ServiceBase:
    """The request lifecycle every serving front-end shares.

    Admit (result cache, then the bounded queue) → shed on deadline →
    execute → finish.  Subclasses own the execution loop and provide
    ``queue``, ``slo``, ``journal``, ``slow_log``, ``result_cache``,
    ``default_deadline_s`` and the ``_started``/``_stopped`` flags, plus
    two stop hooks: :meth:`_stop_background` (before admissions close)
    and :meth:`_join` (after).
    """

    #: Names the front-end in lifecycle errors and logs.
    _NAME = "service"
    #: Extra attributes on every ``serve/request`` root span.
    _ROOT_ATTRS: dict = {}

    # -- lifecycle ----------------------------------------------------------

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Close admissions; drain (default) or abandon the backlog.

        Abandoned tickets fail through :meth:`_finish` like any other
        failed request: their traces end and the SLO tracker counts them.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        self._stop_background()
        self.queue.close()
        if not drain:
            while leftovers := self.queue.take_batch(64):
                for ticket in leftovers:
                    self._finish(ticket, error=RuntimeError(
                        f"{self._NAME} stopped without draining"
                    ))
        self._join(timeout)
        logger.info("%s stopped (drained=%s)", self._NAME, drain)

    def _stop_background(self) -> None:
        """Stop background work before admissions close."""

    def _join(self, timeout: float | None) -> None:
        """Join the execution threads once the queue is closed."""

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=True)

    # -- request path -------------------------------------------------------

    def submit(self, request: QueryRequest) -> Future:
        """Admit one request; the returned future resolves to a core
        query result (:class:`ExactMatchResult` / :class:`KnnResult`).

        Under the ``shed`` policy a full queue raises
        :class:`OverloadedError` here, synchronously.
        """
        self._check_running()
        if len(request.series) != self.index.series_length:
            raise ValueError(
                f"query length {len(request.series)} != indexed length "
                f"{self.index.series_length}"
            )
        attrs = (
            {"strategy": request.strategy} if request.op == "knn" else {}
        )
        root = self._open_root(
            request, "serve/request", "shard/request",
            op=request.op, **self._ROOT_ATTRS, **attrs,
        )
        return self._admit(request, root)

    def query(self, request: QueryRequest, timeout: float | None = None):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result(timeout)

    def _check_running(self) -> None:
        if not self._started or self._stopped:
            raise RuntimeError(
                f"{self._NAME} is not running (use start()/with)"
            )

    def _open_root(self, request, name: str, remote_name: str, **attrs):
        """The request's root span.

        A request forwarded from a router carries a trace context: its
        root joins the remote trace instead of minting a new one.  The
        root's parent lives in the router process, so end_span will not
        collect it locally — it ships back in the reply for re-parenting
        (shard-side half of the repro.tracectx/v1 carrier; see
        telemetry.carrier).
        """
        tracer = get_tracer()
        ctx = getattr(request, "trace_ctx", None)
        if ctx is None:
            return tracer.start_span(name, **attrs)
        shard_id = getattr(self, "shard_id", None)
        if shard_id is not None:
            attrs["shard_id"] = shard_id
        return tracer.start_remote_span(
            remote_name, ctx.trace_id, ctx.parent_span_id, **attrs
        )

    def _admit(self, request, root) -> Future:
        """Answer from the result cache, or enqueue one ticket."""
        tracer = get_tracer()
        future: Future = Future()
        if isinstance(root, Span):
            future.trace_root = root
        if self.result_cache is not None and request.op != "write":
            cached = self.result_cache.get(request.cache_key())
            if cached is not None:
                tracer.end_span(tracer.start_span("serve/cache", parent=root))
                root.set("cached", True)
                # End the root *before* resolving the future so waiters
                # (and the wire handler) see a finished trace.
                tracer.end_span(root)
                future.set_result(cached)
                self.slo.record_completed(0.0, cached=True)
                self.slow_log.observe(
                    0.0, trace_id=trace_id_of(root), op=request.op,
                    cached=True,
                )
                return future
        queue_span = tracer.start_span("serve/queue-wait", parent=root)
        deadline_s = (
            request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else self.default_deadline_s
        )
        enqueued_at = time.monotonic()
        ticket = Ticket(
            request, future, enqueued_at,
            span=root, queue_span=queue_span,
            deadline_at=(
                None if deadline_s is None else enqueued_at + deadline_s
            ),
        )
        try:
            self.queue.put(ticket)
        except OverloadedError:
            queue_span.set("error", "overloaded")
            tracer.end_span(queue_span)
            root.set("error", "overloaded")
            tracer.end_span(root)
            self.journal.record(
                "shed", trace_id=trace_id_of(root), op=request.op,
                queue_depth=self.queue.depth,
            )
            self.slo.record_shed()
            raise
        self.slo.record_admitted(self.queue.depth)
        return future

    def _shed_expired(self, ticket, now: float) -> None:
        """Cancel one ticket whose deadline passed while it queued."""
        tracer = get_tracer()
        waited_s = now - ticket.enqueued_at
        deadline_s = ticket.deadline_at - ticket.enqueued_at
        ticket.queue_span.set("error", "deadline")
        tracer.end_span(ticket.queue_span)
        root = ticket.span
        root.set("error", "deadline")
        tracer.end_span(root)
        self.journal.record(
            "deadline", trace_id=trace_id_of(root), op=ticket.request.op,
            waited_ms=waited_s * 1000.0, deadline_ms=deadline_s * 1000.0,
        )
        self.slo.record_deadline_shed()
        ticket.future.set_exception(
            DeadlineExceededError(waited_s, deadline_s)
        )

    def _finish(
        self, ticket, result=None, error=None, degraded: bool = False,
        now: float | None = None, **fields,
    ) -> None:
        """Close one ticket: end its trace, resolve its future, and feed
        the SLO tracker and slow-query log (``fields`` add to the record).

        The root span ends *before* the future resolves so anything
        woken by the result — the wire handler embedding the trace, a
        done-callback — sees a complete timeline.  Queue and batch waits
        still open (an abandoned or crashed ticket) end with it.
        """
        tracer = get_tracer()
        now = time.monotonic() if now is None else now
        latency_s = now - ticket.enqueued_at
        root = ticket.span
        if error is not None:
            root.set("error", f"{type(error).__name__}: {error}")
        if degraded:
            root.set("degraded", True)
        tracer.end_span(ticket.queue_span)
        tracer.end_span(ticket.wait_span)
        tracer.end_span(root)
        if error is not None:
            ticket.future.set_exception(error)
            self.slo.record_completed(latency_s, failed=True)
        else:
            ticket.future.set_result(result)
            self.slo.record_completed(
                latency_s, degraded=degraded,
                write=ticket.request.op == "write",
            )
        request = ticket.request
        fields.update(
            trace_id=ticket.trace_id,
            op=request.op,
            queue_wait_s=max(0.0, ticket.dequeued_at - ticket.enqueued_at),
            execute_s=max(
                0.0, ticket.exec_finished_at - ticket.exec_started_at
            ),
        )
        if request.op == "knn":
            fields["strategy"] = request.strategy
        if error is not None:
            fields["error"] = repr(error)
        if degraded:
            fields["degraded"] = True
            fields["missing_partitions"] = list(
                getattr(result, "missing_partitions", [])
            )
        self.slow_log.observe(latency_s, **fields)

    # -- introspection ------------------------------------------------------

    def recent_traces(
        self, n: int = 10, trace_id: str | None = None
    ) -> list[dict]:
        """Recent finished request traces as ``repro.trace/v1`` span dicts.

        With ``trace_id`` given, exactly that trace (empty list when it
        fell out of the tracer's root ring or never existed).  Backs the
        ``trace`` wire op.
        """
        tracer = get_tracer()
        if trace_id:
            root = tracer.find_trace(trace_id)
            return [root.to_dict()] if root is not None else []
        roots = tracer.roots
        return [root.to_dict() for root in roots[-max(0, n):]] if n > 0 else []


class QueryService(_ServiceBase):
    """Serve Exact-Match and kNN queries over a loaded TARDIS index."""

    def __init__(
        self,
        index: TardisIndex,
        *,
        queue_capacity: int = 256,
        policy: str = "block",
        max_batch: int = 16,
        max_delay_ms: float = 0.0,
        executor: object | str | None = None,
        jobs: int | None = None,
        result_cache_size: int | None = 1024,
        partition_cache_size: int | None = None,
        slow_query_threshold_ms: float = 100.0,
        journal_sample: float = 0.0,
        journal: EventJournal | None = None,
        default_deadline_ms: float | None = None,
        wal: WriteAheadLog | str | Path | None = None,
        rebalance: bool = False,
        rebalance_overflow: float = 1.5,
        rebalance_interval_s: float = 0.25,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms cannot be negative")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if not index.clustered:
            # Exact-match compares raw values and kNN refines with them;
            # the signature-only unclustered paths (core.unclustered) are
            # analysis tools, not serving surfaces.
            raise RuntimeError(
                "serving needs a clustered index (build with clustered=True)"
            )
        self.index = index
        self.max_batch = max_batch
        self.max_delay_s = max_delay_ms / 1000.0
        self.default_deadline_s = (
            None if default_deadline_ms is None
            else default_deadline_ms / 1000.0
        )
        self.executor = resolve_executor(executor, jobs)
        if self.executor.kind == "processes":
            # The fork executor is unsafe inside a multithreaded serving
            # process: server handler threads may hold the telemetry,
            # partition-cache, or SLO locks at fork time, and a child
            # that touches those (every query records metrics) inherits
            # them held forever — deadlock.  The batch CLI forks from a
            # single-threaded driver; serving cannot.
            logger.warning(
                "executor='processes' is unsupported for serving "
                "(fork from a multithreaded process can deadlock); "
                "falling back to 'threads'"
            )
            self.executor = resolve_executor("threads", jobs)
        self.queue = AdmissionQueue(queue_capacity, policy=policy)
        self.slo = SLOTracker()
        self.journal = journal if journal is not None else get_journal()
        self.slow_log = SlowQueryLog(
            threshold_s=slow_query_threshold_ms / 1000.0,
            sample_rate=journal_sample,
            journal=self.journal,
        )
        self.result_cache = (
            ResultCache(result_cache_size) if result_cache_size else None
        )
        if partition_cache_size:
            index.enable_cache(partition_cache_size)
        # Invalidate cached answers together with the partition cache:
        # maintenance that drops a partition from residency also drops the
        # results derived from it.
        partition_cache = getattr(index, "_partition_cache", None)
        if partition_cache is not None and self.result_cache is not None:
            partition_cache.subscribe_invalidations(
                self.result_cache.invalidate_partition
            )
        self._thread: threading.Thread | None = None
        self._started = False
        self._stopped = False
        self._submit_lock = threading.Lock()
        # -- streaming ingest ---------------------------------------------
        # Writes are applied by the batcher thread under this lock; the
        # online rebalancer's snapshot and swap phases take it too, so a
        # read window never observes a half-applied insert or a
        # half-swapped partition layout.
        self._maintenance_lock = threading.Lock()
        self._owns_wal = isinstance(wal, (str, Path))
        self.wal = WriteAheadLog(wal) if self._owns_wal else wal
        self._writes_total = 0
        self._write_records_total = 0
        self._writes_failed = 0
        #: Shards set this: pinned-id rows already present in their
        #: routed partition are acknowledged without re-inserting, so
        #: replica fan-out and redelivery stay idempotent.
        self._idempotent_writes = False
        self._ingest_rate = 0.0
        self._rate_window_start = time.monotonic()
        self._rate_acc = 0
        self.extra_ops = {
            "write": self._op_write,
            "write-batch": self._op_write,
        }
        self.rebalancer: OnlineRebalancer | None = None
        if rebalance:
            self.rebalancer = OnlineRebalancer(
                index,
                overflow_factor=rebalance_overflow,
                interval_s=rebalance_interval_s,
                wal=self.wal,
                gate=self._maintenance_gate,
                on_applied=self._on_rebalanced,
                journal=self.journal,
            )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "QueryService":
        if self._started:
            return self
        self._started = True
        self._thread = threading.Thread(
            target=self._batch_loop, name="repro-serving-batcher", daemon=True
        )
        self._thread.start()
        if self.rebalancer is not None:
            self.rebalancer.start()
        logger.info(
            "serving started: policy=%s queue=%d max_batch=%d "
            "max_delay=%.1fms executor=%s",
            self.queue.policy, self.queue.capacity, self.max_batch,
            self.max_delay_s * 1000.0, self.executor.kind,
        )
        return self

    def _stop_background(self) -> None:
        if self.rebalancer is not None:
            self.rebalancer.stop()

    def _join(self, timeout: float | None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
        if self._owns_wal and self.wal is not None:
            self.wal.close()

    # -- write path ---------------------------------------------------------

    def submit_write(self, request: WriteRequest) -> Future:
        """Admit one batched append; the future resolves to a
        :class:`~repro.serving.requests.WriteResult`.

        Writes share the admission queue, backpressure policy, and
        deadline budget with queries.  The batcher thread applies them
        between read windows — serialized, never concurrent with a
        query — and acknowledges only after the batch reached the
        write-ahead log (when one is attached).
        """
        self._check_running()
        if request.batch.shape[1] != self.index.series_length:
            raise ValueError(
                f"write series length {request.batch.shape[1]} != indexed "
                f"length {self.index.series_length}"
            )
        root = self._open_root(
            request, "serve/write", "shard/write",
            op="write", n_records=int(request.batch.shape[0]),
        )
        return self._admit(request, root)

    def write(
        self, batch, record_ids=None, deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> WriteResult:
        """Blocking convenience wrapper around :meth:`submit_write`."""
        request = WriteRequest(
            batch=batch, record_ids=record_ids, deadline_ms=deadline_ms
        )
        return self.submit_write(request).result(timeout)

    def _op_write(self, doc: dict):
        """Wire handler for ``write`` / ``write-batch`` (extra_ops)."""
        request = WriteRequest.from_wire(doc)
        return self.submit_write(request).result().to_wire()

    # -- batch loop ---------------------------------------------------------

    def _batch_loop(self) -> None:
        while True:
            window = self.queue.take_batch(self.max_batch, self.max_delay_s)
            if not window:
                return  # queue closed and drained
            try:
                self._execute_window(window)
            except BaseException as exc:  # never kill the loop
                logger.exception("serving batch failed")
                for ticket in window:
                    if not ticket.future.done():
                        self._finish(ticket, error=exc)

    def _execute_window(self, window: list) -> None:
        tracer = get_tracer()
        dequeued = time.monotonic()
        live: list = []
        writes: list = []
        for ticket in window:
            # Queue wait is over.  Tickets whose deadline budget already
            # expired are shed here — cancelled without ever being
            # grouped or executed; the rest start their batch wait
            # (grouping + executor dispatch + sibling-group contention).
            ticket.dequeued_at = dequeued
            if ticket.deadline_at is not None and dequeued >= ticket.deadline_at:
                self._shed_expired(ticket, dequeued)
                continue
            tracer.end_span(ticket.queue_span)
            ticket.wait_span = tracer.start_span(
                "serve/batch-wait", parent=ticket.span
            )
            if isinstance(ticket.request, WriteRequest):
                writes.append(ticket)
            else:
                live.append(ticket)
        if not live and not writes:
            return
        # The whole window runs under the maintenance lock — the same
        # lock the online rebalancer's snapshot and swap phases take.
        # Writes land first, in admission order, so reads in the same
        # window observe them; neither ever interleaves with a
        # half-swapped partition layout.  Reads still never wait on a
        # *rebalance*: the expensive re-pack (plan + partition build)
        # runs off-lock in the rebalancer thread, and only the brief
        # pointer swap contends here (measured as rebalance pause).
        #
        # WAL lines are written unsynced inside the window and fsynced
        # once after the reads run — acknowledgements wait for that
        # barrier (ack ⇒ fsynced), but reads sharing the window never
        # stall behind a disk flush for writes they can already see
        # in memory.
        pending: list = []
        with self._maintenance_lock:
            for ticket in writes:
                self._apply_write(ticket, pending)
            if live:
                self._execute_reads(live)
        if pending:
            if self.wal is not None:
                self.wal.sync()
            for ticket, result in pending:
                ticket.exec_finished_at = time.monotonic()
                self._finish(
                    ticket, result=result,
                    n_records=result.acknowledged, durable=result.durable,
                )

    def _execute_reads(self, window: list) -> None:
        groups = group_tickets(self.index, window)
        outcomes = self.executor.map_tasks(
            lambda _i, group: self._run_group_safely(group), groups
        )
        now = time.monotonic()
        loaded_pids: list = []
        for group, (results, error) in zip(groups, outcomes):
            if error is not None:
                self.journal.record(
                    "error", op=group.plan_key[0],
                    partition_id=group.partition_id,
                    n_queries=group.size, error=repr(error),
                )
                for ticket in group.tickets:
                    self._finish_ticket(
                        ticket, group, now, len(window), error=error
                    )
                continue
            loaded_pids.extend(partitions_loaded(results))
            for ticket, result in zip(group.tickets, results):
                if isinstance(result, BaseException):
                    # Typed per-query failure inside an otherwise healthy
                    # group (e.g. PartialResultError for a lost
                    # partition): fail this ticket, keep its siblings.
                    self._finish_ticket(
                        ticket, group, now, len(window), error=result
                    )
                    continue
                degraded = bool(getattr(result, "degraded", False))
                if self.result_cache is not None and not degraded:
                    # Degraded answers are never cached: they reflect a
                    # transient unavailability, not the index's truth.
                    # Bloom-rejected exact matches never load a partition,
                    # so index the cached "not found" under the routed home
                    # partition (the group key): an insert_series into that
                    # partition then invalidates the negative answer
                    # instead of leaving it stale forever.
                    pids = (
                        result.partition_ids_loaded or (group.partition_id,)
                    )
                    self.result_cache.put(
                        ticket.request.cache_key(), result, pids
                    )
                self._finish_ticket(
                    ticket, group, now, len(window), result=result,
                    degraded=degraded,
                )
        self.slo.record_batch(len(window), len(groups), loaded_pids)
        self.journal.record(
            "batch", n_queries=len(window), n_groups=len(groups),
            partition_loads=len(loaded_pids),
            partitions=sorted(set(loaded_pids)),
        )

    # -- write apply (batcher thread, under the maintenance lock) -----------

    def _apply_write(self, ticket, pending: list) -> None:
        """Apply one write batch: route → fault gate → WAL → index → caches.

        Ordering is the durability contract: the batch reaches the
        write-ahead log *before* the in-memory apply, and the future is
        resolved only after the window's group fsync — so an
        acknowledged write survives a crash, and a crash before the WAL
        line means the client saw a failure, never a silent loss.
        Successful applies are staged on ``pending``; the drain loop
        fsyncs once and resolves them after the window's reads run.
        Failures resolve immediately (nothing to make durable) —
        injected ``ingest/append`` faults fire before the WAL line for
        the same reason: a failed write must not replay.
        """
        tracer = get_tracer()
        ticket.exec_started_at = time.monotonic()
        tracer.end_span(ticket.wait_span)
        apply_span = tracer.start_span("serve/apply", parent=ticket.span)
        request = ticket.request
        try:
            batch = request.batch
            # Route first: a batch that cannot route fails before it can
            # reach the WAL (replay would hit the same error).
            partition_ids = self.index.route_batch(batch)
            self._ingest_fault_gate(int(partition_ids[0]))
            record_ids = request.record_ids
            durable = False
            if self.wal is not None:
                if record_ids is None:
                    # Pre-assign so the WAL line carries the ids the
                    # index will use (replay pins them).
                    record_ids = [
                        self.index._next_record_id()
                        for _ in range(batch.shape[0])
                    ]
                self.wal.log_appends(
                    [(rid, batch[i]) for i, rid in enumerate(record_ids)],
                    sync=False,
                )
                durable = True
            report = self.index.ingest(
                batch, record_ids=record_ids,
                skip_existing=self._idempotent_writes and record_ids is not None,
            )
            # index.ingest already invalidated partition-cache residency
            # (which notifies the result cache); partitions without a
            # partition cache still need their cached answers dropped.
            if self.result_cache is not None:
                cache = getattr(self.index, "_partition_cache", None)
                if cache is None:
                    for pid in report.touched:
                        self.result_cache.invalidate_partition(pid)
                if any(report.regions_added.values()):
                    # Region growth shrinks MINDIST bounds: an MPA answer
                    # that *pruned* a touched partition may now be wrong
                    # (see result_cache.invalidate_strategy).
                    self.result_cache.invalidate_strategy("multi-partitions")
            result = WriteResult(
                record_ids=report.record_ids,
                partition_ids=report.partition_ids,
                durable=durable,
                regions_added=report.regions_added,
            )
            apply_span.set("n_records", len(report.record_ids))
            apply_span.set("partitions", sorted(set(report.touched)))
            tracer.end_span(apply_span)
            self._record_write_metrics(len(report.record_ids))
            pending.append((ticket, result))
        except BaseException as exc:
            apply_span.set("error", f"{type(exc).__name__}: {exc}")
            tracer.end_span(apply_span)
            self._writes_failed += 1
            get_registry().counter(
                "serving_writes_failed_total",
                "Write batches rejected or crashed before acknowledgement",
            ).inc()
            ticket.exec_finished_at = time.monotonic()
            self._finish(ticket, error=exc)

    def _ingest_fault_gate(self, partition_id: int) -> None:
        """Fire the ``ingest/append`` fault site for one write batch.

        Mirrors the read path's injected retry loop: ``task-slow`` delays
        once, ``task-crash`` retries with backoff until the plan stops
        firing or the budget is spent — then the write fails *before*
        reaching the WAL (never durable, never acknowledged).
        """
        injector = get_injector()
        if injector is None:
            return
        seq = injector.next_seq("ingest", "append", partition_id)
        attempt = 1
        while True:
            fault = injector.ingest_fault("append", partition_id, seq, attempt)
            if fault is None:
                return
            if fault.kind == "task-slow":
                time.sleep(fault.delay_ms / 1000.0)
                return
            if attempt >= injector.retry.max_attempts:
                raise InjectedTaskCrash(
                    f"ingest/append/partition {partition_id}", attempt
                )
            injector.count_retry()
            time.sleep(injector.backoff_s(
                attempt, "ingest", "append", partition_id, seq
            ))
            attempt += 1

    def _record_write_metrics(self, n_records: int) -> None:
        registry = get_registry()
        registry.counter(
            "serving_writes_total", "Write batches acknowledged"
        ).inc()
        registry.counter(
            "serving_write_records_total", "Records appended via serving"
        ).inc(n_records)
        self._writes_total += 1
        self._write_records_total += n_records
        # Records/sec over a rolling ~1s window, published as a gauge.
        self._rate_acc += n_records
        now = time.monotonic()
        elapsed = now - self._rate_window_start
        if elapsed >= 1.0:
            self._ingest_rate = self._rate_acc / elapsed
            registry.gauge(
                "serving_ingest_records_per_s",
                "Streaming-ingest throughput (rolling window)",
            ).set(self._ingest_rate)
            self._rate_window_start = now
            self._rate_acc = 0

    # -- rebalancer hooks ----------------------------------------------------

    def _maintenance_gate(self, fn):
        """Run ``fn`` with the read/write pipeline excluded.

        Handed to the :class:`OnlineRebalancer` as its ``gate``: the
        snapshot and swap phases run inside, the expensive partition
        build runs outside — so the serving pause a rebalance causes is
        the swap alone.
        """
        with self._maintenance_lock:
            return fn()

    def _on_rebalanced(self, report) -> None:
        """Cache coherence after a committed rebalance cycle.

        Every split or created partition changes both contents and
        MINDIST bounds, so residency and derived answers go; MPA answers
        planned against the old layout go wholesale (a replan may select
        the new partitions even for queries that never loaded the old
        ones).
        """
        for pid in list(report.split_partition_ids) + list(
            report.created_partition_ids
        ):
            self.invalidate_partition(pid)
        if self.result_cache is not None:
            self.result_cache.invalidate_strategy("multi-partitions")

    def _finish_ticket(
        self, ticket, group, now: float, batch_size: int,
        result=None, error=None, degraded: bool = False,
    ) -> None:
        """:meth:`_finish` one read ticket with its batch context."""
        ticket.span.set("batch_size", batch_size)
        ticket.span.set("group_size", group.size)
        self._finish(
            ticket, result, error, degraded, now=now,
            batch_size=batch_size,
            group_size=group.size,
            partitions=(
                sorted(result.partition_ids_loaded)
                if result is not None else []
            ),
            batch_wait_s=max(
                0.0, ticket.exec_started_at - ticket.dequeued_at
            ),
        )

    def _run_group_safely(self, group):
        """(results, error) so one bad group cannot sink its siblings."""
        tracer = get_tracer()
        started = time.monotonic()
        for ticket in group.tickets:
            ticket.exec_started_at = started
            tracer.end_span(ticket.wait_span)
        try:
            return self._run_group_injected(group), None
        except BaseException as exc:
            return None, exc
        finally:
            finished = time.monotonic()
            for ticket in group.tickets:
                ticket.exec_finished_at = finished

    def _run_group_injected(self, group):
        """Execute one group under the active fault plan (if any).

        An injected ``task-crash`` on a ``serve/<op>`` site fails the
        whole group attempt; recovery retries with real backoff until the
        plan stops firing or the budget is spent.  ``task-slow`` delays
        the group once, then executes."""
        injector = get_injector()
        if injector is None:
            return run_group(self.index, group)
        op = group.plan_key[0]
        group_seq = injector.next_seq("serve", op, group.partition_id)
        attempt = 1
        while True:
            fault = injector.serve_fault(
                op, group.partition_id, group_seq, attempt
            )
            if fault is None:
                return run_group(self.index, group)
            if fault.kind == "task-slow":
                time.sleep(fault.delay_ms / 1000.0)
                return run_group(self.index, group)
            if attempt >= injector.retry.max_attempts:
                raise InjectedTaskCrash(
                    f"serve/{op}/partition {group.partition_id}", attempt
                )
            injector.count_retry()
            time.sleep(injector.backoff_s(
                attempt, "serve", op, group.partition_id, group_seq
            ))
            attempt += 1

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """SLO report plus cache and configuration snapshots."""
        report = self.slo.report(queue_depth=self.queue.depth)
        report["config"] = {
            "policy": self.queue.policy,
            "queue_capacity": self.queue.capacity,
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_s * 1000.0,
            "executor": self.executor.kind,
            "jobs": self.executor.jobs,
            "default_deadline_ms": (
                None if self.default_deadline_s is None
                else self.default_deadline_s * 1000.0
            ),
        }
        if self.result_cache is not None:
            report["result_cache"] = self.result_cache.stats()
        partition_stats = self.index.cache_stats()
        if partition_stats is not None:
            report["partition_cache"] = partition_stats
        report["ingest"] = {
            "writes_total": self._writes_total,
            "write_records_total": self._write_records_total,
            "writes_failed": self._writes_failed,
            "records_per_s": self._ingest_rate,
            "wal": (
                None if self.wal is None else {
                    "path": str(self.wal.path),
                    "appends_logged": self.wal.appends_logged,
                    "cycles_logged": self.wal.cycles_logged,
                }
            ),
        }
        if self.rebalancer is not None:
            report["rebalance"] = self.rebalancer.stats()
        report["journal"] = self.journal.stats()
        report["tracing"] = get_tracer().enabled
        from ..telemetry.perf import KERNELS

        if KERNELS.enabled:
            # Live kernel cost attribution for repro top / --stats.
            report["kernels"] = KERNELS.totals()
        return report

    def invalidate_partition(self, partition_id: int) -> None:
        """Drop one partition from both caches (after index maintenance)."""
        cache = getattr(self.index, "_partition_cache", None)
        if cache is not None:
            cache.invalidate(partition_id)  # notifies the result cache
        elif self.result_cache is not None:
            self.result_cache.invalidate_partition(partition_id)
