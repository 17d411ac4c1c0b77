"""Open- and closed-loop load generators that time from the due instant.

The open loop sends each request at its scheduled arrival and times it
from that instant, not from when the send actually happened: a stall in
the sender or in a blocking ``submit`` then shows up as latency of every
request it delayed, and the sender's own lateness is reported
separately (``gen.late_p99_ms``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter


@dataclass
class Sample:
    """One request's life: due, sent and done instants (``clock``)."""

    op: object
    due: float
    sent: float = float("nan")
    done: float = float("nan")
    result: object = None
    error: BaseException | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class PhaseReport:
    samples: list
    duration_s: float
    extra: dict = field(default_factory=dict)

    def ok(self, kind=None) -> list:
        return [
            s for s in self.samples
            if s.error is None and (kind is None or s.op.kind in kind)
        ]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error is not None)


def _finish(sample: Sample, future, on_result) -> None:
    sample.done = clock()
    error = future.exception()
    if error is not None:
        sample.error = error
        return
    sample.result = future.result()
    if on_result is not None:
        try:
            on_result(sample)
        except Exception as exc:  # a degraded answer counts as failed
            sample.error = exc


def open_loop(submit, ops, offsets, *, on_result=None,
              timeout_s: float = 60.0) -> PhaseReport:
    """Send ``ops[i]`` at ``start + offsets[i]`` through ``submit``.

    ``submit(op)`` returns a future.  ``on_result(sample)`` may raise to
    mark an answer failed (e.g. a degraded one).  Completion is stamped
    in the future's done callback, on whichever thread resolves it.
    """
    samples = [Sample(op, 0.0) for op in ops]
    futures = []
    start = clock() + 0.005
    for sample, offset in zip(samples, offsets):
        sample.due = start + float(offset)
        wait = sample.due - clock()
        if wait > 0:
            time.sleep(wait)
        sample.sent = clock()
        try:
            future = submit(sample.op)
        except Exception as exc:  # shed at admission
            sample.done = clock()
            sample.error = exc
            continue
        futures.append(future)
        future.add_done_callback(
            lambda f, s=sample: _finish(s, f, on_result)
        )
    deadline = clock() + timeout_s
    for future in futures:
        try:
            future.result(max(0.0, deadline - clock()))
        except Exception:
            pass  # recorded by the callback
    # A done callback may still be running on the resolving thread.
    while any(s.done != s.done for s in samples) and clock() < deadline:
        time.sleep(0.001)
    for s in samples:
        if s.done != s.done:
            s.done = clock()
            s.error = TimeoutError("no answer within the phase timeout")
    return PhaseReport(samples, clock() - start)


def closed_loop(call, next_op, *, callers: int, duration_s: float,
                on_result=None) -> PhaseReport:
    """``callers`` threads each send their next op after the last answer.

    ``next_op()`` makes the ops, one sequence shared by the callers;
    throughput is the number completed within ``duration_s``.
    """
    lock = threading.Lock()
    samples: list[Sample] = []
    stop_at = clock() + duration_s

    def worker() -> None:
        while True:
            now = clock()
            if now >= stop_at:
                return
            with lock:
                op = next_op()
            sample = Sample(op, now, sent=now)
            try:
                sample.result = call(op)
            except Exception as exc:
                sample.error = exc
            sample.done = clock()
            if sample.error is None and on_result is not None:
                try:
                    on_result(sample)
                except Exception as exc:
                    sample.error = exc
            with lock:
                samples.append(sample)

    started = clock()
    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration_s + 60.0)
    return PhaseReport(samples, clock() - started)


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")
