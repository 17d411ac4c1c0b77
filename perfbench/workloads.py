"""The three workloads: how each is set up, driven and checked.

Every workload indexes the same 50k x 128 random walks with
``g_max_size = N/16``, ``l_max_size = N/150``, ``pth = 8`` and serves
them at the defaults a user gets (result cache 1024, ``max_batch`` 16,
``max_delay_ms`` 2, tracing off).  It reaches the program only through
its public API: ``repro.core``, ``repro.serving`` and
``repro.sharding``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import (
    build_tardis_index,
    exact_match,
    knn_multi_partitions_access,
    knn_one_partition_access,
    knn_target_node_access,
)
from repro.serving import QueryRequest, QueryService, ServingClient, TardisServer
from repro.serving.requests import WriteRequest, wire_to_result
from repro.sharding import (
    RouterIndex,
    RouterService,
    ShardCluster,
    plan_shards,
)

from . import inputs
from .checks import exact_ok, same_knn
from .loadgen import clock

CORE_KNN = {
    "target-node": lambda index, q: knn_target_node_access(index, q, inputs.K),
    "one-partition": lambda index, q: knn_one_partition_access(
        index, q, inputs.K),
    "multi-partitions": lambda index, q: knn_multi_partitions_access(
        index, q, inputs.K),
}


def to_request(op) -> QueryRequest:
    if op.kind == "exact":
        return QueryRequest(op.series, op="exact-match")
    return QueryRequest(op.series, op="knn", strategy=op.strategy, k=inputs.K)


def core_call(index, op):
    if op.kind == "exact":
        return exact_match(index, op.series)
    return CORE_KNN[op.strategy](index, op.series)


def reject_degraded(sample) -> None:
    if getattr(sample.result, "degraded", False):
        raise RuntimeError("degraded answer")


def wire_doc(op) -> dict:
    series = np.asarray(op.series, dtype=np.float64).tolist()
    if op.kind == "exact":
        return {"op": "exact-match", "series": series}
    return {"op": "knn", "series": series, "strategy": op.strategy,
            "k": inputs.K}


class Workload:
    """One traffic mix over one set-up system.

    ``setup`` builds everything a user would start (data, index,
    service) and warms it; ``teardown`` stops it.  ``submit`` returns a
    future, ``call`` blocks.
    """

    name = ""
    #: Open-loop rates (requests/s), set from a probe of each workload's
    #: closed-loop capacity on a 2-CPU host: ``hi`` stays below half of
    #: it, so the run measures latency rather than a growing backlog.
    lo = hi = 0.0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.index = None
        self.service = None
        self.setups = 0

    # -- lifecycle --------------------------------------------------------
    def setup(self) -> None:
        self.setups += 1
        self.data = inputs.dataset()
        self.source = self.make_source()
        self.index = build_tardis_index(self.data, inputs.index_config())
        self.start()
        self.warm()

    def make_source(self):
        raise NotImplementedError

    def start(self) -> None:
        self.service = QueryService(self.index).start()

    def warm(self) -> None:
        rng = inputs.phase_rng(self.seed, 6)
        ops = [op for op in inputs.request_stream(self.source, rng, 128)
               if op.kind != "write"]
        for lo in range(0, len(ops), 16):
            for future in [self.submit(op) for op in ops[lo:lo + 16]]:
                future.result(60.0)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- traffic ------------------------------------------------------------
    def submit(self, op):
        return self.service.submit(to_request(op))

    def call(self, op):
        return self.submit(op).result(60.0)

    def stats(self) -> dict:
        return self.service.stats()

    # -- checks -------------------------------------------------------------
    def check_answers(self, samples, failures: list) -> None:
        """Served answers against the direct core call on the same index.

        Every exact-match is checked; kNN answers are sampled evenly.
        """
        knn = [s for s in samples if s.op.kind == "knn"]
        for s in knn[:: max(1, len(knn) // 48)]:
            if not same_knn(s.result, core_call(self.index, s.op)):
                failures.append(
                    f"{self.name}: served {s.op.strategy} kNN differs from "
                    f"repro.core for query {s.op.query_id}"
                )
        for s in samples:
            if s.op.kind == "exact" and not exact_ok(s.result, s.op.row):
                failures.append(
                    f"{self.name}: exact-match on row {s.op.row} "
                    f"returned {list(s.result.record_ids)}"
                )

    def truth_data(self):
        """(values, record ids) every held-out answer is scored against."""
        return self.data.values, None

    def layers(self, op) -> list[tuple[str, object]]:
        """(layer, call) pairs one replayed request passes through."""
        request = to_request(op)
        return [
            ("core", lambda: core_call(self.index, op)),
            ("service", lambda: self.replay_service.query(request, 60.0)),
        ]

    def open_replay(self) -> None:
        # The replay service has no result cache, so every replayed
        # request executes in every layer.
        self.replay_service = QueryService(
            self.index, result_cache_size=None
        ).start()

    def close_replay(self) -> None:
        self.replay_service.stop()


class PointServe(Workload):
    """In-process QueryService, Zipf point queries with cache reuse."""

    name = "point-serve"
    lo, hi = 150.0, 300.0

    def make_source(self):
        return inputs.PointServeInputs(self.seed, self.data.values)


class MpaSharded(Workload):
    """RouterService over a 2-shard cluster, unique held-out MPA kNN.

    The shards run in this process (``threads`` mode), each behind its
    own TCP server, so every scatter still crosses the JSON wire.  With
    ``processes`` mode the three processes compete for the host's two
    CPUs and a slow stretch of the host moved this workload's medians by
    30% from run to run (IQR/median 0.29 over ten runs), beyond any
    bound a regression gate can use.
    """

    name = "mpa-sharded"
    lo, hi = 16.0, 24.0

    def make_source(self):
        return inputs.MpaInputs(self.seed, 4096)

    def start(self) -> None:
        plan = plan_shards(
            {pid: p.n_records for pid, p in self.index.partitions.items()},
            2, 0,
        )
        started = clock()
        self.cluster = ShardCluster(
            plan, mode="threads", index=self.index
        ).start()
        self.spawn_s = clock() - started
        self.router = RouterService(
            RouterIndex.from_index(self.index), plan, self.cluster.addresses
        ).start()

    def teardown(self) -> None:
        if getattr(self, "router", None) is not None:
            self.router.stop()
            self.router = None
        if getattr(self, "cluster", None) is not None:
            self.cluster.stop()
            self.cluster = None

    def submit(self, op):
        return self.router.submit(to_request(op))

    def stats(self) -> dict:
        return self.router.stats()

    def shard_stats(self) -> list[dict]:
        out = []
        for host, port in self.cluster.addresses:
            with ServingClient(host, port) as client:
                out.append(client.stats())
        return out

    def check_answers(self, samples, failures: list) -> None:
        """Router answers against single-process serving and repro.core."""
        with QueryService(self.index) as local:
            for s in samples[:: max(1, len(samples) // 32)]:
                single = local.query(to_request(s.op), 60.0)
                direct = core_call(self.index, s.op)
                if not same_knn(s.result, single):
                    failures.append(
                        f"{self.name}: router answer differs from "
                        f"single-process QueryService for query "
                        f"{s.op.query_id}"
                    )
                if not same_knn(single, direct):
                    failures.append(
                        f"{self.name}: QueryService answer differs from "
                        f"repro.core for query {s.op.query_id}"
                    )

    def open_replay(self) -> None:
        super().open_replay()
        self.wire_server = TardisServer(self.replay_service).start()
        self.wire_client = ServingClient(*self.wire_server.address)
        self.wire_bytes: list[int] = []

    def close_replay(self) -> None:
        self.wire_client.close()
        self.wire_server.close()

    def layers(self, op):
        request = to_request(op)

        def over_wire():
            doc = wire_doc(op)
            response = self.wire_client.call(doc)
            self.wire_bytes.append(
                len(json.dumps(doc)) + len(json.dumps(response)) + 2
            )
            return wire_to_result(response["result"])

        return super().layers(op) + [
            ("wire", over_wire),
            ("router", lambda: self.router.query(request, 60.0)),
        ]


class IngestHot(Workload):
    """WAL-backed QueryService with online rebalancing, half writes."""

    name = "ingest-hot"
    lo, hi = 20.0, 40.0

    def make_source(self):
        return inputs.IngestInputs(self.seed, self.data.values, 4096)

    def start(self) -> None:
        self.acked: dict[int, np.ndarray] = {}
        self.wal_path = self.work / f"ingest-{self.setups}.wal"
        self.service = QueryService(
            self.index, wal=self.wal_path, rebalance=True
        ).start()

    def open_replay(self) -> None:
        self.teardown()  # writes are over; stop the rebalancer first
        super().open_replay()

    def submit(self, op):
        if op.kind == "write":
            future = self.service.submit_write(WriteRequest(batch=op.series))
            future.add_done_callback(lambda f: self._ack(f, op.series))
            return future
        return super().submit(op)

    def _ack(self, future, batch) -> None:
        if future.exception() is None:
            for rid, row in zip(future.result().record_ids, batch):
                self.acked[int(rid)] = row

    def check_answers(self, samples, failures: list) -> None:
        """Post-run: serving on the written index against repro.core.

        Reads during the run saw the index mid-ingest, so the served
        answers are replayed once the writes (and the rebalancer) have
        stopped, through a fresh service at the defaults.
        """
        reads = [s for s in samples if s.op.kind == "knn"]
        with QueryService(self.index) as fresh:
            for s in reads[:: max(1, len(reads) // 32)]:
                served = fresh.query(to_request(s.op), 60.0)
                if not same_knn(served, core_call(self.index, s.op)):
                    failures.append(
                        f"{self.name}: served {s.op.strategy} kNN differs "
                        f"from repro.core after ingest, query "
                        f"{s.op.query_id}"
                    )

    def truth_data(self):
        ids = np.fromiter(self.acked, dtype=np.int64)
        rows = (np.vstack([self.acked[i] for i in ids]) if len(ids)
                else np.empty((0, inputs.LENGTH)))
        return (
            np.vstack([self.data.values, rows]),
            np.concatenate([np.arange(len(self.data.values)), ids]),
        )


WORKLOADS = {cls.name: cls for cls in (PointServe, MpaSharded, IngestHot)}

