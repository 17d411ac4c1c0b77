"""The benchmark's own tests; run with ``python3 perfbench/run.py --self-test``.

* every metric and workload name is well formed, and ``BENCHMARK.json``
  lists exactly the metrics and workloads the code produces;
* one seed always yields identical inputs, and another seed other ones;
* each correctness check fails when it should: a corrupted kNN answer,
  a wrong exact-match answer, and a WAL missing an acknowledged record.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import Neighbor, TardisConfig, build_tardis_index
from repro.serving import QueryService
from repro.tsdb import random_walk

from . import inputs
from .checks import durability, exact_ok, recall_at_k, same_knn
from .measure import END_TO_END, PER_LAYER
from .workloads import WORKLOADS, core_call

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names() -> None:
    names = ([n for n, _ in END_TO_END] + [n for n, _ in PER_LAYER]
             + list(WORKLOADS))
    for name in names:
        assert NAME.match(name), f"bad name {name!r}"
    assert len(names) == len(set(names)), "a name is used twice"
    for _, unit in END_TO_END + tuple(PER_LAYER):
        assert UNIT.match(unit), f"bad unit {unit!r}"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER)


def _stream(seed: int, name: str) -> list:
    data = inputs.dataset().values
    source = {
        "point-serve": lambda: inputs.PointServeInputs(seed, data),
        "mpa-sharded": lambda: inputs.MpaInputs(seed, 4096),
        "ingest-hot": lambda: inputs.IngestInputs(seed, data, 4096),
    }[name]()
    out = []
    for phase in range(8):
        rng = inputs.phase_rng(seed, phase)
        out.append(inputs.poisson_offsets(rng, 100.0, 1.0))
        out.extend(op.series for op in inputs.request_stream(source, rng, 64))
    return out


def test_same_seed_same_inputs() -> None:
    for name in WORKLOADS:
        a, b, c = _stream(7, name), _stream(7, name), _stream(8, name)
        assert len(a) == len(b) and all(
            np.array_equal(x, y) for x, y in zip(a, b)
        ), f"{name}: seed 7 gave different inputs twice"
        assert not all(
            len(x) == len(y) and np.array_equal(x, y) for x, y in zip(a, c)
        ), f"{name}: seeds 7 and 8 gave the same inputs"


def _small_index():
    data = random_walk(2000, length=inputs.LENGTH, seed=3).z_normalized()
    config = TardisConfig(g_max_size=200, l_max_size=20, pth=4)
    return data, config, build_tardis_index(data, config)


def test_answer_checks_fail_on_corruption() -> None:
    data, _config, index = _small_index()
    query = data.values[5]
    knn = core_call(index, inputs.Op(kind="knn", series=query,
                                     strategy="target-node"))
    assert same_knn(knn, core_call(index, inputs.Op(
        kind="knn", series=query, strategy="target-node")))
    first, second = knn.neighbors[0], knn.neighbors[1]
    corrupted = [
        [Neighbor(np.nextafter(first.distance, 1.0), first.record_id)]
        + knn.neighbors[1:],                       # one ulp off
        [Neighbor(first.distance, first.record_id + 1)] + knn.neighbors[1:],
        [second, first] + knn.neighbors[2:],       # order swapped
        knn.neighbors[:-1],                        # one answer dropped
    ]
    for neighbors in corrupted:
        assert not same_knn(replace(knn, neighbors=neighbors), knn)

    hit = core_call(index, inputs.Op(kind="exact", series=query, row=5))
    assert exact_ok(hit, 5) and not exact_ok(hit, 6) and not exact_ok(hit, -1)
    miss = core_call(index, inputs.Op(kind="exact", series=query[::-1].copy()))
    assert exact_ok(miss, -1) and not exact_ok(miss, 5)

    truth = np.array([[1, 2, 3, 4]])
    assert recall_at_k([[1, 2, 3, 4]], truth) == 1.0
    assert recall_at_k([[1, 2, 9, 9]], truth) == 0.5


def test_durability_check_fails_on_dropped_record() -> None:
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data, config, index = _small_index()
        wal = work / "run.wal"
        rng = np.random.default_rng(0)
        acked = []
        with QueryService(index, wal=wal) as service:
            for _ in range(4):
                rows = data.values[rng.integers(len(data), size=3)]
                noisy = rows + 0.05 * rng.standard_normal(rows.shape)
                noisy = (noisy - noisy.mean(1, keepdims=True)) / noisy.std(
                    1, keepdims=True)
                acked += service.write(noisy, timeout=30.0).record_ids
        failures, _ = durability(
            build_tardis_index(data, config), wal, acked)
        assert not failures, failures

        lines = wal.read_text().splitlines()
        dropped = [i for i, line in enumerate(lines)
                   if json.loads(line).get("kind") == "append"][1]
        broken = work / "dropped.wal"
        broken.write_text(
            "\n".join(lines[:dropped] + lines[dropped + 1:]) + "\n")
        failures, _ = durability(
            build_tardis_index(data, config), broken, acked)
        assert failures, "a dropped acknowledged record went unnoticed"
    finally:
        shutil.rmtree(work, ignore_errors=True)


TESTS = [test_names, test_same_seed_same_inputs,
         test_answer_checks_fail_on_corruption,
         test_durability_check_fails_on_dropped_record]


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
            print(f"ok   {test.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc(file=sys.stdout)
    print(f"{len(TESTS) - failed}/{len(TESTS)} self-tests passed")
    return 1 if failed else 0
