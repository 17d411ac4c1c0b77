#!/usr/bin/env python3
"""TARDIS serving benchmark: three workloads over a 50k x 128 index.

Usage, from the repository root::

    python3 perfbench/run.py --workload point-serve --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --self-test                  # the benchmark's own tests

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``point-serve`` -- Zipf point queries (70% target-node kNN, 10%
  one-partition kNN, 20% exact-match) against an in-process
  ``QueryService``; the serving layer and the result cache do most of
  the work.
* ``mpa-sharded`` -- unique held-out Multi-Partitions kNN through a
  ``RouterService`` over a 2-shard cluster whose shards sit behind their
  own TCP servers; core search, the router and the JSON wire do the
  work, the result cache is bypassed.
* ``ingest-hot`` -- half write batches, half reads against a WAL-backed
  ``QueryService`` with online rebalancing.

A run sets the system up, then measures for ``--seconds``, alternating
six times between an open loop at the workload's ``lo`` rate (45% of the
time), one at its ``hi`` rate (30%) and a closed loop with two callers
(25%), so a slow stretch of the host lands on all three alike.  Open-loop
latency runs from each request's due instant.  It then sets the system
up twice more, only to time it: ``setup_s`` is the median of the three.

``--trace 1`` sets up once, measures the same phases, then repeats the
``lo`` loop with kernel counters and benchmark spans on and replays a
sample of requests serially through each layer in turn (core call,
``QueryService``, wire, router); a layer's overhead is the difference
between successive layers for the same request.  On ``ingest-hot`` it
also sends hot-region writes past the rebalance watermark.  Spans are
written to ``.perfbench/<workload>/spans.json``.

Before the last line, a table gives every figure with its unit and
sample count; ``*`` marks the metrics of the result line.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``workloads`` instead of ``metrics`` for
``--workload all``).  A failed correctness or durability check prints
``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

WORK = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        from perfbench import selftest

        return selftest.main()

    from perfbench.measure import run_workload
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    results = {}
    for name in names:
        results[name] = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), WORK
        )
        print_table(name, results[name])
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {n: r["metrics"] for n, r in results.items()},
        }
    for r in results.values():
        for failure in r.get("failures", ()):
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({k: v for k, v in line.items()
                      if k in ("correct", "attempted", "failed", "metrics",
                               "workloads")}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def print_table(name: str, result: dict) -> None:
    """Every figure by name, unit and sample count; ``*`` marks the
    metrics of the result line."""
    print(f"== {name}: {result['attempted']} requests, "
          f"{result['failed']} failed, correct={result['correct']}")
    for metric, value, unit, n in result["report"]:
        mark = "*" if metric in result["metrics"] else " "
        print(f" {mark}{metric:32s} {value:14.6g} {unit:9s}"
              + (f" n={n}" if n is not None else ""))


if __name__ == "__main__":
    sys.exit(main())
