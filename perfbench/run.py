#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of triqent.

Run from the root of a checkout:

    python3 perfbench/run.py --workload haar_random --seed 1 --seconds 12 --trace 0

runs one workload for about ``--seconds`` seconds of closed-loop calls
(one caller, no worker threads), checks every output and prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the environment record.

    python3 perfbench/run.py --all --seed 1 --held-out-seed 2 --out results.json

runs every workload untraced and traced, once per seed, each in its own
process, prints every metric by name and unit and writes them with the
environment record to ``--out``.  Tune a change on ``--seed`` and
confirm it on ``--held-out-seed``, an input set not looked at while the
change was written.

``BENCHMARK.json`` at the checkout root is the one list of the
workloads, the metrics with their units and bounds, and the default run
length; the harness reads it and reports exactly the metrics it names.

triqent is imported from ``src/`` of the checkout, never from an
installed copy; the command fails without printing a result when the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--held-out-seed", type=int, help="with --all: also run on this seed")
    p.add_argument("--out", help="with --all: write the results as JSON to this file")
    args = p.parse_args(argv)
    if not (args.all or args.workload):
        p.error("give --workload or --all")
    return args


def load_spec() -> dict:
    """``BENCHMARK.json`` of the checkout: workloads, metrics and run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if not os.path.isfile(os.path.join(SRC, "triqent", "__init__.py")):
        print(f"error: triqent sources not found under {SRC}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not (args.all or args.workload in workloads):
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import harness

    if args.all:
        return harness.run_all(workloads, args.seed, args.held_out_seed, seconds, args.out)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    return harness.run_one(args.workload, args.seed, seconds, bool(args.trace), blas_cap, metrics)


if __name__ == "__main__":
    sys.exit(main())
