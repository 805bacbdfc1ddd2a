"""Runs one workload (untraced or traced), or every workload, and reports.

Imported by ``run.py`` after it has capped the BLAS threads and put the
checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from run import ROOT, SRC, WORK
from speed import NOMINAL_S, Gauge, kernel
from tracing import Tracer
from workloads import WORKLOADS, FamilySweep, HaarRandom, Tally

import triqent

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 5


def check_source() -> None:
    where = os.path.dirname(os.path.abspath(triqent.__file__))
    if where != os.path.join(SRC, "triqent"):
        raise SystemExit(f"error: triqent imported from {where}, not from {SRC}")


def environment(blas_cap: int) -> dict:
    """Where and on what the numbers were measured."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "triqent")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "TRIQENT_DISABLE_JIT": os.environ.get("TRIQENT_DISABLE_JIT"),
        "blas_threads": blas_cap,
        "machine": platform.machine(),
    }


def loop(wl, seconds: float | None = None, calls: int | None = None,
         tracer: Tracer | None = None, gauge: Gauge | None = None):
    """Closed loop over calls 0, 1, ...: start times and latencies of the calls, and the tally.

    Stops after ``calls`` calls, or at the end of the whole pass that
    comes nearest to ``seconds`` of wall time: once less than half a
    mean pass is left, so that a workload of long calls does not run a
    whole extra call past the time.  The time a gauge's timings took
    during a call is not part of its latency.
    """
    starts, latencies, tally = [], [], Tally()
    start = time.perf_counter()
    i = 0
    with gauge or contextlib.nullcontext():
        while True:
            job = wl.job(i)
            stolen = gauge.stolen if gauge else 0.0
            t0 = time.perf_counter()
            out = tracer.call(job[0], wl.execute, job) if tracer else wl.execute(job)
            t1 = time.perf_counter()
            starts.append(t0)
            latencies.append(t1 - t0 - ((gauge.stolen if gauge else 0.0) - stolen))
            wl.check(job, out, tally)
            i += 1
            if calls is not None:
                if i >= calls:
                    break
            elif i % wl.pass_calls == 0:
                elapsed = time.perf_counter() - start
                if elapsed * (1.0 + wl.pass_calls / (2.0 * i)) >= seconds:
                    break
    return np.array(starts), np.array(latencies), tally


def setup_time(wl) -> tuple[float, float]:
    """Raw and scaled seconds for a fresh interpreter to import triqent and finish the first call."""
    code, argv = wl.probe()
    before = kernel()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, SRC, *argv], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    after = kernel()
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe of {wl.name} exited {proc.returncode}: {proc.stderr}")
    return elapsed, elapsed * NOMINAL_S / ((before + after) / 2.0)


def timed_run(wl, seconds: float) -> tuple[Tally, dict, str, dict]:
    raw_setup, setup = zip(*(setup_time(wl) for _ in range(SETUP_REPEATS)))
    wl.warmup()
    gauge = Gauge()
    starts, raw, tally = loop(wl, seconds, gauge=gauge)
    if isinstance(wl, HaarRandom):
        wl.recheck(tally)
    scaled = raw * gauge.factors(starts, raw)
    done = tally.attempted - tally.failed
    lat_ms = scaled * 1e3
    metrics = {
        "states_per_s": done / scaled.sum(),
        "call_ms_p50": float(np.percentile(lat_ms, 50)),
        "call_ms_p90": float(np.percentile(lat_ms, 90)),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "decided_frac": 1.0 - tally.ambiguous / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    # the same figures unscaled, for checking the gauge against the calls it scales
    unscaled = {
        "states_per_s": done / raw.sum(),
        "call_ms_p50": float(np.percentile(raw, 50) * 1e3),
        "call_ms_p90": float(np.percentile(raw, 90) * 1e3),
        "setup_s": statistics.median(raw_setup),
        "kernel_ms": float(np.median(gauge.seconds) * 1e3),
        "kernel_timings": len(gauge.seconds),
        "nominal_kernel_ms": NOMINAL_S * 1e3,
    }
    note = (f"{len(raw)} calls, {tally.attempted} {wl.unit}s; "
            f"failed_frac = {tally.failed / tally.attempted:.6g}, "
            f"ambiguous_frac = {tally.ambiguous / tally.attempted:.6g}; "
            f"setup_s is the median of {SETUP_REPEATS} fresh interpreters")
    return tally, metrics, note, unscaled


def traced_run(wl, seconds: float) -> tuple[Tally, dict, str, None]:
    """Untraced pass for half the time, then the same calls traced."""
    wl.warmup()
    # no gauge here: its timer would fire inside spans; times are raw
    _, plain, tally = loop(wl, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced, traced_tally = loop(wl, calls=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    tally.merge(traced_tally)
    units = traced_tally.attempted
    metrics, by_tag = tracer.metrics(units, traced_tally.units_by_tag)
    metrics["families.oracle_dev_max"] = wl.dev_max if isinstance(wl, FamilySweep) else 0.0
    metrics["cli.bytes_out"] = traced_tally.bytes_out / units
    metrics["trace.overhead_frac"] = (traced.sum() - plain.sum()) / plain.sum()
    lines = [f"{len(plain)} calls ({units} {wl.unit}s) traced: {len(tracer.start)} spans; "
             f"traced {traced.sum():.3f} s - untraced {plain.sum():.3f} s = "
             f"{traced.sum() - plain.sum():.3f} s tracing overhead"]
    for tag, (d2, d4, d8) in by_tag.items():
        lines.append(f"eigensolves per {wl.unit} of {tag!r} (2x2 / 4x4 / 8x8): "
                     f"{d2:.6g} / {d4:.6g} / {d8:.6g}")
    return tally, metrics, "\n".join(lines), None


def run_one(name: str, seed: int, seconds: float, trace: bool, blas_cap: int,
            wanted: list[dict]) -> int:
    """Runs one workload and prints the ``wanted`` metrics (BENCHMARK.json entries)."""
    check_source()
    env = environment(blas_cap)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        wl = WORKLOADS[name](seed, workdir)
        tally, metrics, note, unscaled = (traced_run if trace else timed_run)(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics the harness does not make: {missing}")
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(note)
    for m in wanted:
        print(f"  {m['name']:30s} {metrics[m['name']]:>16.6g} {m['unit']}")
    for failure, units in sorted(tally.failures.items()):
        examples = ", ".join(tally.examples[failure])
        print(f"failure ({units} {wl.unit}s): {failure}" + (f" [{examples}]" if examples else ""))
    for case, units in sorted(tally.undecided.items()):
        examples = ", ".join(tally.examples[case])
        print(f"ambiguous where a verdict was built ({units} {wl.unit}s): {case}"
              + (f" [{examples}]" if examples else ""))
    if unscaled:
        print("unscaled " + json.dumps(unscaled))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(workloads: list[str], seed: int, held_out_seed: int | None, seconds: float,
            out: str | None) -> int:
    """Every workload, untraced then traced, each in a fresh process, per seed."""
    seeds = [seed] if held_out_seed is None else [seed, held_out_seed]
    results = {"run_seconds": seconds, "seeds": seeds, "runs": []}
    status = 0
    for s in seeds:
        for name in workloads:
            for trace in (0, 1):
                argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name,
                        "--seed", str(s), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
                sys.stdout.write(proc.stdout)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stdout.write(proc.stderr)
                    status = 1
                    continue
                tagged = {ln.partition(" ")[0]: json.loads(ln.partition(" ")[2])
                          for ln in lines if ln.startswith(("env ", "unscaled "))}
                results["runs"].append({"workload": name, "seed": s, "trace": trace, **tagged,
                                        **json.loads(lines[-1])})
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return status
