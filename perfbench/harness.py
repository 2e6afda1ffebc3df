"""Runs one workload for a fixed time and turns what it saw into metrics.

A plain run reports the end-to-end metrics named in BENCHMARK.json, with
every time rescaled to reference host speed by a `SpeedProbe`. A traced run
spends half its time untraced and half with the tracer installed, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced median operation time, both rescaled).
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import workloads
from perfbench.speed import SpeedProbe
from perfbench.tracer import Tracer

SETUP_REPEATS = 5


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "MARC_THREADS")},
        "seed": seed,
    }


def timed_setup(workload: workloads.Workload) -> list[tuple[float, float]]:
    """Set the workload up several times; the last set-up is the one used."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        intervals.append((start, time.perf_counter()))
    return intervals


def run_loop(workload: workloads.Workload, seconds: float,
             first_op: int = 0) -> list[list[tuple[float, float, int]]]:
    """Closed loop with one caller: run operations until the next one would
    end past `seconds` (judged by the last one), but at least `min_ops`.
    Returns each operation's timed calls (see workloads)."""
    calls: list[list[tuple[float, float, int]]] = []
    start = time.perf_counter()
    i = first_op
    while (len(calls) < workload.min_ops
           or time.perf_counter() - start + calls[-1][0][1] - calls[-1][0][0] <= seconds):
        op_start = time.perf_counter()
        try:
            calls.append(workload.op(i))
        except Exception:  # one failed operation must not end the run
            calls.append([(op_start, time.perf_counter(), 0)])
            workload.record([traceback.format_exc(limit=3)])
        i += 1
    return calls


def latency_summary(ms: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it, with the sample count."""
    out = {"n": len(ms), "p50": statistics.median(ms)}
    if len(ms) <= 16:
        out["all"] = ms
    for pct in (99, 90):
        if len(ms) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(ms, n=100)[pct - 1]
            break
    return out


def op_ms(calls, clock=lambda start, end: end - start) -> list[float]:
    return [clock(*c[0][:2]) * 1000.0 for c in calls]


def measure(workload: workloads.Workload, seconds: float, trace: bool,
            spans_path: Path | None = None) -> tuple[dict[str, float], dict]:
    """Set up, run and score one workload. Returns (metrics, details)."""
    with SpeedProbe() as probe:
        setups = timed_setup(workload)
        if trace:
            plain = run_loop(workload, seconds / 2)
            with Tracer() as tracer:
                traced = run_loop(workload, seconds / 2, first_op=len(plain))
        else:
            calls = run_loop(workload, seconds)
    rescale = probe.rescaler()
    details: dict = {"speed": probe.summary()}
    if trace:
        metrics = tracer.layer_metrics(exclude=[sample[:2] for sample in probe.samples])
        plain_ms, traced_ms = op_ms(plain, rescale), op_ms(traced, rescale)
        overhead = statistics.median(traced_ms) - statistics.median(plain_ms)
        metrics["trace.overhead_ms"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain_ms)
        details["op_ms"] = {"untraced": latency_summary(plain_ms),
                            "traced": latency_summary(traced_ms)}
        if spans_path is not None:
            tracer.write_spans(spans_path)
            details["spans"] = spans_path.name
    else:
        vectors = [(s, e, v) for c in calls for s, e, v in c if v]
        metrics = {
            "setup_s": statistics.median(rescale(s, e) for s, e in setups),
            "op_ms_p50": statistics.median(op_ms(calls, rescale)),
            "vectors_per_s": sum(v for *_, v in vectors) / sum(rescale(s, e) for s, e, _ in vectors),
            "rel_err": workload.rel_err(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (workload.attempted - workload.failed) / workload.attempted,
        }
        details["op_ms"] = latency_summary(op_ms(calls, rescale))
        details["wall"] = {"op_ms_p50": statistics.median(op_ms(calls)),
                           "setup_s": statistics.median(e - s for s, e in setups)}
    details["workload"] = workload.info()
    details["problems"] = workload.problems[:5]
    return metrics, details


def result_line(metrics: dict[str, float], workload: workloads.Workload,
                units: dict[str, str]) -> str:
    """The final JSON line; metric names must be exactly those listed."""
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    return json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    })


def main(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = benchmark_spec(root)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out_dir = root / ".perfbench_out"
    workload = workloads.make(name, seed, out_dir)
    metrics, details = measure(workload, seconds, trace, out_dir / f"spans-{name}-seed{seed}.npz")
    details.update(environment(seed), workload_name=name, seconds=seconds, trace=trace)
    print(json.dumps({"perfbench": details}))
    for problem in workload.problems[:5]:
        print(problem, file=sys.stderr)
    print(result_line(metrics, workload, units))
    return 0
