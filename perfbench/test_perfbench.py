"""Tests of the benchmark itself, on tiny versions of its workloads.

    python -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from marc.trainer import SolverConfig
from perfbench import harness, run, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny(name: str, tmp_path: Path) -> workloads.Workload:
    """The named workload with few inputs and short solves."""
    quick = SolverConfig(t_max=5)
    if name == "train-stock":
        return workloads.TrainWorkload(name, workloads.stock_spec, 3, instances=2, config=quick)
    if name == "train-labels":
        return workloads.TrainWorkload(name, workloads.labels_spec, 3, instances=1, config=quick)
    if name == "recon-holdout":
        return workloads.ReconWorkload(3, pool=6)
    return workloads.CliWorkload(3, tmp_path / "work", vectors=3, train_args=("--t-max", "5"))


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_has_no_failures_and_the_listed_metrics(name, trace, tmp_path):
    w = tiny(name, tmp_path)
    metrics, details = harness.measure(w, 0.01, trace, tmp_path / "spans.npz")
    assert w.attempted >= w.min_ops
    assert w.failed == 0, details["problems"]
    line = json.loads(harness.result_line(metrics, w, {n: "x" for n in (PER_LAYER if trace else E2E)}))
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == (PER_LAYER if trace else E2E)
    if trace:
        assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_pct"))
        assert tracer.wrapped_names() == []
        assert (tmp_path / "spans.npz").is_file()
    else:
        assert metrics["ok_frac"] == 1.0
        assert all(v > 0 for v in metrics.values())


def test_traced_run_sees_the_layers_its_workload_calls(tmp_path):
    metrics, _ = harness.measure(tiny("cli-pipeline", tmp_path), 0.01, True)
    for name in ("trainer.update_g", "proxops.svt", "dataset.materialize_h",
                 "reconstructor.reconstruct", "formats.write_vector", "cli.complete",
                 "synthbench.generate"):
        assert metrics[f"{name}.self_pct"] > 0, name
    assert metrics["trainer.shared_component.calls"] == 2 * 7 * 5  # passes * per iter * t_max
    assert metrics["trainer.iterations"] == 5
    assert metrics["reconstructor.reconstruct.calls"] == 2 * 2 * 3
    assert metrics["cli.recon_threads"] >= 1


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert "marc.trainer.update_g" in tracer.wrapped_names()
            1 / 0
    assert tracer.wrapped_names() == []


def test_self_time_excludes_children_in_this_and_other_threads():
    rec = tracer.Recorder()
    root, child = rec.name_id("root"), rec.name_id("child")

    together = threading.Barrier(2, timeout=5)

    def timed(name: int, seconds: float, barrier=None) -> None:
        if barrier is not None:
            barrier.wait()
        idx = rec.enter(name)
        time.sleep(seconds)
        rec.exit(idx)

    outer = rec.enter(root)
    timed(child, 0.01)
    threads = [threading.Thread(target=timed, args=(child, 0.02, together)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    rec.exit(outer)
    a = rec.self_times()
    assert (a["parent"][a["name"] != root] == 0).all()
    assert (a["self"] >= 0).all()
    # the children cover 0.01 s plus the two overlapping 0.02 s worker spans:
    # about 0.03 s of root as a union, 0.05 s as a sum
    covered = a["dur"][0] - a["self"][0]
    assert 0.029 < covered < 0.045


def test_names_agree_with_benchmark_json_and_the_layer_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    layer_map = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
    assert set(layer_map["per_layer"]) == PER_LAYER
    assert set(layer_map["workloads"]) == set(run.WORKLOADS)
    for name, entry in layer_map["per_layer"].items():
        for metric, names in entry["moves"].items():
            assert metric in E2E, name
            assert set(names) <= set(run.WORKLOADS), name


def test_run_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recon-holdout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
