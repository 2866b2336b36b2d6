"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload in both modes with ``--tiny`` and checks the output
contract: the last stdout line is one JSON object with every metric that
``BENCHMARK.json`` lists for the mode, a directory without the library
source makes the benchmark exit non-zero without printing a result, and a
held-out request that fails makes the run's output check fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_file(workload, trace):
    return json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}-tiny.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_has_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    wanted = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = last["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
        if trace == 0:
            assert value["value"] > 0, m["name"]

    result = result_file(workload, trace)
    assert result["provenance"]["seed"] == 3
    errors = sum(e["count"] for s in result["instances"] for e in s["errors"].values())
    assert errors == last["failed"]
    if trace == 1:
        # Span self times plus untimed benchmark code make up the traced wall time.
        values = result["values"]
        assert result["span_self_s_total"] + values["trace.untimed_s"] == pytest.approx(
            values["trace.wall_s"], rel=1e-9
        )


def test_only_far_queries_fail():
    proc = bench("spiral_serve", 0)
    assert proc.returncode == 0, proc.stderr
    result = result_file("spiral_serve", 0)
    # The tiny mix sends one far query per instance; nothing else may fail.
    assert result["failed"] <= len(result["instances"])
    for s in result["instances"]:
        assert set(s["errors"]) <= {"NumericalError"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_missing_library_function_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    monkeypatch.setattr(
        tracing, "PATCH_POINTS", tracing.PATCH_POINTS + (("mvcca.ncca", "no_such_function", "linalg.gone"),)
    )
    tracer = tracing.Tracer()
    with tracer:
        import mvcca.ncca

        assert hasattr(mvcca.ncca.truncated_svd, "__wrapped__")
    assert tracer.absent == ["mvcca.ncca.no_such_function"]
    assert not hasattr(mvcca.ncca.truncated_svd, "__wrapped__")


def test_failed_slice_request_fails_the_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.WORKLOADS["spiral_serve"].tiny()
    inst = workloads.make_instance(wl, 3, 0)
    project = workloads.project

    def far_queries_succeed_256_point_requests_fail(wl, model, view, data):
        if len(data) == workloads.SIZES[-1]:
            raise RuntimeError("injected")
        if np.linalg.norm(data) >= workloads.FAR_RADIUS:
            data = 0.0 * data  # a far query, moved to the origin
        return project(wl, model, view, data)

    rec = workloads.measure(wl, inst, tmp_path / "m.nccm")
    assert workloads.check(wl, inst, rec) == []
    monkeypatch.setattr(workloads, "project", far_queries_succeed_256_point_requests_fail)
    rec = workloads.measure(wl, inst, tmp_path / "m.nccm")
    # One 256-point slice, requested once per view; the far query now succeeds.
    assert rec.failed == 2
    assert workloads.check(wl, inst, rec) == [
        "256 held-out view 1 point(s) have no streamed projection",
        "256 held-out view 2 point(s) have no streamed projection",
    ]
