#!/usr/bin/env python3
"""Benchmark of the mvcca library: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it makes the traced run that gives the
per-layer metrics. Every run checks its outputs. It prints one line per
metric, then one JSON object as its last line, writes a result file with
provenance to ``perfbench/out/`` and exits 1 when a check fails. Workloads,
metrics and the layer-to-end-to-end map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Timed set-up probes per run, half before the instances and half after, so
# that a few seconds of slow host do not decide setup_s. One more probe
# before them compiles and caches the sources and is not counted.
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150
# Suffix of the busy times measured by the traced pass with one BLAS thread
# per allowed CPU; every other pass runs BLAS on one thread.
NPROC_SUFFIX = ".nproc"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    # Internal: the set-up probe and the all-CPU traced pass run as child
    # processes of a run.
    p.add_argument("--role", choices=("main", "setup", "nproc"), default="main", help=argparse.SUPPRESS)
    p.add_argument("--threads", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mvcca" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'mvcca'}", file=sys.stderr)
        return 2
    # One BLAS thread unless told otherwise: the process shares a few CPUs
    # with other tenants, and on one thread its timings do not depend on
    # whether a second CPU happens to be free. OpenBLAS reads these when
    # numpy loads it, so they are set before import.
    threads = args.threads or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import mvcca

    if Path(mvcca.__file__).resolve().parent != ROOT / "src" / "mvcca":
        print(f"perfbench: imported mvcca from {mvcca.__file__}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"model-{os.getpid()}.nccm"
    try:
        if args.role == "setup":
            return setup_role(wl, args, scratch)
        if args.role == "nproc":
            return nproc_role(wl, args, scratch)
        return run(wl, args, threads, scratch)
    finally:
        scratch.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# set-up


def warm_up(wl, seed, scratch):
    """One pass of the pipeline at smoke-test size: loads every lazy import and code path."""
    import workloads

    tiny = wl.tiny()
    workloads.measure(tiny, workloads.make_instance(tiny, seed, 0), scratch)


def setup_role(wl, args, scratch):
    import workloads

    workloads.make_instance(wl, args.seed, 0)
    warm_up(wl, args.seed, scratch)
    print(repr(time.time()), flush=True)
    return 0


def _child(args, role, threads=0):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    if threads:
        cmd += ["--threads", str(threads)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def probe_setup(args, n):
    """Seconds from process start to ready (imports, data generation, warm-up), n times."""
    times = []
    for _ in range(n):
        start = time.time()
        proc = subprocess.run(
            _child(args, "setup"), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


# ---------------------------------------------------------------------------
# measured passes


def instance_summary(wl, rec):
    import workloads

    out = {
        "wall_s": rec.wall_s,
        "fit_s": rec.fit_s,
        "bulk_s": rec.bulk_s,
        "bulk_points": rec.bulk_points,
        "persist_s": rec.persist_s,
        "model_bytes": rec.model_bytes,
        "test_total_corr": rec.test_total_corr,
        "test_correlations": [float(c) for c in rec.correlations],
        "requests": len(rec.latencies),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
    }
    if wl.method == "ncca":
        out["sigmas"] = [float(s) for s in rec.model.sigmas]
        out["sigma1_dev"], out["u1_cv"] = workloads.leading_stats(rec.model)
    return out


def measure_checked(wl, inst, scratch, summaries, failures, tracer=None):
    """measure() then check(); only measure() runs under the tracer."""
    import workloads

    if tracer is None:
        rec = workloads.measure(wl, inst, scratch)
    else:
        with tracer:
            rec = workloads.measure(wl, inst, scratch)
    failures.extend(workloads.check(wl, inst, rec))
    summaries.append(instance_summary(wl, rec))
    return rec


def layer_values(tracer):
    """Flat ``<span name>.<calls|busy_s|self_s>`` values plus the computed counts."""
    flat = {f"{name}.{key}": v for name, t in tracer.totals().items() for key, v in t.items()}
    flat.update(tracer.counts)
    return flat


def nproc_role(wl, args, scratch):
    import workloads
    from tracing import Tracer

    warm_up(wl, args.seed, scratch)
    tracer, failures = Tracer(), []
    rec = measure_checked(wl, workloads.make_instance(wl, args.seed, 0), scratch, [], failures, tracer)
    flat = {k: v for k, v in layer_values(tracer).items() if k.endswith(".busy_s")}
    flat["trace.wall_s"] = rec.wall_s
    print(json.dumps({"values": flat, "failures": failures}))
    return 0


def svd_residual(model):
    """max_i |Wx (Wy g_i) - sigma_i f_i| / sigma_1 with unit f_i, g_i.

    Wx and Wy are rebuilt with the public affinity functions from the
    model's training views and frozen bandwidths; only F, G and sigmas are
    read from the model, so the figure survives changes to how the score
    operator is stored or factored.
    """
    import numpy as np
    from mvcca import affinity

    cfg = model.config
    Wx = affinity.normalize_right_stochastic(affinity.gaussian_affinity(model.train_x, cfg.affinity_x))
    Wy = affinity.normalize_left_stochastic(affinity.gaussian_affinity(model.train_y, cfg.affinity_y))
    F = model.F / np.linalg.norm(model.F, axis=0)
    G = model.G / np.linalg.norm(model.G, axis=0)
    R = Wx @ (Wy @ G) - F * model.sigmas
    return float(np.linalg.norm(R, axis=0).max() / model.sigmas[0])


# ---------------------------------------------------------------------------
# the two kinds of run


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def measured_run(wl, args, scratch, summaries, failures):
    """End-to-end metrics: instances until the budget is spent, medians over them."""
    import workloads

    n_probes = 2 if args.tiny else SETUP_PROBES
    cold = probe_setup(args, 1)
    setup = probe_setup(args, n_probes // 2)
    warm_up(wl, args.seed, scratch)
    latencies = []
    begin = time.perf_counter()
    while True:
        inst = workloads.make_instance(wl, args.seed, len(summaries))
        rec = measure_checked(wl, inst, scratch, summaries, failures)
        latencies.extend(rec.latencies)
        del rec, inst
        elapsed = time.perf_counter() - begin
        # Start another instance only if it should end within the budget.
        if elapsed * (1.0 + 1.0 / len(summaries)) > args.seconds:
            break
    setup += probe_setup(args, n_probes - n_probes // 2)

    def med(key):
        return statistics.median(s[key] for s in summaries)

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": med("wall_s"),
        "fit_s": med("fit_s"),
        "project_qps": statistics.median(s["bulk_points"] / t for s in summaries for t in s["bulk_s"]),
        "request_p50_ms": 1e3 * nearest_rank(latencies, 50.0),
        "request_tail_ms": 1e3 * nearest_rank(latencies, wl.tail_pct),
        "persist_s": statistics.median(t for s in summaries for t in s["persist_s"]),
        "model_bytes": med("model_bytes"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_total_corr": med("test_total_corr"),
    }
    note = (
        f"request_tail_ms is p{wl.tail_pct:g} (nearest rank) of {len(latencies)} requests "
        f"from {len(summaries)} instance(s); failed requests rank as infinitely slow"
    )
    return values, note, {"setup_samples_s": setup, "setup_uncounted_s": cold}


# Per-layer figures that are not span totals; zero where the workload has no such stage.
NOT_SPAN_TOTALS = {
    "neighbors.knn_search.pairs",
    "affinity.nnz",
    "linalg.spgemm.nnz_out",
    "linalg.svd.residual",
    "ncca.sigma1_dev",
    "ncca.u1_cv",
}


def traced_run(wl, args, threads, scratch, summaries, failures, spec, stem):
    """Per-layer metrics of instance 0: untraced, traced, untraced, then traced on all CPUs."""
    import workloads
    from tracing import PATCH_POINTS, Tracer

    warm_up(wl, args.seed, scratch)
    inst = workloads.make_instance(wl, args.seed, 0)
    plain = [measure_checked(wl, inst, scratch, summaries, failures).wall_s]
    tracer = Tracer()
    rec = measure_checked(wl, inst, scratch, summaries, failures, tracer)
    plain.append(measure_checked(wl, inst, scratch, summaries, failures).wall_s)
    proc = subprocess.run(
        _child(args, "nproc", threads=len(os.sched_getaffinity(0))), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"all-CPU traced pass failed:\n{proc.stderr}")
    parallel = json.loads(proc.stdout.splitlines()[-1])
    failures.extend(f"all-CPU pass: {f}" for f in parallel["failures"])

    values = layer_values(tracer)
    values.update({k + NPROC_SUFFIX: v for k, v in parallel["values"].items()})
    attributed = sum(t["self_s"] for t in tracer.totals().values())
    values["trace.wall_s"] = rec.wall_s
    values["trace.overhead_s"] = rec.wall_s - statistics.mean(plain)
    values["trace.untimed_s"] = rec.wall_s - tracer.root_seconds()
    if wl.method == "ncca":
        values["ncca.sigma1_dev"], values["ncca.u1_cv"] = workloads.leading_stats(rec.model)
        values["linalg.svd.residual"] = svd_residual(rec.model)
    # A layer the workload never calls measured nothing and reads zero; a
    # name that no span or count could produce is an error in BENCHMARK.json.
    measurable = NOT_SPAN_TOTALS | {
        f"{name}.{key}" for _, _, name in PATCH_POINTS for key in ("calls", "busy_s", "self_s")
    }
    for m in spec["per_layer"]:
        if m["name"] not in values:
            if m["name"].removesuffix(NPROC_SUFFIX) not in measurable:
                raise KeyError(f"per-layer metric {m['name']} is not measured")
            values[m["name"]] = 0

    spans_file = OUT / f"{stem}-spans.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    note = (
        f"traced wall {rec.wall_s:.4f} s = span self time {attributed:.4f} s "
        f"+ untimed benchmark code {values['trace.untimed_s']:.4f} s"
    )
    extra = {
        "untraced_wall_s": plain,
        "span_self_s_total": attributed,
        "absent_functions": tracer.absent,
        "layers": dict(sorted(tracer.totals().items())),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return values, note, extra


def run(wl, args, threads, scratch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    summaries, failures = [], []
    if args.trace == 0:
        values, note, extra = measured_run(wl, args, scratch, summaries, failures)
        wanted = spec["end_to_end"]
    else:
        values, note, extra = traced_run(wl, args, threads, scratch, summaries, failures, spec, stem)
        wanted = spec["per_layer"]

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    values["ops_failed_ratio"] = failed / attempted
    correct = not failures
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    units["ops_failed_ratio"] = "1"

    result_file = OUT / f"{stem}.json"
    result = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "correct": correct,
        "check_failures": failures,
        "attempted": attempted,
        "failed": failed,
        "notes": [note],
        "values": values,
        "provenance": provenance(args, threads, wl, summaries),
        "instances": summaries,
        **extra,
    }
    result_file.write_text(json.dumps(result, indent=1, default=float))

    for key in sorted(units):
        print(f"{key:<44} {values[key]:.6g} {units[key]}")
    print(f"ops: {failed} failed of {attempted} attempted")
    for line in [note] + [f"CHECK FAILED: {f}" for f in failures]:
        print(line)
    print(f"result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    """HEAD of the checkout's own .git, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, threads, wl, summaries):
    import importlib.util

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mvcca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    ) if Path("/proc/cpuinfo").is_file() else platform.processor()
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "ncca_threads": (
            "inert: threadpoolctl is not installed, so NCCA_THREADS is not applied; "
            "this benchmark pins BLAS threads through the environment instead"
            if importlib.util.find_spec("threadpoolctl") is None
            else "threadpoolctl installed; this benchmark does not set NCCA_THREADS"
        ),
        "instances": len(summaries),
        "requests_per_instance": wl.n_requests,
        "requests": sum(s["requests"] for s in summaries),
        "n_train": wl.n_train,
        "n_test": wl.n_test,
    }


if __name__ == "__main__":
    sys.exit(main())
