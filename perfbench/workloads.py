"""Benchmark workloads and the measured pipeline of one instance.

An instance is one independent problem drawn from the run's seed. Its
pipeline is what a user of the library does with a new data set: fit on a
training pair, project one bulk held-out batch per view, save and reload the
model, serve a closed-loop stream of small projection requests from the
reloaded model, and evaluate the streamed projections. A run measures as
many instances as fit in its time budget and reports medians over them, so
one unlucky sample (the NCCA spectrum of a Gaussian pair has near-ties that
move the SVD sweep count from seed to seed) does not decide a run.

This module imports the library under test; ``run.py`` pins the BLAS
thread count before importing it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import mvcca

SIZES = (1, 16, 256)
K = 15
# Streamed and bulk projections of the same points multiply in different
# BLAS blockings, so they agree to rounding, not bit for bit.
AGREE_RTOL = 1e-9
# Timed passes per instance of the bulk projection and of save + load. The
# run's project_qps and persist_s are medians over every pass of every
# instance: one short call per instance would let a second of slow host
# decide the figure.
BULK_REPS = 3
PERSIST_REPS = 10
# Points whose reloaded projection must match the in-memory one bit for bit.
RELOAD_CHECK_POINTS = 64
SIGMA1_RANGE = (0.85, 1.15)
# Far queries sit this far from the origin; spiral training data lies within ~5.
FAR_RADIUS = 40.0


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "ncca" or "plcca"
    data: str  # "gaussian" or "spiral"
    n_train: int
    dim: int  # coordinates per view
    L: int
    mix: tuple  # slices of 1, 16 and 256 points per instance
    paired: bool  # a request projects one slice in both views; else views alternate
    n_far: int  # single-point requests far outside the training range, per instance
    min_test_corr: float | None  # correctness floor on test_total_corr, if any

    @property
    def n_test(self):
        return sum(n * s for n, s in zip(self.mix, SIZES))

    @property
    def n_requests(self):
        return sum(self.mix) * (1 if self.paired else 2) + self.n_far

    @property
    def tail_pct(self):
        """Highest whole percentile with at least 10 requests of one instance beyond it."""
        return float(math.floor(100.0 * (1.0 - 10.0 / self.n_requests)))

    def tiny(self):
        """The same pipeline at smoke-test size, where the quality floor does not apply."""
        return dataclasses.replace(
            self, n_train=400, mix=(6, 4, 1), n_far=min(self.n_far, 1), min_test_corr=None
        )


# Request mixes put about 40 % of slices in the 1-point class, 50 % in the
# 16-point class and 10 % in the 256-point class, so the median request is a
# 16-point one and the tail percentile lies inside the 256-point class,
# away from the boundaries between size classes. Only spiral_serve has a
# quality floor, the bar of acceptance criterion 8.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spiral_serve", "ncca", "spiral", 10000, 2, 1, (200, 250, 50), False, 5, 0.85),
        Workload("plcca_d50", "plcca", "gaussian", 20000, 50, 5, (80, 100, 20), True, 0, None),
    )
}


@dataclass
class Instance:
    train: mvcca.PairedDataset
    test: mvcca.PairedDataset
    slices: np.ndarray  # (start, stop) rows of the test set, in request order
    requests: list  # ("slice", index, view) or ("far", point, view); view 0 = both
    bulk_idx: np.ndarray  # test rows of the 1- and 16-point slices
    fit_seed: int


def _pair(wl, n, seed):
    if wl.data == "spiral":
        return mvcca.gen_spiral_pair(n, seed=seed)
    return mvcca.gen_gaussian_pair(n, np.linspace(0.9, 0.1, wl.dim), seed=seed)


def make_instance(wl, seed, index):
    """Instance ``index`` of a run with ``seed``; the same (seed, index) gives the same inputs."""
    train_seed, test_seed, mix_seed, fit_seed = (
        int(s) for s in np.random.SeedSequence([seed, index]).generate_state(4)
    )
    rng = np.random.default_rng(mix_seed)
    sizes = rng.permutation(np.repeat(SIZES, wl.mix))
    stops = np.cumsum(sizes)
    slices = np.column_stack([stops - sizes, stops])
    requests = []
    for i in range(len(slices)):
        requests.extend([("slice", i, 0)] if wl.paired else [("slice", i, 1), ("slice", i, 2)])
    for j, pos in enumerate(np.sort(rng.choice(len(requests) + wl.n_far, wl.n_far, replace=False))):
        direction = rng.standard_normal((1, wl.dim))
        point = FAR_RADIUS * direction / np.linalg.norm(direction)
        requests.insert(int(pos), ("far", point, 1 + j % 2))
    small = slices[sizes < SIZES[-1]]
    bulk_idx = np.concatenate([np.arange(a, b) for a, b in small]) if len(small) else np.arange(0)
    return Instance(
        train=_pair(wl, wl.n_train, train_seed),
        test=_pair(wl, wl.n_test, test_seed),
        slices=slices,
        requests=requests,
        bulk_idx=bulk_idx,
        fit_seed=fit_seed,
    )


def fit(wl, inst):
    """Fit the workload's model(s) and return the one that serves projections."""
    X, Y = inst.train.X, inst.train.Y
    if wl.method == "ncca":
        cfg = mvcca.NccaConfig(
            L=wl.L,
            affinity_x=mvcca.AffinityConfig(k=K),
            affinity_y=mvcca.AffinityConfig(k=K),
            seed=inst.fit_seed,
        )
        with warnings.catch_warnings():
            # The benchmark records sigma1 and the leading-vector CV and checks sigma1.
            warnings.simplefilter("ignore", mvcca.ConstantComponentWarning)
            return mvcca.ncca_fit(X, Y, cfg)
    # plcca_d50 also times the linear CCA fit; only PLCCA serves.
    mvcca.cca_fit(X, Y, wl.L)
    return mvcca.plcca_fit(X, Y, wl.L, mvcca.AffinityConfig(k=K))


def project(wl, model, view, data):
    if wl.method == "ncca":
        fn = mvcca.ncca_project_x if view == 1 else mvcca.ncca_project_y
    else:
        fn = mvcca.plcca_project_x if view == 1 else mvcca.plcca_project_y
    return fn(model, data)


@dataclass
class Record:
    """What one instance measured; times in seconds."""

    wall_s: float = 0.0
    fit_s: float = 0.0
    bulk_s: list = field(default_factory=list)  # one time per bulk pass
    bulk_points: int = 0
    persist_s: list = field(default_factory=list)  # one time per save + load
    model_bytes: int = 0
    test_total_corr: float = 0.0
    correlations: np.ndarray = None  # every held-out canonical correlation
    latencies: list = field(default_factory=list)  # inf for a failed request
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    model: object = None
    loaded: object = None
    bulk: tuple = ()
    stream: tuple = ()


def measure(wl, inst, scratch_path):
    """Run the instance's pipeline; everything between the first and last line is wall_s."""
    rec = Record()
    start = time.perf_counter()

    t = time.perf_counter()
    rec.model = fit(wl, inst)
    rec.fit_s = time.perf_counter() - t
    rec.attempted += 1 if wl.method == "ncca" else 2

    Xb, Yb = inst.test.X[inst.bulk_idx], inst.test.Y[inst.bulk_idx]
    for _ in range(BULK_REPS):
        t = time.perf_counter()
        rec.bulk = (project(wl, rec.model, 1, Xb), project(wl, rec.model, 2, Yb))
        rec.bulk_s.append(time.perf_counter() - t)
    rec.bulk_points = 2 * len(inst.bulk_idx)
    rec.attempted += 2 * BULK_REPS

    for _ in range(PERSIST_REPS):
        t = time.perf_counter()
        mvcca.save_model(scratch_path, rec.model)
        rec.loaded = mvcca.load_model(scratch_path)
        rec.persist_s.append(time.perf_counter() - t)
    rec.model_bytes = os.path.getsize(scratch_path)
    rec.attempted += 2 * PERSIST_REPS

    X, Y = inst.test.X, inst.test.Y
    out = (np.full((len(X), wl.L), np.nan), np.full((len(X), wl.L), np.nan))
    for kind, what, view in inst.requests:
        t = time.perf_counter()
        try:
            if kind == "far":
                project(wl, rec.loaded, view, what)
            else:
                a, b = inst.slices[what]
                for v in (1, 2) if view == 0 else (view,):
                    out[v - 1][a:b] = project(wl, rec.loaded, v, (X, Y)[v - 1][a:b])
            rec.latencies.append(time.perf_counter() - t)
        except Exception as exc:  # a failed request is counted, never timed
            rec.latencies.append(math.inf)
            rec.failed += 1
            name = type(exc).__name__
            rec.errors.setdefault(name, {"count": 0, "first": str(exc)})["count"] += 1
    rec.attempted += len(inst.requests)
    rec.stream = out

    ok = np.isfinite(out[0]).all(axis=1) & np.isfinite(out[1]).all(axis=1)
    report = mvcca.total_correlation(out[0][ok], out[1][ok])
    rec.correlations = report.per_component
    rec.test_total_corr = report.total_correlation
    rec.attempted += 1
    rec.wall_s = time.perf_counter() - start
    return rec


def leading_stats(model):
    """(sigma1 deviation from 1, coefficient of variation of the leading left vector)."""
    u1 = model.F[:, 0]
    mean = abs(u1.mean())
    return abs(float(model.sigmas[0]) - 1.0), float(u1.std() / mean) if mean > 0 else math.inf


def check(wl, inst, rec):
    """Correctness checks of one measured instance; returns failure messages."""
    failures = []
    if wl.method == "ncca":
        s1 = float(rec.model.sigmas[0])
        if not SIGMA1_RANGE[0] <= s1 <= SIGMA1_RANGE[1]:
            failures.append(f"sigma1 {s1:.4f} outside {SIGMA1_RANGE}")
    if wl.min_test_corr is not None and not rec.test_total_corr >= wl.min_test_corr:
        failures.append(f"test_total_corr {rec.test_total_corr:.4f} < {wl.min_test_corr}")

    n = min(RELOAD_CHECK_POINTS, len(inst.test.X))
    for v, data in ((1, inst.test.X[:n]), (2, inst.test.Y[:n])):
        if not np.array_equal(project(wl, rec.model, v, data), project(wl, rec.loaded, v, data)):
            failures.append(f"reloaded model projects view {v} differently")

    # Every slice request must succeed; only far queries may fail.
    for v in (1, 2):
        lost = int((~np.isfinite(rec.stream[v - 1]).all(axis=1)).sum())
        if lost:
            failures.append(f"{lost} held-out view {v} point(s) have no streamed projection")

    for v in (1, 2):
        streamed = rec.stream[v - 1][inst.bulk_idx]
        bulk = rec.bulk[v - 1]
        scale = float(np.abs(bulk).max()) if bulk.size else 0.0
        if not np.all(np.isfinite(bulk)):
            failures.append(f"bulk view {v} projection is not finite")
        elif not np.all(np.abs(streamed - bulk) <= AGREE_RTOL * scale):
            failures.append(f"streamed view {v} projections differ from bulk beyond rtol {AGREE_RTOL}")
    return failures
