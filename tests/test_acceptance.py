"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Thresholds for the synthetic benchmarks were fixed from a reference
run of the pipeline with the exact dense decomposition before the suite was
frozen; runtime budgets are asserted on the criterion's own computation.
"""

import resource
import time
import warnings

import numpy as np
import pytest

from mvcca.affinity import AffinityConfig
from mvcca.cca import cca_fit, cca_project
from mvcca.dataio import gen_gaussian_pair, gen_spiral_pair, load_model, save_model
from mvcca.metrics import pearson
from mvcca.ncca import (
    ConstantComponentWarning,
    NccaConfig,
    build_score_matrix,
    ncca_fit,
    ncca_project_train,
    ncca_project_x,
    ncca_project_y,
)
from mvcca.plcca import optimal_g, plcca_fit, plcca_linear_oracle, plcca_project_x, \
    plcca_project_y


def report(number, name, detail):
    print(f"ACCEPTANCE {number:>2} ({name}): PASS [{detail}]")


def quiet_fit(X, Y, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantComponentWarning)
        return ncca_fit(X, Y, config)


def sign_align(A, B):
    signs = np.sign(np.sum(A * B, axis=0))
    signs[signs == 0] = 1.0
    return A * signs


def knn_config(L, k):
    return NccaConfig(L=L, affinity_x=AffinityConfig(k=k), affinity_y=AffinityConfig(k=k))


# Shared state between the spiral benchmark (criterion 8) and the
# constant-component diagnostic bundled with it (criterion 9).
_spiral_cache = {}


def test_criterion_01_orthonormality():
    t0 = time.perf_counter()
    worst_ncca = 0.0
    for n in (200, 1000):
        ds = gen_spiral_pair(n, seed=42)
        model = quiet_fit(ds.X, ds.Y, knn_config(L=2, k=15))
        for M in (model.F, model.G):
            worst_ncca = max(worst_ncca, np.abs(M.T @ M / n - np.eye(3)).max())
    assert worst_ncca <= 1e-6

    ds = gen_gaussian_pair(2000, [0.8, 0.5, 0.2], seed=42)
    cm = cca_fit(ds.X, ds.Y, 3)
    worst_lin = 0.0
    for V, W, r in ((ds.X, cm.W1, cm.ridge_x), (ds.Y, cm.W2, cm.ridge_y)):
        Vc = V - V.mean(axis=0)
        S = Vc.T @ Vc / len(V) + r * np.eye(V.shape[1])
        worst_lin = max(worst_lin, np.abs(W.T @ S @ W - np.eye(3)).max())
    pm = plcca_fit(ds.X, ds.Y, 3, AffinityConfig(k=50))
    Xc = ds.X - ds.X.mean(axis=0)
    S = Xc.T @ Xc / len(ds.X) + pm.ridge * np.eye(3)
    W = pm.whitener @ pm.U
    worst_lin = max(worst_lin, np.abs(W.T @ S @ W - np.eye(3)).max())
    assert worst_lin <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "orthonormality", f"ncca dev {worst_ncca:.2e}, linear dev {worst_lin:.2e}, "
                                f"{elapsed:.1f}s")


def test_criterion_02_kde_ratio_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 200
    X = rng.standard_normal((n, 4))
    Y = rng.standard_normal((n, 3))
    sx, sy = 1.2, 0.9
    cfg = NccaConfig(L=1, affinity_x=AffinityConfig(sigma=sx, k=n),
                     affinity_y=AffinityConfig(sigma=sy, k=n))
    S, _ = build_score_matrix(X, Y, cfg)

    wx = np.exp(-((X[:, None, :] - X[None, :, :]) ** 2).sum(-1) / (2 * sx * sx))
    wy = np.exp(-((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1) / (2 * sy * sy))
    ratio = (np.einsum("li,mi->lm", wx, wy) / n) / np.outer(wx.mean(axis=1), wy.mean(axis=0))

    err = np.abs((n * S.toarray() - ratio) / ratio).max()
    assert err <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "kde-ratio oracle", f"max relative error {err:.2e}, {elapsed:.1f}s")


def test_criterion_03_nystrom_self_consistency():
    t0 = time.perf_counter()
    n = 300
    ds = gen_spiral_pair(n, seed=5)
    model = quiet_fit(ds.X, ds.Y, knn_config(L=2, k=n))
    F, G = ncca_project_train(model)
    err_x = np.abs(ncca_project_x(model, ds.X) - F).max()
    err_y = np.abs(ncca_project_y(model, ds.Y) - G).max()
    assert err_x <= 1e-6 and err_y <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "nystrom self-consistency", f"view1 {err_x:.2e}, view2 {err_y:.2e}, {elapsed:.1f}s")


def test_criterion_04_dense_svd_oracle():
    t0 = time.perf_counter()
    ds = gen_spiral_pair(300, seed=6)
    randomized = quiet_fit(ds.X, ds.Y, knn_config(L=2, k=15))
    dense_cfg = knn_config(L=2, k=15)
    dense_cfg.svd = "dense"
    dense = quiet_fit(ds.X, ds.Y, dense_cfg)
    sig_err = np.abs(randomized.sigmas - dense.sigmas).max()
    f_err = np.abs(sign_align(randomized.F, dense.F) - dense.F).max()
    g_err = np.abs(sign_align(randomized.G, dense.G) - dense.G).max()
    assert sig_err <= 1e-6 and f_err <= 1e-6 and g_err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, "dense-svd oracle", f"sigma {sig_err:.2e}, F {f_err:.2e}, G {g_err:.2e}, "
                                  f"{elapsed:.1f}s")


def test_criterion_05_plcca_cca_reduction():
    t0 = time.perf_counter()
    ds = gen_gaussian_pair(5000, [0.9, 0.5, 0.1], seed=8)
    oracle = plcca_linear_oracle(ds.X, ds.Y, 3)
    ref = cca_fit(ds.X, ds.Y, 3)
    proj_err = 0.0
    for view, data in ((1, ds.X), (2, ds.Y)):
        ours = cca_project(oracle, view, data)
        theirs = cca_project(ref, view, data)
        proj_err = max(proj_err, np.abs(sign_align(ours, theirs) - theirs).max())
    eig_err = np.abs(oracle.correlations**2 - ref.correlations**2).max()
    assert proj_err <= 1e-6 and eig_err <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, "plcca-cca reduction", f"projection {proj_err:.2e}, eigenvalue {eig_err:.2e}, "
                                     f"{elapsed:.1f}s")


def test_criterion_06_lemma_whitening():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        Fhat = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4))
        G = optimal_g(Fhat)
        worst = max(worst, np.abs(G.T @ G / 500 - np.eye(4)).max())
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(6, "lemma whitening", f"worst second-moment deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_linear_cca_recovery():
    t0 = time.perf_counter()
    rho = np.array([0.9, 0.5, 0.1])
    ds = gen_gaussian_pair(20000, rho, seed=9)
    model = cca_fit(ds.X, ds.Y, 3)
    dev = np.abs(model.correlations - rho).max()
    assert dev <= 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(7, "linear cca recovery", f"max deviation {dev:.4f}, {elapsed:.1f}s")


def test_criterion_08_spiral_benchmark():
    t0 = time.perf_counter()
    train = gen_spiral_pair(1000, noise=0.01, turns=1.5, seed=0)
    test = gen_spiral_pair(1000, noise=0.01, turns=1.5, seed=1)

    ncca_model = quiet_fit(train.X, train.Y, knn_config(L=1, k=15))
    ncca_corr = abs(pearson(ncca_project_x(ncca_model, test.X)[:, 0],
                            ncca_project_y(ncca_model, test.Y)[:, 0]))

    cca_model = cca_fit(train.X, train.Y, 1)
    cca_corr = abs(pearson(cca_project(cca_model, 1, test.X)[:, 0],
                           cca_project(cca_model, 2, test.Y)[:, 0]))

    plcca_model = plcca_fit(train.X, train.Y, 1, AffinityConfig(k=15))
    plcca_corr = abs(pearson(plcca_project_x(plcca_model, test.X)[:, 0],
                             plcca_project_y(plcca_model, test.Y)[:, 0]))

    _spiral_cache["model"] = ncca_model

    assert ncca_corr >= 0.85
    assert cca_corr <= 0.55
    assert (cca_corr < plcca_corr < ncca_corr) or (plcca_corr >= cca_corr + 0.1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "spiral benchmark", f"ncca {ncca_corr:.3f} >= 0.85, cca {cca_corr:.3f} <= 0.55, "
                                  f"plcca {plcca_corr:.3f}, {elapsed:.1f}s")


def test_criterion_09_constant_component_diagnostic():
    model = _spiral_cache.get("model")
    assert model is not None, "criterion 8 must run first (shared fit)"
    sigma1 = float(model.sigmas[0])
    u1 = model.F[:, 0]
    cv = u1.std() / abs(u1.mean())
    assert 0.85 <= sigma1 <= 1.15
    assert cv <= 0.2
    report(9, "constant component", f"sigma1 {sigma1:.4f} in [0.85, 1.15], cv {cv:.3f} <= 0.2 "
                                    f"(runtime bundled with criterion 8)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    train = gen_spiral_pair(300, seed=11)
    held = gen_spiral_pair(10, seed=12)
    a = quiet_fit(train.X, train.Y, knn_config(L=2, k=15))
    b = quiet_fit(train.X, train.Y, knn_config(L=2, k=15))
    assert np.array_equal(a.F, b.F) and np.array_equal(a.G, b.G)
    assert np.array_equal(a.sigmas, b.sigmas)
    assert np.array_equal(a.Hx, b.Hx) and np.array_equal(a.Hy, b.Hy)

    path = tmp_path / "model.nccm"
    save_model(path, a)
    loaded = load_model(path)
    assert np.array_equal(ncca_project_x(loaded, held.X), ncca_project_x(a, held.X))
    assert np.array_equal(ncca_project_y(loaded, held.Y), ncca_project_y(a, held.Y))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(10, "determinism & persistence", f"bit-identical refit and round-trip, {elapsed:.1f}s")


def test_criterion_11_scalability_smoke():
    ds = gen_gaussian_pair(50000, np.linspace(0.9, 0.1, 10), seed=13)
    t0 = time.perf_counter()
    model = quiet_fit(ds.X, ds.Y, knn_config(L=2, k=15))
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    assert model.F.shape == (50000, 3)
    assert elapsed < 120.0
    assert peak_gb < 2.0
    report(11, "scalability smoke", f"N=50000 fit in {elapsed:.1f}s "
                                    f"(search {model.timings['search_seconds']:.1f}s, "
                                    f"optimize {model.timings['optimize_seconds']:.1f}s), "
                                    f"peak rss {peak_gb:.2f} GB")
