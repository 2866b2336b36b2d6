"""Batch command-line frontend.

Subcommands: ``synth`` (generate a synthetic paired dataset), ``train``
(fit a model), ``project`` (apply a trained model to new samples), ``eval``
(total canonical correlation of two projection files), and ``bench``
(end-to-end benchmark with pre-registered thresholds).

Every run emits a machine-readable ``key=value`` manifest next to its
outputs (or on stdout for commands without output files); re-running with
the manifest's configuration reproduces the output files bit for bit.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure, 4 benchmark threshold failure.  ``NCCA_THREADS`` caps the worker
thread count of the underlying BLAS when the ``threadpoolctl`` package is
available and does nothing otherwise, which the CLI notes on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .affinity import AffinityConfig, DEFAULT_BANDWIDTH_FRACTION, DEFAULT_K
from .cca import cca_fit, cca_project, CcaModel
from .dataio import (
    FormatError,
    gen_gaussian_pair,
    gen_identical_views,
    gen_spiral_pair,
    load_model,
    read_matrix,
    save_model,
    write_matrix,
)
from .linalg import NumericalError
from .metrics import total_correlation
from .ncca import NccaConfig, NccaModel, ncca_fit, ncca_project_x, ncca_project_y
from .plcca import PlccaModel, plcca_fit, plcca_project_x, plcca_project_y

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

# Pre-registered benchmark thresholds (reference run with the exact dense
# decomposition at the default sizes below; enforced only at those sizes).
SPIRAL_N = 1000
SPIRAL_NOISE = 0.01
SPIRAL_TURNS = 1.5
SPIRAL_NCCA_MIN = 0.85
SPIRAL_CCA_MAX = 0.55
SPIRAL_PLCCA_MARGIN = 0.1
GAUSSIAN_N = 20000
GAUSSIAN_RHO = (0.9, 0.5, 0.1)
GAUSSIAN_TOL = 0.03


class UsageError(Exception):
    """Bad flags or flag values."""


class ThresholdFailure(Exception):
    """A benchmark acceptance threshold was violated."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, expect):
    """An argparse ``type``: a value that fails ``ok`` is a usage error naming its flag."""

    def parse(text):
        try:
            value = convert(text)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {expect}, got {text!r}")
        return value

    return parse


def _pca_spec(text):
    """'auto' (True: the default fraction), an integer dimension, or a fraction in (0, 1)."""
    if text == "auto":
        return True
    value = float(text)
    if 0.0 < value < 1.0:
        return value
    if value >= 1.0 and value.is_integer():
        return int(value)
    raise ValueError(text)


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_FRACTION = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_NONNEGATIVE = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_TURNS = _checked(float, lambda v: 0.0 < v < np.inf, "a finite number > 0")
_RHO = _checked(
    lambda text: [float(tok) for tok in text.split(",") if tok.strip()],
    lambda rho: rho and all(0.0 <= r < 1.0 for r in rho),
    "comma-separated correlations in [0, 1)",
)
_SIGMA = _checked(
    lambda text: None if text == "auto" else float(text),
    lambda v: v is None or 0.0 < v < np.inf,
    "a finite number > 0 or 'auto'",
)
_PCA = _checked(_pca_spec, lambda v: True, "an integer >= 1, a fraction in (0, 1) or 'auto'")


def _pca_text(spec):
    """A parsed ``--pca-*`` value as the flag text that gives it back."""
    return "auto" if spec is True else spec


def _write_manifest(path, entries):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in entries.items():
            f.write(f"{key}={value}\n")


def _print_manifest(entries):
    for key, value in entries.items():
        print(f"{key}={value}")


def _limit_threads():
    raw = os.environ.get("NCCA_THREADS")
    if not raw:
        return "default"
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"NCCA_THREADS must be an integer, got {raw!r}") from None
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
        return str(n)
    except ImportError:
        return f"{n} (threadpoolctl unavailable; not applied)"


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    t0 = time.perf_counter()
    manifest = {
        "command": "synth",
        "version": __version__,
        "kind": args.kind,
        "n": args.n,
        "seed": args.seed,
        "out": args.out,
    }
    if args.kind == "gaussian":
        if args.rho is None:
            raise UsageError("--rho is required for --kind gaussian")
        ds = gen_gaussian_pair(args.n, args.rho, seed=args.seed)
        manifest["rho"] = ",".join(map(str, args.rho))
    elif args.kind == "spiral":
        ds = gen_spiral_pair(args.n, noise=args.noise, turns=args.turns, seed=args.seed)
        manifest["noise"] = args.noise
        manifest["turns"] = args.turns
    elif args.kind == "identical":
        ds = gen_identical_views(args.n, args.dims, seed=args.seed)
        manifest["dims"] = args.dims
    else:
        raise UsageError(f"unknown kind {args.kind!r}")

    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "x.ncm"), ds.X)
    write_matrix(os.path.join(args.out, "y.ncm"), ds.Y)
    manifest["x_file"] = "x.ncm"
    manifest["y_file"] = "y.ncm"
    if ds.labels is not None:
        write_matrix(os.path.join(args.out, "labels.ncm"), ds.labels)
        manifest["labels_file"] = "labels.ncm"
    manifest["elapsed_seconds"] = f"{time.perf_counter() - t0:.6f}"
    _write_manifest(os.path.join(args.out, "manifest.txt"), manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _reject_flags(args, method, names):
    for flag, default in names:
        if getattr(args, flag.strip("-").replace("-", "_")) != default:
            raise UsageError(f"{flag} does not apply to --method {method}")


def cmd_train(args):
    X = read_matrix(args.x)
    Y = read_matrix(args.y)

    manifest = {
        "command": "train",
        "version": __version__,
        "method": args.method,
        "x": args.x,
        "y": args.y,
        "dim": args.dim,
        "seed": args.seed,
        "model": args.model,
    }
    t0 = time.perf_counter()
    if args.method == "cca":
        _reject_flags(
            args,
            "cca",
            [("--sigma-x", None), ("--sigma-y", None), ("--sigma-frac", DEFAULT_BANDWIDTH_FRACTION),
             ("--knn", None), ("--pca-x", None), ("--pca-y", None)],
        )
        model = cca_fit(X, Y, args.dim, ridge=args.ridge)
        manifest["ridge_x"] = repr(model.ridge_x)
        manifest["ridge_y"] = repr(model.ridge_y)
        manifest["correlations"] = ",".join(f"{c:.6f}" for c in model.correlations)
        search, optimize = 0.0, time.perf_counter() - t0
    elif args.method == "plcca":
        _reject_flags(args, "plcca", [("--sigma-x", None)])
        cfg = AffinityConfig(
            sigma=args.sigma_y, k=args.knn if args.knn is not None else DEFAULT_K, fraction=args.sigma_frac
        )
        model = plcca_fit(X, Y, args.dim, cfg, ridge=args.ridge, pca_x=args.pca_x, pca_y=args.pca_y)
        manifest["sigma_y"] = repr(model.y_affinity.sigma)
        manifest["knn"] = model.y_affinity.k
        manifest["ridge"] = repr(model.ridge)
        manifest["pca_x"] = _pca_text(args.pca_x)
        manifest["pca_y"] = _pca_text(args.pca_y)
        search = model.timings["search_seconds"]
        optimize = model.timings["optimize_seconds"]
    elif args.method == "ncca":
        if args.ridge is not None:
            raise UsageError("--ridge does not apply to --method ncca")
        k = args.knn if args.knn is not None else DEFAULT_K
        cfg = NccaConfig(
            L=args.dim,
            affinity_x=AffinityConfig(sigma=args.sigma_x, k=k, fraction=args.sigma_frac),
            affinity_y=AffinityConfig(sigma=args.sigma_y, k=k, fraction=args.sigma_frac),
            pca_x=args.pca_x,
            pca_y=args.pca_y,
            seed=args.seed,
        )
        model = ncca_fit(X, Y, cfg)
        manifest["sigma_x"] = repr(model.config.affinity_x.sigma)
        manifest["sigma_y"] = repr(model.config.affinity_y.sigma)
        manifest["knn"] = k
        manifest["pca_x"] = _pca_text(args.pca_x)
        manifest["pca_y"] = _pca_text(args.pca_y)
        manifest["sigma1"] = repr(float(model.sigmas[0]))
        manifest["sigma1_deviation"] = repr(abs(float(model.sigmas[0]) - 1.0))
        search = model.timings["search_seconds"]
        optimize = model.timings["optimize_seconds"]
    else:
        raise UsageError(f"unknown method {args.method!r}")

    save_model(args.model, model)
    manifest["search_seconds"] = f"{search:.6f}"
    manifest["optimize_seconds"] = f"{optimize:.6f}"
    _write_manifest(args.model + ".manifest", manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# project


def cmd_project(args):
    t0 = time.perf_counter()
    model = load_model(args.model)
    data = read_matrix(args.infile)
    if isinstance(model, CcaModel):
        P = cca_project(model, args.view, data)
    elif isinstance(model, PlccaModel):
        P = plcca_project_x(model, data) if args.view == 1 else plcca_project_y(model, data)
    elif isinstance(model, NccaModel):
        P = ncca_project_x(model, data) if args.view == 1 else ncca_project_y(model, data)
    else:
        raise FormatError(f"unsupported model type {type(model).__name__}")
    write_matrix(args.out, np.atleast_2d(P))
    _write_manifest(
        args.out + ".manifest",
        {
            "command": "project",
            "version": __version__,
            "model": args.model,
            "view": args.view,
            "in": args.infile,
            "out": args.out,
            "rows": P.shape[0],
            "cols": P.shape[1],
            "elapsed_seconds": f"{time.perf_counter() - t0:.6f}",
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args):
    P1 = read_matrix(args.proj1)
    P2 = read_matrix(args.proj2)
    report = total_correlation(P1, P2, args.dim, ridge=args.ridge)
    _print_manifest(
        {
            "command": "eval",
            "version": __version__,
            "proj1": args.proj1,
            "proj2": args.proj2,
            "dim": args.dim,
        }
    )
    for line in report.lines():
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _bench_spiral(n, seed, enforce, rows, failures):
    train = gen_spiral_pair(n, noise=SPIRAL_NOISE, turns=SPIRAL_TURNS, seed=seed)
    test = gen_spiral_pair(n, noise=SPIRAL_NOISE, turns=SPIRAL_TURNS, seed=seed + 1)
    totals = {}

    t0 = time.perf_counter()
    cm = cca_fit(train.X, train.Y, 1)
    t1 = time.perf_counter()
    r = total_correlation(cca_project(cm, 1, test.X), cca_project(cm, 2, test.Y), 1)
    totals["cca"] = r.total_correlation
    rows.append(("spiral", "cca", r.total_correlation, 0.0, t1 - t0))

    pm = plcca_fit(train.X, train.Y, 1, AffinityConfig(k=15))
    r = total_correlation(plcca_project_x(pm, test.X), plcca_project_y(pm, test.Y), 1)
    totals["plcca"] = r.total_correlation
    rows.append(
        ("spiral", "plcca", r.total_correlation,
         pm.timings["search_seconds"], pm.timings["optimize_seconds"])
    )

    cfg = NccaConfig(L=1, affinity_x=AffinityConfig(k=15), affinity_y=AffinityConfig(k=15), seed=seed)
    nm = ncca_fit(train.X, train.Y, cfg)
    r = total_correlation(ncca_project_x(nm, test.X), ncca_project_y(nm, test.Y), 1)
    totals["ncca"] = r.total_correlation
    rows.append(
        ("spiral", "ncca", r.total_correlation,
         nm.timings["search_seconds"], nm.timings["optimize_seconds"])
    )

    if enforce:
        if totals["ncca"] < SPIRAL_NCCA_MIN:
            failures.append(f"spiral ncca correlation {totals['ncca']:.4f} < {SPIRAL_NCCA_MIN}")
        if totals["cca"] > SPIRAL_CCA_MAX:
            failures.append(f"spiral cca correlation {totals['cca']:.4f} > {SPIRAL_CCA_MAX}")
        between = totals["cca"] < totals["plcca"] < totals["ncca"]
        if not (between or totals["plcca"] >= totals["cca"] + SPIRAL_PLCCA_MARGIN):
            failures.append(
                f"spiral plcca correlation {totals['plcca']:.4f} neither between cca/ncca "
                f"nor >= cca + {SPIRAL_PLCCA_MARGIN}"
            )


def _bench_gaussian(n, seed, enforce, rows, failures):
    ds = gen_gaussian_pair(n, GAUSSIAN_RHO, seed=seed)
    t0 = time.perf_counter()
    model = cca_fit(ds.X, ds.Y, len(GAUSSIAN_RHO))
    elapsed = time.perf_counter() - t0
    rows.append(("gaussian", "cca", model.correlations.sum(), 0.0, elapsed))
    deviation = np.abs(model.correlations - np.asarray(GAUSSIAN_RHO)).max()
    if enforce and deviation > GAUSSIAN_TOL:
        failures.append(
            f"gaussian cca recovery deviates by {deviation:.4f} > {GAUSSIAN_TOL} "
            f"from rho={GAUSSIAN_RHO}"
        )


def cmd_bench(args):
    enforce = args.n is None
    spiral_n = args.n if args.n is not None else SPIRAL_N
    gaussian_n = args.n if args.n is not None else GAUSSIAN_N
    rows, failures = [], []
    _bench_spiral(spiral_n, args.seed, enforce, rows, failures)
    _bench_gaussian(gaussian_n, args.seed, enforce, rows, failures)

    _print_manifest(
        {
            "command": "bench",
            "version": __version__,
            "spiral_n": spiral_n,
            "gaussian_n": gaussian_n,
            "seed": args.seed,
            "thresholds_enforced": enforce,
        }
    )
    header = f"{'suite':<9} {'method':<7} {'total_corr':>11} {'search_s':>9} {'optimize_s':>11}"
    print(header)
    print("-" * len(header))
    for suite, method, total, search, optimize in rows:
        print(f"{suite:<9} {method:<7} {total:>11.4f} {search:>9.3f} {optimize:>11.3f}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise ThresholdFailure(f"{len(failures)} benchmark threshold(s) violated")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = _Parser(prog="mvcca", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mvcca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    p.add_argument("--kind", required=True, choices=["gaussian", "spiral", "identical"])
    p.add_argument("--n", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--rho", type=_RHO, default=None, help="comma-separated correlations (gaussian)")
    p.add_argument("--noise", type=_NONNEGATIVE, default=0.01)
    p.add_argument("--turns", type=_TURNS, default=1.5)
    p.add_argument("--dims", type=_COUNT, default=5, help="dimensions for --kind identical")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model from matrix files")
    p.add_argument("--method", required=True, choices=["cca", "plcca", "ncca"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--dim", type=_COUNT, required=True)
    p.add_argument("--sigma-x", type=_SIGMA, default=None)
    p.add_argument("--sigma-y", type=_SIGMA, default=None)
    p.add_argument("--sigma-frac", type=_FRACTION, default=DEFAULT_BANDWIDTH_FRACTION)
    p.add_argument("--knn", type=_COUNT, default=None)
    p.add_argument("--pca-x", type=_PCA, default=None)
    p.add_argument("--pca-y", type=_PCA, default=None)
    p.add_argument("--ridge", type=_NONNEGATIVE, default=None)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("project", help="apply a trained model to new samples")
    p.add_argument("--model", required=True)
    p.add_argument("--view", type=int, required=True, choices=[1, 2])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("eval", help="total canonical correlation of two projection files")
    p.add_argument("--proj1", required=True)
    p.add_argument("--proj2", required=True)
    p.add_argument("--dim", type=_COUNT, required=True)
    p.add_argument("--ridge", type=_NONNEGATIVE, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the built-in benchmark suites")
    p.add_argument("--n", type=_COUNT, default=None, help="override suite sizes (thresholds informational)")
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        threads = _limit_threads()
        args = parser.parse_args(argv)
        if threads != "default":
            print(f"ncca_threads={threads}", file=sys.stderr)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ThresholdFailure as exc:
        print(f"benchmark failure: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD


if __name__ == "__main__":
    sys.exit(main())
