"""File formats and synthetic dataset generators.

Matrices travel either as comma-separated text (17 significant digits, so
float64 round-trips exactly) or as the NCM1 binary block: magic ``NCM1``,
u32 version 1, u64 rows, u64 cols, then row-major little-endian float64.
Text is read by ``numpy.loadtxt`` and written by ``numpy.savetxt``: blank
lines are skipped, a ``#`` starts a comment anywhere on a line, a file with
no rows is a 0 x 0 matrix, and a parse error names the file and its line.

Trained models are stored in the NCCM container: magic ``NCCM``, u32
version 1, u8 method id (1 linear, 2 partially linear, 3 nonparametric),
u32 section count, then named sections.  Each section is a u32 name length,
the UTF-8 name, a u8 payload kind, and the payload:

=====  ==============================================================
kind   payload
=====  ==============================================================
0      dense matrix, a complete NCM1 block
2      scalar list: u32 count, float64 values
3      UTF-8 string: u32 byte length, bytes
=====  ==============================================================

All integers are little-endian.  Loading a saved model reproduces its
projections bit for bit.

An NCCA model's ``config`` section is the scalar list [L, seed], and each
affinity section (``affinity_x``, ``affinity_y``, ``y_affinity``) is
[sigma, k], with the bandwidth a fit resolved.  Files that hold the longer
lists of earlier releases are refused: refit the model.  A PLCCA file holds
the kernel-regression model alone; the ``predictor`` section that earlier
releases wrote (always "nw") is ignored like any unknown section.  The
linear-predictor oracle is a linear CCA model and is saved as one.
"""

from __future__ import annotations

import itertools
import os
import re
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityConfig
from .cca import CcaModel
from .ncca import NccaConfig, NccaModel
from .plcca import PlccaModel

__all__ = [
    "FormatError",
    "PairedDataset",
    "read_matrix",
    "write_matrix",
    "save_model",
    "load_model",
    "gen_gaussian_pair",
    "gen_spiral_pair",
    "gen_identical_views",
]

MATRIX_MAGIC = b"NCM1"
MODEL_MAGIC = b"NCCM"
FORMAT_VERSION = 1

_METHOD_IDS = {"cca": 1, "plcca": 2, "ncca": 3}

# Section payload kinds (kind 1, sparse CSR, is retired).
_DENSE, _SCALARS, _STRING = 0, 2, 3
_KIND_NAMES = {_DENSE: "a dense matrix", _SCALARS: "a scalar list", _STRING: "a string"}


class FormatError(ValueError):
    """Malformed, truncated, or wrong-version file content."""


@dataclass
class PairedDataset:
    """Two aligned sample matrices plus optional per-sample ground truth."""

    X: np.ndarray
    Y: np.ndarray
    labels: np.ndarray | None = None


# ---------------------------------------------------------------------------
# matrix files


def _matrix_parts(M):
    """An NCM1 block as its header bytes and the little-endian array itself."""
    M = np.ascontiguousarray(M, dtype="<f8")
    if M.ndim != 2:
        raise ValueError("matrix must be 2-D")
    return [MATRIX_MAGIC + struct.pack("<IQQ", FORMAT_VERSION, M.shape[0], M.shape[1]), M]


def _write_file(path, parts):
    """Write ``parts`` over ``path`` in place, then cut the file to their length.

    Emptying it first (``open(path, "wb")``) makes ext4 start writeback on
    close, and the next write of the same path would wait for that disk write.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for part in parts:
            f.write(part)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _check_left(f, n, what):
    """``n`` often comes straight from a header: check it against the bytes left."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(f"truncated file while reading {what}: {n} bytes declared, {left} left")


def _read_exact(f, n, what):
    """Read exactly ``n`` bytes from a file opened in binary mode."""
    _check_left(f, n, what)
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _read_array(f, shape, dtype, what):
    """Read a little-endian array straight into its one allocation.

    The declared size is checked against the file before allocating.
    """
    dtype = np.dtype(dtype)
    n = dtype.itemsize * int(np.prod(shape, dtype=object))
    _check_left(f, n, what)
    arr = np.empty(shape, dtype=dtype)
    if f.readinto(arr) != n:
        raise FormatError(f"truncated file while reading {what}")
    return arr.astype(dtype.newbyteorder("="), copy=False)


def _matrix_from_stream(f, where="matrix data"):
    header = f.read(4 + 4 + 8 + 8)
    if len(header) < 24 or header[:4] != MATRIX_MAGIC:
        raise FormatError(f"bad magic in {where}: expected NCM1 header")
    version, rows, cols = struct.unpack("<IQQ", header[4:])
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported matrix format version {version} in {where}")
    M = _read_array(f, (rows, cols), "<f8", where)
    if not np.all(np.isfinite(M)):
        raise FormatError(f"non-finite values in {where}")
    return M


def _read_text_matrix(path):
    # Unstripped, a blank or indented comment line reads as one empty field.
    with open(path, "r", encoding="utf-8") as f, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            M = np.loadtxt((line.lstrip() for line in f), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: {_at_file_line(path, str(exc))}") from None
    if not M.size:
        return np.zeros((0, 0))
    if not np.all(np.isfinite(M)):
        raise FormatError(f"{path}: non-finite values")
    return M


def _at_file_line(path, message):
    """A loadtxt error ``message`` with its data-row index replaced by the line of ``path``."""
    # The last "at row" is numpy's: data rows from 0 in conversion errors, from 1 otherwise.
    found = re.match(r"(.*)at row (\d+)", message, re.DOTALL)
    if found is None:
        return message
    skip = int(found[2]) - 1 + message.startswith("could not convert")
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        data = (i for i, line in enumerate(f, 1) if line.lstrip()[:1] not in ("", "#"))
        line = next(itertools.islice(data, skip, None), None)
    return message if line is None else f"{found[1]}at line {line}{message[found.end() :]}"


def read_matrix(path, format="auto"):
    """Read a matrix file; ``format`` is "auto", "text", or "binary"."""
    if format == "auto":
        with open(path, "rb") as f:
            format = "binary" if f.read(4) == MATRIX_MAGIC else "text"
    if format == "binary":
        with open(path, "rb") as f:
            return _matrix_from_stream(f, where=str(path))
    if format == "text":
        return _read_text_matrix(path)
    raise ValueError(f"unknown matrix format {format!r}")


def write_matrix(path, M, format="binary"):
    """Write a matrix file in the chosen on-disk format."""
    parts = _matrix_parts(M)
    if format == "binary":
        _write_file(path, parts)
    elif format == "text":
        with open(path, "w", encoding="utf-8") as f:  # a path ending .gz stays plain text
            np.savetxt(f, parts[1], fmt="%.17g", delimiter=",")
    else:
        raise ValueError(f"unknown matrix format {format!r}")


# ---------------------------------------------------------------------------
# model container


def _section(name, kind, *parts):
    encoded = name.encode("utf-8")
    return [struct.pack("<I", len(encoded)) + encoded + struct.pack("<B", kind), *parts]


def _sec_dense(name, arr):
    return _section(name, _DENSE, *_matrix_parts(np.atleast_2d(arr)))


def _sec_scalars(name, values):
    values = np.asarray(values, dtype="<f8").ravel()
    return _section(name, _SCALARS, struct.pack("<I", values.size), values)


def _secs_pca(view, pca):
    if pca is None:
        return []
    return [_sec_dense(f"pca_{view}_mean", pca[0]), _sec_dense(f"pca_{view}_basis", pca[1])]


def _sec_string(name, text):
    encoded = text.encode("utf-8")
    return _section(name, _STRING, struct.pack("<I", len(encoded)) + encoded)


def _read_sections(f, count, path):
    """Each section's name mapped to its (kind, value)."""
    sections = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _read_exact(f, 4, "section name length"))
        name = _read_exact(f, name_len, "section name").decode("utf-8")
        (kind,) = struct.unpack("<B", _read_exact(f, 1, "section kind"))
        if kind == _DENSE:
            value = _matrix_from_stream(f, where=f"section {name!r} of {path}")
        elif kind == _SCALARS:
            (n_vals,) = struct.unpack("<I", _read_exact(f, 4, "scalar count"))
            value = _read_array(f, n_vals, "<f8", "scalar values")
        elif kind == _STRING:
            (n_bytes,) = struct.unpack("<I", _read_exact(f, 4, "string length"))
            value = _read_exact(f, n_bytes, "string payload").decode("utf-8")
        else:
            raise FormatError(f"unknown section kind {kind} in {path}")
        sections[name] = kind, value
    return sections


def _require(sections, name, path, kind, size=None):
    """Section ``name``'s value; refused unless of payload ``kind`` (and ``size`` scalars)."""
    if name not in sections:
        raise FormatError(f"model file {path} is missing required section {name!r}")
    found, value = sections[name]
    if found != kind:
        raise FormatError(f"{path}: section {name!r} must be {_KIND_NAMES[kind]}")
    if size is not None and value.shape != (size,):
        raise FormatError(f"{path}: section {name!r} must hold {size} scalars")
    return value


def _check_shapes(path, expected):
    """Refuse the file unless each (name, array, shape) triple has its shape."""
    for name, arr, shape in expected:
        if arr.shape != shape:
            raise FormatError(f"{path}: section {name!r} is {arr.shape}, expected {shape}")


def _check_positive(path, name, values):
    """Refuse the file unless every entry of a divisor section is positive and finite."""
    if not np.all((values > 0) & (values < np.inf)):
        raise FormatError(f"{path}: section {name!r} must hold positive finite values")


def _pca_from_sections(sections, view, width, path):
    """A view's stored (mean, basis) PCA map, or None; the basis maps onto ``width`` columns."""
    if f"pca_{view}_mean" not in sections:
        return None
    mean = _require(sections, f"pca_{view}_mean", path, _DENSE).ravel()
    basis = _require(sections, f"pca_{view}_basis", path, _DENSE)
    rows = basis.shape[0]
    _check_shapes(path, [
        (f"pca_{view}_mean", mean, (rows,)), (f"pca_{view}_basis", basis, (rows, width)),
    ])
    return mean, basis


def _affinity_to_scalars(cfg: AffinityConfig):
    return [cfg.sigma, float(cfg.k)]


def _affinity_from_scalars(sections, name, n, path):
    sigma, k = _require(sections, name, path, _SCALARS, 2)
    if not (0 < sigma < np.inf and 1 <= k <= n and k == int(k)):
        raise FormatError(f"{path}: {name!r} needs a finite sigma > 0 and an integer k in 1..{n}")
    return AffinityConfig(sigma=float(sigma), k=int(k))


def save_model(path, model):
    """Serialize a fitted model to an NCCM container file.

    Each section's header bytes and arrays are written straight to the
    file, without assembling the container in memory first.
    """
    if isinstance(model, CcaModel):
        method = _METHOD_IDS["cca"]
        sections = [
            _sec_dense("mean_x", model.mean_x),
            _sec_dense("mean_y", model.mean_y),
            _sec_dense("w1", model.W1),
            _sec_dense("w2", model.W2),
            _sec_scalars("correlations", model.correlations),
            _sec_scalars("ridge", [model.ridge_x, model.ridge_y]),
        ]
    elif isinstance(model, PlccaModel):
        method = _METHOD_IDS["plcca"]
        sections = [
            _sec_dense("mean_x", model.mean_x),
            _sec_dense("whitener", model.whitener),
            _sec_dense("u", model.U),
            _sec_scalars("d", model.D),
            _sec_dense("xhat_mean", model.xhat_mean),
            _sec_scalars("ridge", [model.ridge]),
            _sec_dense("hy", model.Hy),
            _sec_dense("train_y", model.train_Y),
            _sec_scalars("y_affinity", _affinity_to_scalars(model.y_affinity)),
        ]
        sections += _secs_pca("x", model.pca_x) + _secs_pca("y", model.pca_y)
    elif isinstance(model, NccaModel):
        method = _METHOD_IDS["ncca"]
        cfg = model.config
        sections = [
            _sec_dense("train_x", model.train_x),
            _sec_dense("hx", model.Hx),
            _sec_scalars("sigmas", model.sigmas),
            _sec_dense("f", model.F),
            _sec_dense("g", model.G),
            _sec_scalars("config", [float(cfg.L), float(cfg.seed)]),
            _sec_string("svd", cfg.svd),
            _sec_scalars("affinity_x", _affinity_to_scalars(cfg.affinity_x)),
            _sec_scalars("affinity_y", _affinity_to_scalars(cfg.affinity_y)),
        ]
        sections += _secs_pca("x", model.pca_x)
        sections += [_sec_dense("train_y", model.train_y), _sec_dense("hy", model.Hy)]
        sections += _secs_pca("y", model.pca_y)
    else:
        raise ValueError(f"cannot serialize object of type {type(model).__name__}")

    header = MODEL_MAGIC + struct.pack("<IBI", FORMAT_VERSION, method, len(sections))
    _write_file(path, [header] + [part for section in sections for part in section])


def load_model(path):
    """Load a model saved by :func:`save_model`."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic, not an NCCM model file")
        version, method, count = struct.unpack("<IBI", _read_exact(f, 9, "model header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported model format version {version}")
        sections = _read_sections(f, count, path)

    if method == _METHOD_IDS["cca"]:
        ridge = _require(sections, "ridge", path, _SCALARS, 2)
        mean_x, mean_y = (
            _require(sections, name, path, _DENSE).ravel() for name in ("mean_x", "mean_y")
        )
        w1, w2 = (_require(sections, name, path, _DENSE) for name in ("w1", "w2"))
        correlations = _require(sections, "correlations", path, _SCALARS)
        width = w1.shape[1]
        _check_shapes(path, [
            ("mean_x", mean_x, (w1.shape[0],)), ("mean_y", mean_y, (w2.shape[0],)),
            ("w2", w2, (w2.shape[0], width)), ("correlations", correlations, (width,)),
        ])
        return CcaModel(
            mean_x=mean_x, mean_y=mean_y, W1=w1, W2=w2, correlations=correlations,
            ridge_x=float(ridge[0]), ridge_y=float(ridge[1]),
        )
    if method == _METHOD_IDS["plcca"]:
        ridge = _require(sections, "ridge", path, _SCALARS, 1)
        mean_x, xhat_mean = (
            _require(sections, name, path, _DENSE).ravel() for name in ("mean_x", "xhat_mean")
        )
        whitener, u, hy, train_y = (
            _require(sections, name, path, _DENSE) for name in ("whitener", "u", "hy", "train_y")
        )
        d = _require(sections, "d", path, _SCALARS)
        dx, width = mean_x.size, u.shape[1]
        n, dy = train_y.shape
        y_affinity = _affinity_from_scalars(sections, "y_affinity", n, path)
        _check_shapes(path, [
            ("whitener", whitener, (dx, dx)), ("u", u, (dx, width)),
            ("d", d, (width,)), ("xhat_mean", xhat_mean, (dx,)), ("hy", hy, (n, width)),
        ])
        _check_positive(path, "d", d)
        return PlccaModel(
            mean_x=mean_x, whitener=whitener, U=u, D=d, xhat_mean=xhat_mean,
            ridge=float(ridge[0]), Hy=hy, train_Y=train_y, y_affinity=y_affinity,
            pca_x=_pca_from_sections(sections, "x", dx, path),
            pca_y=_pca_from_sections(sections, "y", dy, path),
        )
    if method == _METHOD_IDS["ncca"]:
        raw = _require(sections, "config", path, _SCALARS, 2)
        train_x, hx, f, g, train_y, hy = (
            _require(sections, name, path, _DENSE)
            for name in ("train_x", "hx", "f", "g", "train_y", "hy")
        )
        sigmas = _require(sections, "sigmas", path, _SCALARS)
        _check_positive(path, "sigmas", sigmas)
        n, width = train_x.shape[0], sigmas.size
        # L and the seed become ints: an infinite slot would raise OverflowError there.
        if not (raw[0] == width - 1 and raw[1] >= 0 and raw[1].is_integer()):
            raise FormatError(f"{path}: 'config' needs L = {width - 1} and an integer seed >= 0")
        config = NccaConfig(
            L=int(raw[0]),
            affinity_x=_affinity_from_scalars(sections, "affinity_x", n, path),
            affinity_y=_affinity_from_scalars(sections, "affinity_y", n, path),
            seed=int(raw[1]),
            svd=_require(sections, "svd", path, _STRING),
        )
        # Projection indexes the maps by training-point rows: a mismatch would
        # surface there as an IndexError or a silently broadcast result.
        _check_shapes(path, [
            ("hx", hx, (n, width - 1)), ("f", f, (n, width)), ("g", g, (n, width)),
            ("train_y", train_y, (n, train_y.shape[1])), ("hy", hy, (n, width - 1)),
        ])
        return NccaModel(
            train_x=train_x, pca_x=_pca_from_sections(sections, "x", train_x.shape[1], path),
            Hx=hx, train_y=train_y, pca_y=_pca_from_sections(sections, "y", train_y.shape[1], path),
            Hy=hy, sigmas=sigmas, F=f, G=g, config=config,
        )
    raise FormatError(f"{path}: unknown model method id {method}")


# ---------------------------------------------------------------------------
# synthetic datasets


def gen_gaussian_pair(N, correlations, seed=0):
    """Paired Gaussians with prescribed per-coordinate correlations.

    Each view has L standard-normal coordinates; coordinate i of the two
    views has covariance ``correlations[i]`` and cross terms vanish, so the
    population canonical correlations equal the given values.
    """
    rho = np.asarray(correlations, dtype=np.float64).ravel()
    if rho.size < 1:
        raise ValueError("at least one correlation is required")
    if np.any((rho < 0.0) | (rho >= 1.0)):
        raise ValueError(f"correlations must lie in [0, 1), got {rho}")
    rng = np.random.default_rng(seed)
    Z1 = rng.standard_normal((N, rho.size))
    Z2 = rng.standard_normal((N, rho.size))
    X = Z1
    Y = rho * Z1 + np.sqrt(1.0 - rho * rho) * Z2
    return PairedDataset(X=X, Y=Y)


def gen_spiral_pair(N, noise=0.01, turns=1.5, seed=0):
    """Spiral-vs-line pair sharing a single degree of freedom.

    A common parameter t ~ Uniform[0, 1) drives both views: view 1 winds it
    onto a planar spiral, view 2 presents it directly next to an independent
    Gaussian nuisance coordinate; both views get isotropic Gaussian noise.
    The shared t is returned as per-sample labels.
    """
    if noise < 0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    if not turns > 0:
        raise ValueError(f"turns must be positive, got {turns}")
    rng = np.random.default_rng(seed)
    t = rng.random(N)
    angle = 2.0 * np.pi * turns * t
    X = np.column_stack([t * np.cos(angle), t * np.sin(angle)])
    Y = np.column_stack([t, rng.standard_normal(N)])
    X = X + noise * rng.standard_normal(X.shape)
    Y = Y + noise * rng.standard_normal(Y.shape)
    return PairedDataset(X=X, Y=Y, labels=t.reshape(-1, 1))


def gen_identical_views(N, D, seed=0):
    """Both views are the same standard Gaussian sample (trivial-case oracle)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, D))
    return PairedDataset(X=X, Y=X.copy())
