"""File formats and synthetic dataset generators.

Matrices travel either as comma-separated text (17 significant digits, so
float64 round-trips exactly) or as the NCM1 binary block: magic ``NCM1``,
u32 version 1, u64 rows, u64 cols, then row-major little-endian float64.
Text is read by ``numpy.loadtxt`` and written by ``numpy.savetxt``: blank
lines are skipped, a ``#`` starts a comment anywhere on a line, a leading
UTF-8 byte-order mark is dropped, a file with no rows is a 0 x 0 matrix, and
a parse error names the file and its line.

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

``_LAYOUTS`` lists each model kind's sections in file order, with one letter
per dimension of each section's shape, or a digit for a fixed size.  Saving
and loading both walk it.  A letter takes its size from the first section
that has it, and a later section that disagrees is refused, naming both.
Unknown sections are ignored.  A view's ``pca_*_mean``/``pca_*_basis`` pair
is written only for a reduced view; the basis is required when the mean is
present and ignored without it.

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
from dataclasses import dataclass, fields

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
    # "utf-8-sig" drops the byte-order mark that spreadsheet exports start with.
    with open(path, "r", encoding="utf-8-sig") as f, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            M = np.loadtxt((line.lstrip() for line in f), delimiter=",", ndmin=2)
        except ValueError as exc:
            message = str(exc).partition("; use `usecols`")[0]  # an option read_matrix lacks
            raise FormatError(f"{path}: {_at_file_line(path, message)}") from None
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
    with open(path, "r", encoding="utf-8-sig", errors="replace") as f:
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

# Method id: model class and its sections as (name, payload kind, dimensions);
# see the module docstring.  Letters: n training rows, x and y the view widths
# a model works in, r and s those widths before PCA, l components and m
# singular pairs.  A dense section of one row holds a vector.  A digit is its
# own size: load_model starts its letter sizes from ``_FIXED``.
_FIXED = {digit: (int(digit), None) for digit in "0123456789"}
_LAYOUTS = {
    1: (CcaModel, [
        ("mean_x", _DENSE, "1x"), ("mean_y", _DENSE, "1y"), ("w1", _DENSE, "xl"),
        ("w2", _DENSE, "yl"), ("correlations", _SCALARS, "l"), ("ridge", _SCALARS, "2"),
    ]),
    2: (PlccaModel, [
        ("mean_x", _DENSE, "1x"), ("whitener", _DENSE, "xx"), ("u", _DENSE, "xl"),
        ("d", _SCALARS, "l"), ("xhat_mean", _DENSE, "1x"), ("ridge", _SCALARS, "1"),
        ("hy", _DENSE, "nl"), ("train_y", _DENSE, "ny"), ("y_affinity", _SCALARS, "2"),
        ("pca_x_mean", _DENSE, "1r"), ("pca_x_basis", _DENSE, "rx"),
        ("pca_y_mean", _DENSE, "1s"), ("pca_y_basis", _DENSE, "sy"),
    ]),
    3: (NccaModel, [
        ("train_x", _DENSE, "nx"), ("hx", _DENSE, "nl"), ("sigmas", _SCALARS, "m"),
        ("f", _DENSE, "nm"), ("g", _DENSE, "nm"), ("config", _SCALARS, "2"), ("svd", _STRING, ""),
        ("affinity_x", _SCALARS, "2"), ("affinity_y", _SCALARS, "2"),
        ("pca_x_mean", _DENSE, "1r"), ("pca_x_basis", _DENSE, "rx"),
        ("train_y", _DENSE, "ny"), ("hy", _DENSE, "nl"),
        ("pca_y_mean", _DENSE, "1s"), ("pca_y_basis", _DENSE, "sy"),
    ]),
}


def _section(name, kind, *parts):
    encoded = name.encode("utf-8")
    return [struct.pack("<I", len(encoded)) + encoded + struct.pack("<B", kind), *parts]


def _sec_dense(name, arr):
    return _section(name, _DENSE, *_matrix_parts(np.atleast_2d(arr)))


def _sec_scalars(name, values):
    values = np.asarray(values, dtype="<f8").ravel()
    return _section(name, _SCALARS, struct.pack("<I", values.size), values)


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


def _check_positive(path, name, values):
    """Refuse the file unless every entry of a divisor section is positive and finite."""
    if not np.all((values > 0) & (values < np.inf)):
        raise FormatError(f"{path}: section {name!r} must hold positive finite values")


def _affinity_to_scalars(cfg: AffinityConfig):
    return [cfg.sigma, float(cfg.k)]


def save_model(path, model):
    """Serialize a fitted model to an NCCM container file.

    Each section's header bytes and arrays are written straight to the
    file, without assembling the container in memory first.
    """
    for method, (cls, layout) in _LAYOUTS.items():
        if isinstance(model, cls):
            break
    else:
        raise ValueError(f"cannot serialize object of type {type(model).__name__}")
    state = {name.lower(): value for name, value in vars(model).items()}
    if "ridge_x" in state:  # linear CCA keeps both views' ridges in one section
        state["ridge"] = [state["ridge_x"], state["ridge_y"]]
    if "config" in state:
        cfg = state["config"]
        state.update(config=[float(cfg.L), float(cfg.seed)], svd=cfg.svd,
                     affinity_x=cfg.affinity_x, affinity_y=cfg.affinity_y)
    for view in "xy":
        pca = state.get(f"pca_{view}") or (None, None)
        state[f"pca_{view}_mean"], state[f"pca_{view}_basis"] = pca
    write = {_DENSE: _sec_dense, _SCALARS: _sec_scalars, _STRING: _sec_string}
    sections = []
    for name, kind, _ in layout:
        value = state[name]
        if isinstance(value, AffinityConfig):
            value = _affinity_to_scalars(value)
        if value is not None:  # None: the view has no PCA map
            sections.append(write[kind](name, value))
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
    if method not in _LAYOUTS:
        raise FormatError(f"{path}: unknown model method id {method}")
    cls, layout = _LAYOUTS[method]

    # Projection indexes the maps by training-point rows and components: a
    # mismatch would surface there as an IndexError or a silently broadcast result.
    sizes, values = dict(_FIXED), {}  # each letter's (size, first section); each value
    for name, kind, dims in layout:
        if name.startswith("pca_") and name[:6] + "mean" not in sections:
            continue  # the view was not reduced: a lone basis is ignored
        if name not in sections:
            raise FormatError(f"model file {path} is missing required section {name!r}")
        found, value = sections[name]
        if found != kind:
            raise FormatError(f"{path}: section {name!r} must be {_KIND_NAMES[kind]}")
        for axis, letter in enumerate(dims):
            size = value.shape[axis]
            want, first = sizes.setdefault(letter, (size, name))
            if size != want:
                raise FormatError(
                    f"{path}: section {name!r} is {value.shape}; its axis {axis} must be {want}"
                    + (f" to agree with section {first!r}" if first else "")
                )
        values[name] = value.ravel() if kind == _DENSE and dims[0] == "1" else value

    for name in ("d", "sigmas"):
        if name in values:
            _check_positive(path, name, values[name])
    for name in ("y_affinity", "affinity_x", "affinity_y"):
        if name in values:
            (n, _), (sigma, k) = sizes["n"], values[name]
            if not (0 < sigma < np.inf and 1 <= k <= n and k == int(k)):
                raise FormatError(
                    f"{path}: {name!r} needs a finite sigma > 0 and an integer k in 1..{n}"
                )
            values[name] = AffinityConfig(sigma=float(sigma), k=int(k))
    if "config" in values:
        (L, seed), width = values.pop("config"), sizes["m"][0]
        if sizes["l"][0] != width - 1:
            raise FormatError(f"{path}: sections 'hx' and 'hy' must have one column fewer "
                              f"than 'sigmas' has entries ({width - 1})")
        # L and the seed become ints: an infinite slot would raise OverflowError there.
        if not (L == width - 1 and seed >= 0 and seed.is_integer()):
            raise FormatError(f"{path}: 'config' needs L = {width - 1} and an integer seed >= 0")
        values["config"] = NccaConfig(
            L=int(L), affinity_x=values.pop("affinity_x"), affinity_y=values.pop("affinity_y"),
            seed=int(seed), svd=values.pop("svd"),
        )
    names = {field.name.lower(): field.name for field in fields(cls)}
    if "ridge" in values:
        ridge = values.pop("ridge").tolist()
        values.update(zip(("ridge_x", "ridge_y") if "ridge_x" in names else ("ridge",), ridge))
    for view in "xy":
        if f"pca_{view}" in names:
            mean = values.pop(f"pca_{view}_mean", None)
            basis = values.pop(f"pca_{view}_basis", None)
            values[f"pca_{view}"] = None if mean is None else (mean, basis)
    return cls(**{names[name]: value for name, value in values.items()})


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
