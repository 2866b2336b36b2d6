"""File formats (matrix + model container) and synthetic generators."""

import io
import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcca.dataio
from mvcca.affinity import AffinityConfig
from mvcca.cca import CcaModel, cca_fit, cca_project
from mvcca.dataio import (
    FormatError,
    gen_gaussian_pair,
    gen_identical_views,
    gen_spiral_pair,
    load_model,
    read_matrix,
    save_model,
    write_matrix,
)
from mvcca.metrics import pearson
from mvcca.ncca import (
    ConstantComponentWarning,
    NccaConfig,
    NccaModel,
    ncca_fit,
    ncca_project_train,
    ncca_project_x,
    ncca_project_y,
)
from mvcca.plcca import plcca_fit, plcca_linear_oracle, plcca_project_x, plcca_project_y


class TestMatrixFiles:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((100, 7))
        path = tmp_path / "m.ncm"
        write_matrix(path, M)
        back = read_matrix(path)
        assert np.array_equal(back, M)
        # a second write produces identical bytes
        path2 = tmp_path / "m2.ncm"
        write_matrix(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_text_parse(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment\n1,2  # trailing note\n\n \t \n3,4\n  # indented\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_text_round_trip_17_digits(self, tmp_path):
        M = np.array([[np.pi, np.sqrt(2.0)], [1.0 / 3.0, np.e]])
        path = tmp_path / "m.txt"
        write_matrix(path, M, format="text")
        assert np.array_equal(read_matrix(path, format="text"), M)

    def test_auto_detection(self, tmp_path):
        M = np.array([[1.5, -2.5]])
        b, t = tmp_path / "m.ncm", tmp_path / "m.txt"
        write_matrix(b, M, format="binary")
        write_matrix(t, M, format="text")
        assert np.array_equal(read_matrix(b), read_matrix(t))

    def test_zero_row_binary(self, tmp_path):
        path = tmp_path / "empty.ncm"
        write_matrix(path, np.zeros((0, 3)))
        back = read_matrix(path)
        assert back.shape == (0, 3)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            read_matrix(path)

    def test_unparseable_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,zebra\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            read_matrix(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1,\xff\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            read_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,nan\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    @pytest.mark.parametrize("M", [
        np.random.default_rng(4).standard_normal((6, 3)),
        np.array([[1e300, -1e300], [-1e-300, 1e-300]]),
        np.array([[5e-324, -2.2250738585072014e-308, 1e-310]]),
        np.array([[-0.0, 0.0], [-0.0, 1.0]]),
        np.array([[1.0, -2.0, 3.0], [1e16, 2.0**53 + 2, -7.0]]),
        np.zeros((0, 4)),
    ], ids=["gaussian", "huge", "subnormal", "negative-zero", "integers", "no-rows"])
    def test_text_is_17_digit_rows(self, tmp_path, M):
        path = tmp_path / "m.txt.gz"  # the name does not compress the text
        write_matrix(path, M, format="text")
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in M)
        assert path.read_bytes() == expected.encode("ascii")
        back = read_matrix(path)
        assert back.shape == (M.shape if M.size else (0, 0))
        if M.size:
            assert np.array_equal(back, M) and np.array_equal(np.signbit(back), np.signbit(M))

    @pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n\n"])
    def test_text_without_rows_is_zero_by_zero(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_matrix(path)
        assert back.shape == (0, 0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ncm"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_matrix(path, format="binary")

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ncm"
        path.write_bytes(b"NCM1" + struct.pack("<IQQ", 2, 1, 1) + struct.pack("<d", 0.0))
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.ncm"
        write_matrix(path, np.ones((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            read_matrix(path)


class _BoundedReads(io.BufferedReader):
    """A binary file that fails any read asking for more bytes than are left."""

    def read(self, n=-1):
        left = os.fstat(self.fileno()).st_size - self.tell()
        assert 0 <= n <= left, f"read of {n} bytes with {left} left"
        return super().read(n)

    def readinto(self, b):
        left = os.fstat(self.fileno()).st_size - self.tell()
        n = memoryview(b).nbytes
        assert n <= left, f"read of {n} bytes with {left} left"
        return super().readinto(b)


def _section(name, kind, payload):
    return struct.pack("<I", len(name)) + name + struct.pack("<B", kind) + payload


class TestDeclaredSizes:
    """Sizes declared in a header are checked against the file before any read."""

    @pytest.fixture(autouse=True)
    def bounded_reads(self, monkeypatch):
        def bounded_open(path, mode="r", *args, **kwargs):
            if mode != "rb":
                return open(path, mode, *args, **kwargs)
            return _BoundedReads(io.FileIO(path, "r"))

        monkeypatch.setattr(mvcca.dataio, "open", bounded_open, raising=False)

    def test_matrix_header_declaring_2_30_values(self, tmp_path):
        path = tmp_path / "huge.ncm"
        path.write_bytes(b"NCM1" + struct.pack("<IQQ", 1, 2**15, 2**15))
        assert path.stat().st_size == 24
        with pytest.raises(FormatError, match="declared"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "section, message",
        [
            (_section(b"f", 0, b"NCM1" + struct.pack("<IQQ", 1, 2**20, 2**20)), "declared"),
            # The retired sparse CSR kind is refused before its sizes are read.
            (_section(b"wy", 1, struct.pack("<QQQ", 2**40, 1, 0)), "unknown section kind 1"),
            (
                _section(b"wy", 1, struct.pack("<QQQ", 1, 1, 2**30) + struct.pack("<QQ", 0, 2**30)),
                "unknown section kind 1",
            ),
            (_section(b"sigmas", 2, struct.pack("<I", 2**32 - 1)), "declared"),
            (_section(b"svd", 3, struct.pack("<I", 2**32 - 1)), "declared"),
            (struct.pack("<I", 2**32 - 1) + b"name", "declared"),
        ],
        ids=["dense", "csr-offsets", "csr-entries", "scalars", "string", "name"],
    )
    def test_model_section_declaring_too_much(self, tmp_path, section, message):
        path = tmp_path / "huge.nccm"
        path.write_bytes(b"NCCM" + struct.pack("<IBI", 1, 3, 1) + section)
        with pytest.raises(FormatError, match=message):
            load_model(path)

    def test_valid_files_still_load(self, tmp_path):
        write_matrix(tmp_path / "m.ncm", np.eye(3))
        np.testing.assert_array_equal(read_matrix(tmp_path / "m.ncm"), np.eye(3))
        save_model(tmp_path / "m.nccm", cca_fit(*_tiny_pair(), 1))
        assert load_model(tmp_path / "m.nccm").W1.shape[1] == 1


def _ncm1(M):
    M = np.asarray(M, dtype=float)
    return b"NCM1" + struct.pack("<IQQ", 1, *M.shape) + struct.pack(f"<{M.size}d", *M.ravel())


class TestModelBytes:
    """The writer's output against the documented layout, built by hand."""

    @pytest.mark.parametrize("dim", [1, 0], ids=["one-pair", "zero-size"])
    def test_cca_model_bytes(self, tmp_path, dim):
        W1 = np.arange(2 * dim, dtype=float).reshape(2, dim) - 0.5
        W2 = np.full((1, dim), 3.0)
        corr = np.full(dim, 0.75)
        model = CcaModel(
            mean_x=np.array([1.5, -2.0]), mean_y=np.array([0.25]), W1=W1, W2=W2,
            correlations=corr, ridge_x=1e-3, ridge_y=2e-3,
        )
        expected = (
            b"NCCM" + struct.pack("<IBI", 1, 1, 6)
            + _section(b"mean_x", 0, _ncm1([[1.5, -2.0]]))
            + _section(b"mean_y", 0, _ncm1([[0.25]]))
            + _section(b"w1", 0, _ncm1(W1))
            + _section(b"w2", 0, _ncm1(W2))
            + _section(b"correlations", 2, struct.pack("<I", dim) + corr.astype("<f8").tobytes())
            + _section(b"ridge", 2, struct.pack("<Idd", 2, 1e-3, 2e-3))
        )
        path = tmp_path / "m.nccm"
        save_model(path, model)
        assert path.read_bytes() == expected
        back = load_model(path)
        for name in ("mean_x", "mean_y", "W1", "W2", "correlations"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
            assert getattr(back, name).shape == getattr(model, name).shape
        assert (back.ridge_x, back.ridge_y) == (1e-3, 2e-3)


class TestOverwrite:
    """Writers overwrite an existing file in place and cut it to the new length."""

    def _cca_model(self):
        ds = gen_gaussian_pair(300, [0.8, 0.4], seed=1)
        return cca_fit(ds.X, ds.Y, 2)

    def test_longer_file_cut_to_new_content(self, tmp_path):
        model = self._cca_model()
        M = np.arange(12.0).reshape(4, 3)
        fresh_model, fresh_matrix = tmp_path / "fresh.nccm", tmp_path / "fresh.ncm"
        save_model(fresh_model, model)
        write_matrix(fresh_matrix, M)
        for name, write, fresh in (
            ("m.nccm", lambda p: save_model(p, model), fresh_model),
            ("m.ncm", lambda p: write_matrix(p, M), fresh_matrix),
        ):
            path = tmp_path / name
            path.write_bytes(b"\xff" * 100_000)
            write(path)
            assert path.read_bytes() == fresh.read_bytes()
        back = load_model(tmp_path / "m.nccm")
        assert np.array_equal(back.W1, model.W1)
        assert np.array_equal(read_matrix(tmp_path / "m.ncm"), M)

    def test_existing_file_never_opened_for_truncation(self, tmp_path, monkeypatch):
        path = tmp_path / "m.nccm"
        path.write_bytes(b"\xff" * 100_000)
        flags = []
        real_open = os.open

        def recording_open(p, f, *args, **kwargs):
            flags.append(f)
            return real_open(p, f, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        save_model(path, self._cca_model())
        write_matrix(path, np.ones((2, 2)))
        assert len(flags) == 2
        assert not any(f & os.O_TRUNC for f in flags)

    def test_non_regular_file_target(self):
        save_model(os.devnull, self._cca_model())
        write_matrix(os.devnull, np.ones((2, 2)))


class TestModelContainer:
    def test_cca_round_trip(self, tmp_path):
        ds = gen_gaussian_pair(300, [0.8, 0.4], seed=1)
        model = cca_fit(ds.X, ds.Y, 2)
        path = tmp_path / "m.nccm"
        save_model(path, model)
        back = load_model(path)
        held = gen_gaussian_pair(10, [0.8, 0.4], seed=2)
        assert np.array_equal(cca_project(back, 1, held.X), cca_project(model, 1, held.X))
        assert np.array_equal(cca_project(back, 2, held.Y), cca_project(model, 2, held.Y))

    def test_plcca_round_trip(self, tmp_path):
        ds = gen_gaussian_pair(200, [0.7, 0.3], seed=3)
        model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=20))
        path = tmp_path / "m.nccm"
        save_model(path, model)
        back = load_model(path)
        held = gen_gaussian_pair(10, [0.7, 0.3], seed=4)
        assert np.array_equal(plcca_project_x(back, held.X), plcca_project_x(model, held.X))
        assert np.array_equal(plcca_project_y(back, held.Y), plcca_project_y(model, held.Y))

    def test_plcca_linear_oracle_saved_as_cca(self, tmp_path):
        # The linear-predictor reduction is a linear CCA model, saved and loaded as one.
        ds = gen_gaussian_pair(200, [0.6, 0.3], seed=5)
        model = plcca_linear_oracle(ds.X, ds.Y, 2)
        path = tmp_path / "m.nccm"
        save_model(path, model)
        back = load_model(path)
        assert isinstance(back, CcaModel)
        held = gen_gaussian_pair(10, [0.6, 0.3], seed=6)
        for view, data in ((1, held.X), (2, held.Y)):
            assert np.array_equal(cca_project(back, view, data), cca_project(model, view, data))
            assert np.array_equal(cca_project(back, view, data[0]), cca_project(model, view, data[0]))

    def test_plcca_predictor_section_ignored(self, tmp_path):
        # Earlier releases wrote a "predictor" string section (always "nw") after
        # "ridge"; such a file loads as the current layout does.
        ds = gen_gaussian_pair(200, [0.7, 0.3], seed=3)
        model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=20))
        path, old = tmp_path / "m.nccm", tmp_path / "old.nccm"
        save_model(path, model)
        data = path.read_bytes()
        ridge = _section(b"ridge", 2, struct.pack("<Id", 1, model.ridge))
        cut = data.index(ridge) + len(ridge)
        (count,) = struct.unpack("<I", data[9:13])
        old.write_bytes(
            data[:9] + struct.pack("<I", count + 1) + data[13:cut]
            + _section(b"predictor", 3, struct.pack("<I", 2) + b"nw") + data[cut:]
        )
        assert len(old.read_bytes()) == len(data) + 20
        new, legacy = load_model(path), load_model(old)
        held = gen_gaussian_pair(10, [0.7, 0.3], seed=4)
        for project, queries in ((plcca_project_x, held.X), (plcca_project_y, held.Y)):
            for q in (queries, queries[0]):
                assert np.array_equal(project(legacy, q), project(new, q))

    def test_ncca_round_trip_with_pca(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = gen_spiral_pair(150, seed=7)
        X = np.hstack([ds.X, 0.01 * rng.standard_normal((150, 3))])
        cfg = NccaConfig(L=1, affinity_x=AffinityConfig(k=10), affinity_y=AffinityConfig(k=10),
                         pca_x=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantComponentWarning)
            model = ncca_fit(X, ds.Y, cfg)
        path = tmp_path / "m.nccm"
        save_model(path, model)
        back = load_model(path)
        held = gen_spiral_pair(10, seed=8)
        held_X = np.hstack([held.X, 0.01 * rng.standard_normal((10, 3))])
        assert np.array_equal(ncca_project_x(back, held_X), ncca_project_x(model, held_X))
        assert np.array_equal(ncca_project_y(back, held.Y), ncca_project_y(model, held.Y))
        names = _section_names(path)
        assert {"hx", "hy"} <= names and not names & {"wx", "wy"}

    def test_pre_change_ncca_file_rejected(self, tmp_path):
        # As written before the Nystrom maps: Wy as a sparse CSR section (kind 1)
        # of rows, cols, nnz, row offsets, column indices and values.
        csr = struct.pack("<QQQQQQd", 1, 1, 1, 0, 1, 0, 1.0)
        path = tmp_path / "old.nccm"
        path.write_bytes(
            b"NCCM" + struct.pack("<IBI", 1, 3, 2)
            + _section(b"train_x", 0, _ncm1([[0.0, 1.0]])) + _section(b"wy", 1, csr)
        )
        with pytest.raises(FormatError, match="unknown section kind 1"):
            load_model(path)

    def test_pre_change_plcca_file_rejected(self, tmp_path, monkeypatch):
        # As written before the view-2 map: the training X as `train_x`, no `hy`.
        ds = gen_gaussian_pair(50, [0.5], seed=9)
        model = plcca_fit(ds.X, ds.Y, 1, AffinityConfig(k=10))
        write = mvcca.dataio._sec_dense
        monkeypatch.setattr(mvcca.dataio, "_sec_dense", lambda name, arr: (
            write("train_x", ds.X) if name == "hy" else write(name, arr)))
        path = tmp_path / "old.nccm"
        save_model(path, model)
        monkeypatch.undo()
        assert "train_x" in _section_names(path)
        with pytest.raises(FormatError, match="missing required section 'hy'"):
            load_model(path)

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "m.nccm"
        save_model(path, cca_fit(*_tiny_pair(), 1))
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.nccm"
        save_model(path, cca_fit(*_tiny_pair(), 1))
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.nccm"
        save_model(path, cca_fit(*_tiny_pair(), 1))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(FormatError):
            load_model(path)

    def test_schema_violation_rejected(self, tmp_path):
        # Flip the method byte: the sections no longer match the schema.
        path = tmp_path / "m.nccm"
        save_model(path, cca_fit(*_tiny_pair(), 1))
        data = bytearray(path.read_bytes())
        data[8] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("method, section", [
        ("cca", "ridge"), ("plcca", "ridge"), ("plcca", "y_affinity"),
        ("ncca", "config"), ("ncca", "affinity_x"), ("ncca", "affinity_y"),
    ])
    def test_short_scalar_section_rejected(self, tmp_path, monkeypatch, method, section):
        # Scalars read by index: one value short would raise IndexError or unpack badly.
        model = _small_model(method)
        write = mvcca.dataio._sec_scalars
        monkeypatch.setattr(mvcca.dataio, "_sec_scalars", lambda name, values: write(
            name, np.ravel(values)[:-1] if name == section else values))
        path = tmp_path / "m.nccm"
        save_model(path, model)
        monkeypatch.undo()
        with pytest.raises(FormatError, match=section):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("sigma", np.nan), ("sigma", -2.0), ("sigma", np.inf), ("sigma", 0.0), ("k", 0),
        ("k", 2.5), ("k", 151), ("k", np.nan), ("sigma", -1.0),
    ])
    @pytest.mark.parametrize("view", ["affinity_x", "affinity_y"])
    def test_bad_affinity_scalars_rejected(self, tmp_path, view, field, value):
        model = _small_model("ncca")
        setattr(getattr(model.config, view), field, value)
        path = tmp_path / "m.nccm"
        save_model(path, model)
        with pytest.raises(FormatError, match=view):
            load_model(path)

    @pytest.mark.parametrize("kind, field, cut, match", [
        ("cca", "mean_x", np.s_[:1], "mean_x"),
        ("cca", "mean_y", np.s_[:2], "mean_y"),
        ("cca", "W2", np.s_[:, :1], "w2"),
        ("cca", "correlations", np.s_[:1], "correlations"),
        ("plcca", "D", np.s_[:1], "'d'"),
        ("plcca", "U", np.s_[:1], "'u'"),
        ("plcca", "whitener", np.s_[:, :1], "whitener"),
        ("plcca", "xhat_mean", np.s_[:1], "xhat_mean"),
        ("plcca", "Hy", np.s_[:, :1], "hy"),
        ("plcca", "Hy", np.s_[:40], "hy"),
        ("plcca", "pca_x", (np.s_[:1], np.s_[:]), "pca_x_mean"),
        ("plcca", "pca_y", (np.s_[:], np.s_[:, :1]), "pca_y_basis"),
        ("ncca", "pca_x", (np.s_[:1], np.s_[:]), "pca_x_mean"),
        ("ncca", "pca_y", (np.s_[:], np.s_[:, :1]), "pca_y_basis"),
    ], ids=lambda v: v.strip("'") if isinstance(v, str) else "cut")
    def test_inconsistent_sections_rejected(self, tmp_path, kind, field, cut, match):
        # Each of these would otherwise load and broadcast, or fail only at projection.
        model = _wide_model(kind)
        value = getattr(model, field)
        if isinstance(value, tuple):  # a (mean, basis) PCA map
            setattr(model, field, tuple(part[c] for part, c in zip(value, cut)))
        else:
            setattr(model, field, value[cut])
        path = tmp_path / "m.nccm"
        save_model(path, model)
        with pytest.raises(FormatError, match=match):
            load_model(path)

    def test_plcca_k_above_training_size_stored_clamped(self, tmp_path):
        # nw_regress uses min(k, N) neighbors; the model stores that k, so it reloads.
        ds = gen_gaussian_pair(50, [0.5], seed=9)
        model = plcca_fit(ds.X, ds.Y, 1, AffinityConfig(k=80))
        assert model.y_affinity.k == 50
        path = tmp_path / "m.nccm"
        save_model(path, model)
        held = gen_gaussian_pair(10, [0.5], seed=6)
        assert np.array_equal(plcca_project_y(load_model(path), held.Y),
                              plcca_project_y(model, held.Y))


@pytest.fixture(scope="module")
def hostile_models(tmp_path_factory):
    """Queries, a scratch directory, and each model kind's method id and saved sections."""
    base = tmp_path_factory.mktemp("hostile")
    models = {}
    for kind in ("cca", "plcca", "ncca"):
        path = base / f"{kind}.nccm"
        save_model(path, _wide_model(kind))
        with open(path, "rb") as f:
            method, count = struct.unpack("<BI", f.read(13)[8:])
            models[kind] = method, mvcca.dataio._read_sections(f, count, path)
    return gen_gaussian_pair(5, [0.8, 0.5, 0.3], seed=11), base, models


def _project_both(model, X, Y):
    if isinstance(model, CcaModel):
        return cca_project(model, 1, X), cca_project(model, 2, Y)
    if isinstance(model, NccaModel):
        return ncca_project_x(model, X), ncca_project_y(model, Y)
    return plcca_project_x(model, X), plcca_project_y(model, Y)


class TestHostileFiles:
    """One rewritten section: the model loads and projects finite values, or is refused."""

    # The whole space (3 models, every matrix or scalar section, each cut, kind
    # swap and hostile scalar) is under 900 files: the run enumerates it.
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rewritten_section_projects_or_is_refused(self, hostile_models, data):
        queries, base, models = hostile_models
        method, sections = models[data.draw(st.sampled_from(sorted(models)), label="model")]
        name = data.draw(st.sampled_from(sorted(n for n, (k, _) in sections.items() if k != 3)),
                         label="section")
        kind, value = sections[name]
        change = data.draw(st.sampled_from(["cut", "kind"] + ["set"] * (kind == 2)), label="change")
        if change == "kind":  # dense as a scalar list, or scalars as a 1-row matrix
            kind, value = (2, value.ravel()) if kind == 0 else (0, np.atleast_2d(value))
        elif kind == 0:  # cut rows or columns
            axis = data.draw(st.integers(0, 1), label="axis")
            keep = data.draw(st.integers(0, value.shape[axis] - 1), label="keep")
            value = value[:keep] if axis == 0 else value[:, :keep]
        elif change == "cut":
            value = value[: data.draw(st.integers(0, value.size - 1), label="keep")]
        else:
            value = value.copy()
            value[data.draw(st.integers(0, value.size - 1), label="slot")] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 2.0**40]), label="value")
        rewritten = dict(sections)
        rewritten[name] = kind, value
        writers = {0: mvcca.dataio._sec_dense, 2: mvcca.dataio._sec_scalars,
                   3: mvcca.dataio._sec_string}
        parts = [b"NCCM" + struct.pack("<IBI", 1, method, len(rewritten))]
        for key, (k, v) in rewritten.items():
            parts += writers[k](key, v)
        path = base / "rewritten.nccm"
        mvcca.dataio._write_file(path, parts)
        try:
            outputs = _project_both(load_model(path), queries.X, queries.Y)
        except ValueError:  # FormatError included
            return
        assert all(np.all(np.isfinite(P)) for P in outputs)


def _section_names(path):
    with open(path, "rb") as f:
        (count,) = struct.unpack("<I", f.read(13)[9:])
        return set(mvcca.dataio._read_sections(f, count, path))


def _tiny_pair():
    ds = gen_gaussian_pair(50, [0.5], seed=9)
    return ds.X, ds.Y


def _small_model(method):
    if method == "cca":
        return cca_fit(*_tiny_pair(), 1)
    if method == "plcca":
        return plcca_fit(*_tiny_pair(), 1, AffinityConfig(k=10))
    ds = gen_spiral_pair(150, seed=7)
    cfg = NccaConfig(L=1, affinity_x=AffinityConfig(k=10), affinity_y=AffinityConfig(k=10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantComponentWarning)
        return ncca_fit(ds.X, ds.Y, cfg)


def _wide_model(kind):
    """A two-component model of 3-column views, with both PCA maps where the method has them."""
    ds = gen_gaussian_pair(80, [0.8, 0.5, 0.3], seed=10)
    if kind == "cca":
        return cca_fit(ds.X, ds.Y, 2)
    if kind == "plcca":
        return plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=10), pca_x=2, pca_y=2)
    cfg = NccaConfig(L=1, affinity_x=AffinityConfig(k=10), affinity_y=AffinityConfig(k=10),
                     pca_x=2, pca_y=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantComponentWarning)
        return ncca_fit(ds.X, ds.Y, cfg)


class TestGenerators:
    def test_gaussian_zero_rho_cross_covariance(self):
        ds = gen_gaussian_pair(20000, [0.0, 0.0, 0.0], seed=10)
        C = ds.X.T @ ds.Y / 20000
        assert np.abs(C).max() <= 0.03  # CLT scale 3/sqrt(N)

    def test_gaussian_marginals_standard(self):
        ds = gen_gaussian_pair(20000, [0.9, 0.2], seed=11)
        for V in (ds.X, ds.Y):
            np.testing.assert_allclose(V.mean(axis=0), 0.0, atol=0.05)
            np.testing.assert_allclose(V.std(axis=0), 1.0, atol=0.05)
        np.testing.assert_allclose(
            np.diag(ds.X.T @ ds.Y / 20000), [0.9, 0.2], atol=0.03
        )

    def test_gaussian_seed_reproducible(self):
        a = gen_gaussian_pair(100, [0.5], seed=12)
        b = gen_gaussian_pair(100, [0.5], seed=12)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_gaussian_invalid_rho(self):
        with pytest.raises(ValueError):
            gen_gaussian_pair(10, [1.2])
        with pytest.raises(ValueError):
            gen_gaussian_pair(10, [-0.1])

    def test_spiral_noise_free_points_on_curve(self):
        ds = gen_spiral_pair(500, noise=0.0, turns=1.5, seed=13)
        t = ds.labels.ravel()
        angle = 2 * np.pi * 1.5 * t
        expected = np.column_stack([t * np.cos(angle), t * np.sin(angle)])
        assert np.array_equal(ds.X, expected)
        assert np.array_equal(ds.Y[:, 0], t)

    def test_spiral_seed_reproducible(self):
        a = gen_spiral_pair(80, seed=14)
        b = gen_spiral_pair(80, seed=14)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.labels, b.labels)

    def test_spiral_invalid_params(self):
        with pytest.raises(ValueError):
            gen_spiral_pair(10, noise=-0.1)
        with pytest.raises(ValueError):
            gen_spiral_pair(10, turns=0.0)

    def test_identical_views_equal(self):
        ds = gen_identical_views(200, 4, seed=15)
        assert np.array_equal(ds.X, ds.Y)
        model = cca_fit(ds.X, ds.Y, 4, ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-6)

    def test_identical_views_ncca_projection_correlation(self):
        ds = gen_identical_views(500, 5, seed=16)
        cfg = NccaConfig(L=2, affinity_x=AffinityConfig(k=15, fraction=0.1),
                         affinity_y=AffinityConfig(k=15, fraction=0.1), svd="dense")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstantComponentWarning)
            model = ncca_fit(ds.X, ds.Y, cfg)
        F, G = ncca_project_train(model)
        for i in range(2):
            assert abs(pearson(F[:, i], G[:, i])) >= 0.99
