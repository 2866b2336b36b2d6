"""Command-line interface: commands, manifests, exit codes."""

import importlib.util
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import mvcca.cli
import mvcca.dataio
from mvcca.affinity import AffinityConfig
from mvcca.cca import cca_fit
from mvcca.cli import main
from mvcca.dataio import gen_gaussian_pair, read_matrix, save_model, write_matrix
from mvcca.ncca import NccaConfig, ncca_fit
from mvcca.plcca import plcca_fit


def run(*argv):
    return main(list(argv))


def read_manifest(path):
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


@pytest.fixture(scope="module")
def spiral_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("spiral")
    assert run("synth", "--kind", "spiral", "--n", "300", "--seed", "7", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def ncca_model(tmp_path_factory, spiral_dir):
    out = tmp_path_factory.mktemp("model")
    model = out / "m.nccm"
    rc = run(
        "train", "--method", "ncca",
        "--x", str(spiral_dir / "x.ncm"), "--y", str(spiral_dir / "y.ncm"),
        "--dim", "1", "--knn", "300", "--model", str(model),
    )
    assert rc == 0
    return model


class TestSynth:
    def test_spiral_files_and_manifest(self, spiral_dir):
        for name in ("x.ncm", "y.ncm", "labels.ncm", "manifest.txt"):
            assert (spiral_dir / name).exists()
        manifest = read_manifest(spiral_dir / "manifest.txt")
        assert manifest["command"] == "synth"
        assert manifest["seed"] == "7"
        assert read_matrix(spiral_dir / "x.ncm").shape == (300, 2)

    def test_rerun_bit_identical(self, spiral_dir, tmp_path):
        assert run("synth", "--kind", "spiral", "--n", "300", "--seed", "7",
                   "--out", str(tmp_path)) == 0
        for name in ("x.ncm", "y.ncm", "labels.ncm"):
            assert (tmp_path / name).read_bytes() == (spiral_dir / name).read_bytes()

    def test_gaussian_three_columns(self, tmp_path):
        assert run("synth", "--kind", "gaussian", "--n", "50", "--seed", "1",
                   "--out", str(tmp_path), "--rho", "0.9,0.5,0.1") == 0
        assert read_matrix(tmp_path / "x.ncm").shape == (50, 3)
        assert read_matrix(tmp_path / "y.ncm").shape == (50, 3)

    def test_invalid_rho_usage_error(self, tmp_path, capsys):
        rc = run("synth", "--kind", "gaussian", "--n", "10", "--out", str(tmp_path),
                 "--rho", "1.2")
        assert rc == 1
        assert "rho" in capsys.readouterr().err

    def test_missing_rho_usage_error(self, tmp_path):
        assert run("synth", "--kind", "gaussian", "--n", "10", "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("message, shown", [
        (("Unable to allocate 745. GiB",), "Unable to allocate 745. GiB"),
        ((), "MemoryError"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_data_error(self, tmp_path, monkeypatch, capsys, message, shown):
        # Stands in for a --n too large to allocate; no test allocates for real.
        def fail(*args, **kwargs):
            raise MemoryError(*message)

        monkeypatch.setattr(mvcca.cli, "gen_spiral_pair", fail)
        assert run("synth", "--kind", "spiral", "--n", "100000000000",
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {shown}\n" and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_ncca_manifest_reports_sigma1(self, ncca_model):
        manifest = read_manifest(ncca_model.parent / (ncca_model.name + ".manifest"))
        assert manifest["method"] == "ncca"
        assert abs(float(manifest["sigma1"]) - 1.0) == pytest.approx(
            float(manifest["sigma1_deviation"]), abs=1e-12
        )
        assert float(manifest["search_seconds"]) >= 0.0
        assert float(manifest["optimize_seconds"]) >= 0.0

    def test_cca_identical_views_reports_unit_correlation(self, tmp_path):
        assert run("synth", "--kind", "identical", "--n", "120", "--seed", "2",
                   "--out", str(tmp_path)) == 0
        model = tmp_path / "cca.nccm"
        rc = run("train", "--method", "cca", "--x", str(tmp_path / "x.ncm"),
                 "--y", str(tmp_path / "y.ncm"), "--dim", "2", "--ridge", "0",
                 "--model", str(model))
        assert rc == 0
        manifest = read_manifest(tmp_path / "cca.nccm.manifest")
        correlations = [float(v) for v in manifest["correlations"].split(",")]
        np.testing.assert_allclose(correlations, 1.0, atol=1e-6)

    def test_plcca_dim_too_large_errors(self, spiral_dir, tmp_path, capsys):
        rc = run("train", "--method", "plcca", "--x", str(spiral_dir / "x.ncm"),
                 "--y", str(spiral_dir / "y.ncm"), "--dim", "5",
                 "--model", str(tmp_path / "m.nccm"))
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_inapplicable_flag_rejected(self, spiral_dir, tmp_path):
        rc = run("train", "--method", "cca", "--x", str(spiral_dir / "x.ncm"),
                 "--y", str(spiral_dir / "y.ncm"), "--dim", "1", "--knn", "5",
                 "--model", str(tmp_path / "m.nccm"))
        assert rc == 1

    def test_ncca_ridge_rejected(self, spiral_dir, tmp_path, capsys):
        rc = run("train", "--method", "ncca", "--x", str(spiral_dir / "x.ncm"),
                 "--y", str(spiral_dir / "y.ncm"), "--dim", "1", "--ridge", "0.1",
                 "--model", str(tmp_path / "m.nccm"))
        assert rc == 1
        assert capsys.readouterr().err == "error: --ridge does not apply to --method ncca\n"
        assert not any(tmp_path.iterdir())

    def test_missing_file_errors(self, tmp_path):
        rc = run("train", "--method", "cca", "--x", str(tmp_path / "missing.ncm"),
                 "--y", str(tmp_path / "missing.ncm"), "--dim", "1",
                 "--model", str(tmp_path / "m.nccm"))
        assert rc == 2

    def test_knn_above_sample_count(self, tmp_path, capsys):
        # NCCA refuses k > N as a data error; PLCCA regresses on min(k, N) neighbors.
        rng = np.random.default_rng(2)
        x, y = tmp_path / "x.ncm", tmp_path / "y.ncm"
        write_matrix(x, rng.standard_normal((50, 2)))
        write_matrix(y, rng.standard_normal((50, 2)))
        common = ("--x", str(x), "--y", str(y), "--dim", "1", "--knn", "80")
        ncca = tmp_path / "ncca.nccm"
        assert run("train", "--method", "ncca", *common, "--model", str(ncca)) == 2
        assert "k=80 exceeds the number of points 50" in capsys.readouterr().err
        assert not ncca.exists()
        plcca = tmp_path / "plcca.nccm"
        assert run("train", "--method", "plcca", *common, "--model", str(plcca)) == 0
        assert read_manifest(tmp_path / "plcca.nccm.manifest")["knn"] == "50"

    def test_pca_auto_flag(self, tmp_path):
        rng = np.random.default_rng(5)
        x, y = tmp_path / "x.ncm", tmp_path / "y.ncm"
        base = rng.standard_normal((200, 2))
        write_matrix(x, np.hstack([base, 0.01 * rng.standard_normal((200, 8))]))
        write_matrix(y, base + 0.05 * rng.standard_normal((200, 2)))
        model = tmp_path / "m.nccm"
        rc = run("train", "--method", "ncca", "--x", str(x), "--y", str(y),
                 "--dim", "1", "--knn", "10", "--pca-x", "auto", "--model", str(model))
        assert rc == 0
        from mvcca.dataio import load_model

        assert load_model(model).train_x.shape[1] == 2  # 20% of 10

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_retrain_bit_identical_model(self, spiral_dir, tmp_path):
        args = ("train", "--method", "ncca", "--x", str(spiral_dir / "x.ncm"),
                "--y", str(spiral_dir / "y.ncm"), "--dim", "1", "--knn", "10",
                "--seed", "4")
        a, b = tmp_path / "a.nccm", tmp_path / "b.nccm"
        assert run(*args, "--model", str(a)) == 0
        assert run(*args, "--model", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestProject:
    def test_training_points_match_stored_projections(self, spiral_dir, ncca_model, tmp_path):
        # k = N model: the out-of-sample path reproduces training projections.
        out = tmp_path / "p1.ncm"
        assert run("project", "--model", str(ncca_model), "--view", "1",
                   "--in", str(spiral_dir / "x.ncm"), "--out", str(out)) == 0
        from mvcca.dataio import load_model
        from mvcca.ncca import ncca_project_train

        F, _ = ncca_project_train(load_model(ncca_model))
        np.testing.assert_allclose(read_matrix(out), F, atol=1e-6)

    def test_zero_row_input(self, ncca_model, tmp_path):
        empty = tmp_path / "empty.ncm"
        write_matrix(empty, np.zeros((0, 2)))
        out = tmp_path / "out.ncm"
        assert run("project", "--model", str(ncca_model), "--view", "1",
                   "--in", str(empty), "--out", str(out)) == 0
        assert read_matrix(out).shape == (0, 1)

    def test_wrong_width_errors(self, ncca_model, tmp_path, capsys):
        bad = tmp_path / "bad.ncm"
        write_matrix(bad, np.zeros((3, 9)))
        rc = run("project", "--model", str(ncca_model), "--view", "1",
                 "--in", str(bad), "--out", str(tmp_path / "out.ncm"))
        assert rc == 2
        assert "columns" in capsys.readouterr().err

    def test_pre_change_ncca_model_format_error(self, spiral_dir, tmp_path, capsys):
        # An NCCA file as written before the Nystrom maps: its sparse CSR
        # section (kind 1) is no longer a known section kind.
        name = b"wy"
        csr = struct.pack("<QQQQQQd", 1, 1, 1, 0, 1, 0, 1.0)
        old = tmp_path / "old.nccm"
        old.write_bytes(b"NCCM" + struct.pack("<IBII", 1, 3, 1, len(name)) + name + b"\x01" + csr)
        rc = run("project", "--model", str(old), "--view", "1",
                 "--in", str(spiral_dir / "x.ncm"), "--out", str(tmp_path / "out.ncm"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("format error:") and "unknown section kind 1" in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize(
        "field, cut, view",
        [("Hx", np.s_[:50], 1), ("Hy", np.s_[:, :1], 2), ("F", np.s_[:, :2], 1)],
        ids=["short-hx", "narrow-hy", "wrong-f"],
    )
    def test_inconsistent_ncca_sections_format_error(self, spiral_dir, tmp_path, field, cut, view):
        X, Y = read_matrix(spiral_dir / "x.ncm"), read_matrix(spiral_dir / "y.ncm")
        model = ncca_fit(X, Y, NccaConfig(L=2))
        setattr(model, field, getattr(model, field)[cut])
        path = tmp_path / "bad.nccm"
        save_model(path, model)
        result = subprocess.run(
            [sys.executable, "-m", "mvcca.cli", "project", "--model", str(path),
             "--view", str(view), "--in", str(spiral_dir / ("x.ncm", "y.ncm")[view - 1]),
             "--out", str(tmp_path / "out.ncm")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("format error:") and "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", ["one-scalar-y-affinity", "k-above-n"])
    def test_bad_plcca_affinity_format_error(self, spiral_dir, tmp_path, monkeypatch, case):
        X, Y = read_matrix(spiral_dir / "x.ncm"), read_matrix(spiral_dir / "y.ncm")
        model = plcca_fit(X, Y, 1, AffinityConfig(k=15))
        if case == "k-above-n":
            model.y_affinity.k = 400  # 300 training rows
        else:
            monkeypatch.setattr(mvcca.dataio, "_affinity_to_scalars", lambda cfg: [15.0])
        path = tmp_path / "bad.nccm"
        save_model(path, model)
        result = subprocess.run(
            [sys.executable, "-m", "mvcca.cli", "project", "--model", str(path),
             "--view", "2", "--in", str(spiral_dir / "y.ncm"), "--out", str(tmp_path / "out.ncm")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("format error:") and "Traceback" not in result.stderr

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("method", ["ncca", "plcca"])
    def test_earlier_layout_format_error(self, spiral_dir, tmp_path, monkeypatch, method):
        # Earlier releases wrote an eight-slot NCCA config and [sigma, k, fraction,
        # mutual] affinities; such files are refused, not read with a second reader.
        X, Y = read_matrix(spiral_dir / "x.ncm"), read_matrix(spiral_dir / "y.ncm")
        model = ncca_fit(X, Y, NccaConfig(L=1)) if method == "ncca" else plcca_fit(X, Y, 1)
        write = mvcca.dataio._sec_scalars

        def earlier(name, values):
            if name == "config":
                values = [*values, 10.0, 2.0, 0.15, 1.0, 1e-9, -1.0]
            elif name in ("affinity_x", "affinity_y", "y_affinity"):
                values = [*values, 0.45, 0.0]
            return write(name, values)

        monkeypatch.setattr(mvcca.dataio, "_sec_scalars", earlier)
        path = tmp_path / "old.nccm"
        save_model(path, model)
        monkeypatch.undo()
        result = subprocess.run(
            [sys.executable, "-m", "mvcca.cli", "project", "--model", str(path),
             "--view", "2", "--in", str(spiral_dir / "y.ncm"), "--out", str(tmp_path / "out.ncm")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("format error:") and "Traceback" not in result.stderr

    @pytest.mark.parametrize("method", ["cca", "plcca"])
    def test_inconsistent_cca_plcca_sections_format_error(self, tmp_path, method):
        # A 1-entry mean_x against a 3-row w1, or a 1-entry d against a 2-column u,
        # would broadcast into a wrong projection with exit 0.
        ds = gen_gaussian_pair(80, [0.8, 0.5, 0.3], seed=10)
        write_matrix(tmp_path / "x.ncm", ds.X)
        write_matrix(tmp_path / "y.ncm", ds.Y)
        if method == "cca":
            model, view = cca_fit(ds.X, ds.Y, 2), 1
            model.mean_x = model.mean_x[:1]
        else:
            model, view = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=10)), 2
            model.D = model.D[:1]
        path = tmp_path / "bad.nccm"
        save_model(path, model)
        result = subprocess.run(
            [sys.executable, "-m", "mvcca.cli", "project", "--model", str(path),
             "--view", str(view), "--in", str(tmp_path / ("x.ncm", "y.ncm")[view - 1]),
             "--out", str(tmp_path / "out.ncm")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("format error:") and "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", ["w1-string", "hy-scalars", "pre-change-plcca"])
    def test_rewritten_section_format_error(self, tmp_path, monkeypatch, case):
        # A section of the wrong kind died with AttributeError and exit 1; a PLCCA
        # file from before the view-2 map holds the training X and no `hy`.
        ds = gen_gaussian_pair(80, [0.8, 0.5, 0.3], seed=10)
        write_matrix(tmp_path / "x.ncm", ds.X)
        write_matrix(tmp_path / "y.ncm", ds.Y)
        write = mvcca.dataio._sec_dense
        rewrite = {
            "w1-string": lambda arr: mvcca.dataio._sec_string("w1", "junk"),
            "hy-scalars": lambda arr: mvcca.dataio._sec_scalars("hy", arr),
            "pre-change-plcca": lambda arr: write("train_x", ds.X),
        }[case]
        if case == "w1-string":
            model, view, section = cca_fit(ds.X, ds.Y, 2), 1, "w1"
        else:
            model, view, section = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=10)), 2, "hy"
        monkeypatch.setattr(mvcca.dataio, "_sec_dense",
                            lambda name, arr: rewrite(arr) if name == section else write(name, arr))
        path = tmp_path / "bad.nccm"
        save_model(path, model)
        monkeypatch.undo()
        result = subprocess.run(
            [sys.executable, "-m", "mvcca.cli", "project", "--model", str(path),
             "--view", str(view), "--in", str(tmp_path / ("x.ncm", "y.ncm")[view - 1]),
             "--out", str(tmp_path / "out.ncm")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("format error:") and "Traceback" not in result.stderr
        assert f"'{section}'" in result.stderr

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_far_query_projects(self, spiral_dir, tmp_path):
        model = tmp_path / "tight.nccm"
        rc = run("train", "--method", "ncca", "--x", str(spiral_dir / "x.ncm"),
                 "--y", str(spiral_dir / "y.ncm"), "--dim", "1", "--knn", "5",
                 "--sigma-x", "1e-4", "--model", str(model))
        assert rc == 0
        far = tmp_path / "far.ncm"
        write_matrix(far, np.full((1, 2), 1e6))
        rc = run("project", "--model", str(model), "--view", "1",
                 "--in", str(far), "--out", str(tmp_path / "out.ncm"))
        assert rc == 0
        assert np.all(np.isfinite(read_matrix(tmp_path / "out.ncm")))


class TestEval:
    def test_identical_projections_total_is_dim(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        P = rng.standard_normal((80, 2))
        p1, p2 = tmp_path / "p1.ncm", tmp_path / "p2.ncm"
        write_matrix(p1, P)
        write_matrix(p2, P)
        assert run("eval", "--proj1", str(p1), "--proj2", str(p2), "--dim", "2",
                   "--ridge", "0") == 0
        out = capsys.readouterr().out
        total = float(next(l for l in out.splitlines() if l.startswith("total_correlation=")
                           ).split("=")[1])
        assert total == pytest.approx(2.0, abs=1e-6)

    def test_mismatched_rows_error(self, tmp_path):
        p1, p2 = tmp_path / "p1.ncm", tmp_path / "p2.ncm"
        write_matrix(p1, np.zeros((10, 2)))
        write_matrix(p2, np.zeros((5, 2)))
        assert run("eval", "--proj1", str(p1), "--proj2", str(p2), "--dim", "1") == 2


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestBench:
    def test_smoke_run_completes_quickly(self, capsys):
        start = time.perf_counter()
        assert run("bench", "--n", "200", "--seed", "0") == 0
        assert time.perf_counter() - start < 5.0
        out = capsys.readouterr().out
        assert "thresholds_enforced=False" in out
        assert "ncca" in out

    def test_threshold_failure_exit_code(self, capsys, monkeypatch):
        import mvcca.cli as cli

        monkeypatch.setattr(cli, "SPIRAL_N", 150)
        monkeypatch.setattr(cli, "GAUSSIAN_N", 500)
        monkeypatch.setattr(cli, "SPIRAL_NCCA_MIN", 2.0)  # unattainable
        monkeypatch.setattr(cli, "GAUSSIAN_TOL", 0.5)
        assert run("bench", "--seed", "0") == 4
        assert "FAIL:" in capsys.readouterr().err

    def test_smoke_run_reproducible_values(self, capsys):
        run("bench", "--n", "150", "--seed", "3")
        first = capsys.readouterr().out
        run("bench", "--n", "150", "--seed", "3")
        second = capsys.readouterr().out

        def corr_column(text):
            rows = []
            for line in text.splitlines():
                parts = line.split()
                if parts and parts[0] in ("spiral", "gaussian"):
                    rows.append((parts[0], parts[1], parts[2]))
            return rows

        assert corr_column(first) == corr_column(second)


class TestHarness:
    def test_no_command_usage_error(self):
        assert run() == 1

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--kind", "spiral", "--n", "-5"], "--n"),
        (["synth", "--kind", "identical", "--dims", "0"], "--dims"),
        (["train", "--method", "plcca", "--knn", "0"], "--knn"),
        (["train", "--method", "cca", "--dim", "0"], "--dim"),
        (["train", "--method", "plcca", "--sigma-frac", "3"], "--sigma-frac"),
        (["train", "--method", "ncca", "--sigma-frac", "0"], "--sigma-frac"),
        (["train", "--method", "cca", "--ridge", "-1"], "--ridge"),
        (["train", "--method", "cca", "--ridge", "nan"], "--ridge"),
        (["eval", "--proj1", "p1.ncm", "--proj2", "p2.ncm", "--dim", "0"], "--dim"),
        (["bench", "--n", "0"], "--n"),
        (["synth", "--kind", "spiral", "--noise", "-1"], "--noise"),
        (["synth", "--kind", "spiral", "--turns", "0"], "--turns"),
        (["synth", "--kind", "spiral", "--seed", "-3"], "--seed"),
        (["train", "--method", "ncca", "--seed", "-1"], "--seed"),
        (["synth", "--kind", "gaussian", "--rho", "0.5,1.2"], "--rho"),
        (["train", "--method", "ncca", "--sigma-x", "-0.5"], "--sigma-x"),
    ], ids=["synth-n", "synth-dims", "train-knn", "train-dim", "train-sigma-frac-above",
            "train-sigma-frac-zero", "train-ridge-negative", "train-ridge-nan", "eval-dim",
            "bench-n", "synth-noise", "synth-turns", "synth-seed", "train-seed", "synth-rho",
            "train-sigma-x"])
    def test_invalid_flag_value_usage_error(self, spiral_dir, tmp_path, capsys, argv, flag):
        # A value no input could accept is a usage error (exit 1), before any file is read.
        if argv[0] == "synth":
            argv = argv + ["--out", str(tmp_path / "out")]
        elif argv[0] == "train":
            argv = argv + ["--x", str(spiral_dir / "x.ncm"), "--y", str(spiral_dir / "y.ncm"),
                           "--model", str(tmp_path / "m.nccm")]
            if "--dim" not in argv:
                argv += ["--dim", "1"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_unknown_flag_usage_error(self):
        assert run("synth", "--kind", "spiral", "--frobnicate") == 1

    def test_thread_env_applied(self, spiral_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NCCA_THREADS", "1")
        model = tmp_path / "m.nccm"
        rc = run("train", "--method", "cca", "--x", str(spiral_dir / "x.ncm"),
                 "--y", str(spiral_dir / "y.ncm"), "--dim", "1", "--model", str(model))
        assert rc == 0
        if importlib.util.find_spec("threadpoolctl") is None:
            expected = "ncca_threads=1 (threadpoolctl unavailable; not applied)"
        else:
            expected = "ncca_threads=1"
        assert expected in capsys.readouterr().err.splitlines()

    def test_bad_thread_env_usage_error(self, monkeypatch):
        monkeypatch.setenv("NCCA_THREADS", "many")
        assert run("bench", "--n", "100") == 1

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_thread_env_below_one_usage_error(self, raw, spiral_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NCCA_THREADS", raw)
        model = tmp_path / "m.nccm"
        rc = run("train", "--method", "cca", "--x", str(spiral_dir / "x.ncm"),
                 "--y", str(spiral_dir / "y.ncm"), "--dim", "1", "--model", str(model))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"NCCA_THREADS must be an integer >= 1, got {raw!r}" in err
        assert "ncca_threads=" not in err and not model.exists()

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mvcca.cli", "synth", "--kind", "identical",
             "--n", "20", "--seed", "0", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "x.ncm").exists()
