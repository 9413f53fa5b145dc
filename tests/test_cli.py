import json
import logging
import shlex
from pathlib import Path

import numpy as np
import pytest

from sea_ensemble import theory
from sea_ensemble.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MAX_BOUNDS_ROWS,
    MAX_GRID_POINTS,
    _parse_float_list,
    build_parser,
    main,
)
from sea_ensemble.data import standardize
from sea_ensemble.ensemble import MethodConfig, build_ensemble, ensemble_from_json, ensemble_to_json, train_epoch
from sea_ensemble.harness import ExperimentConfig, SynthSpec, fold_seed, load_dataset


def run_cli(args, tmp_path, **env):
    return main([str(a) for a in args])


BASE = ["--synth-n", "60", "--folds", "2", "--epochs", "4", "--m", "3", "--hidden", "5", "--workers", "1"]


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["sweep", "--bogus"]) == EXIT_USAGE

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.json"]) == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"epochs": 0}))
        assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE
        assert "epochs" in capsys.readouterr().err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep", "boundary", "diversity"])
    def test_flags_cover_every_config_field(self, command):
        # _config_from_args overrides the fields its flags' dests name; synth comes from --synth-n/--synth-noise
        dests = set(vars(build_parser().parse_args([command])))
        assert set(ExperimentConfig.__dataclass_fields__) - {"synth"} <= dests

    def test_grid_range_syntax(self):
        got = _parse_float_list("0:2:0.5")
        assert got == [0.0, 0.5, 1.0, 1.5, 2.0]
        got = _parse_float_list("0:2:0.1")
        assert len(got) == 21 and got[3] == 0.3

    def test_bad_m_range(self, capsys):
        assert main(["bounds", "--m", "5"]) == EXIT_USAGE

    def test_classification_on_synthetic_rejected(self, tmp_path, capsys):
        args = ["sweep", "--task", "classification", "--grid", "0", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_USAGE
        assert "synthetic" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("method", ["sea", "ncl", "nclstar"])
    def test_single_learner_adjustable_rejected(self, tmp_path, capsys, method):
        args = ["sweep", "--method", method, "--grid", "0.5", "--outdir", str(tmp_path)] + BASE + ["--m", "1"]
        assert main(args) == EXIT_USAGE
        assert ">= 2" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "train"])
    @pytest.mark.parametrize("hidden", ["0", "10,-1"])
    def test_bad_hidden_width_rejected_before_training(self, tmp_path, capsys, monkeypatch, command, hidden):
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        args = [command, "--method", "sea", "--grid", "0.5", "--outdir", str(tmp_path)] + BASE + ["--hidden", hidden]
        assert main(args) == EXIT_USAGE
        assert "hidden widths must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("sweep", ["--grid", "0,nan"], "grid values must be finite"),
            ("sweep", ["--grid", "0,inf"], "grid values must be finite"),
            ("sweep", ["--alpha", "nan"], "alpha must be finite"),
            ("sweep", ["--alpha", "inf"], "alpha must be finite"),
            ("sweep", ["--synth-noise", "nan"], "noise_sd must be finite"),
            ("train", ["--alpha", "nan"], "alpha must be finite"),
            ("train", ["--param", "nan"], "--param must be finite"),
            ("train", ["--param=-inf"], "--param must be finite"),
            ("sweep", ["--grid", "0:inf:1"], "bad range"),
            ("sweep", ["--grid", "0:nan:1"], "bad range"),
            ("sweep", ["--grid", "nan:1:0.5"], "bad range"),
            ("sweep", ["--grid", "0:1:inf"], "bad range"),
            ("sweep", ["--synth-n", "0"], "synthetic dataset needs n >= 1"),
        ],
    )
    def test_non_finite_value_rejected_before_training(self, tmp_path, capsys, monkeypatch, command, flags, message):
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        args = [command, "--method", "sea", "--outdir", str(tmp_path)] + BASE + flags
        assert main(args) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_grid_range_over_limit_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        assert len(_parse_float_list("0:1e4:1")) == MAX_GRID_POINTS
        args = ["sweep", "--method", "sea", "--grid", "0:1e9:1", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_USAGE
        assert f"more than {MAX_GRID_POINTS} points" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key,value", [("epochs", 3.0), ("m_list", [2.7]), ("synth", {"n": 40.0}),
                                           ("method", "foo"), ("metric_on_train", "no"), ("epochs", True)])
    def test_float_for_integer_config_field_rejected_before_training(self, tmp_path, capsys, monkeypatch, key, value):
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == EXIT_USAGE
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_boundary_short_grid_rejected_before_training(self, tmp_path, capsys):
        args = ["boundary", "--method", "sea", "--grid", "0,0.5,1,1,1.5", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_USAGE
        assert "grid points" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestBounds:
    def test_csv_matches_theory(self, tmp_path):
        assert main(["bounds", "--m", "2..20", "--outdir", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "bounds.csv").read_text().strip().split("\n")
        assert len(lines) == 20
        for line in lines[1:]:
            m, lam1, lam_sea, gam1, gam_sea, k_lo, k_hi = line.split(",")
            m = int(m)
            assert float(lam1) == theory.ncl_lambda_bounds(m)[1]
            assert float(lam_sea) == theory.ncl_lambda_bounds(m)[0]
            assert float(gam1) == theory.nclstar_gamma_bounds(m)[1]
            assert float(gam_sea) == theory.nclstar_gamma_bounds(m)[0]
            assert (float(k_lo), float(k_hi)) == theory.sea_k_bounds(m)

    def test_csv_bytes_pinned(self, tmp_path):
        assert main(["bounds", "--m", "2..4", "--outdir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "bounds.csv").read_text() == (
            "M,lambda_1,lambda_sea,gamma_1,gamma_sea,k_lo,k_hi\n"
            "2,2.0,1.5,4.0,3.0,-1.0,3.0\n"
            "3,1.5,1.25,2.25,1.875,-0.5,2.5\n"
            "4,1.3333333333333333,1.1666666666666667,1.7777777777777777,1.5555555555555556,"
            "-0.3333333333333333,2.3333333333333335\n"
        )

    def test_invalid_range_is_usage_error(self, tmp_path):
        assert main(["bounds", "--m", "1..3", "--outdir", str(tmp_path)]) == EXIT_USAGE

    def test_range_over_limit_rejected_before_writing(self, tmp_path, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("built the table before rejecting the range")

        assert main(["bounds", "--m", f"2..{MAX_BOUNDS_ROWS + 1}", "--outdir", str(tmp_path / "at")]) == EXIT_OK
        assert len((tmp_path / "at" / "bounds.csv").read_text().split("\n")) == MAX_BOUNDS_ROWS + 2
        monkeypatch.setattr("sea_ensemble.harness.persist_bounds_table", no_table)
        for m in (f"2..{MAX_BOUNDS_ROWS + 2}", "2..1000000000"):
            assert main(["bounds", "--m", m, "--outdir", str(tmp_path / "over")]) == EXIT_USAGE
            assert f"more than {MAX_BOUNDS_ROWS} sizes" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()


class TestSweep:
    def test_independent_equals_sea_k0(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = BASE + ["--grid", "0", "--seed", "5"]
        assert main(["sweep", "--method", "sea", "--outdir", str(out_a)] + args) == EXIT_OK
        assert main(["sweep", "--method", "independent", "--outdir", str(out_b)] + args) == EXIT_OK
        rows_a = (out_a / "sweep.csv").read_text().strip().split("\n")[1:]
        rows_b = (out_b / "sweep.csv").read_text().strip().split("\n")[1:]
        metrics_a = [r.split(",")[4] for r in rows_a]
        metrics_b = [r.split(",")[4] for r in rows_b]
        assert metrics_a == metrics_b

    def test_byte_identical_reruns(self, tmp_path):
        # same config (incl. outdir) run twice -> identical bytes
        args = ["sweep", "--method", "sea", "--grid", "0,1", "--seed", "2",
                "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        csv1 = (tmp_path / "sweep.csv").read_bytes()
        json1 = (tmp_path / "sweep.json").read_bytes()
        assert main(args) == EXIT_OK
        assert (tmp_path / "sweep.csv").read_bytes() == csv1
        assert (tmp_path / "sweep.json").read_bytes() == json1

    # parse_libsvm is the door for file data: a non-finite entry is refused, by line, before training
    @pytest.mark.parametrize("line", ["2 1:nan", "-inf 1:0.5"])
    def test_non_finite_dataset_entry_exits_2_naming_its_line(self, tmp_path, caplog, line):
        data = tmp_path / "bad.libsvm"
        data.write_text(f"1 1:0.5\n{line}\n3 1:1\n")
        args = ["sweep", "--dataset", data, "--grid", "0", "--folds", "2", "--epochs", "2", "--m", "2",
                "--hidden", "3", "--workers", "1", "--outdir", tmp_path / "out"]
        assert run_cli(args, tmp_path) == EXIT_RUNTIME
        assert "line 2: non-finite" in caplog.text
        assert not (tmp_path / "out" / "sweep.csv").exists()

    # finite entries whose training-fold mean overflows standardize to NaN: refused, not trained as divergence
    def test_overflowing_dataset_column_exits_2(self, tmp_path, caplog):
        data = tmp_path / "big.libsvm"
        data.write_text("1 1:1e308\n" * 4)
        args = ["sweep", "--dataset", data, "--grid", "0", "--folds", "2", "--epochs", "2", "--m", "2",
                "--hidden", "3", "--workers", "1", "--outdir", tmp_path / "out"]
        assert run_cli(args, tmp_path) == EXIT_RUNTIME
        assert "standardized values are not finite" in caplog.text
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_worker_count_keeps_bytes_with_diverging_rows(self, tmp_path):
        # nclstar past its boundary at 7-row batches: 6 of the 12 rows diverge mid-sweep,
        # and the 2 at k=2 end as rounding noise (predictions ~1e140, every value finite)
        args = ["sweep", "--method", "nclstar", "--grid", "0:5:1", "--m", "5", "--batch-size", "7",
                "--alpha", "0.3", "--synth-n", "200", "--epochs", "20", "--folds", "2", "--seed", "1"]
        assert main(args + ["--workers", "1", "--outdir", str(tmp_path / "w1")]) == EXIT_OK
        assert main(args + ["--workers", "2", "--outdir", str(tmp_path / "w2")]) == EXIT_OK
        csv = (tmp_path / "w1" / "sweep.csv").read_bytes()
        assert csv == (tmp_path / "w2" / "sweep.csv").read_bytes()
        assert sum(line.endswith(b",1") for line in csv.splitlines()) == 8


class TestTrain:
    def test_metric_on_train_rejected_before_training(self, tmp_path, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before rejecting the flag")

        monkeypatch.setattr("sea_ensemble.harness.train_stack", no_training)
        args = ["train", "--method", "sea", "--param", "0.5", "--grid", "0.5", "--outdir", str(tmp_path)] + BASE
        assert main(args + ["--metric-on-train"]) == EXIT_USAGE
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"metric_on_train": True}))
        assert main(args + ["--config", str(config)]) == EXIT_USAGE
        assert not (tmp_path / "checkpoint.json").exists()

    def test_writes_loadable_checkpoint(self, tmp_path):
        args = ["train", "--method", "sea", "--param", "0.5", "--grid", "0.5",
                "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        ens = ensemble_from_json((tmp_path / "checkpoint.json").read_text())
        assert ens.m == 3
        assert ens.config.method == "sea" and ens.config.param == 0.5

    def test_batch_size_honoured(self, tmp_path):
        args = ["train", "--method", "sea", "--param", "0.5", "--grid", "0.5"] + BASE
        assert main(args + ["--batch-size", "5", "--outdir", str(tmp_path / "mini")]) == EXIT_OK
        assert main(args + ["--outdir", str(tmp_path / "full")]) == EXIT_OK
        mini = (tmp_path / "mini" / "checkpoint.json").read_text()
        full = (tmp_path / "full" / "checkpoint.json").read_text()
        cfg = ExperimentConfig(synth=SynthSpec(n=60), method="sea", grid=(0.5,), m_list=(3,), folds=2,
                               epochs=4, hidden=(5,))
        train, _ = standardize(load_dataset(cfg))
        ens = build_ensemble(train.n_features, [5], train.n_outputs, 3, MethodConfig("sea", 0.5),
                             seed=fold_seed(cfg, 0))
        for _ in range(cfg.epochs):
            for start in range(0, train.n_samples, 5):
                train_epoch(ens, train.features[start:start + 5], train.targets[start:start + 5], cfg.alpha)
        assert mini == ensemble_to_json(ens)
        assert mini != full

    def test_diverged_run_exits_2_without_checkpoint(self, tmp_path, caplog):
        # nclstar far past its boundary: every parameter stays finite, but the
        # predictions reach ~1e136 and the ensemble mean is rounding noise
        args = ["train", "--method", "nclstar", "--param", "2", "--m", "5", "--alpha", "0.3", "--batch-size", "7",
                "--synth-n", "200", "--epochs", "10", "--workers", "1", "--outdir", str(tmp_path)]
        assert main(args) == EXIT_RUNTIME
        assert not (tmp_path / "checkpoint.json").exists()
        assert "diverged after 10 of 10 epochs" in caplog.text

    def test_out_of_bounds_k_warns_but_trains(self, tmp_path, caplog):
        # sea's interval for M=5 is (-0.25, 2.25); k is chosen here, so it is warned of here
        args = ["train", "--method", "sea", "--param", "3", "--m", "5", "--synth-n", "60", "--epochs", "1",
                "--hidden", "3", "--outdir", str(tmp_path)]
        with caplog.at_level(logging.WARNING, logger="sea_ensemble"):
            assert main(args) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if "outside" in r.getMessage()] == [
            "SEA k=3 outside the theoretical interval (-0.25, 2.25) for M=5; proceeding"]
        assert ensemble_from_json((tmp_path / "checkpoint.json").read_text()).params.tolist() == [3.0]


class TestBoundary:
    def test_emits_per_m_files(self, tmp_path):
        args = ["boundary", "--method", "sea", "--grid", "0:2:0.5", "--outdir",
                str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        path = tmp_path / "m3_boundary.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "param,metric,is_plateau,is_boundary"
        assert len(lines) == 6

    def test_readme_example_runs(self, tmp_path):
        # the documented command, as written, with a negative grid start
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        line = next(l for l in readme.splitlines() if l.startswith("sea-ensemble boundary "))
        args = shlex.split(line)[1:] + ["--epochs", "1", "--workers", "1", "--outdir", str(tmp_path)]
        assert main(args) == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert any(r.split(",")[1] == "-0.5" for r in rows)

    def test_grid_after_space_with_negative_start(self, tmp_path):
        args = ["boundary", "--method", "sea", "--m", "3", "--folds", "2", "--synth-n", "60", "--hidden", "5",
                "--epochs", "1", "--workers", "1"]
        assert main(args + ["--grid", "-0.5:1.5:0.5", "--outdir", str(tmp_path / "space")]) == EXIT_OK
        assert main(args + ["--grid=-0.5:1.5:0.5", "--outdir", str(tmp_path / "equals")]) == EXIT_OK
        space = (tmp_path / "space" / "sweep.csv").read_bytes()
        assert space == (tmp_path / "equals" / "sweep.csv").read_bytes()
        assert b"\nsea,-0.5,3,0," in space


class TestDiversity:
    def test_emits_profile(self, tmp_path):
        args = ["diversity", "--method", "sea", "--grid", "0,0.5,1", "--outdir",
                str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        meta = json.loads((tmp_path / "m3_diversity.json").read_text())
        assert 0.0 <= meta["r_squared"] <= 1.0


    def test_ncl_prediction_is_the_closed_form(self, tmp_path):
        args = ["diversity", "--method", "ncl", "--grid", "0,0.25,0.5", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        meta = json.loads((tmp_path / "m3_diversity.json").read_text())
        rows = [line.split(",") for line in (tmp_path / "m3_diversity.csv").read_text().splitlines()[1:]]
        grid = np.array([float(r[0]) for r in rows])
        predicted = [float(r[2]) for r in rows]
        assert predicted == list(theory.predicted_std_ncl(grid, 3, meta["scale_c"]))

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--method", "nclstar", "--grid", "0,0.5,1"], "no std prediction for method 'nclstar'"),
            (["--method", "independent", "--grid", "0,0.5,1"], "no std prediction for method 'independent'"),
            (["--method", "bagging", "--grid", "0,0.5,1"], "no std prediction for method 'bagging'"),
            (["--method", "sea", "--grid", "0,1"], "at least 3 points"),
            (["--method", "sea", "--grid", "0,0,1"], "at least 3 points, got 2"),
        ],
    )
    def test_bad_input_rejected_before_training(self, tmp_path, capsys, monkeypatch, flags, message):
        def no_training(*args):
            raise AssertionError("trained before rejecting the input")

        monkeypatch.setattr("sea_ensemble.harness.train_stack", no_training)
        assert main(["diversity", "--outdir", str(tmp_path)] + BASE + flags) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestGradcheck:
    def test_quick_passes(self):
        assert main(["gradcheck", "--quick"]) == EXIT_OK


class TestEnvironment:
    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEA_OUTDIR", str(tmp_path / "fromenv"))
        assert main(["bounds", "--m", "2..4"]) == EXIT_OK
        assert (tmp_path / "fromenv" / "bounds.csv").exists()
