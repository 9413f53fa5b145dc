import json
import logging
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sea_ensemble
from sea_ensemble import harness, theory
from sea_ensemble.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MAX_BOUNDS_ROWS,
    MAX_GRID_POINTS,
    _config_from_args,
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

    @pytest.mark.parametrize("document", ["[1, 2]", "null", '"x"', "3"])
    def test_config_not_an_object(self, tmp_path, capsys, document):
        cfg = tmp_path / "c.json"
        cfg.write_text(document)
        assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: config {cfg} must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("synth", [5, [1], "ab"])
    def test_synth_not_an_object_with_synth_flag(self, tmp_path, capsys, synth):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": synth}))
        args = ["sweep", "--config", str(cfg), "--synth-n", "40", "--outdir", str(tmp_path / "out")]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and "synth" in err
        assert not (tmp_path / "out").exists()

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
            ("train", ["--param", "nan"], "parameter grid values must be finite"),
            ("train", ["--param=-inf"], "parameter grid values must be finite"),
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
                                           ("method", "foo"), ("metric_on_train", "no"), ("epochs", True),
                                           ("alpha", True), ("alpha", "0.1"), ("grid", [True]), ("grid", ["0.5"]),
                                           ("synth", {"noise_sd": False})])
    def test_float_for_integer_config_field_rejected_before_training(self, tmp_path, capsys, monkeypatch, key, value):
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == EXIT_USAGE
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--grid", "0,0,1"], "grid points must be sorted strictly ascending, got 0.0 after 0.0"),
            (["--grid", "0", "--m", "2,2"], "m_list must hold distinct positive ensemble sizes, got [2, 2]"),
        ],
    )
    def test_repeated_cell_rejected_before_training(self, tmp_path, capsys, monkeypatch, flags, message):
        # a repeated grid value or ensemble size would train the same (param, M, fold) cells again
        def no_sweep(*args):
            raise AssertionError("swept before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.run_sweep", no_sweep)
        assert main(["sweep", "--method", "sea", "--outdir", str(tmp_path)] + BASE + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and message in err
        assert not any(tmp_path.iterdir())

    def test_range_step_below_rounding_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        # a range's values are rounded to 10 decimals, so a step of 1e-11 would repeat them
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the range")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        args = ["sweep", "--method", "sea", "--grid", "0:1e-9:1e-11", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: range '0:1e-9:1e-11' repeats values at 10 decimals: its step 1e-11 is too small\n")
        assert not any(tmp_path.iterdir())

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
        # one config at two worker counts into two directories -> identical bytes
        args = ["sweep", "--method", "sea", "--grid", "0,1", "--seed", "2"] + BASE
        assert main(args + ["--workers", "1", "--outdir", str(tmp_path / "w1")]) == EXIT_OK
        assert main(args + ["--workers", "2", "--outdir", str(tmp_path / "w2")]) == EXIT_OK
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    @pytest.mark.parametrize("source", ["synthetic", "dataset"])
    def test_rerun_from_sweep_json(self, tmp_path, source):
        # a sweep's sweep.json is a config: --config on it writes the same files anywhere
        args = ["sweep", "--method", "sea", "--grid", "0,1", "--seed", "2"] + BASE
        if source == "dataset":
            data = tmp_path / "d.libsvm"
            data.write_text("".join(f"{i % 5} 1:{i / 10} 2:{(i * 7) % 3}\n" for i in range(30)))
            args += ["--dataset", str(data)]
        assert main(args + ["--outdir", str(tmp_path / "first")]) == EXIT_OK
        config = tmp_path / "first" / "sweep.json"
        assert (json.loads(config.read_text())["dataset_path"] is None) == (source == "synthetic")
        assert main(["sweep", "--config", str(config), "--outdir", str(tmp_path / "again")]) == EXIT_OK
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

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

    def test_worker_count_keeps_bytes_of_chunked_bagging(self, tmp_path, monkeypatch):
        # a 5-point grid at M=5 trains in chunks; a real pool runs the two columns at --workers 2
        args = ["sweep", "--method", "bagging", "--grid", "0:4:1", "--m", "5", "--hidden", "10", "--synth-n", "400",
                "--folds", "2", "--epochs", "3", "--seed", "3"]
        stacks = []  # the grid points of each chunk
        real = harness.train_stack

        def counted(cfg, ens, *rest):
            stacks.append(len(ens.params))
            return real(cfg, ens, *rest)

        monkeypatch.setattr(harness, "train_stack", counted)
        assert main(args + ["--workers", "1", "--outdir", str(tmp_path / "w1")]) == EXIT_OK
        assert len(stacks) > 2 and sum(stacks) == 2 * 5  # more than one chunk per column
        monkeypatch.undo()
        assert main(args + ["--workers", "2", "--outdir", str(tmp_path / "w2")]) == EXIT_OK
        csv = (tmp_path / "w1" / "sweep.csv").read_bytes()
        assert csv == (tmp_path / "w2" / "sweep.csv").read_bytes()
        assert len(csv.splitlines()) == 1 + 2 * 5


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

    @pytest.mark.parametrize("flags,logged", [
        # nclstar far past its boundary: every parameter stays finite, but the
        # predictions reach ~1e136 and the ensemble mean is rounding noise
        ("--method nclstar --param 2 --m 5 --alpha 0.3 --batch-size 7 --synth-n 200 --epochs 10",
         "diverged after 10 of 10 epochs"),
        # sea far past its boundary: an update overflows, and the training loop finds non-finite parameters
        ("--method sea --param 8 --m 3 --alpha 1 --epochs 300 --synth-n 40 --hidden 4",
         "diverged after 108 of 300 epochs"),
    ], ids=["rounding-noise", "overflow"])
    def test_diverged_run_exits_2_without_checkpoint(self, tmp_path, caplog, flags, logged):
        args = ["train", *flags.split(), "--workers", "1", "--outdir", str(tmp_path)]
        assert main(args) == EXIT_RUNTIME
        assert not (tmp_path / "checkpoint.json").exists()
        assert logged in caplog.text

    def test_negative_exponent_param_after_space(self, tmp_path):
        # argparse reads -1e-3 after a space as a flag unless --param is joined to its value, as --grid is
        args = ["train", "--method", "sea", "--param", "-1e-3", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        assert ensemble_from_json((tmp_path / "checkpoint.json").read_text()).params.tolist() == [-0.001]

    def test_out_of_bounds_k_warns_but_trains(self, tmp_path, caplog):
        # sea's interval for M=5 is (-0.25, 2.25); k is chosen here, so it is warned of here
        args = ["train", "--method", "sea", "--param", "3", "--m", "5", "--synth-n", "60", "--epochs", "1",
                "--hidden", "3", "--outdir", str(tmp_path)]
        with caplog.at_level(logging.WARNING, logger="sea_ensemble"):
            assert main(args) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if "outside" in r.getMessage()] == [
            "SEA k=3 outside the theoretical interval (-0.25, 2.25) for M=5; proceeding"]
        assert ensemble_from_json((tmp_path / "checkpoint.json").read_text()).params.tolist() == [3.0]

    @pytest.mark.parametrize("flags,named", [(["--grid", "0,1"], "2 grid values and 1 ensemble sizes"),
                                             (["--m", "3,5"], "1 grid values and 2 ensemble sizes")])
    def test_several_cells_rejected_before_data_loads(self, tmp_path, capsys, monkeypatch, flags, named):
        def no_dataset(*args):
            raise AssertionError("loaded the dataset before rejecting the config")

        monkeypatch.setattr("sea_ensemble.harness.load_dataset", no_dataset)
        assert main(["train", "--method", "sea", "--outdir", str(tmp_path)] + BASE + flags) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: train fits one (parameter, M) cell; the config names {named}\n"
        assert not any(tmp_path.iterdir())

    def test_flags_pick_one_cell_of_a_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"method": "sea", "grid": [0, 1.5], "m_list": [3, 5], "synth": {"n": 60},
                                      "epochs": 4, "hidden": [5], "workers": 1}))
        args = ["train", "--config", str(config), "--param", "0.5", "--outdir", str(tmp_path / "out")]
        assert main(args) == EXIT_USAGE  # the config's two sizes are left
        assert not (tmp_path / "out").exists()
        assert main(args + ["--m", "3"]) == EXIT_OK
        ens = ensemble_from_json((tmp_path / "out" / "checkpoint.json").read_text())
        assert ens.params.tolist() == [0.5] and ens.m == 3

    @pytest.mark.parametrize("method,param", [("sea", "0.5"), ("bagging", "0")])
    def test_starts_from_a_sweeps_fold_0_learners(self, tmp_path, monkeypatch, method, param):
        # train's initial learners are bitwise those of fold 0's column in a sweep of the same config
        initial = {}
        real = harness.train_stack

        def recording(cfg, ens, train, eval_ds, fold):
            initial.setdefault((eval_ds is train, fold), ens.net.theta.copy())
            return real(cfg, ens, train, eval_ds, fold)

        monkeypatch.setattr(harness, "train_stack", recording)
        args = ["--method", method, "--grid", param, "--seed", "4"] + BASE
        assert main(["train", "--outdir", str(tmp_path / "t")] + args) == EXIT_OK
        assert main(["sweep", "--outdir", str(tmp_path / "s")] + args) == EXIT_OK
        trained, swept = initial[True, 0], initial[False, 0]
        assert trained.shape == swept.shape and trained.tobytes() == swept.tobytes()


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

    def test_writes_its_sweep(self, tmp_path):
        args = ["diversity", "--method", "sea", "--grid", "0,0.5,1", "--seed", "2", "--outdir", str(tmp_path)] + BASE
        assert main(args) == EXIT_OK
        assert ExperimentConfig.from_dict(json.loads((tmp_path / "sweep.json").read_text())).grid == (0.0, 0.5, 1.0)
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3 * 2
        meta = json.loads((tmp_path / "m3_diversity.json").read_text())
        assert sorted(meta) == ["m", "method", "r_squared", "rel_rms_deviation", "scale_c"]

    def test_diverged_grid_point_exits_2_after_writing_its_sweep(self, tmp_path, caplog):
        # sea at k=8 with alpha 1 overflows in every fold: no profile, but the sweep's rows are written, flagged
        args = ["diversity", "--method", "sea", "--grid", "0,1,8", "--m", "3", "--alpha", "1", "--epochs", "300",
                "--synth-n", "40", "--hidden", "4", "--folds", "2", "--workers", "1", "--outdir", str(tmp_path)]
        assert main(args) == EXIT_RUNTIME
        assert "all folds diverged at param=8.0" in caplog.text
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows if r.startswith("sea,8.0,")] == ["1", "1"]
        assert (tmp_path / "sweep.json").exists()
        assert not (tmp_path / "m3_diversity.csv").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--method", "nclstar", "--grid", "0,0.5,1"], "no std prediction for method 'nclstar'"),
            (["--method", "independent", "--grid", "0,0.5,1"], "no std prediction for method 'independent'"),
            (["--method", "bagging", "--grid", "0,0.5,1"], "no std prediction for method 'bagging'"),
            (["--method", "sea", "--grid", "0,1"], "at least 3 points, got 2"),
        ],
    )
    def test_bad_input_rejected_before_training(self, tmp_path, capsys, monkeypatch, flags, message):
        def no_training(*args):
            raise AssertionError("trained before rejecting the input")

        monkeypatch.setattr("sea_ensemble.harness.train_stack", no_training)
        assert main(["diversity", "--outdir", str(tmp_path)] + BASE + flags) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_singular_grid_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        # ncl's predicted std is singular at lambda = M/(M-1), which is 2 at M=2: no profile can be fitted
        def no_sweep(*args):
            raise AssertionError("swept before rejecting the grid")

        monkeypatch.setattr("sea_ensemble.harness.run_sweep", no_sweep)
        args = ["diversity", "--method", "ncl", "--grid", "0:2:0.5", "--m", "2", "--synth-n", "40", "--epochs", "5",
                "--folds", "2", "--hidden", "4", "--workers", "1", "--outdir", str(tmp_path)]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == "error: no std prediction at M=2: mapping singular near lambda = 2\n"
        assert not any(tmp_path.iterdir())


class TestGradcheck:
    def test_quick_passes(self):
        assert main(["gradcheck"]) == EXIT_OK


class TestEnvironment:
    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEA_OUTDIR", str(tmp_path / "fromenv"))
        assert main(["bounds", "--m", "2..4"]) == EXIT_OK
        assert (tmp_path / "fromenv" / "bounds.csv").exists()

    def test_workers_default_counts_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU of a larger machine starts one worker, not one per core
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _config_from_args(build_parser().parse_args(["sweep"])).workers == 1

    def test_workers_default_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _config_from_args(build_parser().parse_args(["sweep"])).workers == 3


# Runs main in a fresh interpreter and prints whether the pool's and the checker's modules loaded.
LOADED_AFTER_MAIN = """
import json, sys
from sea_ensemble.cli import main
status = main(sys.argv[1:])
print(json.dumps([status, "concurrent.futures.process" in sys.modules, "sea_ensemble.gradcheck" in sys.modules]))
"""


class TestImports:
    def loaded_after(self, args, tmp_path):
        # the interpreter imports the package from where this test imported it
        path = [str(Path(sea_ensemble.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        done = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *map(str, args)], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.parametrize("workers, pool", [(1, False), (2, True)])
    def test_sweep_loads_the_pool_only_when_it_starts_one(self, tmp_path, workers, pool):
        # two columns (M=3, folds 0 and 1): --workers 2 runs them in a pool of two
        args = ["sweep", "--grid", "0,0.5", "--synth-n", "40", "--folds", "2", "--epochs", "2", "--m", "3",
                "--hidden", "3", "--workers", workers, "--outdir", tmp_path / "out"]
        assert self.loaded_after(args, tmp_path) == [EXIT_OK, pool, False]
        assert (tmp_path / "out" / "sweep.csv").exists()
