import os

import numpy as np
import pytest

from sea_ensemble import harness, theory
from sea_ensemble.data import CLASSIFICATION, synth_regression
from sea_ensemble.ensemble import MethodConfig, bootstrap_indices, build_ensemble
from sea_ensemble.mlp import init_mlp
from sea_ensemble.seeds import derive_seed
from sea_ensemble.harness import (
    BOUNDARY_METRIC_CAP,
    ExperimentConfig,
    SweepRow,
    SynthSpec,
    acc,
    aggregate_metric,
    estimate_real_boundary,
    fold_seed,
    fold_split_for,
    load_dataset,
    load_sweep,
    persist_sweep,
    rmse,
    run_sweep,
    sweep_curve,
)

# Literal seeds of the layout for master seed 0 (sha256-derived; see seeds.py).
DATA_SEED_0 = 5645879620718662389
FOLD_SEEDS_0 = [331887026339243623, 3367651842999336005]
SPLIT_10_SEED_0 = [[2, 3, 5, 6, 9], [0, 1, 4, 7, 8]]
LEARNER_SEEDS_FOLD0 = [931938705055866163, 5006271187167075946]
BOOTSTRAP_SEED_FOLD0 = 5654357067271204684


def small_cfg(**kw) -> ExperimentConfig:
    base = dict(
        name="unit",
        synth=SynthSpec(n=80, noise_sd=0.1),
        method="sea",
        grid=(0.0, 1.0),
        m_list=(3,),
        folds=2,
        epochs=10,
        alpha=0.05,
        hidden=(5,),
        seed=123,
        outdir="unused",
    )
    base.update(kw)
    return ExperimentConfig(**base)


def cell_rows(cfg: ExperimentConfig, method: str, param: float, m: int) -> list[harness.SweepRow]:
    """All fold rows of one (method, param, M) cell, through run_sweep."""
    cell = {**cfg.to_dict(), "method": method, "grid": [param], "m_list": [m]}
    return run_sweep(ExperimentConfig.from_dict(cell)).rows


class TestMetrics:
    def test_rmse_perfect(self):
        assert rmse(np.ones((4, 1)), np.ones((4, 1))) == 0.0

    def test_rmse_single(self):
        assert rmse(np.array([[1.0]]), np.array([[3.0]])) == 2.0

    def test_rmse_formula(self):
        got = rmse(np.array([[0.0], [0.0]]), np.array([[3.0], [4.0]]))
        assert got == pytest.approx(np.sqrt(25.0 / 2.0))

    def test_acc_perfect(self):
        t = np.eye(3)
        assert acc(t, t) == 1.0

    def test_acc_argmax(self):
        preds = np.array([[0.2, 0.9]])
        assert acc(preds, np.array([[0.0, 1.0]])) == 1.0

    def test_acc_tie_goes_low(self):
        preds = np.array([[0.5, 0.5]])
        assert acc(preds, np.array([[0.0, 1.0]])) == 0.0
        assert acc(preds, np.array([[1.0, 0.0]])) == 1.0


class TestConfig:
    def test_validation_grid_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            small_cfg(grid=(1.0, 0.0))

    def test_exactly_one_data_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            small_cfg(dataset_path="x.libsvm")

    def test_roundtrip_dict(self):
        cfg = small_cfg()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.fingerprint() == cfg.fingerprint()

    def test_unknown_key_rejected(self):
        d = small_cfg().to_dict()
        d["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_dict(d)

    def test_epochs_positive(self):
        with pytest.raises(ValueError, match="epochs"):
            small_cfg(epochs=0)


class TestSeedIsolation:
    def test_split_and_inits_method_independent(self):
        cfg_a = small_cfg(method="sea", grid=(0.5,))
        cfg_b = small_cfg(method="ncl", grid=(0.5,))
        ds = load_dataset(cfg_a)
        split_a = fold_split_for(cfg_a, ds.n_samples)
        split_b = fold_split_for(cfg_b, ds.n_samples)
        for fa, fb in zip(split_a.folds, split_b.folds):
            np.testing.assert_array_equal(fa, fb)
        ens_a = build_ensemble(2, [5], 1, 3, MethodConfig("sea", 0.5), seed=fold_seed(cfg_a, 0))
        ens_b = build_ensemble(2, [5], 1, 3, MethodConfig("ncl", 0.5), seed=fold_seed(cfg_b, 0))
        for ma, mb in zip(ens_a.learners, ens_b.learners):
            for wa, wb in zip(ma.weights, mb.weights):
                np.testing.assert_array_equal(wa, wb)

    def test_seed_layout_pinned(self):
        # The documented contract (seeds.py, README): data and split from the
        # master seed, learners and bootstrap from the fold seed.
        cfg = small_cfg(seed=0, folds=2)
        assert derive_seed(0, "data") == DATA_SEED_0
        synth = synth_regression(80, 0.1, DATA_SEED_0)
        np.testing.assert_array_equal(load_dataset(cfg).features, synth.features)
        assert [fold_seed(cfg, f) for f in range(2)] == FOLD_SEEDS_0
        split = fold_split_for(cfg, 10)
        assert [fold.tolist() for fold in split.folds] == SPLIT_10_SEED_0
        assert [derive_seed(FOLD_SEEDS_0[0], "learner", i) for i in range(2)] == LEARNER_SEEDS_FOLD0
        assert derive_seed(FOLD_SEEDS_0[0], "bootstrap") == BOOTSTRAP_SEED_FOLD0
        ens = build_ensemble(2, [3], 1, 2, MethodConfig("bagging"), seed=fold_seed(cfg, 0), n_train=10)
        for learner, seed in zip(ens.learners, LEARNER_SEEDS_FOLD0):
            np.testing.assert_array_equal(learner.weights[0], init_mlp(2, [3], 1, seed).weights[0])
        for got, want in zip(ens.bootstrap, bootstrap_indices(10, 2, BOOTSTRAP_SEED_FOLD0)):
            np.testing.assert_array_equal(got, want)


class TestRunCv:
    """One (method, param, M) cell over all folds, run through run_sweep."""

    def test_fold_sizes(self):
        cfg = small_cfg(synth=SynthSpec(n=100, noise_sd=0.1), folds=5)
        ds = load_dataset(cfg)
        split = fold_split_for(cfg, ds.n_samples)
        assert all(len(split.test_indices(f)) == 20 for f in range(5))

    def test_deterministic(self):
        cfg = small_cfg()
        a = cell_rows(cfg, "sea", 0.5, 3)
        b = cell_rows(cfg, "sea", 0.5, 3)
        assert a == b
        assert [r.epoch0_metric for r in a] == [r.epoch0_metric for r in b]

    def test_independent_equals_sea_k0(self):
        cfg = small_cfg()
        a = cell_rows(cfg, "sea", 0.0, 3)
        b = cell_rows(cfg, "independent", 0.0, 3)
        assert [r.metric for r in a] == [r.metric for r in b]

    def test_epoch0_metric_present(self):
        cfg = small_cfg(epochs=5)
        results = cell_rows(cfg, "sea", 0.5, 3)
        for r in results:
            assert np.isfinite(r.epoch0_metric)
            assert r.epochs == 5 and not r.diverged

    def test_divergence_flagged_not_raised(self):
        # far beyond the boundary at a hot learning rate: must flag, not throw
        cfg = small_cfg(epochs=300, alpha=1.0, grid=(8.0,))
        results = cell_rows(cfg, "sea", 8.0, 3)
        assert any(r.diverged for r in results)
        for r in results:
            if r.diverged:
                assert np.isnan(r.metric)

    def test_bagging_runs(self):
        cfg = small_cfg(method="bagging", grid=(0.0,))
        results = cell_rows(cfg, "bagging", 0.0, 3)
        assert all(np.isfinite(r.metric) for r in results)

    def test_classification_metric(self, tmp_path):
        text = "".join(
            f"{1 if i % 2 else -1} 1:{i / 10} 2:{(i % 3) / 2}\n" for i in range(1, 41)
        )
        path = tmp_path / "toy.libsvm"
        path.write_text(text)
        cfg = small_cfg(
            synth=None, dataset_path=str(path), task=CLASSIFICATION,
            grid=(0.0,), epochs=30,
        )
        results = cell_rows(cfg, "sea", 0.0, 3)
        for r in results:
            assert 0.0 <= r.metric <= 1.0


class TestSweep:
    def test_row_count(self):
        cfg = small_cfg(grid=(0.0, 1.0), m_list=(3,), folds=2)
        result = run_sweep(cfg)
        assert len(result.rows) == 4

    def test_mean_of_identical_rows(self):
        rows = [SweepRow("sea", 0.5, 5, f, 0.25, 0.1, 10, False) for f in range(3)]
        assert aggregate_metric(rows, 0.5) == 0.25

    def test_deterministic_and_worker_invariant(self):
        cfg1 = small_cfg(epochs=5)
        cfg2 = small_cfg(epochs=5, workers=2)
        rows1 = run_sweep(cfg1).rows
        rows2 = run_sweep(cfg2).rows
        assert rows1 == rows2

    def test_workers_do_not_reload_dataset(self, monkeypatch):
        parent = os.getpid()
        real = harness.load_dataset

        def parent_only(cfg):
            if os.getpid() != parent:
                raise AssertionError("a pool worker loaded the dataset")
            return real(cfg)

        monkeypatch.setattr(harness, "load_dataset", parent_only)
        assert len(run_sweep(small_cfg(epochs=2, workers=2)).rows) == 4

    def test_curve_caps_divergence(self):
        rows = [
            SweepRow("sea", 0.0, 5, 0, 0.2, 0.1, 10, False),
            SweepRow("sea", 3.0, 5, 0, float("nan"), float("nan"), 4, True),
        ]
        result = harness.SweepResult(rows, "regression", "{}")
        curve = sweep_curve(result)
        assert curve[0] == (0.0, 0.2)
        assert curve[1] == (3.0, BOUNDARY_METRIC_CAP)

    def test_boundary_curve_caps_at_trivial_level(self):
        rows = [
            SweepRow("sea", 0.0, 5, 0, 0.4, 0.1, 10, False),
            SweepRow("sea", 1.0, 5, 0, 2.7, 0.1, 10, False),
            SweepRow("sea", 2.0, 5, 0, float("nan"), float("nan"), 3, True),
        ]
        result = harness.SweepResult(rows, "regression", "{}")
        curve = harness.boundary_curve(result)
        assert curve == [(0.0, 0.4), (1.0, harness.TRIVIAL_RMSE_LEVEL), (2.0, harness.TRIVIAL_RMSE_LEVEL)]

    def test_metric_on_train_flag(self):
        test_cfg = small_cfg(epochs=40, grid=(0.0,))
        train_cfg = small_cfg(epochs=40, grid=(0.0,), metric_on_train=True)
        r_test = cell_rows(test_cfg, "sea", 0.0, 3)
        r_train = cell_rows(train_cfg, "sea", 0.0, 3)
        # training folds are fit directly, so the train metric is lower
        assert np.mean([r.metric for r in r_train]) < np.mean([r.metric for r in r_test])


class TestBoundaryEstimator:
    def test_spec_walkthrough(self):
        curve = list(zip([0.0, 0.5, 1.0, 1.5, 2.0, 2.5], [0.4, 0.4, 0.41, 1.0, 1.0, 1.0]))
        est = estimate_real_boundary(curve, "regression")
        assert est.plateau == pytest.approx(1.0)
        assert est.boundary_param == 1.0
        flags = [(p.is_plateau, p.is_boundary) for p in est.points]
        assert flags == [(False, False), (False, False), (False, True),
                         (True, False), (True, False), (True, False)]

    def test_flat_curve_no_boundary(self):
        curve = [(float(i), 1.0) for i in range(6)]
        est = estimate_real_boundary(curve, "regression")
        assert est.boundary_param is None

    def test_only_first_point_beats(self):
        curve = list(zip(range(5), [0.5, 0.99, 1.0, 1.0, 1.01]))
        est = estimate_real_boundary(curve, "regression")
        assert est.boundary_param == 0

    def test_accuracy_direction(self):
        curve = list(zip(range(6), [0.9, 0.9, 0.85, 0.5, 0.5, 0.5]))
        est = estimate_real_boundary(curve, "classification")
        assert est.plateau == pytest.approx(0.5)
        assert est.boundary_param == 2  # 0.85 >= 1.05 * 0.5

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="5"):
            estimate_real_boundary([(0, 1.0), (1, 1.0)], "regression")

    def test_unsorted_rejected(self):
        curve = [(0.0, 1.0), (0.5, 1.0), (0.4, 1.0), (1.0, 1.0), (2.0, 1.0)]
        with pytest.raises(ValueError, match="sorted"):
            estimate_real_boundary(curve, "regression")

    def test_nan_metrics_capped_into_plateau(self):
        nan = float("nan")
        curve = list(zip([0.0, 0.5, 1.0, 1.5, 2.0], [0.3, 0.35, nan, nan, nan]))
        est = estimate_real_boundary(curve, "regression")
        assert est.plateau == BOUNDARY_METRIC_CAP
        assert est.boundary_param == 0.5


class TestPersistence:
    def test_sweep_roundtrip(self, tmp_path):
        cfg = small_cfg(epochs=3)
        result = run_sweep(cfg)
        persist_sweep(result, tmp_path)
        back = load_sweep(tmp_path)
        assert back == harness.SweepResult(result.rows, result.task, result.fingerprint)

    def test_byte_determinism(self, tmp_path):
        cfg = small_cfg(epochs=3)
        p1 = persist_sweep(run_sweep(cfg), tmp_path / "a")
        p2 = persist_sweep(run_sweep(cfg), tmp_path / "b")
        assert p1[0].read_bytes() == p2[0].read_bytes()
        assert p1[1].read_bytes() == p2[1].read_bytes()

    def test_unwritable_dir(self, tmp_path):
        # a file where a directory is needed fails regardless of uid
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cfg = small_cfg(epochs=3)
        result = run_sweep(cfg)
        with pytest.raises(OSError, match="blocked"):
            persist_sweep(result, blocker / "sub")

    def test_bounds_table_matches_theory(self, tmp_path):
        path = harness.persist_bounds_table(2, 20, tmp_path / "bounds.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == harness.BOUNDS_CSV_HEADER
        assert len(lines) == 20  # header + 19 rows
        row5 = lines[4].split(",")  # M=5
        assert float(row5[1]) == theory.ncl_lambda_bounds(5)[1]
        assert float(row5[2]) == theory.ncl_lambda_bounds(5)[0]
        assert float(row5[3]) == theory.nclstar_gamma_bounds(5)[1]
        assert float(row5[4]) == theory.nclstar_gamma_bounds(5)[0]
        lo, hi = theory.sea_k_bounds(5)
        assert float(row5[5]) == lo and float(row5[6]) == hi


class TestDiversityProfile:
    def test_requires_three_points(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="3 points"):
            harness.diversity_profile(cfg, "sea", (0.0, 1.0), 3)

    def test_profile_fields(self):
        cfg = small_cfg(epochs=20)
        profile = harness.diversity_profile(cfg, "sea", (0.0, 0.5, 1.0), 3)
        assert len(profile.empirical_std) == 3
        assert 0.0 <= profile.r_squared <= 1.0
        assert profile.scale_c > 0
        assert len(profile.predicted_std) == 3

    def test_persist_diversity(self, tmp_path):
        cfg = small_cfg(epochs=10)
        profile = harness.diversity_profile(cfg, "sea", (0.0, 0.5, 1.0), 3)
        csv_path, meta_path = harness.persist_diversity(profile, tmp_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == harness.DIVERSITY_CSV_HEADER
        assert len(lines) == 4
        assert meta_path.exists()
