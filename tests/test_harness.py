import json
import logging
import os

import numpy as np
import pytest

from sea_ensemble import harness, theory
from sea_ensemble.data import CLASSIFICATION, Dataset, standardize, synth_regression
from sea_ensemble.ensemble import MethodConfig, bootstrap_indices, build_ensemble, predictions_batch
from sea_ensemble.mlp import init_mlp
from sea_ensemble.seeds import derive_seed
from sea_ensemble.harness import (
    BOUNDARY_METRIC_CAP,
    ExperimentConfig,
    SweepRow,
    SynthSpec,
    acc,
    estimate_real_boundary,
    fold_seed,
    fold_split_for,
    load_dataset,
    persist_sweep,
    rmse,
    run_sweep,
)

# Literal seeds of the layout for master seed 0 (sha256-derived; see seeds.py).
DATA_SEED_0 = 5645879620718662389
FOLD_SEEDS_0 = [331887026339243623, 3367651842999336005]
SPLIT_10_SEED_0 = [[2, 3, 5, 6, 9], [0, 1, 4, 7, 8]]
LEARNER_SEEDS_FOLD0 = [931938705055866163, 5006271187167075946]
BOOTSTRAP_SEED_FOLD0 = 5654357067271204684
# init_mlp(2, [3], 1, LEARNER_SEEDS_FOLD0[0]).theta, one unit's Glorot weights and zero bias a line
THETA_LEARNER0_FOLD0 = [
    0.42248104174297607, -0.2202514508099186, 0.0,
    0.33167349329318263, 0.3242205971780434, 0.0,
    -0.13224146639584555, 0.9156182188732962, 0.0,
    -1.126886829693777, -0.48405767110462206, -0.27871522284696115, 0.0,
]


@pytest.fixture
def inline_pools(monkeypatch) -> list:
    """Replace harness's ProcessPoolExecutor with a stand-in that runs the jobs here; returns the pools made."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            self.max_workers = max_workers
            self.jobs = []
            pools.append(self)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *job_args):
            self.jobs.extend(zip(*job_args))
            return map(fn, *job_args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness, "_worker_inputs", ())  # restored after the test
    return pools


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


class TestEnsembleMetric:
    """The metric of a stack's mean, or NaN when the mean is only rounding noise."""

    def test_trained_scale_is_the_metric(self):
        rng = np.random.default_rng(0)
        preds, t = rng.normal(size=(5, 20, 1)), rng.normal(size=(20, 1))
        assert harness.ensemble_metric(preds, t, "regression") == rmse(preds.mean(axis=0), t)

    def test_cancelled_huge_predictions_are_noise(self):
        # the mean of +-1e140 values that cancel is what rounding leaves over
        rng = np.random.default_rng(1)
        big = rng.normal(size=(4, 20, 1)) * 1e140
        preds = np.concatenate([big, -big.sum(axis=0, keepdims=True)])
        t = rng.normal(size=(20, 1))
        assert 0 < rmse(preds.mean(axis=0), t) < 5 * np.finfo(float).eps * np.abs(preds).max()
        assert np.isnan(harness.ensemble_metric(preds, t, "regression"))

    def test_huge_but_resolved_error_is_kept(self):
        # predictions of 1e20 whose mean misses by ~1e20: rounding is far below the error
        preds = np.full((5, 4, 1), 1e20)
        t = np.zeros((4, 1))
        assert harness.ensemble_metric(preds, t, "regression") == 1e20

    def test_zero_accuracy_is_a_result(self):
        preds = np.tile(np.array([[0.9, 0.1]]), (3, 4, 1))
        t = np.tile(np.array([[0.0, 1.0]]), (4, 1))
        assert harness.ensemble_metric(preds, t, CLASSIFICATION) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_is_nan(self, bad):
        preds = np.zeros((3, 4, 1))
        preds[1, 2, 0] = bad
        assert np.isnan(harness.ensemble_metric(preds, np.ones((4, 1)), "regression"))

    def test_rounding_noise_rows_flagged(self):
        # nclstar k=2 at 7-row batches ends with predictions ~1e140, every value finite;
        # its metrics were 1.7e124 and 6.1e125, written with diverged=0
        cfg = ExperimentConfig(synth=SynthSpec(n=200), method="nclstar", grid=(2.0,), m_list=(5,), folds=2,
                               epochs=20, alpha=0.3, batch_size=7, seed=1)
        rows = run_sweep(cfg).rows
        assert [(r.fold, r.diverged, r.epochs) for r in rows] == [(0, True, 20), (1, True, 20)]
        assert all(np.isnan(r.metric) and np.isnan(r.std) for r in rows)


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

    def test_default_fingerprint_pinned(self):
        # the "config" block of every sweep.json is this document
        assert ExperimentConfig().fingerprint() == (
            '{"alpha": 0.05, "batch_size": null, "dataset_path": null, "epochs": 200, "folds": 5, '
            '"format": "sea-config/1", "grid": [0.0], "hidden": [10, 10], "m_list": [5], "method": "sea", '
            '"metric_on_train": false, "name": "experiment", "outdir": "results", "seed": 0, '
            '"synth": {"n": 400, "noise_sd": 0.1}, "task": "regression", "workers": 1}'
        )

    def test_unknown_key_rejected(self):
        d = small_cfg().to_dict()
        d["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("method", ["sea", "ncl", "nclstar"])
    def test_adjustable_needs_two_learners(self, method):
        with pytest.raises(ValueError, match=f"{method} needs ensemble sizes >= 2"):
            small_cfg(method=method, m_list=(1,))
        small_cfg(method="independent", m_list=(1,))

    def test_epochs_positive(self):
        with pytest.raises(ValueError, match="epochs"):
            small_cfg(epochs=0)

    @pytest.mark.parametrize("hidden", [(0,), (10, -1)])
    def test_hidden_widths_positive(self, hidden):
        with pytest.raises(ValueError, match="hidden widths"):
            small_cfg(hidden=hidden)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            small_cfg(alpha=alpha)

    # NaN compares false both ways, so (0, nan, 1) passes a sortedness check
    @pytest.mark.parametrize("grid", [(0.0, float("nan"), 1.0), (float("nan"),), (0.0, float("inf")), (-float("inf"),)])
    def test_grid_finite(self, grid):
        with pytest.raises(ValueError, match="grid values must be finite"):
            small_cfg(grid=grid)

    def test_synth_needs_a_sample(self):
        # SynthSpec is the synthetic set's door; synth_regression takes n as given
        with pytest.raises(ValueError, match="synthetic dataset needs n >= 1"):
            SynthSpec(n=0)

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), -0.1])
    def test_synth_noise_finite(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be finite and >= 0"):
            SynthSpec(noise_sd=noise_sd)

    # int() would truncate 2.7 and 4.9 silently; a whole float such as 3.0 is refused too
    @pytest.mark.parametrize(
        "field,value",
        [("epochs", 3.0), ("folds", 2.0), ("batch_size", 5.0), ("seed", 1.0), ("workers", 1.0),
         ("m_list", (2.7,)), ("hidden", (4.9,))],
    )
    def test_integer_fields_reject_floats(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            small_cfg(**{field: value})

    def test_synth_n_rejects_float(self):
        with pytest.raises(TypeError, match="synth n must be an integer"):
            ExperimentConfig.from_dict({"synth": {"n": 40.0}})

    def test_integer_fields_keep_numpy_ints(self):
        cfg = small_cfg(epochs=np.int64(3), m_list=np.array([2, 4]), hidden=[np.int32(5)])
        assert (cfg.epochs, cfg.m_list, cfg.hidden) == (3, (2, 4), (5,))
        assert type(cfg.epochs) is int and type(cfg.m_list[0]) is int


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
        assert init_mlp(2, [3], 1, LEARNER_SEEDS_FOLD0[0]).theta.tolist() == THETA_LEARNER0_FOLD0
        ens = build_ensemble(2, [3], 1, 2, MethodConfig("bagging"), seed=fold_seed(cfg, 0), n_train=10)
        for learner, seed in zip(ens.learners, LEARNER_SEEDS_FOLD0):
            np.testing.assert_array_equal(learner.weights[0], init_mlp(2, [3], 1, seed).weights[0])
        np.testing.assert_array_equal(ens.bootstrap, bootstrap_indices(10, 2, BOOTSTRAP_SEED_FOLD0))


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


def separate_cell(cfg: ExperimentConfig, param: float, m: int, fold: int) -> SweepRow:
    """One sweep cell built on its own: its own standardization, ensemble and epoch-0 pass."""
    ds = load_dataset(cfg)
    split = fold_split_for(cfg, ds.n_samples)
    train_raw, test_raw = (Dataset(ds.name, ds.features[i], ds.targets[i], task=ds.task)
                           for i in (split.train_indices(fold), split.test_indices(fold)))
    train, stats = standardize(train_raw)
    test, _ = standardize(test_raw, stats)
    eval_ds = train if cfg.metric_on_train else test
    ens = build_ensemble(train.n_features, list(cfg.hidden), train.n_outputs, m,
                         MethodConfig(cfg.method, param), seed=fold_seed(cfg, fold), n_train=train.n_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        epoch0 = harness.metric_for_task(ds.task)(predictions_batch(ens, eval_ds.features)[0].mean(axis=0),
                                                  eval_ds.targets)
    (row,) = harness.train_stack(cfg, ens, train, eval_ds, fold, epoch0)
    return row


def row_bits(r: SweepRow) -> tuple:
    return (r.method, r.param, r.m, r.fold, repr(r.metric), repr(r.std), r.epochs, r.diverged, repr(r.epoch0_metric))


class TestColumn:
    """run_column shares one (M, fold) column's setup; every row must equal its cell built alone."""

    @staticmethod
    def assert_column_matches_cells(cfg: ExperimentConfig, monkeypatch) -> list[SweepRow]:
        built = []
        real_build = harness.build_ensemble

        def recording_build(*args, **kwargs):
            ens = real_build(*args, **kwargs)
            built.append((ens, [a.copy() for a in ens.net.weights + ens.net.biases]))
            return ens

        monkeypatch.setattr(harness, "build_ensemble", recording_build)
        ds = load_dataset(cfg)
        m, fold = cfg.m_list[0], 1
        column = harness.run_column(cfg, m, ds, fold_split_for(cfg, ds.n_samples), fold)
        assert len(built) == 1
        ens, initial = built[0]
        for a, b in zip(ens.net.weights + ens.net.biases, initial):
            np.testing.assert_array_equal(a, b)  # the shared initial arrays
        monkeypatch.setattr(harness, "build_ensemble", real_build)
        want = [separate_cell(cfg, p, m, fold) for p in cfg.grid]
        assert [row_bits(r) for r in column] == [row_bits(r) for r in want]
        return column

    @pytest.mark.parametrize(
        "method,grid", [("independent", (0.0, 1.0)), ("sea", (0.0, 0.7, 1.4)), ("ncl", (0.0, 0.5, 1.0)),
                        ("nclstar", (0.0, 0.5, 1.0)), ("bagging", (0.0, 1.0))]
    )
    @pytest.mark.parametrize("batch_size", [None, 7])
    def test_equals_separate_cells(self, monkeypatch, method, grid, batch_size):
        cfg = small_cfg(method=method, grid=grid, epochs=6, alpha=0.1, batch_size=batch_size)
        self.assert_column_matches_cells(cfg, monkeypatch)

    def test_metric_on_train(self, monkeypatch):
        cfg = small_cfg(grid=(0.0, 0.7, 1.4), epochs=6, metric_on_train=True)
        self.assert_column_matches_cells(cfg, monkeypatch)

    def test_diverging_cell(self, monkeypatch):
        cfg = small_cfg(grid=(0.5, 8.0, 9.0), epochs=300, alpha=1.0)
        column = self.assert_column_matches_cells(cfg, monkeypatch)
        assert [r.diverged for r in column] == [False, True, True]

    @pytest.mark.parametrize("points", [2, 3, 4])
    @pytest.mark.parametrize("batch_size", [None, 7])
    def test_chunk_borders(self, monkeypatch, points, batch_size):
        # a budget of three grid points (M=3, width 5, 40 training rows or
        # 7-row batches), against grids of two, three and four points
        rows = 40 if batch_size is None else batch_size
        monkeypatch.setattr(harness, "STACK_BYTES", 3 * 3 * 5 * rows * 8)
        stacks = []
        real = harness.train_stack

        def recording(cfg, ens, *args):
            stacks.append(ens.params.tolist())
            return real(cfg, ens, *args)

        monkeypatch.setattr(harness, "train_stack", recording)
        grid = tuple(0.25 * i for i in range(points))
        cfg = small_cfg(method="ncl", grid=grid, epochs=6, alpha=0.1, batch_size=batch_size)
        self.assert_column_matches_cells(cfg, monkeypatch)
        chunks = [list(grid[i : i + 3]) for i in range(0, points, 3)]
        assert stacks == chunks + [[p] for p in grid]  # the column's chunks, then the cells alone

    @pytest.mark.parametrize("in_front", [False, True])
    def test_point_diverging_mid_epoch(self, monkeypatch, in_front):
        # k = 8 diverges in step 2 of epoch 32 and the other points train on;
        # in_front puts it first in the stack, so the points behind it shift
        failures = []
        steps = []
        real_step, real_stack = harness.train_epoch, harness.train_stack

        def recording(ens, x, t, alpha):
            try:
                real_step(ens, x, t, alpha)
            except harness.DivergenceError:
                failures.append((len(steps), ens.params.tolist()))
                raise
            steps.append(ens.params.tolist())

        def reversed_stack(cfg, ens, *args):
            return real_stack(cfg, ens.take(np.arange(len(ens.params))[::-1]), *args)[::-1]

        monkeypatch.setattr(harness, "train_epoch", recording)
        if in_front:
            monkeypatch.setattr(harness, "train_stack", reversed_stack)
        cfg = small_cfg(grid=(0.0, 0.5, 8.0), epochs=40, alpha=0.3, batch_size=7)
        column = self.assert_column_matches_cells(cfg, monkeypatch)
        assert [(r.diverged, r.epochs) for r in column] == [(False, 40), (False, 40), (True, 31)]
        done, stack = failures[0]
        assert done == 31 * 6 + 1  # 6 steps an epoch over the 40 training rows
        assert stack == ([8.0, 0.5, 0.0] if in_front else [0.0, 0.5, 8.0])
        assert steps[done] == [p for p in stack if p != 8.0]  # the step retaken without it

    def test_workspace_replaced_when_point_leaves(self, monkeypatch):
        # the run of test_point_diverging_mid_epoch: 9 learners until step 31 * 6 + 1, then 6
        shapes = []
        real_step = harness.train_epoch

        def recording(ens, x, t, alpha):
            real_step(ens, x, t, alpha)
            shapes.append((id(ens.work), sorted(a.shape for a in ens.work.values())))

        monkeypatch.setattr(harness, "train_epoch", recording)
        cfg = small_cfg(grid=(0.0, 0.5, 8.0), epochs=40, alpha=0.3, batch_size=7)
        ds = load_dataset(cfg)
        harness.run_column(cfg, 3, ds, fold_split_for(cfg, ds.n_samples), 1)
        done = 31 * 6 + 1
        assert len({w for w, _ in shapes[:done]}) == 1 and len({w for w, _ in shapes[done:]}) == 1
        assert shapes[done - 1][0] != shapes[done][0]
        for step, (_, arrays) in enumerate(shapes):
            # hidden (5,): the input (D + 1, rows), two activations, two g and one d, each (width, learners, rows)
            assert len(arrays) == 6 and sum(len(s) == 2 for s in arrays) == 1
            assert {s[-2] for s in arrays if len(s) == 3} == {9 if step < done else 6}
            assert {s[-1] for s in arrays} == {5 if step % 6 == 5 else 7}  # 40 rows: the 6th batch has 5

    def test_chunks_hand_on_one_workspace(self, monkeypatch):
        monkeypatch.setattr(harness, "STACK_BYTES", 2 * 3 * 5 * 40 * 8)  # two grid points a chunk
        works = []
        real = harness.train_stack

        def recording(cfg, ens, *args):
            works.append((ens.work, len(ens.params)))
            return real(cfg, ens, *args)

        monkeypatch.setattr(harness, "train_stack", recording)
        cfg = small_cfg(method="ncl", grid=(0.0, 0.25, 0.5), epochs=3)
        ds = load_dataset(cfg)
        harness.run_column(cfg, 3, ds, fold_split_for(cfg, ds.n_samples), 1)
        assert [p for _, p in works] == [2, 1]
        assert works[0][0] is works[1][0]
        assert {a.shape[-2] for a in works[0][0].values() if a.ndim == 3} == {3}  # the last chunk's learners


class TestSweep:
    def test_row_count(self):
        cfg = small_cfg(grid=(0.0, 1.0), m_list=(3,), folds=2)
        result = run_sweep(cfg)
        assert len(result.rows) == 4

    def test_mean_of_identical_rows(self):
        rows = [SweepRow("sea", 0.5, 5, f, 0.25, 0.1, 10, False) for f in range(3)]
        assert harness.boundary_curve(harness.SweepResult(rows, "regression", "{}"), 5) == [(0.5, 0.25)]

    def test_deterministic_and_worker_invariant(self):
        cfg1 = small_cfg(epochs=5)
        cfg2 = small_cfg(epochs=5, workers=2)
        rows1 = run_sweep(cfg1).rows
        rows2 = run_sweep(cfg2).rows
        assert rows1 == rows2

    def test_one_job_per_column(self, inline_pools):
        cfg = small_cfg(grid=(0.0, 0.5, 1.0), m_list=(2, 4, 3), folds=3, epochs=2, workers=2)
        rows = run_sweep(cfg).rows
        (pool,) = inline_pools
        assert pool.jobs == [(m, f) for m in (4, 3, 2) for f in range(3)]  # largest M first
        assert len(rows) == 27
        assert rows == sorted(rows, key=SweepRow.sort_key)

    @pytest.mark.parametrize("workers, pool_sizes", [(512, [4]), (3, [3]), (1, [])])
    def test_pool_capped_at_job_count(self, inline_pools, workers, pool_sizes):
        # a pool starts all max_workers processes at its first job; 2 sizes x 2 folds are 4 jobs
        cfg = small_cfg(m_list=(2, 3), folds=2, epochs=1, workers=workers)
        assert len(run_sweep(cfg).rows) == 2 * 2 * 2  # grid points x sizes x folds
        assert [pool.max_workers for pool in inline_pools] == pool_sizes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sea_interval_warning_once_per_m_and_k(self, caplog, workers):
        # k in (-1/(M-1), 2 + 1/(M-1)): -0.4 is outside for M=4 only, 3.0 for both
        cfg = small_cfg(grid=(-0.4, 0.5, 3.0), m_list=(3, 4), folds=2, epochs=1, workers=workers)
        with caplog.at_level(logging.WARNING, logger="sea_ensemble"):
            run_sweep(cfg)
        warned = sorted(r.getMessage().split()[1] + " " + r.getMessage().split()[-2].rstrip(";")
                        for r in caplog.records if "outside" in r.getMessage())
        assert warned == ["k=-0.4 M=4", "k=3 M=3", "k=3 M=4"]

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
        result = harness.SweepResult(rows, CLASSIFICATION, "{}")
        curve = harness.boundary_curve(result, 5)
        assert curve[0] == (0.0, 0.2)
        assert curve[1] == (3.0, BOUNDARY_METRIC_CAP)

    def test_boundary_curve_caps_at_trivial_level(self):
        rows = [
            SweepRow("sea", 0.0, 5, 0, 0.4, 0.1, 10, False),
            SweepRow("sea", 1.0, 5, 0, 2.7, 0.1, 10, False),
            SweepRow("sea", 2.0, 5, 0, float("nan"), float("nan"), 3, True),
        ]
        result = harness.SweepResult(rows, "regression", "{}")
        curve = harness.boundary_curve(result, 5)
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
        csv_path, meta_path = persist_sweep(result, tmp_path)
        header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert header == harness.SWEEP_CSV_HEADER
        rows = []
        for line in lines:
            method, param, m, fold, metric, std, epochs, diverged = line.split(",")
            rows.append(SweepRow(method, float(param), int(m), int(fold), float(metric), float(std), int(epochs),
                                 diverged == "1"))
        assert rows == result.rows
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert meta["task"] == result.task
        assert json.dumps(meta["config"], sort_keys=True) == result.fingerprint

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
        result = run_sweep(small_cfg(grid=(0.0, 1.0), epochs=1))
        with pytest.raises(ValueError, match="3 points"):
            harness.diversity_profile(result, 3)

    def test_profile_fields(self):
        result = run_sweep(small_cfg(grid=(0.0, 0.5, 1.0), m_list=(3, 4), epochs=20))
        for m in (3, 4):
            profile = harness.diversity_profile(result, m)
            assert (profile.method, profile.m, profile.params) == ("sea", m, (0.0, 0.5, 1.0))
            assert len(profile.empirical_std) == 3
            assert 0.0 <= profile.r_squared <= 1.0
            assert profile.scale_c > 0
            assert len(profile.predicted_std) == 3

    def test_persist_diversity(self, tmp_path):
        profile = harness.diversity_profile(run_sweep(small_cfg(grid=(0.0, 0.5, 1.0), epochs=10)), 3)
        csv_path, meta_path = harness.persist_diversity(profile, tmp_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == harness.DIVERSITY_CSV_HEADER
        assert len(lines) == 4
        assert meta_path.exists()
