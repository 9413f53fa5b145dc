"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Criteria 1-5 and 10 are closed-form or oracle-backed and run in seconds.
Criteria 6-9 train ensembles on the synthetic dataset; they parallelize
across folds and grid points but still take a few minutes combined, and
carry the ``slow`` marker (``pytest -m "not slow"`` skips them).

Criterion 9's LIBSVM half needs the housing and mpg datasets as LIBSVM text
files; place them in ./data or point SEA_DATA_DIR at them. Without the
files, that half is skipped (this environment cannot download them).
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sea_ensemble import gradcheck, theory
from sea_ensemble.cli import _usable_cpus
from sea_ensemble.cli import main as cli_main
from sea_ensemble.data import (
    Dataset,
    kfold_split,
    parse_libsvm,
    serialize_libsvm,
    standardize,
    synth_regression,
)
from sea_ensemble.ensemble import MethodConfig, build_ensemble, train_epoch
from sea_ensemble.harness import (
    ExperimentConfig,
    SynthSpec,
    boundary_curve,
    diversity_profile,
    ensemble_metric,
    estimate_real_boundary,
    fold_data,
    fold_seed,
    fold_split_for,
    load_dataset,
    persist_sweep,
    run_sweep,
)
from sea_ensemble.mlp import forward_batch

SEED = 2024
# the CPUs this process may use, as the CLI's default --workers counts them
WORKERS = min(16, _usable_cpus())


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {title}")
        raise
    print(f"[criterion {number:2d}] PASS  {title}  ({time.perf_counter() - started:.1f}s)")


def geometric_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    count = int(round((hi - lo) / step))
    return tuple(round(lo + i * step, 10) for i in range(count + 1))


# ---------------------------------------------------------------------------
# 1. closed-form bound reproduction


def test_criterion_1_closed_form_bounds():
    with criterion(1, "closed-form bounds match exact rational recomputation"):
        started = time.perf_counter()
        for m in range(2, 101):
            mf = Fraction(m)
            lam1 = mf / (mf - 1)
            lam_sea = (2 * mf - 1) / (2 * (mf - 1))
            gam1 = (mf / (mf - 1)) ** 2
            gam_sea = mf * (mf - Fraction(1, 2)) / (mf - 1) ** 2
            got_lam_sea, got_lam1 = theory.ncl_lambda_bounds(m)
            got_gam_sea, got_gam1 = theory.nclstar_gamma_bounds(m)
            assert abs(got_lam1 - float(lam1)) < 1e-12
            assert abs(got_lam_sea - float(lam_sea)) < 1e-12
            assert abs(got_gam1 - float(gam1)) < 1e-12
            assert abs(got_gam_sea - float(gam_sea)) < 1e-12
            assert got_lam_sea < got_lam1
            assert got_gam_sea < got_gam1
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. mapping consistency


def test_criterion_2_mapping_round_trips():
    with criterion(2, "k<->gamma and k<->lambda round trips at 1e-12"):
        started = time.perf_counter()
        ks = np.linspace(-0.2, 2.2, 1000)
        for m in range(2, 101):
            singular = -1.0 / (m - 1)
            use = ks[np.abs(ks - singular) > 1e-6]
            back = theory.k_from_gamma(theory.gamma_from_k(use, m), m)
            np.testing.assert_allclose(back, use, rtol=0, atol=1e-12)
            back = theory.k_from_lambda(theory.lambda_from_k(use, m), m)
            np.testing.assert_allclose(back, use, rtol=0, atol=1e-12)
            _, hi = theory.sea_k_bounds(m)
            gamma_sea = theory.nclstar_gamma_bounds(m)[0]
            assert abs(theory.gamma_from_k(hi, m) - gamma_sea) < 1e-12
        assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# 3. gradient correctness


def test_criterion_3_gradients_match_finite_differences():
    with criterion(3, "loss gradients (1e-8) and net backward (1e-6) vs finite differences"):
        started = time.perf_counter()
        for result in gradcheck.check_loss_gradients(n_states=1000, tol=1e-8):
            assert result.passed, f"{result.name}: worst {result.worst_rel_err:.3e}"
        back = gradcheck.check_mlp_backward(n_nets=50, tol=1e-6)
        assert back.passed, f"backward: worst {back.worst_rel_err:.3e}"
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 4. sea-ncl gradient proportionality


def test_criterion_4_sea_ncl_proportionality():
    with criterion(4, "sea gradient = (1+k(M-1)) * ncl gradient at lambda(k), 1e-12"):
        started = time.perf_counter()
        result = gradcheck.check_sea_ncl_proportionality(n_states=1000, tol=1e-12)
        assert result.passed, f"worst {result.worst_rel_err:.3e}"
        assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# 5. k=0 equivalence


def test_criterion_5_independent_equals_sea_k0():
    with criterion(5, "sea k=0 and independent: bit-identical 50-epoch trajectories"):
        started = time.perf_counter()
        ds, _ = standardize(synth_regression(400, 0.1, SEED))
        ens_a = build_ensemble(2, [10, 10], 1, 5, MethodConfig("sea", 0.0), seed=SEED)
        ens_b = build_ensemble(2, [10, 10], 1, 5, MethodConfig("independent"), seed=SEED)
        for _ in range(50):
            train_epoch(ens_a, ds.features, ds.targets, 0.02)
            train_epoch(ens_b, ds.features, ds.targets, 0.02)
            for ma, mb in zip(ens_a.learners, ens_b.learners):
                for wa, wb in zip(ma.weights, mb.weights):
                    assert np.array_equal(wa, wb)
                for ba, bb in zip(ma.biases, mb.biases):
                    assert np.array_equal(ba, bb)
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 6+7. empirical boundary and in-range descent (shared runs)


@pytest.fixture(scope="module")
def boundary_sweep():
    cfg = ExperimentConfig(
        name="acceptance-boundary",
        synth=SynthSpec(n=400, noise_sd=0.1),
        method="sea",
        grid=geometric_grid(-0.5, 2.5, 0.1),
        m_list=(3, 5, 10),
        folds=2,
        epochs=1500,
        alpha=0.002,
        hidden=(10, 10),
        seed=SEED,
        outdir="unused",
        workers=WORKERS,
    )
    started = time.perf_counter()
    result = run_sweep(cfg)
    return cfg, result, time.perf_counter() - started


@pytest.mark.slow
def test_criterion_6_empirical_boundary(boundary_sweep):
    with criterion(6, "estimated boundary in (1.0, theory bound + one step] for M in {3,5,10}"):
        cfg, result, elapsed = boundary_sweep
        assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
        for m in cfg.m_list:
            est = estimate_real_boundary(boundary_curve(result, m), cfg.task)
            hi = theory.sea_k_bounds(m)[1]
            assert est.boundary_param is not None, f"M={m}: no boundary found"
            assert est.boundary_param <= hi + 0.1 + 1e-9, (
                f"M={m}: boundary {est.boundary_param} beyond {hi + 0.1:.4f}"
            )
            assert est.boundary_param > 1.0, f"M={m}: boundary {est.boundary_param} <= 1.0"


def epoch0_level(cfg: ExperimentConfig, m: int) -> float:
    """The untrained ensemble's metric on the scoring set, as the mean over folds.

    Each fold's data comes from ``fold_data``, as the sweep's does, and its
    ensemble is the method's initial one from the fold's seed. Every grid
    point of a fold starts from it.
    """
    ds = load_dataset(cfg)
    split = fold_split_for(cfg, ds.n_samples)
    levels = []
    for fold in range(cfg.folds):
        train, eval_ds = fold_data(cfg, ds, split, fold)
        ens = build_ensemble(train.n_features, list(cfg.hidden), train.n_outputs, m, MethodConfig(cfg.method),
                             seed=fold_seed(cfg, fold), n_train=train.n_samples)
        levels.append(ensemble_metric(forward_batch(ens.net, eval_ds.features)[0], eval_ds.targets, cfg.task))
    return float(np.mean(levels))


@pytest.mark.slow
def test_criterion_7_descent_inside_effective_range(boundary_sweep):
    with criterion(7, "every k in [0,2]: trained test RMSE below the epoch-0 level"):
        cfg, result, _ = boundary_sweep
        for m in cfg.m_list:
            epoch0 = epoch0_level(cfg, m)
            for param in cfg.grid:
                if not 0.0 <= param <= 2.0:
                    continue
                rows = [r for r in result.rows if r.m == m and r.param == param]
                assert rows and not any(r.diverged for r in rows), f"M={m} k={param} diverged"
                final = float(np.mean([r.metric for r in rows]))
                assert final < epoch0, f"M={m} k={param}: {final:.4f} >= {epoch0:.4f}"


# ---------------------------------------------------------------------------
# 8. diversity uniformity


@pytest.mark.slow
def test_criterion_8_diversity_uniformity():
    with criterion(8, "R2(sea std-k) >= R2(ncl std-lambda); sea theory fit < 25% rel RMS"):
        started = time.perf_counter()
        grid = geometric_grid(0.0, 1.0, 0.1)

        def sweep(method: str, epochs: int):
            return run_sweep(ExperimentConfig(
                name="acceptance-diversity",
                synth=SynthSpec(n=400, noise_sd=0.1),
                method=method,
                grid=grid,
                m_list=(5, 20),
                folds=2,
                epochs=epochs,
                alpha=0.002,
                hidden=(10, 10),
                seed=SEED,
                outdir="unused",
                workers=WORKERS,
            ))

        # Comparative uniformity is a converged-regime claim: long budget.
        long_sea, long_ncl = sweep("sea", 1500), sweep("ncl", 1500)
        for m in (5, 20):
            sea = diversity_profile(long_sea, m)
            ncl = diversity_profile(long_ncl, m)
            assert sea.r_squared >= ncl.r_squared, (
                f"M={m}: R2 sea {sea.r_squared:.3f} < ncl {ncl.r_squared:.3f}"
            )
        # The linear std law is derived assuming comparable ensemble errors
        # across parameters, which holds at a moderate budget; validate the
        # fitted theory curve there.
        short_sea = sweep("sea", 250)
        for m in (5, 20):
            sea = diversity_profile(short_sea, m)
            assert sea.rel_rms_deviation < 0.25, (
                f"M={m}: rel RMS deviation {sea.rel_rms_deviation:.3f}"
            )
        assert time.perf_counter() - started < 600.0


# ---------------------------------------------------------------------------
# 9. ablation ordering


def _best_over_grid(rows, params) -> float:
    best = np.inf
    for p in params:
        vals = [r.metric for r in rows if r.param == p and not r.diverged]
        if vals:
            best = min(best, float(np.mean(vals)))
    return best


def _ablation_ordering(cfg_base: dict) -> tuple[float, float, float]:
    sea_cfg = ExperimentConfig.from_dict(
        {**cfg_base, "method": "sea", "grid": list(geometric_grid(0.0, 2.0, 0.1))}
    )
    ncl_cfg = ExperimentConfig.from_dict(
        {**cfg_base, "method": "ncl", "grid": list(geometric_grid(0.0, 1.0, 0.1))}
    )
    sea_rows = run_sweep(sea_cfg).rows
    ncl_rows = run_sweep(ncl_cfg).rows
    best_sea_02 = _best_over_grid(sea_rows, [p for p in sea_cfg.grid])
    best_sea_01 = _best_over_grid(sea_rows, [p for p in sea_cfg.grid if p <= 1.0])
    best_ncl = _best_over_grid(ncl_rows, ncl_cfg.grid)
    return best_sea_02, best_sea_01, best_ncl


TIE_TOLERANCE = 1.02


@pytest.mark.slow
def test_criterion_9_ablation_ordering_synthetic():
    with criterion(9, "best RMSE: sea[0,2] <= sea[0,1] <= ncl[0,1] on synthetic data"):
        started = time.perf_counter()
        base = ExperimentConfig(
            name="acceptance-ablation",
            synth=SynthSpec(n=400, noise_sd=0.1),
            m_list=(5,),
            folds=5,
            epochs=1500,
            alpha=0.002,
            hidden=(10, 10),
            seed=SEED,
            outdir="unused",
            workers=WORKERS,
        ).to_dict()
        sea02, sea01, ncl = _ablation_ordering(base)
        assert sea02 <= sea01, f"{sea02:.4f} > {sea01:.4f}"
        assert sea01 <= ncl * TIE_TOLERANCE, f"sea[0,1] {sea01:.4f} > ncl {ncl:.4f} * 1.02"
        assert time.perf_counter() - started < 1800.0


def _libsvm_data_dir() -> Path | None:
    env = os.environ.get("SEA_DATA_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for d in candidates:
        if d.is_dir():
            return d
    return None


@pytest.mark.slow
def test_criterion_9_ablation_ordering_libsvm():
    data_dir = _libsvm_data_dir()
    available = []
    if data_dir is not None:
        for name in ("housing", "mpg"):
            path = data_dir / f"{name}.libsvm"
            if path.exists():
                available.append(path)
    if not available:
        pytest.skip(
            "housing.libsvm / mpg.libsvm not found (no network in this environment); "
            "drop the LIBSVM files into ./data or set SEA_DATA_DIR to enable"
        )
    with criterion(9, "best RMSE ordering on at least 1 of the LIBSVM datasets"):
        started = time.perf_counter()
        ok = 0
        for path in available:
            base = ExperimentConfig(
                name=f"acceptance-ablation-{path.stem}",
                dataset_path=str(path),
                synth=None,
                m_list=(5,),
                folds=5,
                epochs=1500,
                alpha=0.002,
                hidden=(10, 10),
                seed=SEED,
                outdir="unused",
                workers=WORKERS,
            ).to_dict()
            sea02, sea01, ncl = _ablation_ordering(base)
            if sea02 <= sea01 and sea01 <= ncl * TIE_TOLERANCE:
                ok += 1
        assert ok >= 1, "ordering held on none of the available LIBSVM datasets"
        assert time.perf_counter() - started < 1800.0


# ---------------------------------------------------------------------------
# 10. data and CLI plumbing


def test_criterion_10_plumbing(tmp_path):
    with criterion(10, "LIBSVM round-trip, moments, folds, CSV determinism, exit codes"):
        started = time.perf_counter()

        rng = np.random.default_rng(SEED)
        feats = rng.normal(size=(30, 7))
        feats[rng.random(size=feats.shape) < 0.4] = 0.0
        ds = Dataset("rt", feats, rng.normal(size=30))
        back = parse_libsvm(serialize_libsvm(ds), n_features=7, name="rt")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

        std_ds, _ = standardize(Dataset("m", rng.normal(2.0, 3.0, size=(100, 5)), rng.normal(size=100)))
        assert np.abs(std_ds.features.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(std_ds.features.std(axis=0), 1.0, atol=1e-10)

        for n in range(2, 1001):
            split = kfold_split(n, min(5, n), seed=n)
            combined = np.sort(np.concatenate(split.folds))
            assert np.array_equal(combined, np.arange(n))

        cfg = ExperimentConfig(
            name="plumbing", synth=SynthSpec(n=40, noise_sd=0.1), method="sea",
            grid=(0.0, 1.0), m_list=(3,), folds=2, epochs=3, alpha=0.05,
            hidden=(4,), seed=SEED, outdir=str(tmp_path),
        )
        p1 = persist_sweep(run_sweep(cfg), tmp_path / "a")
        p2 = persist_sweep(run_sweep(cfg), tmp_path / "b")
        assert p1[0].read_bytes() == p2[0].read_bytes()

        assert cli_main([]) == 1
        assert cli_main(["sweep", "--bogus-flag"]) == 1
        assert cli_main(["bounds", "--m", "2..5", "--outdir", str(tmp_path / "c")]) == 0
        missing = str(tmp_path / "missing.libsvm")
        assert cli_main(["sweep", "--dataset", missing, "--outdir", str(tmp_path / "d"),
                         "--epochs", "1", "--grid", "0", "--m", "2", "--folds", "2"]) == 2

        assert time.perf_counter() - started < 10.0
