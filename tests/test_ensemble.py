import json

import numpy as np
import pytest

from sea_ensemble import gradcheck, theory
from sea_ensemble.data import standardize, synth_regression
from sea_ensemble.ensemble import (
    EnsembleModel,
    MethodConfig,
    bootstrap_indices,
    build_ensemble,
    complementary_prediction,
    ensemble_from_json,
    ensemble_to_json,
    learner_losses,
    output_gradients,
    predictions_batch,
    train_epoch,
)
from sea_ensemble.mlp import MLP, DivergenceError, backward_batch, forward_batch, init_mlp, sgd_step


def table_diff(preds: np.ndarray, t: np.ndarray, config: MethodConfig, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of learner_losses with the anchor fixed at ``preds``.

    All the ensemble losses are quadratic in f, so the central difference
    has no truncation error and a relatively large h minimizes rounding noise.
    Learner i's loss reads only row i of the live stack, so perturbing one
    element of every learner at once gives all M derivatives.
    """
    g = np.zeros_like(preds)
    for s, j in np.ndindex(*preds.shape[1:]):
        fp = preds.copy()
        fm = preds.copy()
        fp[:, s, j] += h
        fm[:, s, j] -= h
        g[:, s, j] = (
            learner_losses(fp, preds, t, config)[:, s] - learner_losses(fm, preds, t, config)[:, s]
        ) / (2 * h)
    return g


def stack(*rows) -> np.ndarray:
    """(M, 1, O) prediction stack from M per-learner O-vectors of one sample."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), 1, -1)


def rel_err(a, b) -> float:
    a, b = np.ravel(a), np.ravel(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def assert_fd_match(rng, config_of, n_states: int = 200) -> None:
    """output_gradients vs table_diff on random stacks, every (learner, sample) row to 1e-8."""
    for _ in range(n_states):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, 4))
        o = int(rng.integers(1, 6))
        preds = rng.normal(size=(m, n, o))
        t = rng.normal(size=(n, o))
        config = config_of(rng)
        grad = output_gradients(preds, t, config)
        fd = table_diff(preds, t, config)
        for i in range(m):
            for s in range(n):
                assert rel_err(grad[i, s], fd[i, s]) < 1e-8


def sq_error(ens: EnsembleModel, x: np.ndarray, t: np.ndarray) -> float:
    """Mean over samples of sum_dims (fbar - t)^2."""
    fbar = predictions_batch(ens, x)[0].mean(axis=0)
    return float(((fbar - t) ** 2).sum(axis=1).mean())


class TestComplementaryPrediction:
    def test_on_target_means_identity(self):
        preds = np.array([[0.0], [0.0], [3.0]])
        t = np.array([1.0])  # fbar == t
        np.testing.assert_allclose(complementary_prediction(preds, t), preds)

    def test_two_learner_hand_case(self):
        preds = np.array([[1.0], [2.0]])
        t = np.array([2.0])
        g = complementary_prediction(preds, t)
        np.testing.assert_allclose(g[0], [2.0])
        np.testing.assert_allclose(g[1], [3.0])
        # replacing f_0 by g_0 makes the ensemble hit the target
        assert (preds[1] + g[0]) / 2 == pytest.approx(2.0)

    def test_identity_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.integers(2, 51))
            o = int(rng.integers(1, 6))
            preds = rng.normal(size=(m, o))
            t = rng.normal(size=o)
            i = int(rng.integers(0, m))
            g = complementary_prediction(preds, t)[i]
            rebuilt = (preds.sum(axis=0) - preds[i] + g) / m
            np.testing.assert_allclose(rebuilt, t, rtol=0, atol=1e-12)


class TestSeaLoss:
    def test_k_zero_is_half_squared_error(self):
        preds, t = stack([2.0], [9.0]), np.array([[0.5]])
        assert learner_losses(preds, preds, t, MethodConfig("sea", 0.0))[0, 0] == pytest.approx(0.5 * 1.5**2)

    def test_k_one_coincidence(self):
        # fbar == t makes g_i == f_i, and at k = 1 the loss vanishes
        preds, t = stack([1.3, -2.0], [-1.3, 4.0]), np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(learner_losses(preds, preds, t, MethodConfig("sea", 1.0)), 0.0)

    def test_hand_value(self):
        # M=2, f=(1,1), t=2: g_0 = 2(2 - 1) + 1 = 3
        preds, t = stack([1.0], [1.0]), np.array([[2.0]])
        assert learner_losses(preds, preds, t, MethodConfig("sea", 0.5))[0, 0] == pytest.approx(1.125)

    def test_gradient_k0(self):
        preds, t = stack([1.0, 2.0], [5.0, 5.0]), np.array([[0.0, 0.0]])
        np.testing.assert_allclose(output_gradients(preds, t, MethodConfig("sea", 0.0)), preds - t)

    def test_gradient_hand_value(self):
        preds, t = stack([1.0], [1.0]), np.array([[2.0]])
        g = output_gradients(preds, t, MethodConfig("sea", 0.5))
        np.testing.assert_allclose(g[0, 0], [-1.5])

    def test_gradient_matches_finite_differences(self):
        assert_fd_match(np.random.default_rng(0), lambda rng: MethodConfig("sea", rng.uniform(-0.5, 2.5)))


class TestNclLoss:
    def test_lambda_zero_is_mse(self):
        preds, t = stack([1.0], [3.0]), np.array([[2.0]])
        assert learner_losses(preds, preds, t, MethodConfig("ncl", 0.0))[0, 0] == pytest.approx(0.5)
        np.testing.assert_allclose(output_gradients(preds, t, MethodConfig("ncl", 0.0))[0, 0], [-1.0])

    def test_equal_predictions_zero_penalty(self):
        preds, t = stack([1.7], [1.7], [1.7], [1.7]), np.array([[0.0]])
        config = MethodConfig("ncl", 0.8)
        assert learner_losses(preds, preds, t, config)[0, 0] == pytest.approx(0.5 * 1.7**2)
        np.testing.assert_allclose(output_gradients(preds, t, config)[0, 0], [1.7])

    def test_hand_gradient(self):
        preds, t = stack([1.0], [3.0]), np.array([[2.0]])
        g = output_gradients(preds, t, MethodConfig("ncl", 0.5))
        np.testing.assert_allclose(g[0, 0], [-0.5])

    def test_gradient_matches_frozen_mean_finite_differences(self):
        assert_fd_match(np.random.default_rng(1), lambda rng: MethodConfig("ncl", rng.uniform(-0.5, 1.5)))


class TestNclStarLoss:
    def test_gamma_zero_is_mse(self):
        # f_0 = 2 with fbar = 1 over M = 5 learners
        preds, t = stack([2.0], [0.75], [0.75], [0.75], [0.75]), np.array([[0.0]])
        config = MethodConfig("nclstar", 0.0)
        assert learner_losses(preds, preds, t, config)[0, 0] == pytest.approx(2.0)
        np.testing.assert_allclose(output_gradients(preds, t, config)[0, 0], [2.0])

    def test_at_mean_gradient_is_error(self):
        preds, t = stack([1.4], [1.4], [1.4]), np.array([[0.4]])
        np.testing.assert_allclose(output_gradients(preds, t, MethodConfig("nclstar", 0.9))[0, 0], [1.0])

    def test_hand_gradient(self):
        # M=2, f=(1,3), t=2, gamma=1: delta_1 = (1-2) - (1/2)(1-2) = -0.5
        preds, t = stack([1.0], [3.0]), np.array([[2.0]])
        g = output_gradients(preds, t, MethodConfig("nclstar", 1.0))
        np.testing.assert_allclose(g[0, 0], [-0.5])

    def test_gradient_matches_live_mean_finite_differences(self):
        # The table recomputes fbar from the perturbed f_i, so the (1 - 1/M)
        # correction is what finite differences must reproduce.
        assert_fd_match(
            np.random.default_rng(2), lambda rng: MethodConfig("nclstar", rng.uniform(-0.5, 1.5))
        )


class TestGradientRelations:
    def test_sea_ncl_proportionality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(2, 21))
            n = int(rng.integers(1, 4))
            o = int(rng.integers(1, 6))
            preds = rng.normal(size=(m, n, o))
            t = rng.normal(size=(n, o))
            lo = -1.0 / (m - 1)
            k = float(rng.uniform(lo + 0.05, 2.2))
            sea = output_gradients(preds, t, MethodConfig("sea", k))
            lam = theory.lambda_from_k(k, m)
            ncl = output_gradients(preds, t, MethodConfig("ncl", lam))
            np.testing.assert_allclose(sea, (1 + k * (m - 1)) * ncl, rtol=1e-12, atol=1e-12)

    def test_nclstar_equals_ncl_with_mapped_lambda(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            m = int(rng.integers(2, 21))
            n = int(rng.integers(1, 4))
            o = int(rng.integers(1, 6))
            preds = rng.normal(size=(m, n, o))
            t = rng.normal(size=(n, o))
            gamma = float(rng.uniform(-1.0, 1.5))
            star = output_gradients(preds, t, MethodConfig("nclstar", gamma))
            lam = gamma * (m - 1.0) / m
            ncl = output_gradients(preds, t, MethodConfig("ncl", lam))
            np.testing.assert_array_equal(star, ncl)

    def test_k_one_step_contracts_toward_complement(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 21))
            o = int(rng.integers(1, 6))
            preds = rng.normal(size=(m, 1, o))
            t = rng.normal(size=(1, o))
            g = complementary_prediction(preds, t)
            alpha = 0.1
            step = output_gradients(preds, t, MethodConfig("sea", 1.0))
            f2 = preds - alpha * step
            for i in range(m):
                assert np.linalg.norm(f2[i] - g[i]) < np.linalg.norm(preds[i] - g[i]) or np.allclose(
                    preds[i], g[i]
                )


class TestEnsemblePredict:
    def _two_constant_learners(self, y0: float, y1: float) -> EnsembleModel:
        mk = lambda y: MLP((np.zeros((1, 1)),), (np.array([y]),))
        return EnsembleModel([mk(y0), mk(y1)], MethodConfig("sea", 0.5), seed=0)

    def test_mean_of_equals(self):
        ens = self._two_constant_learners(1.5, 1.5)
        np.testing.assert_allclose(predictions_batch(ens, np.array([[0.0]]))[0].mean(axis=0), [[1.5]])

    def test_arithmetic_mean(self):
        ens = self._two_constant_learners(1.0, 3.0)
        np.testing.assert_allclose(predictions_batch(ens, np.array([[7.0]]))[0].mean(axis=0), [[2.0]])

    def test_symmetric_perturbation(self):
        base = 0.7
        ens = self._two_constant_learners(base + 0.3, base - 0.3)
        np.testing.assert_allclose(predictions_batch(ens, np.array([[0.0]]))[0].mean(axis=0), [[base]])


class TestDispatch:
    def test_independent_is_sea_k0(self):
        rng = np.random.default_rng(6)
        preds = rng.normal(size=(4, 10, 2))
        t = rng.normal(size=(10, 2))
        a = output_gradients(preds, t, MethodConfig("independent"))
        b = output_gradients(preds, t, MethodConfig("sea", 0.0))
        np.testing.assert_array_equal(a, b)

    def test_vectorized_matches_per_sample_ops(self):
        rng = np.random.default_rng(7)
        m, n, o = 5, 8, 3
        preds = rng.normal(size=(m, n, o))
        t = rng.normal(size=(n, o))
        k = 0.7
        deltas = output_gradients(preds, t, MethodConfig("sea", k))
        for i in range(m):
            for s in range(n):
                fbar = preds[:, s, :].mean(axis=0)
                g_i = m * (t[s] - fbar) + preds[i, s]
                expected = (preds[i, s] - t[s]) - k * (g_i - t[s])
                np.testing.assert_allclose(deltas[i, s], expected, rtol=0, atol=1e-12)

    def test_loss_table_at_anchor_matches_hand_formulas(self):
        rng = np.random.default_rng(8)
        m, n, o = 4, 6, 2
        preds = rng.normal(size=(m, n, o))
        t = rng.normal(size=(n, o))
        fbar = preds.mean(axis=0)
        sq = 0.5 * ((preds - t) ** 2).sum(axis=2)
        dev2 = ((preds - fbar) ** 2).sum(axis=2)
        g = complementary_prediction(preds, t)
        r = (preds - t) - 0.7 * (g - t)
        np.testing.assert_allclose(
            learner_losses(preds, preds, t, MethodConfig("sea", 0.7)), 0.5 * (r * r).sum(axis=2), rtol=1e-12
        )
        # classical penalty (f_i - fbar) . sum_{j != i} (f_j - fbar) = -|f_i - fbar|^2
        np.testing.assert_allclose(
            learner_losses(preds, preds, t, MethodConfig("ncl", 0.6)), sq - 0.6 * dev2, rtol=1e-12
        )
        np.testing.assert_allclose(
            learner_losses(preds, preds, t, MethodConfig("nclstar", 0.6)), sq - 0.3 * dev2, rtol=1e-12
        )
        for method in ("independent", "bagging"):
            np.testing.assert_array_equal(learner_losses(preds, preds, t, MethodConfig(method)), sq)


class TestTrainEpoch:
    def test_two_linear_learners_hand_update(self):
        learners = [
            MLP((np.array([[0.5]]),), (np.array([0.1]),)),
            MLP((np.array([[-0.25]]),), (np.array([0.2]),)),
        ]
        ens = EnsembleModel(learners, MethodConfig("sea", 0.5), seed=0)
        x = np.array([[2.0]])
        t = np.array([[1.0]])
        train_epoch(ens, x, t, alpha=0.1)
        # f = (1.1, -0.3), fbar = 0.4, g = (2.3, 0.9)
        # delta = (f - t) - 0.5 (g - t) = (-0.55, -1.25)
        # dW_i = delta_i * x, db_i = delta_i
        assert ens.learners[0].weights[0][0, 0] == pytest.approx(0.5 + 0.1 * 0.55 * 2)
        assert ens.learners[0].biases[0][0] == pytest.approx(0.1 + 0.1 * 0.55)
        assert ens.learners[1].weights[0][0, 0] == pytest.approx(-0.25 + 0.1 * 1.25 * 2)
        assert ens.learners[1].biases[0][0] == pytest.approx(0.2 + 0.1 * 1.25)

    def test_empty_batch_rejected(self):
        ens = build_ensemble(2, [3], 1, 2, MethodConfig("sea", 0.5), seed=1)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(ens, np.zeros((0, 2)), np.zeros((0, 1)), 0.1)

    def test_sea_k0_identical_to_independent(self):
        ds, _ = standardize(synth_regression(60, 0.1, 10))
        trajectories = []
        for method in (MethodConfig("sea", 0.0), MethodConfig("independent")):
            ens = build_ensemble(2, [5], 1, 3, method, seed=99)
            for _ in range(5):
                train_epoch(ens, ds.features, ds.targets, 0.05)
            trajectories.append([w.copy() for m in ens.learners for w in m.weights])
        for wa, wb in zip(*trajectories):
            np.testing.assert_array_equal(wa, wb)

    def test_ensemble_error_descends_inside_range(self):
        # alpha is scaled down because the sea gradient magnitude grows with
        # 1 + k(M-1); plain SGD overshoots at k=2, M=5 with larger rates.
        ds, _ = standardize(synth_regression(200, 0.1, 21))
        for k in (0.0, 0.5, 1.0, 1.5, 2.0):
            ens = build_ensemble(2, [10, 10], 1, 5, MethodConfig("sea", k), seed=7)
            first_sq = sq_error(ens, ds.features, ds.targets)
            for _ in range(50):
                train_epoch(ens, ds.features, ds.targets, 0.02)
            final_sq = sq_error(ens, ds.features, ds.targets)
            assert final_sq < first_sq, f"no descent at k={k}"

    def test_diagnostics_fields(self):
        # train_epoch reports nothing; the per-step quantities come from the
        # loss table and the predictions when a caller asks for them
        ds, _ = standardize(synth_regression(30, 0.1, 3))
        ens = build_ensemble(2, [4], 1, 4, MethodConfig("ncl", 0.5), seed=2)
        preds, _ = predictions_batch(ens, ds.features)
        losses = learner_losses(preds, preds, ds.targets, ens.config).mean(axis=1)
        assert train_epoch(ens, ds.features, ds.targets, 0.05) is None
        assert losses.shape == (4,)
        assert float(((preds.mean(axis=0) - ds.targets) ** 2).sum(axis=1).mean()) >= 0
        assert theory.empirical_std(preds) >= 0


def hand_step(learners, config, x, t, alpha, bootstrap=None):
    """One train_epoch done learner by learner with the single-network kernels; steps ``learners``."""
    outs = [forward_batch(net, x) for net in learners]
    deltas = output_gradients(np.stack([y for y, _ in outs]), t, config)
    if bootstrap is not None:
        deltas *= np.stack([np.bincount(idx, minlength=len(x)) for idx in bootstrap])[:, :, None]
    for i, (net, (_, trace)) in enumerate(zip(learners, outs)):
        sgd_step(net, backward_batch(net, trace, deltas[i] / len(x)), alpha)
    return learners


class TestStackedStep:
    @pytest.mark.parametrize(
        "method,param", [("independent", 0.0), ("sea", 0.7), ("ncl", 0.4), ("nclstar", 0.6), ("bagging", 0.0)]
    )
    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_matches_single_network_kernels(self, method, param, m, rows):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        x, t = ds.features, ds.targets
        if rows is not None:
            x, t = x[3 : 3 + rows], t[3 : 3 + rows]
        ens = build_ensemble(2, [6, 4], 1, m, MethodConfig(method, param), seed=17, n_train=len(x))
        expected = hand_step(ens.learners, ens.config, x, t, 0.1, ens.bootstrap)
        train_epoch(ens, x, t, 0.1)
        assert len(ens.learners) == m
        for got, want in zip(ens.learners, expected):
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                np.testing.assert_array_equal(a, b)

    def test_divergence_names_learner_and_leaves_stack_unchanged(self):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        learners = build_ensemble(2, [6, 4], 1, 5, MethodConfig("independent"), seed=17).learners
        blown = learners[2]
        learners[2] = MLP(blown.weights[:-1] + (np.full_like(blown.weights[-1], 1e300),), blown.biases)
        ens = EnsembleModel(learners, MethodConfig("independent"), seed=17)
        before = [a.copy() for a in ens.net.weights + ens.net.biases]
        with pytest.raises(DivergenceError) as exc:
            train_epoch(ens, ds.features, ds.targets, 0.1)
        assert exc.value.learner == 2
        after = ens.net.weights + ens.net.biases
        assert len(after) == len(before)
        for a, b in zip(after, before):
            np.testing.assert_array_equal(a, b)

    def test_step_builds_no_mlp_and_replaces_arrays(self, monkeypatch):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = build_ensemble(2, [6, 4], 1, 5, MethodConfig("sea", 0.5), seed=17)
        views = ens.learners
        view_values = [[a.copy() for a in v.weights + v.biases] for v in views]
        arrays = ens.net.weights + ens.net.biases
        values = [a.copy() for a in arrays]
        built = []
        real = MLP.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(MLP, "__post_init__", counting)
        train_epoch(ens, ds.features, ds.targets, 0.1)
        assert len(built) == 0
        for v, want in zip(views, view_values):
            for a, b in zip(v.weights + v.biases, want):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(arrays, values):
            np.testing.assert_array_equal(a, b)
        assert not all(np.array_equal(a, b) for a, b in zip(ens.net.weights + ens.net.biases, values))

    def test_mismatched_learner_shapes_rejected(self):
        a = init_mlp(2, [3], 1, 0)
        b = init_mlp(2, [4], 1, 1)
        with pytest.raises(ValueError, match="learner 1"):
            EnsembleModel([a, b], MethodConfig("sea", 0.5), seed=0)


class TestBagging:
    def test_bootstrap_shapes_and_determinism(self):
        a = bootstrap_indices(17, 4, 5)
        b = bootstrap_indices(17, 4, 5)
        assert len(a) == 4 and all(len(idx) == 17 for idx in a)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia, ib)

    def test_single_forced(self):
        assert bootstrap_indices(1, 1, 0)[0].tolist() == [0]

    def test_distinct_fraction_near_one_minus_inv_e(self):
        fracs = []
        for seed in range(50):
            idx = bootstrap_indices(100, 1, seed)[0]
            fracs.append(len(np.unique(idx)) / 100)
        assert abs(np.mean(fracs) - (1 - np.exp(-1))) < 0.1

    def test_bagging_trains(self):
        ds, _ = standardize(synth_regression(80, 0.1, 9))
        ens = build_ensemble(
            2, [5], 1, 3, MethodConfig("bagging"), seed=4, n_train=ds.n_samples
        )
        train_epoch(ens, ds.features, ds.targets, 0.1)
        first_sq = sq_error(ens, ds.features, ds.targets)
        for _ in range(30):
            train_epoch(ens, ds.features, ds.targets, 0.1)
        assert sq_error(ens, ds.features, ds.targets) < first_sq

    def test_step_is_independent_loss_on_bootstrap_rows(self):
        ds, _ = standardize(synth_regression(50, 0.1, 12))
        ens = build_ensemble(2, [6, 4], 1, 3, MethodConfig("bagging"), seed=8, n_train=ds.n_samples)
        expected = []
        for learner, idx in zip(ens.learners, ens.bootstrap):
            y, trace = forward_batch(learner, ds.features[idx])
            grads = backward_batch(learner, trace, (y - ds.targets[idx]) / len(idx))
            sgd_step(learner, grads, 0.1)
            expected.append(learner)
        train_epoch(ens, ds.features, ds.targets, 0.1)
        for got, want in zip(ens.learners, expected):
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_bootstrap_beyond_batch_rejected(self):
        ds, _ = standardize(synth_regression(20, 0.1, 1))
        ens = build_ensemble(2, [3], 1, 2, MethodConfig("bagging"), seed=0, n_train=ds.n_samples)
        with pytest.raises(ValueError, match="exceed batch size"):
            train_epoch(ens, ds.features[:10], ds.targets[:10], 0.1)


class TestGradcheck:
    def test_wrong_convention_fails(self, monkeypatch):
        real = gradcheck.output_gradients

        def ncl_for_nclstar(preds, t, config):
            if config.method == "nclstar":
                config = MethodConfig("ncl", config.param)
            return real(preds, t, config)

        monkeypatch.setattr(gradcheck, "output_gradients", ncl_for_nclstar)
        results = {r.name: r for r in gradcheck.check_loss_gradients(n_states=50)}
        assert not results["nclstar_gradient"].passed
        assert results["sea_gradient"].passed and results["ncl_gradient"].passed


class TestCheckpoint:
    def test_roundtrip_and_resume(self):
        ds, _ = standardize(synth_regression(40, 0.1, 6))
        ens = build_ensemble(2, [4], 1, 3, MethodConfig("sea", 1.0), seed=11)
        train_epoch(ens, ds.features, ds.targets, 0.05)
        blob = ensemble_to_json(ens)
        restored = ensemble_from_json(blob)
        # one more epoch from both copies stays bit-identical
        train_epoch(ens, ds.features, ds.targets, 0.05)
        train_epoch(restored, ds.features, ds.targets, 0.05)
        for ma, mb in zip(ens.learners, restored.learners):
            for wa, wb in zip(ma.weights, mb.weights):
                np.testing.assert_array_equal(wa, wb)

    @staticmethod
    def bagging_doc() -> dict:
        """A bagging checkpoint, M=3 learners over n=30 rows, as the JSON document."""
        ens = build_ensemble(2, [3], 1, 3, MethodConfig("bagging"), seed=5, n_train=30)
        doc = json.loads(ensemble_to_json(ens))
        ensemble_from_json(json.dumps(doc))  # loads unedited
        return doc

    def test_bootstrap_on_other_method_rejected(self):
        doc = self.bagging_doc()
        doc["method"], doc["param"] = "sea", 0.5
        with pytest.raises(ValueError, match="only bagging"):
            ensemble_from_json(json.dumps(doc))

    def test_bootstrap_row_per_learner_required(self):
        doc = self.bagging_doc()
        doc["bootstrap"] = doc["bootstrap"][:1]
        with pytest.raises(ValueError, match=r"\(M=3, n\)"):
            ensemble_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [-1, 30])
    def test_bootstrap_index_outside_rows_rejected(self, value):
        doc = self.bagging_doc()
        doc["bootstrap"][1][4] = value
        with pytest.raises(ValueError, match=r"\[0, 30\)"):
            ensemble_from_json(json.dumps(doc))

    def test_fractional_bootstrap_index_rejected(self):
        doc = self.bagging_doc()
        doc["bootstrap"][0][0] = 24.5
        with pytest.raises(ValueError, match="integers"):
            ensemble_from_json(json.dumps(doc))

    def test_bagging_without_bootstrap_rejected(self):
        doc = self.bagging_doc()
        doc["bootstrap"] = None
        with pytest.raises(ValueError, match="needs bootstrap"):
            ensemble_from_json(json.dumps(doc))

    def test_m1_rejected_for_adjustable(self):
        with pytest.raises(ValueError, match="M >= 2"):
            build_ensemble(2, [3], 1, 1, MethodConfig("sea", 0.5), seed=0)

    def test_out_of_bounds_k_warns_but_builds(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="sea_ensemble.ensemble"):
            build_ensemble(2, [3], 1, 5, MethodConfig("sea", 3.0), seed=0)
        assert any("outside" in r.message for r in caplog.records)
