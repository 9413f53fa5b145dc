import json
import re

import numpy as np
import pytest

from sea_ensemble import gradcheck, theory
from sea_ensemble.data import standardize, synth_regression
from sea_ensemble.ensemble import (
    METHODS,
    EnsembleModel,
    MethodConfig,
    bootstrap_indices,
    build_ensemble,
    complementary_prediction,
    drawn_batch,
    drawn_rows,
    ensemble_from_json,
    ensemble_to_json,
    epoch_steps,
    learner_losses,
    output_gradients,
    train_epoch,
)
from sea_ensemble.mlp import MLP, backward_batch, forward_batch, sgd_step


DELETED = object()
THREE_COUNTS = "shape must be 3 counts (M >= 1, fan_out, fan_in)"


def stack(*rows) -> np.ndarray:
    """(M, 1, O) prediction stack from M per-learner O-vectors of one sample."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), 1, -1)


def rel_err(a, b) -> float:
    a, b = np.ravel(a), np.ravel(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def sq_error(ens: EnsembleModel, x: np.ndarray, t: np.ndarray) -> float:
    """Mean over samples of sum_dims (fbar - t)^2."""
    fbar = forward_batch(ens.net, x)[0].mean(axis=0)
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

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 20])
    def test_unit_step_from_agreement_contracts_by_beta(self, m):
        # sea's loss has unit curvature in f_i, so one unit gradient step jumps learner i to the
        # minimizer of its loss; from learners that all agree, that scales the ensemble error
        # fbar - t by beta = (1-k)(M-1)/M, inside and outside the theoretical interval
        lo, hi = theory.sea_k_bounds(m)
        rng = np.random.default_rng(m)
        fbar = rng.normal(size=(9, 2))
        t = rng.normal(size=(9, 2))
        err = fbar - t
        for k in (-0.3, 0.5, 1.7, 2.3, lo - 0.4, hi + 0.4):
            for i in range(m):
                f = np.repeat(fbar[None], m, axis=0)
                f[i] -= output_gradients(f, t, MethodConfig("sea", k))[i]
                got = f.mean(axis=0) - t
                assert (np.abs(got - theory.beta_from_k(k, m) * err) <= 1e-12 * np.abs(err)).all()

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
        net = MLP(np.array([[0.0, y0], [0.0, y1]]), ((1, 1),))  # per learner [W | b]: a constant b
        return EnsembleModel(net, MethodConfig("sea", 0.5), seed=0)

    def test_mean_of_equals(self):
        ens = self._two_constant_learners(1.5, 1.5)
        np.testing.assert_allclose(forward_batch(ens.net, np.array([[0.0]]))[0].mean(axis=0), [[1.5]])

    def test_arithmetic_mean(self):
        ens = self._two_constant_learners(1.0, 3.0)
        np.testing.assert_allclose(forward_batch(ens.net, np.array([[7.0]]))[0].mean(axis=0), [[2.0]])

    def test_symmetric_perturbation(self):
        base = 0.7
        ens = self._two_constant_learners(base + 0.3, base - 0.3)
        np.testing.assert_allclose(forward_batch(ens.net, np.array([[0.0]]))[0].mean(axis=0), [[base]])


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
        net = MLP(np.array([[0.5, 0.1], [-0.25, 0.2]]), ((1, 1),))  # per learner [W | b]
        ens = EnsembleModel(net, MethodConfig("sea", 0.5), seed=0)
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
        preds, _ = forward_batch(ens.net, ds.features)
        losses = learner_losses(preds, preds, ds.targets, ens.config).mean(axis=1)
        assert train_epoch(ens, ds.features, ds.targets, 0.05) is None
        assert losses.shape == (4,)
        assert float(((preds.mean(axis=0) - ds.targets) ** 2).sum(axis=1).mean()) >= 0
        assert theory.empirical_std(preds) >= 0


def hand_step(ens: EnsembleModel, x: np.ndarray, t: np.ndarray, alpha: float) -> list[MLP]:
    """One train_epoch done learner by learner with the single-network kernels: the stepped learners.

    A bagging learner runs alone on its own drawn rows, weighted by their
    draw counts. The learners are copies, since a step updates its arrays in
    place, so the stack itself is left as it was.
    """
    learners = [MLP(row.copy(), ens.net.shapes) for row in ens.net.theta]
    if ens.rows is None:
        outs = [forward_batch(net, x) for net in learners]
        deltas = output_gradients(np.stack([y for y, _ in outs]), t, ens.config, ens.params)
        n = len(x)
    else:
        m, n = ens.bootstrap.shape
        outs = [forward_batch(net, x[ens.rows[j % m]]) for j, net in enumerate(learners)]
        deltas = [(y - t[ens.rows[j % m]]) * ens.counts[j % m][:, None] for j, (y, _) in enumerate(outs)]
    for net, (_, trace), delta in zip(learners, outs, deltas):
        sgd_step(net, backward_batch(net, trace, delta / n), alpha)
    return learners


def assert_learners_equal(ens: EnsembleModel, expected: list[MLP]) -> None:
    assert len(ens.learners) == len(expected)
    for got, want in zip(ens.learners, expected):
        np.testing.assert_array_equal(got.theta, want.theta)


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
        expected = hand_step(ens, x, t, 0.1)
        train_epoch(ens, x, t, 0.1)
        assert len(ens.learners) == m
        assert_learners_equal(ens, expected)

    def test_divergence_stays_in_the_diverging_learner(self):
        # the step is applied to every learner, and only learner 2 holds non-finite values after it
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = build_ensemble(2, [6, 4], 1, 5, MethodConfig("independent"), seed=17)
        ens.net.weights[-1][2] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            expected = hand_step(ens, ds.features, ds.targets, 0.1)
        train_epoch(ens, ds.features, ds.targets, 0.1)
        assert np.isfinite(ens.net.theta).all(axis=1).tolist() == [i != 2 for i in range(5)]
        assert_learners_equal(ens, expected)

    def test_step_builds_no_mlp_and_updates_in_place(self, monkeypatch):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = build_ensemble(2, [6, 4], 1, 5, MethodConfig("sea", 0.5), seed=17)
        views = ens.learners
        theta, blocks = ens.net.theta, ens.net.blocks
        before = theta.copy()
        expected = hand_step(ens, ds.features, ds.targets, 0.1)
        built = []
        real = MLP.__init__

        def counting(self, *args):
            built.append(self)
            real(self, *args)

        monkeypatch.setattr(MLP, "__init__", counting)
        train_epoch(ens, ds.features, ds.targets, 0.1)
        assert len(built) == 0
        assert ens.net.theta is theta and all(a is b for a, b in zip(ens.net.blocks, blocks))
        assert not np.array_equal(theta, before)
        for v, want in zip(views, expected):  # views taken before the step see it
            np.testing.assert_array_equal(v.theta, want.theta)


class TestGridStack:
    """P ensembles on one (P*M) stack: each slice is bitwise what its ensemble computes alone."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p,m,n", [(11, 20, 10), (31, 10, 200), (21, 5, 320), (3, 3, 7), (4, 9, 1)])
    def test_output_gradients_match_slices(self, method, p, m, n):
        rng = np.random.default_rng([p, m, n])
        params = rng.uniform(-0.5, 2.0, p)
        preds = np.swapaxes(rng.normal(size=(p * m, 1, n)), 1, 2)  # the feature-major layout of forward_batch
        t = rng.normal(size=(n, 1))
        got = output_gradients(preds, t, MethodConfig(method), params)
        assert got.shape == preds.shape
        for j, param in enumerate(params):
            want = output_gradients(preds[j * m : (j + 1) * m], t, MethodConfig(method, param))
            np.testing.assert_array_equal(got[j * m : (j + 1) * m], want)

    @pytest.mark.parametrize("method", METHODS)
    def test_train_epoch_matches_ensembles_alone(self, method):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        grid = [0.0, 0.3, 0.9]
        base = build_ensemble(2, [6, 4], 1, 4, MethodConfig(method), seed=17, n_train=ds.n_samples)
        initial = [a.copy() for a in base.net.weights + base.net.biases]
        stack = base.take([0] * len(grid), grid)
        assert (stack.m, stack.params.tolist()) == (4, grid)
        for _ in range(3):
            train_epoch(stack, ds.features, ds.targets, 0.1)
        for a, b in zip(base.net.weights + base.net.biases, initial):
            np.testing.assert_array_equal(a, b)
        for j, param in enumerate(grid):
            alone = build_ensemble(2, [6, 4], 1, 4, MethodConfig(method, param), seed=17, n_train=ds.n_samples)
            for _ in range(3):
                train_epoch(alone, ds.features, ds.targets, 0.1)
            got = stack.take([j])
            assert got.params.tolist() == [param]
            for a, b in zip(got.net.weights + got.net.biases, alone.net.weights + alone.net.biases):
                np.testing.assert_array_equal(a, b)

    def test_divergence_flags_the_diverging_ensemble(self):
        # k = 60 blows up; its non-finite values stay in its own slice, and the others train on as if alone
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        base = build_ensemble(2, [6, 4], 1, 3, MethodConfig("sea"), seed=17)
        stack, alone = base.take([0, 0, 0], [0.5, 60.0, 0.5]), base.take([0], [0.5])
        for _ in range(53):  # the 50th step overflows
            train_epoch(stack, ds.features, ds.targets, 5.0)
            train_epoch(alone, ds.features, ds.targets, 5.0)
        finite = np.isfinite(stack.net.theta).all(axis=1)
        assert finite[:3].all() and not finite[3:6].all() and finite[6:].all()
        for j in (0, 2):
            np.testing.assert_array_equal(stack.take([j]).net.theta, alone.net.theta)


def test_learners_are_views_and_take_copies():
    ens = build_ensemble(2, [6, 4], 1, 4, MethodConfig("sea", 0.5), seed=17)
    for i, learner in enumerate(ens.learners):
        assert np.shares_memory(learner.theta, ens.net.theta[i])
        for a, b in zip(learner.weights + learner.biases, ens.net.weights + ens.net.biases):
            assert np.shares_memory(a, ens.net.theta)
            np.testing.assert_array_equal(a, b[i])
    part = ens.take([0, 0])
    assert not np.shares_memory(part.net.theta, ens.net.theta)
    np.testing.assert_array_equal(part.net.theta, np.concatenate([ens.net.theta] * 2))


def allocating_step(ens: EnsembleModel, x: np.ndarray, t: np.ndarray, alpha: float) -> None:
    """train_epoch's step on a stack through the public kernels, which allocate every array.

    Bagging's learners each step alone on their own drawn rows (:func:`hand_step`).
    """
    if ens.rows is not None:
        ens.net = MLP(np.stack([net.theta for net in hand_step(ens, x, t, alpha)]), ens.net.shapes)
        return
    preds, trace = forward_batch(ens.net, x)
    deltas = output_gradients(preds, t, ens.config, ens.params)
    sgd_step(ens.net, backward_batch(ens.net, trace, deltas / len(x)), alpha)


class TestWorkspace:
    """train_epoch keeps its kernel arrays in ``ens.work``: one per (kind, layer), reused while the shape holds."""

    GRID = [0.0, 0.3, 0.9]

    @staticmethod
    def stack(method: str, n_train: int = 40) -> EnsembleModel:
        base = build_ensemble(2, [6, 4], 1, 4, MethodConfig(method), seed=17, n_train=n_train)
        return base.take([0] * len(TestWorkspace.GRID), TestWorkspace.GRID)

    @staticmethod
    def shapes(ens: EnsembleModel) -> dict:
        return {key: a.shape for key, a in ens.work.items()}

    @staticmethod
    def learners(ens: EnsembleModel) -> set:
        # every array but the shared input is unit-major, (width, learners, rows)
        return {a.shape[-2] for key, a in ens.work.items() if key != ("a", 0)}

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("rows", [None, 7])
    def test_matches_allocating_kernels(self, method, rows):
        # two epochs; 7-row batches over 40 rows end on a 5-row batch, so the shape changes twice an epoch
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        batches = [slice(0, 40)] if rows is None else [slice(s, min(s + rows, 40)) for s in range(0, 40, rows)]
        kept, fresh = self.stack(method, 40 if rows is None else 5), self.stack(method, 40 if rows is None else 5)
        for b in batches * 2:
            train_epoch(kept, ds.features[b], ds.targets[b], 0.1)
            allocating_step(fresh, ds.features[b], ds.targets[b], 0.1)
        assert kept.work and not fresh.work
        for a, b in zip(kept.net.weights + kept.net.biases, fresh.net.weights + fresh.net.biases):
            np.testing.assert_array_equal(a, b)

    def test_second_step_reuses_buffers(self):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = self.stack("sea")
        train_epoch(ens, ds.features, ds.targets, 0.1)
        first = dict(ens.work)
        # the input and the activations of 3 layers, g of 3 and d of the 2 hidden outputs, each (width, P*M, N)
        # but the input, (D + 1, N)
        assert len(first) == 9
        assert self.shapes(ens)[("a", 0)] == (3, 40)
        assert self.learners(ens) == {12} and {s[-1] for s in self.shapes(ens).values()} == {40}
        train_epoch(ens, ds.features, ds.targets, 0.1)
        assert ens.work.keys() == first.keys()
        assert all(ens.work[key] is a for key, a in first.items())

    def test_short_batch_replaces_buffers(self):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = self.stack("ncl")
        train_epoch(ens, ds.features[:7], ds.targets[:7], 0.1)
        seven = dict(ens.work)
        train_epoch(ens, ds.features[35:], ds.targets[35:], 0.1)
        assert ens.work.keys() == seven.keys()
        assert {s[-1] for s in self.shapes(ens).values()} == {5}
        assert not any(ens.work[key] is a for key, a in seven.items())
        train_epoch(ens, ds.features[:7], ds.targets[:7], 0.1)
        assert len(ens.work) == len(seven) and {s[-1] for s in self.shapes(ens).values()} == {7}

    def test_take_shares_it(self):
        # a stack taken from another steps in its workspace, and the two can step in turn
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = self.stack("sea")
        train_epoch(ens, ds.features, ds.targets, 0.1)
        part = ens.take([0, 2])
        assert part.work is ens.work
        want_part, want_ens = part.take(range(2)), ens.take(range(3))
        for _ in range(3):
            train_epoch(part, ds.features, ds.targets, 0.1)
            assert self.learners(ens) == {8}
            train_epoch(ens, ds.features, ds.targets, 0.1)
            assert self.learners(part) == {12}
            allocating_step(want_part, ds.features, ds.targets, 0.1)
            allocating_step(want_ens, ds.features, ds.targets, 0.1)
        np.testing.assert_array_equal(part.net.theta, want_part.net.theta)
        np.testing.assert_array_equal(ens.net.theta, want_ens.net.theta)

    @pytest.mark.parametrize("m", [1, 7])
    def test_ones_rows_stay_ones(self, m):
        # every learner's ones row reads exactly 1.0: after a forward, across batch-shape changes and after take
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = build_ensemble(2, [6, 4], 1, m, MethodConfig("independent"), seed=17)

        def assert_ones(ens, trace=None):
            buffers = [a for (kind, layer), a in ens.work.items() if kind == "a" and layer < 3]
            assert len(buffers) == 3
            for a in buffers:
                assert a[-1].shape == ((a.shape[-1],) if a.ndim == 2 else (len(ens.net.theta), a.shape[-1]))
                assert (a[-1] == 1.0).all()
            for a in trace or []:
                assert (a[..., -1] == 1.0).all()

        _, trace = forward_batch(ens.net, ds.features, ens.work)
        assert_ones(ens, trace[:-1])
        for s in list(range(0, 40, 7)) * 2:  # 7-row batches end on a 5-row one
            train_epoch(ens, ds.features[s : s + 7], ds.targets[s : s + 7], 0.1)
            assert_ones(ens)
        _, trace = forward_batch(ens.net, ds.features, ens.work)
        assert_ones(ens, trace[:-1])
        for part in (ens.take([0, 0], [0.0, 0.0]), ens.take([0])):
            train_epoch(part, ds.features, ds.targets, 0.1)
            assert_ones(part)
            _, trace = forward_batch(part.net, ds.features[:7], part.work)
            assert_ones(part, trace[:-1])

    def test_results_do_not_alias_it(self):
        ds, _ = standardize(synth_regression(40, 0.1, 13))
        ens = self.stack("nclstar")
        before, before_trace = forward_batch(ens.net, ds.features)
        kept = before.copy()
        train_epoch(ens, ds.features, ds.targets, 0.1)
        after, after_trace = forward_batch(ens.net, ds.features)
        grad = backward_batch(ens.net, after_trace, np.ones_like(after))
        work = list(ens.work.values())
        assert work
        for a in [before, *before_trace[1:]]:
            for b in [after, *after_trace[1:], *work]:
                assert not np.shares_memory(a, b)
        for a in [after, *after_trace[1:], grad]:
            assert not any(np.shares_memory(a, b) for b in work)
        np.testing.assert_array_equal(before, kept)
        assert not np.array_equal(before, after)


def loss_step(ens: EnsembleModel, x: np.ndarray, t: np.ndarray, alpha: float, h: float = 1e-6) -> np.ndarray:
    """The stack's ``theta`` after one step on the (n, D) batch, from the written losses and ``forward_batch`` alone.

    Learner i descends (1/n) sum_r c_r learner_losses(f, anchor, t)[i] at its
    ensemble's parameter: the anchor is frozen at the pre-step predictions,
    f is the anchor with row i live, and c_r is 1, or for bagging the number
    of times learner i drew row r. The gradient is a central difference over
    each coordinate of ``theta``. Row i of the loss reads only row i of f, so
    one forward of the stack with coordinate k of every learner moved gives
    every learner's derivative by k. Nothing else of the step is reused: no
    drawn rows, output gradient or backward pass.
    """
    theta, n, m, p = ens.net.theta, len(x), ens.m, len(ens.params)
    counts = np.ones((m, n)) if ens.bootstrap is None else np.array([np.bincount(b, minlength=n) for b in ens.bootstrap])
    k = theta.shape[1]
    moved = theta + h * np.concatenate([np.eye(k), -np.eye(k)])[:, None, :]  # (2K, P*M, K)
    f = forward_batch(MLP(moved.reshape(-1, k), ens.net.shapes), x)[0].reshape(2 * k, p, m, n, -1)
    anchor = forward_batch(ens.net, x)[0].reshape(p, m, n, -1)
    loss = np.array([[(counts * learner_losses(f[j, q], anchor[q], t, MethodConfig(ens.config.method, param))).sum(axis=1)
                      for q, param in enumerate(ens.params)] for j in range(2 * k)]).reshape(2, k, p * m) / n
    span = np.diagonal(moved[:k] - moved[k:], axis1=0, axis2=2)  # the 2h each coordinate moved by, (P*M, K)
    return theta - alpha * (loss[0] - loss[1]).T / span


def oracle_case(seed: int, method: str, rows: int | None) -> tuple[EnsembleModel, np.ndarray, np.ndarray]:
    """A random stack of P = 1 to 3 ensembles of M = 2 to 5 learners at distinct parameters, hidden up to (6, 5).

    D is 1 to 3 and O is 1 or 2, on 40 rows, or on a ``rows``-row slice of
    them; a bagging stack draws its resamples from the rows it trains on.
    """
    rng = np.random.default_rng([seed, METHODS.index(method), rows or 0])
    p, m, d, o, layers = (int(v) for v in rng.integers([1, 2, 1, 1, 1], [4, 6, 4, 3, 3]))
    hidden = [int(w) for w in rng.integers(1, [7, 6])[:layers]]
    x, t = rng.normal(size=(40, d)), rng.normal(size=(40, o))
    if rows is not None:
        x, t = x[3 : 3 + rows], t[3 : 3 + rows]
    base = build_ensemble(d, hidden, o, m, MethodConfig(method), seed=seed, n_train=len(x))
    ens = base.take([0] * p, rng.uniform(-0.5, 1.5, p))
    ens.net.theta += rng.normal(scale=0.2, size=ens.net.theta.shape)  # each point its own learners
    return ens, x, t


def step_error(ens: EnsembleModel, x: np.ndarray, t: np.ndarray, alpha: float = 0.1) -> float:
    """One train_epoch against :func:`loss_step`: the worst relative error of a learner's update."""
    before, want = ens.net.theta.copy(), loss_step(ens, x, t, alpha)
    train_epoch(ens, x, t, alpha)
    return max(rel_err(got, wanted) for got, wanted in zip(ens.net.theta - before, want - before))


class TestStepOracle:
    """train_epoch is -alpha times the gradient of the written loss (:func:`loss_step`).

    Over 500 seeds of each (method, rows) case, the worst learner's error
    was 1.4e-7 and the median about 1e-9; the worst are learners whose
    update is small, against which the difference's rounding weighs more.
    TOL is 7 times that worst. Four faults planted in the step each failed
    it by 2.4e-2 or more: n + 1 in place of n, a dropped bagging count, two
    points' parameters swapped, and nclstar's (M-1)/M left out.
    """

    TOL = 1e-6

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_step_descends_the_written_loss(self, method, rows, seed):
        assert step_error(*oracle_case(seed, method, rows)) < self.TOL

    def test_stacks_sharing_a_workspace_step_in_turn(self):
        # two same-shape stacks of one ensemble: each reuses the buffers the other one's step wrote
        _, x, t = oracle_case(0, "sea", None)
        base = build_ensemble(x.shape[1], [6, 5], t.shape[1], 4, MethodConfig("sea"), seed=3)
        a, b = base.take([0, 0], [0.2, 0.7]), base.take([0, 0], [1.1, -0.3])
        assert a.work is b.work is base.work
        for ens in [a, b] * 3:
            assert step_error(ens, x, t) < self.TOL


class TestBagging:
    def test_bootstrap_shapes_and_determinism(self):
        a = bootstrap_indices(17, 4, 5)
        b = bootstrap_indices(17, 4, 5)
        assert len(a) == 4 and all(len(idx) == 17 for idx in a)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia, ib)

    @pytest.mark.parametrize("n, m, seed", [(17, 4, 5), (1, 1, 0), (100, 1, 3), (9, 7, 11), (64, 20, 2024)])
    def test_bootstrap_seed_layout(self, n, m, seed):
        # one generator for all M: row i is the generator's (i+1)-th size-n draw
        rng = np.random.default_rng(seed)
        boot = bootstrap_indices(n, m, seed)
        assert isinstance(boot, np.ndarray) and boot.dtype.kind == "i" and boot.shape == (m, n)
        for row in boot:
            np.testing.assert_array_equal(row, rng.integers(0, n, size=n))

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
        for row, idx in zip(ens.net.theta, ens.bootstrap):
            learner = MLP(row.copy(), ens.net.shapes)  # a copy: a step updates its arrays in place
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

    def test_drawn_rows_are_the_distinct_draws(self):
        boot = bootstrap_indices(30, 6, 3)
        rows, counts = drawn_rows(boot)
        w = max(len(np.unique(idx)) for idx in boot)
        assert rows.shape == counts.shape == (6, w)
        for idx, r, c in zip(boot, rows, counts):
            drawn = np.unique(idx)
            k = len(drawn)
            np.testing.assert_array_equal(r[:k], drawn)
            np.testing.assert_array_equal(c[:k], np.bincount(idx)[drawn])
            assert (r[k:] == drawn[0]).all() and (c[k:] == 0).all()  # padding: its own first row, weight 0
            assert c.sum() == 30

    @staticmethod
    def ensemble_on(boot: np.ndarray) -> EnsembleModel:
        net = build_ensemble(2, [6, 4], 1, len(boot), MethodConfig("independent"), seed=8).net
        return EnsembleModel(net, MethodConfig("bagging"), seed=8, bootstrap=boot)

    def test_resample_of_one_row(self):
        # learner 1 drew row 7 n times: one distinct row, padded to the others' width
        ds, _ = standardize(synth_regression(25, 0.1, 12))
        boot = bootstrap_indices(25, 3, 4)
        boot[1] = 7
        ens = self.ensemble_on(boot)
        assert (ens.rows[1] == 7).all() and ens.counts[1].tolist() == [25.0] + [0.0] * (ens.rows.shape[1] - 1)
        expected = hand_step(ens, ds.features, ds.targets, 0.1)
        train_epoch(ens, ds.features, ds.targets, 0.1)
        assert_learners_equal(ens, expected)

    def test_resample_of_distinct_rows_is_independent(self):
        # every resample a permutation: no padding, every count 1, so the step is the independent one
        ds, _ = standardize(synth_regression(25, 0.1, 12))
        rng = np.random.default_rng(2)
        ens = self.ensemble_on(np.stack([rng.permutation(25) for _ in range(3)]))
        assert ens.rows.tolist() == [list(range(25))] * 3 and (ens.counts == 1.0).all()
        independent = build_ensemble(2, [6, 4], 1, 3, MethodConfig("independent"), seed=8)
        expected = hand_step(ens, ds.features, ds.targets, 0.1)
        train_epoch(ens, ds.features, ds.targets, 0.1)
        train_epoch(independent, ds.features, ds.targets, 0.1)
        assert_learners_equal(ens, expected)
        np.testing.assert_array_equal(ens.net.theta, independent.net.theta)

    def test_grid_copies_share_the_drawn_rows(self):
        # P = 3 copies: the rows gathered once, per step, and learner by learner all agree bitwise
        ds, _ = standardize(synth_regression(30, 0.1, 5))
        base = build_ensemble(2, [6, 4], 1, 4, MethodConfig("bagging"), seed=8, n_train=ds.n_samples)
        once, per_step = (base.take([0] * 3, [0.0, 0.5, 1.0]) for _ in range(2))
        x_rows, t_rows = drawn_batch(once, ds.features, ds.targets)
        assert x_rows.shape == (12, base.rows.shape[1], 2) and t_rows.shape == (12, base.rows.shape[1], 1)
        for _ in range(3):
            expected = hand_step(per_step, ds.features, ds.targets, 0.1)
            train_epoch(once, x_rows, t_rows, 0.1)
            train_epoch(per_step, ds.features, ds.targets, 0.1)
            assert_learners_equal(per_step, expected)
        np.testing.assert_array_equal(once.net.theta, per_step.net.theta)
        for j in range(3):
            np.testing.assert_array_equal(once.take([j]).net.theta, once.take([0]).net.theta)

    def test_rows_of_another_stack_rejected(self):
        ds, _ = standardize(synth_regression(30, 0.1, 5))
        base = build_ensemble(2, [6, 4], 1, 4, MethodConfig("bagging"), seed=8, n_train=ds.n_samples)
        x_rows, t_rows = drawn_batch(base, ds.features, ds.targets)  # 4 learners' rows
        with pytest.raises(ValueError, match=r"drawn rows are \(8, "):
            train_epoch(base.take([0, 0]), x_rows, t_rows, 0.1)
        sea = build_ensemble(2, [6, 4], 1, 4, MethodConfig("sea", 0.5), seed=8)
        with pytest.raises(ValueError, match="only bagging"):
            train_epoch(sea, x_rows, t_rows, 0.1)


class TestEpochSteps:
    @pytest.mark.parametrize("batch_size", [None, 1, 7, 30, 100])
    def test_bagging_steps_once_on_its_drawn_rows(self, batch_size):
        ds, _ = standardize(synth_regression(30, 0.1, 5))
        base = build_ensemble(2, [6, 4], 1, 4, MethodConfig("bagging"), seed=8, n_train=30)
        ((x, t),) = epoch_steps(base.take([0] * 3, [0.0, 0.5, 1.0]), ds.features, ds.targets, batch_size)
        rows = np.tile(base.rows, (3, 1))  # every grid point's learner i reads learner i's drawn rows
        np.testing.assert_array_equal(x, ds.features[rows])
        np.testing.assert_array_equal(t, ds.targets[rows])

    @pytest.mark.parametrize("method", ["independent", "sea", "ncl", "nclstar"])
    def test_other_methods_step_on_slices(self, method):
        ds, _ = standardize(synth_regression(30, 0.1, 5))
        ens = build_ensemble(2, [6, 4], 1, 4, MethodConfig(method, 0.5), seed=8)
        steps = epoch_steps(ens, ds.features, ds.targets, 7)
        assert [len(x) for x, _ in steps] == [7, 7, 7, 7, 2]
        np.testing.assert_array_equal(np.concatenate([x for x, _ in steps]), ds.features)
        np.testing.assert_array_equal(np.concatenate([t for _, t in steps]), ds.targets)
        ((x, t),) = epoch_steps(ens, ds.features, ds.targets)  # no batch size: one full batch
        np.testing.assert_array_equal(x, ds.features)
        np.testing.assert_array_equal(t, ds.targets)

    def test_gather_follows_a_smaller_stack(self):
        # after take, as when a diverged grid point leaves the stack, the gather has that stack's learners
        ds, _ = standardize(synth_regression(30, 0.1, 5))
        base = build_ensemble(2, [6, 4], 1, 4, MethodConfig("bagging"), seed=8, n_train=30)
        smaller = base.take([0] * 3, [0.0, 0.5, 1.0]).take([0, 2])
        ((x, t),) = epoch_steps(smaller, ds.features, ds.targets, 7)
        rows = np.tile(base.rows, (2, 1))
        assert x.shape == (8, base.rows.shape[1], 2)
        np.testing.assert_array_equal(x, ds.features[rows])
        np.testing.assert_array_equal(t, ds.targets[rows])
        train_epoch(smaller, x, t, 0.1)  # the step reads them as the smaller stack's drawn rows


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

    @pytest.mark.parametrize("fault", ["last bias zeroed", "one weight scaled"])
    def test_wrong_backward_fails(self, monkeypatch, fault):
        real = gradcheck.backward_batch

        def wrong(net, trace, delta):
            grad = real(net, trace, delta)
            d = MLP(grad, net.shapes)
            if fault == "last bias zeroed":
                d.biases[-1][...] = 0.0
            else:
                d.weights[0][0, 0] *= 1.01
            return grad

        monkeypatch.setattr(gradcheck, "backward_batch", wrong)
        assert not gradcheck.check_mlp_backward(n_nets=10).passed


# sea, M=2, hidden (3,), after one step; written while theta was laid out W_0, b_0, W_1, b_1 per learner
OLD_LAYOUT_DOC = (
    '{"bootstrap": null, "format": "sea-ensemble/2", "method": "sea", "net": {"format": "sea-mlp/1", "layers": '
    '[{"biases": [0.0006965218351385193, -0.014794257042067223, -0.004615505225534679, -0.016953326547665855, '
    '-0.005615078425693982, 0.00553351486189592], "shape": [2, 3, 2], "weights": [0.45236599650920084, '
    '-0.5089961665070254, 0.44132250177418403, 1.0261195949536763, -0.8204757255958364, 0.9900081962572042, '
    '0.21304019780150088, -0.18459568867453896, 0.028782768279381192, -0.7228065846840366, -0.7187832907289284, '
    '0.5455856286353644]}, {"biases": [-0.07946393561046805, -0.07334103799522868], "shape": [2, 1, 3], '
    '"weights": [-0.05925241040785345, 0.8224548728655677, 0.26231220242512726, 0.9168472512756356, '
    '0.3003090603395054, -0.44436184214096164]}]}, "param": 0.5, "seed": 11}'
)


# bagging, M=2, hidden (2,), after one step on synth_regression(8, 0.1, 3); written while every bagging
# learner ran on all n rows weighted by its draw counts, and the sigmoid was 0.5 * (1 + tanh(z/2))
OLD_BAGGING_DOC = (
    '{"bootstrap": [[7, 2, 6, 0, 4, 0, 2, 1], [4, 4, 4, 6, 7, 2, 4, 3]], "format": "sea-ensemble/2", '
    '"method": "bagging", "net": {"format": "sea-mlp/1", "layers": [{"biases": [0.0003143150561688738, '
    '-0.0005084847131225839, -0.001808996184254448, -0.0021924368818596524], "shape": [2, 2, 2], "weights": '
    '[0.2649480040122516, 0.5791032205709363, 0.4855732212286612, 0.8433745344078343, 0.6374191349465949, '
    '-1.1525352061465721, 0.47195961269035697, 0.39170232283789286]}, {"biases": [0.004010898030865073, '
    '-0.00897987800067757], "shape": [2, 1, 2], "weights": [-0.8152630152916474, 0.5796852602036521, '
    '0.3340292500499155, 0.9858325556666808]}]}, "param": 0.0, "seed": 5}'
)
# its theta after one more step there
OLD_BAGGING_NEXT = [
    [0.24470317661811655, 0.5754595140534758, 0.000940875864294322, 0.4976249142606277, 0.8440448557807076,
     -0.0011935437273076239, -0.8028361043755966, 0.5978834874357689, 0.006295176653011114],
    [0.640704461994415, -1.152947719855078, -0.003642400465605501, 0.4867615212561574, 0.38586927189628056,
     -0.0043279931420685, 0.34194701097026264, 0.9869444774052031, -0.017789850414378035],
]


class TestCheckpoint:
    def test_old_bagging_document_loads_and_trains(self):
        ens = ensemble_from_json(OLD_BAGGING_DOC)
        assert ensemble_to_json(ens) == OLD_BAGGING_DOC
        assert ens.rows.tolist() == [[0, 1, 2, 4, 6, 7], [2, 3, 4, 6, 7, 2]]
        assert ens.counts.tolist() == [[2, 1, 2, 1, 1, 1], [1, 1, 4, 1, 1, 0]]
        ds, _ = standardize(synth_regression(8, 0.1, 3))
        train_epoch(ens, ds.features, ds.targets, 0.1)
        # the same step up to rounding: the rows are summed in another order, the sigmoid is another formula
        np.testing.assert_allclose(ens.net.theta, OLD_BAGGING_NEXT, rtol=0, atol=1e-15)

    def test_document_of_the_old_layout_loads_and_writes_back(self):
        ens = ensemble_from_json(OLD_LAYOUT_DOC)
        layers = json.loads(OLD_LAYOUT_DOC)["net"]["layers"]
        assert len(layers) == ens.net.n_layers == 2
        for layer, w, b in zip(layers, ens.net.weights, ens.net.biases):
            np.testing.assert_array_equal(w, np.array(layer["weights"]).reshape(layer["shape"]))
            np.testing.assert_array_equal(b, np.array(layer["biases"]).reshape(layer["shape"][:-1]))
        assert ensemble_to_json(ens) == OLD_LAYOUT_DOC

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

    def test_taken_ensemble_reloads_at_its_param(self):
        ds, _ = standardize(synth_regression(40, 0.1, 6))
        ens = build_ensemble(2, [4], 1, 3, MethodConfig("sea"), seed=11).take([0], [0.5])
        restored = ensemble_from_json(ensemble_to_json(ens))
        assert restored.params.tolist() == [0.5]
        train_epoch(ens, ds.features, ds.targets, 0.05)
        train_epoch(restored, ds.features, ds.targets, 0.05)
        for a, b in zip(ens.net.weights + ens.net.biases, restored.net.weights + restored.net.biases):
            np.testing.assert_array_equal(a, b)

    def test_stack_of_ensembles_refused(self):
        ens = build_ensemble(2, [4], 1, 3, MethodConfig("sea"), seed=11).take([0, 0], [0.5, 1.0])
        with pytest.raises(ValueError, match="one ensemble"):
            ensemble_to_json(ens)

    @pytest.mark.parametrize("field", ["net", "method", "param", "seed", "bootstrap"])
    def test_missing_field_named(self, field):
        doc = json.loads(ensemble_to_json(build_ensemble(2, [4], 1, 3, MethodConfig("sea", 0.5), seed=11)))
        del doc[field]
        with pytest.raises(ValueError, match=f"lacks {field}$"):
            ensemble_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text, message", [("[]", "must be a JSON object, got list"),
                                               ('"sea"', "must be a JSON object, got str")])
    def test_document_not_an_object_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            ensemble_from_json(text)

    # field: a key of the document, or a dotted path into it; value DELETED removes it.
    # The net's layers are M=3 stacks of shapes [3, 4, 2] and [3, 1, 4].
    @pytest.mark.parametrize("field, value, message", [
        ("net", [], "net must be a JSON object, got list"),
        ("net", "x", "net must be a JSON object, got str"),
        ("seed", "x", "seed must be an integer, got 'x'"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("param", None, "param must be a number, got None"),
        ("param", "x", "param must be a number, got 'x'"),
        ("net.format", "other/9", "unsupported checkpoint net format: 'other/9'"),
        ("net.layers", DELETED, "net lacks layers"),
        ("net.layers.0", [], "net layer 0 lacks shape, weights, biases"),
        ("net.layers.0.shape", DELETED, "net layer 0 lacks shape"),
        ("net.layers.1.weights", DELETED, "net layer 1 lacks weights"),
        ("net.layers.1.biases", DELETED, "net layer 1 lacks biases"),
        ("net.layers.0.shape", [3, 4, "2"], f"layer 0: {THREE_COUNTS}, got [3, 4, '2']"),
        ("net.layers.0.weights", "x", "layer 0: weights must be a list of numbers"),
        ("net.layers.0.weights", [0.5] * 5, "layer 0: weights of 5 values do not fit shape [3, 4, 2]"),
        ("net.layers.0.biases", [0.0] * 4, "layer 0: biases of 4 values do not fit shape [3, 4, 2]"),
        ("net.layers.1", {"shape": [2, 1, 4], "weights": [0.0] * 8, "biases": [0.0] * 2},
         "layer 1: stack [2] does not match layer 0's [3]"),
        ("net.layers.1", {"shape": [3, 1, 5], "weights": [0.0] * 15, "biases": [0.0] * 3},
         "layer 1: fan_in 5 does not chain"),
        ("net.layers.0.biases.5", float("nan"), "layer 0: non-finite parameters"),
        ("net.layers.1.weights.2", float("inf"), "layer 1: non-finite parameters"),
        ("net.layers.0.biases.3", "0.25", "layer 0: biases must be a list of numbers"),
        ("net.layers.1.weights.0", True, "layer 1: weights must be a list of numbers"),
        # JSON integers past float range: float() and numpy raise OverflowError, not a named ValueError
        pytest.param("param", int("9" * 400), "checkpoint param is an integer too large for a float",
                     id="param-400-nines"),
        pytest.param("net.layers.0.weights.1", 10**400, "layer 0: weights hold an integer too large for a float",
                     id="weight-10**400"),
    ])
    def test_malformed_field_named(self, field, value, message):
        doc = json.loads(ensemble_to_json(build_ensemble(2, [4], 1, 3, MethodConfig("sea", 0.5), seed=11)))
        *parents, key = (int(part) if part.isdigit() else part for part in field.split("."))
        target = doc
        for part in parents:
            target = target[part]
        if value is DELETED:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ensemble_from_json(json.dumps(doc))

    def test_non_finite_param_rejected(self):
        text = ensemble_to_json(build_ensemble(2, [4], 1, 3, MethodConfig("sea", 0.5), seed=11))
        assert '"param": 0.5' in text
        with pytest.raises(ValueError, match="parameter must be finite"):
            ensemble_from_json(text.replace('"param": 0.5', '"param": NaN'))

    def test_format_1_rejected(self):
        doc = json.loads(ensemble_to_json(build_ensemble(2, [4], 1, 3, MethodConfig("sea", 0.5), seed=11)))
        doc["format"] = "sea-ensemble/1"
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            ensemble_from_json(json.dumps(doc))

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

    def test_ragged_bootstrap_rejected(self):
        doc = self.bagging_doc()
        doc["bootstrap"][1] = doc["bootstrap"][1][:5]
        with pytest.raises(ValueError, match=r"bootstrap must be \(M=3, n\)"):
            ensemble_from_json(json.dumps(doc))

    def test_bool_bootstrap_index_rejected(self):
        doc = self.bagging_doc()
        doc["bootstrap"][2][:2] = [1, True]  # numpy would read [1, True] as integers
        with pytest.raises(ValueError, match="bootstrap indices must be integers"):
            ensemble_from_json(json.dumps(doc))

    def test_m1_rejected_for_adjustable(self):
        doc = json.loads(ensemble_to_json(build_ensemble(2, [3], 1, 1, MethodConfig("independent"), seed=0)))
        ensemble_from_json(json.dumps(doc))  # one independent learner loads
        doc["method"], doc["param"] = "sea", 0.5
        with pytest.raises(ValueError, match="sea requires M >= 2, got M=1"):
            ensemble_from_json(json.dumps(doc))

    def test_single_network_rejected(self):
        doc = json.loads(ensemble_to_json(build_ensemble(2, [3], 1, 1, MethodConfig("independent"), seed=0)))
        for layer in doc["net"]["layers"]:
            del layer["shape"][0]  # one network's (fan_out, fan_in): its values fit, but the writer writes (M, ...)
        with pytest.raises(ValueError, match=re.escape(f"layer 0: {THREE_COUNTS}, got [3, 2]")):
            ensemble_from_json(json.dumps(doc))

    def test_stack_of_no_learners_rejected(self):
        doc = json.loads(ensemble_to_json(build_ensemble(2, [4], 1, 3, MethodConfig("independent"), seed=0)))
        doc["net"]["layers"] = [{"shape": [0, 4, 2], "weights": [], "biases": []},
                                {"shape": [0, 1, 4], "weights": [], "biases": []}]
        with pytest.raises(ValueError, match=re.escape(f"layer 0: {THREE_COUNTS}, got [0, 4, 2]")):
            ensemble_from_json(json.dumps(doc))
