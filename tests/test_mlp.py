import warnings

import numpy as np
import pytest

from sea_ensemble.mlp import (
    MLP,
    DivergenceError,
    Gradients,
    _sigmoid,
    backward_batch,
    forward_batch,
    init_mlp,
    mlp_from_dict,
    mlp_to_dict,
    sgd_step,
)


def finite_difference_grads(m: MLP, x: np.ndarray, delta_out: np.ndarray, h: float = 1e-6):
    """Central finite differences of the scalar loss <delta_out, y(theta)> on a batch.

    Independent of the backward pass: re-runs forward with each parameter
    nudged by +-h.
    """

    def loss(model):
        y, _ = forward_batch(model, x)
        return float(np.vdot(delta_out, y))

    d_weights, d_biases = [], []
    for l in range(m.n_layers):
        dw = np.zeros_like(m.weights[l])
        for idx in np.ndindex(*m.weights[l].shape):
            wp = [w.copy() for w in m.weights]
            wm = [w.copy() for w in m.weights]
            wp[l][idx] += h
            wm[l][idx] -= h
            lp = loss(MLP(tuple(wp), m.biases))
            lm = loss(MLP(tuple(wm), m.biases))
            dw[idx] = (lp - lm) / (2 * h)
        d_weights.append(dw)
        db = np.zeros_like(m.biases[l])
        for idx in np.ndindex(*m.biases[l].shape):
            bp = [b.copy() for b in m.biases]
            bm = [b.copy() for b in m.biases]
            bp[l][idx] += h
            bm[l][idx] -= h
            lp = loss(MLP(m.weights, tuple(bp)))
            lm = loss(MLP(m.weights, tuple(bm)))
            db[idx] = (lp - lm) / (2 * h)
        d_biases.append(db)
    return d_weights, d_biases


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(np.ravel(a))
    nb = np.linalg.norm(np.ravel(b))
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / max(na, nb, 1e-12)


class TestInit:
    def test_shapes(self):
        m = init_mlp(2, [10, 10], 1, 0)
        assert [w.shape for w in m.weights] == [(10, 2), (10, 10), (1, 10)]
        assert all((b == 0).all() for b in m.biases)

    def test_deterministic(self):
        a = init_mlp(3, [5], 2, 42)
        b = init_mlp(3, [5], 2, 42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_no_hidden_allowed(self):
        m = init_mlp(4, [], 2, 0)
        assert m.n_layers == 1 and m.d_in == 4 and m.d_out == 2

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            init_mlp(2, [0], 1, 0)

    def test_glorot_limit(self):
        m = init_mlp(6, [8], 3, 1)
        limit0 = np.sqrt(6.0 / (6 + 8))
        assert np.abs(m.weights[0]).max() <= limit0


class TestForward:
    def test_affine_identity(self):
        m = MLP((np.array([[2.0]]),), (np.array([1.0]),))
        y, _ = forward_batch(m, np.array([[3.0]]))
        assert y[0, 0] == 7.0

    def test_zero_net(self):
        m = MLP(
            (np.zeros((4, 2)), np.zeros((1, 4))),
            (np.zeros(4), np.zeros(1)),
        )
        y, _ = forward_batch(m, np.array([[5.0, -3.0]]))
        # hidden sigmoids output 0.5 but the zero output weights kill them
        assert y[0, 0] == 0.0

    def test_sigmoid_midpoint(self):
        # one hidden unit pinned at z=0: y = 2 * sigmoid(0) = 1.0
        m = MLP(
            (np.array([[0.0]]), np.array([[2.0]])),
            (np.array([0.0]), np.array([0.0])),
        )
        y, _ = forward_batch(m, np.array([[1234.5]]))
        assert y[0, 0] == 1.0

    def test_batch_matches_single(self):
        m = init_mlp(3, [6, 4], 2, 5)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(10, 3))
        ys, _ = forward_batch(m, xs)
        for i in range(10):
            yi, _ = forward_batch(m, xs[i : i + 1])
            # GEMM kernels differ between batch shapes, so equality is
            # up to rounding, not bitwise.
            np.testing.assert_allclose(ys[i], yi[0], rtol=1e-12, atol=1e-14)

    def test_non_finite_input(self):
        m = init_mlp(2, [], 1, 0)
        with pytest.raises(ValueError, match="non-finite"):
            forward_batch(m, np.array([[np.inf, 0.0]]))

    def test_deterministic(self):
        m = init_mlp(2, [7], 1, 3)
        x = np.array([[0.3, -0.8]])
        y1, _ = forward_batch(m, x)
        y2, _ = forward_batch(m, x)
        np.testing.assert_array_equal(y1, y2)


class TestBackward:
    def test_zero_delta(self):
        m = init_mlp(2, [5], 1, 9)
        _, trace = forward_batch(m, np.array([[0.1, 0.2]]))
        d_weights, d_biases = backward_batch(m, trace, np.array([[0.0]]))
        assert all((dw == 0).all() for dw in d_weights)
        assert all((db == 0).all() for db in d_biases)

    def test_linear_layer_hand_case(self):
        # y = w x + b, loss gradient delta: dW = delta * x, db = delta
        m = MLP((np.array([[1.5]]),), (np.array([0.0]),))
        _, trace = forward_batch(m, np.array([[3.0]]))
        d_weights, d_biases = backward_batch(m, trace, np.array([[2.0]]))
        np.testing.assert_array_equal(d_weights[0], [[6.0]])
        np.testing.assert_array_equal(d_biases[0], [2.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        hidden = [int(rng.integers(1, 8)) for _ in range(int(rng.integers(0, 3)))]
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 4))
        m = init_mlp(d_in, hidden, d_out, seed)
        x = rng.normal(size=(1, d_in))
        delta = rng.normal(size=(1, d_out))
        _, trace = forward_batch(m, x)
        d_weights, d_biases = backward_batch(m, trace, delta)
        fd_w, fd_b = finite_difference_grads(m, x, delta)
        for l in range(m.n_layers):
            assert relative_error(d_weights[l], fd_w[l]) < 1e-6
            assert relative_error(d_biases[l], fd_b[l]) < 1e-6

    def test_batch_sums_samples(self):
        m = init_mlp(2, [4], 1, 1)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, 2))
        deltas = rng.normal(size=(6, 1))
        _, trace = forward_batch(m, xs)
        dw_all, _ = backward_batch(m, trace, deltas)
        acc_w = [np.zeros_like(w) for w in m.weights]
        for i in range(6):
            _, tr = forward_batch(m, xs[i : i + 1])
            dw_i, _ = backward_batch(m, tr, deltas[i : i + 1])
            for l in range(m.n_layers):
                acc_w[l] += dw_i[l]
        for l in range(m.n_layers):
            np.testing.assert_allclose(dw_all[l], acc_w[l], rtol=1e-12, atol=1e-12)

    def test_delta_layout_does_not_matter(self):
        # train_epoch passes a swapaxes view of a feature-major (M, O, N)
        # array; gradcheck and the tests pass C-contiguous (M, N, O) arrays
        nets = [init_mlp(3, [6, 4], 3, seed) for seed in range(4)]
        net = MLP(tuple(np.stack(ws) for ws in zip(*(n.weights for n in nets))),
                  tuple(np.stack(bs) for bs in zip(*(n.biases for n in nets))))
        rng = np.random.default_rng(3)
        _, trace = forward_batch(net, rng.normal(size=(9, 3)))
        delta = rng.normal(size=(4, 9, 3))
        view = np.swapaxes(np.ascontiguousarray(np.swapaxes(delta, -1, -2)), -1, -2)
        assert delta.flags.c_contiguous and not view.flags.c_contiguous
        got_c = backward_batch(net, trace, delta)
        got_view = backward_batch(net, trace, view)
        for a, b in zip(got_c[0] + got_c[1], got_view[0] + got_view[1]):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        m = init_mlp(2, [3], 1, 0)
        _, trace = forward_batch(m, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            backward_batch(m, trace, np.array([[1.0, 2.0]]))


class TestSgd:
    def test_zero_gradient_fixed_point(self):
        m = init_mlp(2, [3], 1, 4)
        before = [w.copy() for w in m.weights]
        _, trace = forward_batch(m, np.array([[0.5, 0.5]]))
        g = backward_batch(m, trace, np.array([[0.0]]))
        sgd_step(m, g, 0.1)
        for w, w2 in zip(before, m.weights):
            np.testing.assert_array_equal(w, w2)

    def test_arithmetic(self):
        m = MLP((np.array([[1.0]]),), (np.array([0.0]),))
        g_w = (np.array([[2.0]]),)
        g_b = (np.array([0.0]),)
        sgd_step(m, (g_w, g_b), 0.1)
        assert m.weights[0][0, 0] == pytest.approx(0.8)

    def test_zero_alpha_rejected(self):
        m = init_mlp(1, [], 1, 0)
        _, trace = forward_batch(m, np.array([[1.0]]))
        g = backward_batch(m, trace, np.array([[1.0]]))
        with pytest.raises(ValueError):
            sgd_step(m, g, 0.0)

    def test_two_half_steps_equal_one(self):
        one = init_mlp(2, [3], 2, 8)
        two = init_mlp(2, [3], 2, 8)
        _, trace = forward_batch(one, np.array([[0.2, -0.4]]))
        g = backward_batch(one, trace, np.array([[1.0, -0.5]]))
        sgd_step(one, g, 0.1)
        sgd_step(two, g, 0.05)
        sgd_step(two, g, 0.05)
        for wa, wb in zip(one.weights, two.weights):
            np.testing.assert_allclose(wa, wb, rtol=0, atol=1e-15)

    def test_divergence_detected(self):
        m = MLP((np.array([[1.0]]),), (np.array([0.0]),))
        huge = ((np.array([[1e308]]),), (np.array([0.0]),))
        with pytest.raises(DivergenceError):
            sgd_step(m, huge, 1e10)
        assert m.weights[0][0, 0] == 1.0


class TestSigmoid:
    def test_midpoint_exact(self):
        assert _sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(np.array([-1e3, 1e3]))
        assert out.tolist() == [0.0, 1.0]

    def test_in_place_is_bitwise_equal(self):
        z = np.random.default_rng(4).normal(0.0, 20.0, size=(3, 10, 200))
        want = 0.5 * (1.0 + np.tanh(0.5 * z))
        np.testing.assert_array_equal(_sigmoid(z), want)
        assert _sigmoid(z, out=z) is z
        np.testing.assert_array_equal(z, want)

    def test_matches_exp_forms(self):
        z = np.linspace(-50, 50, 200001)
        ref = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        # absolute, not relative: far left the tanh form is exactly 0
        assert np.abs(_sigmoid(z) - ref).max() <= 2.3e-16


class TestStack:
    @staticmethod
    def stack(m: int, widths=(2, 3, 1)) -> MLP:
        pairs = list(zip(widths[:-1], widths[1:]))
        return MLP(tuple(np.zeros((m, o, i)) for i, o in pairs), tuple(np.zeros((m, o)) for _, o in pairs))

    def test_widths(self):
        net = self.stack(4)
        assert (net.n_layers, net.d_in, net.d_out) == (2, 2, 1)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="mismatch"):
            MLP((np.zeros((3, 4, 2)), np.zeros((2, 1, 4))), (np.zeros((3, 4)), np.zeros((2, 1))))
        with pytest.raises(ValueError, match="mismatch"):
            MLP((np.zeros((3, 4, 2)),), (np.zeros(4),))
        with pytest.raises(ValueError, match="chain"):
            MLP((np.zeros((3, 4, 2)), np.zeros((3, 1, 5))), (np.zeros((3, 4)), np.zeros((3, 1))))
        with pytest.raises(ValueError, match="non-finite"):
            MLP((np.full((3, 4, 2), np.nan),), (np.zeros((3, 4)),))

    def test_divergence_names_lowest_learner(self):
        net = self.stack(5)
        dw = [np.zeros_like(w) for w in net.weights]
        dw[1][4] = 1e308
        dw[1][2] = 1e308
        dw[0][2, 1, 0] = -1e308
        grads = (tuple(dw), tuple(np.zeros_like(b) for b in net.biases))
        with pytest.raises(DivergenceError, match="layer 0") as exc:
            sgd_step(net, grads, 1e10)
        assert exc.value.learner == 2

    def test_divergence_mask_names_every_learner(self):
        net = self.stack(9)
        before = [a.copy() for a in net.weights + net.biases]
        dw = [np.zeros_like(w) for w in net.weights]
        db = [np.zeros_like(b) for b in net.biases]
        dw[1][7] = np.inf
        db[0][2, 1] = np.nan
        with pytest.raises(DivergenceError) as exc:
            sgd_step(net, (tuple(dw), tuple(db)), 0.1)
        assert exc.value.mask.tolist() == [i in (2, 7) for i in range(9)]
        assert exc.value.learner == 2
        for a, b in zip(net.weights + net.biases, before):
            np.testing.assert_array_equal(a, b)

    def test_single_network_has_no_mask(self):
        net = init_mlp(2, [3], 1, 0)
        grads = (tuple(np.full_like(w, np.inf) for w in net.weights), tuple(np.zeros_like(b) for b in net.biases))
        with pytest.raises(DivergenceError) as exc:
            sgd_step(net, grads, 0.1)
        assert exc.value.learner is None and exc.value.mask is None


def stacked_net(m: int, widths=(3, 6, 4, 1), seed: int = 0) -> MLP:
    nets = [init_mlp(widths[0], list(widths[1:-1]), widths[-1], seed + i) for i in range(m)]
    return MLP(tuple(np.stack(ws) for ws in zip(*(n.weights for n in nets))),
               tuple(np.stack(bs) for bs in zip(*(n.biases for n in nets))))


def matmul_backward(m: MLP, trace, delta):
    """backward_batch's arithmetic with every propagation written as the matmul ``swapaxes(w) @ g``."""
    g = np.ascontiguousarray(np.swapaxes(delta, -1, -2))
    d_weights, d_biases = [None] * m.n_layers, [None] * m.n_layers
    for l in range(m.n_layers - 1, -1, -1):
        block = g @ trace[l]  # the trace's last column is ones, so the last column here is db
        d_weights[l], d_biases[l] = block[..., :-1], block[..., -1]
        if l > 0:
            a = np.swapaxes(trace[l], -1, -2)[..., :-1, :]
            g = (np.swapaxes(m.weights[l], -1, -2) @ g) * ((1.0 - a) * a)
    return d_weights, d_biases


def hand_pair(grads) -> tuple:
    """The same gradient as a hand-built pair of fresh per-layer arrays."""
    return tuple(dw.copy() for dw in grads[0]), tuple(db.copy() for db in grads[1])


class TestFlatLayout:
    """theta holds [W_0 | b_0], [W_1 | b_1], ... per learner; weights, biases and gradients are views of one array."""

    @pytest.mark.parametrize("m", [None, 4])
    def test_layers_are_views_in_order(self, m):
        net = init_mlp(3, [6, 4], 2, 1) if m is None else stacked_net(m, (3, 6, 4, 2))
        rows = net.theta.reshape(-1, net.theta.shape[-1])
        weights = [w.reshape((len(rows),) + w.shape[-2:]) for w in net.weights]
        biases = [b.reshape(len(rows), -1) for b in net.biases]
        for i, row in enumerate(rows):
            # each layer is a row-major (fan_out, fan_in + 1) block: a unit's weights, then its bias
            want = np.concatenate([np.column_stack([w[i], b[i]]).ravel() for w, b in zip(weights, biases)])
            np.testing.assert_array_equal(row, want)
        assert net.shapes == ((6, 3), (4, 6), (2, 4))
        assert [blk.shape[-2:] for blk in net.blocks] == [(6, 4), (4, 7), (2, 5)]
        assert all(np.shares_memory(a, net.theta) for a in net.blocks + net.weights + net.biases)

    def test_construction_copies_its_inputs(self):
        weights = (np.ones((2, 4, 3)), np.ones((2, 1, 4)))
        biases = (np.zeros((2, 4)), np.zeros((2, 1)))
        net = MLP(weights, biases)
        assert not any(np.shares_memory(net.theta, a) for a in weights + biases)

    def test_non_finite_layer_named(self):
        net = stacked_net(3)
        weights = list(net.weights)
        weights[1] = weights[1].copy()
        weights[1][2, 0, 0] = np.inf
        with pytest.raises(ValueError, match="layer 1: non-finite"):
            MLP(tuple(weights), net.biases)

    @pytest.mark.parametrize("m", [None, 5])
    def test_backward_writes_one_gradient_array(self, m):
        net = init_mlp(3, [6, 4], 1, 2) if m is None else stacked_net(m)
        rng = np.random.default_rng(6)
        _, trace = forward_batch(net, rng.normal(size=(8, 3)))
        grads = backward_batch(net, trace, rng.normal(size=trace[-1].shape))
        assert isinstance(grads, Gradients) and grads.theta.shape == net.theta.shape
        assert all(np.shares_memory(a, grads.theta) for a in grads[0] + grads[1])
        assert not np.shares_memory(grads.theta, net.theta)

    @pytest.mark.parametrize("m", [None, 5])
    def test_hand_built_pair_steps_bitwise_equal(self, m):
        net = init_mlp(3, [6, 4], 1, 2) if m is None else stacked_net(m)
        rng = np.random.default_rng(7)
        _, trace = forward_batch(net, rng.normal(size=(8, 3)))
        grads = backward_batch(net, trace, rng.normal(size=trace[-1].shape))
        own, hand = MLP(net.weights, net.biases), MLP(net.weights, net.biases)
        sgd_step(own, grads, 0.3)
        sgd_step(hand, hand_pair(grads), 0.3)
        np.testing.assert_array_equal(own.theta, hand.theta)
        assert not np.array_equal(own.theta, net.theta)

    @pytest.mark.parametrize("m", [None, 6])
    def test_hand_built_pair_diverges_alike(self, m):
        net = init_mlp(3, [6, 4], 1, 2) if m is None else stacked_net(m)
        rng = np.random.default_rng(8)
        _, trace = forward_batch(net, rng.normal(size=(8, 3)))
        grads = backward_batch(net, trace, rng.normal(size=trace[-1].shape))
        if m is None:
            grads[1][1][2] = np.inf  # layer 1's bias
        else:
            grads[1][1][2:, 2] = np.inf  # layer 1's bias in learners 2..
            grads[0][0][3] = np.nan  # and learner 3's first layer
        before = net.theta.copy()
        reports = []
        for g in (grads, hand_pair(grads)):
            with pytest.raises(DivergenceError) as exc:
                sgd_step(net, g, 0.1)
            mask = None if exc.value.mask is None else exc.value.mask.tolist()
            reports.append((str(exc.value), exc.value.learner, mask))
            np.testing.assert_array_equal(net.theta, before)
        assert reports[0] == reports[1]
        # the lowest diverging learner names its lowest non-finite layer
        assert reports[0][0].endswith("layer 1")
        assert reports[0][1:] == ((None, None) if m is None else (2, [i >= 2 for i in range(m)]))

    def test_gradients_of_another_layout_are_checked(self):
        net = stacked_net(3, (3, 6, 4, 1))
        other = stacked_net(3, (3, 4, 6, 1))
        _, trace = forward_batch(other, np.ones((2, 3)))
        with pytest.raises(ValueError, match="gradient shape mismatch"):
            sgd_step(net, backward_batch(other, trace, np.ones((3, 2, 1))), 0.1)

    @pytest.mark.parametrize("m", [None, 1, 7])
    @pytest.mark.parametrize("d_out", [1, 3])
    def test_one_output_propagation(self, monkeypatch, m, d_out):
        # a one-output layer propagates by a broadcast product; it must give the matmul's bits
        widths = (3, 6, 4, d_out)
        net = init_mlp(3, [6, 4], d_out, 3) if m is None else stacked_net(m, widths, seed=3)
        rng = np.random.default_rng(9)
        _, trace = forward_batch(net, rng.normal(size=(11, 3)))
        delta = rng.normal(size=trace[-1].shape)
        products = []
        multiply = np.multiply

        def counting(*args, **kwargs):
            products.append(args[0].shape)
            return multiply(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "multiply", counting)
            got = backward_batch(net, trace, delta)
        assert len(products) == (d_out == 1)
        want = matmul_backward(net, trace, delta)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            np.testing.assert_array_equal(a, b)

    def test_one_output_product_is_the_matmul(self):
        rng = np.random.default_rng(10)
        for m, h, n in [(1, 10, 200), (10, 10, 200), (220, 10, 10), (3, 1, 7)]:
            w_t = np.swapaxes(rng.normal(size=(m, 1, h)), -1, -2)
            g = rng.normal(0.0, 1e3, size=(m, 1, n))
            np.testing.assert_array_equal(np.multiply(w_t, g), w_t @ g)


class TestCheckpoint:
    def test_roundtrip(self):
        m = init_mlp(3, [5, 4], 2, 12)
        back = mlp_from_dict(mlp_to_dict(m))
        for wa, wb in zip(m.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(m.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_stack_roundtrip(self):
        m = init_mlp(3, [5, 4], 2, 12)
        stack = MLP(tuple(np.stack([w, 2 * w]) for w in m.weights), tuple(np.stack([b, b + 1]) for b in m.biases))
        back = mlp_from_dict(mlp_to_dict(stack))
        for a, b in zip(stack.weights + stack.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)

    def test_format_tag_checked(self):
        with pytest.raises(ValueError, match="format"):
            mlp_from_dict({"format": "other/9", "layers": []})
