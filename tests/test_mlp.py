import warnings

import numpy as np
import pytest

from sea_ensemble.ensemble import EnsembleModel, MethodConfig, ensemble_from_json, ensemble_to_json
from sea_ensemble.mlp import (
    MLP,
    _sigmoid,
    backward_batch,
    forward_batch,
    init_mlp,
    sgd_step,
)


def finite_difference_grads(m: MLP, x: np.ndarray, delta_out: np.ndarray, h: float = 1e-6):
    """Central finite differences of the scalar loss <delta_out, y(theta)> on a batch, laid out as ``m.theta``.

    Independent of the backward pass: re-runs forward with each parameter
    nudged by +-h.
    """

    def loss(model):
        y, _ = forward_batch(model, x)
        return float(np.vdot(delta_out, y))

    grad = np.zeros_like(m.theta)
    for j in range(len(grad)):
        tp, tm = m.theta.copy(), m.theta.copy()
        tp[j] += h
        tm[j] -= h
        grad[j] = (loss(MLP(tp, m.shapes)) - loss(MLP(tm, m.shapes))) / (2 * h)
    return grad


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
        m = MLP(np.array([2.0, 1.0]), ((1, 1),))  # one [W | b] block: y = 2 x + 1
        y, _ = forward_batch(m, np.array([[3.0]]))
        assert y[0, 0] == 7.0

    def test_zero_net(self):
        m = MLP(np.zeros(4 * 3 + 1 * 5), ((4, 2), (1, 4)))
        y, _ = forward_batch(m, np.array([[5.0, -3.0]]))
        # hidden sigmoids output 0.5 but the zero output weights kill them
        assert y[0, 0] == 0.0

    def test_sigmoid_midpoint(self):
        # one hidden unit pinned at z=0: y = 2 * sigmoid(0) = 1.0
        m = MLP(np.array([0.0, 0.0, 2.0, 0.0]), ((1, 1), (1, 1)))
        y, _ = forward_batch(m, np.array([[1234.5]]))
        assert y[0, 0] == 1.0

    def test_saturated_unit_without_warning(self):
        # z = -1000: exp(-z) overflows to inf and the unit outputs exactly 0
        m = MLP(np.array([-1.0, 0.0, 2.0, 0.5]), ((1, 1), (1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, trace = forward_batch(m, np.array([[1000.0], [-1000.0]]))
        assert y[:, 0].tolist() == [0.5, 2.5] and trace[1][:, 0].tolist() == [0.0, 1.0]

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
        assert (backward_batch(m, trace, np.array([[0.0]])) == 0).all()

    def test_linear_layer_hand_case(self):
        # y = w x + b, loss gradient delta: dW = delta * x, db = delta
        m = MLP(np.array([1.5, 0.0]), ((1, 1),))
        _, trace = forward_batch(m, np.array([[3.0]]))
        d = MLP(backward_batch(m, trace, np.array([[2.0]])), m.shapes)
        np.testing.assert_array_equal(d.weights[0], [[6.0]])
        np.testing.assert_array_equal(d.biases[0], [2.0])

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
        got = MLP(backward_batch(m, trace, delta), m.shapes)
        fd = MLP(finite_difference_grads(m, x, delta), m.shapes)
        for l in range(m.n_layers):
            assert relative_error(got.weights[l], fd.weights[l]) < 1e-6
            assert relative_error(got.biases[l], fd.biases[l]) < 1e-6

    def test_batch_sums_samples(self):
        m = init_mlp(2, [4], 1, 1)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, 2))
        deltas = rng.normal(size=(6, 1))
        _, trace = forward_batch(m, xs)
        dw_all = MLP(backward_batch(m, trace, deltas), m.shapes).weights
        acc_w = [np.zeros_like(w) for w in m.weights]
        for i in range(6):
            _, tr = forward_batch(m, xs[i : i + 1])
            dw_i = MLP(backward_batch(m, tr, deltas[i : i + 1]), m.shapes).weights
            for l in range(m.n_layers):
                acc_w[l] += dw_i[l]
        for l in range(m.n_layers):
            np.testing.assert_allclose(dw_all[l], acc_w[l], rtol=1e-12, atol=1e-12)

    def test_delta_layout_does_not_matter(self):
        # train_epoch passes a swapaxes view of a feature-major (M, O, N)
        # array; gradcheck and the tests pass C-contiguous (M, N, O) arrays
        net = stacked_net(4, (3, 6, 4, 3))
        rng = np.random.default_rng(3)
        _, trace = forward_batch(net, rng.normal(size=(9, 3)))
        delta = rng.normal(size=(4, 9, 3))
        view = np.swapaxes(np.ascontiguousarray(np.swapaxes(delta, -1, -2)), -1, -2)
        assert delta.flags.c_contiguous and not view.flags.c_contiguous
        got_c = backward_batch(net, trace, delta)
        got_view = backward_batch(net, trace, view)
        np.testing.assert_array_equal(got_c, got_view)

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
        m = MLP(np.array([1.0, 0.0]), ((1, 1),))
        grad = np.zeros_like(m.theta)
        MLP(grad, m.shapes).weights[0][0, 0] = 2.0
        sgd_step(m, grad, 0.1)
        assert m.weights[0][0, 0] == pytest.approx(0.8)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_zero_alpha_rejected(self, alpha):
        m = init_mlp(1, [], 1, 0)
        _, trace = forward_batch(m, np.array([[1.0]]))
        g = backward_batch(m, trace, np.array([[1.0]]))
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(m, g, alpha)

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
        want = 1.0 / (1.0 + np.exp(-z))
        np.testing.assert_array_equal(_sigmoid(z), want)
        assert _sigmoid(z, out=z) is z
        np.testing.assert_array_equal(z, want)

    def test_matches_exp_forms(self):
        z = np.linspace(-50, 50, 200001)
        ref = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        # relative: the form 0.5 * (1 + tanh(z/2)) is off by more than 1e-15 of the value below z ~ -3,
        # and is exactly 0 below z ~ -38
        assert (np.abs(_sigmoid(z) - ref) <= 1e-15 * ref).all()


class TestStack:
    @staticmethod
    def stack(m: int, widths=(2, 3, 1)) -> MLP:
        shapes = tuple(zip(widths[1:], widths[:-1]))
        return MLP(np.zeros((m, sum(o * (i + 1) for o, i in shapes))), shapes)

    def test_widths(self):
        net = self.stack(4)
        assert (net.n_layers, net.d_in, net.d_out) == (2, 2, 1)

    def test_per_learner_input_matches_learners_alone(self):
        net = stacked_net(4)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 9, 3))
        y, trace = forward_batch(net, x)
        delta = rng.normal(size=y.shape)
        grad = backward_batch(net, trace, delta)
        for i, row in enumerate(net.theta):
            alone = MLP(row, net.shapes)
            y_i, trace_i = forward_batch(alone, x[i])
            np.testing.assert_array_equal(y[i], y_i)
            np.testing.assert_array_equal(grad[i], backward_batch(alone, trace_i, delta[i]))

    @pytest.mark.parametrize("shape", [(3, 9, 3), (5, 9, 3), (1, 9, 3), (2, 4, 9, 3), (9,)])
    def test_input_of_another_stack_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected \(N, 3\) or \(4, N, 3\) input"):
            forward_batch(stacked_net(4), np.zeros(shape))

    def test_single_network_takes_no_per_learner_input(self):
        with pytest.raises(ValueError, match=r"expected \(N, 3\) input"):
            forward_batch(init_mlp(3, [4], 1, 0), np.zeros((1, 9, 3)))


def stacked_net(m: int, widths=(3, 6, 4, 1), seed: int = 0) -> MLP:
    nets = [init_mlp(widths[0], list(widths[1:-1]), widths[-1], seed + i) for i in range(m)]
    return MLP(np.stack([n.theta for n in nets]), nets[0].shapes)


def matmul_backward(m: MLP, trace, delta):
    """backward_batch's arithmetic with every propagation written as the matmul ``swapaxes(w) @ g``."""
    g = np.ascontiguousarray(np.swapaxes(delta, -1, -2))
    grad = np.empty(m.theta.shape)
    blocks = MLP(grad, m.shapes).blocks
    for l in range(m.n_layers - 1, -1, -1):
        blocks[l][...] = g @ trace[l]  # the trace's last column is ones, so the last column here is db
        if l > 0:
            a = np.swapaxes(trace[l], -1, -2)[..., :-1, :]
            g = (np.swapaxes(m.weights[l], -1, -2) @ g) * ((1.0 - a) * a)
    return grad


class TestFlatLayout:
    """theta holds [W_0 | b_0], [W_1 | b_1], ... per learner; weights and biases view it; gradients share its layout."""

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

    @pytest.mark.parametrize("m", [None, 5])
    def test_backward_writes_one_gradient_array(self, m):
        net = init_mlp(3, [6, 4], 1, 2) if m is None else stacked_net(m)
        rng = np.random.default_rng(6)
        _, trace = forward_batch(net, rng.normal(size=(8, 3)))
        grad = backward_batch(net, trace, rng.normal(size=trace[-1].shape))
        assert type(grad) is np.ndarray and grad.shape == net.theta.shape
        assert not np.shares_memory(grad, net.theta)

    @pytest.mark.parametrize("m", [None, 6])
    def test_hand_built_pair_diverges_alike(self, m):
        # a non-finite update is applied in place, like any other, and shows in exactly the planted learners
        net = init_mlp(3, [6, 4], 1, 2) if m is None else stacked_net(m)
        rng = np.random.default_rng(8)
        _, trace = forward_batch(net, rng.normal(size=(8, 3)))
        grad = backward_batch(net, trace, rng.normal(size=trace[-1].shape))
        d = MLP(grad, net.shapes)
        if m is None:
            d.biases[1][2] = np.inf  # layer 1's bias
        else:
            d.biases[1][2:, 2] = np.inf  # layer 1's bias in learners 2..
            d.weights[0][3] = np.nan  # and learner 3's first layer
        theta, blocks = net.theta, net.blocks
        with np.errstate(invalid="ignore"):
            want = theta - grad * 0.1
        sgd_step(net, grad, 0.1)
        assert net.theta is theta and all(a is b for a, b in zip(net.blocks, blocks))
        np.testing.assert_array_equal(net.theta, want)
        finite = np.isfinite(net.theta).all(axis=-1)
        assert finite.tolist() == (False if m is None else [i < 2 for i in range(m)])
        if m is not None:  # a learner's row is a view: stepping it steps the stack
            learner = MLP(net.theta[1], net.shapes)
            row = net.theta[1].copy()
            sgd_step(learner, grad[1], 0.1)
            np.testing.assert_array_equal(net.theta[1], row - grad[1] * 0.1)
            assert not np.array_equal(net.theta[1], row)

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
        np.testing.assert_array_equal(got, matmul_backward(net, trace, delta))

    def test_one_output_product_is_the_matmul(self):
        rng = np.random.default_rng(10)
        for m, h, n in [(1, 10, 200), (10, 10, 200), (220, 10, 10), (3, 1, 7)]:
            w_t = np.swapaxes(rng.normal(size=(m, 1, h)), -1, -2)
            g = rng.normal(0.0, 1e3, size=(m, 1, n))
            np.testing.assert_array_equal(np.multiply(w_t, g), w_t @ g)


def through_checkpoint(net: MLP) -> MLP:
    """``net``, a stack, as the learners of one checkpointed ensemble, read back; the document writes back unchanged."""
    text = ensemble_to_json(EnsembleModel(net, MethodConfig("independent"), seed=0))
    back = ensemble_from_json(text)
    assert ensemble_to_json(back) == text
    return back.net


class TestCheckpoint:
    """The sea-mlp/1 layer list of a checkpoint; its malformed-field cases are in test_ensemble.py."""

    def test_roundtrip(self):
        m = init_mlp(3, [5, 4], 2, 12)
        (back,) = through_checkpoint(MLP(m.theta[None], m.shapes)).theta
        back = MLP(back, m.shapes)
        for wa, wb in zip(m.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(m.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_stack_roundtrip(self):
        m = init_mlp(3, [5, 4], 2, 12)
        stack = MLP(np.stack([m.theta, m.theta]), m.shapes)
        for w, b in zip(stack.weights, stack.biases):
            w[1] *= 2
            b[1] += 1
        back = through_checkpoint(stack)
        assert back.shapes == ((5, 3), (4, 5), (2, 4))
        for a, b in zip(stack.weights + stack.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)
