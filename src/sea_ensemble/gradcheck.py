"""Finite-difference verification suites for the analytic gradients.

These re-check, at runtime, the same identities the test suite pins down:
network backward against central differences of the induced scalar loss, and
the training gradients of :func:`~sea_ensemble.ensemble.output_gradients`
against central differences of :func:`~sea_ensemble.ensemble.learner_losses`
under each method's differentiation convention (complement frozen for sea,
mean frozen for ncl, mean live for nclstar), plus the sea/ncl gradient
proportionality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import theory
from .ensemble import MethodConfig, learner_losses, output_gradients
from .mlp import MLP, backward_batch, forward_batch, init_mlp


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_err < self.tolerance


def _rel_err(a, b) -> float:
    a, b = np.ravel(a), np.ravel(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12))


def _worst_row_err(a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative error over the (learner, sample) rows of two (M, N, O) stacks."""
    o = a.shape[-1]
    return max(_rel_err(ra, rb) for ra, rb in zip(a.reshape(-1, o), b.reshape(-1, o)))


def _table_gradient(preds: np.ndarray, t: np.ndarray, config: MethodConfig, h: float) -> np.ndarray:
    """Central differences of learner_losses in the live stack, anchor fixed at ``preds``.

    Learner i's loss depends only on its own live row, so one perturbation of
    element (s, j) across all M learners gives every learner's derivative.
    """
    g = np.zeros_like(preds)
    for s, j in np.ndindex(*preds.shape[1:]):
        fp, fm = preds.copy(), preds.copy()
        fp[:, s, j] += h
        fm[:, s, j] -= h
        lp = learner_losses(fp, preds, t, config)[:, s]
        lm = learner_losses(fm, preds, t, config)[:, s]
        g[:, s, j] = (lp - lm) / (2 * h)
    return g


def _random_stack(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """An (M, N, O) prediction stack and (N, O) targets of random sizes."""
    m = int(rng.integers(2, 21))
    n = int(rng.integers(1, 4))
    o = int(rng.integers(1, 6))
    return rng.normal(size=(m, n, o)), rng.normal(size=(n, o))


def check_mlp_backward(n_nets: int = 50, seed: int = 0, h: float = 1e-6, tol: float = 1e-6) -> CheckResult:
    """Backward vs central differences of <delta, y(theta)> on random small nets, one row each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_nets):
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 4))
        hidden = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(0, 3)))]
        net = init_mlp(d_in, hidden, d_out, int(rng.integers(0, 2**31)))
        x = rng.normal(size=(1, d_in))
        delta = rng.normal(size=(1, d_out))
        _, trace = forward_batch(net, x)
        grad = backward_batch(net, trace, delta)

        def loss(theta: np.ndarray) -> float:
            y, _ = forward_batch(MLP(theta, net.shapes), x)
            return float(np.vdot(delta, y))

        fd = np.zeros_like(net.theta)
        for j in range(len(fd)):
            tp, tm = net.theta.copy(), net.theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (loss(tp) - loss(tm)) / (2 * h)
        got, want = MLP(grad, net.shapes), MLP(fd, net.shapes)
        # the worst error of each layer's weights and of its biases
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            worst = max(worst, _rel_err(a, b))
    return CheckResult("mlp_backward", worst, tol)


def check_loss_gradients(n_states: int = 1000, seed: int = 1, tol: float = 1e-8) -> list[CheckResult]:
    """The training gradients vs central differences of the loss table, per method.

    The losses are quadratic, so a relatively large step (1e-3) has no
    truncation error and keeps rounding noise far below the tolerance.
    """
    rng = np.random.default_rng(seed)
    h = 1e-3
    worst = {"sea": 0.0, "ncl": 0.0, "nclstar": 0.0}
    for _ in range(n_states):
        preds, t = _random_stack(rng)
        params = {
            "sea": float(rng.uniform(-0.5, 2.5)),
            "ncl": float(rng.uniform(-0.5, 1.5)),
            "nclstar": float(rng.uniform(-0.5, 1.5)),
        }
        for method, param in params.items():
            config = MethodConfig(method, param)
            fd = _table_gradient(preds, t, config, h)
            err = _worst_row_err(output_gradients(preds, t, config), fd)
            worst[method] = max(worst[method], err)
    return [CheckResult(f"{name}_gradient", err, tol) for name, err in worst.items()]


def check_sea_ncl_proportionality(n_states: int = 1000, seed: int = 2, tol: float = 1e-12) -> CheckResult:
    """sea gradient = (1 + k(M-1)) * ncl gradient at lambda(k), state by state."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        preds, t = _random_stack(rng)
        m = preds.shape[0]
        k = float(rng.uniform(-1.0 / (m - 1) + 0.05, 2.2))
        sea = output_gradients(preds, t, MethodConfig("sea", k))
        ncl = output_gradients(preds, t, MethodConfig("ncl", theory.lambda_from_k(k, m)))
        worst = max(worst, _worst_row_err(sea, (1.0 + k * (m - 1)) * ncl))
    return CheckResult("sea_ncl_proportionality", worst, tol)


def run_all() -> list[CheckResult]:
    return [check_mlp_backward(), *check_loss_gradients(), check_sea_ncl_proportionality()]
