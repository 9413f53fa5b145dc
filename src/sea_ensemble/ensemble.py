"""Adjustable-loss ensemble training.

An ensemble of M MLPs is trained by averaging their outputs and driving each
learner with a per-learner output-space gradient chosen by method:

* ``sea``         half squared distance between the learner's own error
                  (f_i - t) and k times its complementary error (g_i - t),
                  where g_i = M(t - fbar) + f_i is the prediction that would
                  make the ensemble output hit the target exactly. Gradient
                  treats g_i as a constant (stop-gradient).
* ``ncl``         half squared error plus lambda times the classical
                  negative-correlation penalty; gradient treats fbar and the
                  other learners as constants.
* ``nclstar``     half squared error minus gamma/2 times (f_i - fbar)^2;
                  gradient differentiates through fbar (the (1 - 1/M) factor).
* ``independent`` alias for sea with k = 0 (plain per-learner squared error);
                  shares the sea code path so the equivalence is structural.
* ``bagging``     the independent gradient with each row weighted by how often
                  the learner's bootstrap resample drew it.

Each loss is written once, in :func:`learner_losses`, over an (M, N, O)
prediction stack; :func:`output_gradients` is its gradient under each
method's convention and is what training uses. All five methods share the
one training step, :func:`train_epoch`. Cross-learner gradient terms are
dropped throughout: learner i's parameters only feel d(e_i)/d(f_i).

The M learners live in one stacked MLP, one (M, fan_out, fan_in) weight and
one (M, fan_out) bias array per layer, so a training step is one batched
forward, backward and update with no loop over learners;
``EnsembleModel.learners`` gives per-learner views for checkpoints.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import theory
from .mlp import (
    MLP,
    backward_batch,
    forward_batch,
    init_mlp,
    mlp_from_dict,
    mlp_to_dict,
    sgd_step,
)
from .seeds import derive_seed

log = logging.getLogger(__name__)

METHODS = ("independent", "sea", "ncl", "nclstar", "bagging")
ADJUSTABLE = ("sea", "ncl", "nclstar")


@dataclass(frozen=True)
class MethodConfig:
    """Loss family plus its adjustable parameter (ignored for independent/bagging)."""

    method: str
    param: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        object.__setattr__(self, "param", float(self.param))


class EnsembleModel:
    """M same-shape base learners held as one stacked MLP, ``net``, plus the training method.

    Bagging's bootstrap resamples are kept as one (M, n) index array.
    """

    def __init__(self, learners: list[MLP], config: MethodConfig, seed: int, bootstrap: np.ndarray | None = None):
        if not learners:
            raise ValueError("ensemble needs at least one learner")
        for i, m in enumerate(learners):
            if [w.shape for w in m.weights] != [w.shape for w in learners[0].weights]:
                raise ValueError(f"learner {i} layer shapes differ from learner 0")
        self.net = MLP(
            tuple(np.stack(ws) for ws in zip(*(m.weights for m in learners))),
            tuple(np.stack(bs) for bs in zip(*(m.biases for m in learners))),
        )
        self.config = config
        self.seed = seed
        self.bootstrap = None if bootstrap is None else np.stack(bootstrap)
        if self.config.method in ADJUSTABLE and self.m < 2:
            raise ValueError(f"{self.config.method} requires M >= 2, got M={self.m}")
        if self.config.method == "sea":
            lo, hi = theory.sea_k_bounds(self.m)
            if not lo < self.config.param < hi:
                log.warning(
                    "SEA k=%g outside the theoretical interval (%g, %g) for M=%d; proceeding",
                    self.config.param, lo, hi, self.m,
                )
        if self.config.method == "bagging" and self.bootstrap is None:
            raise ValueError("bagging ensemble needs bootstrap indices")
        idx = self.bootstrap
        if idx is not None:
            # one resample of 0..n-1 per learner, and only bagging trains on them
            if self.config.method != "bagging":
                raise ValueError(f"only bagging takes bootstrap indices, not {self.config.method}")
            if idx.dtype.kind not in "iu":
                raise ValueError(f"bootstrap indices must be integers, got dtype {idx.dtype}")
            if idx.ndim != 2 or idx.shape[0] != self.m or idx.shape[1] == 0:
                raise ValueError(f"bootstrap must be (M={self.m}, n), got shape {idx.shape}")
            if idx.min() < 0 or idx.max() >= idx.shape[1]:
                raise ValueError(f"bootstrap indices must lie in [0, {idx.shape[1]})")

    @property
    def learners(self) -> list[MLP]:
        """Learner i as a single-network MLP whose arrays are views into the stack."""
        return [
            MLP(tuple(w[i] for w in self.net.weights), tuple(b[i] for b in self.net.biases))
            for i in range(self.m)
        ]

    @property
    def m(self) -> int:
        return self.net.weights[0].shape[0]


def build_ensemble(
    d_in: int,
    hidden: list[int],
    d_out: int,
    m: int,
    config: MethodConfig,
    seed: int,
    n_train: int | None = None,
) -> EnsembleModel:
    """Initialize M learners from a single seed.

    Learner i is seeded by ``derive_seed(seed, "learner", i)``; the method
    never enters the derivation, so all methods started from the same seed
    share initial parameters. Bagging additionally draws its bootstrap
    resamples (requires ``n_train``).
    """
    learners = [init_mlp(d_in, hidden, d_out, derive_seed(seed, "learner", i)) for i in range(m)]
    bootstrap = None
    if config.method == "bagging":
        if n_train is None:
            raise ValueError("bagging needs n_train to draw bootstrap indices")
        bootstrap = bootstrap_indices(n_train, m, derive_seed(seed, "bootstrap"))
    return EnsembleModel(learners, config, seed, bootstrap)


def bootstrap_indices(n: int, m: int, seed: int) -> list[np.ndarray]:
    """M independent with-replacement resamples of 0..n-1, each of length n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=n) for _ in range(m)]


# ---------------------------------------------------------------------------
# predictions


def predictions_batch(ens: EnsembleModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """All learner outputs on an (N, D) batch: returns (M, N, O) plus the stacked trace."""
    return forward_batch(ens.net, x)


def complementary_prediction(preds: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g = M (t - fbar) + f for every learner of an (M, ...) stack.

    Replacing learner i's prediction by g_i makes the ensemble hit t exactly.
    """
    return preds.shape[0] * (t - preds.mean(axis=0)) + preds


# ---------------------------------------------------------------------------
# losses and output-space gradients, vectorized over an (M, N, O) stack


def learner_losses(f: np.ndarray, anchor: np.ndarray, t: np.ndarray, config: MethodConfig) -> np.ndarray:
    """Per-learner, per-sample loss (M, N) of the live stack ``f``.

    ``anchor`` is the (M, N, O) stack at which each method's differentiation
    convention freezes what learner i does not control: the complement
    g_i for sea, the mean and the other learners' deviations for ncl, and
    the other learners (the mean stays live) for nclstar. Learner i's loss
    depends on ``f`` only through its own row f_i, so at ``f == anchor`` the
    gradient of row i is exactly what :func:`output_gradients` returns.
    """
    err = f - t
    if config.method in ("sea", "independent", "bagging"):
        k = config.param if config.method == "sea" else 0.0
        r = err - k * (complementary_prediction(anchor, t) - t)
        return 0.5 * (r * r).sum(axis=2)
    fbar = anchor.mean(axis=0)
    if config.method == "ncl":
        dev = anchor - fbar
        others = dev.sum(axis=0) - dev  # sum_{j != i} (f_j - fbar)
        return 0.5 * (err * err).sum(axis=2) + config.param * ((f - fbar) * others).sum(axis=2)
    if config.method == "nclstar":
        live_dev = f - (fbar + (f - anchor) / anchor.shape[0])
        return 0.5 * (err * err).sum(axis=2) - config.param * 0.5 * (live_dev * live_dev).sum(axis=2)
    raise ValueError(f"unknown method {config.method!r}")


def output_gradients(preds: np.ndarray, t: np.ndarray, config: MethodConfig) -> np.ndarray:
    """Per-learner output-space gradients d(loss_i)/d(f_i) over an (M, N, O) stack.

    The nclstar coefficient is computed as gamma (M-1)/M so that the identity
    with the ncl gradient at lambda = gamma (M-1)/M is bitwise exact.
    """
    m = preds.shape[0]
    err = preds - t  # (M, N, O) broadcast of f_i - t
    if config.method in ("sea", "independent", "bagging"):
        k = config.param if config.method == "sea" else 0.0
        fbar = preds.mean(axis=0)
        comp_err = err - m * (fbar - t)  # g_i - t
        return err - k * comp_err
    if config.method == "ncl":
        fbar = preds.mean(axis=0)
        return err - config.param * (preds - fbar)
    if config.method == "nclstar":
        fbar = preds.mean(axis=0)
        return err - config.param * (m - 1.0) / m * (preds - fbar)
    raise ValueError(f"unknown method {config.method!r}")


# ---------------------------------------------------------------------------
# training


def train_epoch(ens: EnsembleModel, x: np.ndarray, t: np.ndarray, alpha: float) -> None:
    """One synchronized gradient step on the given batch.

    All M learners are forwarded, per-learner output-space gradients are
    computed from the pre-update parameters, and every learner takes one SGD
    step at the end. Gradients are averaged over the batch. A bagging learner
    weights each row by the number of times its bootstrap resample drew it,
    so its gradient is sum_r c_r (f_r - t_r) / n. If any learner's update is
    non-finite, the :class:`DivergenceError` names the lowest such learner
    and the ensemble is left unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[0] != t.shape[0]:
        raise ValueError(f"batch has {x.shape[0]} inputs but {t.shape[0]} targets")
    n = x.shape[0]
    if ens.bootstrap is not None and ens.bootstrap.max() >= n:
        raise ValueError("bootstrap indices exceed batch size; bagging trains full-batch")

    # Overflow in a diverging run surfaces as DivergenceError at the update.
    with np.errstate(over="ignore", invalid="ignore"):
        preds, trace = predictions_batch(ens, x)
        deltas = output_gradients(preds, t, ens.config)
        if ens.bootstrap is not None:
            # row r of learner i counts how often resample i drew r
            m = ens.m
            offsets = n * np.arange(m)[:, None]
            counts = np.bincount((ens.bootstrap + offsets).ravel(), minlength=m * n)
            deltas *= counts.reshape(m, n)[:, :, None]
        grads = backward_batch(ens.net, trace, deltas / n)
    sgd_step(ens.net, grads, alpha)


# ---------------------------------------------------------------------------
# checkpointing


def ensemble_to_json(ens: EnsembleModel) -> str:
    doc = {
        "format": "sea-ensemble/1",
        "method": ens.config.method,
        "param": ens.config.param,
        "seed": ens.seed,
        "learners": [mlp_to_dict(m) for m in ens.learners],
        "bootstrap": None
        if ens.bootstrap is None
        else [[int(v) for v in idx] for idx in ens.bootstrap],
    }
    return json.dumps(doc, sort_keys=True)


def ensemble_from_json(text: str) -> EnsembleModel:
    doc = json.loads(text)
    if doc.get("format") != "sea-ensemble/1":
        raise ValueError(f"unsupported checkpoint format: {doc.get('format')!r}")
    learners = [mlp_from_dict(d) for d in doc["learners"]]
    # no dtype: fractional indices stay floats and are rejected, not truncated
    bootstrap = None if doc["bootstrap"] is None else np.asarray(doc["bootstrap"])
    return EnsembleModel(
        learners, MethodConfig(doc["method"], doc["param"]), doc["seed"], bootstrap
    )
