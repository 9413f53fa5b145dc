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
* ``bagging``     the independent gradient on the learner's bootstrap
                  resample: each learner trains on the distinct rows it drew,
                  each weighted by how often it drew it.

Each loss is written once, in :func:`learner_losses`, over an (M, N, O)
prediction stack; :func:`output_gradients` is its gradient under each
method's convention and is what training uses. All five methods share the
one training step, :func:`train_epoch`. Cross-learner gradient terms are
dropped throughout: learner i's parameters only feel d(e_i)/d(f_i).

The M learners live in one stacked MLP, whose (M, n_params) parameter array
holds an (M, fan_out, fan_in + 1) ``[W | b]`` block per layer, so a training
step is one batched forward, backward and update with no loop over learners.
A stack may hold P ensembles, one per parameter value, trained by the same
step. The stack is the only form an ensemble has: it is built, checkpointed
and reloaded as one MLP. ``MethodConfig`` and ``EnsembleModel`` are plain
holders that check nothing: a config is checked where it enters, by
``harness.ExperimentConfig``, and a checkpoint by :func:`ensemble_from_json`.

Bagging's learners do not share a batch. A resample of n rows holds about
1 - 1/e (63%) distinct rows, so each learner's layer-0 input is its own
distinct drawn rows, padded to the widest learner's w with weight-0 copies
of one of its own drawn rows; the draw counts weight the rows. Forward,
backward and dW then run on w rows, not n. :func:`drawn_batch` gathers
those (P*M, w, D) inputs. :func:`epoch_steps` is the one rule for what
each step of an epoch reads, bagging's gather included, so a training
loop gathers once per stack, not once per step.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .mlp import MLP, backward_batch, forward_batch, init_mlp, sgd_step
from .seeds import derive_seed

METHODS = ("independent", "sea", "ncl", "nclstar", "bagging")
ADJUSTABLE = ("sea", "ncl", "nclstar")


@dataclass(frozen=True)
class MethodConfig:
    """Loss family plus its adjustable parameter (ignored for independent/bagging)."""

    method: str
    param: float = 0.0


class EnsembleModel:
    """P ensembles of M same-shape learners held as one stacked MLP, ``net``, plus the training method.

    Ensemble p is learners [p*M, (p+1)*M) and ``params[p]`` is its parameter; ``config`` names the
    method. ``config.param`` is only where a new model's ``params`` start: a stack from :meth:`take`
    holds its own ``params``, a sweep's grid, and keeps the config it was built with. Bagging's
    bootstrap resamples are one (M, n) index array, shared by the P ensembles; ``rows`` and
    ``counts``, (M, w) each, are derived from it once (:func:`drawn_rows`), and are None for the
    other methods. ``work`` is the kernel workspace (see :mod:`sea_ensemble.mlp`). The
    constructor only assigns these fields, as ``MLP``'s does.
    """

    def __init__(self, net: MLP, config: MethodConfig, seed: int, bootstrap: np.ndarray | None = None):
        self.net = net
        self.work: dict = {}
        self.config = config
        self.params = np.array([config.param], dtype=np.float64)
        self.seed = seed
        self.bootstrap = bootstrap
        self.rows, self.counts = (None, None) if bootstrap is None else drawn_rows(bootstrap)

    def take(self, points, params=None) -> EnsembleModel:
        """Ensembles ``points`` of this stack, copied in that order, at ``params`` (default: their own).

        An index may repeat: ``take([0] * P, grid)`` starts P ensembles from ensemble 0's learners.
        """
        points = np.asarray(points, dtype=np.intp)
        rows = (points[:, None] * self.m + np.arange(self.m)).ravel()
        other = copy.copy(self)
        # one fancy index copies the rows
        other.net = MLP(self.net.theta[rows], self.net.shapes)
        other.params = self.params[points] if params is None else np.array(params, dtype=np.float64)
        return other

    @property
    def learners(self) -> list[MLP]:
        """Learner i as a single-network MLP whose arrays are views into the stack: a step on one steps the stack."""
        return [MLP(row, self.net.shapes) for row in self.net.theta]

    @property
    def m(self) -> int:
        return len(self.net.theta) // len(self.params)


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
    nets = [init_mlp(d_in, hidden, d_out, derive_seed(seed, "learner", i)) for i in range(m)]
    net = MLP(np.stack([n.theta for n in nets]), nets[0].shapes)
    bootstrap = None
    if config.method == "bagging":
        if n_train is None:
            raise ValueError("bagging needs n_train to draw bootstrap indices")
        bootstrap = bootstrap_indices(n_train, m, derive_seed(seed, "bootstrap"))
    return EnsembleModel(net, config, seed, bootstrap)


def bootstrap_indices(n: int, m: int, seed: int) -> np.ndarray:
    """M independent with-replacement resamples of 0..n-1 as one (M, n) array, drawn row by row from one generator."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return np.random.default_rng(seed).integers(0, n, size=(m, n))


def drawn_rows(bootstrap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of M resamples of 0..n-1 as its distinct rows, ascending, and their draw counts: (M, w) each.

    w is the most distinct rows any resample drew. A resample with fewer is
    padded with copies of its first drawn row at count 0: an undrawn row
    could overflow where the learner's own rows do not, and 0 * inf is NaN.
    """
    m, n = bootstrap.shape
    counts = np.bincount((bootstrap + n * np.arange(m)[:, None]).ravel(), minlength=m * n).reshape(m, n)
    drawn = counts > 0
    rows = np.argsort(~drawn, axis=1, kind="stable")[:, : drawn.sum(axis=1).max()]  # drawn rows first
    weights = np.take_along_axis(counts, rows, axis=1)
    return np.where(weights > 0, rows, rows[:, :1]), weights.astype(np.float64)


def drawn_batch(ens: EnsembleModel, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bagging's per-learner batch from the (n, D) inputs and (n, O) targets: (P*M, w, D) and (P*M, w, O).

    Learner i of every ensemble reads its drawn rows, ``ens.rows[i]``. This
    is a gather of every row a step touches, so a training loop calls it
    once and passes the result to every :func:`train_epoch`.
    """
    if ens.bootstrap.max() >= len(x):
        raise ValueError("bootstrap indices exceed batch size; bagging trains full-batch")
    rows = np.tile(ens.rows, (len(ens.params), 1))
    return x[rows], t[rows]


def epoch_steps(
    ens: EnsembleModel, x: np.ndarray, t: np.ndarray, batch_size: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (inputs, targets) of each step of one epoch over the (n, D) inputs and (n, O) targets.

    Bagging trains full-batch, because its bootstrap rows index the whole
    set: one step of the :func:`drawn_batch` gather, whatever
    ``batch_size``. The other methods step on ``batch_size``-row slices,
    the last one short, or on one full batch when ``batch_size`` is None.
    A stack that loses ensembles needs its steps again.
    """
    if ens.rows is not None:
        return [drawn_batch(ens, x, t)]
    size = len(x) if batch_size is None else batch_size
    return [(x[start : start + size], t[start : start + size]) for start in range(0, len(x), size)]


# ---------------------------------------------------------------------------
# predictions


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


def output_gradients(preds: np.ndarray, t: np.ndarray, config: MethodConfig, params=None) -> np.ndarray:
    """Per-learner output-space gradients d(loss_i)/d(f_i) over a (P*M, N, O) stack of P ensembles.

    Ensemble p, viewed as slice p of (P, M, N, O), takes its mean over its own
    M learners at ``params[p]`` (default: one ensemble at ``config.param``).
    The targets ``t`` are (N, O), shared by every learner, or (P*M, N, O),
    one row set per learner as bagging's drawn rows.
    ncl and nclstar are one expression, ``err - c (f - fbar)``: c is lambda
    for ncl and gamma (M-1)/M for nclstar, so nclstar at gamma is bitwise ncl
    at lambda = gamma (M-1)/M.
    """
    p = np.asarray([config.param] if params is None else params).reshape(-1, 1, 1, 1)
    f = preds.reshape(len(p), -1, *preds.shape[1:])
    if t.ndim == preds.ndim:  # per-learner targets, as bagging's drawn rows
        t = t.reshape(f.shape)
    m = f.shape[1]
    err = f - t  # (P, M, N, O) broadcast of f_i - t
    fbar = np.add.reduce(f, axis=1, keepdims=True) / m  # the mean, without np.mean's Python-level overhead
    if config.method in ("sea", "independent", "bagging"):
        k = p if config.method == "sea" else 0.0
        comp_err = err - m * (fbar - t)  # g_i - t
        return (err - k * comp_err).reshape(preds.shape)
    if config.method in ("ncl", "nclstar"):
        c = p if config.method == "ncl" else p * (m - 1.0) / m
        return (err - c * (f - fbar)).reshape(preds.shape)
    raise ValueError(f"unknown method {config.method!r}")


# ---------------------------------------------------------------------------
# training


def train_epoch(ens: EnsembleModel, x: np.ndarray, t: np.ndarray, alpha: float) -> None:
    """One synchronized gradient step on the given batch.

    All M learners are forwarded, per-learner output-space gradients are
    computed from the pre-update parameters, and every learner takes one SGD
    step at the end; a stack of P ensembles steps each at its own parameter.
    Gradients are averaged over the batch. A bagging learner steps on its
    resample, n draws from the batch's rows: on the rows it drew, each
    weighted by its draw count c_r, so its gradient is
    sum_r c_r (f_r - t_r) / n. Bagging takes the batch and gathers the drawn
    rows itself, or the (P*M, w, D) inputs and (P*M, w, O) targets of
    :func:`drawn_batch`, gathered once for many steps. The step updates
    ``ens.net.theta`` in place; a learner whose update is non-finite keeps
    its non-finite values there, for the caller to find. The forward and
    backward arrays go to ``ens.work``.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == x.ndim - 1:
        t = t[..., None]
    if 0 in x.shape[:-1]:
        raise ValueError("empty batch")
    if x.shape[:-1] != t.shape[:-1]:
        raise ValueError(f"batch has {x.shape[:-1]} inputs but {t.shape[:-1]} targets")
    if ens.rows is None:
        if x.ndim != 2:
            raise ValueError(f"only bagging's learners read their own rows; {ens.config.method} takes an (N, D) batch")
        n = x.shape[0]
    else:
        if x.ndim == 2:
            x, t = drawn_batch(ens, x, t)
        elif x.shape[:-1] != (len(ens.net.theta), ens.rows.shape[1]):
            raise ValueError(f"bagging's drawn rows are ({len(ens.net.theta)}, {ens.rows.shape[1]}, D), got {x.shape}")
        n = ens.bootstrap.shape[1]

    # Overflow in a diverging run surfaces as non-finite parameters after the update.
    with np.errstate(over="ignore", invalid="ignore"):
        preds, trace = forward_batch(ens.net, x, ens.work)
        deltas = output_gradients(preds, t, ens.config, ens.params)
        if ens.counts is not None:
            per_ensemble = deltas.reshape(len(ens.params), *ens.counts.shape, -1)
            deltas = (per_ensemble * ens.counts[:, :, None]).reshape(preds.shape)
        grads = backward_batch(ens.net, trace, deltas / n, ens.work)
    sgd_step(ens.net, grads, alpha)


# ---------------------------------------------------------------------------
# checkpointing


def ensemble_to_json(ens: EnsembleModel) -> str:
    """The ``sea-ensemble/2`` checkpoint of one ensemble: its stacked net, method, parameter, seed and bootstrap.

    The net is a ``sea-mlp/1`` list of layers, each its (M, fan_out, fan_in) shape and row-major values.
    """
    if len(ens.params) != 1:
        raise ValueError(f"a checkpoint holds one ensemble, not a stack of {len(ens.params)}")
    layers = [{"shape": list(w.shape), "weights": w.ravel().tolist(), "biases": b.ravel().tolist()}
              for w, b in zip(ens.net.weights, ens.net.biases)]
    doc = {
        "format": "sea-ensemble/2",
        "method": ens.config.method,
        "param": float(ens.params[0]),
        "seed": ens.seed,
        "net": {"format": "sea-mlp/1", "layers": layers},
        "bootstrap": None if ens.bootstrap is None else ens.bootstrap.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def ensemble_from_json(text: str) -> EnsembleModel:
    """The ensemble of a ``sea-ensemble/2`` checkpoint; a missing or malformed field is named in a ``ValueError``."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != "sea-ensemble/2":
        raise ValueError(f"unsupported checkpoint format: {doc.get('format')!r}")
    missing = [key for key in ("net", "method", "param", "seed", "bootstrap") if key not in doc]
    if missing:
        raise ValueError(f"checkpoint lacks {', '.join(missing)}")
    if not isinstance(doc["net"], dict):
        raise ValueError(f"checkpoint net must be a JSON object, got {type(doc['net']).__name__}")
    if type(doc["seed"]) is not int:  # not a bool, a float or a string
        raise ValueError(f"checkpoint seed must be an integer, got {doc['seed']!r}")
    method, param, bootstrap = doc["method"], doc["param"], doc["bootstrap"]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if type(param) not in (int, float):
        raise ValueError(f"checkpoint param must be a number, got {param!r}")
    try:
        param = float(param)
    except OverflowError:  # a JSON integer past float range
        raise ValueError("checkpoint param is an integer too large for a float") from None
    if not math.isfinite(param):  # json.loads reads NaN and Infinity
        raise ValueError(f"{method} parameter must be finite, got {param}")
    net = _net_from_doc(doc["net"])
    m = len(net.theta)
    if method in ADJUSTABLE and m < 2:
        raise ValueError(f"{method} requires M >= 2, got M={m}")
    if method != "bagging" and bootstrap is not None:
        raise ValueError(f"only bagging takes bootstrap indices, not {method}")
    if method == "bagging":
        if bootstrap is None:
            raise ValueError("bagging ensemble needs bootstrap indices")
        # one resample of 0..n-1 per learner, checked as JSON before numpy reads it
        n = len(bootstrap[0]) if type(bootstrap) is list and bootstrap and type(bootstrap[0]) is list else 0
        if n == 0 or len(bootstrap) != m or any(type(row) is not list or len(row) != n for row in bootstrap):
            raise ValueError(f"checkpoint bootstrap must be (M={m}, n) lists of n >= 1 indices")
        if any(type(i) is not int for row in bootstrap for i in row):  # not a bool or a float
            raise ValueError("checkpoint bootstrap indices must be integers")
        if any(not 0 <= i < n for row in bootstrap for i in row):
            raise ValueError(f"checkpoint bootstrap indices must lie in [0, {n})")
        bootstrap = np.array(bootstrap)
    return EnsembleModel(net, MethodConfig(method, param), doc["seed"], bootstrap)


def _net_from_doc(net: dict) -> MLP:
    """The stacked MLP of a checkpoint's ``sea-mlp/1`` layer list, each layer's shape, chaining and values checked."""
    if net.get("format") != "sea-mlp/1":
        raise ValueError(f"unsupported checkpoint net format: {net.get('format')!r}")
    if type(net.get("layers")) is not list or not net["layers"]:
        raise ValueError("checkpoint net lacks layers")
    shapes, blocks = [], []
    for l, layer in enumerate(net["layers"]):
        where = f"checkpoint net layer {l}"
        missing = [key for key in ("shape", "weights", "biases") if type(layer) is not dict or key not in layer]
        if missing:
            raise ValueError(f"{where} lacks {', '.join(missing)}")
        shape = layer["shape"]
        if type(shape) is not list or [type(n) for n in shape] != [int] * 3 or shape[0] < 1 or min(shape) < 0:
            raise ValueError(f"{where}: shape must be 3 counts (M >= 1, fan_out, fan_in), got {shape!r}")
        m, fan_out, fan_in = shape
        arrays = {}
        for key, count in (("weights", m * fan_out * fan_in), ("biases", m * fan_out)):
            values = layer[key]
            if type(values) is not list or any(type(v) not in (int, float) for v in values):
                raise ValueError(f"{where}: {key} must be a list of numbers")
            if len(values) != count:
                raise ValueError(f"{where}: {key} of {len(values)} values do not fit shape {shape}")
            try:
                arrays[key] = np.asarray(values, dtype=np.float64)
            except OverflowError:  # a JSON integer past float range
                raise ValueError(f"{where}: {key} hold an integer too large for a float") from None
        w, b = arrays["weights"], arrays["biases"]
        if l and m != len(blocks[0]):
            raise ValueError(f"{where}: stack [{m}] does not match layer 0's [{len(blocks[0])}]")
        if l and fan_in != shapes[-1][0]:
            raise ValueError(f"{where}: fan_in {fan_in} does not chain")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{where}: non-finite parameters")
        block = np.concatenate([w.reshape(shape), b.reshape(m, fan_out, 1)], axis=-1)
        blocks.append(block.reshape(m, fan_out * (fan_in + 1)))
        shapes.append((fan_out, fan_in))
    return MLP(np.concatenate(blocks, axis=-1), tuple(shapes))
