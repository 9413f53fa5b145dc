"""Independent numpy reference for sweep outputs, and the output check.

The reference takes only the random draws from the package: the fold split,
each learner's initial weights and the bagging bootstrap rows. All the
arithmetic is written again here, over a stack of M learners: the
standardization, the sigmoid MLP forward and backward pass, the per-method
output gradients, plain SGD, the held-out RMSE and the prediction std, and
the real-boundary estimator. A wrong gradient, a dropped learner or a bad
parse in the package therefore shows as a mismatch, while a change that only
moves last bits (another sigmoid formula, another summation order) passes
under RTOL.
"""

from __future__ import annotations

import math

import numpy as np

from sea_ensemble import ensemble, harness

# Relative tolerance on metric and std. A rewrite that reorders float64 sums
# moves these by ~1e-14; a wrong gradient or a missing learner moves them by
# more than 1e-6 after the workloads' epochs (checked by mutation).
RTOL = 1e-9

# Trivial-predictor RMSE and plateau rules of the boundary estimator.
TRIVIAL_RMSE = 1.0
METRIC_CAP = 1e6
PLATEAU_SPREAD = 0.02
BOUNDARY_MARGIN = 0.05


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean, std = train.mean(axis=0), train.std(axis=0)
    keep = std == 0.0
    mean, std = np.where(keep, 0.0, mean), np.where(keep, 1.0, std)
    return (train - mean) / std, (test - mean) / std


def _forward(ws, bs, x):
    """x is (N, D) shared or (M, N, D) per learner; returns (M, N, O) and layer inputs."""
    acts = [x]
    a = x
    for l, (w, b) in enumerate(zip(ws, bs)):
        z = np.matmul(a, w.transpose(0, 2, 1)) + b[:, None, :]
        a = z if l == len(ws) - 1 else 1.0 / (1.0 + np.exp(-z))
        acts.append(a)
    return a, acts


def _sgd(ws, bs, acts, delta, alpha):
    """One step from (M, N, O) per-sample output gradients already divided by N."""
    g = delta
    new_w, new_b = [None] * len(ws), [None] * len(ws)
    for l in range(len(ws) - 1, -1, -1):
        a_in = acts[l]
        if a_in.ndim == 2:
            a_in = np.broadcast_to(a_in, (g.shape[0],) + a_in.shape)
        new_w[l] = ws[l] - alpha * np.matmul(g.transpose(0, 2, 1), a_in)
        new_b[l] = bs[l] - alpha * g.sum(axis=1)
        if l > 0:
            g = np.matmul(g, ws[l]) * (acts[l] * (1.0 - acts[l]))
    finite = all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in zip(new_w, new_b))
    return new_w, new_b, finite


def _output_delta(method: str, param: float, preds, t):
    m = preds.shape[0]
    fbar = preds.mean(axis=0)
    err = preds - t
    if method == "independent":
        return err
    if method == "sea":
        return (1.0 - param) * err + param * m * (fbar - t)
    if method == "ncl":
        return err - param * (preds - fbar)
    if method == "nclstar":
        return err - param * (m - 1.0) / m * (preds - fbar)
    raise ValueError(f"no shared-batch gradient for {method!r}")


def _initial_stack(d_in, hidden, d_out, m, method, param, seed, n_train):
    """Initial weights and bootstrap rows as the package draws them."""
    ens = ensemble.build_ensemble(
        d_in, list(hidden), d_out, m, ensemble.MethodConfig(method, param), seed=seed, n_train=n_train
    )
    if len(ens.learners) != m:
        raise AssertionError(f"package built {len(ens.learners)} learners, expected {m}")
    ws = [np.stack([np.array(lr.weights[l]) for lr in ens.learners]) for l in range(len(hidden) + 1)]
    bs = [np.stack([np.array(lr.biases[l]) for lr in ens.learners]) for l in range(len(hidden) + 1)]
    boot = None if ens.bootstrap is None else np.stack([np.asarray(i) for i in ens.bootstrap])
    return ws, bs, boot


def reference_fold(cfg, features, targets, split, method, param, m, fold):
    """(metric, std, epochs, diverged) of one sweep cell."""
    train_idx, test_idx = split.train_indices(fold), split.test_indices(fold)
    x, xt = _standardize(features[train_idx], features[test_idx])
    t, tt = _standardize(targets[train_idx], targets[test_idx])
    ws, bs, boot = _initial_stack(
        x.shape[1], cfg.hidden, t.shape[1], m, method, param, harness.fold_seed(cfg, fold), len(x)
    )
    n = len(x)
    if method == "bagging" or cfg.batch_size is None:
        batches = [(0, n)]
    else:
        batches = [(s, min(s + cfg.batch_size, n)) for s in range(0, n, cfg.batch_size)]
    epochs = 0
    for _ in range(cfg.epochs):
        for lo, hi in batches:
            if method == "bagging":
                xb, tb = x[boot], t[boot]
                y, acts = _forward(ws, bs, xb)
                delta = (y - tb) / boot.shape[1]
            else:
                xb, tb = x[lo:hi], t[lo:hi]
                y, acts = _forward(ws, bs, xb)
                delta = _output_delta(method, param, y, tb) / (hi - lo)
            with np.errstate(over="ignore", invalid="ignore"):
                ws, bs, finite = _sgd(ws, bs, acts, delta, cfg.alpha)
            if not finite:
                return math.nan, math.nan, epochs, True
        epochs += 1
    with np.errstate(over="ignore", invalid="ignore"):
        preds, _ = _forward(ws, bs, xt)
        metric = float(np.sqrt(np.mean((preds.mean(axis=0) - tt) ** 2)))
        std = float((preds - preds[:1]).std(axis=0).mean())
    if not math.isfinite(metric):
        return math.nan, math.nan, epochs, True
    return metric, std, epochs, False


def reference_rows(cfg, features, targets) -> dict:
    """Every cell of the sweep described by ``cfg``, keyed (method, param, M, fold)."""
    split = harness.fold_split_for(cfg, len(features))
    return {
        (cfg.method, p, m, f): reference_fold(cfg, features, targets, split, cfg.method, p, m, f)
        for p in cfg.grid
        for m in cfg.m_list
        for f in range(cfg.folds)
    }


def boundary_estimate(rows: dict, m: int) -> tuple[float | None, float, int]:
    """(boundary param, plateau level, plateau start index) for one ensemble size.

    Regression curve: fold-mean RMSE per parameter, diverged cells at
    METRIC_CAP, capped at the trivial-predictor level. The plateau is the
    longest trailing run with relative spread within PLATEAU_SPREAD (at least
    two points); the boundary is the largest parameter at least
    BOUNDARY_MARGIN below it.
    """
    params = sorted({k[1] for k in rows if k[2] == m})
    curve = []
    for p in params:
        vals = [v[0] if math.isfinite(v[0]) and v[0] < METRIC_CAP else METRIC_CAP
                for k, v in rows.items() if k[1] == p and k[2] == m]
        curve.append(min(float(np.mean(vals)), TRIVIAL_RMSE))

    def flat(vals):
        mid = abs(float(np.mean(vals)))
        return max(vals) - min(vals) <= PLATEAU_SPREAD * mid if mid > 0 else max(vals) == min(vals)

    start = len(curve) - 2
    if flat(curve[start:]):
        while start > 0 and flat(curve[start - 1:]):
            start -= 1
    plateau = float(np.mean(curve[start:]))
    below = [p for p, v in zip(params, curve) if v <= (1.0 - BOUNDARY_MARGIN) * plateau]
    return (below[-1] if below else None), plateau, start


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def failed_cells(expected: dict, got: dict) -> set:
    """Keys of expected cells that are missing or differ, plus unexpected keys.

    ``diverged`` and ``epochs`` must match exactly; ``metric`` and ``std``
    within RTOL.
    """
    bad = set(got) - set(expected)
    for key, (metric, std, epochs, diverged) in expected.items():
        row = got.get(key)
        if row is None or row[2] != epochs or row[3] != diverged:
            bad.add(key)
        elif not (close(row[0], metric) and close(row[1], std)):
            bad.add(key)
    return bad
