"""Experiment engine: cross-validated sweeps, metrics, boundary estimation, persistence.

A sweep is the Cartesian product (parameter grid) x (ensemble sizes) x
(folds) for one method on one dataset. Each (ensemble size, fold) column of
grid points is one job, a call of :func:`run_column` with the same
arguments whether a pool worker or this process runs it. A job
standardizes the fold and builds the initial learners once for all its
grid points, then trains the points as one stack of P*M learners, in
chunks of at most ``STACK_BYTES`` per layer activation or per-learner
input over the rows a step reads. What a step reads, bagging's drawn rows
included, is :func:`~sea_ensemble.ensemble.epoch_steps`'s to say; this
module names no method's data rule. Each grid point gives one :class:`SweepRow`, one line
of ``sweep.csv``; rows are sorted before persistence so output files are
byte-identical for a given config regardless of worker count and output directory.
Only a sweep that starts a pool loads the process pool's modules
(``concurrent.futures`` resolves ``ProcessPoolExecutor`` on first use).

Seeds: the master seed is split by purpose (see :mod:`sea_ensemble.seeds`).
The data split and the per-fold learner initializations never depend on the
method or the swept parameter, so method comparisons share both the folds
and the starting parameters.
"""

from __future__ import annotations

import json
import logging
import numbers
import operator
import time
from concurrent import futures
from dataclasses import asdict, astuple, dataclass, field
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import theory
from .data import (
    CLASSIFICATION,
    Dataset,
    FoldSplit,
    REGRESSION,
    encode_classification,
    kfold_split,
    parse_libsvm,
    standardize,
    synth_regression,
)
from .ensemble import (
    ADJUSTABLE,
    METHODS,
    EnsembleModel,
    MethodConfig,
    build_ensemble,
    epoch_steps,
    train_epoch,
)
from .mlp import MLP, forward_batch
from .seeds import derive_seed

log = logging.getLogger(__name__)

CONFIG_FORMAT = "sea-config/1"
SWEEP_CSV_HEADER = "method,param,M,fold,metric,std,epochs,diverged"
BOUNDARY_CSV_HEADER = "param,metric,is_plateau,is_boundary"
BOUNDS_CSV_HEADER = "M,lambda_1,lambda_sea,gamma_1,gamma_sea,k_lo,k_hi"
DIVERSITY_CSV_HEADER = "param,std_empirical,std_predicted,metric"

# RMSE substituted for diverged regression runs, and the ceiling of a boundary
# curve's metrics. A diverged classification run enters as 0.0, the worst accuracy.
BOUNDARY_METRIC_CAP = 1e6

# Boundary curves for regression cap at the trivial-predictor level: targets
# are standardized, so RMSE 1.0 is what an untrained (predict-the-mean) model
# scores. Metrics at or beyond it all mean "training bought nothing", which
# is exactly the low-performance plateau the estimator needs, and it keeps
# numerically blown-up far-tail values from smearing the plateau.
TRIVIAL_RMSE_LEVEL = 1.0

PLATEAU_SPREAD = 0.02    # max relative spread inside the trailing plateau run
BOUNDARY_MARGIN = 0.05   # required improvement over the plateau
MIN_BOUNDARY_POINTS = 5  # distinct grid points the boundary estimator needs

# Bytes of one layer's activations, or of bagging's per-learner inputs, over a
# chunk of a column's grid points, and over a group scored in one forward pass.
# The kernels keep their large arrays in a workspace (see mlp), so this
# bounds memory, not allocator traffic.
# 192 KB stacks 4 grid points at M=3, 2 at M=5 and 1 at M=10 on 200
# full-batch rows, and a whole 11-point column at M=20 and 10-row batches.
# On a 2-vCPU x86 VM, against 64 KB without the workspace (10 runs of 30 s
# each), it took a `boundary` sweep from 42,000-49,000 minor page faults to
# 1,400-1,950 and its median wall time from 0.82 to 0.60 s; peak RSS rose
# from 42.0 to 42.9 MB on `boundary` and from 43.0 to 44.6 MB on
# `minibatch`. In shorter runs, 128 KB left `boundary` at 0.77 s against
# 0.65 s at 192 KB, and 256 KB was no faster and used more memory.
STACK_BYTES = 192 * 1024


# ---------------------------------------------------------------------------
# configuration


def _as_int(name: str, value) -> int:
    """``value`` as an int; a float, even 3.0, or a bool is an error that names the field."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _as_real(name: str, value):
    """``value`` if it is a real number; a bool, a string or another type is an error that names the field."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise TypeError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the built-in synthetic regression dataset."""

    n: int = 400
    noise_sd: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int("synth n", self.n))
        if self.n < 1:
            raise ValueError("synthetic dataset needs n >= 1")
        if not np.isfinite(_as_real("synth noise_sd", self.noise_sd)) or self.noise_sd < 0:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, as the ``sea-config/1`` document ``--config`` reads (``to_dict``)."""

    name: str = "experiment"
    dataset_path: str | None = None
    synth: SynthSpec | None = SynthSpec()
    task: str = REGRESSION
    method: str = "sea"
    grid: tuple[float, ...] = (0.0,)
    m_list: tuple[int, ...] = (5,)
    folds: int = 5
    epochs: int = 200
    alpha: float = 0.05
    hidden: tuple[int, ...] = (10, 10)
    seed: int = 0
    outdir: str = "results"
    batch_size: int | None = None
    workers: int = 1
    metric_on_train: bool = False

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(_as_real("grid", g)) for g in self.grid))
        object.__setattr__(self, "m_list", tuple(_as_int("m_list", m) for m in self.m_list))
        object.__setattr__(self, "hidden", tuple(_as_int("hidden", h) for h in self.hidden))
        for name in ("folds", "epochs", "seed", "batch_size", "workers"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if type(self.metric_on_train) is not bool:
            raise TypeError(f"metric_on_train must be true or false, got {self.metric_on_train!r}")
        if (self.dataset_path is None) == (self.synth is None):
            raise ValueError("exactly one of dataset_path or synth must be set")
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
        if not np.isfinite(self.grid).all():
            raise ValueError(f"parameter grid values must be finite, got {list(self.grid)}")
        for a, b in zip(self.grid, self.grid[1:]):
            if b <= a:
                raise ValueError(f"parameter grid points must be sorted strictly ascending, got {b} after {a}")
        if not self.m_list or min(self.m_list) < 1 or len(set(self.m_list)) < len(self.m_list):
            raise ValueError(f"m_list must hold distinct positive ensemble sizes, got {list(self.m_list)}")
        if self.method in ADJUSTABLE and min(self.m_list) < 2:
            raise ValueError(f"{self.method} needs ensemble sizes >= 2, got m_list {list(self.m_list)}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if not np.isfinite(_as_real("alpha", self.alpha)) or self.alpha <= 0:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.synth is not None and self.task != REGRESSION:
            raise ValueError(f"the synthetic dataset is regression; task {self.task!r} needs a dataset_path")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when set")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_dict(self) -> dict:
        return {"format": CONFIG_FORMAT, **asdict(self)}

    def record(self) -> dict:
        """``sweep.json``: the config document without the run settings, outdir and workers, on which no row depends."""
        return {key: value for key, value in self.to_dict().items() if key not in ("outdir", "workers")}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from a (possibly partial) dict; missing keys keep defaults.

        The one home of the data-source rule: a nonempty ``dataset_path``
        replaces the synthetic set, and ``synth`` is then ignored.
        """
        d = dict(d)
        fmt = d.pop("format", CONFIG_FORMAT)
        if fmt != CONFIG_FORMAT:
            raise ValueError(f"unsupported config format {fmt!r}")
        if d.get("dataset_path"):
            d["synth"] = None
        elif d.get("synth") is not None:
            if not isinstance(d["synth"], dict):
                raise TypeError(f"synth must be an object, got {d['synth']!r}")
            d["synth"] = SynthSpec(**d["synth"])
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


# ---------------------------------------------------------------------------
# metrics


def rmse(preds: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error over all samples (and output dimensions)."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.size == 0:
        raise ValueError(f"shape mismatch {preds.shape} vs {targets.shape}")
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


def acc(preds: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the one-hot target (ties -> lowest index)."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.ndim != 2 or preds.shape[1] < 2:
        raise ValueError(f"need matching (N, K>=2) matrices, got {preds.shape}")
    return float(np.mean(preds.argmax(axis=1) == targets.argmax(axis=1)))


def ensemble_metric(preds: np.ndarray, targets: np.ndarray, task: str) -> float:
    """The task metric of the mean of an (M, N, O) prediction stack; NaN when that mean is rounding noise.

    Summing M float64 values of magnitude at most A = max|f| and dividing by
    M leaves the mean with an absolute rounding error of at most about
    (M-1) * A * eps/2 (eps = 2.2e-16, the float64 epsilon), so the mean's RMS
    error against the targets (the regression metric itself) is off by less
    than M * eps * A / 2. The mean counts as information only when that RMS
    error is above M * eps * A: then at least half of it is real error, not
    rounding. Below that line the mean can be nothing but the residue of
    cancelling huge values. Trained predictions are O(1), which puts the
    line near 1e-15; a stack blown up to 1e140 with every value still finite
    falls below it. A NaN marks the cell as diverged, as a non-finite metric
    does.
    """
    fbar = preds.mean(axis=0)
    error = rmse(fbar, targets)
    if not error > preds.shape[0] * np.finfo(np.float64).eps * np.abs(preds).max():
        return float("nan")
    return error if task == REGRESSION else acc(fbar, targets)


# ---------------------------------------------------------------------------
# data loading and fold execution


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    """Load the raw (unstandardized) dataset named by the config."""
    if cfg.synth is not None:
        return synth_regression(cfg.synth.n, cfg.synth.noise_sd, derive_seed(cfg.seed, "data"))
    text = Path(cfg.dataset_path).read_text(encoding="utf-8")
    ds = parse_libsvm(text, name=Path(cfg.dataset_path).stem)
    if cfg.task == CLASSIFICATION:
        ds = encode_classification(ds)
    return ds


def fold_split_for(cfg: ExperimentConfig, n_samples: int) -> FoldSplit:
    return kfold_split(n_samples, cfg.folds, derive_seed(cfg.seed, "split"))


def fold_seed(cfg: ExperimentConfig, fold: int) -> int:
    """Learner-init seed for one fold. Method-independent by construction."""
    return derive_seed(cfg.seed, "fold", fold)


def fold_data(cfg: ExperimentConfig, ds: Dataset, split: FoldSplit, fold: int) -> tuple[Dataset, Dataset]:
    """One fold's training set and its scoring set: the held-out fold, or the training set with ``metric_on_train``.

    The training folds are standardized with their own statistics and the
    held-out fold with the same ones, so nothing of the held-out fold
    reaches training. Every fold of a sweep is built here.
    """
    train_raw, test_raw = (Dataset(ds.name, ds.features[i], ds.targets[i], task=ds.task)
                           for i in (split.train_indices(fold), split.test_indices(fold)))
    train, stats = standardize(train_raw)
    return train, train if cfg.metric_on_train else standardize(test_raw, stats)[0]


def initial_ensemble(cfg: ExperimentConfig, train: Dataset, m: int, fold: int) -> EnsembleModel:
    """The learners and bagging's bootstrap that every cell of a fold starts from: one recipe, for sweeps and train."""
    return build_ensemble(train.n_features, list(cfg.hidden), train.n_outputs, m, MethodConfig(cfg.method),
                          seed=fold_seed(cfg, fold), n_train=train.n_samples)


def run_column(cfg: ExperimentConfig, m: int, ds: Dataset, split: FoldSplit, fold: int) -> list[SweepRow]:
    """Every grid point of one (M, fold) column: train on K-1 folds, score the held-out fold.

    What the grid points share is done once: the fold's data
    (:func:`fold_data`) and :func:`initial_ensemble`. The grid points then
    train as P copies of the initial learners on one (P*M, fan_out, fan_in)
    stack, in :func:`train_stack`, in chunks of at most ``STACK_BYTES`` per
    array over the rows a step reads (:func:`_points_in_budget`).
    """
    train, eval_ds = fold_data(cfg, ds, split, fold)
    untrained = initial_ensemble(cfg, train, m, fold)
    chunk = _points_in_budget(untrained, epoch_steps(untrained, train.features, train.targets, cfg.batch_size)[0][0])
    rows = []
    for start in range(0, len(cfg.grid), chunk):
        grid = cfg.grid[start : start + chunk]
        rows += train_stack(cfg, untrained.take([0] * len(grid), grid), train, eval_ds, fold)
    return rows


def _points_in_budget(ens: EnsembleModel, x: np.ndarray) -> int:
    """The ensembles of ``ens.m`` learners whose widest array over input ``x`` fits ``STACK_BYTES``; at least 1.

    The arrays are each layer's activations over the rows of ``x`` and a per-learner (M, w, D) ``x`` itself.
    """
    widths = [fan_out for fan_out, _ in ens.net.shapes] + [x.shape[-1]] * (x.ndim == 3)
    return max(1, STACK_BYTES // (8 * ens.m * max(widths) * x.shape[-2]))


def train_stack(
    cfg: ExperimentConfig, ens: EnsembleModel, train: Dataset, eval_ds: Dataset, fold: int
) -> list[SweepRow]:
    """Train a stack of P ensembles for ``cfg.epochs`` and score each on ``eval_ds``: one row per ensemble.

    After each step the stack's parameters are read: an ensemble with a
    non-finite one leaves the stack, flagged (metric NaN) with its completed
    epochs, and the others keep the step they took, so sweeps past the
    theoretical boundary run to completion; training stops when no ensemble
    is left. An ensemble that finishes with a non-finite or rounding-noise
    metric (:func:`ensemble_metric`) is flagged with all its epochs. Each
    row is bitwise what its ensemble trained alone gives. Only the trained
    ensembles are scored, a forward pass over as many of them as fit
    ``STACK_BYTES`` on the scoring rows at a time. What each step
    reads is :func:`~sea_ensemble.ensemble.epoch_steps`'s to say, once per
    stack and again whenever the stack shrinks.
    """
    params = [float(p) for p in ens.params]
    live = list(range(len(params)))  # the ensembles still on the stack, in stack order
    epochs = {}  # the completed epochs of the ensembles that left the stack
    rows = [None] * len(params)
    steps = epoch_steps(ens, train.features, train.targets, cfg.batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, b in product(range(cfg.epochs), range(len(steps))):
            train_epoch(ens, *steps[b], cfg.alpha)
            if np.isfinite(ens.net.theta).all():
                continue
            out = ~np.isfinite(ens.net.theta).reshape(len(live), -1).all(axis=1)
            epochs.update({point: epoch for point, o in zip(live, out) if o})
            live = [point for point, o in zip(live, out) if not o]
            if not live:
                break
            ens = ens.take(np.flatnonzero(~out))
            steps = epoch_steps(ens, train.features, train.targets, cfg.batch_size)
        m = ens.m
        group = _points_in_budget(ens, eval_ds.features)
        for start in range(0, len(live), group):  # a view of the stack's rows: no copy
            preds, _ = forward_batch(MLP(ens.net.theta[start * m : (start + group) * m], ens.net.shapes),
                                     eval_ds.features, ens.work)
            for point, stack in zip(live[start : start + group], preds.reshape(-1, m, *preds.shape[1:])):
                value = ensemble_metric(stack, eval_ds.targets, eval_ds.task)
                if np.isfinite(value):  # parameters can stay finite while the predictions blow up
                    rows[point] = SweepRow(ens.config.method, params[point], m, fold, value,
                                           theory.empirical_std(stack), cfg.epochs, False)
    nan = float("nan")
    return [row or SweepRow(ens.config.method, p, m, fold, nan, nan, epochs.get(j, cfg.epochs), True)
            for j, (row, p) in enumerate(zip(rows, params))]


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    """One (method, param, M, fold) cell, whose fields in order are the ``sweep.csv`` columns.

    A diverged cell has metric and std NaN, and counts the epochs it completed.
    """

    method: str
    param: float
    m: int
    fold: int
    metric: float
    std: float
    epochs: int
    diverged: bool

    def sort_key(self):
        return (self.method, self.param, self.m, self.fold)


@dataclass
class SweepResult:
    rows: list[SweepRow]
    task: str
    record: dict  # ExperimentConfig.record() of the sweep's config
    wall_time: float = field(default=0.0, compare=False)


def warn_outside_sea_interval(cfg: ExperimentConfig) -> None:
    """Log a warning for each (M, k) of a sea config whose k lies outside the theoretical interval for M learners."""
    if cfg.method != "sea":
        return
    for m, k in product(sorted(cfg.m_list), cfg.grid):
        lo, hi = theory.sea_k_bounds(m)
        if not lo < k < hi:
            log.warning("SEA k=%g outside the theoretical interval (%g, %g) for M=%d; proceeding", k, lo, hi, m)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """The full (grid x m_list x folds) product for the configured method.

    One job per (M, fold) column, largest M first so the longest jobs start
    first. The dataset is loaded and split once, here, and every job is
    :func:`run_column` on the same arguments: in a process pool with more
    than one worker (``cfg.workers``, at most one per job), which sends
    each job its config, dataset and split, or in this process. A sea
    k outside the theoretical interval is logged here, once per (M, k).
    """
    started = time.perf_counter()
    warn_outside_sea_interval(cfg)
    ms, folds = zip(*[(m, fold) for m in sorted(cfg.m_list, reverse=True) for fold in range(cfg.folds)])
    ds = load_dataset(cfg)
    split = fold_split_for(cfg, ds.n_samples)
    args = (repeat(cfg), ms, repeat(ds), repeat(split), folds)
    workers = min(cfg.workers, len(ms))  # a pool starts all its workers at the first job
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(run_column, *args))
    else:
        columns = list(map(run_column, *args))
    rows = sorted((r for column in columns for r in column), key=SweepRow.sort_key)
    n_div = sum(r.diverged for r in rows)
    if n_div:
        log.info("%d/%d sweep rows diverged", n_div, len(rows))
    return SweepResult(rows, cfg.task, cfg.record(), time.perf_counter() - started)


def boundary_curve(result: SweepResult, m: int) -> list[tuple[float, float]]:
    """(param, fold-mean metric) pairs of ensemble size m, sorted by param: the estimate_real_boundary input.

    Diverged rows enter the mean at the task's worst value, BOUNDARY_METRIC_CAP
    for RMSE and 0.0 for accuracy, and beyond-cap rows at the cap, so fully
    diverged regions aggregate to a flat value. Regression means are then clipped
    at TRIVIAL_RMSE_LEVEL: worse-than-untrained points share one plateau level.
    """
    regression = result.task == REGRESSION
    cap = TRIVIAL_RMSE_LEVEL if regression else float("inf")
    diverged = BOUNDARY_METRIC_CAP if regression else 0.0
    curve = []
    for param in sorted({r.param for r in result.rows if r.m == m}):
        vals = [min(r.metric, BOUNDARY_METRIC_CAP) if np.isfinite(r.metric) else diverged
                for r in result.rows if r.param == param and r.m == m]
        curve.append((param, min(float(np.mean(vals)), cap)))
    return curve


# ---------------------------------------------------------------------------
# real-boundary estimation


@dataclass(frozen=True)
class BoundaryPoint:
    param: float
    metric: float
    is_plateau: bool
    is_boundary: bool


@dataclass(frozen=True)
class BoundaryEstimate:
    plateau: float
    boundary_param: float | None
    points: tuple[BoundaryPoint, ...]


def estimate_real_boundary(curve, task: str) -> BoundaryEstimate:
    """Locate the last grid point still clearly better than the trailing plateau.

    The plateau is the maximal trailing run (minimum length 2, grown from the
    right) whose relative spread stays under 2%; its mean is the
    low-performance level. The boundary is the largest parameter whose metric
    beats that level by at least 5% (RMSE: <= 0.95x, ACC: >= 1.05x and
    above it, so nothing ties a 0.0 plateau). Returns boundary_param None
    when no point qualifies. Metrics are capped at BOUNDARY_METRIC_CAP;
    non-finite ones enter as the task's worst value, the cap for RMSE and
    0.0 for accuracy.
    """
    pts = [(float(p), float(v)) for p, v in curve]
    if len(pts) < MIN_BOUNDARY_POINTS:
        raise ValueError(f"need at least {MIN_BOUNDARY_POINTS} curve points, got {len(pts)}")
    params = [p for p, _ in pts]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise ValueError("curve must be sorted by strictly increasing parameter")
    diverged = BOUNDARY_METRIC_CAP if task == REGRESSION else 0.0
    metrics = [min(v, BOUNDARY_METRIC_CAP) if np.isfinite(v) else diverged for _, v in pts]

    def spread_ok(vals) -> bool:
        lo, hi = min(vals), max(vals)
        mid = abs(np.mean(vals))
        return hi - lo <= PLATEAU_SPREAD * mid if mid > 0 else hi == lo

    n = len(metrics)
    start = n - 2
    if spread_ok(metrics[start:]):
        while start - 1 >= 0 and spread_ok(metrics[start - 1 :]):
            start -= 1
    # else: the last two points disagree by more than the spread; fall back
    # to them anyway so the estimator is total (flagged by their spread).
    plateau = float(np.mean(metrics[start:]))

    if task == REGRESSION:
        qualifies = [v <= (1.0 - BOUNDARY_MARGIN) * plateau for v in metrics]
    else:
        qualifies = [v >= (1.0 + BOUNDARY_MARGIN) * plateau and v > plateau for v in metrics]
    boundary = None
    for p, q in zip(params, qualifies):
        if q:
            boundary = p
    points = tuple(
        BoundaryPoint(p, v, i >= start, boundary is not None and p == boundary)
        for i, (p, v) in enumerate(zip(params, metrics))
    )
    return BoundaryEstimate(plateau, boundary, points)


# ---------------------------------------------------------------------------
# diversity profiles


@dataclass(frozen=True)
class DiversityProfile:
    method: str
    m: int
    params: tuple[float, ...]
    empirical_std: tuple[float, ...]
    metric_mean: tuple[float, ...]
    r_squared: float
    scale_c: float
    predicted_std: tuple[float, ...]
    rel_rms_deviation: float


def diversity_profile(result: SweepResult, m: int) -> DiversityProfile:
    """Measured prediction std per parameter of ensemble size m in a finished sweep, with the fitted theory curve.

    The method is the sweep's, the grid its distinct parameters, ascending.
    The scale constant C is fitted by least squares to the measured std
    values; rel_rms_deviation is RMS(predicted - measured) / RMS(measured).
    """
    rows = [r for r in result.rows if r.m == m]
    method = rows[0].method
    grid = tuple(sorted({r.param for r in rows}))
    stds, mets = [], []
    for param in grid:
        finite = [r for r in rows if r.param == param and not r.diverged]
        if not finite:
            raise RuntimeError(f"all folds diverged at param={param}")
        stds.append(float(np.mean([r.std for r in finite])))
        mets.append(float(np.mean([r.metric for r in finite])))
    r2 = theory.linearity_score(np.asarray(grid), np.asarray(stds))
    c = theory.fit_std_scale(method, np.asarray(grid), m, np.asarray(stds))
    predicted = theory.predicted_std_curve(method, grid, m, c)
    emp = np.asarray(stds)
    rel_rms = float(np.sqrt(np.mean((predicted - emp) ** 2)) / np.sqrt(np.mean(emp**2)))
    return DiversityProfile(
        method, m, grid, tuple(stds), tuple(mets), r2, c, tuple(float(v) for v in predicted), rel_rms
    )


# ---------------------------------------------------------------------------
# persistence (byte-deterministic per config)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header: str, rows) -> None:
    """The header line, then one line per row with every field through ``_fmt``."""
    _write_text(path, "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n")


def persist_sweep(result: SweepResult, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    csv_path = outdir / "sweep.csv"
    _write_csv(csv_path, SWEEP_CSV_HEADER, map(astuple, result.rows))
    config_path = outdir / "sweep.json"
    _write_text(config_path, json.dumps(result.record, sort_keys=True, indent=2) + "\n")
    return [csv_path, config_path]


def persist_boundary(est: BoundaryEstimate, outdir: str | Path, prefix: str = "") -> Path:
    path = Path(outdir) / f"{prefix}boundary.csv"
    _write_csv(path, BOUNDARY_CSV_HEADER, ((p.param, p.metric, p.is_plateau, p.is_boundary) for p in est.points))
    return path


def persist_bounds_table(m_lo: int, m_hi: int, path: str | Path) -> Path:
    """CSV of the closed-form bounds for every ensemble size in [m_lo, m_hi]."""
    if m_lo < 2 or m_hi < m_lo:
        raise ValueError(f"need 2 <= m_lo <= m_hi, got {m_lo}..{m_hi}")
    path = Path(path)
    _write_csv(path, BOUNDS_CSV_HEADER, ((m, *theory.ncl_lambda_bounds(m)[::-1], *theory.nclstar_gamma_bounds(m)[::-1],
                                          *theory.sea_k_bounds(m)) for m in range(m_lo, m_hi + 1)))
    return path


def persist_diversity(profile: DiversityProfile, outdir: str | Path, prefix: str = "") -> list[Path]:
    outdir = Path(outdir)
    csv_path = outdir / f"{prefix}diversity.csv"
    _write_csv(csv_path, DIVERSITY_CSV_HEADER,
               zip(profile.params, profile.empirical_std, profile.predicted_std, profile.metric_mean))
    meta_path = outdir / f"{prefix}diversity.json"
    meta = {
        "method": profile.method,
        "m": profile.m,
        "r_squared": profile.r_squared,
        "scale_c": profile.scale_c,
        "rel_rms_deviation": profile.rel_rms_deviation,
    }
    _write_text(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return [csv_path, meta_path]
