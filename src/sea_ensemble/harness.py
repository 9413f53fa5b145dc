"""Experiment engine: cross-validated sweeps, metrics, boundary estimation, persistence.

A sweep is the Cartesian product (parameter grid) x (ensemble sizes) x
(folds) for one method on one dataset. Each (ensemble size, fold) column of
grid points is one job, which standardizes the fold, builds the initial
learners and scores the untrained ensemble once for all its grid points,
then trains the points as one stack of P*M learners, in chunks of at most
``STACK_BYTES`` per layer activation;
rows are sorted before persistence so output files are byte-identical for
a given config regardless of worker count.

Seeds: the master seed is split by purpose (see :mod:`sea_ensemble.seeds`).
The data split and the per-fold learner initializations never depend on the
method or the swept parameter, so method comparisons share both the folds
and the starting parameters.
"""

from __future__ import annotations

import json
import logging
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
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
    EnsembleModel,
    MethodConfig,
    build_ensemble,
    drawn_batch,
    predictions_batch,
    train_epoch,
    warn_outside_sea_interval,
)
from .mlp import DivergenceError
from .seeds import derive_seed

log = logging.getLogger(__name__)

CONFIG_FORMAT = "sea-config/1"
SWEEP_CSV_HEADER = "method,param,M,fold,metric,std,epochs,diverged"
BOUNDARY_CSV_HEADER = "param,metric,is_plateau,is_boundary"
BOUNDS_CSV_HEADER = "M,lambda_1,lambda_sea,gamma_1,gamma_sea,k_lo,k_hi"
DIVERSITY_CSV_HEADER = "param,std_empirical,std_predicted,metric"

# Metric value substituted for diverged runs in plain aggregation.
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

# Bytes of one layer's activations over a chunk of a column's grid points.
# The training step keeps its large arrays in a workspace that a column's
# chunks hand on (see mlp), so this bounds memory, not allocator traffic.
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
    """``value`` as an int; a float, even 3.0, is an error that names the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the built-in synthetic regression dataset."""

    n: int = 400
    noise_sd: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int("synth n", self.n))
        if self.n < 1:
            raise ValueError("synthetic dataset needs n >= 1")
        if not np.isfinite(self.noise_sd) or self.noise_sd < 0:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; also the persisted config fingerprint."""

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
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "m_list", tuple(_as_int("m_list", m) for m in self.m_list))
        object.__setattr__(self, "hidden", tuple(_as_int("hidden", h) for h in self.hidden))
        for name in ("folds", "epochs", "seed", "batch_size", "workers"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if (self.dataset_path is None) == (self.synth is None):
            raise ValueError("exactly one of dataset_path or synth must be set")
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
        if not np.isfinite(self.grid).all():
            raise ValueError(f"parameter grid values must be finite, got {list(self.grid)}")
        if any(b < a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("parameter grid must be sorted ascending")
        if not self.m_list or any(m < 1 for m in self.m_list):
            raise ValueError("m_list must contain positive ensemble sizes")
        if self.method in ADJUSTABLE and min(self.m_list) < 2:
            raise ValueError(f"{self.method} needs ensemble sizes >= 2, got m_list {list(self.m_list)}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if not np.isfinite(self.alpha) or self.alpha <= 0:
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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from a (possibly partial) dict; missing keys keep defaults."""
        d = dict(d)
        fmt = d.pop("format", CONFIG_FORMAT)
        if fmt != CONFIG_FORMAT:
            raise ValueError(f"unsupported config format {fmt!r}")
        if "synth" in d:
            synth = d.pop("synth")
            d["synth"] = None if synth is None else SynthSpec(**synth)
        elif d.get("dataset_path"):
            # a file-backed config without an explicit synth key means no synth
            d["synth"] = None
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def fingerprint(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


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


def metric_for_task(task: str):
    return rmse if task == REGRESSION else acc


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
    if not rmse(fbar, targets) > preds.shape[0] * np.finfo(np.float64).eps * np.abs(preds).max():
        return float("nan")
    return metric_for_task(task)(fbar, targets)


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


def run_column(cfg: ExperimentConfig, m: int, ds: Dataset, split: FoldSplit, fold: int) -> list[SweepRow]:
    """Every grid point of one (M, fold) column: train on K-1 folds, score the held-out fold.

    What the grid points share is done once: the standardization (fitted on
    the training folds only), the initial learners and bagging's bootstrap,
    and the untrained ensemble's metric. The grid points then train as P
    copies of the initial learners on one (P*M, fan_out, fan_in) stack, in
    :func:`train_stack`, in chunks of at most ``STACK_BYTES`` per activation.
    The chunks share one kernel workspace, so a column allocates its step
    buffers once per shape, not once per chunk.
    """
    train_idx = split.train_indices(fold)
    test_idx = split.test_indices(fold)
    train_raw = Dataset(ds.name, ds.features[train_idx], ds.targets[train_idx],
                        task=ds.task, n_classes=ds.n_classes)
    test_raw = Dataset(ds.name, ds.features[test_idx], ds.targets[test_idx],
                       task=ds.task, n_classes=ds.n_classes)
    train, stats = standardize(train_raw)
    test, _ = standardize(test_raw, stats)
    eval_ds = train if cfg.metric_on_train else test

    # the method's default parameter; each grid point sets its own
    untrained = build_ensemble(
        train.n_features,
        list(cfg.hidden),
        train.n_outputs,
        m,
        MethodConfig(cfg.method),
        seed=fold_seed(cfg, fold),
        n_train=train.n_samples,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        preds0, _ = predictions_batch(untrained, eval_ds.features)
        epoch0 = ensemble_metric(preds0, eval_ds.targets, ds.task)
    n_rows = epoch_batches(cfg, train.n_samples)[0].stop
    chunk = max(1, STACK_BYTES // (8 * m * max(cfg.hidden + (train.n_outputs,)) * n_rows))
    rows = []
    work = {}  # the chunks train one after another, so each takes over the last one's buffers
    for start in range(0, len(cfg.grid), chunk):
        grid = cfg.grid[start : start + chunk]
        stack = untrained.take([0] * len(grid), grid)
        stack.work = work
        rows += train_stack(cfg, stack, train, eval_ds, fold, epoch0)
    return rows


def train_stack(
    cfg: ExperimentConfig,
    ens: EnsembleModel,
    train: Dataset,
    eval_ds: Dataset,
    fold: int,
    epoch0: float,
) -> list[SweepRow]:
    """Train a stack of P ensembles for ``cfg.epochs`` and score each on ``eval_ds``: one row per ensemble.

    An ensemble whose update turns non-finite leaves the stack, flagged (metric
    NaN) with its completed epochs, and the others retake the step without it,
    so sweeps past the theoretical boundary run to completion. An ensemble
    that finishes with a non-finite or rounding-noise metric
    (:func:`ensemble_metric`) is flagged with all its epochs. Each row is
    bitwise what its ensemble trained alone gives, and carries ``epoch0``.
    Bagging's per-learner rows are gathered once per stack, not per step.
    """
    params = [float(p) for p in ens.params]
    live = list(range(len(params)))  # the ensembles still on the stack, in stack order
    epochs = {}  # the completed epochs of the ensembles that left the stack
    rows = [None] * len(params)
    batches = [(train.features[b], train.targets[b]) for b in epoch_batches(cfg, train.n_samples)]

    def inputs(ens):
        return batches if ens.rows is None else [drawn_batch(ens, x, t) for x, t in batches]

    steps = inputs(ens)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            for b in range(len(steps)):
                while live:
                    try:
                        train_epoch(ens, *steps[b], cfg.alpha)
                        break
                    except DivergenceError as exc:
                        out = exc.mask.reshape(len(live), ens.m).any(axis=1)
                        epochs.update({point: epoch for point, o in zip(live, out) if o})
                        live = [point for point, o in zip(live, out) if not o]
                        if live:
                            ens = ens.take(np.flatnonzero(~out))
                            steps = inputs(ens)
        for j, point in enumerate(live):
            preds, _ = predictions_batch(ens.take([j]), eval_ds.features)
            value = ensemble_metric(preds, eval_ds.targets, eval_ds.task)
            if np.isfinite(value):  # parameters can stay finite while the predictions blow up
                rows[point] = SweepRow(ens.config.method, params[point], ens.m, fold, value,
                                       theory.empirical_std(preds), cfg.epochs, False, epoch0)
    nan = float("nan")
    return [row or SweepRow(ens.config.method, p, ens.m, fold, nan, nan, epochs.get(j, cfg.epochs), True, epoch0)
            for j, (row, p) in enumerate(zip(rows, params))]


def epoch_batches(cfg: ExperimentConfig, n: int) -> list[slice]:
    """The row slices of one epoch over n rows: steps of ``cfg.batch_size`` rows, or one full batch."""
    # Bagging always trains full-batch: bootstrap rows index the whole set.
    if cfg.batch_size is None or cfg.method == "bagging":
        return [slice(0, n)]
    return [slice(start, min(start + cfg.batch_size, n)) for start in range(0, n, cfg.batch_size)]


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    method: str
    param: float
    m: int
    fold: int
    metric: float
    std: float
    epochs: int
    diverged: bool
    # in-memory only: the untrained-ensemble metric on the same fold; not
    # part of the persisted CSV schema, so excluded from equality
    epoch0_metric: float = field(default=float("nan"), compare=False)

    def sort_key(self):
        return (self.method, self.param, self.m, self.fold)


@dataclass
class SweepResult:
    rows: list[SweepRow]
    task: str
    fingerprint: str
    wall_time: float = field(default=0.0, compare=False)


# A pool worker's (config, dataset, split), set once per worker by its initializer.
_worker_inputs: tuple = ()


def _init_sweep_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _sweep_job(m: int, fold: int) -> list[SweepRow]:
    cfg, ds, split = _worker_inputs
    return run_column(cfg, m, ds, split, fold)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """The full (grid x m_list x folds) product for the configured method.

    One job per (M, fold) column, largest M first so the longest jobs start
    first. The dataset is loaded and split once; with ``cfg.workers > 1``
    each pool worker receives them when it starts, not with every job. A sea
    k outside the theoretical interval is logged here, once per (M, k).
    """
    started = time.perf_counter()
    if cfg.method == "sea":
        for m, k in sorted({(m, k) for m in cfg.m_list for k in cfg.grid}):
            warn_outside_sea_interval(k, m)
    jobs = [(m, fold) for m in sorted(cfg.m_list, reverse=True) for fold in range(cfg.folds)]
    ds = load_dataset(cfg)
    split = fold_split_for(cfg, ds.n_samples)
    if cfg.workers > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_sweep_worker, initargs=(cfg, ds, split)
        ) as pool:
            columns = list(pool.map(_sweep_job, *zip(*jobs)))
    else:
        columns = [run_column(cfg, m, ds, split, fold) for m, fold in jobs]
    rows = sorted((r for column in columns for r in column), key=SweepRow.sort_key)
    n_div = sum(r.diverged for r in rows)
    if n_div:
        log.info("%d/%d sweep rows diverged", n_div, len(rows))
    return SweepResult(rows, cfg.task, cfg.fingerprint(), time.perf_counter() - started)


def boundary_curve(result: SweepResult, m: int) -> list[tuple[float, float]]:
    """(param, fold-mean metric) pairs of ensemble size m, sorted by param: the estimate_real_boundary input.

    Diverged or beyond-cap rows enter the mean as BOUNDARY_METRIC_CAP, so fully
    diverged regions aggregate to a flat value. Regression means are then clipped
    at TRIVIAL_RMSE_LEVEL: worse-than-untrained points share one plateau level.
    """
    cap = TRIVIAL_RMSE_LEVEL if result.task == REGRESSION else float("inf")
    curve = []
    for param in sorted({r.param for r in result.rows if r.m == m}):
        vals = [min(r.metric, BOUNDARY_METRIC_CAP) if np.isfinite(r.metric) else BOUNDARY_METRIC_CAP
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
    beats that level by at least 5% (RMSE: <= 0.95x, ACC: >= 1.05x). Returns
    boundary_param None when no point qualifies. Non-finite metrics enter as
    BOUNDARY_METRIC_CAP.
    """
    pts = [(float(p), float(v)) for p, v in curve]
    if len(pts) < MIN_BOUNDARY_POINTS:
        raise ValueError(f"need at least {MIN_BOUNDARY_POINTS} curve points, got {len(pts)}")
    params = [p for p, _ in pts]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise ValueError("curve must be sorted by strictly increasing parameter")
    metrics = [v if np.isfinite(v) and v < BOUNDARY_METRIC_CAP else BOUNDARY_METRIC_CAP for _, v in pts]

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
        qualifies = [v >= (1.0 + BOUNDARY_MARGIN) * plateau for v in metrics]
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


def diversity_profile(cfg: ExperimentConfig, method: str, grid, m: int) -> DiversityProfile:
    """Measured test-set prediction std per grid point, with the fitted theory curve.

    The scale constant C is fitted by least squares to the measured std
    values; rel_rms_deviation is RMS(predicted - measured) / RMS(measured).
    Runs through run_sweep, so cfg.workers parallelizes the grid.
    """
    grid = tuple(float(g) for g in grid)
    if len(grid) < 3:
        raise ValueError("diversity profile needs a grid of at least 3 points")
    sweep_cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "method": method, "grid": list(grid), "m_list": [m]})
    rows = run_sweep(sweep_cfg).rows
    stds, mets = [], []
    for param in grid:
        finite = [r for r in rows if r.param == param and not r.diverged]
        if not finite:
            raise DivergenceError(f"all folds diverged at param={param}")
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


def persist_sweep(result: SweepResult, outdir: str | Path, prefix: str = "") -> list[Path]:
    outdir = Path(outdir)
    csv_path = outdir / f"{prefix}sweep.csv"
    rows = ((r.method, r.param, r.m, r.fold, r.metric, r.std, r.epochs, r.diverged) for r in result.rows)
    _write_csv(csv_path, SWEEP_CSV_HEADER, rows)
    meta_path = outdir / f"{prefix}sweep.json"
    meta = {"format": CONFIG_FORMAT, "task": result.task, "config": json.loads(result.fingerprint)}
    _write_text(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return [csv_path, meta_path]


def load_sweep(outdir: str | Path, prefix: str = "") -> SweepResult:
    outdir = Path(outdir)
    meta = json.loads((outdir / f"{prefix}sweep.json").read_text(encoding="utf-8"))
    rows = []
    text = (outdir / f"{prefix}sweep.csv").read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    if lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"unexpected sweep header: {lines[0]!r}")
    for line in lines[1:]:
        method, param, m, fold, metric, std, epochs, diverged = line.split(",")
        rows.append(
            SweepRow(
                method, float(param), int(m), int(fold), float(metric), float(std), int(epochs), diverged == "1"
            )
        )
    return SweepResult(rows, meta["task"], json.dumps(meta["config"], sort_keys=True))


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
        "format": CONFIG_FORMAT,
        "method": profile.method,
        "m": profile.m,
        "r_squared": profile.r_squared,
        "scale_c": profile.scale_c,
        "rel_rms_deviation": profile.rel_rms_deviation,
    }
    _write_text(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return [csv_path, meta_path]
