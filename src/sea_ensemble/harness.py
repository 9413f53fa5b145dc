"""Experiment engine: cross-validated sweeps, metrics, boundary estimation, persistence.

A sweep is the Cartesian product (parameter grid) x (ensemble sizes) x
(folds) for one method on one dataset. Rows are independent jobs; results
are sorted before persistence so output files are byte-identical for a
given config regardless of worker count.

Seeds: the master seed is split by purpose (see :mod:`sea_ensemble.seeds`).
The data split and the per-fold learner initializations never depend on the
method or the swept parameter, so method comparisons share both the folds
and the starting parameters.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    predictions_batch,
    train_epoch,
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


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the built-in synthetic regression dataset."""

    n: int = 400
    noise_sd: float = 0.1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("synthetic dataset needs n >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")


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
        object.__setattr__(self, "m_list", tuple(int(m) for m in self.m_list))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if (self.dataset_path is None) == (self.synth is None):
            raise ValueError("exactly one of dataset_path or synth must be set")
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.synth is not None and self.task != REGRESSION:
            raise ValueError(f"the synthetic dataset is regression; task {self.task!r} needs a dataset_path")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when set")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_dict(self) -> dict:
        return {
            "format": CONFIG_FORMAT,
            "name": self.name,
            "dataset_path": self.dataset_path,
            "synth": None if self.synth is None else {"n": self.synth.n, "noise_sd": self.synth.noise_sd},
            "task": self.task,
            "method": self.method,
            "grid": list(self.grid),
            "m_list": list(self.m_list),
            "folds": self.folds,
            "epochs": self.epochs,
            "alpha": self.alpha,
            "hidden": list(self.hidden),
            "seed": self.seed,
            "outdir": self.outdir,
            "batch_size": self.batch_size,
            "workers": self.workers,
            "metric_on_train": self.metric_on_train,
        }

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


def lower_is_better(task: str) -> bool:
    return task == REGRESSION


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


def run_fold(
    cfg: ExperimentConfig,
    method: str,
    param: float,
    m: int,
    ds: Dataset,
    split: FoldSplit,
    fold: int,
) -> SweepRow:
    """Train one ensemble on K-1 folds and score the held-out fold.

    Standardization is fitted on the training folds only. A divergent run is
    reported as a flagged row (metric NaN), not an exception, so sweeps past
    the theoretical boundary run to completion.
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

    metric = metric_for_task(ds.task)
    ens = build_ensemble(
        train.n_features,
        list(cfg.hidden),
        train.n_outputs,
        m,
        MethodConfig(method, param),
        seed=fold_seed(cfg, fold),
        n_train=train.n_samples,
    )

    with np.errstate(over="ignore", invalid="ignore"):
        preds0, _ = predictions_batch(ens, eval_ds.features)
        epoch0 = metric(preds0.mean(axis=0), eval_ds.targets)

        diverged = False
        epochs_run = 0
        for _ in range(cfg.epochs):
            try:
                run_epoch(ens, train, cfg)
            except DivergenceError:
                diverged = True
                break
            epochs_run += 1

        if not diverged:
            preds, _ = predictions_batch(ens, eval_ds.features)
            value = metric(preds.mean(axis=0), eval_ds.targets)
            spread = theory.empirical_std(preds)
    # parameters can stay finite while the predictions overflow
    if diverged or not np.isfinite(value):
        return SweepRow(method, param, m, fold, float("nan"), float("nan"), epochs_run, True, epoch0)
    return SweepRow(method, param, m, fold, value, spread, epochs_run, False, epoch0)


def run_epoch(ens: EnsembleModel, train: Dataset, cfg: ExperimentConfig) -> None:
    """One pass over ``train`` in steps of ``cfg.batch_size`` rows, or one full-batch step."""
    # Bagging always trains full-batch: bootstrap rows index the whole set.
    if cfg.batch_size is None or ens.config.method == "bagging":
        train_epoch(ens, train.features, train.targets, cfg.alpha)
        return
    n = train.n_samples
    for start in range(0, n, cfg.batch_size):
        stop = min(start + cfg.batch_size, n)
        train_epoch(ens, train.features[start:stop], train.targets[start:stop], cfg.alpha)


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


def _sweep_job(method: str, param: float, m: int, fold: int) -> SweepRow:
    cfg, ds, split = _worker_inputs
    return run_fold(cfg, method, param, m, ds, split, fold)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """The full (grid x m_list x folds) product for the configured method.

    The dataset is loaded and split once; with ``cfg.workers > 1`` each pool
    worker receives them when it starts, not with every job.
    """
    started = time.perf_counter()
    jobs = [
        (cfg.method, param, m, fold)
        for param in cfg.grid
        for m in cfg.m_list
        for fold in range(cfg.folds)
    ]
    ds = load_dataset(cfg)
    split = fold_split_for(cfg, ds.n_samples)
    if cfg.workers > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_sweep_worker, initargs=(cfg, ds, split)
        ) as pool:
            rows = list(pool.map(_sweep_job, *zip(*jobs)))
    else:
        rows = [run_fold(cfg, method, param, m, ds, split, fold) for method, param, m, fold in jobs]
    rows.sort(key=SweepRow.sort_key)
    n_div = sum(r.diverged for r in rows)
    if n_div:
        log.info("%d/%d sweep rows diverged", n_div, len(rows))
    return SweepResult(rows, cfg.task, cfg.fingerprint(), time.perf_counter() - started)


def aggregate_metric(rows: list[SweepRow], param: float, m: int | None = None) -> float:
    """Mean metric over folds (and over M when m is None) for one grid point.

    Diverged or beyond-cap rows enter as BOUNDARY_METRIC_CAP so that fully
    diverged regions aggregate to a flat value.
    """
    vals = [
        r.metric if np.isfinite(r.metric) and r.metric < BOUNDARY_METRIC_CAP else BOUNDARY_METRIC_CAP
        for r in rows
        if r.param == param and (m is None or r.m == m)
    ]
    if not vals:
        raise ValueError(f"no rows at param={param}, m={m}")
    return float(np.mean(vals))


def sweep_curve(
    result: SweepResult, m: int | None = None, cap: float | None = None
) -> list[tuple[float, float]]:
    """(param, fold-mean metric) pairs sorted by param, capped for divergence.

    ``cap`` clips the fold-mean from above after aggregation; boundary
    estimation on regression sweeps passes TRIVIAL_RMSE_LEVEL so that
    worse-than-untrained points collapse onto one plateau level.
    """
    params = sorted({r.param for r in result.rows})
    curve = [(p, aggregate_metric(result.rows, p, m)) for p in params]
    if cap is not None:
        curve = [(p, min(v, cap)) for p, v in curve]
    return curve


def boundary_curve(result: SweepResult, m: int | None = None) -> list[tuple[float, float]]:
    """The curve fed to estimate_real_boundary, with the task-appropriate cap."""
    cap = TRIVIAL_RMSE_LEVEL if result.task == REGRESSION else None
    return sweep_curve(result, m, cap=cap)


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

    if lower_is_better(task):
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
    predicted = theory.predicted_std_curve(method, np.asarray(grid), m, c).values
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


def persist_sweep(result: SweepResult, outdir: str | Path, prefix: str = "") -> list[Path]:
    outdir = Path(outdir)
    lines = [SWEEP_CSV_HEADER]
    for r in result.rows:
        lines.append(
            ",".join(
                [r.method, _fmt(r.param), str(r.m), str(r.fold), _fmt(r.metric), _fmt(r.std), str(r.epochs), _fmt(r.diverged)]
            )
        )
    csv_path = outdir / f"{prefix}sweep.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
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
    lines = [BOUNDARY_CSV_HEADER]
    for p in est.points:
        lines.append(",".join([_fmt(p.param), _fmt(p.metric), _fmt(p.is_plateau), _fmt(p.is_boundary)]))
    path = Path(outdir) / f"{prefix}boundary.csv"
    _write_text(path, "\n".join(lines) + "\n")
    return path


def persist_bounds_table(m_lo: int, m_hi: int, path: str | Path) -> Path:
    """CSV of the closed-form bounds for every ensemble size in [m_lo, m_hi]."""
    if m_lo < 2 or m_hi < m_lo:
        raise ValueError(f"need 2 <= m_lo <= m_hi, got {m_lo}..{m_hi}")
    lines = [BOUNDS_CSV_HEADER]
    for m in range(m_lo, m_hi + 1):
        rep = theory.bound_report(m)
        lines.append(
            ",".join(
                [
                    str(m),
                    _fmt(rep.ncl_lambda_hessian),
                    _fmt(rep.ncl_lambda_sea),
                    _fmt(rep.nclstar_gamma_hessian),
                    _fmt(rep.nclstar_gamma_sea),
                    _fmt(rep.sea_k_interval[0]),
                    _fmt(rep.sea_k_interval[1]),
                ]
            )
        )
    path = Path(path)
    _write_text(path, "\n".join(lines) + "\n")
    return path


def persist_diversity(profile: DiversityProfile, outdir: str | Path, prefix: str = "") -> list[Path]:
    lines = [DIVERSITY_CSV_HEADER]
    for p, e, pr, met in zip(profile.params, profile.empirical_std, profile.predicted_std, profile.metric_mean):
        lines.append(",".join([_fmt(p), _fmt(e), _fmt(pr), _fmt(met)]))
    outdir = Path(outdir)
    csv_path = outdir / f"{prefix}diversity.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
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
