"""Dataset ingestion and preparation.

Covers LIBSVM text parsing, feature/target standardization, one-hot label
encoding, deterministic k-fold splitting, and a small synthetic regression
generator used throughout the test and experiment suites.

All datasets are dense, in-memory float64 arrays. Classification targets
are one-hot rows so classification can be solved by multi-output regression.

Data enters the program through one of two doors, and is checked there:
:func:`parse_libsvm` for dataset files, which refuses a malformed or
non-finite entry and names its line, and ``harness.SynthSpec`` for the
synthetic set. Past them, :class:`Dataset`, :class:`NormStats` and
:class:`FoldSplit` are plain holders that check nothing: each value they hold
was built by a door or by a function here from a checked one. The one
function that can turn finite values into non-finite ones, :func:`standardize`
(a column whose sum overflows, a test fold over a small training std),
refuses such a result once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """A feature matrix plus a target matrix.

    Regression targets are (N, 1); classification targets are (N, K) one-hot
    rows. Construction only normalizes the format: float64, 2-D features, a
    1-D target as a column, and arrays frozen so they are safe to share. It
    checks no value; a library caller who builds a Dataset directly owns its
    shapes, its finiteness and its one-hot rows, as with ``MLP(theta, shapes)``.
    """

    name: str
    features: np.ndarray
    targets: np.ndarray
    task: str = REGRESSION

    def __post_init__(self):
        targs = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "features", _readonly(np.atleast_2d(self.features)))
        object.__setattr__(self, "targets", _readonly(targs[:, None] if targs.ndim == 1 else targs))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-column standardization statistics, as fitted by :func:`standardize`. Target stats are regression-only."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: np.ndarray | None = None
    target_std: np.ndarray | None = None


@dataclass(frozen=True)
class FoldSplit:
    """K disjoint index lists covering 0..N-1, sizes differing by at most 1, as :func:`kfold_split` cuts them."""

    folds: tuple[np.ndarray, ...]

    def test_indices(self, fold: int) -> np.ndarray:
        return self.folds[fold]

    def train_indices(self, fold: int) -> np.ndarray:
        rest = [f for i, f in enumerate(self.folds) if i != fold]
        return np.sort(np.concatenate(rest))


def parse_libsvm(text: str | bytes, n_features: int | None = None, name: str = "libsvm") -> Dataset:
    """Parse LIBSVM text (`<label> <i1>:<v1> ...`, 1-based strictly increasing indices).

    The door for file data: a malformed line, or a label or value that reads
    as NaN or +-inf, raises :class:`LibsvmParseError` with its line number.
    Unmentioned feature indices are zero. Labels are kept raw in a single
    target column; classification encoding is a separate step
    (see :func:`encode_classification`).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(line_no, f"non-numeric label {tokens[0]!r}") from None
        if not math.isfinite(label):  # float() reads nan, inf and 1e400
            raise LibsvmParseError(line_no, f"non-finite label {tokens[0]!r}")
        entries: list[tuple[int, float]] = []
        prev_index = 0
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise LibsvmParseError(line_no, f"expected idx:val, got {tok!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmParseError(line_no, f"non-numeric token {tok!r}") from None
            if not math.isfinite(val):
                raise LibsvmParseError(line_no, f"non-finite value {tok!r}")
            if idx < 1:
                raise LibsvmParseError(line_no, f"feature index {idx} < 1")
            if idx <= prev_index:
                raise LibsvmParseError(
                    line_no, f"feature index {idx} not strictly increasing"
                )
            prev_index = idx
            entries.append((idx, val))
        labels.append(label)
        rows.append(entries)
        max_index = max(max_index, prev_index)
    if not labels:
        raise LibsvmParseError(0, "empty input")
    d = n_features if n_features is not None else max_index
    if d < 1:
        raise LibsvmParseError(0, "no feature indices seen and n_features not given")
    if max_index > d:
        raise LibsvmParseError(0, f"feature index {max_index} exceeds n_features={d}")
    features = np.zeros((len(rows), d))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            features[i, idx - 1] = val
    return Dataset(name=name, features=features, targets=np.asarray(labels))


def serialize_libsvm(ds: Dataset) -> str:
    """Emit a dataset as LIBSVM text (zero features omitted).

    Reparsing with ``n_features=ds.n_features`` reproduces the dataset
    exactly; float values are written with round-trip-exact repr.
    """
    if ds.n_outputs != 1:
        raise ValueError("LIBSVM serialization requires a single target column")
    lines = []
    for x, t in zip(ds.features, ds.targets[:, 0]):
        parts = [repr(float(t))]
        nz = np.nonzero(x)[0]
        parts.extend(f"{j + 1}:{float(x[j])!r}" for j in nz)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def standardize(ds: Dataset, stats: NormStats | None = None) -> tuple[Dataset, NormStats]:
    """Apply (x - mean) / std per feature column, and per target column for regression.

    With ``stats=None`` the statistics are fitted on ``ds`` (population std);
    otherwise the supplied statistics are applied (the test-fold path).
    Columns with zero std pass through unchanged. One-hot targets are never
    transformed. Finite inputs can still standardize to NaN or +-inf (a column
    of 1e308s overflows its mean; a test fold divided by a small training std
    overflows), so a non-finite result is refused here, once per call.
    """
    if stats is None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            f_mean = ds.features.mean(axis=0)
            f_std = ds.features.std(axis=0)
            if ds.task == REGRESSION:
                t_mean = ds.targets.mean(axis=0)
                t_std = ds.targets.std(axis=0)
            else:
                t_mean = t_std = None
        stats = NormStats(f_mean, f_std, t_mean, t_std)
    if stats.feature_mean.shape[0] != ds.n_features:
        raise ValueError(
            f"stats cover {stats.feature_mean.shape[0]} features, dataset has {ds.n_features}"
        )
    feats = _apply_columns(ds.features, stats.feature_mean, stats.feature_std)
    if ds.task == REGRESSION:
        if stats.target_mean is None:
            raise ValueError("regression dataset requires target stats")
        if stats.target_mean.shape[0] != ds.n_outputs:
            raise ValueError("target stats dimension mismatch")
        targs = _apply_columns(ds.targets, stats.target_mean, stats.target_std)
    else:
        targs = ds.targets
    if not (np.isfinite(feats).all() and np.isfinite(targs).all()):
        raise ValueError(f"{ds.name}: standardized values are not finite; a column overflows float64")
    return Dataset(ds.name, feats, targs, task=ds.task), stats


def _apply_columns(a: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    keep = std == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return (a - np.where(keep, 0.0, mean)) / np.where(keep, 1.0, std)


def one_hot_encode(labels, k: int) -> np.ndarray:
    """Encode integer labels in 0..k-1 as one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValueError(f"label {bad} outside 0..{k - 1}")
    out = np.zeros((labels.shape[0], k))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def encode_classification(ds: Dataset) -> Dataset:
    """Turn raw single-column labels into a one-hot classification dataset.

    Distinct raw label values are remapped to contiguous ids 0..K-1 in
    sorted order (LIBSVM labels may be {-1,+1} or {1..K}).
    """
    if ds.n_outputs != 1:
        raise ValueError("raw labels must be a single target column")
    raw = ds.targets[:, 0]
    values = np.unique(raw)
    ids = np.searchsorted(values, raw)
    onehot = one_hot_encode(ids, len(values))
    return Dataset(ds.name, ds.features, onehot, task=CLASSIFICATION)


def kfold_split(n: int, k: int, seed: int) -> FoldSplit:
    """Split 0..n-1 into k near-equal folds via a seeded permutation."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return FoldSplit(tuple(np.sort(chunk) for chunk in np.array_split(perm, k)))


def synth_regression(n: int, noise_sd: float, seed: int) -> Dataset:
    """Synthetic 2-feature regression set: t = sin(3*x1) + 0.5*x2^2 + noise.

    Features are uniform on [-1, 1]^2; noise is Normal(0, noise_sd^2).
    Deterministic per seed (features drawn first, then noise). ``n >= 1`` and
    a finite ``noise_sd >= 0`` are the caller's; ``harness.SynthSpec`` checks them.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    noise = rng.normal(0.0, noise_sd, size=n) if noise_sd > 0 else np.zeros(n)
    t = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1] ** 2 + noise
    return Dataset(f"synth(n={n},noise={noise_sd},seed={seed})", x, t)
