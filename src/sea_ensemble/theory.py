"""Closed-form layer: boundary formulas, parameter mappings, and diversity predictions.

Everything here is a pure function of the ensemble size M and the adjustable
parameter. Three parameter frames are related by exact algebraic mappings:

* k       the self-error adjustment weight (sea frame),
* lambda  the classical negative-correlation penalty weight (ncl frame),
* gamma   the corrected-penalty weight (nclstar frame).

Each adjustable method has two upper bounds: the loose one from requiring the
loss to be optimizable at all (positive-definite curvature), and the tighter
one from additionally requiring that training decreases the ensemble error.
The tighter bound is the image of the sea interval under the frame mapping.
"""

from __future__ import annotations

import numpy as np

_SINGULARITY_TOL = 1e-12


def _require_m(m: int) -> int:
    if m < 2:
        raise ValueError(f"ensemble size must be >= 2, got {m}")
    return int(m)


# ---------------------------------------------------------------------------
# boundaries


def sea_k_bounds(m: int) -> tuple[float, float]:
    """Open interval (-1/(M-1), 2 + 1/(M-1)) where sea training shrinks ensemble error."""
    m = _require_m(m)
    return (-1.0 / (m - 1), 2.0 + 1.0 / (m - 1))


def beta_from_k(k: float, m: int):
    """Contraction factor (1-k)(M-1)/M; |beta| < 1 exactly inside sea_k_bounds."""
    m = _require_m(m)
    out = (1.0 - np.asarray(k, dtype=np.float64)) * (m - 1) / m
    return float(out) if out.ndim == 0 else out


def ncl_lambda_bounds(m: int) -> tuple[float, float]:
    """(lambda_sea, lambda_hessian) = ((2M-1)/(2(M-1)), M/(M-1)); the first is tighter."""
    m = _require_m(m)
    return ((2.0 * m - 1.0) / (2.0 * (m - 1)), m / (m - 1.0))


def nclstar_gamma_bounds(m: int) -> tuple[float, float]:
    """(gamma_sea, gamma_hessian) = (M(M-1/2)/(M-1)^2, (M/(M-1))^2); the first is tighter."""
    m = _require_m(m)
    return (m * (m - 0.5) / (m - 1.0) ** 2, (m / (m - 1.0)) ** 2)


# ---------------------------------------------------------------------------
# parameter mappings (mutually inverse on their domains)


def gamma_from_k(k, m: int):
    """gamma = k M^2 / ((M-1)(k(M-1) + 1)); singular at k = -1/(M-1)."""
    m = _require_m(m)
    k = np.asarray(k, dtype=np.float64)
    den = (m - 1.0) * (k * (m - 1.0) + 1.0)
    _check_denominator(den, "k", -1.0 / (m - 1))
    out = k * m * m / den
    return float(out) if out.ndim == 0 else out


def k_from_gamma(gamma, m: int):
    """k = (M-1) gamma / (M^2 - (M-1)^2 gamma); singular at gamma = (M/(M-1))^2."""
    m = _require_m(m)
    gamma = np.asarray(gamma, dtype=np.float64)
    den = m * m - (m - 1.0) ** 2 * gamma
    _check_denominator(den, "gamma", (m / (m - 1.0)) ** 2)
    out = (m - 1.0) * gamma / den
    return float(out) if out.ndim == 0 else out


def lambda_from_k(k, m: int):
    """lambda = k M / (1 + k(M-1)); singular at k = -1/(M-1)."""
    m = _require_m(m)
    k = np.asarray(k, dtype=np.float64)
    den = 1.0 + k * (m - 1.0)
    _check_denominator(den, "k", -1.0 / (m - 1))
    out = k * m / den
    return float(out) if out.ndim == 0 else out


def k_from_lambda(lam, m: int):
    """k = lambda / (M - lambda (M-1)); singular at lambda = M/(M-1)."""
    m = _require_m(m)
    lam = np.asarray(lam, dtype=np.float64)
    den = m - lam * (m - 1.0)
    _check_denominator(den, "lambda", m / (m - 1.0))
    out = lam / den
    return float(out) if out.ndim == 0 else out


def _check_denominator(den, name: str, where: float) -> None:
    if np.any(np.abs(den) < _SINGULARITY_TOL):
        raise ZeroDivisionError(f"mapping singular near {name} = {where:.12g}")


def effective_range(method: str, m: int) -> tuple[float, float]:
    """Practically swept closed interval (lo, hi), expressed in the k frame for cross-method comparison.

    sea sweeps [0, 2]; ncl and nclstar sweep their own parameter over [0, 1],
    whose images under the frame mappings are [0, 1] and [0, (M-1)/(2M-1)].
    The three intervals are strictly nested for every M >= 2.
    """
    m = _require_m(m)
    if method == "sea":
        return (0.0, 2.0)
    if method == "ncl":
        return (0.0, 1.0)
    if method == "nclstar":
        return (0.0, (m - 1.0) / (2.0 * m - 1.0))
    raise ValueError(f"no effective range for method {method!r}")


# ---------------------------------------------------------------------------
# diversity (prediction standard deviation)


def empirical_std(preds: np.ndarray) -> float:
    """Population std over the learner axis, averaged over any remaining axes.

    ``preds`` is (M, O) for one sample or (M, N, O) batchwise.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim < 1 or preds.shape[0] < 1:
        raise ValueError("need an (M, ...) prediction stack")
    # Shift by the first learner: std is shift-invariant, and identical
    # predictions then give exactly zero instead of mean-rounding dust.
    shifted = preds - preds[:1]
    return float(shifted.std(axis=0, ddof=0).mean())


def predicted_std_sea(k, m: int, c: float):
    """std(k) = (M-1)/M * (1 + (M-1) k) * C — linear in k."""
    m = _require_m(m)
    _require_scale(c)
    k = np.asarray(k, dtype=np.float64)
    out = (m - 1.0) / m * (1.0 + (m - 1.0) * k) * c
    return float(out) if out.ndim == 0 else out


def predicted_std_ncl(lam, m: int, c: float):
    """std(lambda) = -(M-1) C / (lambda (M-1) - M) — the sea line reparameterized."""
    m = _require_m(m)
    _require_scale(c)
    lam = np.asarray(lam, dtype=np.float64)
    den = lam * (m - 1.0) - m
    _check_denominator(den, "lambda", m / (m - 1.0))
    out = -(m - 1.0) * c / den
    return float(out) if out.ndim == 0 else out


def _require_scale(c: float) -> None:
    if c <= 0:
        raise ValueError(f"scale constant must be positive, got {c}")


def predicted_std_curve(method: str, params, m: int, c: float) -> np.ndarray:
    """The predicted std over a parameter grid: the sea line in k or the ncl curve in lambda."""
    if method == "sea":
        return np.asarray(predicted_std_sea(params, m, c))
    if method == "ncl":
        return np.asarray(predicted_std_ncl(params, m, c))
    raise ValueError(f"no std prediction for method {method!r}")


def fit_std_scale(method: str, params, m: int, empirical) -> float:
    """Least-squares fit of the scale constant C against measured std values.

    Both predicted curves are linear in C, so the fit is closed-form:
    C = sum(b * e) / sum(b^2) with b the unit-scale predicted curve.
    """
    params = np.asarray(params, dtype=np.float64)
    empirical = np.asarray(empirical, dtype=np.float64)
    if params.shape != empirical.shape:
        raise ValueError("params and empirical std must have the same shape")
    basis = predicted_std_curve(method, params, m, 1.0)
    denom = float(np.sum(basis * basis))
    if denom == 0.0:
        raise ValueError("degenerate basis; cannot fit scale")
    return float(np.sum(basis * empirical) / denom)


# ---------------------------------------------------------------------------
# linearity


def linearity_score(xs, ys) -> float:
    """R^2 of the least-squares line through (xs, ys), clamped to [0, 1].

    A constant series is the degenerate perfectly-linear case and scores 1.0.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D of equal length")
    if xs.size < 3:
        raise ValueError(f"need at least 3 points, got {xs.size}")
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("xs are degenerate (all equal)")
    syy = float(np.sum((ys - ys.mean()) ** 2))
    if syy == 0.0:
        return 1.0
    sxy = float(np.sum((xs - xs.mean()) * (ys - ys.mean())))
    slope = sxy / sxx
    intercept = ys.mean() - slope * xs.mean()
    residual = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    return max(0.0, 1.0 - residual / syy)
