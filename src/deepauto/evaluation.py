"""Baselines and metrics for the comparison methodology: a ridge
autoregressive baseline, RMSE / MAE / load-thresholded MAPE, and the
multi-model report. Histogram models are scored with the training loss,
`neuralnet.kl_loss`. The naive (last value) baseline is the last step of
each window's recent branch, built where it is compared."""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError


# ---------------------------------------------------------------------------
# baselines


def linear_ar_fit(X, y, lam=1e-6):
    """Closed-form ridge regression with intercept: (X'X + lam I)^-1 X'y.

    The intercept column is not penalized. y may be (N,) or (N, K).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeError("design matrix and targets disagree")
    if lam < 0:
        raise DataError("ridge lambda must be >= 0")
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    A = Xb.T @ Xb
    reg = lam * np.eye(Xb.shape[1])
    reg[-1, -1] = 0.0
    try:
        coef = np.linalg.solve(A + reg, Xb.T @ y)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"singular system ({exc}); use lambda > 0") from exc
    if lam == 0.0 and np.linalg.cond(A) > 1e12:
        raise DataError("near-singular system with lambda=0; use lambda > 0")
    return coef


def linear_ar_predict(X, coef):
    X = np.asarray(X, dtype=np.float64)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    return Xb @ coef


def samples_to_design(windows):
    """Flatten Windows into a ridge design matrix (same features as the
    neural model: all lag windows, each row in time-major order, plus the
    external vector)."""
    lags = [windows.arrays[k] for k in ("recent", "periodic", "seasonal") if k in windows.arrays]
    return np.concatenate([a.reshape(len(a), -1) for a in lags]
                          + [windows.arrays["external"]], axis=1)


# ---------------------------------------------------------------------------
# metrics


def rmse(Y, Yhat):
    Y, Yhat = _flat_pair(Y, Yhat)
    return float(np.sqrt(np.mean((Y - Yhat) ** 2)))


def mae(Y, Yhat):
    Y, Yhat = _flat_pair(Y, Yhat)
    return float(np.mean(np.abs(Y - Yhat)))


def mape_thresholded(Y, Yhat, load_threshold=0.7):
    """MAPE (%) over samples whose true load exceeds the threshold.

    Returns None ("undefined") when no sample qualifies, never 0.
    """
    if not 0.0 <= load_threshold <= 1.0:
        raise DataError("threshold must be in [0, 1]")
    Y, Yhat = _flat_pair(Y, Yhat)
    qual = Y > load_threshold
    if not qual.any():
        return None
    return float(100.0 * np.mean(np.abs(Y[qual] - Yhat[qual]) / Y[qual]))


def _flat_pair(Y, Yhat):
    Y = np.asarray(Y, dtype=np.float64)
    Yhat = np.asarray(Yhat, dtype=np.float64)
    if Y.shape != Yhat.shape:
        raise ShapeError(f"shape mismatch {Y.shape} vs {Yhat.shape}")
    return Y.ravel(), Yhat.ravel()


# ---------------------------------------------------------------------------
# comparison report


def compare_report(models, Y, horizons, load_threshold=0.7):
    """Evaluate several predictors on a common test target matrix.

    `models` is a list of (name, Yhat) with Yhat shaped like Y (N, K).
    Returns {"rows": [{"algorithm", "horizon", "rmse", "mae", "mape"}]};
    per-model failures are reported inline as {"algorithm", "error"} rows.
    """
    Y = np.asarray(Y, dtype=np.float64)
    rows = []
    for name, Yhat in models:
        try:
            Yhat = np.asarray(Yhat, dtype=np.float64)
            if Yhat.shape != Y.shape:
                raise ShapeError(f"{name}: prediction shape {Yhat.shape} != {Y.shape}")
            for k, h in enumerate(horizons):
                rows.append({
                    "algorithm": name,
                    "horizon": int(h),
                    "rmse": rmse(Y[:, k], Yhat[:, k]),
                    "mae": mae(Y[:, k], Yhat[:, k]),
                    "mape": mape_thresholded(Y[:, k], Yhat[:, k], load_threshold),
                })
        except Exception as exc:  # keep evaluating the remaining models
            rows.append({"algorithm": name, "error": f"{type(exc).__name__}: {exc}"})
    return {"rows": rows}


def format_table(report):
    """Aligned text rendering of a compare_report result."""
    header = f"{'algorithm':<14} {'horizon':>7} {'rmse':>10} {'mae':>10} {'mape':>8}"
    lines = [header, "-" * len(header)]
    for row in report["rows"]:
        if "error" in row:
            lines.append(f"{row['algorithm']:<14} ERROR: {row['error']}")
            continue
        mape = "undef" if row["mape"] is None else f"{row['mape']:.2f}"
        lines.append(f"{row['algorithm']:<14} {row['horizon']:>7} "
                     f"{row['rmse']:>10.5f} {row['mae']:>10.5f} {mape:>8}")
    return "\n".join(lines)
