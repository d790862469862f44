import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepauto import evaluation as ev
from deepauto.dataprep import EXTERNAL_DIM, Windows
from deepauto.errors import DataError, ShapeError


# ---------------------------------------------------------------------------
# ridge AR


def test_ridge_recovers_ar1_coefficients():
    # noiseless AR(1) decay from 1.0: every (x_t, x_{t+1}) pair lies exactly
    # on y = 0.8 x, so the fit must recover the coefficient
    n = 50
    x = 0.8 ** np.arange(n)
    X = x[:-1, None]
    y = x[1:]
    coef = ev.linear_ar_fit(X, y, lam=1e-12)
    assert coef[0] == pytest.approx(0.8, abs=1e-6)
    assert coef[1] == pytest.approx(0.0, abs=1e-6)


def test_ridge_matches_normal_equations():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(5, 3))
    y = rng.uniform(size=(5, 2))
    lam = 0.3
    coef = ev.linear_ar_fit(X, y, lam=lam)
    # independent recomputation with explicit loops over the normal equations
    Xb = np.hstack([X, np.ones((5, 1))])
    A = Xb.T @ Xb + lam * np.diag([1.0, 1.0, 1.0, 0.0])
    expected = np.linalg.inv(A) @ Xb.T @ y
    np.testing.assert_allclose(coef, expected, atol=1e-10)
    np.testing.assert_allclose(ev.linear_ar_predict(X, coef), Xb @ coef, atol=1e-12)


def test_ridge_exact_interpolation_with_intercept():
    X = np.array([[1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] + 5.0
    coef = ev.linear_ar_fit(X, y, lam=0.0)
    assert coef[0] == pytest.approx(2.0, abs=1e-9)
    assert coef[1] == pytest.approx(5.0, abs=1e-9)  # intercept unpenalized


def test_ridge_singular_guard():
    X = np.zeros((4, 2))
    X[:, 0] = X[:, 1] = np.arange(4.0)  # collinear columns
    y = np.arange(4.0)
    with pytest.raises(DataError):
        ev.linear_ar_fit(X, y, lam=0.0)
    coef = ev.linear_ar_fit(X, y, lam=1e-6)  # regularized solve succeeds
    assert np.all(np.isfinite(coef))
    with pytest.raises(DataError):
        ev.linear_ar_fit(X, y, lam=-1.0)
    with pytest.raises(ShapeError):
        ev.linear_ar_fit(X, np.arange(5.0))


def test_samples_to_design_layout():
    rng = np.random.default_rng(17)
    arrays = {"recent": rng.uniform(size=(1, 3, 2)),
              "periodic": rng.uniform(size=(1, 2, 2)),
              "seasonal": rng.uniform(size=(1, 1, 2)),
              "external": rng.uniform(size=(1, EXTERNAL_DIM)),
              "target": np.array([[0.5]])}
    s = Windows(arrays, np.array(["c"]), np.array([600]))
    D = ev.samples_to_design(s)
    assert D.shape == (1, 6 + 4 + 2 + EXTERNAL_DIM)
    np.testing.assert_array_equal(D[0, :6], arrays["recent"][0].ravel())
    np.testing.assert_array_equal(D[0, -EXTERNAL_DIM:], arrays["external"][0])


# ---------------------------------------------------------------------------
# metrics


def test_rmse_mae_worked_example():
    Y = np.array([0.0, 1.0, 2.0])
    Yhat = np.array([0.0, 2.0, 4.0])
    # errors 0, 1, 2 -> mse 5/3
    assert ev.rmse(Y, Yhat) == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
    assert ev.mae(Y, Yhat) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ShapeError):
        ev.rmse(Y, Yhat[:2])


@given(st.lists(st.floats(-1, 1), min_size=2, max_size=30),
       st.lists(st.floats(-1, 1), min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_rmse_at_least_mae(a, b):
    n = min(len(a), len(b))
    Y, Yhat = np.array(a[:n]), np.array(b[:n])
    assert ev.rmse(Y, Yhat) >= ev.mae(Y, Yhat) - 1e-12


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(19)
    Y, Yhat = rng.uniform(size=50), rng.uniform(size=50)
    perm = rng.permutation(50)
    assert ev.rmse(Y, Yhat) == pytest.approx(ev.rmse(Y[perm], Yhat[perm]), abs=1e-12)
    assert ev.mae(Y, Yhat) == pytest.approx(ev.mae(Y[perm], Yhat[perm]), abs=1e-12)


def test_mape_thresholded():
    Y = np.array([0.9, 0.8, 0.2, 0.5])
    Yhat = np.array([0.81, 0.88, 0.9, 0.9])
    # only 0.9 and 0.8 qualify: |0.09|/0.9 = 0.1, |0.08|/0.8 = 0.1 -> 10%
    assert ev.mape_thresholded(Y, Yhat, 0.7) == pytest.approx(10.0, abs=1e-9)
    # low-load rows may change freely without affecting the metric
    Yhat2 = Yhat.copy()
    Yhat2[2:] = 0.0
    assert ev.mape_thresholded(Y, Yhat2, 0.7) == ev.mape_thresholded(Y, Yhat, 0.7)
    assert ev.mape_thresholded(np.array([0.1, 0.2]), np.array([0.1, 0.2]), 0.7) is None
    with pytest.raises(DataError):
        ev.mape_thresholded(Y, Yhat, 1.5)


# ---------------------------------------------------------------------------
# report


def test_compare_report_rows_and_errors():
    Y = np.array([[0.2, 0.4], [0.6, 0.8]])
    good = Y + 0.1
    bad = np.zeros((3, 2))  # wrong shape
    report = ev.compare_report([("good", good), ("bad", bad)], Y, horizons=(1, 8))
    rows = report["rows"]
    assert [r["algorithm"] for r in rows] == ["good", "good", "bad"]
    assert rows[0]["horizon"] == 1 and rows[1]["horizon"] == 8
    assert rows[0]["rmse"] == pytest.approx(0.1, abs=1e-12)
    assert rows[0]["mape"] is None  # no load > 0.7 in column 0
    assert rows[1]["mape"] == pytest.approx(100 * 0.1 / 0.8, abs=1e-9)
    assert "error" in rows[2]
    text = ev.format_table(report)
    assert "good" in text and "ERROR" in text and "undef" in text
