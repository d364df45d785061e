"""Binary logistic regression with L2 regularisation.

This is the classifier of the paper's Table 3 case study. Optimisation is
L-BFGS (SciPy) on the penalised negative log-likelihood with an analytic
gradient; probabilities are computed in a numerically stable log-space
formulation.
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.learn.base import BaseClassifier, encode_labels
from repro.utils.validation import check_nonnegative, check_same_length

__all__ = ["LogisticRegression", "sigmoid", "log_sigmoid"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def log_sigmoid(z: np.ndarray) -> np.ndarray:
    """``log(sigmoid(z))`` without overflow."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = -np.log1p(np.exp(-z[positive]))
    out[~positive] = z[~positive] - np.log1p(np.exp(z[~positive]))
    return out


class LogisticRegression(BaseClassifier):
    """Binary logistic regression.

    Parameters
    ----------
    l2:
        L2 penalty strength on the weights (the intercept is not
        penalised). ``l2 = 0`` gives maximum likelihood.
    max_iter, tol:
        L-BFGS stopping parameters.
    fit_intercept:
        Include a bias term (default true).
    """

    def __init__(
        self,
        l2: float = 1e-4,
        max_iter: int = 500,
        tol: float = 1e-8,
        fit_intercept: bool = True,
    ):
        self.l2 = check_nonnegative(l2, "l2")
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.fit_intercept = bool(fit_intercept)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self, X: np.ndarray, y: Any, sample_weight: np.ndarray | None = None
    ) -> "LogisticRegression":
        # Imported here, not at module level: SciPy would roughly double
        # the start-up of every process importing repro, and no audit,
        # engine or service path trains a model.
        from scipy import optimize

        X = self._check_matrix(X)
        codes, classes = encode_labels(y)
        check_same_length(X, codes, "X and y")
        if len(classes) != 2:
            raise ValidationError(
                f"binary logistic regression needs exactly 2 classes, "
                f"got {len(classes)}: {classes}"
            )
        if sample_weight is None:
            weights = np.ones(X.shape[0])
        else:
            weights = np.asarray(sample_weight, dtype=float)
            if weights.shape != (X.shape[0],) or np.any(weights < 0):
                raise ValidationError("sample_weight must be non-negative, length n")
        targets = codes.astype(float)  # class 1 is the positive class
        design = self._with_intercept(X)
        n, d = design.shape

        def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
            z = design @ w
            # NLL = -Σ wi [ y log σ(z) + (1-y) log(1-σ(z)) ]
            log_p = log_sigmoid(z)
            log_q = log_sigmoid(-z)
            nll = -np.sum(weights * (targets * log_p + (1.0 - targets) * log_q))
            gradient = design.T @ (weights * (sigmoid(z) - targets))
            penalty_mask = self._penalty_mask(d)
            nll += 0.5 * self.l2 * np.sum((w * penalty_mask) ** 2)
            gradient = gradient + self.l2 * w * penalty_mask
            scale = 1.0 / max(weights.sum(), 1.0)
            return nll * scale, gradient * scale

        result = optimize.minimize(
            objective,
            x0=np.zeros(d),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        if not result.success and result.status != 1:  # 1 = maxiter reached
            warnings.warn(
                f"L-BFGS did not converge: {result.message}", ConvergenceWarning,
                stacklevel=2,
            )
        self.classes_ = classes
        self._assign_parameters(result.x)
        self.n_iter_ = int(result.nit)
        return self

    def _penalty_mask(self, d: int) -> np.ndarray:
        mask = np.ones(d)
        if self.fit_intercept:
            mask[0] = 0.0
        return mask

    def _with_intercept(self, X: np.ndarray) -> np.ndarray:
        if self.fit_intercept:
            return np.column_stack([np.ones(X.shape[0]), X])
        return X

    def _assign_parameters(self, solution: np.ndarray) -> None:
        if self.fit_intercept:
            self.intercept_ = float(solution[0])
            self.coef_ = solution[1:].copy()
        else:
            self.intercept_ = 0.0
            self.coef_ = solution.copy()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Linear scores ``X @ coef + intercept``."""
        self._check_fitted()
        X = self._check_matrix(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was trained with "
                f"{self.coef_.shape[0]}"
            )
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def __repr__(self) -> str:
        return f"LogisticRegression(l2={self.l2:g})"
