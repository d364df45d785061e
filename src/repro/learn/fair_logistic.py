"""Differential-fairness-regularised logistic regression.

The paper's conclusion proposes "learning algorithms which use our criterion
as a regularizer to automatically balance the trade-off between fairness and
accuracy, following [Berk et al.]". This module implements that extension:

    J(w) = NLL(w)/n + (l2/2)||w||^2 + fairness_weight * R(w)

where R is a smooth surrogate of the (squared) empirical differential
fairness of the model's *soft* predictions: for per-group mean predicted
positive probabilities p̄_g,

    R(w) = Σ_{i<j} [ (log p̄_i - log p̄_j)^2 + (log(1-p̄_i) - log(1-p̄_j))^2 ].

Driving every pairwise log-ratio toward zero drives epsilon toward zero;
squaring makes R differentiable, so L-BFGS applies. The hard epsilon of the
thresholded classifier is reported separately by the audit tools.

The objective is loop-free: group membership is a one-hot indicator matrix
(so all per-group rates and rate gradients are two matrix products), and
the quadratic pairwise penalty collapses through the identity

    Σ_{i<j} (l_i - l_j)^2 = G * Σ_i l_i^2 - (Σ_i l_i)^2,

whose gradient in l is ``2 * (G * l - Σ l)`` — both O(G) instead of O(G²).
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.learn.base import BaseClassifier, encode_labels
from repro.learn.logistic_regression import log_sigmoid, sigmoid
from repro.utils.validation import check_nonnegative, check_same_length

__all__ = ["FairLogisticRegression", "soft_edf_penalty"]


def soft_edf_penalty(group_rates: np.ndarray) -> float:
    """The surrogate penalty R evaluated at per-group positive rates."""
    rates = np.asarray(group_rates, dtype=float)
    if rates.ndim != 1 or rates.size < 2:
        raise ValidationError("group_rates must be a vector of length >= 2")
    if np.any(rates <= 0) or np.any(rates >= 1):
        raise ValidationError("rates must lie strictly inside (0, 1)")
    logs = np.log(rates)
    logs_neg = np.log1p(-rates)
    # Explicit pairwise differences (not the sum identity) so that equal
    # rates report an exact zero.
    upper = np.triu_indices(rates.size, k=1)
    gaps_pos = (logs[:, None] - logs[None, :])[upper]
    gaps_neg = (logs_neg[:, None] - logs_neg[None, :])[upper]
    return float(np.sum(gaps_pos**2) + np.sum(gaps_neg**2))


class FairLogisticRegression(BaseClassifier):
    """Logistic regression with a differential fairness penalty.

    Parameters
    ----------
    fairness_weight:
        λ ≥ 0; zero recovers plain logistic regression, larger values trade
        accuracy for a smaller epsilon across the protected groups.
    l2, max_iter, tol, fit_intercept:
        As in :class:`repro.learn.LogisticRegression`.

    :meth:`fit` takes an extra ``groups`` argument: one hashable group
    identifier per row (typically the tuple of protected-attribute values).
    """

    def __init__(
        self,
        fairness_weight: float = 1.0,
        l2: float = 1e-4,
        max_iter: int = 500,
        tol: float = 1e-8,
        fit_intercept: bool = True,
    ):
        self.fairness_weight = check_nonnegative(fairness_weight, "fairness_weight")
        self.l2 = check_nonnegative(l2, "l2")
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.fit_intercept = bool(fit_intercept)

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: Any, groups: Any = None) -> "FairLogisticRegression":
        from scipy import optimize  # deferred, as in LogisticRegression.fit

        X = self._check_matrix(X)
        codes, classes = encode_labels(y)
        check_same_length(X, codes, "X and y")
        if len(classes) != 2:
            raise ValidationError("FairLogisticRegression is binary")
        if groups is None:
            raise ValidationError("fit requires per-row protected groups")
        group_ids = list(groups)
        check_same_length(X, group_ids, "X and groups")
        distinct = sorted(set(group_ids), key=str)
        if len(distinct) < 2:
            raise ValidationError("need at least two protected groups")
        code_of = {label: code for code, label in enumerate(distinct)}
        codes_by_row = np.asarray([code_of[g] for g in group_ids], dtype=np.int64)
        n_groups = len(distinct)
        indicator = np.zeros((X.shape[0], n_groups))
        indicator[np.arange(X.shape[0]), codes_by_row] = 1.0
        sizes = indicator.sum(axis=0)
        self.group_labels_ = distinct

        targets = codes.astype(float)
        design = (
            np.column_stack([np.ones(X.shape[0]), X]) if self.fit_intercept else X
        )
        n, d = design.shape
        penalty_mask = np.ones(d)
        if self.fit_intercept:
            penalty_mask[0] = 0.0
        floor = 1e-9  # keeps log rates finite while a group's rate collapses

        def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
            z = design @ w
            probs = sigmoid(z)
            nll = -np.sum(
                targets * log_sigmoid(z) + (1.0 - targets) * log_sigmoid(-z)
            ) / n
            gradient = design.T @ (probs - targets) / n
            # Same per-sample L2 scaling as LogisticRegression, so that
            # fairness_weight = 0 recovers it exactly.
            nll += 0.5 * self.l2 * np.sum((w * penalty_mask) ** 2) / n
            gradient = gradient + self.l2 * w * penalty_mask / n

            if self.fairness_weight > 0:
                deriv = probs * (1.0 - probs)
                rates = indicator.T @ probs / sizes
                # d p̄_g / dw for every group in one product: (d, n_groups).
                rate_grads = design.T @ (deriv[:, None] * indicator) / sizes
                rates = np.clip(rates, floor, 1.0 - floor)
                logs_pos = np.log(rates)
                logs_neg = np.log1p(-rates)
                # Σ_{i<j} (l_i - l_j)^2 = G Σ l^2 - (Σ l)^2, for both labels.
                penalty = (
                    n_groups * np.sum(logs_pos**2) - np.sum(logs_pos) ** 2
                ) + (n_groups * np.sum(logs_neg**2) - np.sum(logs_neg) ** 2)
                # ∂penalty/∂l = 2 (G l - Σ l); chain through l = log p̄ and
                # log(1 - p̄) to per-group rate coefficients.
                coef = 2.0 * (n_groups * logs_pos - logs_pos.sum()) / rates
                coef -= 2.0 * (n_groups * logs_neg - logs_neg.sum()) / (1.0 - rates)
                penalty_grad = rate_grads @ coef
                nll += self.fairness_weight * penalty
                gradient = gradient + self.fairness_weight * penalty_grad
            return nll, gradient

        result = optimize.minimize(
            objective,
            x0=np.zeros(d),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        if not result.success and result.status != 1:
            warnings.warn(
                f"L-BFGS did not converge: {result.message}", ConvergenceWarning,
                stacklevel=2,
            )
        self.classes_ = classes
        if self.fit_intercept:
            self.intercept_ = float(result.x[0])
            self.coef_ = result.x[1:].copy()
        else:
            self.intercept_ = 0.0
            self.coef_ = result.x.copy()
        self.n_iter_ = int(result.nit)
        return self

    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
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

    def group_rates(self, X: np.ndarray, groups: Any) -> dict[Any, float]:
        """Per-group mean predicted positive probability (the p̄_g)."""
        probs = self.predict_proba(X)[:, 1]
        group_ids = list(groups)
        check_same_length(probs, group_ids, "X and groups")
        distinct = sorted(set(group_ids), key=str)
        code_of = {label: code for code, label in enumerate(distinct)}
        codes = np.asarray([code_of[g] for g in group_ids], dtype=np.int64)
        sums = np.bincount(codes, weights=probs, minlength=len(distinct))
        sizes = np.bincount(codes, minlength=len(distinct))
        return {
            label: float(sums[code] / sizes[code])
            for code, label in enumerate(distinct)
        }

    def __repr__(self) -> str:
        return (
            f"FairLogisticRegression(fairness_weight={self.fairness_weight:g}, "
            f"l2={self.l2:g})"
        )
