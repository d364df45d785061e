"""Scalar statistics helpers (Normal distribution functions).

The worked example in Section 5 of the paper uses group-conditional Normal
score distributions with a threshold mechanism; these helpers provide the
closed forms used by :mod:`repro.core.analytic`.

Only :func:`normal_ppf` needs SciPy (``special.ndtri``); it imports it on
its first call, so importing this module costs NumPy and the standard
library alone.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["normal_cdf", "normal_tail", "normal_pdf", "normal_ppf"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """P(X <= x) for X ~ Normal(mean, std**2)."""
    check_positive(std, "std")
    return 0.5 * (1.0 + math.erf((x - mean) / (std * _SQRT2)))


def normal_tail(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """P(X >= x) for X ~ Normal(mean, std**2).

    Computed as ``normal_cdf(-z)`` for numerical symmetry in the far tail.
    """
    check_positive(std, "std")
    z = (x - mean) / std
    return 0.5 * (1.0 + math.erf(-z / _SQRT2))


def normal_pdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Density of Normal(mean, std**2) at x."""
    check_positive(std, "std")
    z = (x - mean) / std
    return _INV_SQRT_2PI / std * math.exp(-0.5 * z * z)


def normal_ppf(q: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Quantile function (inverse CDF) of Normal(mean, std**2)."""
    check_positive(std, "std")
    if not 0.0 < q < 1.0:
        if q == 0.0:
            return -math.inf
        if q == 1.0:
            return math.inf
        raise ValueError(f"q must be in [0, 1], got {q}")
    from scipy import special

    return mean + std * float(special.ndtri(q))


def empirical_rate(successes: int, total: int) -> float:
    """Simple proportion ``successes / total`` with validation."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes must be between 0 and total")
    return successes / total


def binomial_sample_counts(
    n: int, p: float, rng: np.random.Generator
) -> tuple[int, int]:
    """Draw ``k ~ Binomial(n, p)`` and return ``(k, n - k)``."""
    k = int(rng.binomial(n, p))
    return k, n - k
