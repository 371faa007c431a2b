"""Closed forms and estimators that no command needs, kept as the tests'
independent references: the unlimited-history afterpulse total, the
random-sampling failure probability, the empirical click ratios and the
dense autocorrelation estimator."""

import math
from typing import Tuple

import numpy as np

from siqrng.errors import ConvergenceError, DegenerateError, ParameterError
from siqrng.finite_size import _log2_prefactor, _zeta_exponent
from siqrng.simulator import ClickRecords


def total_afterpulse_infinite(amplitude: float, decay: float) -> float:
    """Limit of :func:`total_afterpulse_finite` for unlimited history.

    Requires omega > ln(1+A); equals p_hat/(1-p_hat) with
    p_hat = A e^-w / (1 - e^-w).
    """
    if amplitude < 0.0:
        raise ParameterError(f"amplitude must be >= 0, got {amplitude}")
    if decay <= 0.0:
        raise ParameterError(f"decay must be > 0, got {decay}")
    if amplitude == 0.0:
        return 0.0
    if decay <= math.log1p(amplitude):
        raise ConvergenceError(
            f"total afterpulse diverges: decay {decay} <= ln(1+A) = "
            f"{math.log1p(amplitude)}"
        )
    ratio = (1.0 + amplitude) * math.exp(-decay)
    return amplitude * math.exp(-decay) / (1.0 - ratio)


def random_sampling_epsilon(eq: float, q_x: float, n_total: float, theta: float) -> float:
    """Failure probability bound of the random-sampling deviation ``theta``.

    (q_x(1-q_x) EQ(1-EQ) N)^(-1/2) * 2^(-n_x zeta(theta)) with n_x = q_x N.
    """
    if not (0.0 < eq < 0.5):
        raise ParameterError(f"EQ must lie in (0, 0.5), got {eq}")
    if not (0.0 < q_x < 1.0):
        raise ParameterError(f"q_x must lie in (0, 1), got {q_x}")
    if not (n_total >= 1):
        raise ParameterError(f"N must be >= 1, got {n_total}")
    if theta < 0.0:
        raise ParameterError(f"theta must be >= 0, got {theta}")
    # With EQ + theta <= 1 and theta > 0, the mixture point EQ + (1-q_x) theta
    # of the relative entropies stays below 1.
    if eq + theta > 1.0:
        raise ParameterError(f"theta must keep EQ + theta <= 1, got theta={theta} "
                             f"with EQ={eq}")
    log2_eps = (_log2_prefactor(eq, q_x, n_total)
                - q_x * n_total * _zeta_exponent(eq, q_x, theta))
    return 2.0**log2_eps


def empirical_click_stats(clicks: ClickRecords) -> Tuple[float, float, int]:
    """(single-click ratio, double-click ratio, window count) in the Z basis."""
    z = ~clicks.basis_is_x
    n = int(z.sum())
    if n == 0:
        raise DegenerateError("no generation-basis windows")
    single = int((clicks.d0[z] ^ clicks.d1[z]).sum())
    double = int((clicks.d0[z] & clicks.d1[z]).sum())
    return single / n, double / n, n


def dense_autocorrelation(bits, lag: int) -> float:
    """sum_{j<=n-lag}(x_j - xbar)(x_{j+lag} - xbar) / sum_j (x_j - xbar)^2
    over the dense sequence, the estimator that
    :func:`siqrng.empirical_autocorrelation` reduces to without a mask."""
    x = np.asarray(bits, dtype=float)
    if x.ndim != 1:
        raise ParameterError("bit sequence must be one-dimensional")
    if lag < 1:
        raise ParameterError(f"lag must be >= 1, got {lag}")
    n = x.size
    if n <= lag:
        raise ParameterError(f"sequence of length {n} too short for lag {lag}")
    xbar = x.mean()
    d = x - xbar
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateError("constant sequence has undefined autocorrelation")
    return float(np.dot(d[:-lag], d[lag:])) / denom
