"""Photon-number distribution handling for an untrusted source.

Covers the truncated distribution type, the Bernoulli (binomial) loss
transform, vacuum probabilities with truncation bounds, the monitor-arm
attenuation balance and Hoeffding confidence radii for sampled estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import stats

from .errors import ParameterError

# Truncation tail above which construction warns.
TAIL_WARN_THRESHOLD = 1e-10
_SUM_TOL = 1e-12
# Rows of the power matrix per block in vacuum_probability: 256 rows of
# 551 photon numbers (nu = 50) are about 1.1 MB.
_POWER_ROWS = 256


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number probabilities P(0..n_max) with tracked truncation tail."""

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("probs must be a non-empty 1-d vector")
        if np.any(arr < 0.0):
            raise ParameterError("probabilities must be non-negative")
        if self.tail_mass < 0.0:
            raise ParameterError(f"tail_mass must be >= 0, got {self.tail_mass}")
        total = math.fsum(arr.tolist()) + self.tail_mass
        if abs(total - 1.0) > _SUM_TOL:
            raise ParameterError(
                f"probabilities plus tail must sum to 1 within {_SUM_TOL}, got {total!r}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def to_dict(self) -> dict:
        return {"probs": self.probs.tolist(), "tail_mass": self.tail_mass}


def default_poisson_truncation(nu: float) -> int:
    """Truncation order for a coherent source; keeps the tail below ~1e-12."""
    return int(math.ceil(10.0 * nu + 50.0))


def poisson_distribution(nu: float, n_max: Optional[int] = None) -> PhotonDistribution:
    """Truncated Poisson distribution of mean ``nu`` with exact tail tracking."""
    if nu < 0.0:
        raise ParameterError(f"mean photon number must be >= 0, got {nu}")
    if n_max is None:
        n_max = default_poisson_truncation(nu)
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(n_max + 1)
    probs = stats.poisson.pmf(n, nu)
    tail = float(stats.poisson.sf(n_max, nu))
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(
            f"Poisson truncation at n_max={n_max} leaves tail mass {tail:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    # absorb the rounding drift of the pmf into the tail
    drift = 1.0 - math.fsum(probs.tolist()) - tail
    tail = max(0.0, tail + drift)
    return PhotonDistribution(probs=probs, tail_mass=tail)


def bernoulli_transform(dist: PhotonDistribution, xi: float) -> PhotonDistribution:
    """Distribution after independent per-photon survival probability ``xi``.

    D(m) = sum_{n>=m} P(n) C(n,m) xi^m (1-xi)^(n-m).  The input tail cannot be
    transformed and is carried through as output tail mass (pessimistic: its
    photons may land anywhere).
    """
    if not (0.0 <= xi <= 1.0):
        raise ParameterError(f"xi must lie in [0, 1], got {xi}")
    n_max = dist.n_max
    n = np.arange(n_max + 1)
    # kernel[i, j] = P(j survivors | i photons)
    kernel = stats.binom.pmf(n[None, :], n[:, None], xi)
    out = dist.probs @ kernel
    out = np.clip(out, 0.0, None)
    tail = max(0.0, 1.0 - math.fsum(out.tolist()))
    return PhotonDistribution(probs=out, tail_mass=tail)


def vacuum_probability(dist: PhotonDistribution, xi) -> Tuple[float, float]:
    """Bounds (lo, hi) on the vacuum probability after thinning by ``xi``.

    tau = sum_n P(n) (1-xi)^n; the truncation tail contributes 0 (lower bound)
    or survives entirely as vacuum (upper bound).  ``xi`` may be an array;
    the bounds are then arrays of its shape, each cell equal to the float
    result.  Each cell is its own ``np.dot`` with the power row, since a
    matrix product sums in another order, and the power matrix is built
    ``_POWER_ROWS`` rows at a time.
    """
    xis = np.asarray(xi, dtype=float)
    outside = ~((xis >= 0.0) & (xis <= 1.0))
    if outside.any():
        got = xi if xis.ndim == 0 else float(xis[outside][0])
        raise ParameterError(f"xi must lie in [0, 1], got {got}")
    n = np.arange(dist.n_max + 1)
    flat = xis.ravel()
    lo = np.empty(flat.size)
    for start in range(0, flat.size, _POWER_ROWS):
        powers = np.power((1.0 - flat[start:start + _POWER_ROWS])[:, None], n)
        lo[start:start + _POWER_ROWS] = [np.dot(dist.probs, row) for row in powers]
    lo = np.clip(lo, 0.0, 1.0).reshape(xis.shape)
    hi = np.minimum(lo + dist.tail_mass, 1.0)
    if xis.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def monitor_attenuation(eta_bs: float, eta_det: float) -> float:
    """Attenuation t0 = (1-eta_bs)/eta_bs * eta_det balancing the monitor arm.

    With this attenuation the distribution continuing into the measurement
    equals the one the monitor photodiode sees.
    """
    if not (0.0 < eta_bs < 1.0):
        raise ParameterError(f"beam-splitter transmittance must lie in (0, 1), got {eta_bs}")
    if not (0.0 < eta_det <= 1.0):
        raise ParameterError(f"photodiode efficiency must lie in (0, 1], got {eta_det}")
    return (1.0 - eta_bs) / eta_bs * eta_det


def hoeffding_delta(n_samples: int, eps_d: float) -> float:
    """Confidence radius sqrt(ln(2/eps_d) / (2 n)) for an empirical mean.

    Inverts eps_d = 2 exp(-2 n delta^2).
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    if not (0.0 < eps_d < 1.0):
        raise ParameterError(f"eps_d must lie in (0, 1), got {eps_d}")
    return math.sqrt(math.log(2.0 / eps_d) / (2.0 * n_samples))


def clipped_interval(center: float, delta: float) -> Tuple[float, float]:
    """Confidence interval [center-delta, center+delta] clipped to [0, 1]."""
    if delta < 0.0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    return max(0.0, center - delta), min(1.0, center + delta)

