"""Photon-number distribution handling for an untrusted source.

Covers the truncated distribution type, the Bernoulli (binomial) loss
transform, lower bounds on vacuum probabilities, the monitor-arm attenuation
balance and Hoeffding confidence radii for sampled estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ParameterError

_SUM_TOL = 1e-12
_MAX_NU = 1e5    # poisson_distribution builds 10 nu + 51 cells; a larger nu is refused first
# Rows of the power matrix per block in vacuum_probability: 256 rows of
# 551 photon numbers (nu = 50) are about 1.1 MB.
_POWER_ROWS = 256
# Cephes lgam, the code behind scipy.special.gammaln: its coefficients for
# 13 <= x < 1000 (highest power first) and log(sqrt(2 pi)).
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LS2PI = 0.91893853320467274178


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


def _lgamma_int(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for a float array of positive integers, bit for bit as
    ``scipy.special.gammaln``.

    A port of Cephes ``lgam`` restricted to integers: below 13 the log of
    the exact product (x-1)!; from 13 on Stirling's series
    (x - 1/2) log x - x + log sqrt(2 pi), corrected by ``polevl(1/x^2, A, 4)/x``
    below 1000, by the three-term series up to 1e8 and not at all above.
    Every ``log`` is ``math.log`` (the C library's, as in Cephes), one call
    per element, since ``np.log`` differs from it in the last bit on some
    inputs; the rest is the same float operations in the same order.
    """
    out = np.empty(x.shape)
    small = x < 13.0
    out[small] = [math.log(math.factorial(int(v) - 1)) for v in x[small].tolist()]
    big = x[~small]
    log_big = np.fromiter(map(math.log, big.tolist()), float, count=big.size)
    q = (big - 0.5) * log_big - big + _LS2PI
    p = 1.0 / (big * big)
    corr = np.zeros(big.shape)
    mid = big < 1000.0
    p_mid = p[mid]
    poly = np.full(p_mid.shape, _LGAM_A[0])
    for coef in _LGAM_A[1:]:
        poly = poly * p_mid + coef
    corr[mid] = poly / big[mid]
    series = (big >= 1000.0) & (big <= 1e8)
    ps = p[series]
    corr[series] = ((7.9365079365079365079365e-4 * ps - 2.7777777777777777777778e-3) * ps
                    + 0.0833333333333333333333) / big[series]
    out[~small] = q + corr
    return out


def poisson_distribution(nu: float) -> PhotonDistribution:
    """Poisson distribution of mean ``nu``, truncated at
    :func:`default_poisson_truncation`, with exact tail tracking.

    ``probs`` is exp(n log nu - lgamma(n+1) - nu), the expression
    ``scipy.stats.poisson.pmf`` evaluates (``xlogy`` and ``gammaln``), bit for
    bit and without SciPy: the bytes of ``probs`` enter ``config_hash``.

    The tail mass is max(0, 1 - s) with s = fsum(probs).  That is exactly the
    Poisson tail t = P(N > n_max) plus the pmf's rounding drift, max(0, t +
    ((1 - s) - t)), since t < 2^-107: by Chernoff, P(N >= m) <= e^-nu (e nu /
    m)^m for m > nu, and at m = n_max + 1 >= 10 nu + 51 that is below 2^-260
    for every nu.  Proof of the equality for t in [0, 2^-107): s lies within
    far less than 1/2 of 1, so by Sterbenz's lemma d = 1 - s is exact, and
    since s >= 1/2 is a multiple of 2^-53, so is d: either d = 0 or |d| >=
    2^-53.  If d = 0, (0 - t) + t = 0 exactly.  Otherwise the floats next to
    d on either side are at least |d| 2^-53 >= 2^-106 away, more than twice
    t, so d - t rounds to d and t + d rounds to d.

    The sum check is two-sided.  A sum more than ``_SUM_TOL`` above 1 is
    rounding drift; so is a deficit of more than ``_SUM_TOL``, since the tail
    it would otherwise stand for is below 2^-107.  Either is rejected with
    its own message, naming nu and the sum, so the tail mass is at most
    ``_SUM_TOL``.
    """
    if not (0.0 <= nu < math.inf):
        raise ParameterError(f"mean photon number must be finite and >= 0, got {nu}")
    if nu > _MAX_NU:
        raise ParameterError(f"mean photon number nu = {nu!r} is above the bound {_MAX_NU:g}")
    n = np.arange(default_poisson_truncation(nu) + 1)
    if nu == 0.0:
        xlogy = np.full(n.size, -np.inf)
    else:
        xlogy = n * math.log(nu)
    xlogy[0] = 0.0
    probs = np.exp(xlogy - _lgamma_int(n + 1.0) - nu)
    total = math.fsum(probs.tolist())
    if total - 1.0 > _SUM_TOL:
        raise ParameterError(
            f"Poisson probabilities of mean nu = {nu!r} sum to {total!r}, more than "
            f"{_SUM_TOL} above 1: the pmf loses accuracy at this nu")
    if 1.0 - total > _SUM_TOL:
        raise ParameterError(
            f"Poisson probabilities of mean nu = {nu!r} sum to {total!r}, more than "
            f"{_SUM_TOL} below 1 with a tail below 2^-107: the pmf loses accuracy "
            "at this nu")
    return PhotonDistribution(probs=probs, tail_mass=max(0.0, 1.0 - total))


def bernoulli_transform(dist: PhotonDistribution, xi: float) -> PhotonDistribution:
    """Distribution after independent per-photon survival probability ``xi``.

    D(m) = sum_{n>=m} P(n) C(n,m) xi^m (1-xi)^(n-m), by Horner's rule on the
    generating function sum_n P(n) (1 - xi + xi s)^n: from n = n_max down to
    0, multiply by (1 - xi + xi s) and add P(n).  Every operand is
    non-negative, so no cell rounds below 0, and at xi = 1 each step is an
    exact shift.  A cell sums non-negative terms of at most 2 (n_max + 1)
    roundings each: relative error about 2 (n_max + 1) 2^-53.  The input tail
    cannot be transformed and is carried through as output tail mass
    (pessimistic: its photons may land anywhere).
    """
    if not (0.0 <= xi <= 1.0):
        raise ParameterError(f"xi must lie in [0, 1], got {xi}")
    lost = 1.0 - xi
    out = np.zeros(dist.n_max + 1)
    for p in dist.probs[::-1].tolist():
        out[1:] = lost * out[1:] + xi * out[:-1]
        out[0] = lost * out[0] + p
    tail = max(0.0, 1.0 - math.fsum(out.tolist()))
    return PhotonDistribution(probs=out, tail_mass=tail)


def vacuum_probability(dist: PhotonDistribution, xi) -> np.ndarray:
    """Vacuum probability after thinning by ``xi``, a lower bound: an array of
    ``xi``'s shape.

    tau = sum_n P(n) (1-xi)^n, to which the truncation tail contributes 0.
    Each cell equals the float result of its own ``xi``: the power matrix is
    built ``_POWER_ROWS`` rows at a time in one reused block, and one
    ``np.vecdot`` per block sums each row with the pmf.  Its loop makes one
    BLAS ``ddot`` per row, the sum ``np.dot`` makes for that row alone; a
    matrix product would block the rows and sum in another order.
    """
    xis = np.asarray(xi, dtype=float)
    outside = ~((xis >= 0.0) & (xis <= 1.0))
    if outside.any():
        got = xi if xis.ndim == 0 else float(xis[outside][0])
        raise ParameterError(f"xi must lie in [0, 1], got {got}")
    n = np.arange(dist.n_max + 1)
    distinct, inverse = np.unique(xis.ravel(), return_inverse=True)
    lo = np.empty(distinct.size)
    space = np.empty((min(distinct.size, _POWER_ROWS), n.size))
    for start in range(0, distinct.size, _POWER_ROWS):
        bases = 1.0 - distinct[start:start + _POWER_ROWS]
        powers = np.power(bases[:, None], n, out=space[:bases.size])
        np.vecdot(powers, dist.probs, out=lo[start:start + _POWER_ROWS])
    return np.clip(lo[inverse], 0.0, 1.0).reshape(xis.shape)


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
    if not (n_samples >= 1):    # a NaN count fails too
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    if not (0.0 < eps_d < 1.0):
        raise ParameterError(f"eps_d must lie in (0, 1), got {eps_d}")
    return math.sqrt(math.log(2.0 / eps_d) / (2.0 * n_samples))


def clipped_interval(center: float, delta: float) -> Tuple[float, float]:
    """Confidence interval [center-delta, center+delta] clipped to [0, 1] of a
    radius ``delta`` >= 0: :func:`hoeffding_delta`'s, or one checked so."""
    return max(0.0, center - delta), min(1.0, center + delta)

