"""Closed-form response and afterpulse model for threshold single-photon detectors.

A gated threshold detector clicks when at least one of three independent causes
fires in a window: a surviving photon, a dark count, or an afterpulse released
by carriers trapped during an earlier avalanche.  The afterpulse contribution of
the window j slots earlier is a first-order coefficient p_hat_j; chains of
afterpulses triggering afterpulses add high-order terms, which for a history of
m windows sum over all integer compositions:

    P_total(m) = sum_{k=1..m} sum_{i_1+...+i_l = k} prod p_hat_{i_t}

With an exponential lag profile p_hat_j = A * exp(-j*omega) this composition
sum has a geometric closed form, and for unlimited history it collapses to
p_hat / (1 - p_hat) with p_hat = sum_j p_hat_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ParameterError

DETECTOR_LABELS = ("0", "1", "+", "-")

# Relative tolerance used when the geometric ratio sits on its removable
# singularity (1+A)e^-omega == 1.
_RATIO_EPS = 1e-14


def _check_unit(name: str, value, *, high_open: bool = False) -> None:
    """Raise unless ``value``, or every array entry, lies in [0, 1] ([0, 1) if
    high_open); for an array the message names the first entry that does not."""
    if type(value) is not float and isinstance(value, np.ndarray):  # fast float path
        inside = (value >= 0.0) & ((value < 1.0) if high_open else (value <= 1.0))
        if inside.all():
            return
        value = float(value[~inside].flat[0])
    elif 0.0 <= value and (value < 1.0 if high_open else value <= 1.0):
        return
    hi = "1)" if high_open else "1]"
    raise ParameterError(f"{name} must lie in [0, {hi}, got {value!r}")


def response_prob_no_afterpulse(tau: float, e_d: float) -> float:
    """Click probability 1 - tau*(1 - e_d) of a detector without afterpulsing.

    ``tau`` is the vacuum probability at the detector (no photon arrives) and
    ``e_d`` the dark-count probability per gate.
    """
    _check_unit("tau", tau)
    _check_unit("e_d", e_d)
    return 1.0 - tau * (1.0 - e_d)


def response_prob(tau: float, e_d: float, p_ap: float) -> float:
    """Click probability 1 - tau*(1 - e_d)*(1 - p_ap) including afterpulsing."""
    _check_unit("tau", tau)
    _check_unit("e_d", e_d)
    _check_unit("p_ap", p_ap)
    return 1.0 - tau * (1.0 - e_d) * (1.0 - p_ap)


def afterpulse_prob_infinite(p_hat: float, p_b: float) -> float:
    """Current afterpulse probability p_hat/(1-p_hat) * p_b, unlimited history.

    ``p_hat`` is the overall first-order afterpulse rate and ``p_b`` the prior
    response ratio of the detector (1 in the all-windows-fired worst case).
    """
    _check_unit("p_hat", p_hat, high_open=True)
    _check_unit("p_b", p_b)
    return p_hat / (1.0 - p_hat) * p_b


def _cellwise(fn, x):
    """``fn`` of every cell of ``x`` as a Python float, if ``x`` is an array."""
    if type(x) is not float and isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _exponential_first_order_rate(amplitude: float, decay: float,
                                  depth: Optional[int] = None) -> float:
    """Overall first-order rate sum_{j<=depth} A e^(-j omega) of the
    exponential profile (all lags when ``depth`` is None).  An array of
    amplitudes gives an array."""
    e = math.exp(-decay)
    if depth is None:
        return amplitude * e / (1.0 - e)
    return amplitude * e * (1.0 - e**depth) / (1.0 - e)


def _amplitude_of(rate, decay: float):
    """Amplitude rate*(e^decay - 1) whose unlimited-history first-order rate is ``rate``."""
    try:
        return rate * math.expm1(decay)
    except OverflowError:
        raise ParameterError(f"decay {decay} is too large: e^decay - 1 overflows") from None


def afterpulse_coeff(amplitude: float, decay: float, lag):
    """First-order coefficient A*exp(-j*omega) for the window ``lag`` back.

    ``decay`` is the ratio of gating time to de-trapping lifetime; the
    exponent uses the lag index, consistent with the geometric sums below.
    An integer array of lags gives an array, each entry the float that its
    lag gives alone.
    """
    if np.any(np.less(lag, 1)):
        raise ParameterError(f"lag must be >= 1, got {np.min(lag)}")
    return amplitude * _cellwise(math.exp, -lag * decay)


def total_afterpulse_finite(amplitude: float, decay: float, windows: int) -> float:
    """Total afterpulse probability from ``windows`` previous fired windows.

    Closed form of the composition sum for the exponential lag profile:

        A e^-w * ([(1+A)e^-w]^m - 1) / ((1+A)e^-w - 1)

    The removable singularity (1+A)e^-w == 1 is evaluated as the analytic
    limit m * A e^-w.  The value is not clamped; for extreme parameters it can
    exceed 1 and response-probability consumers clamp it there.
    """
    if amplitude < 0.0:
        raise ParameterError(f"amplitude must be >= 0, got {amplitude}")
    if decay <= 0.0:
        raise ParameterError(f"decay must be > 0, got {decay}")
    if windows < 0:
        raise ParameterError(f"windows must be >= 0, got {windows}")
    if windows == 0 or amplitude == 0.0:
        return 0.0
    first = amplitude * math.exp(-decay)
    ratio = (1.0 + amplitude) * math.exp(-decay)
    if abs(ratio - 1.0) < _RATIO_EPS:
        return windows * first
    if ratio < 1.0 and windows * math.log(ratio) < -745.0:
        # ratio**windows underflows to 0; use the m -> infinity limit directly
        return first / (1.0 - ratio)
    return first * (ratio**windows - 1.0) / (ratio - 1.0)


def _exponential_worst_total(amplitude: float, decay: float, depth: Optional[int]) -> float:
    """Total afterpulse probability of the exponential profile of amplitude
    ``amplitude`` > 0 when every history window fired: p_hat/(1-p_hat) for
    unlimited history (``depth`` None), else :func:`total_afterpulse_finite`
    over ``depth`` >= 1 windows.  An array of amplitudes gives an array."""
    if depth is None:
        return afterpulse_prob_infinite(_exponential_first_order_rate(amplitude, decay), 1.0)
    return _cellwise(lambda a: total_afterpulse_finite(a, decay, depth), amplitude)


def composition_total(coefficients: Sequence[float], windows: int) -> float:
    """Composition sum sum_{k=1..windows} f(k), f(k) = sum_j c_j f(k-j).

    ``coefficients[j-1]`` is the first-order coefficient at lag j; lags beyond
    the list contribute nothing.  Algebraically identical to enumerating every
    integer composition of each k, evaluated by convolution in O(windows*lags).
    ``windows`` is a window depth, which :class:`AfterpulseSpec` bounds at >= 0.
    """
    lags = len(coefficients)
    if windows == 0 or lags == 0:
        return 0.0
    f = [0.0] * (windows + 1)
    f[0] = 1.0
    total = 0.0
    for k in range(1, windows + 1):
        acc = 0.0
        for j in range(1, min(k, lags) + 1):
            cj = coefficients[j - 1]
            if cj != 0.0:
                acc += cj * f[k - j]
        f[k] = acc
        total += acc
    return total


@dataclass(frozen=True)
class AfterpulseSpec:
    """Afterpulse behaviour of one detector.

    mode
        ``"explicit"``: first-order coefficients are listed per lag.
        ``"exponential"``: p_hat_j = amplitude * exp(-j*decay).
    window_depth
        Number of previous windows contributing afterpulses; ``None`` means
        unlimited history.
    """

    mode: str
    coefficients: tuple = ()
    amplitude: float = 0.0
    decay: float = 0.0
    window_depth: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("explicit", "exponential"):
            raise ParameterError(f"unknown afterpulse mode {self.mode!r}")
        depth = self.window_depth
        if depth is not None and not (isinstance(depth, int) and depth >= 0):
            raise ParameterError(f"window_depth must be None or an integer >= 0, got {depth!r}")
        if self.mode == "explicit":
            coeffs = tuple(float(c) for c in self.coefficients)
            object.__setattr__(self, "coefficients", coeffs)
            for j, c in enumerate(coeffs, start=1):
                if not (0.0 <= c < 1.0):
                    raise ParameterError(f"coefficient p_hat_{j} = {c} outside [0, 1)")
        else:
            if self.coefficients:
                raise ParameterError("exponential mode takes no coefficient list")
            if not self.amplitude >= 0.0:
                raise ParameterError(f"amplitude must be >= 0, got {self.amplitude}")
            if self.amplitude > 0.0 and not self.decay > 0.0:
                raise ParameterError(f"decay must be > 0, got {self.decay}")
            if self.window_depth is None and self.amplitude > 0.0:
                if self.decay <= math.log1p(self.amplitude):
                    raise ConvergenceError(
                        "unlimited history requires decay > ln(1+amplitude); got "
                        f"decay={self.decay}, ln(1+A)={math.log1p(self.amplitude)}"
                    )
            # first_order_rate divides by 1 - exp(-decay)
            if self.amplitude > 0.0 and math.exp(-self.decay) == 1.0:
                raise ParameterError(
                    f"decay must be large enough that exp(-decay) < 1, got {self.decay}")
        rate = self.first_order_rate
        if not rate < 1.0:
            raise ParameterError(f"overall first-order rate must be < 1, got {rate}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def none(cls) -> "AfterpulseSpec":
        """A detector with no afterpulsing."""
        return cls(mode="explicit", coefficients=(), window_depth=0)

    @classmethod
    def explicit(cls, coefficients: Sequence[float]) -> "AfterpulseSpec":
        """Explicit coefficient table, with the table length as history depth."""
        coefficients = tuple(coefficients)
        return cls(mode="explicit", coefficients=coefficients,
                   window_depth=len(coefficients))

    @classmethod
    def exponential(cls, amplitude: float, decay: float,
                    window_depth: Optional[int] = None) -> "AfterpulseSpec":
        return cls(mode="exponential", amplitude=amplitude, decay=decay,
                   window_depth=window_depth)

    @classmethod
    def exponential_from_rate(cls, first_order_rate: float, decay: float,
                              window_depth: Optional[int] = None) -> "AfterpulseSpec":
        """Exponential profile whose unlimited-history first-order sum equals
        ``first_order_rate``: amplitude = rate * (e^omega - 1).  A zero rate
        gives :meth:`none`, whatever the decay."""
        _check_unit("first_order_rate", first_order_rate, high_open=True)
        if window_depth is not None and window_depth < 0:
            raise ParameterError(f"window_depth must be >= 0, got {window_depth}")
        if first_order_rate == 0.0:
            return cls.none()
        if not decay > 0.0:
            raise ParameterError(f"decay must be > 0, got {decay}")
        return cls.exponential(_amplitude_of(first_order_rate, decay), decay, window_depth)

    # -- derived quantities ------------------------------------------------

    def coefficient(self, lag: int) -> float:
        """First-order coefficient p_hat_j at window lag j (0 beyond depth)."""
        if lag < 1:
            raise ParameterError(f"lag must be >= 1, got {lag}")
        if self.window_depth is not None and lag > self.window_depth:
            return 0.0
        if self.mode == "explicit":
            return self.coefficients[lag - 1] if lag <= len(self.coefficients) else 0.0
        return afterpulse_coeff(self.amplitude, self.decay, lag)

    @property
    def first_order_rate(self) -> float:
        """Overall first-order rate p_hat = sum_j p_hat_j over the history."""
        depth = self.window_depth
        if self.mode == "explicit":
            n = len(self.coefficients) if depth is None else min(depth, len(self.coefficients))
            return math.fsum(self.coefficients[:n])
        if self.amplitude == 0.0:
            return 0.0
        return _exponential_first_order_rate(self.amplitude, self.decay, depth)

    def worst_case_total(self) -> float:
        """Total afterpulse probability when every history window fired.

        Unlimited history gives p_hat/(1-p_hat); a finite window gives the
        composition sum (closed form in exponential mode).  Not clamped.
        """
        depth = self.window_depth
        if self.mode == "exponential":
            if self.amplitude == 0.0 or depth == 0:
                return 0.0
            return _exponential_worst_total(self.amplitude, self.decay, depth)
        if depth is None:
            return afterpulse_prob_infinite(self.first_order_rate, 1.0)
        return composition_total(self.coefficients, depth)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "A": self.amplitude,
            "omega": self.decay,
            "coefficients": list(self.coefficients),
            "window_depth": self.window_depth,
        }


@dataclass(frozen=True)
class DetectorParams:
    """Static parameters of one threshold detector."""

    efficiency: float
    dark_rate: float
    afterpulse: AfterpulseSpec = field(default_factory=AfterpulseSpec.none)
    label: str = "0"

    def __post_init__(self):
        _check_unit("efficiency", self.efficiency)
        _check_unit("dark_rate", self.dark_rate, high_open=True)
        if self.label not in DETECTOR_LABELS:
            raise ParameterError(
                f"label must be one of {DETECTOR_LABELS}, got {self.label!r}"
            )

    def to_dict(self) -> dict:
        return {
            "efficiency": self.efficiency,
            "dark_rate": self.dark_rate,
            "afterpulse": self.afterpulse.to_dict(),
            "label": self.label,
        }


def detector_set(eta: float, e_d: float, spec: AfterpulseSpec,
                 eta_1: Optional[float] = None) -> Tuple[DetectorParams, ...]:
    """Detectors "0", "1", "+", "-" of efficiency eta ("1": eta_1 if given)."""
    effs = (eta, eta if eta_1 is None else eta_1, eta, eta)
    return tuple(DetectorParams(efficiency=eff, dark_rate=e_d, afterpulse=spec,
                                label=label)
                 for eff, label in zip(effs, DETECTOR_LABELS))
