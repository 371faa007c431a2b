"""Click statistics, worst-case conditional min-entropy and autocorrelation.

The generation arm (detectors "0"/"1") yields a raw bit per single click;
double clicks are filled with true random bits and later paid back.  The check
arm ("+"/"-") measures the error rate EQ = p_-*(1-p_+) + p_-*p_+/2, a
per-pulse quantity (double clicks count half an error).  The certified
min-entropy treats the adversary as knowing which detector fired previously,
so each detector is evaluated both with its full worst-case afterpulse and
with none at all, and the most predictable single-click outcome decides
H_min(Z|E).

The whole chain broadcasts: arrays of tau and of the clamped worst-case
afterpulse total give arrays of every report field, each cell equal to the
float result.  Logarithms of arrays go through ``math`` cell by cell, since
NumPy's ``log2`` and ``log1p`` differ from it in the last bit on some inputs.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .detector_model import (AfterpulseSpec, DetectorParams, _check_unit,
                             response_prob, response_prob_no_afterpulse)
from .errors import DegenerateError, ParameterError
from .source_monitor import PhotonDistribution, vacuum_probability

_LN2 = math.log(2.0)


def _cellwise(fn, x):
    """``fn`` of every cell of ``x`` as a Python float, if ``x`` is an array."""
    if type(x) is not float and isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return fn(x)


def _binary_entropy(x: float) -> float:
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy -x log2 x - (1-x) log2(1-x), h(0) = h(1) = 0."""
    _check_unit("binary entropy argument", x)
    return _cellwise(_binary_entropy, x)


def click_probabilities(p_0: float, p_1: float) -> Tuple[float, float]:
    """(Q_single, Q_double) of a two-detector arm with response probs p_0, p_1."""
    _check_unit("p_0", p_0)
    _check_unit("p_1", p_1)
    return p_0 * (1.0 - p_1) + p_1 * (1.0 - p_0), p_0 * p_1


def x_basis_error(p_plus: float, p_minus: float) -> float:
    """Per-pulse check-basis error rate p_-(1-p_+) + p_- p_+ / 2."""
    _check_unit("p_plus", p_plus)
    _check_unit("p_minus", p_minus)
    return p_minus * (1.0 - p_plus) + 0.5 * p_minus * p_plus


def expectation_k(p_0: float, p_1: float) -> float:
    """Expected raw-bit value k = p_1(1-p_0) / (p_1(1-p_0) + p_0(1-p_1))."""
    num = p_1 * (1.0 - p_0)
    den = num + p_0 * (1.0 - p_1)
    if den == 0.0 if type(den) is float else not np.all(den):
        raise DegenerateError("no single-click events: k is undefined")
    return num / den


def worst_afterpulse(spec: AfterpulseSpec) -> float:
    """Worst-case afterpulse probability, clamped into [0, 1].

    The geometric worst case p_hat/(1-p_hat) exceeds 1 once p_hat > 1/2;
    response probabilities stay physical by capping it there.
    """
    return min(spec.worst_case_total(), 1.0)


def _stationary(tau: float, e_d: float, worst: float,
                prior_ratio: Optional[float]) -> float:
    if prior_ratio is None:
        prior_ratio = response_prob_no_afterpulse(tau, e_d)
    else:
        _check_unit("prior_ratio", prior_ratio)
    return response_prob(tau, e_d, worst * prior_ratio)


def baseline_click_prob(det: DetectorParams, tau: float) -> float:
    """Response probability with no afterpulse contribution."""
    return response_prob_no_afterpulse(tau, det.dark_rate)


def stationary_click_prob(det: DetectorParams, tau: float,
                          prior_ratio: Optional[float] = None) -> float:
    """Steady-state response probability including afterpulsing.

    ``prior_ratio`` is the detector's prior response ratio; by default the
    afterpulse-free value of this detector, the worst case injects 1.
    """
    return _stationary(tau, det.dark_rate, worst_afterpulse(det.afterpulse), prior_ratio)


@dataclass(frozen=True)
class ArmState:
    """Response probabilities of a two-detector arm at one operating point,
    or at every cell of a broadcast grid.

    ``p_a``/``p_b`` are the stationary probabilities; ``p1_*``/``p0_*`` the
    worst-case pair used by the min-entropy bound (all previous windows fired
    versus none).
    """

    p_a: float
    p_b: float
    p1_a: float
    p0_a: float
    p1_b: float
    p0_b: float

    @classmethod
    def from_detectors(cls, det_a: DetectorParams, tau_a: float,
                       det_b: DetectorParams, tau_b: float,
                       prior_a: Optional[float] = None,
                       prior_b: Optional[float] = None) -> "ArmState":
        return cls.from_totals(
            tau_a, det_a.dark_rate, worst_afterpulse(det_a.afterpulse),
            tau_b, det_b.dark_rate, worst_afterpulse(det_b.afterpulse),
            prior_a, prior_b)

    @classmethod
    def from_totals(cls, tau_a: float, e_a: float, worst_a: float,
                    tau_b: float, e_b: float, worst_b: float,
                    prior_a: Optional[float] = None,
                    prior_b: Optional[float] = None) -> "ArmState":
        """Arm of detectors with vacuum probabilities ``tau_*``, dark-count
        probabilities ``e_*`` and clamped worst-case afterpulse totals
        ``worst_*`` (see :func:`worst_afterpulse`).  Arrays broadcast."""
        return cls(
            p_a=_stationary(tau_a, e_a, worst_a, prior_a),
            p_b=_stationary(tau_b, e_b, worst_b, prior_b),
            p1_a=response_prob(tau_a, e_a, worst_a),
            p0_a=response_prob_no_afterpulse(tau_a, e_a),
            p1_b=response_prob(tau_b, e_b, worst_b),
            p0_b=response_prob_no_afterpulse(tau_b, e_b),
        )


def _hmin_z_from_pairs(p1_0: float, p0_0: float, p1_1: float, p0_1: float) -> float:
    best = 0.0
    for pm, pn in ((p1_0, p0_1), (p0_1, p1_0), (p1_1, p0_0), (p0_0, p1_1)):
        x = pm * (1.0 - pn)
        y = pn * (1.0 - pm)
        q = x + y
        cells = type(q) is not float and isinstance(q, np.ndarray)
        if (not q.all()) if cells else q == 0.0:
            raise DegenerateError("single-click probability vanishes in the worst case")
        best = np.maximum(best, x / q) if cells else max(best, x / q)
    return -_cellwise(math.log2, best)


def hmin_a(hmin_z: float, q_single: float, q_double: float, eq: float) -> float:
    """Min-entropy per generation-basis pulse.

    [hmin_z * Q_single + Q_double] * [1 - h(EQ)] - Q_double.  May be negative;
    rate formulas clamp at zero, this function reports the raw value.
    """
    return (hmin_z * q_single + q_double) * (1.0 - binary_entropy(eq)) - q_double


def lagged_response_probs(det: DetectorParams, tau: float, lag: int,
                          prior_ratio: Optional[float] = None) -> Tuple[float, float]:
    """Response probabilities (fired, not fired) conditioned on the window
    ``lag`` slots earlier.

    The stationary afterpulse background keeps its mean except that the lag
    coefficient's contribution is resolved to 1 (fired) or 0 (not fired):

        P_fired     = p_hat/(1-p_hat)*p_b + p_hat_lag * (1 - p_b)
        P_not_fired = p_hat/(1-p_hat)*p_b - p_hat_lag * p_b

    A negative not-fired correction is clamped at 0 with a warning.
    """
    if prior_ratio is None:
        prior_ratio = baseline_click_prob(det, tau)
    elif not (0.0 <= prior_ratio <= 1.0):
        raise ParameterError(f"prior_ratio must lie in [0, 1], got {prior_ratio}")
    spec = det.afterpulse
    background = spec.first_order_rate / (1.0 - spec.first_order_rate) * prior_ratio
    coeff = spec.coefficient(lag)
    p_ap_fired = min(background + coeff * (1.0 - prior_ratio), 1.0)
    p_ap_not = background - coeff * prior_ratio
    if p_ap_not < 0.0:
        warnings.warn(
            f"lag-{lag} correction drives the afterpulse probability negative "
            f"({p_ap_not:.3e}); clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        p_ap_not = 0.0
    return (
        response_prob(tau, det.dark_rate, p_ap_fired),
        response_prob(tau, det.dark_rate, p_ap_not),
    )


def prior_autocorrelation(det_0: DetectorParams, tau_0: float,
                          det_1: DetectorParams, tau_1: float, lag: int,
                          prior_0: Optional[float] = None,
                          prior_1: Optional[float] = None) -> float:
    """Predicted lag-``lag`` autocorrelation of the raw bit sequence.

    a_i = [p1^i1 (1-p0^i0) - p1^i0 (1-p0^i1)] (1-k)
        + [p0^i0 (1-p1^i1) - p0^i1 (1-p1^i0)] (-k)

    where the superscripts resolve whether the window ``lag`` earlier fired.
    For identical detectors this reduces to tau*(1-e_d)*p_hat_lag, linear in
    the lag coefficient; distinct detectors make it quadratic.
    """
    p0_f, p0_n = lagged_response_probs(det_0, tau_0, lag, prior_0)
    p1_f, p1_n = lagged_response_probs(det_1, tau_1, lag, prior_1)
    k = expectation_k(
        stationary_click_prob(det_0, tau_0, prior_0),
        stationary_click_prob(det_1, tau_1, prior_1),
    )
    term_one = (p1_f * (1.0 - p0_n) - p1_n * (1.0 - p0_f)) * (1.0 - k)
    term_zero = (p0_n * (1.0 - p1_f) - p0_f * (1.0 - p1_n)) * (-k)
    return term_one + term_zero


def empirical_autocorrelation(bits, lag: int, mask=None) -> float:
    """Lag-``lag`` autocorrelation coefficient of a bit sequence.

    Without ``mask``: sum_{j<=n-lag}(x_j - xbar)(x_{j+lag} - xbar) /
    sum_j (x_j - xbar)^2 over the dense sequence.  With ``mask`` (validity per
    index, e.g. single-click windows), pairs contribute only where both
    entries are valid and the denominator runs over every valid entry, so the
    estimate converges to the per-window prediction above.
    """
    x = np.asarray(bits, dtype=float)
    if x.ndim != 1:
        raise ParameterError("bit sequence must be one-dimensional")
    if lag < 1:
        raise ParameterError(f"lag must be >= 1, got {lag}")
    if mask is None:
        n = x.size
        if n <= lag:
            raise ParameterError(f"sequence of length {n} too short for lag {lag}")
        xbar = x.mean()
        d = x - xbar
        denom = float(np.dot(d, d))
        if denom == 0.0:
            raise DegenerateError("constant sequence has undefined autocorrelation")
        return float(np.dot(d[:-lag], d[lag:])) / denom
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.shape:
        raise ParameterError("mask must have the same shape as the bit sequence")
    if m.size <= lag:
        raise ParameterError(f"sequence of length {m.size} too short for lag {lag}")
    valid = x[m]
    if valid.size == 0:
        raise DegenerateError("mask selects no entries")
    xbar = valid.mean()
    d = np.where(m, x - xbar, 0.0)
    denom = float(np.dot(d[m], d[m]))
    if denom == 0.0:
        raise DegenerateError("constant sequence has undefined autocorrelation")
    pair = m[:-lag] & m[lag:]
    num = float(np.dot(d[:-lag][pair], d[lag:][pair]))
    return num / denom


def autocorrelation_stderr(mask, lag: int) -> float:
    """Null standard error of the masked estimator: sqrt(N_pairs)/N_valid."""
    m = np.asarray(mask, dtype=bool)
    n_valid = int(m.sum())
    if n_valid == 0:
        raise DegenerateError("mask selects no entries")
    n_pairs = int((m[:-lag] & m[lag:]).sum())
    return math.sqrt(n_pairs) / n_valid


# ---------------------------------------------------------------------------
# Report assembly


@dataclass(frozen=True)
class EntropyReport:
    """All per-pulse statistics of one operating point, or of a broadcast grid."""

    hmin_z: float
    hmin_a: float
    q_single: float
    q_double: float
    eq: float
    k: float

    def __post_init__(self):
        for name in ("hmin_z", "q_single", "q_double", "eq", "k"):
            _check_unit(name, getattr(self, name))
        total = self.q_single + self.q_double
        if (total if type(total) is float else np.max(total)) > 1.0 + 1e-12:
            raise ParameterError("Q_single + Q_double exceeds 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def cells(self) -> Iterator["EntropyReport"]:
        """The scalar report of each cell of a one-dimensional broadcast
        report, in order, one at a time."""
        columns = np.broadcast_arrays(*(getattr(self, f.name)
                                        for f in dataclasses.fields(self)))
        for row in zip(*columns):
            yield EntropyReport(*map(float, row))


class TauSet(NamedTuple):
    """Vacuum probabilities per detector of a full measurement, or arrays of
    them along a sweep."""

    tau_0: float
    tau_1: float
    tau_plus: float
    tau_minus: float


def measurement_taus(source: PhotonDistribution, *, eta_0: float, eta_1: float,
                     eta_plus: float, eta_minus: float, misalignment: float = 0.0,
                     transmittance: float = 1.0) -> TauSet:
    """Vacuum probability at each detector for a source at the measurement input.

    Generation-basis photons split evenly between the two detectors, so each
    sees thinning t*eta/2.  Check-basis photons exit the "+" port except for a
    per-photon misalignment probability that routes them to "-".
    """
    _check_unit("misalignment", misalignment)
    _check_unit("transmittance", transmittance)
    t = transmittance
    return TauSet(
        tau_0=vacuum_probability(source, 0.5 * t * eta_0)[0],
        tau_1=vacuum_probability(source, 0.5 * t * eta_1)[0],
        tau_plus=vacuum_probability(source, t * eta_plus * (1.0 - misalignment))[0],
        tau_minus=vacuum_probability(source, t * eta_minus * misalignment)[0],
    )


def make_entropy_report(z_arm: ArmState, x_arm: ArmState) -> EntropyReport:
    """Assemble the full report from generation- and check-arm states."""
    q_single, q_double = click_probabilities(z_arm.p_a, z_arm.p_b)
    eq = x_basis_error(p_plus=x_arm.p_a, p_minus=x_arm.p_b)
    hz = _hmin_z_from_pairs(z_arm.p1_a, z_arm.p0_a, z_arm.p1_b, z_arm.p0_b)
    return EntropyReport(
        hmin_z=hz,
        hmin_a=hmin_a(hz, q_single, q_double, eq),
        q_single=q_single,
        q_double=q_double,
        eq=eq,
        k=expectation_k(z_arm.p_a, z_arm.p_b),
    )


def entropy_report_from_taus(det_0: DetectorParams, tau_0: float,
                             det_1: DetectorParams, tau_1: float,
                             det_plus: DetectorParams, tau_plus: float,
                             det_minus: DetectorParams, tau_minus: float) -> EntropyReport:
    """Report for explicit per-detector vacuum probabilities."""
    z_arm = ArmState.from_detectors(det_0, tau_0, det_1, tau_1)
    x_arm = ArmState.from_detectors(det_plus, tau_plus, det_minus, tau_minus)
    return make_entropy_report(z_arm, x_arm)
