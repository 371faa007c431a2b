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
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .detector_model import (AfterpulseSpec, DetectorParams, _amplitude_of, _cellwise,
                             _check_unit, _exponential_worst_total, afterpulse_prob_infinite,
                             response_prob, response_prob_no_afterpulse)
from .errors import DegenerateError, ParameterError
from .source_monitor import PhotonDistribution, vacuum_probability

_LN2 = math.log(2.0)


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


def worst_afterpulse_exponential(rates: np.ndarray, decay: float,
                                 depth: Optional[int] = None) -> np.ndarray:
    """:func:`worst_afterpulse` of ``AfterpulseSpec.exponential_from_rate(rate,
    decay, depth)`` at every rate of ``rates``, without a spec per rate.

    The caller validates the spec at the largest rate: every check of that
    constructor is monotone in the rate, so the one spec covers the array.
    """
    total = np.zeros(rates.shape)
    live = rates > 0.0    # a zero rate has no afterpulsing, whatever the decay
    if depth != 0 and live.any():
        total[live] = _exponential_worst_total(_amplitude_of(rates[live], decay), decay, depth)
    return np.minimum(total, 1.0)


def stationary_click_prob(det: DetectorParams, tau: float) -> float:
    """Steady-state response probability including afterpulsing; the prior
    response ratio is this detector's afterpulse-free response probability."""
    p_b = response_prob_no_afterpulse(tau, det.dark_rate)
    return response_prob(tau, det.dark_rate, worst_afterpulse(det.afterpulse) * p_b)


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
                       det_b: DetectorParams, tau_b: float) -> "ArmState":
        return cls.from_totals(
            tau_a, det_a.dark_rate, worst_afterpulse(det_a.afterpulse),
            tau_b, det_b.dark_rate, worst_afterpulse(det_b.afterpulse))

    @classmethod
    def from_totals(cls, tau_a: float, e_a: float, worst_a: float,
                    tau_b: float, e_b: float, worst_b: float) -> "ArmState":
        """Arm of detectors with vacuum probabilities ``tau_*``, dark-count
        probabilities ``e_*`` and clamped worst-case afterpulse totals
        ``worst_*`` (see :func:`worst_afterpulse`).  Arrays broadcast."""
        p0_a = response_prob_no_afterpulse(tau_a, e_a)
        p0_b = response_prob_no_afterpulse(tau_b, e_b)
        return cls(
            p_a=response_prob(tau_a, e_a, worst_a * p0_a),
            p_b=response_prob(tau_b, e_b, worst_b * p0_b),
            p1_a=response_prob(tau_a, e_a, worst_a),
            p0_a=p0_a,
            p1_b=response_prob(tau_b, e_b, worst_b),
            p0_b=p0_b,
        )


def _max_guess_ratio(p1_0: float, p0_0: float, p1_1: float, p0_1: float) -> float:
    """Largest single-click guessing probability of the worst-case pairs;
    hmin_z is its -log2.  Arrays broadcast.

    The pair (pm, pn) guesses with probability x / q, where x = pm (1 - pn),
    y = pn (1 - pm) and q = x + y.  The pair (pn, pm) has x and y swapped and
    the same rounded q, and rounded division by q > 0 is monotone, so
    max(x, y) / q is the greater of the two pairs' float ratios.
    """
    best = 0.0
    for pm, pn in ((p1_0, p0_1), (p1_1, p0_0)):
        x = pm * (1.0 - pn)
        y = pn * (1.0 - pm)
        q = x + y
        cells = type(q) is not float and isinstance(q, np.ndarray)
        if (not q.all()) if cells else q == 0.0:
            raise DegenerateError("single-click probability vanishes in the worst case")
        best = np.maximum(best, np.maximum(x, y) / q) if cells else max(best, max(x, y) / q)
    return best


def _hmin_z_from_pairs(p1_0: float, p0_0: float, p1_1: float, p0_1: float) -> float:
    return -_cellwise(math.log2, _max_guess_ratio(p1_0, p0_0, p1_1, p0_1))


def _bracket_of(hmin_z: float, q_single: float, q_double: float, eq: float,
                theta: float) -> float:
    """Per-pulse certified bits at the deviation ``theta``, before any
    subtraction: (hmin_z Q_single + Q_double)(1 - h(min(EQ+theta, 1/2))) - Q_double.

    Every argument broadcasts.  The caller checked EQ and theta is >= 0, so
    a float argument of h lies in [0, 1/2] and goes to the unchecked kernel.
    """
    x = eq + theta
    h = _binary_entropy(min(x, 0.5)) if type(x) is float else binary_entropy(np.minimum(x, 0.5))
    return (hmin_z * q_single + q_double) * (1.0 - h) - q_double


def hmin_a(hmin_z: float, q_single: float, q_double: float, eq: float) -> float:
    """Min-entropy per generation-basis pulse, :func:`_bracket_of` at theta = 0:
    [hmin_z * Q_single + Q_double] * [1 - h(min(EQ, 1/2))] - Q_double.  May be
    negative; rate formulas clamp at zero, this function reports the raw value.
    """
    _check_unit("eq", eq)
    return _bracket_of(hmin_z, q_single, q_double, eq, 0.0)


def lagged_response_probs(det: DetectorParams, tau: float, lag: int) -> Tuple[float, float]:
    """Response probabilities (fired, not fired) conditioned on the window
    ``lag`` slots earlier.

    The stationary afterpulse background keeps its mean except that the lag
    coefficient's contribution is resolved to 1 (fired) or 0 (not fired),
    with p_b the detector's afterpulse-free response probability:

        P_fired     = p_hat/(1-p_hat)*p_b + p_hat_lag * (1 - p_b)
        P_not_fired = p_hat/(1-p_hat)*p_b - p_hat_lag * p_b

    A negative not-fired correction is clamped at 0 with a warning.  Either
    probability above 1 means p_hat is too large and raises
    :class:`ParameterError`, which names p_hat, the lag and the probability.
    """
    p_b = response_prob_no_afterpulse(tau, det.dark_rate)
    spec = det.afterpulse
    background = afterpulse_prob_infinite(spec.first_order_rate, p_b)
    coeff = spec.coefficient(lag)
    p_ap_fired = background + coeff * (1.0 - p_b)
    p_ap_not = background - coeff * p_b
    if p_ap_not < 0.0:
        warnings.warn(
            f"lag-{lag} correction drives the afterpulse probability negative "
            f"({p_ap_not:.3e}); clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        p_ap_not = 0.0
    for branch, p_ap in (("not-fired", p_ap_not), ("fired", p_ap_fired)):
        if p_ap > 1.0:
            raise ParameterError(
                f"afterpulse rate p_hat = {spec.first_order_rate!r} is too large: the "
                f"lag-{lag} {branch} afterpulse probability is {p_ap!r} > 1")
    return (response_prob(tau, det.dark_rate, p_ap_fired),
            response_prob(tau, det.dark_rate, p_ap_not))


def prior_autocorrelation(det_0: DetectorParams, tau_0: float,
                          det_1: DetectorParams, tau_1: float, lag: int) -> float:
    """Predicted lag-``lag`` autocorrelation of the raw bit sequence.

    a_i = [p1^i1 (1-p0^i0) - p1^i0 (1-p0^i1)] (1-k)
        + [p0^i0 (1-p1^i1) - p0^i1 (1-p1^i0)] (-k)

    where the superscripts resolve whether the window ``lag`` earlier fired.
    For identical detectors this reduces to tau*(1-e_d)*p_hat_lag, linear in
    the lag coefficient; distinct detectors make it quadratic.
    """
    p0_f, p0_n = lagged_response_probs(det_0, tau_0, lag)
    p1_f, p1_n = lagged_response_probs(det_1, tau_1, lag)
    k = expectation_k(stationary_click_prob(det_0, tau_0),
                      stationary_click_prob(det_1, tau_1))
    term_one = (p1_f * (1.0 - p0_n) - p1_n * (1.0 - p0_f)) * (1.0 - k)
    term_zero = (p0_n * (1.0 - p1_f) - p0_f * (1.0 - p1_n)) * (-k)
    return term_one + term_zero


def empirical_autocorrelation(bits, lag: int, mask=None) -> float:
    """Lag-``lag`` autocorrelation coefficient of a bit sequence.

    sum (x_j - xbar)(x_{j+lag} - xbar) / sum (x_j - xbar)^2 over the entries
    that ``mask`` marks valid (all of them without a mask, e.g. the
    single-click windows with one): pairs contribute only where both entries
    are valid and the denominator runs over every valid entry, so the
    estimate converges to the per-window prediction above.
    """
    x = np.asarray(bits, dtype=float)
    if x.ndim != 1:
        raise ParameterError("bit sequence must be one-dimensional")
    if lag < 1:
        raise ParameterError(f"lag must be >= 1, got {lag}")
    m = np.ones(x.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
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
    """Null standard error of the masked estimator: sqrt(N_pairs)/N_valid, for a
    ``mask`` that :func:`empirical_autocorrelation` took, so N_valid >= 1."""
    m = np.asarray(mask, dtype=bool)
    n_valid = int(m.sum())
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

    def __post_init__(self):
        for name in ("hmin_z", "q_single", "q_double", "eq"):
            _check_unit(name, getattr(self, name))
        total = self.q_single + self.q_double
        if (total if type(total) is float else np.max(total)) > 1.0 + 1e-12:
            raise ParameterError("Q_single + Q_double exceeds 1")

    def cells(self) -> Iterator["EntropyReport"]:
        """The scalar report of each cell of a one-dimensional broadcast
        report, in order, one at a time.

        The range and total checks of this report covered every cell, so the
        cells are not checked again.
        """
        names = [f.name for f in dataclasses.fields(self)]
        columns = np.broadcast_arrays(*(getattr(self, name) for name in names))
        for row in zip(*columns):
            cell = object.__new__(EntropyReport)
            cell.__dict__.update(zip(names, map(float, row)))
            yield cell


class TauSet(NamedTuple):
    """Vacuum probabilities per detector of a full measurement, or arrays of
    them along a sweep."""

    tau_0: float
    tau_1: float
    tau_plus: float
    tau_minus: float


def measurement_taus(source: PhotonDistribution, dets: Sequence[DetectorParams],
                     misalignment: float = 0.0, transmittance: float = 1.0) -> TauSet:
    """Vacuum probability at each detector of ``dets`` ("0", "1", "+", "-",
    in :func:`detector_set` order) for a source at the measurement input.

    Generation-basis photons split evenly between the two detectors, so each
    sees thinning t*eta/2.  Check-basis photons exit the "+" port except for a
    per-photon misalignment probability that routes them to "-".

    The four thinnings go to one :func:`vacuum_probability` call, which
    evaluates a thinning shared by two detectors (eta_0 = eta_1) once.
    """
    _check_unit("misalignment", misalignment)
    _check_unit("transmittance", transmittance)
    eta_0, eta_1, eta_plus, eta_minus = (det.efficiency for det in dets)
    t = transmittance
    xis = [np.asarray(xi, dtype=float) for xi in (
        0.5 * t * eta_0, 0.5 * t * eta_1,
        t * eta_plus * (1.0 - misalignment), t * eta_minus * misalignment)]
    lo = vacuum_probability(source, np.concatenate([xi.ravel() for xi in xis]))
    cells = np.split(lo, np.cumsum([xi.size for xi in xis])[:-1])
    taus = [cell.reshape(xi.shape) for xi, cell in zip(xis, cells)]
    return TauSet(*(float(tau) if tau.ndim == 0 else tau for tau in taus))


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
    )


def entropy_report_from_taus(dets: Sequence[DetectorParams], taus: TauSet) -> EntropyReport:
    """Report of the detectors ``dets`` ("0", "1", "+", "-", in
    :func:`detector_set` order) at the vacuum probabilities ``taus`` of the
    same detectors; a :class:`TauSet` of arrays gives one broadcast report."""
    det_0, det_1, det_plus, det_minus = dets
    z_arm = ArmState.from_detectors(det_0, taus.tau_0, det_1, taus.tau_1)
    x_arm = ArmState.from_detectors(det_plus, taus.tau_plus, det_minus, taus.tau_minus)
    return make_entropy_report(z_arm, x_arm)
