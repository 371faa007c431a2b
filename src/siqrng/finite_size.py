"""Finite-size rate bounds, composable security and certified final rates.

Two routes bound the check-basis error deviation theta: inverting the
random-sampling tail bound by bisection, or the closed-form entropy
inequality.  The certified rate additionally minimizes over the Hoeffding
confidence box of the monitored vacuum probabilities, and the composable
failure probability combines the error-estimation, distribution-estimation
and extraction budgets.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .detector_model import AfterpulseSpec, DetectorParams, detector_set
from .entropy_engine import (
    _LN2,
    ArmState,
    EntropyReport,
    TauSet,
    binary_entropy,
    entropy_report_from_taus,
    make_entropy_report,
    measurement_taus,
    x_basis_error,
)
from .errors import BudgetError, InfeasibleError, ParameterError
from .source_monitor import (
    PhotonDistribution,
    clipped_interval,
    hoeffding_delta,
    monitor_attenuation,
    poisson_distribution,
)

# Defaults reproducing the reference operating point (10^10 pulses, 2% check
# sampling, 2^-50 budgets, 100-bit extraction exponent).
DEFAULT_TOTAL_PULSES = 1e10
DEFAULT_X_FRACTION = 0.02
DEFAULT_EPS_TERM = 2.0**-50
DEFAULT_T_E = 100
DEFAULT_MISALIGNMENT = 0.02
DEFAULT_Z_RATE = 1e6
DEFAULT_ETA_BS = 0.5
# Monitor photodiode efficiency: not part of the published operating point;
# 0.65 places the rate peak near 1.5 dB of variable attenuation.
DEFAULT_ETA_DET = 0.65
DEFAULT_LOSS_MAX_DB = 2.5

_THETA_FLOOR = 1e-15
_NEWTON_STEPS = 8


@dataclass(frozen=True)
class SecurityParams:
    """Failure-probability budgets and sampling layout of one run."""

    total_pulses: float = DEFAULT_TOTAL_PULSES
    x_fraction: float = DEFAULT_X_FRACTION
    eps_all: float = 2.0 * DEFAULT_EPS_TERM
    eps_d: float = DEFAULT_EPS_TERM
    eps_e: float = DEFAULT_EPS_TERM
    t_e: int = DEFAULT_T_E
    misalignment: float = DEFAULT_MISALIGNMENT
    z_rate: float = DEFAULT_Z_RATE    # pulses/s measured in the generation basis; informational
    n_z: float = field(init=False)
    n_x: float = field(init=False)

    def __post_init__(self):
        if self.total_pulses < 1:
            raise ParameterError(f"total_pulses must be >= 1, got {self.total_pulses}")
        if not (0.0 < self.x_fraction < 1.0):
            raise ParameterError(f"x_fraction must lie in (0, 1), got {self.x_fraction}")
        for name in ("eps_all", "eps_d", "eps_e"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ParameterError(f"{name} must lie in (0, 1), got {v}")
        if self.t_e < 1:
            raise ParameterError(f"t_e must be >= 1, got {self.t_e}")
        if not (0.0 <= self.misalignment <= 1.0):
            raise ParameterError(f"misalignment must lie in [0, 1], got {self.misalignment}")
        object.__setattr__(self, "n_x", self.x_fraction * self.total_pulses)
        object.__setattr__(self, "n_z", self.total_pulses - self.n_x)


# ---------------------------------------------------------------------------
# Deviation bounds


def _bernoulli_kl_bits(x: float, y: float) -> float:
    """Relative entropy D(x||y) of Bernoulli parameters, in bits."""
    if x == y:
        return 0.0
    acc = 0.0
    if x > 0.0:
        acc += x * math.log1p((x - y) / y)
    if x < 1.0:
        acc += (1.0 - x) * math.log1p((y - x) / (1.0 - y))
    return acc / math.log(2.0)


def _zeta_exponent(eq: float, q_x: float, theta: float) -> float:
    """h(EQ + (1-q_x)theta) - q_x h(EQ) - (1-q_x) h(EQ+theta), in bits.

    Evaluated as the cancellation-free mixture of relative entropies
    q_x D(EQ || m) + (1-q_x) D(EQ+theta || m) around m = EQ + (1-q_x) theta,
    which is the same quantity exactly.  Callers keep EQ + theta <= 1.
    """
    mixed = eq + (1.0 - q_x) * theta
    tested = eq + theta
    return (q_x * _bernoulli_kl_bits(eq, mixed)
            + (1.0 - q_x) * _bernoulli_kl_bits(tested, mixed))


def random_sampling_epsilon(eq: float, q_x: float, n_total: float, theta: float) -> float:
    """Failure probability bound of the random-sampling deviation ``theta``.

    (q_x(1-q_x) EQ(1-EQ) N)^(-1/2) * 2^(-n_x zeta(theta)) with n_x = q_x N.
    """
    if not (0.0 < eq < 0.5):
        raise ParameterError(f"EQ must lie in (0, 0.5), got {eq}")
    if not (0.0 < q_x < 1.0):
        raise ParameterError(f"q_x must lie in (0, 1), got {q_x}")
    if n_total < 1:
        raise ParameterError(f"N must be >= 1, got {n_total}")
    if theta < 0.0:
        raise ParameterError(f"theta must be >= 0, got {theta}")
    # With EQ + theta <= 1 and theta > 0, the mixture point EQ + (1-q_x) theta
    # of the relative entropies stays below 1.
    if eq + theta > 1.0:
        raise ParameterError(f"theta must keep EQ + theta <= 1, got theta={theta} "
                             f"with EQ={eq}")
    log2_eps = (-0.5 * math.log2(q_x * (1.0 - q_x) * eq * (1.0 - eq) * n_total)
                - q_x * n_total * _zeta_exponent(eq, q_x, theta))
    return 2.0**log2_eps


def _zeta_slope(eq: float, q_x: float, theta: float) -> float:
    """d zeta / d theta = (1-q_x)/ln 2 * ln(1 + q_x theta / (m (1-EQ-theta))),
    m = EQ + (1-q_x) theta; see :func:`theta_random_sampling`."""
    mixed = eq + (1.0 - q_x) * theta
    return (1.0 - q_x) * math.log1p(q_x * theta / (mixed * (1.0 - eq - theta))) / _LN2


def _excess_error_bound(eq: float, q_x: float, n_x: float, offset: float,
                        theta: float, value: float) -> float:
    """The bound g(theta) of :func:`theta_random_sampling` on the float error
    of excess(theta) = ``value``; ``offset`` is |log2_pref| + |log2_target|.

    Z is replaced by its bound |log2_pref| + |log2_target| + |excess|.
    """
    tested = eq + theta
    mixed = eq + (1.0 - q_x) * theta
    return 2.0**-48 * (1.0 + 2.0 * offset + abs(value)
                       + n_x * (8.0 * q_x * theta + tested * _zeta_slope(eq, q_x, theta)
                                + 2.0**-44 * tested * tested / mixed))


def theta_random_sampling(eq: float, q_x: float, n_total: float, eps_e: float) -> float:
    """Smallest deviation theta whose random-sampling bound is at most eps_e.

    Bisection of excess(theta) = log2_pref - n_x zeta(theta) - log2(eps_e)
    over [_THETA_FLOOR, 0.5 - EQ - _THETA_FLOOR]; raises
    :class:`InfeasibleError` when even the largest admissible theta cannot
    reach the target (the rate is then 0).  The result is the float that a
    plain bisection returns: same bracket, midpoints, stopping rule and end
    checks.  Only midpoints whose sign is not certified in advance evaluate
    ``excess``.

    Monotonicity.  With t = EQ + theta, m = EQ + (1-q_x) theta and
    h'(x) = log2((1-x)/x),

        zeta'  = (1-q_x) (h'(m) - h'(t)) = (1-q_x)/ln2 ln(1 + q_x theta/(m(1-t))),
        zeta'' = (1-q_x)/ln2 (1/(t(1-t)) - (1-q_x)/(m(1-m))).

    zeta' > 0 for theta > 0, since m < t and h' is strictly decreasing.
    zeta'' > 0, since x(1-x) is concave: m(1-m) >= q_x EQ(1-EQ)
    + (1-q_x) t(1-t) > (1-q_x) t(1-t).  So zeta is increasing and convex,
    the exact excess E(theta) is strictly decreasing, and
    t zeta'' <= 2/ln2 < 3 because t <= 1/2 on the bracket.

    Error bound.  E is the exact value for the float inputs: P = log2_pref,
    T = log2(eps_e), n_x = q_x N and Z = n_x zeta(theta) are all unrounded.
    Let u = 2^-53 and assume log1p, log and log2 are faithful (1 ulp).  To
    first order in u, the float ``excess`` obeys |excess - E| <= B, where

        B = u [5 + 3|P| + 2|T| + 4 Z + n_x (80 q_x theta + 2 t zeta')].

    The terms come from these sources:
      * zeta is a mixture of relative entropies
        D(x||y) = x ln(x/y) + (1-x) ln((1-x)/(1-y)), and each one is a sum of
        two terms of opposite sign.  The float error of a term is at most
        u (3|term| + 3|x-y|).  The four term magnitudes, weighted by q_x and
        1-q_x, add up to at most 5 q_x theta nats, and
        q_x |EQ-m| + (1-q_x) |t-m| = 2 q_x (1-q_x) theta.
      * Rounding t = EQ + theta moves theta by at most u t, which costs
        at most u t Z'.
      * Rounding m off the exact mixture point adds D(mix||m), at most
        35 u^2 t^2/m bits.
      * The products, the sums, P and T add the remaining terms.
    The stated bound is

        g(theta) = 2^-48 [1 + |P| + |T| + Z + n_x (8 q_x theta + t zeta'
                          + 2^-44 t^2/m)]  >=  3 B.

    The slack covers the O(u^2) terms and the rounding of g itself
    (:func:`_excess_error_bound`).  Every theta-dependent term of B grows
    with theta, so E - B is decreasing.  The derivative of those terms of g
    is at most 2^-48 n_x (2 zeta' + 8 q_x + 3 + 2^-43/(1-q_x)).  Since
    zeta' increases, E + B is decreasing on [b, 1/2 - EQ] whenever
    zeta'(b) >= 2^-47 (8 q_x + 3 + 2^-43/(1-q_x)).

    Certified window.  Newton's method runs on the analytic zeta', starting
    at the Gaussian estimate theta_0 = sqrt(2 ln2 L EQ(1-EQ) / (n_x q_x (1-q_x))),
    where L = P - T.  It gives a root estimate with a window a < b around it.
    The window needs excess(a) > 2 g(a), excess(b) < -2 g(b) and the slope
    condition at b.  For any theta <= a:
    excess(theta) >= E(theta) - B(theta) >= E(a) - B(a) >= excess(a) - 2 B(a) > 0.
    Symmetrically, excess(theta) < 0 for any theta >= b.  So the bisection
    sets lo at a midpoint <= a, and hi at a midpoint >= b, without
    evaluating it.  A side that fails its check falls back to its bracket
    end, and the same loop then evaluates every midpoint on that side.
    """
    if not (0.0 < eq < 0.5):
        raise ParameterError(f"EQ must lie in (0, 0.5), got {eq}")
    if not (0.0 < q_x < 1.0):
        raise ParameterError(f"q_x must lie in (0, 1), got {q_x}")
    if n_total < 1:
        raise ParameterError(f"N must be >= 1, got {n_total}")
    if not (0.0 < eps_e < 1.0):
        raise ParameterError(f"eps_e must lie in (0, 1), got {eps_e}")
    n_x = q_x * n_total
    log2_pref = -0.5 * math.log2(q_x * (1.0 - q_x) * eq * (1.0 - eq) * n_total)
    log2_target = math.log2(eps_e)
    offset = abs(log2_pref) + abs(log2_target)

    def excess(theta: float) -> float:
        return log2_pref - n_x * _zeta_exponent(eq, q_x, theta) - log2_target

    def bound(theta: float, value: float) -> float:
        return _excess_error_bound(eq, q_x, n_x, offset, theta, value)

    hi = 0.5 - eq - _THETA_FLOOR
    if hi <= _THETA_FLOOR:
        raise InfeasibleError(f"no admissible theta below 0.5 - EQ for EQ = {eq}")
    if excess(hi) > 0.0:
        raise InfeasibleError(
            f"no theta <= {hi:.6g} reaches eps_e = {eps_e:.3e} "
            f"(EQ={eq:.3e}, q_x={q_x}, N={n_total:.3e})"
        )
    lo = _THETA_FLOOR
    if excess(lo) <= 0.0:
        return lo

    theta = min(math.sqrt(2.0 * _LN2 * (log2_pref - log2_target) * eq * (1.0 - eq)
                          / (n_x * q_x * (1.0 - q_x))), hi)
    # Newton's error after a step s is about s^2 / theta, so a step below
    # 2^-26 theta leaves the estimate within a few ulps of the root.
    for _ in range(_NEWTON_STEPS):
        step = excess(theta) / (n_x * _zeta_slope(eq, q_x, theta))
        theta = min(max(theta + step, lo), hi)
        if abs(step) <= 2.0**-26 * theta:
            break
    # A half-width of 4 g / slope puts |excess| near 4 g at the window ends,
    # twice the margin the checks need.
    width = (4.0 * bound(theta, 0.0) / (n_x * _zeta_slope(eq, q_x, theta))
             + 4.0 * step * step / theta)
    a, b = theta - width, theta + width
    if not (lo < a and (value := excess(a)) > 2.0 * bound(a, value)):
        a = lo
    # Past b, the slope condition of the docstring keeps E + B decreasing.
    if not (b < hi
            and _zeta_slope(eq, q_x, b) >= 2.0**-47 * (8.0 * q_x + 3.0
                                                        + 2.0**-43 / (1.0 - q_x))
            and (value := excess(b)) < -2.0 * bound(b, value)):
        b = hi

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        elif excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def theta_entropy_inequality(n_z: float, n_x: float, eps_e: float) -> float:
    """Closed-form deviation sqrt((n_z+n_x)/(n_z n_x) (n_x+1)/n_x ln(2/eps_e)).

    For this route the error budget is the full security parameter, since no
    error correction consumes any of it.
    """
    if n_z < 1 or n_x < 1:
        raise ParameterError(f"basis counts must be >= 1, got n_z={n_z}, n_x={n_x}")
    if not (0.0 < eps_e < 1.0):
        raise ParameterError(f"eps_e must lie in (0, 1), got {eps_e}")
    return math.sqrt(
        (n_z + n_x) / (n_z * n_x) * (n_x + 1.0) / n_x * math.log(2.0 / eps_e)
    )


# ---------------------------------------------------------------------------
# Rates


def _bracket(report: EntropyReport, theta: float) -> float:
    """Per-pulse certified bits before any subtraction.

    (hmin_z Q_single + Q_double)(1 - h(min(EQ+theta, 1/2))) - Q_double.
    """
    x = min(report.eq + theta, 0.5)
    return ((report.hmin_z * report.q_single + report.q_double)
            * (1.0 - binary_entropy(x)) - report.q_double)


def rate_random_sampling(n_z: float, report: EntropyReport, theta: float,
                         t_e: float) -> float:
    """Final random bits n_z * bracket - t_e, clamped at 0."""
    return max(0.0, n_z * _bracket(report, theta) - t_e)


def rate_entropy_inequality(n_z: float, report: EntropyReport, theta: float,
                            eps_all: float) -> float:
    """Final random bits n_z * bracket - 2 log2(1/eps_all), clamped at 0."""
    if not (0.0 < eps_all <= 1.0):
        raise ParameterError(f"eps_all must lie in (0, 1], got {eps_all}")
    return max(0.0, n_z * _bracket(report, theta) - 2.0 * math.log2(1.0 / eps_all))


def rate_infinite_length(n_z: float, report: EntropyReport) -> float:
    """Asymptotic bits n_z * bracket(theta=0) with no subtraction, clamped at 0."""
    return max(0.0, n_z * _bracket(report, 0.0))


def composable_epsilon(eps_d: float, eps_e: float, t_e: float) -> float:
    """Composable security parameter sqrt(s(2-s)), s = eps_d + eps_e + 2^-t_e."""
    for name, v in (("eps_d", eps_d), ("eps_e", eps_e)):
        if v < 0.0:
            raise ParameterError(f"{name} must be >= 0, got {v}")
    s = eps_d + eps_e + 2.0**-t_e
    if s > 1.0:
        raise BudgetError(f"failure budget eps_d + eps_e + 2^-t_e = {s} exceeds 1")
    return math.sqrt(s * (2.0 - s))


# ---------------------------------------------------------------------------
# Minimization over monitored vacuum-probability boxes


def _worst_eq_arm(det_plus: DetectorParams, tau_plus_iv: Tuple[float, float],
                  det_minus: DetectorParams, tau_minus_iv: Tuple[float, float]) -> ArmState:
    # EQ grows when the "-" detector sees fewer vacua and the "+" detector more.
    return ArmState.from_detectors(det_plus, tau_plus_iv[1], det_minus, tau_minus_iv[0])


def _min_bracket_over_taus(det_0: DetectorParams, tau_0_iv: Tuple[float, float],
                           det_1: DetectorParams, tau_1_iv: Tuple[float, float],
                           x_arm: ArmState, theta: float,
                           grid_points: int = 64) -> float:
    """Minimum bracket over the (tau_0, tau_1) box with a fixed check arm.

    Endpoints dominate in every regime tested; the grid guards non-monotone
    corners.  The whole grid is one broadcast call through the entropy chain.
    """
    if grid_points < 2:
        raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
    z_arm = ArmState.from_detectors(det_0, np.linspace(*tau_0_iv, grid_points)[:, None],
                                    det_1, np.linspace(*tau_1_iv, grid_points)[None, :])
    return float(np.min(_bracket(make_entropy_report(z_arm, x_arm), theta)))


def hmin_with_tau_uncertainty(det_0: DetectorParams, tau_0: float,
                              det_1: DetectorParams, tau_1: float,
                              det_plus: DetectorParams, tau_plus: float,
                              det_minus: DetectorParams, tau_minus: float,
                              delta: float, grid_points: int = 64) -> float:
    """Worst-case per-pulse min-entropy over the Hoeffding box of radius delta."""
    x_arm = _worst_eq_arm(det_plus, clipped_interval(tau_plus, delta),
                          det_minus, clipped_interval(tau_minus, delta))
    return _min_bracket_over_taus(det_0, clipped_interval(tau_0, delta),
                                  det_1, clipped_interval(tau_1, delta),
                                  x_arm, 0.0, grid_points)


@dataclass(frozen=True)
class RateReport:
    """Certified random-sampling output of one parameter point."""

    theta: float
    entropy: EntropyReport
    random_bits: float
    final_bits: float
    zeta: float
    n_z: float
    n_x: float
    total_pulses: float

    @property
    def per_pulse(self) -> float:
        return self.random_bits / self.total_pulses

    @property
    def final_per_pulse(self) -> float:
        return self.final_bits / self.total_pulses

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["entropy"] = self.entropy.to_dict()
        d["per_pulse"] = self.per_pulse
        d["final_per_pulse"] = self.final_per_pulse
        return d


def final_rate(security: SecurityParams,
               det_0: DetectorParams, tau_0: float,
               det_1: DetectorParams, tau_1: float,
               det_plus: DetectorParams, tau_plus: float,
               det_minus: DetectorParams, tau_minus: float,
               delta_d: float, grid_points: int = 64) -> RateReport:
    """Certified rate minimized over the monitored vacuum-probability box.

    The deviation theta comes from the random-sampling bound at the worst-case
    check-arm corner; the bracket is then minimized over the generation-arm
    box and t_e subtracted.  An infeasible theta, or a worst-case EQ outside
    (0, 1/2), yields zero bits with theta = nan, as in ``RateScenario.rates``.
    """
    if delta_d < 0.0:
        raise ParameterError(f"delta_d must be >= 0, got {delta_d}")
    x_arm = _worst_eq_arm(det_plus, clipped_interval(tau_plus, delta_d),
                          det_minus, clipped_interval(tau_minus, delta_d))
    point = entropy_report_from_taus(det_0, tau_0, det_1, tau_1,
                                     det_plus, tau_plus, det_minus, tau_minus)
    zeta = composable_epsilon(security.eps_d, security.eps_e, security.t_e)
    try:
        theta = theta_random_sampling(x_basis_error(x_arm.p_a, x_arm.p_b), security.x_fraction,
                                      security.total_pulses, security.eps_e)
    except (InfeasibleError, ParameterError):
        return RateReport(theta=math.nan, entropy=point,
                          random_bits=0.0, final_bits=0.0, zeta=zeta,
                          n_z=security.n_z, n_x=security.n_x,
                          total_pulses=security.total_pulses)
    random_bits = rate_random_sampling(security.n_z, point, theta, security.t_e)
    min_bracket = _min_bracket_over_taus(det_0, clipped_interval(tau_0, delta_d),
                                         det_1, clipped_interval(tau_1, delta_d),
                                         x_arm, theta, grid_points)
    final_bits = max(0.0, security.n_z * min_bracket - security.t_e)
    return RateReport(theta=theta, entropy=point,
                      random_bits=random_bits, final_bits=final_bits, zeta=zeta,
                      n_z=security.n_z, n_x=security.n_x,
                      total_pulses=security.total_pulses)


# ---------------------------------------------------------------------------
# The source -> monitor -> attenuator -> measurement chain of the rate curves


@dataclass(frozen=True)
class RateScenario:
    """Coherent source of mean ``nu`` behind the distribution monitor.

    The monitor splitter keeps ``eta_bs`` of the light and its balance
    attenuation (1-eta_bs)/eta_bs * eta_det follows, so the distribution
    entering the variable attenuator equals the monitored one.
    """

    det_0: DetectorParams
    det_1: DetectorParams
    det_plus: DetectorParams
    det_minus: DetectorParams
    security: SecurityParams = field(default_factory=SecurityParams)
    nu: float = 50.0
    eta_bs: float = DEFAULT_ETA_BS
    eta_det: float = DEFAULT_ETA_DET
    source: PhotonDistribution = None

    def __post_init__(self):
        if self.nu < 0.0:
            raise ParameterError(f"nu must be >= 0, got {self.nu}")
        if self.source is None:
            object.__setattr__(self, "source", poisson_distribution(self.nu))

    def transmittance(self, loss_db: float) -> float:
        """Fixed monitor chain times the variable attenuator 10^(-dB/10).

        A one-dimensional array of losses gives an array.  Each power is
        still Python's float power: NumPy's ``10.0 ** array`` differs from
        it in the last bit.
        """
        if np.ndim(loss_db):
            return np.array([self.transmittance(loss) for loss in np.ravel(loss_db).tolist()])
        if loss_db < 0.0:
            raise ParameterError(f"loss must be >= 0 dB, got {loss_db}")
        t0 = monitor_attenuation(self.eta_bs, self.eta_det)
        return self.eta_bs * t0 * 10.0 ** (-loss_db / 10.0)

    def taus(self, loss_db: float) -> TauSet:
        """Vacuum probability at each detector behind ``loss_db`` of attenuation;
        a one-dimensional array of losses gives a :class:`TauSet` of arrays."""
        return measurement_taus(
            self.source,
            eta_0=self.det_0.efficiency,
            eta_1=self.det_1.efficiency,
            eta_plus=self.det_plus.efficiency,
            eta_minus=self.det_minus.efficiency,
            misalignment=self.security.misalignment,
            transmittance=self.transmittance(loss_db),
        )

    def entropy(self, taus: TauSet) -> EntropyReport:
        """Report of the detectors at the vacuum probabilities ``taus``; a
        :class:`TauSet` of arrays gives one broadcast report."""
        return entropy_report_from_taus(self.det_0, taus.tau_0, self.det_1, taus.tau_1,
                                        self.det_plus, taus.tau_plus,
                                        self.det_minus, taus.tau_minus)

    def _random_sampling(self, report: EntropyReport) -> Tuple[float, float]:
        """(theta, bits) of the random-sampling bound; (nan, 0) when no theta
        is admissible."""
        sec = self.security
        try:
            theta = theta_random_sampling(report.eq, sec.x_fraction,
                                          sec.total_pulses, sec.eps_e)
            return theta, rate_random_sampling(sec.n_z, report, theta, sec.t_e)
        except (InfeasibleError, ParameterError):
            return math.nan, 0.0

    def rates(self, report: EntropyReport) -> Dict[str, float]:
        """Bit counts of all three bounding methods for the scalar report of
        one attenuation, as :meth:`entropy` gives it (or a cell of its
        broadcast report)."""
        sec = self.security
        _, r_rs = self._random_sampling(report)
        th_ei = theta_entropy_inequality(sec.n_z, sec.n_x, sec.eps_all)
        r_ei = rate_entropy_inequality(sec.n_z, report, th_ei, sec.eps_all)
        r_il = rate_infinite_length(sec.n_z, report)
        return {"random_sampling": r_rs, "entropy_inequality": r_ei,
                "infinite_length": r_il}

    def rate_report(self, loss_db: float,
                    monitor_samples: Optional[int] = None) -> RateReport:
        """Random-sampling report at one attenuation; a sample count adds the
        Hoeffding box."""
        sec = self.security
        t = self.taus(loss_db)
        if monitor_samples is not None:
            return final_rate(sec, self.det_0, t.tau_0, self.det_1, t.tau_1,
                              self.det_plus, t.tau_plus, self.det_minus, t.tau_minus,
                              hoeffding_delta(monitor_samples, sec.eps_d))
        report = self.entropy(t)
        theta, bits = self._random_sampling(report)
        return RateReport(theta=theta, entropy=report, random_bits=bits, final_bits=bits,
                          zeta=composable_epsilon(sec.eps_d, sec.eps_e, sec.t_e),
                          n_z=sec.n_z, n_x=sec.n_x, total_pulses=sec.total_pulses)


def scenario_from_params(params: dict) -> RateScenario:
    """Build a :class:`RateScenario` from flat sweep-specification keys."""
    known = {"N", "q_x", "eps_all", "eps_d", "eps_e", "t_e", "e_q", "v", "e_d",
             "eta", "eta_bs", "eta_det", "nu", "p_hat", "omega"}
    unknown = set(params) - known
    if unknown:
        raise ParameterError(f"unknown sweep parameters: {sorted(unknown)}")
    security = SecurityParams(
        total_pulses=float(params.get("N", DEFAULT_TOTAL_PULSES)),
        x_fraction=float(params.get("q_x", DEFAULT_X_FRACTION)),
        eps_all=float(params.get("eps_all", 2.0 * DEFAULT_EPS_TERM)),
        eps_d=float(params.get("eps_d", DEFAULT_EPS_TERM)),
        eps_e=float(params.get("eps_e", DEFAULT_EPS_TERM)),
        t_e=int(params.get("t_e", DEFAULT_T_E)),
        misalignment=float(params.get("e_q", DEFAULT_MISALIGNMENT)),
        z_rate=float(params.get("v", DEFAULT_Z_RATE)),
    )
    spec = AfterpulseSpec.exponential_from_rate(float(params.get("p_hat", 0.0)),
                                                float(params.get("omega", 0.001)))
    dets = detector_set(float(params.get("eta", 0.1)), float(params.get("e_d", 6e-7)),
                        spec)
    return RateScenario(
        *dets, security=security,
        nu=float(params.get("nu", 50.0)),
        eta_bs=float(params.get("eta_bs", DEFAULT_ETA_BS)),
        eta_det=float(params.get("eta_det", DEFAULT_ETA_DET)),
    )


def split_sweep_spec(spec: dict) -> Tuple[dict, dict]:
    """Split a sweep specification into (scenario params, from/to/points keys)."""
    unknown = set(spec) - {"sweep_var", "from", "to", "points", "params"}
    if unknown:
        raise ParameterError(f"unknown sweep specification keys: {sorted(unknown)}")
    var = spec.get("sweep_var", "voa_loss_db")
    if var != "voa_loss_db":
        raise ParameterError(f"unsupported sweep variable {var!r}")
    span = {key: spec[key] for key in ("from", "to", "points") if key in spec}
    return dict(spec.get("params", {})), span


def loss_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` attenuations evenly spaced from ``lo`` to ``hi`` dB."""
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ParameterError(f"sweep range is empty: from {lo} to {hi}")
    return np.linspace(lo, hi, points)

