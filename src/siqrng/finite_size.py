"""Finite-size rate bounds and certified final rates.

Two routes bound the check-basis error deviation theta: inverting the
random-sampling tail bound by bisection, or the closed-form entropy
inequality.  The monitored rate additionally minimizes over the Hoeffding
confidence box of the monitored vacuum probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .detector_model import AfterpulseSpec, DetectorParams, _check_unit, detector_set
from .entropy_engine import (
    _LN2,
    ArmState,
    EntropyReport,
    TauSet,
    _bracket_of,
    _cellwise,
    _max_guess_ratio,
    click_probabilities,
    entropy_report_from_taus,
    measurement_taus,
    x_basis_error,
)
from .errors import InfeasibleError, ParameterError
from .source_monitor import (
    PhotonDistribution,
    clipped_interval,
    monitor_attenuation,
    poisson_distribution,
)

# The flat keys of :func:`scenario_from_params` at the reference operating
# point: 10^10 pulses, 2% check sampling, 2^-50 budgets and a 100-bit
# extraction exponent.  The monitor photodiode efficiency eta_det is not part
# of the published operating point; 0.65 places the rate peak near 1.5 dB of
# variable attenuation.
SCENARIO_DEFAULTS = {
    "nu": 50.0, "eta": 0.1, "e_d": 6e-7, "e_q": 0.02, "N": 1e10, "q_x": 0.02,
    "eps_all": 2.0 * 2.0**-50, "eps_d": 2.0**-50, "eps_e": 2.0**-50, "t_e": 100,
    "eta_bs": 0.5, "eta_det": 0.65, "p_hat": 0.0, "omega": 0.001,
}

_THETA_FLOOR = 1e-15
_NEWTON_STEPS = 8
_BISECTION_STEPS = 200


@dataclass(frozen=True)
class SecurityParams:
    """Failure-probability budgets and sampling layout of one run."""

    total_pulses: float = SCENARIO_DEFAULTS["N"]
    x_fraction: float = SCENARIO_DEFAULTS["q_x"]
    eps_all: float = SCENARIO_DEFAULTS["eps_all"]
    eps_d: float = SCENARIO_DEFAULTS["eps_d"]
    eps_e: float = SCENARIO_DEFAULTS["eps_e"]
    t_e: int = SCENARIO_DEFAULTS["t_e"]
    misalignment: float = SCENARIO_DEFAULTS["e_q"]
    n_z: float = field(init=False)
    n_x: float = field(init=False)

    def __post_init__(self):
        # Written as not (x >= ...) so that NaN fails every range check.
        if not (self.total_pulses >= 1):
            raise ParameterError(f"total_pulses must be >= 1, got {self.total_pulses}")
        if not (0.0 < self.x_fraction < 1.0):
            raise ParameterError(f"x_fraction must lie in (0, 1), got {self.x_fraction}")
        for name in ("eps_all", "eps_d", "eps_e"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ParameterError(f"{name} must lie in (0, 1), got {v}")
        if not (self.t_e >= 1):
            raise ParameterError(f"t_e must be >= 1, got {self.t_e}")
        if not (0.0 <= self.misalignment <= 1.0):
            raise ParameterError(f"misalignment must lie in [0, 1], got {self.misalignment}")
        n_x = self.x_fraction * self.total_pulses
        n_z = self.total_pulses - n_x
        # Both bases need a pulse: the entropy-inequality theta divides by each.
        if not (n_x >= 1 and n_z >= 1):
            raise ParameterError(
                f"N = {self.total_pulses:.6g} and q_x = {self.x_fraction:.6g} leave "
                f"n_x = {n_x:.6g} and n_z = {n_z:.6g} pulses; both must be >= 1")
        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_z", n_z)


# ---------------------------------------------------------------------------
# Deviation bounds


def _zeta_exponent(eq: float, q_x: float, theta: float) -> float:
    """h(EQ + (1-q_x)theta) - q_x h(EQ) - (1-q_x) h(EQ+theta), in bits.

    Evaluated as the cancellation-free mixture of relative entropies
    q_x D(EQ || m) + (1-q_x) D(EQ+theta || m) around m = EQ + (1-q_x) theta,
    which is the same quantity exactly, with
    D(x || m) = x ln(1 + (x-m)/m) + (1-x) ln(1 + (m-x)/(1-m)) nats.  Its one
    caller, :func:`theta_random_sampling`, keeps theta on its bracket
    [_THETA_FLOOR, 1/2 - EQ - _THETA_FLOOR] with 0 < EQ, so t = EQ + theta
    < 1/2 and 1 - m > 1/2: no branch is needed for m or t near 1.  There
    (m-t)/(1-m) = -q_x theta/((1-t) + q_x theta) lies in (-1/2, 0], far from
    log1p's pole at -1, and an x that rounds to m gives log1p(0) = 0 terms.
    (EQ-m)/m rounds to -1 where EQ is below about an ulp of m; that term is
    then taken as EQ ln(EQ/m).
    """
    p_x = 1.0 - q_x
    mixed = eq + p_x * theta
    tested = eq + theta
    mixed_comp = 1.0 - mixed
    ratio = (eq - mixed) / mixed
    d_eq = (eq * (math.log(eq / mixed) if ratio == -1.0 else math.log1p(ratio))
            + (1.0 - eq) * math.log1p((mixed - eq) / mixed_comp))
    d_tested = (tested * math.log1p((tested - mixed) / mixed)
                + (1.0 - tested) * math.log1p((mixed - tested) / mixed_comp))
    return q_x * (d_eq / _LN2) + p_x * (d_tested / _LN2)


def _log2_prefactor(eq: float, q_x: float, n_total: float) -> float:
    """log2 of the prefactor (q_x(1-q_x) EQ(1-EQ) N)^(-1/2) of the
    random-sampling bound."""
    product = q_x * (1.0 - q_x) * eq * (1.0 - eq) * n_total
    if not (product > 0.0):
        raise ParameterError(f"q_x(1-q_x) EQ(1-EQ) N underflows to {product} "
                             f"(EQ={eq}, q_x={q_x}, N={n_total})")
    return -0.5 * math.log2(product)


def _zeta_slope(eq: np.ndarray, q_x: float, theta: np.ndarray, log1p) -> np.ndarray:
    """d zeta / d theta = (1-q_x)/ln 2 * ln(1 + q_x theta / (m (1-EQ-theta))),
    m = EQ + (1-q_x) theta, at each cell, with the given array ``log1p``; see
    :func:`theta_random_sampling`."""
    mixed = eq + (1.0 - q_x) * theta
    return (1.0 - q_x) * log1p(q_x * theta / (mixed * (1.0 - eq - theta))) / _LN2


def _excess_error_bound(eq: float, q_x: float, n_x: float, offset: float,
                        theta: float, slope: float, value: float) -> float:
    """The bound g(theta) of :func:`theta_random_sampling` on the float error
    of excess(theta) = ``value``; ``offset`` is |log2_pref| + |log2_target|
    and ``slope`` is :func:`_zeta_slope` at theta.

    Z is replaced by its bound |log2_pref| + |log2_target| + |excess|.
    Arrays give the bound of each cell.
    """
    tested = eq + theta
    mixed = eq + (1.0 - q_x) * theta
    return 2.0**-48 * (1.0 + 2.0 * offset + abs(value)
                       + n_x * (8.0 * q_x * theta + tested * slope
                                + 2.0**-44 * tested * tested / mixed))


def _zeta_estimates(eq: np.ndarray, q_x: float, theta: np.ndarray, log1p=np.log1p
                    ) -> np.ndarray:
    """zeta of :func:`_zeta_exponent`, the same formula on arrays with the
    given ``log1p``.

    With ``np.log1p`` (:func:`theta_windows`) it only steers Newton's
    estimate and a window that :func:`theta_starts` checks, so its rounding
    needs no bound.  With :func:`_log1p_cells` (:func:`theta_starts`) each
    cell is :func:`_zeta_exponent`'s float, as every other operation is a
    float64 ``+ - * /``, which NumPy rounds as Python does; it is NaN where
    a log1p argument rounds to -1, the pole at which that function branches.
    No other branch is needed: on the bracket m and t are at most 1/2, so
    1 - m is not 0 and t < 1.
    """
    p_x = 1.0 - q_x
    mixed = eq + p_x * theta
    tested = eq + theta
    mixed_comp = 1.0 - mixed
    d_eq = (eq * log1p((eq - mixed) / mixed)
            + (1.0 - eq) * log1p((mixed - eq) / mixed_comp))
    d_tested = (tested * log1p((tested - mixed) / mixed)
                + (1.0 - tested) * log1p((mixed - tested) / mixed_comp))
    return q_x * (d_eq / _LN2) + p_x * (d_tested / _LN2)


def _log1p_cells(x: np.ndarray) -> np.ndarray:
    """``math.log1p`` of each cell of ``x``; NaN where x <= -1 or is NaN."""
    return _cellwise(math.log1p, np.where(x > -1.0, x, np.nan))


def theta_windows(eq: np.ndarray, q_x: float, n_total: float, eps_e: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Arrays (a, b) of the window that :func:`theta_starts` checks, for
    every EQ of the array ``eq`` at once; NaN where there is no estimate.

    Newton's method runs on the analytic zeta' from the Gaussian estimate
    theta_0 = sqrt(2 ln2 L EQ(1-EQ) / (n_x q_x (1-q_x))), L = log2_pref -
    log2(eps_e), in NumPy (:func:`_zeta_estimates`).  The window is the
    estimate plus and minus 4 g / (n_x zeta') + 4 s^2 / theta, with g the
    bound of :func:`_excess_error_bound` and s the last step.  It never
    raises: a cell with EQ outside (0, 1/2 - 2 _THETA_FLOOR), L <= 0, or an
    n_x q_x(1-q_x) or n_x zeta' that underflows to 0 gets (NaN, NaN).
    """
    with np.errstate(all="ignore"):
        n_x = q_x * n_total
        lo, hi = _THETA_FLOOR, 0.5 - eq - _THETA_FLOOR
        log2_pref = -0.5 * np.log2(q_x * (1.0 - q_x) * eq * (1.0 - eq) * n_total)
        log2_target = math.log2(eps_e)
        gap = log2_pref - log2_target
        spread = n_x * q_x * (1.0 - q_x)
        theta = np.minimum(np.maximum(
            np.sqrt(2.0 * _LN2 * gap * eq * (1.0 - eq) / spread), lo), hi)
        # Newton's error after a step s is about s^2 / theta, so a step below
        # 2^-26 theta leaves the estimate within a few ulps of the root.
        for _ in range(_NEWTON_STEPS):
            slope = _zeta_slope(eq, q_x, theta, np.log1p)
            rise = n_x * slope
            step = (gap - n_x * _zeta_estimates(eq, q_x, theta)) / rise
            theta = np.minimum(np.maximum(theta + step, lo), hi)
            if not np.count_nonzero(np.abs(step) > 2.0**-26 * theta):
                break
        # A half-width of 4 g / slope puts |excess| near 4 g at the window
        # ends, twice the margin the checks need.  The slope is the last
        # step's, within 2^-26 relative of the one at the estimate.
        offset = np.abs(log2_pref) + abs(log2_target)
        width = (4.0 * _excess_error_bound(eq, q_x, n_x, offset, theta, slope, 0.0) / rise
                 + 4.0 * step * step / theta)
        known = (gap > 0.0) & (spread > 0.0) & (rise > 0.0) & (hi > lo)
        return np.where(known, theta - width, np.nan), np.where(known, theta + width, np.nan)


def theta_starts(eq: np.ndarray, q_x: float, n_total: float, eps_e: float,
                 a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The theta of :func:`theta_random_sampling`'s plain bisection at every
    cell of the one-dimensional ``eq``, ``a`` and ``b`` whose window (a, b)
    passes both checks below, all cells at once; NaN elsewhere.

    Certified window.  (a, b) is an estimate of an interval around the
    root, as :func:`theta_windows` gives it, so its rounding needs no bound.
    With E, B and g of :func:`theta_random_sampling`'s error bound, a passes
    its check if it lies inside the bracket and excess(a) > 2 g(a); b passes
    if it lies inside the bracket, excess(b) < -2 g(b) and zeta'(b) meets
    the slope floor.  E - B is decreasing, so for any theta <= a,
    excess(theta) >= E(theta) - B(theta) >= E(a) - B(a) >= excess(a) - 2 B(a) > 0.
    Symmetrically, the slope floor keeps E + B decreasing past b, so
    excess(theta) < 0 for any theta >= b.  So the bisection sets lo at a
    midpoint <= a, and hi at a midpoint >= b, without evaluating it, and
    reaches the plain bisection's float.  Nor do its end checks need an
    evaluation: the chain at a proves excess(_THETA_FLOOR) > 0, so the floor
    is not the answer, and the one at b proves excess(hi) < 0, so the point
    is feasible.  A cell whose window end is NaN, infinite, outside the
    bracket or fails its check gets NaN.

    It takes log2_pref from ``math.log2`` and zeta and zeta' with
    ``math.log1p`` per cell (:func:`_zeta_estimates`, :func:`_zeta_slope`).
    Every other step is a float64 ``+ - * /`` or comparison, which NumPy
    rounds as Python does, so each cell meets the scalar floats.  A log1p
    argument that rounds to -1 also gives NaN, and the scalar bisection
    decides that cell.
    """
    with np.errstate(all="ignore"):
        n_x = q_x * n_total
        product = q_x * (1.0 - q_x) * eq * (1.0 - eq) * n_total
        log2_pref = -0.5 * _cellwise(math.log2, np.where(product > 0.0, product, np.nan))
        log2_target = math.log2(eps_e)
        offset = np.abs(log2_pref) + abs(log2_target)
        lo = np.full(eq.shape, _THETA_FLOOR)
        hi = 0.5 - eq - _THETA_FLOOR

        def excess(cells, theta):
            zeta = _zeta_estimates(eq[cells], q_x, theta, _log1p_cells)
            return log2_pref[cells] - n_x * zeta - log2_target

        def bound(theta, slope, value):
            return _excess_error_bound(eq, q_x, n_x, offset, theta, slope, value)

        value, slope = excess(..., a), _zeta_slope(eq, q_x, a, _log1p_cells)
        known = (lo < a) & (a < hi) & (value > 2.0 * bound(a, slope, value))
        value, slope = excess(..., b), _zeta_slope(eq, q_x, b, _log1p_cells)
        known &= ((lo < b) & (b < hi)
                  & (slope >= 2.0**-47 * (8.0 * q_x + 3.0 + 2.0**-43 / (1.0 - q_x)))
                  & (value < -2.0 * bound(b, slope, value)))
        walking = known.copy()
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            walking &= (mid != lo) & (mid != hi)
            if not walking.any():
                break
            up = walking & (mid <= a)
            down = walking & ~up & (mid >= b)
            cells = np.flatnonzero(walking & ~up & ~down)
            value = excess(cells, mid[cells])
            known[cells] &= ~np.isnan(value)    # a log1p pole
            down[cells] = value <= 0.0
            up[cells] = ~down[cells]
            lo = np.where(up, mid, lo)
            hi = np.where(down, mid, hi)
        return np.where(known, hi, np.nan)


def theta_random_sampling(eq: float, q_x: float, n_total: float, eps_e: float,
                          walked: Optional[float] = None) -> float:
    """Smallest deviation theta whose random-sampling bound is at most eps_e.

    Plain bisection of excess(theta) = log2_pref - n_x zeta(theta) - log2(eps_e)
    over [_THETA_FLOOR, hi = 0.5 - EQ - _THETA_FLOOR].  hi is evaluated
    first, and :class:`InfeasibleError` raised when even that largest
    admissible theta cannot reach the target (the rate is then 0); then the
    floor, returned when its excess is <= 0; then every midpoint.

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
      * Where (EQ-m)/m rounds to -1, zeta takes EQ ln(EQ/m) for that term:
        the quotient, the log and the product cost at most u (3|term| + EQ),
        and EQ < |EQ-m| there, so the term bound above still holds.
    The stated bound is

        g(theta) = 2^-48 [1 + |P| + |T| + Z + n_x (8 q_x theta + t zeta'
                          + 2^-44 t^2/m)]  >=  3 B.

    The slack covers the O(u^2) terms and the rounding of g itself
    (:func:`_excess_error_bound`).  Every theta-dependent term of B grows
    with theta, so E - B is decreasing.  The derivative of those terms of g
    is at most 2^-48 n_x (2 zeta' + 8 q_x + 3 + 2^-43/(1-q_x)).  Since
    zeta' increases, E + B is decreasing on [b, 1/2 - EQ] wherever
    zeta'(b) >= 2^-47 (8 q_x + 3 + 2^-43/(1-q_x)), the slope floor of
    :func:`theta_starts`.

    Walked theta.  ``walked`` is the theta that :func:`theta_starts` walked
    for this point of a sweep.  It is returned, before the bisection, if it
    lies in the bracket and its ``excess``, evaluated here in ``math``, is
    <= 0.  Every theta the bisection returns has that property: the floor
    and each hi it sets were evaluated <= 0.  Any other walked theta, NaN
    included, is ignored, and the bisection runs.  So soundness rests on
    this one evaluation: a wrong walk can return a larger admissible theta,
    never an uncertified one.  That it returns the bisection's float rests
    on the walk's certified window; a test pins every theta of the sweep.
    """
    if not (0.0 < eq < 0.5):
        raise ParameterError(f"EQ must lie in (0, 0.5), got {eq}")
    if not (0.0 < q_x < 1.0):
        raise ParameterError(f"q_x must lie in (0, 1), got {q_x}")
    if not (n_total >= 1):
        raise ParameterError(f"N must be >= 1, got {n_total}")
    if not (0.0 < eps_e < 1.0):
        raise ParameterError(f"eps_e must lie in (0, 1), got {eps_e}")
    n_x = q_x * n_total
    log2_pref = _log2_prefactor(eq, q_x, n_total)
    log2_target = math.log2(eps_e)

    def excess(theta: float) -> float:
        return log2_pref - n_x * _zeta_exponent(eq, q_x, theta) - log2_target

    lo = _THETA_FLOOR
    hi = 0.5 - eq - _THETA_FLOOR
    if hi <= lo:
        raise InfeasibleError(f"no admissible theta below 0.5 - EQ for EQ = {eq}")
    if walked is not None and lo <= walked <= hi and excess(walked) <= 0.0:
        return walked
    if excess(hi) > 0.0:
        raise InfeasibleError(
            f"no theta <= {hi:.6g} reaches eps_e = {eps_e:.3e} "
            f"(EQ={eq:.3e}, q_x={q_x}, N={n_total:.3e})"
        )
    if excess(lo) <= 0.0:
        return lo
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) <= 0.0:
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
    """Per-pulse certified bits of ``report`` before any subtraction
    (:func:`entropy_engine._bracket_of`); its value at theta = 0 is hmin_a."""
    return _bracket_of(report.hmin_z, report.q_single, report.q_double, report.eq, theta)


def _bits_after(n_z: float, report: EntropyReport, theta: float, cost: float) -> float:
    """n_z * bracket - ``cost`` bits, clamped at 0."""
    return max(0.0, n_z * _bracket(report, theta) - cost)


# ---------------------------------------------------------------------------
# Minimization over monitored vacuum-probability boxes

# A bound on |np.log2(r) - math.log2(r)| for r in [1/2, 1], the one assumption
# of the screen in :func:`_min_bracket_over_taus`.  On 1.2 million inputs
# there, the two differ by at most 1 ulp (1.1e-16) with NumPy 2.4's AVX-512
# kernel and not at all with its baseline kernel.
_LOG2_PROXY_ERROR = 2.0**-30


def _worst_eq_arm(dets: Sequence[DetectorParams],
                  boxes: Sequence[Tuple[float, float]]) -> ArmState:
    # EQ grows when the "-" detector sees fewer vacua and the "+" detector more.
    return ArmState.from_detectors(dets[2], boxes[2][1], dets[3], boxes[3][0])


def _min_bracket_over_taus(dets: Sequence[DetectorParams],
                           boxes: Sequence[Tuple[float, float]],
                           x_arm: ArmState, theta: float,
                           grid_points: int = 64) -> float:
    """Least bracket over a ``grid_points``-square grid on the (tau_0, tau_1)
    box, with a fixed check arm.

    ``boxes`` holds the vacuum-probability interval of each detector of
    ``dets``, in the same order.  Positive values seen equal the corners'.
    Where the minimum is <= 0 the value depends on ``grid_points`` and is not
    the box's minimum: default ``finite-sampling`` at n_samples = 631 (no
    afterpulsing) gives -0.01141315 at the corners, -0.01183018 on the
    64-grid and -0.0118305 on a 513-grid.  See ROADMAP.md item 2.

    The result is the float ``np.min(_bracket(report, theta))`` of the
    grid's broadcast entropy report, and the grid fails every check of that
    report, in its order and with its exception type.  Only the cells that
    can hold the minimum take an exact ``math.log2``; the rest are screened
    out with NumPy's ``log2``.

    Screen.  At a cell with guessing ratio r (:func:`_max_guess_ratio`),
    hmin_z is the float z = -math.log2(r), and the bracket is
    f(z) = fl(fl(fl(fl(z Q_single) + Q_double) c) - Q_double) with one float
    c = 1 - h(min(EQ + theta, 1/2)) for the grid.  Q_single >= 0 (checked),
    so each rounded operation is monotone in z: f is non-decreasing where
    c >= 0 and non-increasing where c < 0.  Assume that
    |np.log2(r) - math.log2(r)| <= D = ``_LOG2_PROXY_ERROR`` for r in
    [1/2, 1].  Then the proxy p = -np.log2(r) has p - D <= z <= p + D, and
    since z is a float and rounding is monotone, fl(p - D) <= z <= fl(p + D).
    So f(z) lies between the ends f(fl(p - D)) and f(fl(p + D)); call the
    lesser L and the greater U.  The least bracket m is f(z_j) at some cell
    j, and L_j <= m <= f(z_i) <= U_i at every cell i, so L_j <= min_i U_i.
    A cell with L > min U therefore cannot hold m, and m is the least exact
    bracket of the other cells.  With D far above the gap between the two
    logarithms, the screen keeps every cell that ties the minimum to within
    about 2 D Q_single c, and costs nothing else.

    Range.  The report's check hmin_z in [0, 1] cannot fail, so it is not
    made.  Each ratio of :func:`_max_guess_ratio` is x / fl(x + y) with
    x, y >= 0, and fl(x + y) >= x, so r <= 1.  Swapping a pair swaps x and y
    and keeps fl(x + y), and x + y <= 2 max(x, y), a float, so
    fl(x + y) <= 2 max(x, y) and the larger of the two ratios is >= 1/2.  So
    r lies in [1/2, 1] and log2(r) in [-1, 0].  Both ends are floats, so a
    faithful math.log2 (error below 1 ulp) stays in [-1, 0]: z lies in [0, 1].
    Nor can Q_single + Q_double > 1 + 1e-12: it is 1 - (1 - p_0)(1 - p_1) up
    to a few roundings, and :func:`click_probabilities` checked p_0, p_1 in [0, 1].
    """
    if grid_points < 2:
        raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
    z_arm = ArmState.from_detectors(dets[0], np.linspace(*boxes[0], grid_points)[:, None],
                                    dets[1], np.linspace(*boxes[1], grid_points)[None, :])
    q_single, q_double = click_probabilities(z_arm.p_a, z_arm.p_b)
    eq = x_basis_error(p_plus=x_arm.p_a, p_minus=x_arm.p_b)
    ratio = _max_guess_ratio(z_arm.p1_a, z_arm.p0_a, z_arm.p1_b, z_arm.p0_b)
    for name, value in (("eq", eq), ("q_single", q_single), ("q_double", q_double)):
        _check_unit(name, value)
    proxy = -np.log2(ratio)
    ends = [_bracket_of(proxy + d, q_single, q_double, eq, theta)
            for d in (-_LOG2_PROXY_ERROR, _LOG2_PROXY_ERROR)]
    keep = np.minimum(*ends) <= np.maximum(*ends).min()
    return float(np.min(_bracket_of(-_cellwise(math.log2, ratio[keep]), q_single[keep],
                                    q_double[keep], eq, theta)))


def hmin_with_tau_uncertainty(dets: Sequence[DetectorParams], taus: TauSet,
                              delta: float, grid_points: int = 64) -> float:
    """Worst-case per-pulse min-entropy over the Hoeffding box of radius delta
    around the vacuum probabilities ``taus`` of the detectors ``dets``."""
    boxes = [clipped_interval(tau, delta) for tau in taus]
    return _min_bracket_over_taus(dets, boxes, _worst_eq_arm(dets, boxes), 0.0,
                                  grid_points)


# ---------------------------------------------------------------------------
# The source -> monitor -> attenuator -> measurement chain of the rate curves


@dataclass(frozen=True)
class RateScenario:
    """Coherent source of mean ``nu`` behind the distribution monitor.

    The monitor splitter keeps ``eta_bs`` of the light and its balance
    attenuation (1-eta_bs)/eta_bs * eta_det follows, so the distribution
    entering the variable attenuator equals the monitored one.  ``source``
    is the Poisson distribution of mean ``nu``.
    """

    dets: Tuple[DetectorParams, ...]    # "0", "1", "+", "-", as detector_set builds them
    security: SecurityParams = field(default_factory=SecurityParams)
    nu: float = SCENARIO_DEFAULTS["nu"]
    eta_bs: float = SCENARIO_DEFAULTS["eta_bs"]
    eta_det: float = SCENARIO_DEFAULTS["eta_det"]
    source: PhotonDistribution = field(init=False, repr=False, compare=False)
    # (theta, subtracted bits) of the entropy-inequality route: one per scenario
    _entropy_inequality: Tuple[float, float] = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self):
        if self.nu < 0.0:
            raise ParameterError(f"nu must be >= 0, got {self.nu}")
        object.__setattr__(self, "source", poisson_distribution(self.nu))
        sec = self.security
        object.__setattr__(self, "_entropy_inequality", (
            theta_entropy_inequality(sec.n_z, sec.n_x, sec.eps_all),
            2.0 * math.log2(1.0 / sec.eps_all)))

    def transmittance(self, loss_db: float) -> float:
        """Fixed monitor chain times the variable attenuator 10^(-dB/10).

        A one-dimensional array of losses gives an array.  Each power is
        still Python's float power: NumPy's ``10.0 ** array`` differs from
        it in the last bit.
        """
        losses = np.ravel(loss_db).tolist() if np.ndim(loss_db) else [loss_db]
        for loss in losses:
            if loss < 0.0:
                raise ParameterError(f"loss must be >= 0 dB, got {loss}")
        scale = self.eta_bs * monitor_attenuation(self.eta_bs, self.eta_det)
        values = [scale * 10.0 ** (-loss / 10.0) for loss in losses]
        return np.array(values) if np.ndim(loss_db) else values[0]

    def taus(self, loss_db: float) -> TauSet:
        """Vacuum probability at each detector behind ``loss_db`` of attenuation;
        a one-dimensional array of losses gives a :class:`TauSet` of arrays."""
        return measurement_taus(self.source, self.dets, self.security.misalignment,
                                self.transmittance(loss_db))

    def entropy(self, taus: TauSet) -> EntropyReport:
        """Report of the detectors at the vacuum probabilities ``taus``; a
        :class:`TauSet` of arrays gives one broadcast report."""
        return entropy_report_from_taus(self.dets, taus)

    def thetas(self, eq: np.ndarray) -> List[float]:
        """The theta that :func:`theta_starts` walks from the window of
        :func:`theta_windows` at each check-basis error of the
        one-dimensional ``eq``, as Python floats (NaN where the plain
        bisection decides), in order: the ``walked`` theta of :meth:`rates`
        for each cell of a broadcast report."""
        sec = self.security
        args = (sec.x_fraction, sec.total_pulses, sec.eps_e)
        return theta_starts(eq, *args, *theta_windows(eq, *args)).tolist()

    def _theta(self, eq: float, walked: Optional[float] = None) -> float:
        """Random-sampling deviation theta at the check-basis error ``eq``,
        with the walked theta of :func:`theta_random_sampling`; nan when no
        theta is admissible."""
        sec = self.security
        try:
            return theta_random_sampling(eq, sec.x_fraction, sec.total_pulses, sec.eps_e,
                                         walked)
        except (InfeasibleError, ParameterError):
            return math.nan

    def _random_sampling(self, report: EntropyReport, walked: Optional[float] = None
                         ) -> Tuple[float, float]:
        """(theta, bits) of the random-sampling bound; (nan, 0) when no theta
        is admissible."""
        theta = self._theta(report.eq, walked)
        if math.isnan(theta):
            return theta, 0.0
        return theta, _bits_after(self.security.n_z, report, theta, self.security.t_e)

    def monitored(self, taus: TauSet, delta_d: float,
                  grid_points: int = 64) -> Tuple[float, float]:
        """(theta, bits) of the random-sampling bound minimized over the
        Hoeffding box of radius ``delta_d`` around the vacuum probabilities
        ``taus``; (nan, 0) when no theta is admissible, as where the
        worst-case EQ leaves (0, 1/2).

        theta comes from the worst-case check-arm corner of the box; the
        bracket is then minimized over the generation-arm box and t_e
        subtracted.
        """
        if not (delta_d >= 0.0):
            raise ParameterError(f"delta_d must be >= 0, got {delta_d}")
        boxes = [clipped_interval(tau, delta_d) for tau in taus]
        x_arm = _worst_eq_arm(self.dets, boxes)
        theta = self._theta(x_basis_error(x_arm.p_a, x_arm.p_b))
        if math.isnan(theta):
            return theta, 0.0
        min_bracket = _min_bracket_over_taus(self.dets, boxes, x_arm, theta, grid_points)
        return theta, max(0.0, self.security.n_z * min_bracket - self.security.t_e)

    def rates(self, report: EntropyReport, walked: Optional[float] = None
              ) -> Dict[str, float]:
        """Bit counts of all three bounding methods for the scalar report of
        one attenuation, as :meth:`entropy` gives it (or a cell of its
        broadcast report); ``walked`` is that cell's theta of
        :meth:`thetas`, or None to bisect for this report alone.

        The infinite-length count is n_z hmin_a, clamped at 0: hmin_a is the
        bracket at theta = 0 (:func:`_bracket`), bit for bit."""
        n_z = self.security.n_z
        _, r_rs = self._random_sampling(report, walked)
        r_ei = _bits_after(n_z, report, *self._entropy_inequality)
        r_il = max(0.0, n_z * report.hmin_a)
        return {"random_sampling": r_rs, "entropy_inequality": r_ei,
                "infinite_length": r_il}


def scenario_from_params(params: dict) -> RateScenario:
    """Build a :class:`RateScenario` from flat sweep-specification keys; a
    missing key takes its :data:`SCENARIO_DEFAULTS` value; ``rates`` passes
    no other key, as the command line rejects unknown config keys."""
    p = {**SCENARIO_DEFAULTS, **params}
    security = SecurityParams(
        total_pulses=float(p["N"]), x_fraction=float(p["q_x"]),
        eps_all=float(p["eps_all"]), eps_d=float(p["eps_d"]), eps_e=float(p["eps_e"]),
        t_e=int(p["t_e"]), misalignment=float(p["e_q"]),
    )
    spec = AfterpulseSpec.exponential_from_rate(float(p["p_hat"]), float(p["omega"]))
    return RateScenario(
        detector_set(float(p["eta"]), float(p["e_d"]), spec),
        security=security, nu=float(p["nu"]),
        eta_bs=float(p["eta_bs"]), eta_det=float(p["eta_det"]),
    )


def split_sweep_spec(spec: dict) -> Tuple[dict, dict]:
    """Split a sweep specification into (scenario params, from/to/points keys)."""
    unknown = set(spec) - {"sweep_var", "from", "to", "points", "params"}
    if unknown:
        raise ParameterError(f"unknown sweep specification keys: {sorted(unknown)}")
    var = spec.get("sweep_var", "voa_loss_db")
    if var != "voa_loss_db":
        raise ParameterError(f"unsupported sweep variable {var!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ParameterError(f"sweep specification key 'params' must be an object, "
                             f"got {params!r}")
    span = {key: spec[key] for key in ("from", "to", "points") if key in spec}
    return dict(params), span


def loss_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` attenuations evenly spaced from ``lo`` to ``hi`` dB."""
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ParameterError(f"sweep range is empty: from {lo} to {hi}")
    return np.linspace(lo, hi, points)

