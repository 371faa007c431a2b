import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siqrng import (
    AfterpulseSpec,
    BudgetError,
    DegenerateError,
    InfeasibleError,
    ParameterError,
    SecurityParams,
    composable_epsilon,
    final_rate,
    poisson_distribution,
    rate_entropy_inequality,
    rate_infinite_length,
    rate_random_sampling,
    theta_entropy_inequality,
    theta_random_sampling,
)
from siqrng.entropy_engine import (
    ArmState,
    EntropyReport,
    binary_entropy,
    entropy_report_from_taus,
    make_entropy_report,
    measurement_taus,
)
from siqrng import finite_size
from siqrng.finite_size import (
    DEFAULT_LOSS_MAX_DB,
    _THETA_FLOOR,
    _bracket,
    _excess_error_bound,
    _min_bracket_over_taus,
    _worst_eq_arm,
    _zeta_exponent,
    hmin_with_tau_uncertainty,
    loss_grid,
    random_sampling_epsilon,
    scenario_from_params,
)
from siqrng.source_monitor import clipped_interval

from conftest import make_detectors


def simple_report(hmin_z=0.9, q_single=0.4, q_double=0.1, eq=0.01, k=0.5):
    return EntropyReport(hmin_z=hmin_z, hmin_a=0.0, q_single=q_single,
                         q_double=q_double, eq=eq, k=k)


class TestThetaEntropyInequality:
    def test_reference_value(self):
        # direct evaluation, cross-checked with 40-digit arithmetic
        theta = theta_entropy_inequality(9.8e9, 2e8, 2.0 * 2.0**-50)
        assert theta == pytest.approx(4.2050358052107134e-4, rel=1e-12)

    def test_equal_split_specialization(self):
        n, eps = 1e8, 1e-9
        expected = math.sqrt(2.0 / n * (n + 1.0) / n * math.log(2.0 / eps))
        assert theta_entropy_inequality(n, n, eps) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_for_large_counts(self):
        assert theta_entropy_inequality(1e16, 1e14, 1e-9) < 1e-6

    def test_strictly_decreasing_in_counts(self):
        a = theta_entropy_inequality(1e9, 1e7, 1e-9)
        b = theta_entropy_inequality(1e10, 1e8, 1e-9)
        assert b < a

    def test_increasing_as_budget_shrinks(self):
        assert (theta_entropy_inequality(1e9, 1e7, 1e-12)
                > theta_entropy_inequality(1e9, 1e7, 1e-6))


class TestThetaRandomSampling:
    @pytest.mark.parametrize("eq", [1e-4, 1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("n_total", [1e8, 1e10, 1e12])
    def test_round_trip(self, eq, n_total):
        q_x, eps_e = 0.02, 2.0**-50
        theta = theta_random_sampling(eq, q_x, n_total, eps_e)
        assert random_sampling_epsilon(eq, q_x, n_total, theta) <= eps_e
        assert random_sampling_epsilon(eq, q_x, n_total, theta) == pytest.approx(
            eps_e, rel=1e-6)

    def test_bracketing(self):
        eq, q_x, n_total, eps_e = 1e-3, 0.02, 1e10, 2.0**-50
        theta = theta_random_sampling(eq, q_x, n_total, eps_e)
        assert random_sampling_epsilon(eq, q_x, n_total, theta * (1 - 1e-6)) > eps_e

    def test_decreasing_in_pulse_count(self):
        thetas = [theta_random_sampling(1e-3, 0.02, n, 2.0**-50)
                  for n in (1e8, 1e9, 1e10, 1e11)]
        assert thetas == sorted(thetas, reverse=True)

    def test_increasing_as_budget_shrinks(self):
        assert (theta_random_sampling(1e-3, 0.02, 1e10, 2.0**-80)
                > theta_random_sampling(1e-3, 0.02, 1e10, 2.0**-20))

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            theta_random_sampling(0.4, 0.01, 1e4, 2.0**-50)

    def test_domain(self):
        with pytest.raises(ParameterError):
            theta_random_sampling(0.0, 0.02, 1e10, 1e-9)
        with pytest.raises(ParameterError):
            theta_random_sampling(0.6, 0.02, 1e10, 1e-9)

    @pytest.mark.parametrize("eq, theta", [(0.1, 0.95), (0.1, 0.9 + 2**-52), (0.4, 5.0),
                                           (0.3, math.inf)])
    def test_epsilon_rejects_theta_past_one_minus_eq(self, eq, theta):
        with pytest.raises(ParameterError, match=r"theta must keep EQ \+ theta <= 1"):
            random_sampling_epsilon(eq, 0.02, 1e10, theta)

    def test_epsilon_at_the_largest_deviations(self):
        assert random_sampling_epsilon(0.1, 0.02, 1e10, 0.5) == 0.0
        assert random_sampling_epsilon(0.1, 0.02, 1e10, 0.9) == 0.0
        assert random_sampling_epsilon(0.1, 0.02, 1.0, 0.9) > 0.0


def plain_bisection_theta(eq, q_x, n_total, eps_e):
    """Reference: the bisection that evaluates excess at every midpoint."""
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

    def excess(theta):
        return log2_pref - n_x * _zeta_exponent(eq, q_x, theta) - log2_target

    hi = 0.5 - eq - _THETA_FLOOR
    if hi <= _THETA_FLOOR:
        raise InfeasibleError(f"no admissible theta below 0.5 - EQ for EQ = {eq}")
    if excess(hi) > 0.0:
        raise InfeasibleError("no admissible theta reaches eps_e")
    lo = _THETA_FLOOR
    if excess(lo) <= 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _theta_outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasibleError, ParameterError) as exc:
        return type(exc)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# (EQ, q_x, N, eps_e) over the domain the rate sweeps can reach and beyond
theta_inputs = st.tuples(_log_uniform(1e-6, 0.499), _log_uniform(1e-3, 0.999),
                         _log_uniform(1e2, 1e16),
                         st.floats(-120.0, -1.0).map(lambda e: 2.0**e))


class TestCertifiedBisection:
    @settings(max_examples=1000, deadline=None)
    @given(theta_inputs)
    @example((1e-6, 0.999, 1e16, 2.0**-120))
    @example((1e-6, 1e-3, 1e16, 2.0**-120))
    @example((0.499, 0.5, 1e16, 0.5))
    @example((0.015, 0.02, 1e10, 2.0**-50))
    def test_matches_plain_bisection(self, args):
        assert _theta_outcome(theta_random_sampling, *args) == \
            _theta_outcome(plain_bisection_theta, *args)

    def test_rates_default_sweep_evaluations(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _zeta_exponent(*args)

        sec = SecurityParams()
        eqs = [scenario.entropy(scenario.taus(float(loss))).eq
               for scenario in (scenario_from_params({}),
                                scenario_from_params({"p_hat": 0.05}))
               for loss in loss_grid(0.0, DEFAULT_LOSS_MAX_DB, 200)]
        monkeypatch.setattr(finite_size, "_zeta_exponent", counted)
        for eq in eqs:
            calls.clear()
            theta_random_sampling(eq, sec.x_fraction, sec.total_pulses, sec.eps_e)
            assert len(calls) <= 40

    @settings(max_examples=200, deadline=None)
    @given(theta_inputs, st.floats(-1e-6, 1e-6))
    def test_error_bound_near_the_root(self, args, offset):
        mpmath = pytest.importorskip("mpmath")
        eq, q_x, n_total, eps_e = args
        root = _theta_outcome(theta_random_sampling, *args)
        if not isinstance(root, float) or root == _THETA_FLOOR:
            return
        theta = min(root * (1.0 + offset), 0.5 - eq - _THETA_FLOOR)
        n_x = q_x * n_total
        log2_pref = -0.5 * math.log2(q_x * (1.0 - q_x) * eq * (1.0 - eq) * n_total)
        log2_target = math.log2(eps_e)
        value = log2_pref - n_x * _zeta_exponent(eq, q_x, theta) - log2_target
        with mpmath.workprec(200):
            e, q, n, th = (mpmath.mpf(v) for v in (eq, q_x, n_total, theta))

            def h(x):
                return -(x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2)

            zeta = h(e + (1 - q) * th) - q * h(e) - (1 - q) * h(e + th)
            exact = (-mpmath.log(q * (1 - q) * e * (1 - e) * n, 2) / 2
                     - q * n * zeta - mpmath.log(mpmath.mpf(eps_e), 2))
            error = abs(mpmath.mpf(value) - exact)
        g = _excess_error_bound(eq, q_x, n_x, abs(log2_pref) + abs(log2_target),
                                theta, value)
        assert error <= g / 8


class TestRates:
    def test_saturated_error_rate_clamps_to_zero(self):
        report = simple_report(eq=0.4)
        assert rate_random_sampling(1e9, report, 0.2, 100) == 0.0

    def test_theta_zero_te_zero_recovers_hmin_a(self):
        report = simple_report()
        expected = 1e9 * ((report.hmin_z * report.q_single + report.q_double)
                          * (1.0 - binary_entropy(report.eq)) - report.q_double)
        assert rate_random_sampling(1e9, report, 0.0, 0.0) == pytest.approx(
            expected, rel=1e-12)
        assert rate_infinite_length(1e9, report) == pytest.approx(expected, rel=1e-12)

    def test_entropy_inequality_subtraction(self):
        report = simple_report()
        base = rate_entropy_inequality(1e9, report, 0.0, 1.0)
        tighter = rate_entropy_inequality(1e9, report, 0.0, 2.0 * 2.0**-50)
        assert base - tighter == pytest.approx(98.0, abs=1e-6)

    def test_rates_non_increasing_in_theta(self):
        report = simple_report()
        for rate in (lambda th: rate_random_sampling(1e9, report, th, 100),
                     lambda th: rate_entropy_inequality(1e9, report, th,
                                                        2.0 * 2.0**-50)):
            values = [rate(th) for th in (0.0, 1e-5, 1e-3, 0.05, 0.3, 0.49)]
            assert values == sorted(values, reverse=True)


class TestComposableEpsilon:
    def test_zero_budget(self):
        assert composable_epsilon(0.0, 0.0, 10**6) == pytest.approx(0.0, abs=1e-90)

    def test_extraction_only_specialization(self):
        s = 2.0**-30
        assert composable_epsilon(0.0, 0.0, 30) == pytest.approx(
            math.sqrt(s * (2.0 - s)), rel=1e-12)

    def test_reference_budget(self):
        # eps_d = eps_e = 2^-50, t_e = 100: sqrt(s(2-s)) with s ~ 2^-49
        assert composable_epsilon(2.0**-50, 2.0**-50, 100) == pytest.approx(
            5.960464477539061e-8, rel=1e-9)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            composable_epsilon(0.7, 0.4, 1)


class TestSecurityParams:
    def test_reference_defaults(self):
        sec = SecurityParams()
        assert sec.total_pulses == 1e10
        assert sec.x_fraction == 0.02
        assert sec.eps_all == 2.0 * 2.0**-50
        assert sec.eps_d == 2.0**-50
        assert sec.t_e == 100
        assert sec.misalignment == 0.02
        assert sec.n_x == pytest.approx(2e8)
        assert sec.n_z == pytest.approx(9.8e9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SecurityParams(x_fraction=0.0)
        with pytest.raises(ParameterError):
            SecurityParams(eps_all=0.0)
        with pytest.raises(ParameterError):
            SecurityParams(t_e=0)


def _taus_at(nu=10.0, e_q=0.02):
    source = poisson_distribution(nu)
    return measurement_taus(source, eta_0=0.1, eta_1=0.1, eta_plus=0.1,
                            eta_minus=0.1, misalignment=e_q)


class TestFinalRate:
    def _args(self, spec=None):
        det0, det1, detp, detm = make_detectors(spec=spec)
        taus = _taus_at()
        return (det0, taus.tau_0, det1, taus.tau_1,
                detp, taus.tau_plus, detm, taus.tau_minus)

    def test_zero_delta_reduces_to_point_rate(self):
        sec = SecurityParams()
        args = self._args()
        report = entropy_report_from_taus(*args)
        theta = theta_random_sampling(report.eq, sec.x_fraction,
                                      sec.total_pulses, sec.eps_e)
        expected = rate_random_sampling(sec.n_z, report, theta, sec.t_e)
        out = final_rate(sec, *args, delta_d=0.0, grid_points=2)
        assert out.final_bits == pytest.approx(expected, rel=1e-9)
        assert out.random_bits == pytest.approx(expected, rel=1e-12)

    def test_non_increasing_in_delta(self):
        sec = SecurityParams()
        args = self._args()
        values = [final_rate(sec, *args, delta_d=d, grid_points=9).final_bits
                  for d in (0.0, 0.01, 0.05, 0.1)]
        assert values == sorted(values, reverse=True)

    def test_final_never_exceeds_point_rate(self):
        sec = SecurityParams()
        spec = AfterpulseSpec.exponential_from_rate(0.05, 0.001)
        args = self._args(spec=spec)
        out = final_rate(sec, *args, delta_d=0.02, grid_points=9)
        assert out.final_bits <= out.random_bits
        assert out.zeta == pytest.approx(
            composable_epsilon(sec.eps_d, sec.eps_e, sec.t_e), rel=1e-12)

    def test_report_serializes(self):
        sec = SecurityParams()
        out = final_rate(sec, *self._args(), delta_d=0.01, grid_points=5)
        data = out.to_dict()
        assert data["per_pulse"] == pytest.approx(out.random_bits / 1e10)


class TestHminWithTauUncertainty:
    def test_zero_delta_is_point_value(self):
        det0, det1, detp, detm = make_detectors()
        taus = _taus_at()
        report = entropy_report_from_taus(det0, taus.tau_0, det1, taus.tau_1,
                                          detp, taus.tau_plus, detm, taus.tau_minus)
        h = hmin_with_tau_uncertainty(det0, taus.tau_0, det1, taus.tau_1,
                                      detp, taus.tau_plus, detm, taus.tau_minus,
                                      delta=0.0, grid_points=2)
        assert h == pytest.approx(report.hmin_a, rel=1e-12)

    def test_monotone_in_delta(self):
        det0, det1, detp, detm = make_detectors()
        taus = _taus_at()
        values = [hmin_with_tau_uncertainty(det0, taus.tau_0, det1, taus.tau_1,
                                            detp, taus.tau_plus, detm, taus.tau_minus,
                                            delta=d, grid_points=17)
                  for d in (0.0, 0.005, 0.02, 0.08)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_fewer_than_two_grid_points_rejected(self, grid_points):
        # 0 points used to return inf; 1 point saw only the lower corner
        det0, det1, detp, detm = make_detectors()
        taus = _taus_at()
        args = (det0, taus.tau_0, det1, taus.tau_1,
                detp, taus.tau_plus, detm, taus.tau_minus)
        with pytest.raises(ParameterError, match="grid_points must be >= 2"):
            hmin_with_tau_uncertainty(*args, delta=0.01, grid_points=grid_points)
        with pytest.raises(ParameterError, match="grid_points must be >= 2"):
            final_rate(SecurityParams(), *args, delta_d=0.01, grid_points=grid_points)

    def test_box_reaching_vacuum_without_noise_is_degenerate(self):
        # tau = 1 with e_d = 0 and no afterpulse: neither detector can click
        det0, det1, detp, detm = make_detectors(e_d=0.0)
        taus = _taus_at(nu=1.0)
        with pytest.raises(DegenerateError):
            hmin_with_tau_uncertainty(det0, taus.tau_0, det1, taus.tau_1,
                                      detp, taus.tau_plus, detm, taus.tau_minus,
                                      delta=0.1, grid_points=5)


def _cell_loop_min_bracket(det_0, tau_0_iv, det_1, tau_1_iv, x_arm, theta,
                           grid_points):
    """Reference: the bracket minimum evaluated one float cell at a time."""
    best = math.inf
    for t0 in np.linspace(tau_0_iv[0], tau_0_iv[1], grid_points):
        for t1 in np.linspace(tau_1_iv[0], tau_1_iv[1], grid_points):
            z_arm = ArmState.from_detectors(det_0, float(t0), det_1, float(t1))
            best = min(best, _bracket(make_entropy_report(z_arm, x_arm), theta))
    return best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ParameterError, DegenerateError) as exc:
        return type(exc)


class TestMinBracketOverTaus:
    # (nu, delta): no clipping; clipped at 1; tau_0 clipped at 0; tau_0 at 0
    # and 1.  Boxes where tau_0 and tau_1 both reach 0 (eta_1 = eta), or where
    # tau_0 reaches 0 with the total clamped at 1, are degenerate: both raise.
    @pytest.mark.parametrize("nu,delta", [(10.0, 0.01), (1.0, 0.2), (50.0, 0.1),
                                          (12.0, 0.55)])
    @pytest.mark.parametrize("theta", [0.0, 2e-3])
    @pytest.mark.parametrize("eta_1", [0.1, 0.06])
    @pytest.mark.parametrize("p_hat", [0.0, 0.05, 0.6])   # 0.6 clamps the total at 1
    @pytest.mark.parametrize("grid_points", [2, 3, 17, 64])
    def test_broadcast_equals_cell_loop(self, grid_points, p_hat, eta_1, theta,
                                        nu, delta):
        spec = AfterpulseSpec.exponential_from_rate(p_hat, 0.001)
        det0, det1, detp, detm = make_detectors(spec=spec, eta_1=eta_1)
        taus = measurement_taus(poisson_distribution(nu), eta_0=0.1, eta_1=eta_1,
                                eta_plus=0.1, eta_minus=0.1, misalignment=0.02)
        x_arm = _worst_eq_arm(detp, clipped_interval(taus.tau_plus, delta),
                              detm, clipped_interval(taus.tau_minus, delta))
        args = (det0, clipped_interval(taus.tau_0, delta),
                det1, clipped_interval(taus.tau_1, delta), x_arm, theta, grid_points)
        assert _outcome(_min_bracket_over_taus, *args) == \
            _outcome(_cell_loop_min_bracket, *args)


class TestRateScenario:
    def test_monitor_chain_transmittance(self):
        scenario = scenario_from_params({"eta_det": 0.8})
        # eta_bs * (1-eta_bs)/eta_bs * eta_det = 0.4 at zero attenuation
        assert scenario.transmittance(0.0) == pytest.approx(0.4, rel=1e-12)
        assert scenario.transmittance(10.0) == pytest.approx(0.04, rel=1e-12)

    def test_taus_of_an_array_equal_each_loss(self):
        scenario = scenario_from_params({"nu": 7.0, "e_q": 0.1})
        losses = np.linspace(0.0, 30.0, 301)
        taus = scenario.taus(losses)
        assert scenario.transmittance(losses).tolist() == [
            scenario.transmittance(loss) for loss in losses.tolist()]
        for i, loss in enumerate(losses.tolist()):
            assert tuple(column[i] for column in taus) == scenario.taus(loss)
        with pytest.raises(ParameterError, match=r"loss must be >= 0 dB, got -0.5$"):
            scenario.taus(np.array([0.0, -0.5, -1.0]))

    def test_rates_ordering_at_low_loss(self):
        scenario = scenario_from_params({})
        rates = scenario.rates(scenario.entropy(scenario.taus(1.5)))
        assert rates["infinite_length"] >= rates["entropy_inequality"]
        assert rates["entropy_inequality"] >= rates["random_sampling"]
        assert rates["random_sampling"] > 0.0

    def test_afterpulse_lowers_rates(self):
        plain = scenario_from_params({})
        withap = scenario_from_params({"p_hat": 0.05})
        for method, value in plain.rates(plain.entropy(plain.taus(1.5))).items():
            assert withap.rates(withap.entropy(withap.taus(1.5)))[method] < value

    def test_monitor_sampling_penalizes(self):
        scenario = scenario_from_params({})
        point = scenario.rate_report(1.5)
        monitored = scenario.rate_report(1.5, monitor_samples=10**4)
        assert monitored.final_bits < point.final_bits
        assert monitored.final_bits <= monitored.random_bits

    @pytest.mark.parametrize("nu", [1.0, 10.0])
    @pytest.mark.parametrize("loss_db", [0.0, 1.5, 3.0])
    def test_monitored_worst_eq_above_half_gives_zero_bits(self, nu, loss_db):
        # 100 monitor samples widen the check-arm box until its worst-case EQ
        # passes 1/2, where no theta exists.
        report = scenario_from_params({"p_hat": 0.3, "nu": nu}).rate_report(
            loss_db, monitor_samples=100)
        assert math.isnan(report.theta)
        assert report.random_bits == 0.0 and report.final_bits == 0.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            scenario_from_params({"bogus": 1.0})

    def test_negative_afterpulse_rate_rejected(self):
        with pytest.raises(ParameterError, match="first_order_rate"):
            scenario_from_params({"p_hat": -0.1})


class TestRatePeakLocation:
    def test_per_pulse_maximum_sits_between_one_and_two_db(self):
        # over a wide 0..10 dB scan the certified rate still peaks early
        scenario = scenario_from_params({})
        losses = [i * 0.1 for i in range(101)]
        values = [scenario.rates(scenario.entropy(scenario.taus(loss)))["random_sampling"]
                  for loss in losses]
        peak = losses[values.index(max(values))]
        assert 1.0 <= peak <= 2.0

