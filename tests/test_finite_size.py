import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siqrng import (
    AfterpulseSpec,
    DegenerateError,
    InfeasibleError,
    ParameterError,
    RateScenario,
    SecurityParams,
    poisson_distribution,
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
    x_basis_error,
)
from siqrng import cli, finite_size
from siqrng.finite_size import (
    _THETA_FLOOR,
    _bits_after,
    _bracket,
    _excess_error_bound,
    _min_bracket_over_taus,
    _worst_eq_arm,
    _zeta_exponent,
    _zeta_slope,
    hmin_with_tau_uncertainty,
    loss_grid,
    scenario_from_params,
)
from siqrng.source_monitor import clipped_interval, hoeffding_delta

from conftest import make_detectors
from references import random_sampling_epsilon


def simple_report(hmin_z=0.9, q_single=0.4, q_double=0.1, eq=0.01):
    return EntropyReport(hmin_z=hmin_z, hmin_a=0.0, q_single=q_single,
                         q_double=q_double, eq=eq)


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

    def test_epsilon_where_the_mixture_point_rounds_to_one(self):
        # EQ + theta = 1 and q_x theta is below half an ulp of 1, so
        # m = EQ + (1 - q_x) theta rounds to 1.  n_x zeta is about 5e-17, so
        # eps is the prefactor (q_x (1 - q_x) EQ (1 - EQ) N)^(-1/2)
        eps = random_sampling_epsilon(0.25, 1e-20, 1e22, 0.75)
        assert math.isfinite(eps)
        assert eps == pytest.approx(18.75**-0.5, rel=1e-15)

    @pytest.mark.parametrize("fn, args", [(theta_random_sampling, (5e-324, 0.5, 1.0, 0.5)),
                                          (random_sampling_epsilon, (5e-324, 0.5, 1.0, 0.1))])
    def test_underflowed_prefactor_rejected(self, fn, args):
        # q_x(1-q_x) EQ(1-EQ) N underflows to 0, whose log2 raised a bare
        # "math domain error"
        with pytest.raises(ParameterError, match=r"q_x\(1-q_x\) EQ\(1-EQ\) N underflows to 0"):
            fn(*args)


def _bernoulli_kl_bits_reference(x, y, y_comp):
    """Reference: D(x||y) in bits, y_comp = 1 - y, as a separate call."""
    if x == y:
        return 0.0
    acc = 0.0
    if x > 0.0:
        acc += x * math.log1p((x - y) / y)
    if x < 1.0:
        acc += (1.0 - x) * math.log1p((y - x) / y_comp)
    return acc / math.log(2.0)


def zeta_reference(eq, q_x, theta):
    """Reference: zeta as two relative-entropy calls around the mixture point."""
    mixed = eq + (1.0 - q_x) * theta
    tested = eq + theta
    mixed_comp = 1.0 - mixed
    if mixed_comp == 0.0:
        mixed_comp = (1.0 - eq - theta) + q_x * theta
    return (q_x * _bernoulli_kl_bits_reference(eq, mixed, mixed_comp)
            + (1.0 - q_x) * _bernoulli_kl_bits_reference(tested, mixed, mixed_comp))


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
        return log2_pref - n_x * zeta_reference(eq, q_x, theta) - log2_target

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


def _zeta_inputs():
    """(EQ, q_x, theta) with 0 < EQ < 1/2 and 0 <= theta <= 1 - EQ."""
    q_x = st.one_of(_log_uniform(1e-300, 0.5), st.floats(0.5, 1.0, exclude_max=True))
    return st.tuples(_log_uniform(1e-300, 0.4999), q_x, st.floats(0.0, 1.0)).map(
        lambda t: (t[0], t[1], t[2] * (1.0 - t[0]))).filter(lambda t: t[0] + t[2] <= 1.0)


class TestZetaExponent:
    @settings(max_examples=2000, deadline=None)
    @given(_zeta_inputs())
    @example((0.015, 0.02, 0.0))                # theta = 0: both relative entropies vanish
    @example((0.25, 1e-20, 0.75))               # the mixture point rounds to 1
    @example((0.25, 1e-300, 0.75))
    @example((0.3, 1e-300, 1e-3))               # q_x theta far below an ulp of EQ
    @example((1e-300, 0.5, 1e-310))
    @example((0.1, 0.999, 0.9))                 # EQ + theta = 1
    @example((1e-300, 0.5, 0.5))                 # (EQ - m)/m rounds to -1
    @example((0.01831563888873418, 0.75, 0.9816843611112657))  # (m - t)/(1 - m) rounds to -1
    def test_equals_two_call_reference_bit_for_bit(self, args):
        def outcome(fn):
            try:
                return fn(*args).hex()
            except ValueError as exc:    # log1p(-1) at either pole below
                return repr(exc)
        got, want = outcome(_zeta_exponent), outcome(zeta_reference)
        assert not got.startswith("ValueError"), got
        if got != want:
            # Only where a log1p argument rounds to -1: EQ below an ulp of m,
            # or t = EQ + theta within an ulp of 1.  The reference meets
            # log1p's pole, and the EQ ln(EQ/m) or (1-t) ln((1-t)/(1-m))
            # branch returns a value.  That value is compared with the exact
            # zeta near t = 1, and near EQ = 0 on the domain of
            # theta_random_sampling, EQ + theta <= 1/2, where it is within
            # that function's error bound.
            eq, q_x, theta = args
            mixed = eq + (1.0 - q_x) * theta
            tested = eq + theta
            eq_pole = (eq - mixed) / mixed == -1.0
            tested_pole = tested < 1.0 and (mixed - tested) / (1.0 - mixed) == -1.0
            assert (eq_pole or tested_pole) and want == repr(ValueError("math domain error"))
            assert math.isfinite(float.fromhex(got))
            if tested <= 0.5 or tested_pole:
                exact = zeta_exact(*args)
                assert abs(float.fromhex(got) - exact) <= 2.0**-40 * (exact + q_x * theta)


def zeta_exact(eq, q_x, theta):
    """zeta as q_x D(EQ||m) + (1-q_x) D(t||m) in bits at the rounded
    t = EQ + theta that ``_zeta_exponent`` sees, with m = q_x EQ + (1-q_x) t
    exact: t's rounding moves zeta by up to 2^-53 t zeta', unbounded as t
    nears 1.  The precision resolves 1 - EQ, and D(t||m), about
    q_x^2 theta / 2 nats, from its terms of about q_x theta."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200 + 2 * math.ceil(-math.log2(q_x)) + math.ceil(-math.log2(eq))):
        e, q, t = (mpmath.mpf(v) for v in (eq, q_x, eq + theta))
        m = q * e + (1 - q) * t

        def kl(x):
            acc = x * mpmath.log(x / m)
            if x < 1:
                acc += (1 - x) * mpmath.log((1 - x) / (1 - m))
            return acc

        return float((q * kl(e) + (1 - q) * kl(t)) / mpmath.log(2))


class TestThetaBelowAnUlpOfTheMixturePoint:
    """EQ below about 2^-53 m, where (EQ - m)/m rounds to -1 and log1p has its
    pole, which raised a bare ValueError before: theta is within 1e-9 relative of the exact root at 50 digits, or
    the exact excess at the largest admissible theta is positive and the
    error says no theta reaches eps_e."""

    @pytest.mark.parametrize("args", [
        (1.5e-126, 0.715, 1.45e5, 8.8e-21),
        (1e-300, 0.5, 1e10, 2.0**-50),
        (1e-200, 0.02, 1e10, 2.0**-50),
        (1e-30, 0.9, 1e16, 2.0**-120),
        (1e-20, 0.02, 1e3, 2.0**-50),
        (1e-300, 1e-3, 1e2, 0.5),
    ])
    def test_theta_or_infeasible_against_mpmath(self, args):
        mpmath = pytest.importorskip("mpmath")
        eq, q_x, n_total, eps_e = args

        def excess(theta):
            with mpmath.workdps(50):
                e, q, n, th = (mpmath.mpf(v) for v in (eq, q_x, n_total, theta))

                def h(x):
                    return -(x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2)

                zeta = h(e + (1 - q) * th) - q * h(e) - (1 - q) * h(e + th)
                return (-mpmath.log(q * (1 - q) * e * (1 - e) * n, 2) / 2
                        - q * n * zeta - mpmath.log(mpmath.mpf(eps_e), 2))

        # The first excess evaluated, at the largest admissible theta, meets the pole
        hi = 0.5 - eq - _THETA_FLOOR
        assert (eq - (eq + (1.0 - q_x) * hi)) / (eq + (1.0 - q_x) * hi) == -1.0
        try:
            theta = theta_random_sampling(*args)
        except InfeasibleError as exc:
            assert str(exc).startswith("no theta <= ")
            assert excess(hi) > 0
            return
        assert excess(theta * (1.0 + 1e-9)) < 0 < excess(theta * (1.0 - 1e-9))


class TestCertifiedBisection:
    @settings(max_examples=1000, deadline=None)
    @given(theta_inputs)
    @example((1e-6, 0.999, 1e16, 2.0**-120))
    @example((1e-6, 1e-3, 1e16, 2.0**-120))
    @example((0.499, 0.5, 1e16, 0.5))
    @example((0.015, 0.02, 1e10, 2.0**-50))
    # Infeasible: the check at hi must run before Newton, whose step would
    # divide by an n_x zeta' that underflows to 0.
    @example((0.25, 1e-300, 1.0, 0.5))
    @example((0.49, 1e-200, 1.0, 1e-300))
    # The floor: the prefactor alone is below eps_e
    @example((0.01, 0.5, 1e12, 0.5))
    # Infeasible with n_x q_x underflowing to 0: no Gaussian estimate, hi
    # decides
    @example((1e-3, 1e-200, 1.0, 0.5))
    # Infeasible with hi about 1e-7: Newton runs, the check at b fails, and
    # hi raises
    @example((0.4999999, 0.5, 1e10, 2.0**-50))
    def test_matches_plain_bisection(self, args):
        assert _theta_outcome(theta_random_sampling, *args) == \
            _theta_outcome(plain_bisection_theta, *args)

    def test_examples_reach_the_floor_and_infeasibility(self):
        assert theta_random_sampling(0.01, 0.5, 1e12, 0.5) == _THETA_FLOOR
        for args in ((0.25, 1e-300, 1.0, 0.5), (0.49, 1e-200, 1.0, 1e-300)):
            with pytest.raises(InfeasibleError):
                theta_random_sampling(*args)

    def test_rates_default_sweep_evaluations(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _zeta_exponent(*args)

        sec = SecurityParams()
        defaults = cli._DEFAULTS["rates"]
        eqs = [scenario.entropy(scenario.taus(float(loss))).eq
               for scenario in (scenario_from_params({}),
                                scenario_from_params({"p_hat": defaults["p_hat_ap"]}))
               for loss in loss_grid(defaults["from"], defaults["to"], defaults["points"])]
        monkeypatch.setattr(finite_size, "_zeta_exponent", counted)
        for eq in eqs:
            calls.clear()
            theta_random_sampling(eq, sec.x_fraction, sec.total_pulses, sec.eps_e)
            assert len(calls) <= 22

    def test_rates_sweep_thetas_are_pinned(self):
        """Every theta of ``rates --points 4000``, both scenarios: the sha256 of
        each float's repr (or the exception's type name), one per line, so a
        change to the solver's evaluation order that moves any theta by one
        bit fails here."""
        defaults = cli._DEFAULTS["rates"]
        sec = SecurityParams()
        outcomes = []
        for p_hat in (0.0, defaults["p_hat_ap"]):
            scenario = scenario_from_params({"p_hat": p_hat})
            losses = loss_grid(defaults["from"], defaults["to"], 4000)
            for cell in scenario.entropy(scenario.taus(losses)).cells():
                outcome = _theta_outcome(theta_random_sampling, cell.eq, sec.x_fraction,
                                         sec.total_pulses, sec.eps_e)
                outcomes.append(outcome.__name__ if isinstance(outcome, type)
                                else repr(outcome))
        assert len(outcomes) == 8000
        assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == (
            "7b57f7adfc25c3ede8ca41af5c10beedc3020735dfea2709dd4892a203b75fcb")

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
                                theta, _zeta_slope(eq, q_x, theta), value)
        assert error <= g / 8


class TestRates:
    def test_saturated_error_rate_clamps_to_zero(self):
        report = simple_report(eq=0.4)
        assert _bits_after(1e9, report, 0.2, 100) == 0.0

    def test_theta_zero_te_zero_recovers_hmin_a(self):
        report = simple_report()
        expected = 1e9 * ((report.hmin_z * report.q_single + report.q_double)
                          * (1.0 - binary_entropy(report.eq)) - report.q_double)
        assert _bits_after(1e9, report, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_entropy_inequality_subtraction(self):
        # 2 log2(1/eps_all) bits: 98 at eps_all = 2^-49, 2 at eps_all = 1/2
        assert scenario_from_params({})._entropy_inequality[1] == 98.0
        assert scenario_from_params({"eps_all": 0.5})._entropy_inequality[1] == 2.0
        scenario = scenario_from_params({})
        report = scenario.entropy(scenario.taus(1.5))
        theta = theta_entropy_inequality(scenario.security.n_z, scenario.security.n_x,
                                         scenario.security.eps_all)
        assert scenario.rates(report)["entropy_inequality"] == _bits_after(
            scenario.security.n_z, report, theta, 98.0)

    def test_rates_non_increasing_in_theta(self):
        report = simple_report()
        for cost in (100, 98.0):
            values = [_bits_after(1e9, report, th, cost)
                      for th in (0.0, 1e-5, 1e-3, 0.05, 0.3, 0.49)]
            assert values == sorted(values, reverse=True)


class TestHminAIsTheBracketAtZeroTheta:
    @pytest.mark.parametrize("above_half", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, above_half, data):
        inside, edge = st.floats(0.01, 0.99), st.floats(0.9, 1.0)
        tau_plus, tau_minus = (edge, st.floats(0.0, 0.1)) if above_half else (inside, edge)
        e_d, worst = data.draw(st.floats(0.0, 0.01)), data.draw(st.floats(0.0, 0.05))
        z_arm = ArmState.from_totals(data.draw(inside), e_d, worst, data.draw(inside), e_d,
                                     worst)
        x_arm = ArmState.from_totals(data.draw(tau_plus), e_d, worst, data.draw(tau_minus),
                                     e_d, worst)
        report = make_entropy_report(z_arm, x_arm)
        assert (report.eq > 0.5) == above_half
        assert report.hmin_a == _bracket(report, 0.0)


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"total_pulses": math.nan}, "total_pulses must be >= 1, got nan"),
        ({"t_e": math.nan}, "t_e must be >= 1, got nan"),
        ({"z_rate": -5.0}, "z_rate must be >= 0, got -5.0"),
        ({"z_rate": math.nan}, "z_rate must be >= 0, got nan"),
        ({"total_pulses": 10.0}, r"N = 10 and q_x = 0.02 leave n_x = 0.2 and n_z = 9.8"),
        ({"x_fraction": 5e-324}, r"N = 1e\+10 and q_x = 4.94066e-324 leave n_x = 4.94066e-314"),
        ({"total_pulses": 2.0, "x_fraction": 0.9}, r"n_z = 0.2 pulses; both must be >= 1"),
    ])
    def test_rejects_nan_negative_rate_and_empty_basis(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            SecurityParams(**kwargs)

    def test_smallest_bases_accepted(self):
        sec = SecurityParams(total_pulses=2.0, x_fraction=0.5, z_rate=0.0)
        assert sec.n_x == sec.n_z == 1.0


def _taus_at(nu=10.0, e_q=0.02):
    source = poisson_distribution(nu)
    return measurement_taus(source, make_detectors(), misalignment=e_q)


class TestMonitored:
    def _scenario(self, spec=None):
        # monitored takes the vacuum probabilities, so nu plays no part here
        return RateScenario(make_detectors(spec=spec)), _taus_at()

    @pytest.mark.parametrize("p_hat", [0.0, 0.05, 0.6])
    def test_zero_delta_equals_point_rate_exactly(self, p_hat):
        # every cell of the default rates sweep, as cmd_rates evaluates it
        scenario = scenario_from_params({"p_hat": p_hat})
        defaults = cli._DEFAULTS["rates"]
        losses = loss_grid(defaults["from"], defaults["to"], defaults["points"])
        cells = list(scenario.entropy(scenario.taus(losses)).cells())
        got = [scenario.monitored(scenario.taus(loss), 0.0) for loss in losses.tolist()]
        assert [bits for _, bits in got] == [scenario.rates(cell)["random_sampling"]
                                            for cell in cells]
        # theta too, nan where no theta is admissible
        np.testing.assert_array_equal([theta for theta, _ in got],
                                      [scenario._random_sampling(cell)[0] for cell in cells])

    def test_non_increasing_in_delta(self):
        scenario, taus = self._scenario()
        values = [scenario.monitored(taus, d, grid_points=9)[1]
                  for d in (0.0, 0.01, 0.05, 0.1)]
        assert values == sorted(values, reverse=True)

    def test_final_never_exceeds_point_rate(self):
        scenario, taus = self._scenario(AfterpulseSpec.exponential_from_rate(0.05, 0.001))
        sec = scenario.security
        theta, bits = scenario.monitored(taus, 0.02, grid_points=9)
        assert bits <= _bits_after(sec.n_z, scenario.entropy(taus), theta, sec.t_e)

    @pytest.mark.parametrize("delta_d", [math.nan, -1e-3])
    def test_nan_or_negative_radius_is_named(self, delta_d):
        scenario, taus = self._scenario()
        with pytest.raises(ParameterError, match=f"^delta_d must be >= 0, got {delta_d}$"):
            scenario.monitored(taus, delta_d)


class TestHminWithTauUncertainty:
    def test_zero_delta_is_point_value(self):
        dets, taus = make_detectors(), _taus_at()
        report = entropy_report_from_taus(dets, taus)
        h = hmin_with_tau_uncertainty(dets, taus, delta=0.0, grid_points=2)
        assert h == pytest.approx(report.hmin_a, rel=1e-12)

    def test_monotone_in_delta(self):
        dets, taus = make_detectors(), _taus_at()
        values = [hmin_with_tau_uncertainty(dets, taus, delta=d, grid_points=17)
                  for d in (0.0, 0.005, 0.02, 0.08)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_fewer_than_two_grid_points_rejected(self, grid_points):
        # 0 points used to return inf; 1 point saw only the lower corner
        args = (make_detectors(), _taus_at())
        with pytest.raises(ParameterError, match="grid_points must be >= 2"):
            hmin_with_tau_uncertainty(*args, delta=0.01, grid_points=grid_points)
        with pytest.raises(ParameterError, match="grid_points must be >= 2"):
            RateScenario(args[0]).monitored(args[1], 0.01, grid_points=grid_points)

    def test_box_reaching_vacuum_without_noise_is_degenerate(self):
        # tau = 1 with e_d = 0 and no afterpulse: neither detector can click
        with pytest.raises(DegenerateError):
            hmin_with_tau_uncertainty(make_detectors(e_d=0.0), _taus_at(nu=1.0),
                                      delta=0.1, grid_points=5)


def _cell_loop_min_bracket(dets, boxes, x_arm, theta, grid_points):
    """Reference: the bracket minimum evaluated one float cell at a time."""
    best = math.inf
    for t0 in np.linspace(boxes[0][0], boxes[0][1], grid_points):
        for t1 in np.linspace(boxes[1][0], boxes[1][1], grid_points):
            z_arm = ArmState.from_detectors(dets[0], float(t0), dets[1], float(t1))
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
        dets = make_detectors(spec=spec, eta_1=eta_1)
        taus = measurement_taus(poisson_distribution(nu), dets, misalignment=0.02)
        boxes = [clipped_interval(tau, delta) for tau in taus]
        args = (dets, boxes, _worst_eq_arm(dets, boxes), theta, grid_points)
        assert _outcome(_min_bracket_over_taus, *args) == \
            _outcome(_cell_loop_min_bracket, *args)

    @staticmethod
    def grid_args(nu, delta, theta_share, p_hat, eta_1, grid_points):
        """Arguments of the grid minimum around the exact vacuum probabilities,
        with theta = ``theta_share`` (1/2 - EQ) at the box's worst-case EQ."""
        dets = make_detectors(spec=AfterpulseSpec.exponential_from_rate(p_hat, 0.001),
                              eta_1=eta_1)
        taus = measurement_taus(poisson_distribution(nu), dets, misalignment=0.02)
        boxes = [clipped_interval(tau, delta) for tau in taus]
        x_arm = _worst_eq_arm(dets, boxes)
        theta = theta_share * max(0.5 - x_basis_error(x_arm.p_a, x_arm.p_b), 0.0)
        return dets, boxes, x_arm, theta, grid_points

    # Zero-width boxes, where every cell ties and the screen keeps them all;
    # boxes clipped at 1 (nu 1) and at 0 (nu 50); theta up to 1/2 - EQ;
    # p_hat 0.6, which clamps the total; eta_1 != eta.
    @settings(max_examples=60, deadline=None)
    @given(nu=st.sampled_from([1.0, 10.0, 50.0]) | st.floats(0.5, 60.0),
           delta=st.sampled_from([0.0, 0.01, 0.1, 0.2, 0.55]) | st.floats(0.0, 0.6),
           theta_share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           p_hat=st.sampled_from([0.0, 0.05, 0.6]),
           eta_1=st.sampled_from([0.1, 0.06]) | st.floats(0.01, 0.3),
           grid_points=st.integers(2, 64))
    @example(nu=10.0, delta=0.0, theta_share=0.0, p_hat=0.05, eta_1=0.1, grid_points=64)
    @example(nu=10.0, delta=0.0, theta_share=1.0, p_hat=0.6, eta_1=0.06, grid_points=64)
    @example(nu=50.0, delta=0.1, theta_share=1.0, p_hat=0.05, eta_1=0.06, grid_points=64)
    @example(nu=1.0, delta=0.2, theta_share=0.5, p_hat=0.0, eta_1=0.1, grid_points=33)
    @example(nu=10.0, delta=1e-12, theta_share=0.0, p_hat=0.05, eta_1=0.06, grid_points=64)
    def test_screen_equals_cell_loop(self, nu, delta, theta_share, p_hat, eta_1,
                                     grid_points):
        args = self.grid_args(nu, delta, theta_share, p_hat, eta_1, grid_points)
        assert _outcome(_min_bracket_over_taus, *args) == \
            _outcome(_cell_loop_min_bracket, *args)

    @pytest.mark.parametrize("nu,delta", [(10.0, 0.0), (10.0, 1e-12), (10.0, 0.01),
                                          (50.0, 0.1), (1.0, 0.2)])
    @pytest.mark.parametrize("p_hat", [0.0, 0.05])
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("error", ["relative 2^-45", "absolute 2^-31"])
    def test_screen_absorbs_a_perturbed_numpy_log2(self, monkeypatch, nu, delta, p_hat,
                                                   parity, error):
        # NumPy's log2 off by +-2^-45 relative, or by +-2^-31, half the
        # screen's bound, with the sign alternating from cell to cell.  On the
        # 1e-12 box the cells differ by far less than 2^-31, so a screen
        # without its margin would keep a cell that does not hold the minimum.
        args = self.grid_args(nu, delta, 0.0, p_hat, 0.06, 64)
        want = _min_bracket_over_taus(*args)
        log2, calls = np.log2, []

        def perturbed(x):
            calls.append(x.size)
            sign = np.where(np.indices(x.shape).sum(axis=0) % 2 == parity, 1.0, -1.0)
            if error == "relative 2^-45":
                return log2(x) * (1.0 + sign * 2.0**-45)
            return log2(x) + sign * 2.0**-31

        monkeypatch.setattr(np, "log2", perturbed)
        assert _min_bracket_over_taus(*args) == want
        assert calls == [4096]


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
        taus = scenario.taus(1.5)
        report = scenario.entropy(taus)
        point = scenario.rates(report)["random_sampling"]
        sec = scenario.security
        theta, bits = scenario.monitored(taus, hoeffding_delta(10**4, sec.eps_d))
        assert bits < point
        assert bits <= _bits_after(sec.n_z, report, theta, sec.t_e)

    @pytest.mark.parametrize("nu", [1.0, 10.0])
    @pytest.mark.parametrize("loss_db", [0.0, 1.5, 3.0])
    def test_monitored_worst_eq_above_half_gives_zero_bits(self, nu, loss_db):
        # 100 monitor samples widen the check-arm box until its worst-case EQ
        # passes 1/2, where no theta exists.
        scenario = scenario_from_params({"p_hat": 0.3, "nu": nu})
        theta, bits = scenario.monitored(scenario.taus(loss_db),
                                         hoeffding_delta(100, scenario.security.eps_d))
        assert math.isnan(theta) and bits == 0.0

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

