import json
import math

import numpy as np
import pytest

from siqrng import (
    AfterpulseSpec,
    ConvergenceError,
    DetectorParams,
    ParameterError,
    afterpulse_coeff,
    afterpulse_prob_infinite,
    response_prob,
    response_prob_no_afterpulse,
    total_afterpulse_finite,
)
from siqrng.detector_model import composition_total

from conftest import brute_force_composition_total
from references import total_afterpulse_infinite


class TestResponseProbNoAfterpulse:
    def test_vacuum_never_clicks(self):
        assert response_prob_no_afterpulse(1.0, 0.0) == 0.0

    def test_photon_always_clicks(self):
        assert response_prob_no_afterpulse(0.0, 0.0) == 1.0

    def test_coherent_operating_point(self):
        # oracle: the binomially thinned Poisson series collapses to e^(-nu*eta)
        tau = math.exp(-0.1)
        series, term = 0.0, math.exp(-1.0)
        for n in range(1, 201):
            series += term
            term *= 0.9 / n
        assert series == pytest.approx(tau, rel=1e-14)
        assert response_prob_no_afterpulse(tau, 6e-7) == pytest.approx(
            0.09516312486649125, rel=1e-12)

    @pytest.mark.parametrize("tau,e_d", [(-0.1, 0.0), (1.1, 0.0), (0.5, -1e-9), (0.5, 2.0)])
    def test_domain(self, tau, e_d):
        with pytest.raises(ParameterError):
            response_prob_no_afterpulse(tau, e_d)


class TestAfterpulseProbInfinite:
    def test_no_afterpulse(self):
        assert afterpulse_prob_infinite(0.0, 0.5) == 0.0

    def test_worst_case_branch(self):
        assert afterpulse_prob_infinite(0.05, 1.0) == pytest.approx(
            0.05263157894736842, rel=1e-12)

    def test_half_half(self):
        assert afterpulse_prob_infinite(0.5, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_rate_one(self):
        with pytest.raises(ParameterError):
            afterpulse_prob_infinite(1.0, 0.5)


class TestResponseProb:
    def test_reduces_without_afterpulse(self):
        for tau, e_d in [(0.3, 0.0), (0.9, 1e-6), (1.0, 0.0)]:
            assert response_prob(tau, e_d, 0.0) == response_prob_no_afterpulse(tau, e_d)

    def test_certain_afterpulse_forces_click(self):
        assert response_prob(0.9, 0.0, 1.0) == 1.0

    def test_operating_point(self):
        tau = math.exp(-0.1)
        expected = 1.0 - tau * (1.0 - 6e-7) * (1.0 - 0.05 / 0.95)
        assert response_prob(tau, 6e-7, 0.05 / 0.95) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.14278611829457066, rel=1e-12)

    def test_monotone_in_afterpulse(self):
        values = [response_prob(0.8, 1e-6, p) for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
        assert values == sorted(values)

    def test_monotone_in_vacuum_and_dark(self):
        by_tau = [response_prob(t, 1e-6, 0.1) for t in (0.0, 0.3, 0.7, 1.0)]
        assert by_tau == sorted(by_tau, reverse=True)
        by_dark = [response_prob(0.8, d, 0.1) for d in (0.0, 1e-6, 1e-3, 0.5)]
        assert by_dark == sorted(by_dark)

    def test_array_checks_every_entry(self):
        taus = np.array([0.0, 0.3, 0.7, 1.0])
        assert response_prob(taus, 1e-6, 0.1).tolist() == [
            response_prob(float(t), 1e-6, 0.1) for t in taus]
        with pytest.raises(ParameterError, match="tau must lie in"):
            response_prob(np.array([0.2, 1.2, 0.5]), 1e-6, 0.1)
        with pytest.raises(ParameterError, match="p_ap must lie in"):
            response_prob(0.8, 1e-6, np.array([0.1, -0.1]))


class TestAfterpulseCoeff:
    def test_fast_detrapping_vanishes(self):
        assert afterpulse_coeff(0.1, 1e3, 1) == pytest.approx(0.0, abs=1e-300)

    def test_direct_value(self):
        assert afterpulse_coeff(0.1, 0.001, 1) == pytest.approx(
            0.09990004998333749, rel=1e-12)

    def test_geometric_sum_identity(self):
        a, w = 0.02, 0.01
        partial = sum(afterpulse_coeff(a, w, j) for j in range(1, 20000))
        closed = a * math.exp(-w) / (1.0 - math.exp(-w))
        assert partial == pytest.approx(closed, rel=1e-12)

    def test_rejects_zero_lag(self):
        with pytest.raises(ParameterError):
            afterpulse_coeff(0.1, 0.001, 0)


class TestTotalAfterpulseFinite:
    def test_no_history(self):
        assert total_afterpulse_finite(0.01, 0.001, 0) == 0.0

    def test_single_window(self):
        a, w = 0.01, 0.002
        assert total_afterpulse_finite(a, w, 1) == pytest.approx(
            a * math.exp(-w), rel=1e-14)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_composition_enumeration(self, m):
        a, w = 0.05 * math.expm1(0.001), 0.001
        coeffs = [afterpulse_coeff(a, w, j) for j in range(1, m + 1)]
        assert total_afterpulse_finite(a, w, m) == pytest.approx(
            brute_force_composition_total(coeffs, m), rel=1e-12)

    def test_monotone_in_windows_amplitude_decay(self):
        base = total_afterpulse_finite(0.01, 0.01, 50)
        assert total_afterpulse_finite(0.01, 0.01, 51) > base
        assert total_afterpulse_finite(0.012, 0.01, 50) > base
        assert total_afterpulse_finite(0.01, 0.012, 50) < base

    def test_removable_singularity_uses_limit(self):
        a = 0.01
        w = math.log1p(a)   # (1+A)e^-w == 1 exactly
        m = 37
        assert total_afterpulse_finite(a, w, m) == pytest.approx(
            m * a * math.exp(-w), rel=1e-12)


class TestTotalAfterpulseInfinite:
    def test_zero_amplitude(self):
        assert total_afterpulse_infinite(0.0, 0.01) == 0.0

    def test_limit_agreement(self):
        a, w = 0.001, 0.01
        inf = total_afterpulse_infinite(a, w)
        fin = total_afterpulse_finite(a, w, 10**6)
        assert fin == pytest.approx(inf, rel=1e-9)

    def test_consistency_with_first_order_rate(self):
        a, w = 0.001, 0.01
        p_hat = a * math.exp(-w) / (1.0 - math.exp(-w))
        assert total_afterpulse_infinite(a, w) == pytest.approx(
            afterpulse_prob_infinite(p_hat, 1.0), rel=1e-12)

    def test_divergence_rejected(self):
        with pytest.raises(ConvergenceError):
            total_afterpulse_infinite(0.5, 0.1)


class TestCompositionTotal:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_matches_enumeration_explicit(self, m):
        coeffs = [0.05, 0.02, 0.01]
        assert composition_total(coeffs, m) == pytest.approx(
            brute_force_composition_total(coeffs, m), rel=1e-12)

    def test_infinite_sum_identity(self):
        # sum_k f(k) converges to p_hat/(1-p_hat)
        coeffs = [0.04, 0.01]
        p_hat = sum(coeffs)
        assert composition_total(coeffs, 2000) == pytest.approx(
            p_hat / (1.0 - p_hat), rel=1e-12)


class TestAfterpulseSpec:
    def test_none_has_no_contribution(self):
        spec = AfterpulseSpec.none()
        assert spec.first_order_rate == 0.0
        assert spec.worst_case_total() == 0.0
        assert spec.coefficient(3) == 0.0

    def test_explicit_rate_and_worst_case(self):
        spec = AfterpulseSpec.explicit([0.03, 0.02])
        assert spec.first_order_rate == pytest.approx(0.05)
        assert spec.worst_case_total() == pytest.approx(
            brute_force_composition_total([0.03, 0.02], 2), rel=1e-12)

    def test_explicit_unlimited_history_closed_form(self):
        spec = AfterpulseSpec(mode="explicit", coefficients=(0.03, 0.02), window_depth=None)
        assert spec.window_depth is None
        assert spec.worst_case_total() == pytest.approx(0.05 / 0.95, rel=1e-12)

    def test_exponential_from_rate_round_trip(self):
        spec = AfterpulseSpec.exponential_from_rate(0.05, 0.001)
        assert spec.window_depth is None
        assert spec.first_order_rate == pytest.approx(0.05, rel=1e-12)
        assert spec.worst_case_total() == pytest.approx(0.05 / 0.95, rel=1e-10)

    def test_exponential_from_rate_rejects_negative_depth(self):
        # even at a zero rate, whose profile ignores the depth
        with pytest.raises(ParameterError, match=r"^window_depth must be >= 0, got -1$"):
            AfterpulseSpec.exponential_from_rate(0.0, 0.001, -1)

    @pytest.mark.parametrize("decay", [0.0, -0.5, math.nan])
    def test_exponential_from_rate_rejects_nonpositive_decay(self, decay):
        with pytest.raises(ParameterError, match=r"^decay must be > 0, got "):
            AfterpulseSpec.exponential_from_rate(0.05, decay)
        # a zero rate has no profile for the decay to shape
        assert AfterpulseSpec.exponential_from_rate(0.0, decay) == AfterpulseSpec.none()

    @pytest.mark.parametrize("depth", [None, 3])
    def test_exponential_from_rate_rejects_decay_below_resolution(self, depth):
        # exp(-1e-17) rounds to 1, so first_order_rate would divide by zero
        with pytest.raises(ParameterError, match=r"^decay must be large enough that "
                                                 r"exp\(-decay\) < 1, got 1e-17$"):
            AfterpulseSpec.exponential_from_rate(0.05, 1e-17, depth)

    def test_finite_depth_truncates_coefficients(self):
        spec = AfterpulseSpec.exponential(0.01, 0.001, window_depth=5)
        assert spec.coefficient(5) > 0.0
        assert spec.coefficient(6) == 0.0

    @pytest.mark.parametrize("depth", [-1, 2.0, math.inf, "3"])
    def test_depth_must_be_none_or_a_nonnegative_integer(self, depth):
        with pytest.raises(ParameterError, match=rf"^window_depth must be None or an "
                                                 rf"integer >= 0, got {depth!r}$"):
            AfterpulseSpec.exponential(1e-4, 0.001, window_depth=depth)

    def test_invalid_coefficients(self):
        with pytest.raises(ParameterError):
            AfterpulseSpec.explicit([1.0])
        with pytest.raises(ParameterError):
            AfterpulseSpec.explicit([-0.1])
        with pytest.raises(ParameterError):
            AfterpulseSpec.explicit([0.6, 0.5])   # overall rate >= 1

    def test_convergence_condition_enforced(self):
        with pytest.raises(ConvergenceError):
            AfterpulseSpec.exponential(0.2, 0.1, window_depth=None)
        # the same parameters are fine with a finite window
        AfterpulseSpec.exponential(0.2, 0.1, window_depth=3)

    def test_dict_round_trip(self):
        # the documented format; window_depth null means unlimited history
        def documented(mode, a, omega, coefficients, depth):
            return {"mode": mode, "A": a, "omega": omega, "coefficients": coefficients,
                    "window_depth": depth}

        for spec, expected in (
                (AfterpulseSpec.none(), documented("explicit", 0.0, 0.0, [], 0)),
                (AfterpulseSpec(mode="explicit", coefficients=(0.01, 0.005),
                                window_depth=10),
                 documented("explicit", 0.0, 0.0, [0.01, 0.005], 10)),
                (AfterpulseSpec.exponential(1e-4, 0.001),
                 documented("exponential", 1e-4, 0.001, [], None)),
                (AfterpulseSpec.exponential(1e-4, 0.001, window_depth=1000),
                 documented("exponential", 1e-4, 0.001, [], 1000))):
            assert json.loads(json.dumps(spec.to_dict())) == expected


class TestDetectorParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DetectorParams(efficiency=1.2, dark_rate=0.0)
        with pytest.raises(ParameterError):
            DetectorParams(efficiency=0.5, dark_rate=1.0)
        with pytest.raises(ParameterError):
            DetectorParams(efficiency=0.5, dark_rate=0.0, label="z")

    def test_json_schema_round_trip(self):
        det = DetectorParams(efficiency=0.1, dark_rate=6e-7,
                             afterpulse=AfterpulseSpec.exponential(1e-4, 0.001),
                             label="+")
        assert json.loads(json.dumps(det.to_dict())) == {
            "efficiency": 0.1, "dark_rate": 6e-7,
            "afterpulse": {"mode": "exponential", "A": 1e-4, "omega": 0.001,
                           "coefficients": [], "window_depth": None},
            "label": "+"}
