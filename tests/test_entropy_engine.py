import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from siqrng import (
    AfterpulseSpec,
    DegenerateError,
    DetectorParams,
    ParameterError,
    SiqrngError,
    binary_entropy,
    click_probabilities,
    empirical_autocorrelation,
    expectation_k,
    hmin_a,
    lagged_response_probs,
    poisson_distribution,
    prior_autocorrelation,
    x_basis_error,
)
from siqrng.entropy_engine import (
    ArmState,
    EntropyReport,
    TauSet,
    _hmin_z_from_pairs,
    _max_guess_ratio,
    autocorrelation_stderr,
    entropy_report_from_taus,
    make_entropy_report,
    measurement_taus,
    stationary_click_prob,
    worst_afterpulse,
    worst_afterpulse_exponential,
)

from conftest import make_detectors
from references import dense_autocorrelation


def hmin_z(det_0, tau_0, det_1, tau_1):
    """The generation-arm hmin_z of every entropy report, as
    :func:`make_entropy_report` computes it."""
    arm = ArmState.from_detectors(det_0, tau_0, det_1, tau_1)
    return _hmin_z_from_pairs(arm.p1_a, arm.p0_a, arm.p1_b, arm.p0_b)


class TestClickProbabilities:
    def test_dead_detectors(self):
        assert click_probabilities(0.0, 0.0) == (0.0, 0.0)

    def test_saturated_detectors(self):
        assert click_probabilities(1.0, 1.0) == (0.0, 1.0)

    def test_hand_value(self):
        qs, qd = click_probabilities(0.1, 0.2)
        assert qs == pytest.approx(0.26, rel=1e-15)
        assert qd == pytest.approx(0.02, rel=1e-15)


class TestXBasisError:
    def test_no_wrong_port_clicks(self):
        assert x_basis_error(p_plus=0.7, p_minus=0.0) == 0.0

    def test_all_double_clicks(self):
        assert x_basis_error(p_plus=1.0, p_minus=1.0) == 0.5

    def test_hand_value(self):
        assert x_basis_error(p_plus=0.2, p_minus=0.01) == pytest.approx(0.009, rel=1e-12)


class TestBinaryEntropy:
    def test_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)

    def test_symmetry(self):
        for x in (0.01, 0.2, 0.37):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.01)
        with pytest.raises(ParameterError):
            binary_entropy(1.01)


class TestExpectationK:
    def test_symmetric(self):
        assert expectation_k(0.3, 0.3) == pytest.approx(0.5, rel=1e-15)

    def test_hand_value(self):
        assert expectation_k(0.1, 0.2) == pytest.approx(0.18 / 0.26, rel=1e-12)

    def test_one_detector_dead(self):
        assert expectation_k(0.1, 0.0) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            expectation_k(0.0, 0.0)
        with pytest.raises(DegenerateError):
            expectation_k(1.0, 1.0)


class TestHminZWorstcase:
    def test_identical_afterpulse_free_is_one_bit(self):
        det0, det1, _, _ = make_detectors()
        tau = math.exp(-0.5)
        assert hmin_z(det0, tau, det1, tau) == pytest.approx(1.0, abs=1e-15)

    def test_label_swap_invariance(self):
        spec = AfterpulseSpec.exponential_from_rate(0.05, 0.001)
        det0, det1, _, _ = make_detectors(spec=spec, eta_1=0.08)
        tau0, tau1 = math.exp(-0.5), math.exp(-0.4)
        assert hmin_z(det0, tau0, det1, tau1) == pytest.approx(
            hmin_z(det1, tau1, det0, tau0), rel=1e-14)

    def test_non_increasing_in_afterpulse(self):
        tau = math.exp(-0.5)
        values = []
        for p_hat in (0.0, 0.02, 0.05, 0.1, 0.2):
            spec = (AfterpulseSpec.none() if p_hat == 0.0
                    else AfterpulseSpec.exponential_from_rate(p_hat, 0.001))
            det0, det1, _, _ = make_detectors(spec=spec)
            values.append(hmin_z(det0, tau, det1, tau))
        assert values == sorted(values, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_hand_computed_operating_point(self):
        spec = AfterpulseSpec.exponential_from_rate(0.1, 0.001)
        det0, det1, _, _ = make_detectors(spec=spec)
        tau = math.exp(-0.5)
        p1 = 1.0 - tau * (1.0 - 6e-7) * (1.0 - spec.worst_case_total())
        p0 = 1.0 - tau * (1.0 - 6e-7)
        x, y = p1 * (1.0 - p0), p0 * (1.0 - p1)
        expected = -math.log2(max(x, y) / (x + y))
        assert hmin_z(det0, tau, det1, tau) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_error(self):
        det0, det1, _, _ = make_detectors(e_d=0.0)
        with pytest.raises(DegenerateError):
            hmin_z(det0, 1.0, det1, 1.0)

    def test_extreme_rate_clamps(self):
        # p_hat > 1/2 drives the geometric worst case above 1; it is capped
        spec = AfterpulseSpec(mode="explicit", coefficients=(0.3, 0.3), window_depth=None)
        det0, det1, _, _ = make_detectors(spec=spec)
        h = hmin_z(det0, math.exp(-0.5), det1, math.exp(-0.5))
        assert 0.0 <= h <= 1.0


class TestHminA:
    def test_error_free_reduces(self):
        assert hmin_a(0.8, 0.4, 0.0, 0.0) == pytest.approx(0.32, rel=1e-12)

    def test_half_error_kills_first_term(self):
        assert hmin_a(0.9, 0.5, 0.2, 0.5) == pytest.approx(-0.2, rel=1e-12)

    def test_monotone_in_error_rate(self):
        values = [hmin_a(0.9, 0.5, 0.1, eq) for eq in np.linspace(0.0, 0.5, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_reported_raw(self):
        assert hmin_a(0.0, 0.0, 0.5, 0.4) < 0.0


class TestLaggedResponseProbs:
    def test_zero_coefficient_lag_independent(self):
        spec = AfterpulseSpec.explicit([0.0, 0.05])
        det = DetectorParams(0.1, 6e-7, spec, label="0")
        fired, not_fired = lagged_response_probs(det, math.exp(-0.05), lag=1)
        assert fired == pytest.approx(not_fired, rel=1e-15)

    def test_fired_dominates(self):
        spec = AfterpulseSpec.explicit([0.03, 0.02])
        det = DetectorParams(0.1, 6e-7, spec, label="0")
        for lag in (1, 2):
            fired, not_fired = lagged_response_probs(det, math.exp(-0.05), lag=lag)
            assert fired >= not_fired

    def test_not_fired_probability_never_negative(self):
        # in an explicit table p_hat_lag <= p_hat, so the background
        # p_hat/(1-p_hat)*p_b dominates the lag correction p_hat_lag*p_b;
        # without dark counts the prior p_b is 1 - tau
        for p1, p2, prior in [(0.4999, 0.0001, 0.001), (0.05, 0.0, 1.0),
                              (0.01, 0.04, 0.3)]:
            spec = AfterpulseSpec.explicit([p1, p2])
            det = DetectorParams(0.1, 0.0, spec, label="0")
            tau = 1.0 - prior
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                fired, not_fired = lagged_response_probs(det, tau, lag=1)
            base = 1.0 - tau
            assert not_fired >= base - 1e-15


    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.floats(math.log(1e-300), math.log(0.1)).map(math.exp),
                  st.floats(math.log(1e-3), math.log(10.0)).map(math.exp),
                  st.one_of(st.none(), st.integers(1, 1000))),
        st.lists(st.one_of(st.floats(0.0, 0.12), st.floats(-690.0, -23.0).map(math.exp)),
                 min_size=1, max_size=8)),
        st.floats(0.0, 1.0))
    # one window of history, whose p_hat rounded an ulp below p_hat_1 with
    # the form A e (1 - e^m)/(1 - e)
    @example((3.1972436011946124e-298, 0.01935601124833297, 1), 0.4441076342346534)
    def test_p_hat_dominates_every_coefficient(self, profile, tau):
        """The float p_hat is >= every lag coefficient, so the not-fired
        probability stays >= 0 at every lag, with no warning
        (lagged_response_probs' docstring gives the proof)."""
        try:
            spec = (AfterpulseSpec.exponential(*profile) if isinstance(profile, tuple)
                    else AfterpulseSpec.explicit(profile))
        except SiqrngError:     # unlimited history needs decay > ln(1 + A)
            assume(False)
        p_hat = spec.first_order_rate
        assume(p_hat <= 0.5)    # so that no probability exceeds 1
        depth = spec.window_depth
        lags = range(1, (1000 if depth is None else depth) + 2)
        assert all(p_hat >= spec.coefficient(lag) for lag in lags)
        det = DetectorParams(0.1, 6e-7, spec, label="0")
        for lag in {1, 2, lags[-2], lags[-1]}:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, not_fired = lagged_response_probs(det, tau, lag=lag)
            assert not_fired >= 1.0 - tau * (1.0 - 6e-7)


class TestPriorAutocorrelation:
    def setup_method(self):
        self.source = poisson_distribution(1.0)
        self.taus = measurement_taus(self.source, make_detectors())

    def _detectors(self, p1, p2, eta_1=None):
        spec = AfterpulseSpec.explicit([p1, p2])
        return make_detectors(spec=spec, eta_1=eta_1)

    def test_zero_lag_coefficient_gives_zero(self):
        det0, det1, _, _ = self._detectors(0.0, 0.05)
        a = prior_autocorrelation(det0, self.taus.tau_0, det1, self.taus.tau_1, 1)
        assert a == pytest.approx(0.0, abs=1e-15)

    def test_identical_detectors_linear_identity(self):
        # the coefficient cancellation leaves exactly tau*(1-e_d)*p_hat_lag
        tau = self.taus.tau_0
        for p1 in (0.01, 0.03, 0.05):
            det0, det1, _, _ = self._detectors(p1, 0.05 - p1)
            a = prior_autocorrelation(det0, tau, det1, tau, 1)
            assert a == pytest.approx(tau * (1.0 - 6e-7) * p1, rel=1e-12)

    def test_quadratic_fit_identical_vs_mismatched(self):
        grid = np.linspace(0.005, 0.045, 5)
        tau0 = self.taus.tau_0

        def series(eta_1):
            values = []
            for p1 in grid:
                dets = self._detectors(float(p1), 0.05 - float(p1), eta_1=eta_1)
                det0, det1, _, _ = dets
                tau1 = measurement_taus(self.source, dets).tau_1
                values.append(prior_autocorrelation(det0, tau0, det1, tau1, 1))
            return np.polyfit(grid, values, 2)

        c2_same = series(None)[0]
        c2_diff = series(0.2)[0]
        assert abs(c2_same) < 1e-12
        assert abs(c2_diff) > 1e-6


class TestEmpiricalAutocorrelation:
    def test_alternating_sequence(self):
        bits = np.tile([0, 1], 500)
        assert empirical_autocorrelation(bits, 1) == pytest.approx(-1.0, abs=2e-3)

    def test_period_four_pattern_lag_two(self):
        bits = np.tile([0, 0, 1, 1], 250)
        assert empirical_autocorrelation(bits, 2) == pytest.approx(-1.0, abs=5e-3)

    def test_iid_bits_null_bound(self):
        rng = np.random.default_rng(99)
        n = 10**6
        bits = rng.integers(0, 2, size=n)
        for lag in (1, 2, 7):
            assert abs(empirical_autocorrelation(bits, lag)) < 4.0 / math.sqrt(n)

    def test_constant_sequence_degenerate(self):
        with pytest.raises(DegenerateError):
            empirical_autocorrelation(np.ones(100), 1)

    def test_masked_matches_dense_on_full_mask(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=5000)
        dense = dense_autocorrelation(bits, 3)
        masked = empirical_autocorrelation(bits, 3, mask=np.ones(5000, dtype=bool))
        # the masked numerator skips nothing on a full mask
        assert masked == pytest.approx(dense, rel=1e-12)
        assert empirical_autocorrelation(bits, 3) == pytest.approx(dense, rel=1e-12)

    def test_masked_ignores_invalid_entries(self):
        bits = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        mask = np.array([True, True, False, True, True, True, True, True])
        a = empirical_autocorrelation(bits, 1, mask=mask)
        assert a < 0.0

    def test_stderr_counts_pairs(self):
        mask = np.array([True, False, True, True, False, True])
        # pairs at lag 1: (2,3) only -> sqrt(1)/4
        assert autocorrelation_stderr(mask, 1) == pytest.approx(0.25, rel=1e-12)


class TestReportAssembly:
    def test_report_fields_and_json(self):
        det0, det1, detp, detm = make_detectors(
            spec=AfterpulseSpec.exponential_from_rate(0.05, 0.001))
        taus = measurement_taus(poisson_distribution(10.0), (det0, det1, detp, detm),
                                misalignment=0.02)
        report = entropy_report_from_taus((det0, det1, detp, detm), taus)
        data = dataclasses.asdict(report)
        assert set(data) == {"hmin_z", "hmin_a", "q_single", "q_double", "eq"}
        assert 0.0 <= report.hmin_z <= 1.0
        assert report.q_single + report.q_double <= 1.0

    def test_arm_state_consistency(self):
        det0, det1, _, _ = make_detectors()
        tau = math.exp(-0.5)
        arm = ArmState.from_detectors(det0, tau, det1, tau)
        assert arm.p_a == pytest.approx(stationary_click_prob(det0, tau), rel=1e-15)
        assert arm.p1_a == arm.p0_a    # no afterpulse: both histories agree

    def test_misalignment_increases_error_rate(self):
        det0, det1, detp, detm = make_detectors()
        src = poisson_distribution(10.0)
        reports = []
        for e_q in (0.0, 0.02):
            taus = measurement_taus(src, (det0, det1, detp, detm), misalignment=e_q)
            reports.append(entropy_report_from_taus((det0, det1, detp, detm), taus))
        assert reports[1].eq > reports[0].eq
        assert reports[1].hmin_a < reports[0].hmin_a


_unit = st.floats(0.0, 1.0)    # hypothesis draws 0 and 1 among its first cases
_row = st.tuples(_unit, _unit, _unit, _unit,                  # tau_0, tau_1, tau_+, tau_-
                 st.one_of(st.sampled_from([0.0, 0.5, 0.75]),  # p_hat; > 1/2 clamps
                           st.floats(0.0, 0.9, exclude_max=True)),
                 st.sampled_from([1e-3, 0.05, 1.0]),            # omega
                 st.one_of(st.none(), st.just(0), st.integers(1, 2000)))


def _scalar_or_error(fn):
    try:
        return fn()
    except SiqrngError as exc:
        return type(exc)


def _four_ratio_max(p1_0, p0_0, p1_1, p0_1):
    """Reference: the largest guessing ratio over all four worst-case pairs,
    one float at a time."""
    best = 0.0
    for pm, pn in ((p1_0, p0_1), (p0_1, p1_0), (p1_1, p0_0), (p0_0, p1_1)):
        x = pm * (1.0 - pn)
        y = pn * (1.0 - pm)
        if x + y == 0.0:
            raise DegenerateError("single-click probability vanishes in the worst case")
        best = max(best, x / (x + y))
    return best


class TestMaxGuessRatio:
    """Each swapped pair is evaluated once, as the larger of x and y over
    their sum, with the same float as the four ratios taken one by one."""

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.tuples(_unit, _unit, _unit, _unit), min_size=1, max_size=8))
    def test_equals_the_four_ratios(self, cells):
        want = [_scalar_or_error(lambda c=c: _four_ratio_max(*c)) for c in cells]
        for cell, value in zip(cells, want):
            assert _scalar_or_error(lambda: _max_guess_ratio(*cell)) == value
        columns = [np.array(column) for column in zip(*cells)]
        errors = {v for v in want if isinstance(v, type)}
        if errors:
            with pytest.raises(tuple(errors)):
                _max_guess_ratio(*columns)
        else:
            assert _max_guess_ratio(*columns).tolist() == want


class TestBroadcastChain:
    """Every cell of a broadcast report equals the scalar chain for its row."""

    @staticmethod
    def check_cells(broadcast, scalars):
        errors = {r for r in scalars if isinstance(r, type)}
        event("some row raises" if errors else "no row raises")
        if errors:
            with pytest.raises(tuple(errors)):
                broadcast()
            return
        cells = broadcast().cells()
        assert ([dataclasses.asdict(c) for c in cells]
                == [dataclasses.asdict(r) for r in scalars])

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_row, min_size=1, max_size=12), e_d=st.floats(0.0, 0.1))
    def test_afterpulse_axis_and_tau_axis(self, rows, e_d):
        specs = [AfterpulseSpec.exponential_from_rate(p_hat, omega, depth)
                 for *_, p_hat, omega, depth in rows]
        taus = TauSet(*(np.array(column) for column in list(zip(*rows))[:4]))

        def scalar(row, spec):
            dets = make_detectors(e_d=e_d, spec=spec)
            return _scalar_or_error(lambda: entropy_report_from_taus(dets, TauSet(*row[:4])))

        def along_specs():
            worst = np.array([worst_afterpulse(spec) for spec in specs])
            return make_entropy_report(
                ArmState.from_totals(taus.tau_0, e_d, worst, taus.tau_1, e_d, worst),
                ArmState.from_totals(taus.tau_plus, e_d, worst, taus.tau_minus, e_d, worst))

        self.check_cells(along_specs, [scalar(row, spec) for row, spec in zip(rows, specs)])

        # one detector set along tau only, as RateScenario.entropy broadcasts it
        dets = make_detectors(e_d=e_d, spec=specs[0])
        self.check_cells(
            lambda: entropy_report_from_taus(dets, taus),
            [scalar(row, specs[0]) for row in rows])

    @settings(max_examples=60, deadline=None)
    @given(ratios=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
           eta=st.floats(0.01, 0.1), e_q=st.floats(0.0, 0.5))
    def test_efficiency_mismatch_taus(self, ratios, eta, e_q):
        source = poisson_distribution(10.0)
        eta_1 = np.array(ratios) * eta
        taus = measurement_taus(source, make_detectors(eta=eta, eta_1=eta_1),
                                misalignment=e_q)
        for i, ratio in enumerate(ratios):
            own = measurement_taus(source, make_detectors(eta=eta, eta_1=ratio * eta),
                                   misalignment=e_q)
            assert taus.tau_1[i] == own.tau_1
            assert (taus.tau_0, taus.tau_plus, taus.tau_minus) == (
                own.tau_0, own.tau_plus, own.tau_minus)

    def test_cells_of_an_array_are_python_floats(self):
        report = EntropyReport(hmin_z=np.array([0.5, 0.25]), hmin_a=0.1,
                               q_single=np.array([0.2, 0.3]), q_double=0.01, eq=0.02)
        cells = list(report.cells())
        assert [type(v) for c in cells for v in dataclasses.asdict(c).values()] == [float] * 10
        assert cells[1] == EntropyReport(0.25, 0.1, 0.3, 0.01, 0.02)

    def test_cells_are_not_checked_again(self, monkeypatch):
        report = EntropyReport(hmin_z=np.array([0.5, 0.25]), hmin_a=0.1,
                               q_single=np.array([0.2, 0.3]), q_double=0.01, eq=0.02)

        def fail(self):
            raise AssertionError("a cell was checked again")

        monkeypatch.setattr(EntropyReport, "__post_init__", fail)
        assert [c.hmin_z for c in report.cells()] == [0.5, 0.25]


class TestWorstAfterpulseExponential:
    """The array totals of the hmin afterpulse sweep equal the clamped total
    of each rate's own spec, bit for bit."""

    RATES = np.linspace(0.0, 0.999, 667)

    @pytest.mark.parametrize("depth", [None, 0, 1, 2, 1000])
    @pytest.mark.parametrize("omega", [1e-16, 1e-9, 1e-3, 0.5, 2.0, 30.0])
    def test_matches_the_spec_of_each_rate(self, omega, depth):
        want = []
        for rate in self.RATES.tolist():
            try:
                spec = AfterpulseSpec.exponential_from_rate(rate, omega, depth)
            except SiqrngError:
                break    # every check is monotone in the rate: all later rates fail
            want.append(worst_afterpulse(spec))
        assert len(want) > 100
        got = worst_afterpulse_exponential(self.RATES[:len(want)], omega, depth)
        assert got.tolist() == want

    def test_finite_total_branches_are_reached(self):
        """The grid above meets every branch of total_afterpulse_finite."""
        def ratio(omega):
            amplitude = self.RATES[1:] * math.expm1(omega)
            return (1.0 + amplitude) * np.exp(-omega)

        # the removable singularity (1+A)e^-w = 1 at every rate
        assert np.all(np.abs(ratio(1e-16) - 1.0) < 1e-14)
        # ratio^1000 underflows for the small rates only
        underflow = 1000 * np.log(ratio(2.0)) < -745.0
        assert underflow.any() and not underflow.all()

    def test_zero_rates_need_no_valid_decay(self):
        for omega in (0.0, -1.0, 1000.0):
            for depth in (None, 0, 3):
                assert worst_afterpulse_exponential(np.zeros(3), omega, depth).tolist() == [
                    0.0, 0.0, 0.0]
