import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siqrng import (
    AfterpulseSpec,
    DetectorParams,
    ParameterError,
    PhotonDistribution,
    PulseTrainConfig,
    extract,
    poisson_distribution,
    simulate,
)
from siqrng.entropy_engine import (
    autocorrelation_stderr,
    click_probabilities,
    empirical_autocorrelation,
    measurement_taus,
    stationary_click_prob,
    x_basis_error,
)
from siqrng import simulator
from siqrng.simulator import ClickRecords, empirical_click_stats

from conftest import make_detectors

VACUUM = PhotonDistribution(probs=np.array([1.0]))


def make_config(pulses=200_000, nu=1.0, eta=0.1, e_d=6e-7, spec=None,
                x_fraction=0.0, misalignment=0.0, seed=3, **kw):
    det0, det1, detp, detm = make_detectors(eta=eta, e_d=e_d, spec=spec)
    return PulseTrainConfig(
        pulses=pulses, source=poisson_distribution(nu),
        det_0=det0, det_1=det1, det_plus=detp, det_minus=detm,
        x_fraction=x_fraction, misalignment=misalignment, seed=seed, **kw)


class TestConfig:
    def test_infinite_window_rejected(self):
        spec = AfterpulseSpec.exponential_from_rate(0.05, 0.001)  # unlimited
        det0, det1, _, _ = make_detectors(spec=spec)
        with pytest.raises(ParameterError):
            PulseTrainConfig(pulses=10, source=VACUUM, det_0=det0, det_1=det1)

    def test_x_detectors_default_to_z_params(self):
        det0, det1, _, _ = make_detectors()
        cfg = PulseTrainConfig(pulses=10, source=VACUUM, det_0=det0, det_1=det1)
        assert cfg.det_plus.efficiency == det0.efficiency
        assert cfg.det_plus.label == "+"
        assert cfg.det_minus.label == "-"

    def test_config_hash_tracks_content(self):
        a = make_config(pulses=100)
        b = make_config(pulses=100)
        c = make_config(pulses=101)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestDeterminism:
    def test_dead_system_never_clicks(self):
        det0, det1, _, _ = make_detectors(eta=0.1, e_d=0.0)
        cfg = PulseTrainConfig(pulses=5000, source=VACUUM, det_0=det0, det_1=det1,
                               x_fraction=0.1, seed=5)
        result = simulate(cfg)
        assert not result.clicks.d0.any()
        assert not result.clicks.d1.any()
        assert len(result.bits) == 0

    def test_bitwise_reproducible_and_thread_invariant(self):
        spec = AfterpulseSpec.explicit([0.03, 0.02])
        cfg = make_config(pulses=3 * 2**14 + 17, spec=spec, x_fraction=0.05,
                          misalignment=0.02, chunk_size=2**14)
        runs = [simulate(cfg), simulate(cfg), simulate(cfg, threads=4)]
        for other in runs[1:]:
            for col in ("basis_is_x", "d0", "d1", "ap0", "ap1"):
                assert np.array_equal(getattr(runs[0].clicks, col),
                                      getattr(other.clicks, col))
            assert np.array_equal(runs[0].bits.bits, other.bits.bits)
            assert np.array_equal(runs[0].bits.window_index, other.bits.window_index)
            assert runs[0].eq_empirical == other.eq_empirical

    def test_seed_changes_output(self):
        cfg_a = make_config(seed=1, pulses=20_000)
        cfg_b = make_config(seed=2, pulses=20_000)
        assert not np.array_equal(simulate(cfg_a).clicks.d0,
                                  simulate(cfg_b).clicks.d0)


def dense_afterpulse_pass(base, u_ap, coeffs, carry):
    """Reference: the pass as one dense product over every lag of every window."""
    m = coeffs.size
    n = base.size
    if m == 0:
        return base.copy(), np.zeros(n, dtype=bool), carry
    fires = base.copy()
    while True:
        ext = np.concatenate((carry, fires))
        survive = np.ones(n)
        for j in range(1, m + 1):
            c = coeffs[j - 1]
            if c != 0.0:
                fired = ext[m - j:m - j + n]
                survive *= np.where(fired, 1.0 - c, 1.0)
        ap = u_ap < (1.0 - survive)
        new = base | ap
        if np.array_equal(new, fires):
            break
        fires = new
    new_carry = np.concatenate((carry, fires))[-m:]
    return fires, ap, new_carry


@st.composite
def afterpulse_pass_cases(draw):
    """Coefficient tables with zeros inside and a nonzero last entry, depths
    1..300, chunks 1..500 (often shorter than the depth), any fire density."""
    depth = draw(st.integers(1, 300))
    n = draw(st.integers(1, 500))
    base_density = draw(st.floats(0.0, 1.0))
    carry_density = draw(st.floats(0.0, 1.0))
    zero_share = draw(st.floats(0.0, 0.9))
    scale = draw(st.floats(1e-4, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = scale * rng.random(depth)
    coeffs[rng.random(depth) < zero_share] = 0.0
    coeffs[-1] = scale
    base = rng.random(n) < base_density
    carry = rng.random(depth) < carry_density
    return base, rng.random(n), coeffs, carry


class TestAfterpulsePass:
    @settings(max_examples=300, deadline=None)
    @given(afterpulse_pass_cases())
    def test_matches_dense_product(self, case):
        got = simulator._afterpulse_pass(*case)
        want = dense_afterpulse_pass(*case)
        for g, w in zip(got, want):          # fires, ap flags, carry
            assert np.array_equal(g, w)

    def test_simulate_with_chunks_shorter_than_depth(self, monkeypatch):
        spec = AfterpulseSpec.exponential_from_rate(0.3, 0.01, 200)
        cfg = make_config(pulses=2000, nu=5.0, spec=spec, x_fraction=0.2,
                          misalignment=0.02, chunk_size=64)
        got = simulate(cfg)
        monkeypatch.setattr(simulator, "_afterpulse_pass", dense_afterpulse_pass)
        want = simulate(cfg)
        assert got.clicks.ap0.any() and got.clicks.ap1.any()
        for col in ("basis_is_x", "d0", "d1", "ap0", "ap1"):
            assert np.array_equal(getattr(got.clicks, col), getattr(want.clicks, col))
        for col in ("bits", "fill_mask", "window_index"):
            assert np.array_equal(getattr(got.bits, col), getattr(want.bits, col))
        for col in ("z_windows", "x_windows", "n_single", "n_double"):
            assert getattr(got.bits, col) == getattr(want.bits, col)
        assert got.eq_empirical == want.eq_empirical


class TestStatisticalAgreement:
    def test_click_rates_match_model_without_afterpulse(self):
        cfg = make_config(pulses=10**6, nu=1.0, seed=21)
        result = simulate(cfg)
        qs_hat, qd_hat, n = empirical_click_stats(result.clicks)
        taus = measurement_taus(cfg.source, eta_0=0.1, eta_1=0.1, eta_plus=0.1,
                                eta_minus=0.1)
        p = stationary_click_prob(cfg.det_0, taus.tau_0)
        qs, qd = click_probabilities(p, p)
        assert abs(qs_hat - qs) <= 3.0 * math.sqrt(qs * (1 - qs) / n)
        assert abs(qd_hat - qd) <= 3.0 * math.sqrt(qd * (1 - qd) / n)

    def test_x_basis_error_matches_model(self):
        cfg = make_config(pulses=2 * 10**6, nu=1.0, x_fraction=1.0,
                          misalignment=0.02, seed=33)
        result = simulate(cfg)
        taus = measurement_taus(cfg.source, eta_0=0.1, eta_1=0.1, eta_plus=0.1,
                                eta_minus=0.1, misalignment=0.02)
        p_plus = stationary_click_prob(cfg.det_plus, taus.tau_plus)
        p_minus = stationary_click_prob(cfg.det_minus, taus.tau_minus)
        eq = x_basis_error(p_plus=p_plus, p_minus=p_minus)
        n_x = result.bits.x_windows
        assert n_x == cfg.pulses
        # half-error variance: Var(1{minus only} + 0.5*1{double}) <= eq
        sigma = math.sqrt(eq / n_x)
        assert abs(result.eq_empirical - eq) <= 3.0 * sigma

    def test_fill_bits_are_marked_and_balanced(self):
        cfg = make_config(pulses=10**6, nu=30.0, eta=0.5, seed=4)
        result = simulate(cfg)
        assert len(result.bits) == result.bits.n_single + result.bits.n_double
        fills = result.bits.bits[result.bits.fill_mask]
        assert fills.size == result.bits.n_double
        assert fills.size > 1000
        assert abs(fills.mean() - 0.5) <= 4.0 * math.sqrt(0.25 / fills.size)

    def test_memory_depth_converges_to_unlimited_history_rate(self):
        amp, omega = 0.05 * math.expm1(0.2), 0.2
        rates, n = [], 0
        for depth in (1, 4, 16):
            spec = AfterpulseSpec.exponential(amp, omega, window_depth=depth)
            cfg = make_config(pulses=2_000_000, spec=spec, seed=8)
            qs_hat, qd_hat, n = empirical_click_stats(simulate(cfg).clicks)
            rates.append(qs_hat + qd_hat)
        base_cfg = make_config(pulses=2_000_000, seed=8)
        qs0, qd0, _ = empirical_click_stats(simulate(base_cfg).clicks)
        assert rates[0] > qs0 + qd0
        assert rates == sorted(rates)
        # approaches the unlimited-history model from below, within noise
        det = DetectorParams(0.1, 6e-7, AfterpulseSpec.exponential(amp, omega),
                             label="0")
        tau = measurement_taus(poisson_distribution(1.0), eta_0=0.1, eta_1=0.1,
                               eta_plus=0.1, eta_minus=0.1).tau_0
        p_inf = stationary_click_prob(det, tau)
        q_inf = 2.0 * p_inf - p_inf * p_inf
        sigma = math.sqrt(q_inf * (1.0 - q_inf) / n)
        gaps = [q - q_inf for q in rates]
        assert gaps == sorted(gaps)
        assert all(g < 3.0 * sigma for g in gaps)
        assert abs(gaps[-1]) <= 4.0 * sigma

    def test_afterpulse_flags_only_with_afterpulse(self):
        plain = simulate(make_config(pulses=50_000, seed=9))
        assert not plain.clicks.ap0.any()
        spiky = simulate(make_config(pulses=50_000, seed=9,
                                     spec=AfterpulseSpec.explicit([0.2])))
        assert spiky.clicks.ap0.sum() > 0


class TestEmpiricalK:
    """Mean of the single-click bits (fills excluded) against its expectation."""

    def test_symmetric_detectors_give_half(self):
        result = simulate(make_config(pulses=10**6, seed=13))
        k_hat = result.bits.bits[~result.bits.fill_mask].mean()
        n = result.bits.n_single
        assert abs(k_hat - 0.5) <= 4.0 * math.sqrt(0.25 / n)

    def test_asymmetric_dark_rates_match_expectation(self):
        # vacuum source: clicks are pure dark counts at exactly e_d per window
        det0 = DetectorParams(0.1, 0.1, AfterpulseSpec.none(), label="0")
        det1 = DetectorParams(0.1, 0.2, AfterpulseSpec.none(), label="1")
        cfg = PulseTrainConfig(pulses=10**6, source=VACUUM, det_0=det0,
                               det_1=det1, x_fraction=0.0, seed=17)
        result = simulate(cfg)
        k_hat = result.bits.bits[~result.bits.fill_mask].mean()
        expected = 0.2 * 0.9 / (0.2 * 0.9 + 0.1 * 0.8)
        n = result.bits.n_single
        assert abs(k_hat - expected) <= 3.0 * math.sqrt(expected * (1 - expected) / n)


class TestAutocorrelationOracle:
    def test_fill_bits_do_not_shift_autocorrelation(self):
        # double clicks are rare at this operating point, so the uncorrelated
        # fill bits change the coefficient by less than the statistical error
        spec = AfterpulseSpec.explicit([0.05])
        cfg = make_config(pulses=2 * 10**6, nu=1.0, spec=spec, seed=29)
        result = simulate(cfg)
        z = ~result.clicks.basis_is_x
        d0, d1 = result.clicks.d0[z], result.clicks.d1[z]
        single = d0 ^ d1
        both = single | (d0 & d1)
        bits_filled = np.zeros(z.sum())
        bits_filled[result.bits.window_index] = result.bits.bits
        a_single = empirical_autocorrelation(d1.astype(float), 1, mask=single)
        a_filled = empirical_autocorrelation(bits_filled, 1, mask=both)
        spread = 3.0 * (autocorrelation_stderr(single, 1)
                        + autocorrelation_stderr(both, 1))
        assert abs(a_single - a_filled) <= spread


class TestClickRecords:
    def test_row_view_and_csv(self, tmp_path):
        cfg = make_config(pulses=64, x_fraction=0.5, seed=2)
        result = simulate(cfg)
        path = tmp_path / "clicks.csv"
        result.clicks.to_csv(path, header_comment="test")
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "index,basis,d0,d1,ap0,ap1"
        assert len(lines) == 2 + 64
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] in ("Z", "X")

    @pytest.mark.parametrize("header_comment", [None, "siqrng csv=1 hé"])
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 65535, 65536,
                                   65537, 100000, 131073])
    def test_csv_bytes_match_row_formatter(self, tmp_path, n, header_comment):
        # every flag code in order, then a seeded random set
        codes = np.arange(n) % 32
        rng = np.random.default_rng(n)
        codes[n // 2:] = rng.integers(0, 32, size=n - n // 2)
        cols = [(codes >> shift) & 1 == 1 for shift in (4, 3, 2, 1, 0)]
        clicks = ClickRecords(*cols)
        path = tmp_path / "clicks.csv"
        clicks.to_csv(path, header_comment=header_comment)

        ref = tmp_path / "reference.csv"
        basis = np.where(clicks.basis_is_x, "X", "Z")
        flags = [col.astype(np.uint8)
                 for col in (clicks.d0, clicks.d1, clicks.ap0, clicks.ap1)]
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write(ClickRecords.CSV_HEADER + "\n")
            for i in range(n):
                fh.write(f"{i},{basis[i]},{flags[0][i]},{flags[1][i]},"
                         f"{flags[2][i]},{flags[3][i]}\n")
        assert path.read_bytes() == ref.read_bytes()

    def test_packed_bits_round_trip(self):
        result = simulate(make_config(pulses=2000, seed=19))
        packed = result.bits.packed()
        unpacked = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        assert np.array_equal(unpacked[:len(result.bits)], result.bits.bits)
        sidecar = result.bits.sidecar(19, "abc123")
        assert sidecar["bit_count"] == len(result.bits)
        assert sidecar["config_hash"] == "abc123"


class TestExtract:
    def test_empty_output(self):
        assert extract([1, 0, 1], 0, 7).size == 0

    def test_deterministic(self):
        bits = np.random.default_rng(5).integers(0, 2, 4000, dtype=np.uint8)
        assert np.array_equal(extract(bits, 1000, 11), extract(bits, 1000, 11))
        assert not np.array_equal(extract(bits, 1000, 11), extract(bits, 1000, 12))

    def test_length_error(self):
        with pytest.raises(ParameterError):
            extract([1, 0], 3, 1)

    def test_matches_explicit_toeplitz_matrix(self):
        rng = np.random.default_rng(23)
        x = rng.integers(0, 2, 40, dtype=np.uint8)
        out_len, seed = 12, 99
        result = extract(x, out_len, seed)
        from siqrng.simulator import STREAM_EXTRACTOR, _stream
        n = x.size
        r = _stream(seed, STREAM_EXTRACTOR, 0).integers(0, 2, n + out_len - 1,
                                                        dtype=np.uint8)
        T = np.zeros((out_len, n), dtype=np.uint8)
        for i in range(out_len):
            for j in range(n):
                T[i, j] = r[n - 1 + i - j]
        assert np.array_equal(result, (T @ x) % 2)

    def test_gf2_linearity(self):
        rng = np.random.default_rng(31)
        x = rng.integers(0, 2, 513, dtype=np.uint8)
        y = rng.integers(0, 2, 513, dtype=np.uint8)
        hx, hy, hxy = (extract(v, 100, 3) for v in (x, y, x ^ y))
        assert np.array_equal(hx ^ hy, hxy)

    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(37)
        x = rng.integers(0, 2, 3000, dtype=np.uint8)
        direct = extract(x, 1300, 41)       # 3.9e6 products: direct path
        from siqrng import simulator
        old = simulator._DIRECT_CONV_LIMIT
        simulator._DIRECT_CONV_LIMIT = 1
        try:
            fft = extract(x, 1300, 41)
        finally:
            simulator._DIRECT_CONV_LIMIT = old
        assert np.array_equal(direct, fft)

    def test_extracted_stream_passes_null_tests(self):
        cfg = make_config(pulses=1_500_000, nu=10.0, seed=43)
        result = simulate(cfg)
        n_out = 500_000
        out = extract(result.bits, n_out, 47).astype(float)
        assert abs(out.mean() - 0.5) <= 4.0 * math.sqrt(0.25 / n_out)
        for lag in range(1, 17):
            assert abs(empirical_autocorrelation(out, lag)) <= 4.0 / math.sqrt(n_out)
