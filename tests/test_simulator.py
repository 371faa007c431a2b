import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siqrng import (
    AfterpulseSpec,
    DetectorParams,
    ParameterError,
    PhotonDistribution,
    PrecisionError,
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
from siqrng.simulator import ClickRecords

from conftest import make_detectors
from references import empirical_click_stats

VACUUM = PhotonDistribution(probs=np.array([1.0]))
# ClickRecords' decoded columns, from the code's bit 4 down to bit 0
CLICK_COLUMNS = ("basis_is_x", "d0", "d1", "ap0", "ap1")


def make_config(pulses=200_000, nu=1.0, eta=0.1, e_d=6e-7, spec=None,
                x_fraction=0.0, misalignment=0.0, seed=3, **kw):
    return PulseTrainConfig(
        pulses=pulses, source=poisson_distribution(nu),
        dets=make_detectors(eta=eta, e_d=e_d, spec=spec),
        x_fraction=x_fraction, misalignment=misalignment, seed=seed, **kw)


class TestConfig:
    def test_infinite_window_rejected(self):
        spec = AfterpulseSpec.exponential_from_rate(0.05, 0.001)  # unlimited
        with pytest.raises(ParameterError):
            PulseTrainConfig(pulses=10, source=VACUUM, dets=make_detectors(spec=spec))

    def test_three_detectors_rejected(self):
        with pytest.raises(ParameterError, match=r"^dets must hold 4 detectors, got 3$"):
            PulseTrainConfig(pulses=10, source=VACUUM, dets=make_detectors()[:3])

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        # the key's first word is the seed, which used to be taken mod 2^64
        with pytest.raises(ParameterError, match=rf"^seed must lie in \[0, 2\^64\), "
                                                 rf"got {seed}$"):
            make_config(seed=seed)
        assert make_config(seed=2**64 - 1).seed == 2**64 - 1

    def test_config_hash_tracks_content(self):
        a = make_config(pulses=100)
        b = make_config(pulses=100)
        c = make_config(pulses=101)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestDeterminism:
    def test_dead_system_never_clicks(self):
        cfg = PulseTrainConfig(pulses=5000, source=VACUUM,
                               dets=make_detectors(eta=0.1, e_d=0.0),
                               x_fraction=0.1, seed=5)
        result = simulate(cfg)
        assert not result.clicks.d0.any()
        assert not result.clicks.d1.any()
        assert len(result.bits) == 0

    def test_bitwise_reproducible_and_thread_invariant(self):
        spec = AfterpulseSpec.explicit([0.03, 0.02])
        # 4 chunks on 4 threads, and 10 chunks, more than the pool prefetches
        for pulses, chunk_size in ((3 * 2**14 + 17, 2**14), (10 * 2**12, 2**12)):
            cfg = make_config(pulses=pulses, spec=spec, x_fraction=0.05,
                              misalignment=0.02, chunk_size=chunk_size)
            runs = [simulate(cfg), simulate(cfg), simulate(cfg, threads=4)]
            for other in runs[1:]:
                for col in CLICK_COLUMNS:
                    assert np.array_equal(getattr(runs[0].clicks, col),
                                          getattr(other.clicks, col))
                assert np.array_equal(runs[0].bits.bits, other.bits.bits)
                assert np.array_equal(runs[0].bits.window_index, other.bits.window_index)
                assert runs[0].eq_empirical == other.eq_empirical

    def test_shared_photon_search_matches_separate_searches(self, monkeypatch):
        cfg = make_config(pulses=5000, nu=5.0, x_fraction=0.3, misalignment=0.05)
        got = simulate(cfg)
        draws = simulator._chunk_draws
        monkeypatch.setattr(simulator, "_chunk_draws",
                            lambda config, seed, chunk, count, cdf_z, cdf_x, *tables:
                            draws(config, seed, chunk, count, cdf_z, cdf_x.copy(), *tables))
        want = simulate(cfg)
        assert_same_result(got, want)

    def test_seed_changes_output(self):
        cfg_a = make_config(seed=1, pulses=20_000)
        cfg_b = make_config(seed=2, pulses=20_000)
        assert not np.array_equal(simulate(cfg_a).clicks.d0,
                                  simulate(cfg_b).clicks.d0)


def per_lag_coefficients(spec):
    """Reference: ``spec.coefficient(j)`` lag by lag, trailing zeros cut."""
    coeffs = [spec.coefficient(j) for j in range(1, (spec.window_depth or 0) + 1)]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return np.array(coeffs, dtype=float)


def assert_same_coefficients(spec):
    got, want = simulator._coefficient_array(spec), per_lag_coefficients(spec)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestCoefficientArray:
    @pytest.mark.parametrize("spec", [
        AfterpulseSpec.exponential(0.5, 1.0, 800),       # the tail underflows to 0
        AfterpulseSpec.exponential_from_rate(0.05, 0.001, 1000),
        AfterpulseSpec(mode="explicit", coefficients=(0.03, 0.0, 0.02, 0.0, 0.0),
                       window_depth=9),
        AfterpulseSpec(mode="explicit", coefficients=(0.03, 0.02, 0.01), window_depth=2),
        AfterpulseSpec.explicit([0.0, 0.0]),
        AfterpulseSpec.none(),
        AfterpulseSpec.exponential(0.05, 0.01, 0),
        AfterpulseSpec.exponential(0.0, 0.0, 50),
    ], ids=["exp_underflow", "exp_depth_1000", "explicit_trailing_zeros_past_len",
            "explicit_cut_by_depth", "explicit_all_zero", "none", "exp_depth_0",
            "exp_zero_amplitude"])
    def test_bit_equal_to_per_lag_coefficients(self, spec):
        assert_same_coefficients(spec)

    def test_underflowing_tail_is_cut(self):
        # 0.5 * exp(-j) rounds to 0 from j = 745 on
        assert simulator._coefficient_array(AfterpulseSpec.exponential(0.5, 1.0, 800)).size == 744

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.9), st.floats(1e-9, 700.0), st.integers(0, 2000))
    def test_exponential_bit_equal_at_random_specs(self, rate, decay, depth):
        assert_same_coefficients(AfterpulseSpec.exponential_from_rate(rate, decay, depth))


def assert_same_result(got, want):
    """Every column and counter of two simulation results are equal."""
    for col in CLICK_COLUMNS:
        assert np.array_equal(getattr(got.clicks, col), getattr(want.clicks, col))
    for col in ("bits", "fill_mask", "window_index"):
        assert np.array_equal(getattr(got.bits, col), getattr(want.bits, col))
    for col in ("z_windows", "x_windows", "n_single", "n_double"):
        assert getattr(got.bits, col) == getattr(want.bits, col)
    assert got.eq_empirical == want.eq_empirical or (
        math.isnan(got.eq_empirical) and math.isnan(want.eq_empirical))


def dense_survive(fires, coeffs, carry):
    """Reference: each window's product of 1 - c_j over its fired lags, every
    lag of every window in ascending-lag order."""
    m = coeffs.size
    n = fires.size
    ext = np.concatenate((carry, fires))
    survive = np.ones(n)
    for j in range(1, m + 1):
        c = coeffs[j - 1]
        if c != 0.0:
            fired = ext[m - j:m - j + n]
            survive *= np.where(fired, 1.0 - c, 1.0)
    return survive


def dense_afterpulse_pass(base, u_ap, coeffs, carry):
    """Reference: the pass as one dense product over every lag of every window."""
    m = coeffs.size
    n = base.size
    if m == 0:
        return base.copy(), np.zeros(n, dtype=bool), carry
    fires = base.copy()
    while True:
        ap = u_ap < (1.0 - dense_survive(fires, coeffs, carry))
        new = base | ap
        if np.array_equal(new, fires):
            break
        fires = new
    new_carry = np.concatenate((carry, fires))[-m:]
    return fires, ap, new_carry


def scatter_afterpulse_pass(base, u_ap, coeffs, carry):
    """Reference: the pass scattering each lag's factor from every fire into
    the windows it reaches, at O(chunk + depth * fires) per iteration."""
    m = coeffs.size
    n = base.size
    if m == 0:
        return base.copy(), np.zeros(n, dtype=bool), carry
    lags = np.arange(1, m + 1)
    factors = (1.0 - coeffs).tolist()
    fires = base.copy()
    while True:
        # Position p of carry + fires reaches window p + j - m at lag j.
        fired = np.flatnonzero(np.concatenate((carry, fires)))
        lo, hi = np.searchsorted(fired, (m - lags, n + m - lags)).tolist()
        survive = np.ones(n)
        for shift, f, a, b in zip(range(1 - m, 1), factors, lo, hi):
            if f != 1.0 and a < b:
                # Windows hit at one lag are distinct, so the fancy *= is exact.
                survive[fired[a:b] + shift] *= f
        ap = u_ap < (1.0 - survive)
        new = base | ap
        if np.array_equal(new, fires):
            break
        fires = new
    new_carry = np.concatenate((carry, fires))[-m:]
    return fires, ap, new_carry


def candidates(u_ap, coeffs):
    """The windows whose draw lies below 1 - P_all, and their draws."""
    cand = np.flatnonzero(u_ap < 1.0 - simulator._survival_floor(coeffs))
    return cand, u_ap[cand]


def new_afterpulse_pass(base, u_ap, coeffs, carry):
    """The pass with its afterpulse windows as a flag per window, like the
    references; each window is listed at most once."""
    fires, ap_index, new_carry = simulator._afterpulse_pass(
        base, *candidates(u_ap, coeffs), coeffs, carry)
    assert np.unique(ap_index).size == ap_index.size
    ap = np.zeros(base.size, dtype=bool)
    ap[ap_index] = True
    return fires, ap, new_carry


def dense_draws(n, cand, u_cand, coeffs):
    """A full afterpulse draw array from the candidates: every other window
    gets 1 - P_all, the smallest draw that is not a candidate."""
    u_ap = np.full(n, 1.0 - simulator._survival_floor(coeffs))
    u_ap[cand] = u_cand
    return u_ap


_TINY = 2.0**-53


def screen_limits(coeffs):
    """lim[k] = 1 - (k copies of the least 1 - c_j, multiplied one after
    another), for k = 0 .. depth, by a Python loop."""
    least = float(np.min(1.0 - coeffs))
    floor = [1.0]
    for _ in range(coeffs.size):
        floor.append(floor[-1] * least)
    return 1.0 - np.array(floor)


def fires_in_reach(fires, carry):
    """Per window w, the fired positions among w .. w + depth - 1 of carry +
    fires."""
    ext = np.concatenate(([0], np.cumsum(np.concatenate((carry, fires)))))
    w = np.arange(fires.size)
    return ext[w + carry.size] - ext[w]


@st.composite
def afterpulse_pass_cases(draw, sparse=False):
    """Coefficient tables with zeros inside and a nonzero last entry, depths
    1..300, chunks 1..500 (often shorter than the depth), any fire density.
    Coefficients reach just below 1 and below 2**-53, where 1 - c rounds to
    1.0 or to 1 - 2**-53, and are sometimes all equal where nonzero, so that
    a product can meet the screen's floor; densities reach 1; some draws sit
    at 1 - P_all and one ulp either side of it, and some at the screen limit
    of the window's count of signal/dark fires in reach and one ulp below it.
    With ``sparse``, chunks of 1,000..5,000 windows, base fire density 0.5..1
    and at most 30 candidates: far more fired positions than candidates, as
    at high mean photon numbers."""
    depth = draw(st.integers(1, 300))
    n = draw(st.integers(1000, 5000) if sparse else st.integers(1, 500))
    base_density = draw(st.floats(0.5, 1.0) if sparse
                        else st.floats(0.0, 1.0) | st.floats(0.95, 1.0))
    carry_density = draw(st.floats(0.0, 1.0) | st.floats(0.95, 1.0))
    zero_share = draw(st.floats(0.0, 0.9))
    tiny_share = draw(st.floats(0.0, 0.9))
    scale = draw(st.floats(1e-4, 0.5) | st.floats(0.5, 1.0, exclude_max=True))
    edge_share = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = scale * rng.random(depth)
    coeffs[rng.random(depth) < tiny_share] = _TINY * rng.random()
    coeffs[rng.random(depth) < zero_share] = 0.0
    coeffs[-1] = draw(st.sampled_from([scale, _TINY, _TINY / 2, _TINY / 4]))
    if draw(st.booleans()):
        coeffs[coeffs != 0.0] = coeffs[-1]
    base = rng.random(n) < base_density
    carry = rng.random(depth) < carry_density
    u_ap = rng.random(n)
    edge = 1.0 - simulator._survival_floor(coeffs)
    if sparse:
        u_ap = edge + (1.0 - edge) * u_ap
        few = rng.choice(n, size=draw(st.integers(0, 30)), replace=False)
        u_ap[few] = edge * rng.random(few.size)
        return base, u_ap, coeffs, carry
    near = [v for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)) if v < 1.0]
    at_edge = rng.random(n) < edge_share
    u_ap[at_edge] = rng.choice(near, size=int(at_edge.sum()))
    lim = screen_limits(coeffs)[fires_in_reach(base, carry)]
    tied = np.where(rng.random(n) < 0.5, np.nextafter(lim, 0.0), lim)
    at_lim = (rng.random(n) < draw(st.floats(0.0, 0.5))) & (tied >= 0.0) & (tied < 1.0)
    u_ap[at_lim] = tied[at_lim]
    return base, u_ap, coeffs, carry


def dense_chunk_draws(config, seed, chunk, count, cdf_z, cdf_x):
    """Reference: each stream of one chunk drawn whole into an array of its
    own, each window's click probability raised to its own photon count, and
    the reductions that simulator._chunk_draws returns taken at the end."""
    def stream(stream_id):
        return np.random.Generator(simulator._stream(seed, stream_id, chunk))

    u_basis = stream(simulator.STREAM_BASIS).random(count)
    u_photon = stream(simulator.STREAM_PHOTON).random(count)
    n_z = np.minimum(np.searchsorted(cdf_z, u_photon, side="right"), cdf_z.size - 1)
    n_x = np.minimum(np.searchsorted(cdf_x, u_photon, side="right"), cdf_x.size - 1)
    n_split = stream(simulator.STREAM_SPLIT).binomial(n_z, 0.5)
    n_flip = stream(simulator.STREAM_FLIP).binomial(n_x, config.misalignment)
    u_signal = [stream(s).random(count) for s in simulator.STREAM_SIGNAL]
    u_dark = [stream(s).random(count) for s in simulator.STREAM_DARK]
    u_ap = [stream(s).random(count) for s in simulator.STREAM_AFTERPULSE]
    fill = stream(simulator.STREAM_FILL).integers(0, 2, size=count, dtype=np.uint8)

    is_x = u_basis < config.x_fraction
    is_z = ~is_x
    photons = (np.where(is_z, n_split, 0), np.where(is_z, n_z - n_split, 0),
               np.where(is_x, n_x - n_flip, 0), np.where(is_x, n_flip, 0))
    dets = config.dets
    base, cand, u_cand = [], [], []
    for k, det in enumerate(dets):
        signal = u_signal[k] < 1.0 - np.power(1.0 - det.efficiency, photons[k])
        base.append(signal | (u_dark[k] < det.dark_rate))
        c, u = candidates(u_ap[k], simulator._coefficient_array(det.afterpulse))
        cand.append(c)
        u_cand.append(u)
    return simulator._ChunkDraws(is_x, tuple(base), tuple(cand), tuple(u_cand), fill)


def dense_resolve_chunk(d, coeffs, carries, offset):
    """Reference: each click column by np.where over the whole chunk, the
    raw bits and counts by boolean masks, from the dense afterpulse pass."""
    fires, aps = [], []
    for k in range(4):
        u_ap = dense_draws(d.base[k].size, d.cand[k], d.u_cand[k], coeffs[k])
        f, ap, carries[k] = dense_afterpulse_pass(d.base[k], u_ap, coeffs[k], carries[k])
        fires.append(f)
        aps.append(ap)
    is_x = d.is_x
    is_z = ~is_x
    columns = (is_x, np.where(is_x, fires[2], fires[0]), np.where(is_x, fires[3], fires[1]),
               np.where(is_x, aps[2], aps[0]), np.where(is_x, aps[3], aps[1]))
    single = is_z & (fires[0] ^ fires[1])
    double = is_z & fires[0] & fires[1]
    detected = single | double
    part = (np.where(double, d.fill, fires[1].astype(np.uint8))[detected],
            double[detected], offset + np.flatnonzero(detected))
    counts = (single.sum(), double.sum(), is_z.sum(), is_x.sum(),
              (is_x & fires[3] & ~fires[2]).sum(), (is_x & fires[3] & fires[2]).sum())
    return columns, part, tuple(int(c) for c in counts)


class TestResolveChunk:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_matches_dense_reference(self, n, seed, x_share, density):
        """Click columns, raw bits with their fill flags and window indices,
        counts and carries equal the whole-chunk reference, with afterpulses
        at every detector in both bases and records that start at an
        offset."""
        rng = np.random.default_rng(seed)
        coeffs = [np.array([0.3, 0.0, 0.2]), np.array([0.5]), np.zeros(0), 0.4 * rng.random(4)]
        cands = [candidates(rng.random(n), c) for c in coeffs]
        d = simulator._ChunkDraws(rng.random(n) < x_share,
                                  tuple(rng.random(n) < density for _ in range(4)),
                                  tuple(c for c, _ in cands), tuple(u for _, u in cands),
                                  rng.integers(0, 2, size=n, dtype=np.uint8))
        carries = [rng.random(c.size) < density for c in coeffs]
        want_carries = [c.copy() for c in carries]
        offset = int(rng.integers(0, 50))
        codes = np.zeros(offset + n, dtype=np.uint8)
        part, counts = simulator._resolve_chunk(d, coeffs, carries, codes, offset)
        columns, want_part, want_counts = dense_resolve_chunk(d, coeffs, want_carries, offset)
        records = ClickRecords(codes)
        for name, col in zip(CLICK_COLUMNS, columns):
            rec = getattr(records, name)
            assert not rec[:offset].any()
            assert np.array_equal(rec[offset:], col)
        for got, want in zip(part, want_part):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert counts == want_counts
        for got, want in zip(carries, want_carries):
            assert np.array_equal(got, want)


class TestChunkDraws:
    @pytest.mark.parametrize("kw", [
        dict(nu=10.0, spec=AfterpulseSpec.exponential_from_rate(0.05, 0.001, 2),
             x_fraction=0.02, misalignment=0.02),
        dict(nu=5.0, eta=1.0, e_d=0.0, x_fraction=0.5, misalignment=1.0, t_x=0.3),
        dict(nu=30.0, eta=0.5, e_d=0.01, spec=AfterpulseSpec.explicit([0.2, 0.0, 0.1]),
             x_fraction=0.3, misalignment=0.0, t_z=0.6),
        # every window in X: a basis threshold of 2^53, the largest raw-word limit
        dict(nu=1.0, x_fraction=1.0, misalignment=0.3),
    ])
    def test_reduced_draws_match_whole_streams(self, monkeypatch, kw):
        """Every field of every chunk's draws equals the whole-stream
        reference, at the tables and limits simulate builds."""
        config = make_config(pulses=3 * 2**12 + 5, chunk_size=2**12, seed=11, **kw)
        assert self.checked_chunks(monkeypatch, config) == [0, 1, 2, 3]

    @pytest.mark.parametrize("misalignment", [0.0, 0.02, 0.7])
    @pytest.mark.parametrize("x_fraction", [0.0, 0.02, 0.5, 1.0])
    def test_check_arm_lookups_match_whole_streams(self, monkeypatch, x_fraction,
                                                   misalignment):
        """The "+" and "-" signal, compared only in X windows, and the flip,
        looked up only there, equal the whole-stream reference, in chunks of
        two lookup blocks and a last one of less than a block; at e_q = 0.7
        the flip takes Generator.binomial."""
        chunk = simulator._BLOCK + 2**13
        config = make_config(pulses=2 * chunk + 100, nu=3.0, eta=0.5, chunk_size=chunk,
                             spec=AfterpulseSpec.explicit([0.2, 0.1]), seed=5,
                             x_fraction=x_fraction, misalignment=misalignment)
        assert self.checked_chunks(monkeypatch, config) == [0, 1, 2]

    @staticmethod
    def checked_chunks(monkeypatch, config):
        """Simulate ``config`` with every chunk's draws checked against
        :func:`dense_chunk_draws`; returns the chunks checked."""
        draws = simulator._chunk_draws
        chunks = []

        def checked(config, seed, chunk, count, cdf_z, cdf_x, *tables):
            got = draws(config, seed, chunk, count, cdf_z, cdf_x, *tables)
            want = dense_chunk_draws(config, seed, chunk, count, cdf_z, cdf_x)
            assert np.array_equal(got.is_x, want.is_x)
            assert np.array_equal(got.fill, want.fill)
            for field in ("base", "cand", "u_cand"):
                for g, w in zip(getattr(got, field), getattr(want, field)):
                    assert np.array_equal(g, w), field
            chunks.append(chunk)
            return got

        monkeypatch.setattr(simulator, "_chunk_draws", checked)
        simulate(config)
        return chunks

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("misalignment", [0.02, 0.7])
    def test_one_philox_per_chunk(self, monkeypatch, threads, misalignment):
        """A run builds one Philox bit generator per chunk, and extract one
        more; the Generator.binomial fallback (e_q = 0.7) builds none."""
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        config = make_config(pulses=4 * 2**12 + 5, chunk_size=2**12, x_fraction=0.3,
                             misalignment=misalignment, spec=AfterpulseSpec.explicit([0.1]))
        result = simulate(config, threads=threads)
        assert len(built) == 5
        extract(result.bits.bits, len(result.bits) // 2, 7)
        assert len(built) == 6

    def test_peak_memory_holds_one_chunk(self):
        """Beyond its result, simulate holds one chunk at a time.  The traced
        peak of 2 or 8 chunks exceeds that of 1 chunk by at most the growth of
        the result, the bit stream once more for its parts during the final
        concatenation, and 8 bytes per window of one chunk."""
        chunk = 2**14
        spec = AfterpulseSpec.explicit([0.03, 0.02])

        def run(chunks):
            cfg = make_config(pulses=chunks * chunk, nu=5.0, spec=spec, x_fraction=0.05,
                              misalignment=0.02, chunk_size=chunk)
            tracemalloc.start()
            try:
                result = simulate(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bits = sum(getattr(result.bits, col).nbytes
                       for col in ("bits", "fill_mask", "window_index"))
            return peak, result.clicks.codes.nbytes + bits, bits

        run(1)                                   # first-call allocations
        peak_1, kept_1, _ = run(1)
        for chunks in (2, 8):
            peak, kept, bits = run(chunks)
            assert peak - peak_1 <= kept - kept_1 + bits + 8 * chunk, chunks


def numpy_binomial_inversion(u, n, p):
    """NumPy's random_binomial_inversion for one uniform u, operation for
    operation; None where it would restart with a fresh uniform."""
    q = 1.0 - p
    px = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


_EDGE_P = [0.0, 5e-324, 2.0**-53, 3 * 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53,
           float(np.nextafter(1.0, 0.0)), 1.0]


class TestRawWords:
    """The Monte Carlo draws read Philox raw words: a float uniform is
    m * 2^-53 with m = ``random_raw() >> 11``, and u < p is m < ceil(p * 2^53)."""

    @pytest.mark.parametrize("key", [0, 1, 2**64 - 1, [7, 2**32 * 12 + 3], [2**63, 2**64 - 1]])
    def test_float_uniforms_are_raw_words(self, key):
        # Philox makes 4 words per counter step, so these n cross its blocks
        for n in (1, 3, 4, 5, 8, 9, 1001):
            want = np.random.Generator(np.random.Philox(key=key)).random(n)
            got = (np.random.Philox(key=key).random_raw(n) >> 11) * 2.0**-53
            assert np.array_equal(got, want), n
        # and a stream read in spans continues where the last span stopped
        bits = np.random.Philox(key=key)
        spans = np.concatenate([bits.random_raw(n) for n in (3, 5, 1, 7)])
        assert np.array_equal((spans >> 11) * 2.0**-53,
                              np.random.Generator(np.random.Philox(key=key)).random(16))

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.sampled_from(_EDGE_P), st.floats(0.0, 1.0),
                     st.integers(0, 2**53).map(lambda k: k * 2.0**-53)),
           st.integers(0, 2**53 - 1))
    def test_threshold_comparison_is_exact(self, p, m_random):
        t = int(simulator._threshold(p))
        assert t == math.ceil(Fraction(p) * 2**53)
        assert np.array_equal(simulator._threshold(np.array([p, p])), [t, t])
        for m in (t - 1, t, t + 1, m_random):
            if 0 <= m < 2**53:
                assert (m < t) == (m * 2.0**-53 < p) == (Fraction(m, 2**53) < p), m

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from(_EDGE_P), st.floats(0.0, 1.0)),
           st.integers(0, 2**53 - 1), st.integers(0, 2**11 - 1))
    def test_raw_word_limit_is_exact(self, p, m_random, low):
        """A raw word lies at or below _raw_limit of a threshold exactly where
        its m = word >> 11 lies below the threshold, whatever its low 11 bits."""
        t = int(simulator._threshold(p))
        limit = simulator._raw_limit(t)
        for m in (t - 1, t, t + 1, m_random, 0, 2**53 - 1):
            if 0 <= m < 2**53:
                for bits in (0, low, 2**11 - 1):
                    word = np.uint64(m << 11 | bits)
                    assert (limit is not None and word <= limit) == (m < t), (m, bits)


def philox_words(seed, stream_id, chunk, n):
    """Reference: the first n raw words of a new generator at the stream's key."""
    key = np.array([seed, ((stream_id << 32) | chunk) % 2**64], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(n)


class TestChunkStreams:
    """A chunk's streams come from one generator, re-keyed per stream."""

    USES = {
        "new": lambda bits: None,
        "3 words": lambda bits: bits.random_raw(3),             # leaves a half-used buffer
        "a block": lambda bits: bits.random_raw(simulator._BLOCK),
        "binomial": lambda bits: np.random.Generator(bits).binomial(
            np.arange(40), 0.3),
        "uint32": lambda bits: np.random.Generator(bits).integers(   # leaves a spare half
            0, 2**32, size=3, dtype=np.uint32),
    }

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
           st.one_of(st.integers(2**32 - 3, 2**32 - 1), st.integers(0, 2**32 - 1)),
           st.integers(0, simulator.STREAM_EXTRACTOR),
           st.integers(0, simulator.STREAM_EXTRACTOR))
    def test_rekeyed_words_are_a_new_generators(self, seed, chunk, before, stream_id):
        """After any use of the generator, re-keying gives the raw words, and
        the 32-bit draws, of a new Philox at the stream's key."""
        for name, use in self.USES.items():
            stream = simulator._chunk_streams(seed, chunk)
            use(stream(before))
            got = stream(stream_id).random_raw(9)          # crosses a 4-word buffer
            assert np.array_equal(got, philox_words(seed, stream_id, chunk, 9)), name
            use(stream(before))
            key = np.array(simulator._key(seed, stream_id, chunk), dtype=np.uint64)
            assert np.array_equal(
                np.random.Generator(stream(stream_id)).integers(0, 2**32, 5, np.uint32),
                np.random.Generator(np.random.Philox(key=key)).integers(0, 2**32, 5, np.uint32)
            ), name

    def test_new_stream_is_independent(self):
        """``_stream`` returns a new generator each call, so two of them
        read on alternately do not alias."""
        a, b = simulator._stream(3, 1, 0), simulator._stream(3, 2, 0)
        words = [a.random_raw(3), b.random_raw(3), a.random_raw(3), b.random_raw(3)]
        assert np.array_equal(np.concatenate(words[::2]), philox_words(3, 1, 0, 6))
        assert np.array_equal(np.concatenate(words[1::2]), philox_words(3, 2, 0, 6))


class TestTableInversion:
    SPLIT = simulator.STREAM_SPLIT

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.02, 0.7, 0.0])
    def test_binomial_matches_numpy(self, p):
        """The lookup equals Generator.binomial on the same stream, with and
        without a window mask, for counts with zeros, for counts whose p * n
        exceeds 30 (NumPy's BTPE) and for a count past the table's rows."""
        inversion = simulator._binomial_inversion(p)
        rng = np.random.default_rng(7)
        for seed in range(24):
            top = 40 if seed % 3 else 70
            n = rng.integers(0, top, size=3 * simulator._BLOCK // 2).astype(np.uint16)
            n[rng.random(n.size) < 0.2] = 0
            if seed >= 22:
                n[5] = 300 if seed == 22 else 101 if p == 0.3 else 1501
            want = np.random.Generator(simulator._stream(seed, self.SPLIT, 2)).binomial(n, p)
            stream = simulator._chunk_streams(seed, 2)
            got = simulator._binomial(stream, self.SPLIT, n, p, inversion)
            assert np.array_equal(got, want), seed
            for where in (rng.random(n.size) < 0.1, np.zeros(n.size, dtype=bool),
                          np.ones(n.size, dtype=bool)):
                got = simulator._binomial(stream, self.SPLIT, n, p, inversion, where)
                assert np.array_equal(got[where], want[where]), seed
                assert (got <= n).all()

    # Zero shares in the first block and after it: the split looks up every
    # window of a block where more than 5/6 read a word (0.0), and only those
    # with a word, by index, otherwise (0.6); the last case has one of each.
    @pytest.mark.parametrize("zeros", [(0.0, 0.0), (0.6, 0.6), (0.0, 0.6)])
    def test_whole_block_and_by_index_lookups_match_numpy(self, zeros):
        inversion = simulator._binomial_inversion(0.5)
        rng = np.random.default_rng(11)
        for seed in range(6):
            n = rng.integers(1, 30, size=3 * simulator._BLOCK // 2).astype(np.uint8)
            share = np.where(np.arange(n.size) < simulator._BLOCK, *zeros)
            n[rng.random(n.size) < share] = 0
            want = np.random.Generator(simulator._stream(seed, self.SPLIT, 1)).binomial(n, 0.5)
            got = simulator._binomial(simulator._chunk_streams(seed, 1), self.SPLIT, n, 0.5,
                                      inversion)
            assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.02, 1e-3])
    def test_thresholds_invert_numpys_recurrence(self, p):
        """At every tau_{n,k}, NumPy's literal recurrence reaches k, or
        restarts where tau_{n,k} is the restart threshold (the row's last), and
        one m lower it stops below k."""
        inversion = simulator._BinomialInversion(p)
        ns = range(min(inversion.n_limit, 60) + 1)
        for n, row in zip(ns, inversion._thresholds(ns)):
            restart = int(row[-1])
            for k, tau in enumerate(row.tolist(), 1):
                below = numpy_binomial_inversion((tau - 1) * 2.0**-53, n, p)
                assert below is not None and below < k, (n, k)
                if tau < 2**53:
                    at = numpy_binomial_inversion(tau * 2.0**-53, n, p)
                    assert at is None or at >= k, (n, k)
                    assert (at is None) == (tau >= restart), (n, k)

    @pytest.mark.parametrize("nu", [1.0, 10.0, 50.0])
    def test_photon_counts_match_searchsorted(self, nu):
        """The photon lookup equals the capped searchsorted of the cdf, at
        random m and at the m next to every cdf entry, including u on an entry
        and one ulp either side of it."""
        cdf = simulator._photon_cdf(poisson_distribution(nu), 1.0)
        on_grid = cdf[cdf * 2.0**53 == np.floor(cdf * 2.0**53)]
        near = np.concatenate([np.floor(cdf * 2.0**53), np.ceil(cdf * 2.0**53),
                               np.nextafter(on_grid, 0.0) * 2.0**53,
                               np.nextafter(on_grid, 2.0) * 2.0**53])
        m = np.concatenate([np.floor(near) + d for d in (-1, 0, 1)])
        m = m[(m >= 0) & (m < 2.0**53)].astype(np.int64)
        m = np.concatenate([m, simulator._m(simulator._stream(1, 1, 0).random_raw(50_000))])
        got = simulator._count_at_or_below(simulator._photon_inversion(cdf), m)
        want = np.minimum(np.searchsorted(cdf, m * 2.0**-53, side="right"), cdf.size - 1)
        assert np.array_equal(got, want)

    def test_restart_falls_back_to_numpy(self, monkeypatch):
        """A block whose m reaches the restart threshold sends the whole
        chunk to Generator.binomial, including blocks already looked up: the
        tables are replaced by ones that count 0 everywhere, so any count
        taken from them would differ."""
        p, seed = 0.3, 4
        n = np.random.default_rng(3).integers(0, 30, size=3 * simulator._BLOCK)
        drawn = np.count_nonzero(n[:simulator._BLOCK])
        m = simulator._m(simulator._stream(seed, self.SPLIT, 0).random_raw(np.count_nonzero(n)))
        restart = int(m[:drawn].max()) + 1
        assert m[drawn:].max() >= restart        # a later block restarts
        inversion = simulator._BinomialInversion(p)
        tables = inversion.tables

        def zero_tables(top):
            inv = tables(top)[0]
            return inv._replace(guide=np.zeros_like(inv.guide),
                                thresholds=np.full_like(inv.thresholds, 2**53)), restart

        monkeypatch.setattr(inversion, "tables", zero_tables)
        got = simulator._binomial(simulator._chunk_streams(seed, 0), self.SPLIT, n, p, inversion)
        assert np.array_equal(
            got, np.random.Generator(simulator._stream(seed, self.SPLIT, 0)).binomial(n, p))


def assert_matches_dense_product(case):
    """Fires, ap flags and carry equal both references; then again with
    every draw tied to the reference's 1 - survive (one ulp below it where a
    window afterpulses), which keeps the reference's fixed point and flips on
    any survive that differs from it in the last bit."""
    base, u_ap, coeffs, carry = case
    want = dense_afterpulse_pass(*case)
    for got in (new_afterpulse_pass(*case), scatter_afterpulse_pass(*case)):
        for g, w in zip(got, want):          # fires, ap flags, carry
            assert np.array_equal(g, w)
    tie = 1.0 - dense_survive(want[0], coeffs, carry)
    tied = np.where(want[1], np.nextafter(tie, 0.0), tie)
    tied_case = (base, tied, coeffs, carry)
    for g, w in zip(new_afterpulse_pass(*tied_case), want):
        assert np.array_equal(g, w)


class TestAfterpulsePass:
    @settings(max_examples=300, deadline=None)
    @given(afterpulse_pass_cases())
    def test_matches_dense_product(self, case):
        assert_matches_dense_product(case)

    @settings(max_examples=150, deadline=None)
    @given(afterpulse_pass_cases(sparse=True))
    def test_sparse_candidates_match_dense_product(self, case):
        assert_matches_dense_product(case)

    def test_reduceat_multiplies_each_segment_left_to_right(self):
        """The pass's products rest on np.multiply.reduceat taking each
        segment's factors in order; the reversed order gives other bits on
        some of these segments, so a reordering would show."""
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 301, size=10_000)
        factors = 1.0 - 0.5 * rng.random(int(sizes.sum())) ** 4
        heads = np.cumsum(sizes) - sizes
        got = np.multiply.reduceat(factors, heads)
        left_to_right, reversed_order = [], []
        for segment in np.split(factors, heads[1:]):
            values = segment.tolist()
            product = 1.0
            for f in values:
                product *= f
            left_to_right.append(product)
            product = 1.0
            for f in reversed(values):
                product *= f
            reversed_order.append(product)
        assert np.array_equal(got, left_to_right)
        assert not np.array_equal(got, reversed_order)

    def test_peak_memory_is_linear_in_the_chunk(self):
        """Depth 1000, fire density 0.9, about 30% candidates: a (candidate x
        fire) matrix would hold about 270 doubles per window."""
        n, depth = 1 << 16, 1000
        rng = np.random.default_rng(5)
        coeffs = np.full(depth, 0.357 / depth)
        base = rng.random(n) < 0.9
        u_ap = rng.random(n)
        carry = rng.random(depth) < 0.9
        p_all = simulator._survival_floor(coeffs)
        assert 0.25 < np.mean(u_ap < 1.0 - p_all) < 0.35
        tracemalloc.start()
        try:
            got = new_afterpulse_pass(base, u_ap, coeffs, carry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[1].any()
        assert peak < 8 * u_ap.nbytes

    def test_simulate_with_chunks_shorter_than_depth(self, monkeypatch):
        spec = AfterpulseSpec.exponential_from_rate(0.3, 0.01, 200)
        cfg = make_config(pulses=2000, nu=5.0, spec=spec, x_fraction=0.2,
                          misalignment=0.02, chunk_size=64)
        got = simulate(cfg)
        def dense(base, cand, u_cand, coeffs, carry):
            fires, ap, new_carry = dense_afterpulse_pass(
                base, dense_draws(base.size, cand, u_cand, coeffs), coeffs, carry)
            return fires, np.flatnonzero(ap), new_carry

        monkeypatch.setattr(simulator, "_afterpulse_pass", dense)
        want = simulate(cfg)
        assert got.clicks.ap0.any() and got.clicks.ap1.any()
        assert_same_result(got, want)


class TestStatisticalAgreement:
    def test_click_rates_match_model_without_afterpulse(self):
        cfg = make_config(pulses=10**6, nu=1.0, seed=21)
        result = simulate(cfg)
        qs_hat, qd_hat, n = empirical_click_stats(result.clicks)
        taus = measurement_taus(cfg.source, cfg.dets)
        p = stationary_click_prob(cfg.dets[0], taus.tau_0)
        qs, qd = click_probabilities(p, p)
        assert abs(qs_hat - qs) <= 3.0 * math.sqrt(qs * (1 - qs) / n)
        assert abs(qd_hat - qd) <= 3.0 * math.sqrt(qd * (1 - qd) / n)

    def test_x_basis_error_matches_model(self):
        cfg = make_config(pulses=2 * 10**6, nu=1.0, x_fraction=1.0,
                          misalignment=0.02, seed=33)
        result = simulate(cfg)
        taus = measurement_taus(cfg.source, cfg.dets, misalignment=0.02)
        p_plus = stationary_click_prob(cfg.dets[2], taus.tau_plus)
        p_minus = stationary_click_prob(cfg.dets[3], taus.tau_minus)
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
        tau = measurement_taus(poisson_distribution(1.0), make_detectors()).tau_0
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
        detp = DetectorParams(0.1, 0.1, AfterpulseSpec.none(), label="+")
        detm = DetectorParams(0.1, 0.2, AfterpulseSpec.none(), label="-")
        cfg = PulseTrainConfig(pulses=10**6, source=VACUUM,
                               dets=(det0, det1, detp, detm), x_fraction=0.0, seed=17)
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
    def test_every_code_round_trips_through_read_only_columns(self):
        codes = np.arange(32, dtype=np.uint8)
        clicks = ClickRecords(codes)
        columns = [getattr(clicks, name) for name in CLICK_COLUMNS]
        for col in columns:
            assert col.dtype == bool and col.size == 32
        rebuilt = sum(col.astype(np.uint8) << shift
                      for col, shift in zip(columns, (4, 3, 2, 1, 0)))
        assert np.array_equal(rebuilt, codes)
        for name, col in zip(CLICK_COLUMNS, columns):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = True
            with pytest.raises(AttributeError):
                setattr(clicks, name, col)
        assert np.array_equal(clicks.codes, codes)

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
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 9999, 10000, 10001,
                                   65535, 65536, 65537, 69999, 70000, 70001, 100000,
                                   131073, 1000003])
    def test_csv_bytes_match_row_formatter(self, tmp_path, n, header_comment):
        # every flag code in order, then a seeded random set
        codes = np.arange(n) % 32
        rng = np.random.default_rng(n)
        codes[n // 2:] = rng.integers(0, 32, size=n - n // 2)
        clicks = ClickRecords(codes)
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

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        """The traced peak of writing 10^6 rows (7-digit indices, 18 MB of
        text) stays within 2 MB: one reused block, far below even one byte
        per row."""
        n = 1_000_000
        rng = np.random.default_rng(7)
        clicks = ClickRecords(rng.integers(0, 32, size=n))
        tracemalloc.start()
        try:
            clicks.to_csv(tmp_path / "clicks.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        digits = 10 + sum(9 * 10 ** (w - 1) * w for w in range(2, 7))   # of 0 .. n - 1
        size = len(ClickRecords.CSV_HEADER) + 1 + digits + 11 * n
        assert (tmp_path / "clicks.csv").stat().st_size == size
        assert peak < 2 * 2**20

    def test_packed_bits_round_trip(self):
        result = simulate(make_config(pulses=2000, seed=19))
        packed = result.bits.packed()
        unpacked = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        assert np.array_equal(unpacked[:len(result.bits)], result.bits.bits)


class TestStreamBits:
    @pytest.mark.parametrize("seed", [0, 1, 123, 2**64 - 1])
    def test_match_generator_integers(self, seed):
        """The extractor seed and the double-click fill read raw words; NumPy's
        bounded uint8 integers give the same bits."""
        for size in (0, 1, 7, 8, 9, 63, 64, 65, 4097, 465_066, 1_000_003):
            want = np.random.Generator(simulator._stream(seed, simulator.STREAM_FILL, 3)
                                       ).integers(0, 2, size=size, dtype=np.uint8)
            got = simulator._stream_bits(simulator._stream(seed, simulator.STREAM_FILL, 3), size)
            assert got.dtype == np.uint8 and np.array_equal(got, want), size


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        with pytest.raises(ParameterError, match=rf"^extractor_seed must lie in "
                                                 rf"\[0, 2\^64\), got {seed}$"):
            extract([1, 0], 1, seed)
        assert extract([1, 0], 1, 2**64 - 1).size == 1

    def test_matches_explicit_toeplitz_matrix(self):
        rng = np.random.default_rng(23)
        x = rng.integers(0, 2, 40, dtype=np.uint8)
        out_len, seed = 12, 99
        result = extract(x, out_len, seed)
        from siqrng.simulator import STREAM_EXTRACTOR, _stream
        n = x.size
        r = np.random.Generator(_stream(seed, STREAM_EXTRACTOR, 0)).integers(
            0, 2, n + out_len - 1, dtype=np.uint8)
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

    @staticmethod
    def direct_extract(x, out_len, seed):
        """Reference: the Toeplitz product as one exact integer np.convolve."""
        from siqrng.simulator import STREAM_EXTRACTOR, _stream
        n = x.size
        r = np.random.Generator(_stream(seed, STREAM_EXTRACTOR, 0)).integers(
            0, 2, n + out_len - 1, dtype=np.uint8)
        conv = np.convolve(x.astype(np.int64), r.astype(np.int64))
        return (conv[n - 1:n - 1 + out_len] & 1).astype(np.uint8)

    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(37)
        for n, out_len in [(3000, 1300), (5000, 1000)]:
            x = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(extract(x, out_len, 41), self.direct_extract(x, out_len, 41))

    @staticmethod
    def scipy_fft_extract(x, out_len, seed):
        """Reference: the FFT path through scipy.fft, as scipy.signal.fftconvolve
        pads it."""
        from scipy import fft
        from siqrng.simulator import STREAM_EXTRACTOR, _stream
        n = x.size
        r = np.random.Generator(_stream(seed, STREAM_EXTRACTOR, 0)).integers(
            0, 2, n + out_len - 1, dtype=np.uint8)
        size = n + r.size - 1
        fast = fft.next_fast_len(size, True)
        conv = fft.irfft(fft.rfft(x.astype(float), fast) * fft.rfft(r.astype(float), fast),
                         fast)[:size]
        return (np.rint(conv).astype(np.int64)[n - 1:n - 1 + out_len] & 1).astype(np.uint8)

    @pytest.mark.parametrize("n, out_len", [(2048, 2048), (2049, 2048), (4097, 1024),
                                            (30_011, 7_001), (400_000, 200_000)])
    def test_matches_scipy_fft_reference(self, n, out_len):
        x = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(extract(x, out_len, 53), self.scipy_fft_extract(x, out_len, 53))

    # n + out_len - 1 = 6000 = 2^4 3 5^3 is 5-smooth, 6001 is one above it.
    @pytest.mark.parametrize("n, out_len", [(3000, 3000), (4000, 2001), (4001, 2001),
                                            (3001, 3000), (3002, 3000)])
    def test_fft_edges_match_references(self, n, out_len):
        """Circular FFT lengths at out_len == n and at n + out_len - 1 either
        5-smooth or one above: equal to the linear-convolution oracle and to
        the direct convolution."""
        assert simulator._next_5_smooth(6000) == 6000 < simulator._next_5_smooth(6001)
        x = np.random.default_rng(n + out_len).integers(0, 2, n, dtype=np.uint8)
        fft = extract(x, out_len, 61)
        assert np.array_equal(fft, self.scipy_fft_extract(x, out_len, 61))
        assert np.array_equal(fft, self.direct_extract(x, out_len, 61))

    def test_one_output_bit_of_four_million_input_bits(self):
        """A single output bit of 2^22 + 1 input bits is the parity of the
        Toeplitz matrix's first row, r[n - 1 - j], against x."""
        from siqrng.simulator import STREAM_EXTRACTOR, _stream
        n = (1 << 22) + 1
        x = np.random.default_rng(67).integers(0, 2, n, dtype=np.uint8)
        r = np.random.Generator(_stream(71, STREAM_EXTRACTOR, 0)).integers(0, 2, n, dtype=np.uint8)
        parity = int(np.dot(x.astype(np.int64), r[::-1].astype(np.int64))) & 1
        assert extract(x, 1, 71).tolist() == [parity]

    def test_padded_length_is_scipy_next_fast_len(self):
        from scipy import fft
        rng = np.random.default_rng(59)
        for n in [*range(1, 20_000), *rng.integers(1, 10**9, 2000).tolist()]:
            assert simulator._next_5_smooth(n) == fft.next_fast_len(n, True), n

    def test_extracted_stream_passes_null_tests(self):
        cfg = make_config(pulses=1_500_000, nu=10.0, seed=43)
        result = simulate(cfg)
        n_out = 500_000
        out = extract(result.bits.bits, n_out, 47).astype(float)
        assert abs(out.mean() - 0.5) <= 4.0 * math.sqrt(0.25 / n_out)
        for lag in range(1, 17):
            assert abs(empirical_autocorrelation(out, lag)) <= 4.0 / math.sqrt(n_out)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_four_step_path_matches_direct(self, data):
        n = data.draw(st.integers(1, 4000), label="n")
        out_len = data.draw(st.integers(1, n), label="out_len")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        x = np.random.default_rng(n + out_len).integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(extract(x, out_len, seed), self.direct_extract(x, out_len, seed))

    # n + out_len - 1 = r.size; each grid has rows = 2, N in {2, 4, 6, 10}
    @pytest.mark.parametrize("n, out_len, size", [(1, 1, 2), (2, 1, 2), (2, 2, 4), (3, 2, 4),
                                                  (3, 3, 6), (4, 3, 6), (5, 5, 10), (6, 5, 10)])
    def test_two_row_grids_match_direct(self, n, out_len, size):
        grid = simulator._four_step(n + out_len - 1)
        assert (grid.size, grid.rows, grid.cols) == (size, 2, size // 2)
        for seed in range(8):
            x = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(extract(x, out_len, seed), self.direct_extract(x, out_len, seed))

    @pytest.mark.parametrize("size", [243, 625, 2187, 15625])
    def test_odd_5_smooth_lengths_round_up_to_even(self, size):
        """r.size = 3^5, 5^4, 3^7, 5^6 is its own 5-smooth length, which the
        grid rounds up to an even N; the output bits are the exact ones."""
        grid = simulator._four_step(size)
        assert simulator._next_5_smooth(size) == size < grid.size
        assert grid.size % 2 == 0 == grid.rows % 2 and grid.rows * grid.cols == grid.size
        out_len = size // 3
        n = size - out_len + 1
        x = np.random.default_rng(size).integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(extract(x, out_len, 73), self.direct_extract(x, out_len, 73))

    @pytest.mark.parametrize("n", [4839, 310_045, 3_100_000])
    def test_traced_peak_stays_near_two_spectra(self, n):
        """The traced peak, twiddle tables included, stays within 3.2 x 8 N0
        bytes, N0 the 5-smooth length of r: two half spectra take 2 x 8 N, a
        full (rows/2 + 1) x cols twiddle table would add 8 N more.  The bound
        was measured with NumPy 2 only; NumPy 1's FFT wrappers copy their
        input and may read higher."""
        x = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        n0 = simulator._next_5_smooth(n + n // 2 - 1)
        extract(x, n // 2, 79)      # the first call in a process imports numpy.fft
        tracemalloc.start()
        try:
            extract(x, n // 2, 79)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * 8 * n0, peak / (8 * n0)

    def test_lost_precision_raises_package_error(self, monkeypatch):
        irfft = np.fft.irfft

        def off_by_three_tenths(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out.flat[7] += 0.3
            return out

        x = np.random.default_rng(83).integers(0, 2, 3000, dtype=np.uint8)
        monkeypatch.setattr(np.fft, "irfft", off_by_three_tenths)
        with pytest.raises(PrecisionError, match="^FFT convolution lost integer precision$"):
            extract(x, 1000, 89)
        assert issubclass(PrecisionError, ArithmeticError)
