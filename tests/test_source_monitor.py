import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siqrng import (
    ParameterError,
    PhotonDistribution,
    bernoulli_transform,
    hoeffding_delta,
    monitor_attenuation,
    poisson_distribution,
    vacuum_probability,
)
from siqrng.source_monitor import _lgamma_int, clipped_interval, default_poisson_truncation


def total_variation(a: PhotonDistribution, b: PhotonDistribution) -> float:
    n = max(a.probs.size, b.probs.size)
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[:a.probs.size] = a.probs
    pb[:b.probs.size] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


class TestPhotonDistribution:
    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            PhotonDistribution(probs=np.array([0.5, 0.4]))   # sums to 0.9
        with pytest.raises(ParameterError):
            PhotonDistribution(probs=np.array([1.2, -0.2]))
        with pytest.raises(ParameterError):
            PhotonDistribution(probs=np.array([0.9]), tail_mass=-0.1)

    def test_immutable(self):
        d = PhotonDistribution(probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_json_round_trip(self):
        # the documented format: {"probs": [...], "tail_mass": t}
        d = PhotonDistribution(probs=np.array([0.25, 0.5, 0.25 - 1e-13]),
                               tail_mass=1e-13)
        assert json.loads(json.dumps(d.to_dict())) == {
            "probs": [0.25, 0.5, 0.25 - 1e-13], "tail_mass": 1e-13}


class TestPoisson:
    def test_vacuum_source(self):
        d = poisson_distribution(0.0)
        assert d.probs[0] == 1.0
        assert d.tail_mass == 0.0

    def test_unit_mean(self):
        d = poisson_distribution(1.0)
        assert d.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_tail_tiny_at_default_truncation(self):
        d = poisson_distribution(10.0)
        assert d.tail_mass < 1e-12

    def test_rejects_negative_mean(self):
        with pytest.raises(ParameterError):
            poisson_distribution(-1.0)

    @pytest.mark.parametrize("nu, total", [(2300.0, "1.0000000000011235"),
                                           (10000.0, "1.0000000000140308")])
    def test_rejects_mean_whose_pmf_sums_above_one(self, nu, total):
        # the pmf's rounding drift passes the sum tolerance at these means
        with pytest.raises(ParameterError, match=rf"^Poisson probabilities of mean "
                                                 rf"nu = {nu} sum to {total}, "):
            poisson_distribution(nu)

    @pytest.mark.parametrize("nu, total", [(6000.0, "0.9999999999937795"),
                                           (20000.0, "0.9999999999880748"),
                                           (50000.0, "0.999999999981043")])
    def test_rejects_mean_whose_pmf_sums_short_of_one(self, nu, total):
        # the true tail is below 2^-107, so the deficit is rounding drift
        with pytest.raises(ParameterError, match=rf"^Poisson probabilities of mean "
                                                 rf"nu = {nu} sum to {total}, more "
                                                 rf"than 1e-12 below 1 "):
            poisson_distribution(nu)

    def test_deficit_within_tolerance_is_the_tail(self):
        d = poisson_distribution(3000.0)            # sums to 1 - 6.2e-13
        assert 0.0 < d.tail_mass <= 1e-12

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_rejects_non_finite_mean(self, nu):
        # inf used to overflow while sizing the truncation
        with pytest.raises(ParameterError, match="must be finite and >= 0"):
            poisson_distribution(nu)

    def test_rejects_huge_mean_before_building_the_pmf(self):
        # the pmf peaks at about 0.1 GB at nu = 1e5 and grows linearly in nu
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=r"^mean photon number nu = 10000000.0 is "
                                                 r"above the bound 100000$"):
            poisson_distribution(1e7)
        assert time.perf_counter() - start < 1.0

    @staticmethod
    def scipy_stats_poisson(nu, n_max):
        """Reference: the body of poisson_distribution through scipy.stats."""
        from scipy import stats
        n = np.arange(n_max + 1)
        probs = stats.poisson.pmf(n, nu)
        tail = float(stats.poisson.sf(n_max, nu))
        drift = 1.0 - math.fsum(probs.tolist()) - tail
        return probs, max(0.0, tail + drift)

    @settings(max_examples=300, deadline=None)
    @given(nu=st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 50.0]), st.floats(0.0, 1e3)))
    def test_matches_scipy_stats_poisson(self, nu):
        d = poisson_distribution(nu)
        probs, tail = self.scipy_stats_poisson(nu, default_poisson_truncation(nu))
        assert np.array_equal(d.probs, probs)
        assert d.tail_mass == tail


class TestPoissonWithoutScipy:
    """The start-up path of poisson_distribution, with SciPy as reference."""

    def test_lgamma_int_bit_identical_to_gammaln(self):
        from scipy import special
        for x in (np.arange(1.0, 2_000_002.0), np.array([1e8, 1e8 + 1, 3e8, 1e12])):
            assert np.array_equal(_lgamma_int(x).view(np.int64),
                                  special.gammaln(x).view(np.int64))

    @staticmethod
    def log_chernoff(nu, m):
        """Log of the Chernoff bound e^-nu (e nu / m)^m on P(N >= m), m > nu:
        the truncation check poisson_distribution used to make at run time."""
        return -nu + m * (1.0 + math.log(nu) - math.log(m))

    # log 2^-110, less a margin of 1 for the rounding of the log-space bound
    LOG_TAIL_ABSORBED = -110.0 * math.log(2.0) - 1.0

    @pytest.mark.parametrize("nu", [0.0, 5e-324, 1e-300,
                                    *np.logspace(-12, 3, 61).tolist(), 0.7, 2.5, 49.9,
                                    2290.0, 3000.0])
    def test_tail_is_the_absorbed_drift_at_default_truncation(self, nu):
        from scipy import special
        d = poisson_distribution(nu)
        total = math.fsum(d.probs.tolist())
        assert d.tail_mass == max(0.0, 1.0 - total)
        tail = float(special.pdtrc(d.n_max, nu))
        assert tail < 2.0**-107
        assert d.tail_mass == max(0.0, tail + (1.0 - total - tail))
        if nu > 0.0:
            assert self.log_chernoff(nu, d.n_max + 1) < self.LOG_TAIL_ABSORBED

    def test_truncation_tail_is_absorbed_on_a_dense_grid(self):
        # At fixed m both bounds rise with nu, and m = default + 1 is constant
        # on each ((k-1)/10, k/10], so nu = k/10 is the worst point of each
        # interval.  The sum check rejects some large means (2300, 4000, 5e4)
        # and accepts others (3000), so the grid runs to 10^4; beyond it the
        # log bound keeps falling, by about 14 per unit of nu.  The log grid
        # covers the small means, where m = 51.
        from scipy import special
        nus = np.concatenate([np.logspace(-300, -1, 300), np.arange(1, 100_001) / 10.0])
        ms = np.array([default_poisson_truncation(nu) + 1 for nu in nus.tolist()])
        assert max(map(self.log_chernoff, nus.tolist(), ms.tolist())) < self.LOG_TAIL_ABSORBED
        assert float(special.pdtrc(ms - 1, nus).max()) < 2.0**-107


class TestBernoulliTransform:
    def test_identity(self):
        d = poisson_distribution(3.0)
        out = bernoulli_transform(d, 1.0)
        assert np.array_equal(out.probs, d.probs)
        assert out.tail_mass == d.tail_mass

    def test_total_loss_gives_vacuum(self):
        d = poisson_distribution(3.0)
        out = bernoulli_transform(d, 0.0)
        assert out.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.probs[1:] < 1e-12)

    @pytest.mark.parametrize("nu", [1.0, 10.0, 50.0])
    @pytest.mark.parametrize("xi", [0.1, 0.5])
    def test_poisson_closure(self, nu, xi):
        from scipy import stats
        thinned = bernoulli_transform(poisson_distribution(nu), xi)
        target = stats.poisson.pmf(np.arange(thinned.n_max + 1), nu * xi)
        assert 0.5 * float(np.abs(thinned.probs - target).sum()) < 1e-10

    def test_composition_law(self):
        d = poisson_distribution(5.0)
        once = bernoulli_transform(bernoulli_transform(d, 0.6), 0.5)
        combined = bernoulli_transform(d, 0.3)
        assert total_variation(once, combined) < 1e-10

    def test_tail_carried_through(self):
        d = PhotonDistribution(probs=np.array([0.5, 0.3]), tail_mass=0.2)
        out = bernoulli_transform(d, 0.5)
        assert out.tail_mass == pytest.approx(0.2, abs=1e-12)

    @staticmethod
    def mpmath_thinning(probs, xi):
        """Reference: D(m) = sum_{n>=m} P(n) C(n,m) xi^m (1-xi)^(n-m) at 50
        digits, each term from the last by the ratio (1-xi) n / (n-m)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.mpf(xi)
            p = [mpmath.mpf(v) for v in probs]
            out = []
            for m in range(len(p)):
                term = x**m
                acc = p[m] * term
                for n in range(m + 1, len(p)):
                    term = term * (1 - x) * n / (n - m)
                    acc += p[n] * term
                out.append(acc)
            return out

    @pytest.mark.parametrize("nu, xi", [(1.0, 1e-9), (10.0, 0.5), (50.0, 0.3),
                                        (50.0, 1.0 - 2**-53)])
    def test_matches_mpmath_within_the_horner_bound(self, nu, xi):
        d = poisson_distribution(nu)
        got = bernoulli_transform(d, xi).probs.tolist()
        bound = 2 * (d.n_max + 1) * 2.0**-53
        ref = self.mpmath_thinning(d.probs.tolist(), xi)
        checked = [m for m, r in enumerate(ref) if r >= 1e-250]
        assert len(checked) > 20
        assert max(float(abs(got[m] - ref[m]) / ref[m]) for m in checked) <= bound

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                            min_size=1, max_size=60).filter(any),
           xi=st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]),
                        st.floats(0.0, 1.0)))
    def test_any_distribution_thins_to_non_negative_cells(self, weights, xi):
        total = math.fsum(weights)
        probs = np.array(weights) / total
        d = PhotonDistribution(probs=probs, tail_mass=max(0.0, 1.0 - math.fsum(probs.tolist())))
        out = bernoulli_transform(d, xi)
        assert out.probs.min() >= 0.0
        assert out.n_max == d.n_max


class TestVacuumProbability:
    def test_pure_vacuum(self):
        d = PhotonDistribution(probs=np.array([1.0]))
        lo = vacuum_probability(d, 0.7)
        assert lo.shape == () and lo == 1.0

    def test_poisson_thinning_oracle(self):
        lo = vacuum_probability(poisson_distribution(10.0), 0.1)
        assert lo == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_two_point_hand_value(self):
        d = PhotonDistribution(probs=np.array([0.5, 0.5]))
        assert vacuum_probability(d, 0.5) == pytest.approx(0.75, rel=1e-15)

    def test_matches_full_transform(self):
        d = poisson_distribution(4.0)
        lo = vacuum_probability(d, 0.3)
        transformed = bernoulli_transform(d, 0.3)
        assert lo <= transformed.probs[0] + transformed.tail_mass + 1e-12
        assert transformed.probs[0] == pytest.approx(lo, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(nu=st.sampled_from([0.0, 0.3, 1.0, 10.0, 50.0]),
           xis=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]),
                                  st.floats(0.0, 1.0)), min_size=1, max_size=40))
    def test_array_cells_equal_scalar_calls(self, nu, xis):
        d = poisson_distribution(nu)
        lo = vacuum_probability(d, np.array(xis))
        assert lo.shape == (len(xis),)
        assert lo.tolist() == [float(vacuum_probability(d, xi)) for xi in xis]

    def test_array_spanning_several_power_blocks(self):
        d = poisson_distribution(50.0)
        xis = np.linspace(0.0, 1.0, 600).reshape(3, 200)    # blocks cross rows
        lo = vacuum_probability(d, xis)
        assert lo.shape == xis.shape
        assert lo.tolist() == [[float(vacuum_probability(d, xi)) for xi in row]
                               for row in xis.tolist()]

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2**-52, math.nan, -math.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_array_outside_unit_interval_rejected(self, bad, where):
        xis = np.linspace(0.0, 1.0, 8)
        xis[where], xis[7] = bad, 2.0    # the message names the first one
        with pytest.raises(ParameterError, match=rf"xi must lie in \[0, 1\], got {bad}$"):
            vacuum_probability(poisson_distribution(1.0), xis)


class TestMonitorAttenuation:
    def test_balanced_ideal(self):
        assert monitor_attenuation(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_examples(self):
        assert monitor_attenuation(0.5, 0.8) == pytest.approx(0.8, rel=1e-12)
        assert monitor_attenuation(0.9, 0.9) == pytest.approx(0.1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            monitor_attenuation(0.0, 1.0)
        with pytest.raises(ParameterError):
            monitor_attenuation(1.0, 1.0)


class TestHoeffding:
    def test_round_trip(self):
        for n, eps in [(100, 0.01), (10**5, 2.0**-50), (10**7, 1e-9)]:
            delta = hoeffding_delta(n, eps)
            assert 2.0 * math.exp(-2.0 * n * delta**2) == pytest.approx(eps, rel=1e-12)

    def test_reference_value(self):
        assert hoeffding_delta(10**5, 2.0**-50) == pytest.approx(0.0132949, rel=1e-5)

    def test_monotonicities(self):
        assert hoeffding_delta(10**6, 1e-9) < hoeffding_delta(10**5, 1e-9)
        assert hoeffding_delta(10**5, 1e-12) > hoeffding_delta(10**5, 1e-9)

    def test_interval_clipping(self):
        assert clipped_interval(0.99, 0.05) == (0.94, 1.0)
        assert clipped_interval(0.02, 0.05) == (0.0, 0.07)

    def test_nan_count_is_named(self):
        # a NaN count used to give a NaN radius
        with pytest.raises(ParameterError, match="^n_samples must be >= 1, got nan$"):
            hoeffding_delta(math.nan, 2.0**-50)
