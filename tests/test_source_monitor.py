import json
import math

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
from siqrng.source_monitor import clipped_interval


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
        d = poisson_distribution(10.0, n_max=100)
        assert d.tail_mass < 1e-12

    def test_truncation_warns(self):
        with pytest.warns(RuntimeWarning):
            poisson_distribution(10.0, n_max=15)

    def test_rejects_negative_mean(self):
        with pytest.raises(ParameterError):
            poisson_distribution(-1.0)


class TestBernoulliTransform:
    def test_identity(self):
        d = poisson_distribution(3.0)
        out = bernoulli_transform(d, 1.0)
        assert np.allclose(out.probs, d.probs, atol=1e-14)

    def test_total_loss_gives_vacuum(self):
        d = poisson_distribution(3.0)
        out = bernoulli_transform(d, 0.0)
        assert out.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.probs[1:] < 1e-12)

    @pytest.mark.parametrize("nu", [1.0, 10.0, 50.0])
    @pytest.mark.parametrize("xi", [0.1, 0.5])
    def test_poisson_closure(self, nu, xi):
        thinned = bernoulli_transform(poisson_distribution(nu), xi)
        target = poisson_distribution(nu * xi, n_max=thinned.n_max)
        assert total_variation(thinned, target) < 1e-10

    def test_composition_law(self):
        d = poisson_distribution(5.0)
        once = bernoulli_transform(bernoulli_transform(d, 0.6), 0.5)
        combined = bernoulli_transform(d, 0.3)
        assert total_variation(once, combined) < 1e-10

    def test_tail_carried_through(self):
        d = PhotonDistribution(probs=np.array([0.5, 0.3]), tail_mass=0.2)
        out = bernoulli_transform(d, 0.5)
        assert out.tail_mass == pytest.approx(0.2, abs=1e-12)


class TestVacuumProbability:
    def test_pure_vacuum(self):
        d = PhotonDistribution(probs=np.array([1.0]))
        assert vacuum_probability(d, 0.7) == (1.0, 1.0)

    def test_poisson_thinning_oracle(self):
        lo, hi = vacuum_probability(poisson_distribution(10.0), 0.1)
        assert lo == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert hi - lo < 1e-12

    def test_two_point_hand_value(self):
        d = PhotonDistribution(probs=np.array([0.5, 0.5]))
        lo, hi = vacuum_probability(d, 0.5)
        assert lo == pytest.approx(0.75, rel=1e-15)
        assert hi == pytest.approx(0.75, rel=1e-15)

    def test_matches_full_transform(self):
        d = poisson_distribution(4.0)
        lo, hi = vacuum_probability(d, 0.3)
        transformed = bernoulli_transform(d, 0.3)
        assert lo <= transformed.probs[0] + transformed.tail_mass + 1e-12
        assert transformed.probs[0] == pytest.approx(lo, abs=1e-12)

    def test_tail_widens_interval(self):
        d = PhotonDistribution(probs=np.array([0.6, 0.3]), tail_mass=0.1)
        lo, hi = vacuum_probability(d, 0.5)
        assert hi == pytest.approx(lo + 0.1, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(nu=st.sampled_from([0.0, 0.3, 1.0, 10.0, 50.0]),
           xis=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]),
                                  st.floats(0.0, 1.0)), min_size=1, max_size=40))
    def test_array_cells_equal_scalar_calls(self, nu, xis):
        d = poisson_distribution(nu)
        lo, hi = vacuum_probability(d, np.array(xis))
        assert lo.shape == hi.shape == (len(xis),)
        assert [(a, b) for a, b in zip(lo.tolist(), hi.tolist())] == [
            vacuum_probability(d, xi) for xi in xis]

    def test_array_spanning_several_power_blocks(self):
        d = poisson_distribution(50.0)
        xis = np.linspace(0.0, 1.0, 600).reshape(3, 200)    # blocks cross rows
        lo, hi = vacuum_probability(d, xis)
        assert lo.shape == xis.shape
        assert lo.tolist() == [[vacuum_probability(d, xi)[0] for xi in row]
                               for row in xis.tolist()]
        assert hi.tolist() == [[vacuum_probability(d, xi)[1] for xi in row]
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

