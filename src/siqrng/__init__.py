"""Security modeling, finite-size bounds and Monte Carlo simulation for
source-independent quantum random number generators with imperfect detectors.
"""

__version__ = "0.1.0"

from .detector_model import (
    AfterpulseSpec,
    DetectorParams,
    afterpulse_coeff,
    afterpulse_prob_infinite,
    detector_set,
    response_prob,
    response_prob_no_afterpulse,
    total_afterpulse_finite,
)
from .entropy_engine import (
    ArmState,
    EntropyReport,
    binary_entropy,
    click_probabilities,
    empirical_autocorrelation,
    expectation_k,
    hmin_a,
    lagged_response_probs,
    prior_autocorrelation,
    x_basis_error,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    InfeasibleError,
    ParameterError,
    PrecisionError,
    SiqrngError,
)
from .finite_size import (
    RateScenario,
    SecurityParams,
    theta_entropy_inequality,
    theta_random_sampling,
)
from .source_monitor import (
    PhotonDistribution,
    bernoulli_transform,
    hoeffding_delta,
    monitor_attenuation,
    poisson_distribution,
    vacuum_probability,
)

# The simulator is imported on the first use of one of its names (PEP 562),
# so a command that never simulates does not load it.
_SIMULATOR_NAMES = ("BitStream", "ClickRecords", "PulseTrainConfig", "SimulationResult",
                    "extract", "simulate", "simulator")


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from importlib import import_module    # `from . import simulator` recurses here
        simulator = import_module(".simulator", __name__)
        return simulator if name == "simulator" else getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_SIMULATOR_NAMES))
