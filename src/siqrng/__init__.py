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
    total_afterpulse_infinite,
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
    BudgetError,
    ConvergenceError,
    DegenerateError,
    InfeasibleError,
    ParameterError,
    SiqrngError,
)
from .finite_size import (
    RateReport,
    RateScenario,
    SecurityParams,
    composable_epsilon,
    final_rate,
    rate_entropy_inequality,
    rate_infinite_length,
    rate_random_sampling,
    theta_entropy_inequality,
    theta_random_sampling,
)
from .simulator import (
    BitStream,
    ClickRecords,
    PulseTrainConfig,
    SimulationResult,
    extract,
    simulate,
)
from .source_monitor import (
    PhotonDistribution,
    bernoulli_transform,
    hoeffding_delta,
    monitor_attenuation,
    poisson_distribution,
    vacuum_probability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
