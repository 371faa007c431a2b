"""The benchmark's metrics: names, units, direction, and for each per-layer
metric the end-to-end metric and workloads it should move.

``BENCHMARK.json`` at the root of the repository repeats the names, units,
directions and bounds; ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float          # share of the parent's median it may worsen by


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str            # end-to-end metric and workloads this one should move


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_norm", "ref", "lower", 0.25),
    EndToEnd("items_per_ref", "1/ref", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)

_SWEEP_M = "items_per_ref on sweep_monitored"
_SWEEP_A = "items_per_ref on sweep_analytic"

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("cli.cmd_simulate.self_s", "s", "lower",
             "items_per_ref on mc_shallow (manifest, hashing, bits.json writes)"),
    PerLayer("cli.cmd_rates.self_s", "s", "lower", _SWEEP_A),
    PerLayer("cli.cmd_hmin.self_s", "s", "lower", _SWEEP_A),
    PerLayer("cli.cmd_finite_sampling.self_s", "s", "lower", _SWEEP_M),
    PerLayer("simulator.simulate.busy_s", "s", "lower",
             "items_per_ref on mc_deep (main share) and mc_shallow (minor share)"),
    PerLayer("simulator.simulate.ns_per_pulse", "ns", "lower",
             "items_per_ref on mc_deep (main share) and mc_shallow (minor share)"),
    PerLayer("simulator.to_csv.busy_s", "s", "lower",
             "items_per_ref on mc_shallow; mc_deep moves little"),
    PerLayer("simulator.to_csv.mb_per_s", "MB/s", "higher",
             "items_per_ref on mc_shallow; mc_deep moves little"),
    PerLayer("simulator.extract.busy_s", "s", "lower", "items_per_ref on mc_shallow"),
    PerLayer("simulator.extract.bits_in", "count", "higher",
             "none: must repeat exactly for a given seed"),
    PerLayer("simulator.extract.bits_out", "count", "higher",
             "none: must repeat exactly for a given seed"),
    PerLayer("simulator.result_mb", "MB", "lower",
             "peak_rss_mb on mc_shallow (computed nbytes of SimulationResult arrays)"),
    PerLayer("simulator.raw_bits", "count", "higher",
             "none: must repeat exactly for a given seed (guards the physics)"),
    PerLayer("simulator.fill_ratio", "ratio", "lower",
             "none: must repeat exactly for a given seed (guards the physics)"),
    PerLayer("finite_size.hmin_with_tau_uncertainty.calls", "count", "lower", _SWEEP_M),
    PerLayer("finite_size.hmin_with_tau_uncertainty.busy_s", "s", "lower", _SWEEP_M),
    PerLayer("finite_size.theta_random_sampling.calls", "count", "lower", _SWEEP_A),
    PerLayer("finite_size.theta_random_sampling.busy_s", "s", "lower", _SWEEP_A),
    PerLayer("finite_size.theta_random_sampling.infeasible", "count", "lower", _SWEEP_A),
    PerLayer("finite_size.RateScenario.rates.calls", "count", "lower", _SWEEP_A),
    PerLayer("finite_size.RateScenario.rates.busy_s", "s", "lower", _SWEEP_A),
    PerLayer("finite_size.RateScenario.rates.self_s", "s", "lower", _SWEEP_A),
    PerLayer("entropy_engine.ArmState.from_detectors.calls", "count", "lower", _SWEEP_M),
    PerLayer("entropy_engine.ArmState.from_detectors.busy_s", "s", "lower", _SWEEP_M),
    PerLayer("entropy_engine.make_entropy_report.calls", "count", "lower", _SWEEP_M),
    PerLayer("entropy_engine.make_entropy_report.busy_s", "s", "lower", _SWEEP_M),
    PerLayer("entropy_engine.entropy_report_from_taus.calls", "count", "lower", _SWEEP_A),
    PerLayer("entropy_engine.entropy_report_from_taus.busy_s", "s", "lower", _SWEEP_A),
    PerLayer("entropy_engine.measurement_taus.calls", "count", "lower", _SWEEP_A),
    PerLayer("entropy_engine.measurement_taus.busy_s", "s", "lower", _SWEEP_A),
    PerLayer("source_monitor.vacuum_probability.calls", "count", "lower", _SWEEP_A),
    PerLayer("source_monitor.vacuum_probability.busy_s", "s", "lower", _SWEEP_A),
    PerLayer("source_monitor.poisson_distribution.busy_s", "s", "lower",
             "setup_s and wall_norm on all workloads"),
    PerLayer("detector_model.AfterpulseSpec.worst_case_total.calls", "count", "lower",
             "items_per_ref on sweep_monitored and sweep_analytic"),
    PerLayer("detector_model.AfterpulseSpec.worst_case_total.busy_s", "s", "lower",
             "items_per_ref on sweep_monitored and sweep_analytic"),
    PerLayer("trace.overhead_ratio", "ratio", "lower",
             "none: traced pass wall / median untraced pass wall"),
)
