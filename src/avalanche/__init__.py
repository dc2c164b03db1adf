"""Chain-binomial avalanche Markov chain: simulation, branching and
mean-field approximations, exact absorbing-chain analytics, and the
catalog of analytical bounds with a Monte Carlo verification harness.
``__all__`` is the one public list, in the README's groups: every
function and class in the package is reached from it or from
``cli.main``."""

from .model import ModelParams, Trajectory, kernel_row, kernel_pmf_exact, \
    simulate_count, simulate_set
from .branching import extinction_prob, borel_tanner_pmf, gw_simulate, \
    gw_extinct_by, agresti_duration_bounds, lindvall_max_bound
from .coupling import CoupledPath, simulate_coupled, step_coupled_maximal
from .exact import PrecisionConfig, SubstochasticSystem, expected_duration, \
    expected_size, duration_survival, reach_probability, max_distribution, \
    expected_duration_float, expected_size_float, reach_probability_float, \
    kernel_power_mean
from .bounds import reach_bounds_single, size_limit_correction, \
    size_limit_second_order, duration_scaling_check, max_mean_growth_bound
from .meanfield import mean_field_upper_bounds, decay_gamma, \
    exit_horizon_m0, concentration_envelope, FluctuationModel, ar1_variance, \
    simulate_ar1
from .harness import first_passage_fraction, simulate_scaled_chain, \
    mc_size_pmf
from .rng import replicate_rng

__all__ = [
    "ModelParams", "kernel_row", "extinction_prob", "gw_extinct_by",
    "agresti_duration_bounds", "lindvall_max_bound", "CoupledPath",
    "simulate_coupled", "step_coupled_maximal", "PrecisionConfig",
    "SubstochasticSystem", "expected_duration", "expected_size",
    "replicate_rng", "reach_bounds_single", "size_limit_correction",
    "size_limit_second_order", "duration_scaling_check",
    "max_mean_growth_bound", "mean_field_upper_bounds", "decay_gamma",
    "exit_horizon_m0", "concentration_envelope", "FluctuationModel",
    "ar1_variance", "Trajectory", "kernel_pmf_exact", "simulate_count",
    "simulate_set", "borel_tanner_pmf", "gw_simulate", "simulate_ar1",
    "duration_survival", "reach_probability", "max_distribution",
    "expected_duration_float", "expected_size_float",
    "reach_probability_float", "kernel_power_mean",
    "first_passage_fraction", "simulate_scaled_chain", "mc_size_pmf",
]
