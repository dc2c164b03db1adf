"""Chain-binomial avalanche Markov chain: simulation, branching and
mean-field approximations, exact absorbing-chain analytics, and the
catalog of analytical bounds with a Monte Carlo verification harness."""

from .model import ModelParams, Trajectory, kernel_row, simulate_count, \
    simulate_set, conditional_moments
from .branching import BranchingParams, extinction_prob, borel_tanner_pmf, \
    gw_simulate, gw_extinct_by, agresti_duration_bounds, lindvall_max_bound
from .coupling import CoupledPath, simulate_coupled, step_coupled_maximal, \
    tv_binomial_poisson, tv_poisson_poisson
from .exact import PrecisionConfig, SubstochasticSystem, expected_duration, \
    expected_size, duration_survival, reach_probability, max_distribution
from .rng import replicate_rng

__all__ = [
    "ModelParams", "Trajectory", "kernel_row",
    "simulate_count", "simulate_set", "conditional_moments",
    "BranchingParams", "extinction_prob", "borel_tanner_pmf", "gw_simulate",
    "gw_extinct_by", "agresti_duration_bounds", "lindvall_max_bound",
    "CoupledPath", "simulate_coupled", "step_coupled_maximal",
    "tv_binomial_poisson", "tv_poisson_poisson",
    "PrecisionConfig", "SubstochasticSystem", "expected_duration",
    "expected_size", "duration_survival", "reach_probability",
    "max_distribution", "replicate_rng",
]
