"""Numerical laboratory for concentration effects in risk-sharing economies.

The package is organized bottom-up: convex geometry primitives,
volumes and cap fractions (``geometry``), seeded perturbation samplers and
Monte Carlo estimates (``sampling``), closed-form tail bounds as plain
floats (``bounds``), preference/belief machinery (``preferences``),
exchange-economy solvers (``economy``), and the reproducible experiment
runners behind the ``risklab`` CLI (``experiments``).
"""

from ._version import __version__
from .bounds import (
    bound_cru,
    bound_lemma1,
    bound_thm1,
    bound_thm2,
    bound_thm4,
    prop7_prefactor,
    width_floor_ball_instance,
    width_volume_floor,
)
from .economy import (
    Agent,
    Allocation,
    EconomySpec,
    EquilibriumResult,
    belief_volume_split,
    cru,
    equal_split,
    individual_improvement_event,
    planner_allocation,
    rho,
    tatonnement_equilibrium,
)
from .experiments import (
    ExperimentConfig,
    RunResult,
    default_config,
    load_config,
    parse_config_text,
    reproduce_paper_anchors,
    run_experiment,
)
from .geometry import (
    Ball,
    Box,
    ConvergenceError,
    HalfSpace,
    Polytope,
    bm_check,
    cap_fraction,
    distance_point_to_convex,
    polytope_distance,
    separation_bound_check,
    volume,
)
from .preferences import (
    CobbDouglasEU,
    CRRASEU,
    MaxMinEU,
    belief_set,
    belief_set_extension_empty,
    cap_prior_polytope,
)
from .sampling import (
    MCEstimate,
    PerturbationLaw,
    SeedSpec,
    gaussian_kappa_ratio,
    mc_probability,
    sample_restricted_gaussian,
    sample_uniform_ball,
    sample_uniform_simplex,
)

__all__ = [
    "__version__",
    # geometry
    "Ball", "Box", "HalfSpace", "Polytope", "ConvergenceError",
    "bm_check", "cap_fraction", "distance_point_to_convex", "polytope_distance",
    "separation_bound_check", "volume",
    # sampling
    "SeedSpec", "PerturbationLaw", "MCEstimate", "mc_probability",
    "sample_uniform_ball", "sample_restricted_gaussian", "sample_uniform_simplex",
    "gaussian_kappa_ratio",
    # bounds
    "bound_thm1", "bound_thm2", "bound_cru", "bound_thm4",
    "bound_lemma1", "prop7_prefactor", "width_volume_floor", "width_floor_ball_instance",
    # preferences
    "CobbDouglasEU", "CRRASEU", "MaxMinEU", "belief_set",
    "belief_set_extension_empty", "cap_prior_polytope",
    # economy
    "Agent", "EconomySpec", "Allocation", "EquilibriumResult", "equal_split",
    "tatonnement_equilibrium", "planner_allocation", "individual_improvement_event",
    "cru", "rho", "belief_volume_split",
    # experiments
    "ExperimentConfig", "RunResult", "parse_config_text", "load_config",
    "default_config", "run_experiment", "reproduce_paper_anchors",
]
