"""Tracking solutions of time-varying variational inequalities.

Contractive single-iterate solvers, cyclic forward-backward learners,
expert-aggregation meta-algorithms with logarithmic and constant
tracking guarantees, and a discrete-dynamics engine for the
convergence / periodicity / chaos phenomenology of fixed-step gradient
descent on periodic problems.
"""

from .algorithms import (ContractiveForward, CyclicFB, CyclicFBState,
                         MetaAdaptive, MetaFixed, MetaState, Resolvent,
                         StepSchedule, Trajectory, cyclic_fb_step,
                         forward_step, make_surrogate, meta_step_adaptive,
                         meta_step_fixed, resolvent_step, run_tracker)
from .core import (ConfigurationError, Domain, Operator, ProblemSequence,
                   analytic_solution, check_lipschitz, check_strong_monotone,
                   evaluate, project)
from .dynamics import (GDMap, Orbit, bifurcation_scan, classify_eta,
                       compose_map, iterate_orbit, newton_periodic_orbit,
                       orbit_stability, period3_search, star_scan)
from .metrics import (
    AdversarialLowerBound,
    AggregationRegretBound,
    AggregationTrackingBound,
    ConstantTrackingBound,
    ContractiveBound,
    CyclicRegretBound,
    bound_check,
    dynamic_regret,
    quadratic_path_length,
    regret_series,
    theoretical_bound,
    tracking_error,
    tracking_series,
)
from .scenarios import (Scenario, adversary_step, build_scenario,
                        periodic_quadratic, verify_scenario)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "Domain", "Operator", "ProblemSequence",
    "analytic_solution", "check_lipschitz", "check_strong_monotone",
    "evaluate", "project",
    "ContractiveForward", "CyclicFB", "CyclicFBState", "MetaAdaptive",
    "MetaFixed", "MetaState", "Resolvent", "StepSchedule", "Trajectory",
    "cyclic_fb_step", "forward_step", "make_surrogate", "meta_step_adaptive",
    "meta_step_fixed", "resolvent_step", "run_tracker",
    "AdversarialLowerBound",
    "AggregationRegretBound",
    "AggregationTrackingBound",
    "ConstantTrackingBound",
    "ContractiveBound",
    "CyclicRegretBound",
    "bound_check",
    "dynamic_regret",
    "quadratic_path_length",
    "regret_series",
    "theoretical_bound",
    "tracking_error",
    "tracking_series",
    "Scenario", "adversary_step", "build_scenario", "periodic_quadratic",
    "verify_scenario",
    "GDMap", "Orbit", "bifurcation_scan", "classify_eta", "compose_map",
    "iterate_orbit", "newton_periodic_orbit", "orbit_stability",
    "period3_search", "star_scan",
]
