"""Tracking solutions of time-varying variational inequalities.

Contractive single-iterate solvers, cyclic forward-backward learners,
expert-aggregation meta-algorithms with logarithmic and constant
tracking guarantees, and a discrete-dynamics engine for the
convergence / periodicity / chaos phenomenology of fixed-step gradient
descent on periodic problems.
"""

from .algorithms import (ContractiveForward, CyclicFB, CyclicFBLearner,
                         MetaAdaptive, MetaFixed, MetaLearner, Resolvent,
                         StepSchedule, Trajectory, forward_step,
                         make_surrogate, resolvent_step, run_tracker)
from .core import (ConfigurationError, Domain, Operator, ProblemSequence,
                   check_constants, evaluate, project)
from .dynamics import (GDMap, Orbit, bifurcation_scan, classify_eta,
                       compose_map, iterate_orbit, newton_periodic_orbit,
                       orbit_stability, period3_search, star_scan)
from .metrics import (adversarial_lower_bound, aggregation_regret_bound,
                      aggregation_tracking_bound, constant_tracking_bound,
                      contractive_bound, cyclic_regret_bound, dynamic_regret,
                      quadratic_path_length, regret_series, squared_distances,
                      tracking_error, tracking_series)
from .scenarios import (Scenario, adversary_step, build_scenario,
                        periodic_quadratic, verify_scenario)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "Domain", "Operator", "ProblemSequence",
    "check_constants", "evaluate", "project",
    "ContractiveForward", "CyclicFB", "CyclicFBLearner", "MetaAdaptive",
    "MetaFixed", "MetaLearner", "Resolvent", "StepSchedule", "Trajectory",
    "forward_step", "make_surrogate", "resolvent_step", "run_tracker",
    "adversarial_lower_bound", "aggregation_regret_bound",
    "aggregation_tracking_bound", "constant_tracking_bound",
    "contractive_bound", "cyclic_regret_bound", "dynamic_regret",
    "quadratic_path_length", "regret_series", "squared_distances",
    "tracking_error", "tracking_series",
    "Scenario", "adversary_step", "build_scenario", "periodic_quadratic",
    "verify_scenario",
    "GDMap", "Orbit", "bifurcation_scan", "classify_eta", "compose_map",
    "iterate_orbit", "newton_periodic_orbit", "orbit_stability",
    "period3_search", "star_scan",
]
