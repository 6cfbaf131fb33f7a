"""Simulation toolkit for one-dimensional path-dependent mean-field SDEs.

Subpackages: paths (delay-window segments and measures), model (coefficient
triples and the assumption audit), yamada (regularization devices), measures
(Wasserstein / TV / Pinsker), engine (Euler-Maruyama particle systems),
solver (Picard iteration on measure flows), chaos (rate experiments),
cli (command-line front end).
"""

__version__ = "0.1.0"

from .paths import DelayMeasure, l1m_norm
from .measures import EmpiricalMeasure, pinsker_check, tv_estimate, w1
from .model import ModelSpec, check_assumptions, make_model
from .yamada import make_yamada, mollifier_error_bound, mollify_sigma
from .engine import (SimConfig, simulate_coupled, simulate_frozen, simulate_interacting,
                     simulate_mollified, step_interacting)
from .solver import MeasureFlow, apply_phi, rho_metric, solve_fixed_point
from .chaos import (coupling_error_curve, estimate_chaos_rate, fit_loglog,
                    marginal_tv_study, stability_perturbation_test,
                    theoretical_exponent)

__all__ = [
    "DelayMeasure", "l1m_norm",
    "EmpiricalMeasure", "pinsker_check", "tv_estimate", "w1",
    "ModelSpec", "check_assumptions", "make_model",
    "make_yamada", "mollifier_error_bound", "mollify_sigma",
    "SimConfig", "simulate_coupled", "simulate_frozen", "simulate_interacting",
    "simulate_mollified", "step_interacting",
    "MeasureFlow", "apply_phi", "rho_metric", "solve_fixed_point",
    "coupling_error_curve", "estimate_chaos_rate", "fit_loglog",
    "marginal_tv_study", "stability_perturbation_test", "theoretical_exponent",
]
