"""Optimal dividend and capital-injection barriers for spectrally positive
Levy surplus processes and their Markov-modulated (regime-switching)
extension: exact scale functions, closed-form barrier values, a contraction
iteration for the regime fixed point, and Monte Carlo ground truth."""

from .auxiliary import (AuxProblem, AuxSolution, barrier_root, dominance_gap,
                        hjb_residual, value, value_derivative)
from .errors import ModelError, NumericsError
from .levy import LevySpec, laplace_exponent, laplace_exponent_deriv
from .payoff import ConcavePayoff, concavify, evaluate, make_payoff, \
    right_derivative
from .regime import (RegimeModel, RegimeSolution, SwitchJump, ValueField,
                     apply_T_b, apply_T_sup, hat_operator, identity_field,
                     rho_metric, solve)
from .scale import (ScaleEvaluator, W, W_deriv, Z, Zbar,
                    build_scale_evaluator, phi_inverse,
                    verify_laplace_transform)
from .simulate import (SimConfig, SimEstimate, estimate_exit_identities,
                       simulate_aux_npv, simulate_regime_npv)

__all__ = [
    "AuxProblem", "AuxSolution", "barrier_root", "dominance_gap",
    "hjb_residual", "value", "value_derivative", "ModelError",
    "NumericsError", "LevySpec", "laplace_exponent",
    "laplace_exponent_deriv", "phi_inverse",
    "ConcavePayoff", "concavify", "evaluate", "make_payoff",
    "right_derivative", "RegimeModel", "RegimeSolution", "SwitchJump",
    "ValueField", "apply_T_b", "apply_T_sup", "hat_operator",
    "identity_field", "rho_metric", "solve", "ScaleEvaluator", "W",
    "W_deriv", "Z", "Zbar", "build_scale_evaluator",
    "verify_laplace_transform", "SimConfig", "SimEstimate",
    "estimate_exit_identities", "simulate_aux_npv", "simulate_regime_npv",
]

__version__ = "0.1.0"
