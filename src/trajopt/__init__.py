"""Trajectory optimization with interchangeable Riccati backward passes.

One outer loop drives three local steps over the same per-trajectory
expansion: iLQR (first-order dynamics), Newton-LQR (exact constrained Newton
with threaded costates), and DDP (value-gradient-weighted dynamics Hessians).
A banded whole-trajectory KKT solve acts as the independent oracle certifying
each sweep, and a CLI runs the seeded benchmark experiments.
"""

from .backward import (BackwardSolution, backward_ddp, backward_for,
                       backward_ilqr, backward_newton, expected_reduction,
                       initial_multiplier_estimate, multipliers_from,
                       quu_spectrum)
from .errors import (BackwardPassError, ConfigError, DimensionError,
                     DivergenceError, KktError, NonDescentError, TrajoptError)
from .expansion import ExpansionSequence, cost_gradient_adjoint, expand_along
from .kkt import (KktSolution, StackedQP, assemble_qp, check_derivatives,
                  solve_kkt, split_primal, verify_equivalence)
from .linesearch import (LineSearchOutcome, directional_derivative,
                         forward_pass, line_search)
from .models import (CartPoleModel, LinearModel, PendulumModel,
                     QuadraticCost, make_benchmark)
from .solver import (IterationRecord, SolveResult, SolverConfig, converged,
                     solve)
from .trajectory import Trajectory, linear_rollout, rollout, total_cost

__version__ = "0.1.0"

__all__ = [
    "BackwardSolution", "backward_ddp", "backward_ilqr", "backward_newton",
    "expected_reduction", "multipliers_from", "quu_spectrum",
    "BackwardPassError", "ConfigError", "DimensionError", "DivergenceError",
    "KktError", "NonDescentError", "TrajoptError",
    "ExpansionSequence", "expand_along",
    "KktSolution", "StackedQP", "assemble_qp", "cost_gradient_adjoint",
    "solve_kkt", "split_primal", "verify_equivalence",
    "LineSearchOutcome", "directional_derivative", "forward_pass", "line_search",
    "CartPoleModel", "LinearModel", "PendulumModel", "QuadraticCost",
    "check_derivatives", "make_benchmark",
    "IterationRecord", "SolveResult", "SolverConfig", "backward_for",
    "converged", "initial_multiplier_estimate", "solve",
    "Trajectory", "linear_rollout", "rollout", "total_cost",
]
