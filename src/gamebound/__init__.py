"""Certified bounds for adaptive versus non-adaptive attack strategies,
with the commitment and transfer protocols whose security rests on them.
"""
from .config import EQ_TOL, SOLVER_TOL
from .discrimination import (
    CqState,
    DiscriminationInstance,
    Povm,
    SolverCertificate,
    guessing_probability,
    optimal_discrimination,
)
from .errors import CapExceededError, InputError
from .games import AttackGame, GameResult, bell_game, random_game, verify_main_theorem
from .registers import RegisterShape, shape
from .report import CheckRecord, ExperimentReport
from .states import DensityOperator, density_from_matrix, partial_trace

__version__ = "0.1.0"

__all__ = [
    "AttackGame",
    "CapExceededError",
    "CheckRecord",
    "CqState",
    "DensityOperator",
    "DiscriminationInstance",
    "EQ_TOL",
    "ExperimentReport",
    "GameResult",
    "InputError",
    "Povm",
    "RegisterShape",
    "SOLVER_TOL",
    "SolverCertificate",
    "bell_game",
    "density_from_matrix",
    "guessing_probability",
    "optimal_discrimination",
    "partial_trace",
    "random_game",
    "shape",
    "verify_main_theorem",
    "__version__",
]
