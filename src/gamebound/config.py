"""Caps and shared tolerances; SOLVER_TOL and DEFAULT_SEARCH_BUDGET are per-call defaults."""
from __future__ import annotations

# Hard caps so a bad input cannot allocate huge dense matrices.
DEFAULT_MAX_DIM = 256
DEFAULT_MAX_OPERATORS = 64
DEFAULT_SEARCH_BUDGET = 200  # measurement families searched for accessible info

# Numerical tolerances shared across modules.
HERM_TOL = 1e-10          # Hermiticity / PSD checks on general operators
DENSITY_HERM_TOL = 1e-12  # density operators are constructed, not measured
EQ_TOL = 1e-9             # equality comparisons
RANK_TOL = 1e-8           # rank decisions in zero-order entropy
SOLVER_TOL = 1e-7
SOLVER_TOL_FLOOR = 1e-10  # the CLI's smallest solver tol: below it, reaching tol is rounding luck
SOLVER_MAX_ITER = 10000
