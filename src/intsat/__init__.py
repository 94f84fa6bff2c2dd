"""Conflict-driven constraint-learning solver for bounded integer linear programs.

Decisions, exhaustive bound propagation, conflict analysis with
backjumping and constraint learning, and optimisation by repeated
objective strengthening.  Two conflict-analysis engines are available:
a resolution-style one over sets of bounds, and a hybrid one that also
derives new constraints with eliminating cuts.
"""

from .model import (Bound, Constraint, Monomial, Objective, Problem, Solution,
                    cut, normalize)
from .oracle import SearchSpaceTooLarge, oracle_solve
from .search import (CUT, RESOLUTION, SolveOutcome, Solver, SolverConfig,
                     SolverStats, solve)
from .io import ParseError, parse, parse_file, write_problem, write_solution

__version__ = "0.1.0"

__all__ = [
    "Bound", "Constraint", "Monomial", "Objective", "Problem", "Solution",
    "cut", "normalize",
    "SearchSpaceTooLarge", "oracle_solve",
    "CUT", "RESOLUTION", "SolveOutcome", "Solver", "SolverConfig", "SolverStats",
    "solve",
    "ParseError", "parse", "parse_file", "write_problem", "write_solution",
]
