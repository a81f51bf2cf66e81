"""Branch-and-price solver for 2D bin packing with pattern-count minimization."""

from .model import (Column, InfeasibleInstanceError, Instance,
                    InvalidInstanceError, ItemType, Layout, Solution,
                    SolverConfig, TypeRegistry, derive_to, expand_counts)
from .oracle import OracleGuardError, exact_solve
from .placement import BottomLeftPacker, place_ids, separated, verify_layout
from .search import SearchReport, SearchStats, column_generation, initial_columns, run
from .simplex import LinearProgram, LpResult, solve_lp

__all__ = [
    "BottomLeftPacker", "Column", "InfeasibleInstanceError", "Instance",
    "InvalidInstanceError", "ItemType", "Layout", "LinearProgram", "LpResult",
    "OracleGuardError", "SearchReport", "SearchStats", "Solution",
    "SolverConfig", "TypeRegistry", "column_generation", "derive_to",
    "exact_solve", "expand_counts", "initial_columns", "place_ids", "run",
    "separated", "solve_lp", "verify_layout",
]

__version__ = "0.1.0"
