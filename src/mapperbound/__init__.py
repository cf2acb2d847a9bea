"""Certified interleaving-distance bounds for grid mapper graphs.

The pipeline: discretize R^d into a cubical grid (grid), encode piecewise
linear data as a component cosheaf over the grid's cover (ingest, cosheaf),
evaluate how far a candidate assignment is from an interleaving (assignment),
and cross-check everything with slow independent verifiers (oracle).
"""

from .grid import Cell, GridSpec, basic_open, cell, edge_cell, thicken, vertex_cell
from .cosheaf import INFINITE, CosheafGraph, SliceLabeling, diameter, distance, validate
from .ingest import GeometricGraph, build, build_cosheaf, fit_grid
from .assignment import (
    Assignment,
    LossResult,
    basis_loss,
    check_parallelogram_left,
    check_parallelogram_right,
    check_triangle_down,
    check_triangle_up,
    loss_at,
    loss_report,
    promote,
    reeb_bound,
    validate_assignment,
)
from .oracle import (
    TinyCaps,
    enumerate_opens,
    exhaustive_interleaving,
    full_loss,
    geometric_pi0,
    reference_loss,
)

__all__ = [
    "Cell", "GridSpec", "basic_open", "cell", "edge_cell", "thicken", "vertex_cell",
    "INFINITE", "CosheafGraph", "SliceLabeling", "diameter", "distance", "validate",
    "GeometricGraph", "build", "build_cosheaf", "fit_grid",
    "Assignment", "LossResult", "basis_loss",
    "check_parallelogram_left", "check_parallelogram_right",
    "check_triangle_down", "check_triangle_up",
    "loss_at", "loss_report", "promote", "reeb_bound", "validate_assignment",
    "TinyCaps", "enumerate_opens", "exhaustive_interleaving", "full_loss",
    "geometric_pi0", "reference_loss",
]

__version__ = "0.1.0"
