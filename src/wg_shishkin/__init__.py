"""Weak Galerkin solver for eps^2 * biharmonic(u) - laplace(u) = f on the
unit square with clamped boundary conditions, on Shishkin tensor meshes."""

from .analytic import ExactSolution, eval_g, eval_p, forcing, project_exact
from .assembly import (DofMap, SparseSystem, assemble_system,
                       condense_interior, dump_matrix_market)
from .basis import default_quadrature, project_cell, project_edge
from .driver import (TABLE_PRESETS, ConvergenceRecord, RunConfig,
                     convergence_table, run_case, triple_bar_norm, write_csv)
from .mesh import (Cell, Edge, MeshParams, ShishkinMesh, axis_partition,
                   build_mesh, transition_point)
from .quadrature import QuadratureRule, gauss_legendre
from .solver import (ElementGroup, ElementMatrix, SeparatorTree, SolveReport,
                     SolverError, solve_spd)
from .weak_ops import (LocalDofLayout, LocalOperators, local_stiffness,
                       stabilizer_matrix, weak_gradient_matrix,
                       weak_laplacian_matrix)

__all__ = [
    "Cell", "ConvergenceRecord", "DofMap", "Edge",
    "ElementGroup", "ElementMatrix", "ExactSolution", "LocalDofLayout",
    "LocalOperators", "MeshParams",
    "QuadratureRule", "RunConfig", "SeparatorTree", "ShishkinMesh",
    "SolveReport", "SolverError", "SparseSystem", "TABLE_PRESETS",
    "assemble_system",
    "axis_partition", "build_mesh", "condense_interior",
    "convergence_table", "default_quadrature", "dump_matrix_market", "eval_g",
    "eval_p", "forcing", "gauss_legendre", "local_stiffness", "project_cell",
    "project_edge", "project_exact", "run_case", "solve_spd",
    "stabilizer_matrix", "transition_point", "triple_bar_norm",
    "weak_gradient_matrix", "weak_laplacian_matrix", "write_csv",
]
