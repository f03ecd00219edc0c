"""Global DOF numbering, element-form assembly, boundary elimination and
static condensation.

Three numberings of the DOFs (``DofMap``):

- raw: all cell-interior DOFs (cells in id order), then all edge-trace DOFs,
  then all edge grad-x DOFs, then all edge grad-y DOFs (edges in id order
  within each block). Cell and edge ids follow the numbering of the
  ``mesh`` module docstring, and every index here comes from its tables.
- free: the raw DOFs in raw order without the constrained ones. Homogeneous
  essential conditions (zero trace and zero normal gradient component on
  boundary edges) are eliminated by dropping rows and columns, which keeps
  the reduced matrix SPD. Solutions and the energy norm live here.
- solved: the free DOFs without one per edge, the top Legendre mode of its
  tangential gradient (grad-y on vertical edges, grad-x on horizontal
  ones). The stabilizer pairs vg only with grad v0 on the edge, whose
  tangential part has degree k - 1, and nothing else reads vg's tangential
  component, so that mode couples to nothing but itself and carries no
  load: its solution is exactly 0. The system is assembled and solved in
  this numbering; ``SparseSystem.expand`` writes the 0 back.

Local stiffness blocks depend on a cell only through its widths, so they are
built once per width class (at most four classes on a Shishkin mesh). The
system stays in element form (``solver.ElementMatrix``): per cell a scatter
map into the solved numbering (or its edge DOFs, condensed), and per width
class one block, the cell matrix A or its Schur complement onto the edge
DOFs, each computed in extended precision and rounded once. The mesh and
every block are symmetric about x = 1/2 and y = 1/2, and each group of
elements says so (``ElementGroup.mirrors``). The solver factors that form;
``SparseSystem.matrix`` assembles it as CSR for tests and the benchmark
tracer only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .basis import project_all_cells
from .mesh import ShishkinMesh
from .solver import ElementGroup, ElementMatrix, SeparatorTree, index_dtype
from .weak_ops import (LocalDofLayout, LocalOperators, local_stiffness,
                       mirror_average)


class DofMap:
    """The raw, free and solved numberings (see the module docstring)."""

    def __init__(self, mesh: ShishkinMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.layout = LocalDofLayout(k)
        kk = k + 1
        ni = self.layout.n_interior
        n_cells, n_edges = mesh.n_cells, mesh.n_edges

        self.n_interior_total = n_cells * ni
        self.trace_base = self.n_interior_total
        self.grad_x_base = self.trace_base + n_edges * kk
        self.grad_y_base = self.grad_x_base + n_edges * kk
        self.n_raw = self.grad_y_base + n_edges * kk

        # Per edge its trace, grad-x and grad-y DOFs; a cell's local vector
        # is its interior DOFs, then those of its four sides in side order.
        index = index_dtype(self.n_raw)  # as the solver's index arrays
        self.edge_dofs = (np.arange(n_edges)[:, None] * kk
                          + np.concatenate([base + np.arange(kk) for base in (
                              self.trace_base, self.grad_x_base,
                              self.grad_y_base)])).astype(index)
        self.cell_dofs = np.concatenate(
            [np.arange(self.n_interior_total, dtype=index).reshape(n_cells, ni),
             self.edge_dofs[mesh.cell_edges].reshape(n_cells, -1)], axis=1)

        # On a boundary edge the trace and the normal gradient component
        # (grad-x on vertical edges, grad-y on horizontal ones) are fixed.
        boundary, vertical = mesh.boundary_edges, mesh.edge_vertical
        constrained = np.zeros(self.n_raw, dtype=bool)
        constrained[self.trace_base:] = np.repeat(np.concatenate(
            [boundary, boundary & vertical, boundary & ~vertical]), kk)
        self.constrained = constrained
        self.free_raw = np.flatnonzero(~constrained).astype(index)
        self.n_free = self.free_raw.size
        self.n_constrained = self.n_raw - self.n_free
        # Each edge's top tangential-gradient mode is free but not solved.
        left_out = np.zeros(self.n_raw, dtype=bool)
        left_out[self.edge_dofs[np.arange(n_edges),
                                np.where(vertical, 3 * kk - 1, 2 * kk - 1)]] = True
        solved = ~left_out[self.free_raw]
        #: The free index of each solved DOF, and each raw DOF's solved
        #: index, -1 where constrained or left out. Interior DOFs come first
        #: in all three numberings, at equal indices.
        self.solved_free = np.flatnonzero(solved).astype(index)
        self.solved_index = np.full(self.n_raw, -1, dtype=index)
        self.solved_index[self.free_raw[solved]] = np.arange(
            self.solved_free.size, dtype=index)

    def expand_free(self, free_values: np.ndarray) -> np.ndarray:
        """Raw vector with zeros at constrained entries."""
        raw = np.zeros(self.n_raw)
        raw[self.free_raw] = free_values
        return raw


class _AssemblyContext:
    """Everything shared by the full and condensed assembly paths."""

    def __init__(self, mesh: ShishkinMesh, k: int, eps: float, forcing,
                 q: int | None):
        self.mesh = mesh
        self.k = k
        self.eps = eps
        self.dofmap = DofMap(mesh, k)
        self.classes = mesh.width_classes()
        self.ops: dict[tuple[float, float], LocalOperators] = {
            widths: local_stiffness(mesh.cell(cells[0]), k, eps, mesh.h_fine,
                                    mesh.h_coarse)
            for widths, cells in self.classes.items()}
        # Load moments (forcing, phi_i)_T; the load pairs f with v0 only, so
        # edge DOFs carry no right-hand side.
        self.interior_rhs = project_all_cells(mesh, k, forcing, q)


@dataclass
class SparseSystem:
    """Assembled SPD system over the solved DOFs (optionally condensed to
    the solved edge DOFs, with exact interior back-substitution data
    retained).

    ``elements`` holds the matrix in element form, one group per width
    class, and ``matrix`` assembles it as CSR on first use, for tests and
    the benchmark tracer. ``interior_factors`` maps each width class to the
    Cholesky factor of its interior block (condensed systems only).
    """

    elements: ElementMatrix
    rhs: np.ndarray
    dofmap: DofMap
    condensed: bool
    ctx: _AssemblyContext
    interior_factors: dict

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return self.elements.to_csr()

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Free-DOF solution vector of a solution of the system: 0 at the
        DOFs left out of it, and interiors back-substituted if condensed."""
        dofmap = self.dofmap
        free = np.zeros(dofmap.n_free)
        first = dofmap.n_interior_total if self.condensed else 0
        free[dofmap.solved_free[first:]] = x
        if not self.condensed:
            return free
        ctx = self.ctx
        ni = dofmap.layout.n_interior
        raw = dofmap.expand_free(free)
        for widths, cells in ctx.classes.items():
            coupling = ctx.ops[widths].A[:ni, ni:]
            u_edge = raw[dofmap.cell_dofs[cells, ni:]]
            b = ctx.interior_rhs[cells] - u_edge @ coupling.T
            u_int = cho_solve(self.interior_factors[widths], b.T).T
            free[(cells[:, None] * ni + np.arange(ni)[None, :]).ravel()] = u_int.ravel()
        return free


def schur_complement(a_ii: np.ndarray, a_ie: np.ndarray, a_ee: np.ndarray,
                     reflections=()):
    """Eliminate the leading SPD block; returns the Schur complement and the
    Cholesky factor used for back-substitution.

    The Schur complement is computed in the blocks' precision, by a small
    Cholesky factorization that needs no LAPACK, averaged over
    ``reflections`` of the edge positions (``weak_ops.mirror_average``) and
    rounded to double once: given the extended-precision blocks of
    ``weak_ops.local_stiffness``, each entry lies within an ulp of exact,
    though the interior block's condition reaches 1e17. The factor for the
    back-substitution is ``cho_factor`` of ``a_ii`` rounded to double.

    With zero coupling this degenerates to (a_ee, factor): the two blocks
    solve independently and eliminating interiors is exact.
    """
    n = a_ii.shape[0]
    lower = np.zeros_like(a_ii)
    for j in range(n):
        pivot = a_ii[j, j] - lower[j, :j] @ lower[j, :j]
        if not pivot > 0:  # contradicts the PSD structure
            raise RuntimeError("interior block is not positive definite")
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = (a_ii[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]
                            ) / lower[j, j]
    # W = lower^-1 a_ie by forward substitution; the Schur complement is
    # a_ee - W'W.
    w = np.empty_like(a_ie)
    for i in range(n):
        w[i] = (a_ie[i] - lower[i, :i] @ w[:i]) / lower[i, i]
    schur = a_ee - w.T @ w
    schur = mirror_average((schur + schur.T) / 2, reflections)
    return (schur.astype(np.float64),
            cho_factor(np.asarray(a_ii, dtype=np.float64)))


def _side_faces(layout: LocalDofLayout, offset: int) -> np.ndarray:
    """Local positions of each side's trace and gradient DOFs, which the
    neighbour across that side holds too; ``offset`` is where the edge DOFs
    start in the local vector."""
    n = layout.n_per_side
    return offset + np.arange(4)[:, None] * n + np.arange(n)


def _mirrors(ctx: _AssemblyContext, cells: np.ndarray, offset: int) -> tuple:
    """``ElementGroup.mirrors`` of a width class: under the mesh's
    reflection about x = 1/2, then y = 1/2, each cell's mirror cell, in the
    same class, and the cell's local reflection (``LocalDofLayout.reflection``)
    from local position ``offset`` on."""
    n = ctx.mesh.n
    i, j = np.divmod(cells, n)
    mirrors = []
    for axis, image in enumerate(((n - 1 - i) * n + j, i * n + n - 1 - j)):
        positions, signs = ctx.dofmap.layout.reflection(axis)
        mirrors.append((np.searchsorted(cells, image),
                        positions[offset:] - offset, signs[offset:]))
    return tuple(mirrors)


def _assemble_full(ctx: _AssemblyContext) -> SparseSystem:
    dofmap = ctx.dofmap
    faces = _side_faces(dofmap.layout, dofmap.layout.n_interior)
    groups = tuple(
        ElementGroup(dofmap.solved_index[dofmap.cell_dofs[cells]],
                     ctx.ops[widths].A, faces, _mirrors(ctx, cells, 0))
        for widths, cells in ctx.classes.items())
    rhs = np.zeros(dofmap.solved_free.size)
    rhs[:dofmap.n_interior_total] = ctx.interior_rhs.ravel()
    return SparseSystem(elements=ElementMatrix(rhs.size, groups), rhs=rhs,
                        dofmap=dofmap, condensed=False, ctx=ctx,
                        interior_factors={})


def _assemble_condensed(ctx: _AssemblyContext) -> SparseSystem:
    dofmap = ctx.dofmap
    ni = dofmap.layout.n_interior
    n_cond = dofmap.solved_free.size - dofmap.n_interior_total
    faces = _side_faces(dofmap.layout, 0)
    groups, factors = [], {}
    rhs = np.zeros(n_cond)
    for widths, cells in ctx.classes.items():
        A, exact = ctx.ops[widths].A, ctx.ops[widths].A_extended
        mirrors = _mirrors(ctx, cells, ni)
        schur, factors[widths] = schur_complement(
            exact[:ni, :ni], exact[:ni, ni:], exact[ni:, ni:],
            [(positions, signs) for _, positions, signs in mirrors])
        sidx = dofmap.solved_index[dofmap.cell_dofs[cells, ni:]]
        cond_idx = np.where(sidx >= 0, sidx - dofmap.n_interior_total, -1)
        groups.append(ElementGroup(cond_idx, schur, faces, mirrors))
        contrib = -cho_solve(factors[widths], ctx.interior_rhs[cells].T).T @ A[:ni, ni:]
        keep = cond_idx >= 0
        np.add.at(rhs, cond_idx[keep], contrib[keep])
    return SparseSystem(elements=ElementMatrix(n_cond, tuple(groups)), rhs=rhs,
                        dofmap=dofmap, condensed=True, ctx=ctx,
                        interior_factors=factors)


def assemble_system(mesh: ShishkinMesh, k: int, eps: float, forcing,
                    q: int | None = None, condense: bool = False) -> SparseSystem:
    """Assemble the global system for the given pointwise forcing.

    ``forcing`` must accept broadcastable coordinate arrays.
    """
    ctx = _AssemblyContext(mesh, k, eps, forcing, q)
    return _assemble_condensed(ctx) if condense else _assemble_full(ctx)


#: Most entities in a leaf of the separator tree. At N=128, k=3, condensed,
#: leaves of 8, 16 and 24 give 310, 260 and 228 distinct fronts and 15.5M,
#: 16.2M and 18.8M stored factor entries; leaves of 4 give 329 and 15.5M.
_LEAF_ENTITIES = 8


def _nested_dissection(points: np.ndarray, ids: np.ndarray, groups: list,
                       parents: list, images: tuple, center: int) -> int:
    """Recursive geometric bisection on the entity lattice. Appends the
    subtree's entity groups in postorder, with their parents (-1 for this
    subtree's root, set by the caller), and returns the root's index.

    On the lattice (cells at odd/odd, edges at mixed-parity positions) every
    coupling either moves one step diagonally or jumps two steps along one
    axis through an in-between entity, so a single even-coordinate lattice
    line is a separator.

    ``images[axis]`` maps every entity to its mirror image across the
    lattice line ``center`` normal to ``axis``, the mesh's midline. Where a
    cut is that line and the node's entities are their own image, the
    second half is built as the image of the first, group by group in the
    same order, so that mirror nodes list mirror entities at equal offsets.
    A separator that the other reflection maps onto itself lists its
    entities below the midline first, then their images in the same order,
    then any on the midline: the image of its first half, in position
    order, is its second half.
    """
    children = []
    if ids.size > _LEAF_ENTITIES:
        p = points[ids]
        lo = p.min(axis=0)
        span = p.max(axis=0) - lo
        axis = 0 if span[0] >= span[1] else 1
        if span[axis] >= 3:
            mid = int(lo[axis]) + int(span[axis]) // 2
            cut = mid if mid % 2 == 0 else mid + 1
            if cut >= lo[axis] + span[axis]:
                cut = mid - 1
            coord = p[:, axis]
            left = coord < cut
            right = coord > cut
            first = len(groups)
            children.append(_nested_dissection(points, ids[left], groups,
                                               parents, images, center))
            if cut == center and _maps_onto_itself(ids, images[axis]):
                offset = len(groups) - first
                groups.extend([images[axis][g] for g in groups[first:]])
                parents.extend([q + offset if q >= 0 else -1
                                for q in parents[first:]])
                children.append(len(groups) - 1)
            else:
                children.append(_nested_dissection(points, ids[right], groups,
                                                   parents, images, center))
            ids = ids[~(left | right)]
            other = 1 - axis
            if (2 * int(lo[other]) + int(span[other]) == 2 * center
                    and _maps_onto_itself(ids, images[other])):
                coord = points[ids, other]
                below = ids[coord < center]
                ids = np.concatenate([below, images[other][below],
                                      ids[coord == center]])
    node = len(groups)
    groups.append(ids)
    parents.append(-1)
    for child in children:
        parents[child] = node
    return node


def _maps_onto_itself(ids: np.ndarray, image: np.ndarray) -> bool:
    return np.array_equal(np.sort(image[ids]), np.sort(ids))


def fill_reducing_ordering(system: SparseSystem) -> SeparatorTree:
    """Nested-dissection ordering of the system's DOFs with its separator
    tree. Each entity's DOFs stay together, each subtree's DOFs are
    contiguous and every separator follows the two halves it separates, so
    the tree factorization of ``solver.solve_spd`` has near-minimal fill.
    Nodes are numbered in postorder, the root last.

    The mesh is symmetric about x = 1/2 and y = 1/2, and the top cuts lie
    on those lines, so the tree is built mirror-symmetric there (see
    ``_nested_dissection``): a node and its mirror image list mirror DOFs at
    equal offsets, and each DOF's image, under a reflection that maps the
    node's front onto its image's, sits at the same row of that front. The
    solver finds these mirror twins through ``ElementGroup.mirrors``."""
    dofmap = system.dofmap
    mesh = dofmap.mesh
    points = mesh.lattice  # cells, then edges
    dofs = dofmap.solved_index[dofmap.edge_dofs]  # -1 marks an unsolved DOF
    if system.condensed:
        points = points[mesh.n_cells:]
        dofs = np.where(dofs >= 0, dofs - dofmap.n_interior_total, -1)
    else:
        ni = dofmap.layout.n_interior
        cell_dofs = dofmap.cell_dofs[:, :ni]  # solved index = raw index
        width = max(ni, dofs.shape[1])
        dofs = np.concatenate([
            np.pad(cell_dofs, ((0, 0), (0, width - ni)), constant_values=-1),
            np.pad(dofs, ((0, 0), (0, width - dofs.shape[1])), constant_values=-1)])

    top = 2 * mesh.n  # the lattice spans 0..top on both axes
    at = np.full((top + 1, top + 1), -1, dtype=np.int64)
    at[points[:, 0], points[:, 1]] = np.arange(points.shape[0])
    images = (at[top - points[:, 0], points[:, 1]],
              at[points[:, 0], top - points[:, 1]])
    groups: list[np.ndarray] = []
    parents: list[int] = []
    _nested_dissection(points, np.arange(points.shape[0]), groups, parents,
                       images, mesh.n)
    ordered = dofs[np.concatenate(groups)]
    perm = ordered[ordered >= 0]
    node_of = np.repeat(np.arange(len(groups)), [g.size for g in groups])
    counts = np.bincount(node_of, weights=(ordered >= 0).sum(axis=1),
                         minlength=len(groups)).astype(np.int64)
    if perm.size != system.elements.dim:
        raise RuntimeError("ordering does not cover every solved DOF")
    return SeparatorTree(perm=perm,
                         bounds=np.concatenate([[0], np.cumsum(counts)]),
                         parent=np.asarray(parents, dtype=np.int64))
