import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wg_shishkin.basis import legendre_table, project_cell, project_edge
from wg_shishkin.mesh import SIDES, Cell, Edge, MeshParams, build_mesh
from wg_shishkin.quadrature import gauss_legendre
from wg_shishkin.solver import (ElementGroup, ElementMatrix, SeparatorTree,
                                SolverError)
from wg_shishkin.weak_ops import LocalDofLayout


@pytest.fixture(scope="session")
def mesh_n8_eps1e2():
    return build_mesh(MeshParams(n=8, eps=1e-2, k=3))


@pytest.fixture(scope="session")
def mesh_n4_eps1e2():
    return build_mesh(MeshParams(n=4, eps=1e-2, k=3))


@pytest.fixture(scope="session")
def mesh_n128_eps1e7():
    return build_mesh(MeshParams(n=128, eps=1e-7, k=3))


def all_cells(mesh):
    """Every cell record, in id order."""
    return [mesh.cell(c) for c in range(mesh.n_cells)]


def all_edges(mesh):
    """Every edge record, in id order."""
    return [mesh.edge(e) for e in range(mesh.n_edges)]


def loop_records(mesh):
    """Every cell and edge record, built one by one in loops over the
    lattice indices (i, j) from the numbering of the ``mesh`` module
    docstring; an oracle for the mesh's array tables."""
    n, points = mesh.n, mesh.breakpoints
    quarter = n // 4

    def width(i):
        return mesh.h_fine if i < quarter or i >= n - quarter else mesh.h_coarse

    def horizontal_id(i, j):
        return j * n + i

    def vertical_id(i, j):
        return n * (n + 1) + i * n + j

    cells = []
    for i in range(n):
        for j in range(n):
            cells.append(Cell(
                index=(i, j), x_range=(points[i], points[i + 1]),
                y_range=(points[j], points[j + 1]), widths=(width(i), width(j)),
                edge_ids=(horizontal_id(i, j), vertical_id(i + 1, j),
                          horizontal_id(i, j + 1), vertical_id(i, j))))
    edges = []
    for j in range(n + 1):
        for i in range(n):
            edges.append(Edge(
                id=horizontal_id(i, j), orientation="horizontal",
                endpoints=((points[i], points[j]), (points[i + 1], points[j])),
                length=width(i),
                cells=tuple(i * n + b for b in (j - 1, j) if 0 <= b < n),
                on_boundary=j in (0, n)))
    for i in range(n + 1):
        for j in range(n):
            edges.append(Edge(
                id=vertical_id(i, j), orientation="vertical",
                endpoints=((points[i], points[j]), (points[i], points[j + 1])),
                length=width(j),
                cells=tuple(a * n + j for a in (i - 1, i) if 0 <= a < n),
                on_boundary=i in (0, n)))
    edges.sort(key=lambda e: e.id)
    return cells, edges


def loop_dof_tables(mesh, k):
    """``cell_dofs``, ``constrained`` and the width classes of ``DofMap``
    and ``ShishkinMesh.width_classes``, rebuilt with one loop over the
    records of ``loop_records``."""
    cells, edges = loop_records(mesh)
    kk, ni = k + 1, (k + 1) ** 2
    trace_base = len(cells) * ni
    grad_x_base = trace_base + len(edges) * kk
    grad_y_base = grad_x_base + len(edges) * kk
    span = np.arange(kk)
    cell_dofs = np.empty((len(cells), ni + 12 * kk), dtype=np.int64)
    classes = {}
    for c, cell in enumerate(cells):
        parts = [c * ni + np.arange(ni)]
        for e in cell.edge_ids:
            parts += [base + e * kk + span
                      for base in (trace_base, grad_x_base, grad_y_base)]
        cell_dofs[c] = np.concatenate(parts)
        classes.setdefault(cell.widths, []).append(c)
    constrained = np.zeros(grad_y_base + len(edges) * kk, dtype=bool)
    for edge in edges:
        if edge.on_boundary:
            normal = grad_x_base if edge.orientation == "vertical" else grad_y_base
            for base in (trace_base, normal):
                constrained[base + edge.id * kk + span] = True
    return cell_dofs, constrained, classes


def region_end_cells(mesh):
    """Cells at the first and last index of every fine/coarse region along
    both axes. Breakpoint differences there stray furthest, in ulps, from
    the nominal widths (most of all in the fine columns next to x = 1)."""
    n = mesh.params.n
    q = n // 4
    ends = sorted({0, q - 1, q, n - q - 1, n - q, n - 1})
    return [mesh.cell(i * n + j) for i in ends for j in ends]


def side_edge(cell, side):
    """Geometry of one cell side as a canonical (ascending-coordinate) edge."""
    (x0, x1), (y0, y1) = cell.x_range, cell.y_range
    h1, h2 = cell.widths
    name = SIDES[side]
    if name == "south":
        endpoints, orientation, length = ((x0, y0), (x1, y0)), "horizontal", h1
    elif name == "north":
        endpoints, orientation, length = ((x0, y1), (x1, y1)), "horizontal", h1
    elif name == "east":
        endpoints, orientation, length = ((x1, y0), (x1, y1)), "vertical", h2
    else:
        endpoints, orientation, length = ((x0, y0), (x0, y1)), "vertical", h2
    return Edge(id=-1, orientation=orientation, endpoints=endpoints,
                length=length, cells=(), on_boundary=False)


def local_projection_dofs(cell, k, value, grad_x, grad_y, q=None):
    """Local DOF vector of the weak-space projection of a smooth function:
    interior L2 projection, per-side trace projection, per-side projections
    of both gradient components (canonical edge orientation)."""
    layout = LocalDofLayout(k)
    dofs = np.zeros(layout.n_loc)
    dofs[layout.interior] = project_cell(value, cell, k, q)
    for side in range(4):
        edge = side_edge(cell, side)
        dofs[layout.trace(side)] = project_edge(value, edge, k, q)
        dofs[layout.grad_x(side)] = project_edge(grad_x, edge, k, q)
        dofs[layout.grad_y(side)] = project_edge(grad_y, edge, k, q)
    return dofs


#: Bound on a commutation error in units of its round-off scale.
ROUNDOFF_FACTOR = 32


def roundoff_ratio(op, dofs, expected):
    """Max |op @ dofs - expected| in units of the round-off scale
    eps_mach * max(|op| |dofs|) of the product itself.

    An absolute bound cannot separate round-off from a wrong operator once
    entries of op grow like 1/h^2 on fine cells; an error of a few units is
    round-off, while a relative fault of 1e-10 in any term of op reads as
    ~1e5 units.
    """
    scale = np.finfo(float).eps * np.max(np.abs(op) @ np.abs(dofs))
    return np.abs(op @ dofs - expected).max() / scale


# Orthonormal Legendre bases of one cell or edge, as objects: oracles for
# the package's batched tables and projections, which need no such object.


class CellBasis:
    """Tensor-product basis phi_{m,n}(x, y) on a rectangular cell.

    The flat index is m*(k+1) + n with m the x-degree. Evaluation supports
    pure derivatives through second order in each variable.
    """

    def __init__(self, cell: Cell, k: int):
        if k < 3:
            raise ValueError(f"degree k must be >= 3, got {k}")
        self.cell = cell
        self.k = k
        self.dim = (k + 1) ** 2
        self.x0, self.x1 = cell.x_range
        self.y0, self.y1 = cell.y_range
        self.h1, self.h2 = cell.widths

    def eval(self, x: np.ndarray, y: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Table of shape (dim, npts) of d^dx/dx^dx d^dy/dy^dy phi_i."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        tx = (2.0 * x - self.x0 - self.x1) / self.h1
        ty = (2.0 * y - self.y0 - self.y1) / self.h2
        lx = legendre_table(self.k, tx, nderiv=dx)[dx]
        ly = legendre_table(self.k, ty, nderiv=dy)[dy]
        scale = (np.sqrt(2.0 / self.h1) * (2.0 / self.h1) ** dx
                 * np.sqrt(2.0 / self.h2) * (2.0 / self.h2) ** dy)
        kk = self.k + 1
        return scale * (lx[:, None, :] * ly[None, :, :]).reshape(kk * kk, -1)

    def quad_points(self, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tensor Gauss points (flattened) and combined weights on the cell."""
        rule = gauss_legendre(q)
        xq, wx = rule.mapped(self.x0, self.x1)
        yq, wy = rule.mapped(self.y0, self.y1)
        X, Y = np.meshgrid(xq, yq, indexing="ij")
        W = np.outer(wx, wy)
        return X.ravel(), Y.ravel(), W.ravel()


class EdgeBasis:
    """P_k basis on an edge, parameterized by arc length from the smaller to
    the larger coordinate (fixed globally, so neighbor cells agree)."""

    def __init__(self, edge: Edge, k: int):
        self.edge = edge
        self.k = k
        self.dim = k + 1
        (xa, ya), (xb, yb) = edge.endpoints
        if edge.orientation == "horizontal":
            self.t0, self.t1 = xa, xb
        else:
            self.t0, self.t1 = ya, yb
        self.length = edge.length

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Table of shape (k+1, npts) at coordinates t along the edge axis."""
        t = np.asarray(t, dtype=float).ravel()
        tau = (2.0 * t - self.t0 - self.t1) / self.length
        return np.sqrt(2.0 / self.length) * legendre_table(self.k, tau)[0]

    def quad_points(self, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauss points on the edge as (x, y) arrays plus weights."""
        rule = gauss_legendre(q)
        tq, w = rule.mapped(self.t0, self.t1)
        if self.edge.orientation == "horizontal":
            y = np.full_like(tq, self.edge.endpoints[0][1])
            return tq, y, w
        x = np.full_like(tq, self.edge.endpoints[0][0])
        return x, tq, w


def golub_welsch(q):
    """Gauss-Legendre nodes and weights on [-1, 1] from the eigenpairs of
    the Jacobi matrix of the Legendre recurrence, beta_j = j / sqrt(4j^2 -
    1) (Golub & Welsch 1969): an oracle independent of the package's rule,
    which is numpy's ``leggauss``."""
    j = np.arange(1, q)
    beta = j / np.sqrt(4.0 * j * j - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


def reference_cell_moments(fun, cell, k, q=20):
    """Moments (fun, phi_i)_T via an independent rule (Golub-Welsch Gauss
    nodes, direct tensor summation against the orthonormal Legendre
    basis)."""
    t, w = golub_welsch(q)
    (x0, x1), (y0, y1) = cell.x_range, cell.y_range
    xq = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * t
    yq = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * t
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    W = 0.25 * (x1 - x0) * (y1 - y0) * np.outer(w, w)
    basis = CellBasis(cell, k)
    values = basis.eval(X.ravel(), Y.ravel())
    return values @ (W.ravel() * fun(X.ravel(), Y.ravel()))


# Sparse-matrix helpers: the solver takes only the element form and a
# separator tree, so hand-made matrices reach it through these, and SuperLU
# stays here as an independent sparse solver to check the tree solve against.


def one_front(n):
    """The one-node separator tree of n DOFs: the whole matrix is one dense
    front, factored by one ``potrf``."""
    return SeparatorTree(np.arange(n), np.array([0, n]), np.array([-1]))


def elements_of(matrix):
    """A symmetric sparse matrix as 1x1 elements on its diagonal and one
    2x2 element per stored entry above it."""
    n = matrix.shape[0]
    upper = sp.triu(matrix, k=1, format="coo")
    pairs = np.zeros((upper.nnz, 2, 2))
    pairs[:, 0, 1] = pairs[:, 1, 0] = upper.data
    no_faces = np.empty((0, 0), dtype=np.int64)
    return ElementMatrix(n, (
        ElementGroup(np.arange(n)[:, None],
                     np.asarray(matrix.diagonal(), dtype=float)[:, None, None],
                     no_faces),
        ElementGroup(np.stack([upper.row, upper.col], axis=1).astype(np.int64),
                     pairs, no_faces)))


def superlu_solve(matrix, rhs):
    """A^-1 b by SuperLU on the Jacobi-scaled sparse matrix, with its own
    ordering. Symmetric-mode SuperLU with diagonal pivoting acts as an
    LDL'-type factorization on SPD input, so a nonpositive pivot flags an
    indefinite matrix."""
    scale = 1.0 / np.sqrt(matrix.diagonal())
    scaling = sp.diags(scale)
    try:
        lu = spla.splu((scaling @ matrix @ scaling).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization breakdown: {exc}") from exc
    pivots = lu.U.diagonal()
    if np.any(pivots <= 0.0) or not np.all(np.isfinite(pivots)):
        raise SolverError("matrix is not positive definite (min pivot "
                          f"{pivots.min():.3e}, dimension {matrix.shape[0]})")
    return scale * lu.solve(scale * rhs)
