from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from wg_shishkin import basis, solver
from wg_shishkin.basis import legendre_table
from wg_shishkin.mesh import SIDES, Cell, MeshParams, build_mesh
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


@dataclass(frozen=True)
class Edge:
    """Mesh edge; the canonical normal is +x (vertical) or +y (horizontal)."""

    id: int
    orientation: str  # "horizontal" or "vertical"
    endpoints: tuple[tuple[float, float], tuple[float, float]]
    length: float
    cells: tuple[int, ...]
    on_boundary: bool


def mesh_edge(mesh, e: int) -> Edge:
    """Record of edge ``e`` of ``mesh``, read from its closed-form tables
    (numbering in the ``mesh`` module docstring)."""
    if not 0 <= e < mesh.n_edges:
        raise IndexError(f"edge {e} outside 0..{mesh.n_edges - 1}")
    n = mesh.n
    vertical, i, j = (int(v) for v in mesh._edge_ij(int(e)))
    points, w = mesh.breakpoints, mesh.axis_widths()
    if vertical:
        end, length = (points[i], points[j + 1]), w[j]
        cells = tuple(a * n + j for a in (i - 1, i) if 0 <= a < n)
    else:
        end, length = (points[i + 1], points[j]), w[i]
        cells = tuple(i * n + b for b in (j - 1, j) if 0 <= b < n)
    return Edge(id=int(e), orientation="vertical" if vertical else "horizontal",
                endpoints=((points[i], points[j]), end), length=float(length),
                cells=cells, on_boundary=bool(mesh.boundary_edges[e]))


def all_cells(mesh):
    """Every cell record, in id order."""
    return [mesh.cell(c) for c in range(mesh.n_cells)]


def all_edges(mesh):
    """Every edge record, in id order."""
    return [mesh_edge(mesh, e) for e in range(mesh.n_edges)]


@cache
def reference_table(k: int, q: int):
    """The reference q-point rule and the orthonormal Legendre table at its
    nodes times its weights, built once per (k, q) for the projections
    below, from the table of ``basis.project_all_cells``."""
    return basis._weighted_legendre(k, q)


def project_cell(fun, cell, k: int, q: int | None = None) -> np.ndarray:
    """Coefficients of the L2 projection of ``fun(x, y)`` onto Q_k(cell),
    one cell at a time: an oracle for the cell's row of
    ``basis.project_all_cells``. ``fun`` must accept equal-shaped coordinate
    arrays. Exact for fun in Q_k whenever q >= k+1."""
    q = basis._checked_quadrature(k, q)
    rule, U = reference_table(k, q)
    xq, _ = rule.mapped(*cell.x_range)
    yq, _ = rule.mapped(*cell.y_range)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    values = np.broadcast_to(fun(X.ravel(), Y.ravel()), X.size).reshape(q, q)
    h1, h2 = cell.widths
    return (U @ values @ U.T).ravel() * (0.5 * np.sqrt(h1 * h2))


def project_edge(fun, edge: Edge, k: int, q: int | None = None) -> np.ndarray:
    """Coefficients of the L2 projection of ``fun(x, y)`` onto P_k(edge),
    one edge at a time: an oracle for the edge's row of
    ``basis.project_all_edges``."""
    q = basis._checked_quadrature(k, q)
    rule, U = reference_table(k, q)
    (xa, ya), (xb, yb) = edge.endpoints
    if edge.orientation == "horizontal":
        x, _ = rule.mapped(xa, xb)
        y = np.full_like(x, ya)
    else:
        y, _ = rule.mapped(ya, yb)
        x = np.full_like(y, xa)
    values = np.broadcast_to(fun(x, y), x.shape)
    return (U @ values) * np.sqrt(0.5 * edge.length)


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


def elements_of(matrix, dense=False):
    """A symmetric sparse matrix in element form: 1x1 elements on its
    diagonal and one 2x2 element per stored entry above it, one group per
    distinct value, as the elements of a group share one block. ``dense``
    gives one element that holds the whole matrix, which is all the one
    front of ``one_front`` needs."""
    n = matrix.shape[0]
    no_faces = np.empty((0, 0), dtype=np.int64)
    if dense:
        return ElementMatrix(n, (ElementGroup(np.arange(n)[None],
                                              matrix.toarray().astype(float),
                                              no_faces),))
    upper = sp.triu(matrix, k=1, format="coo")
    pairs = np.stack([upper.row, upper.col], axis=1).astype(np.int64)
    return ElementMatrix(n, tuple(
        [ElementGroup(at[:, None], np.array([[value]]), no_faces)
         for value, at in _by_value(matrix.diagonal())]
        + [ElementGroup(pairs[at], np.array([[0.0, value], [value, 0.0]]),
                        no_faces) for value, at in _by_value(upper.data)]))


def _by_value(values):
    """Each distinct value with the indices of the entries that hold it."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    cuts = np.flatnonzero(np.diff(values[order])) + 1
    return [] if not values.size else zip(values[order[np.r_[0, cuts]]],
                                            np.split(order, cuts))


def residual_floor(elements, x, rhs):
    """Round-off floor eps_mach * || |A| |x| || / ||b|| of |b - Ax| / |b|.

    Forming Ax in double precision already errs by about this much, so no
    solver can certify a b-relative residual below it for this x. |A| |x|
    comes from the elements (``abs_matmul``).
    """
    return float(np.finfo(float).eps * np.linalg.norm(elements.abs_matmul(x))
                 / np.linalg.norm(rhs))


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


def unpack_rfp(flat, n):
    """The lower triangle of order n that ``flat`` holds in rectangular full
    packed format (TRANSR='N', UPLO='L'), as a full matrix with zeros above
    the diagonal, unpacked by LAPACK's ``tfttr``."""
    tfttr, = get_lapack_funcs(("tfttr",), dtype=flat.dtype)
    full, info = tfttr(n, flat, uplo="L")
    assert info == 0
    return np.tril(full[:n])  # tfttr returns one row of order 0


def rfp_indices(n):
    """(rows, columns) of the triangle entry that each entry of an order-n
    RFP array holds (TRANSR='N', UPLO='L'), as LAPACK's ``trttf`` puts
    them."""
    trttf, = get_lapack_funcs(("trttf",), dtype=np.float64)
    return tuple(trttf(np.asfortranarray(index, dtype=float),
                       uplo="L")[0].astype(np.int64)
                 for index in np.indices((n, n)))


def front_solve_per_node(factor, fronts, bounds, y, signs=None):
    """Solve A x = y in place, one node at a time in postorder and back,
    twins included, with one triangular solve per node and pass on L11
    unpacked: the tree solve before level scheduling, kept as a reference.
    ``factor`` holds (L11 in RFP, L21, d) of every node, ``fronts`` its
    front rows and ``signs`` its rows' signs relative to its
    representative's, or None; the node's unscaled factor is
    S d^-1 (L11, L21) S_p, with S = diag of its signs and S_p their pivot
    block."""
    trsv, = get_blas_funcs(("trsv",), dtype=y.dtype)
    signs = [None] * len(factor) if signs is None else signs
    full = {}  # every node's L11, unpacked
    for s, (l11, l21, d) in enumerate(factor):
        if l11 is None:
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        p = b1 - b0
        full[s] = unpack_rfp(l11, p)
        flip = np.ones(len(fronts[s])) if signs[s] is None else signs[s]
        # G11 = S_p d^-1 L11 S_p: solve with it in the node's own terms.
        y[b0:b1] = flip[:p] * trsv(full[s], d[:p] * flip[:p] * y[b0:b1],
                                   lower=1)
        if l21 is not None:
            y[fronts[s][p:]] -= (flip[p:] * (l21 @ (flip[:p] * y[b0:b1]))
                                 / d[p:])
    for s in range(len(factor) - 1, -1, -1):
        l11, l21, d = factor[s]
        if l11 is None:
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        p = b1 - b0
        flip = np.ones(len(fronts[s])) if signs[s] is None else signs[s]
        piv = y[b0:b1]
        if l21 is not None:
            below = flip[p:] * y[fronts[s][p:]] / d[p:]
            piv = piv - flip[:p] * (l21.T @ below)
        y[b0:b1] = flip[:p] * d[:p] * trsv(full[s], flip[:p] * piv, lower=1,
                                           trans=1)
    return y


def _numeric_phase_seen(fronts, tree, scale, plan):
    """Run ``solver._factor_fronts`` on ``plan`` and return what it built:
    (fronts, updates), every factored node's front just before it is
    factored, copies of (F11, F21, F22), F11 and F22 unpacked from RFP to
    their lower triangles, and a copy of every update, in RFP, that a
    parent adds, by the node whose update it is."""
    built, updates, pending = {}, {}, []
    assemble, extend_add = solver._assemble_front, solver._extend_add
    lapack = solver.get_lapack_funcs
    child_of = {id(pos): c for lands in plan.lands.values()
                for c, pos in lands}

    def spy_assemble(plans, s, p, m, scale, work, at):
        assemble(plans, s, p, m, scale, work, at)
        pending.append((s, m, work, at))

    def spy_extend_add(front, update, pos, scale=None):
        updates[plan.rep[child_of[id(pos)]]] = update.copy()
        extend_add(front, update, pos, scale)

    def spy_lapack(names, dtype):
        pftrf, *others = lapack(names, dtype=dtype)

        def recorded(p, f11, **kwargs):  # every front's children are added
            s, m, work, at = pending.pop()
            q = m - p
            built[s] = (unpack_rfp(work[at[0]:at[0] + p * (p + 1) // 2], p),
                        work[at[1]:at[1] + q * p].reshape(
                            (q, p), order="F").copy(),
                        unpack_rfp(work[at[2]:at[2] + q * (q + 1) // 2], q))
            return pftrf(p, f11, **kwargs)

        return (recorded, *others)

    with mock.patch.object(solver, "_assemble_front", spy_assemble), \
            mock.patch.object(solver, "_extend_add", spy_extend_add), \
            mock.patch.object(solver, "get_lapack_funcs", spy_lapack):
        solver._factor_fronts(fronts, tree, scale, plan)
    return built, updates


def assembled_fronts(fronts, tree, scale):
    """Every node's front with pivots as the numeric phase builds it, just
    before it is factored: copies of (F11, F21, F22), F11 and F22 unpacked
    from RFP to their lower triangles, from a run of
    ``solver._factor_fronts`` in which every node is factored on its own,
    no twins shared."""
    n_nodes = tree.parent.size
    plan = solver._plan_workspace(fronts, tree, np.arange(n_nodes),
                                  [None] * n_nodes)
    return _numeric_phase_seen(fronts, tree, scale, plan)[0]


def shared_fronts(fronts, tree, scale, rep, signs):
    """Every node's front with pivots, as ``assembled_fronts`` gives them:
    a representative's as the numeric phase builds it, twins sharing, and a
    twin's built the same way from its own elements and its children's
    shared updates, the updates of their representatives, rescaled by the
    ratio of the scales and signed, that land through the twin's rows."""
    pivots = np.diff(tree.bounds)
    built, updates = _numeric_phase_seen(
        fronts, tree, scale, solver._plan_workspace(fronts, tree, rep, signs))
    for s in np.flatnonzero((rep != np.arange(rep.size)) & (pivots > 0)):
        rows, p = fronts.rows[s], pivots[s]
        q = rows.size - p
        at = (0, p * (p + 1) // 2, p * (p + 1) // 2 + q * p)
        work = np.zeros(at[2] + q * (q + 1) // 2)
        solver._assemble_front(fronts.parts, s, p, rows.size,
                               np.append(scale[rows], 0.0), work, at)
        front = (work[:at[1]], work[at[1]:at[2]].reshape((q, p), order="F"),
                 work[at[2]:])
        for c in np.flatnonzero(tree.parent == s):
            r, pc = rep[c], pivots[c]
            end = fronts.starts[c] + fronts.sizes[c]
            pos = fronts.lands[end - fronts.sizes[c] + pc:end]
            if not pos.size:
                continue
            ratio = scale[fronts.rows[c][pc:]] / scale[fronts.rows[r][pc:]]
            if signs[c] is not None:
                ratio *= signs[c][pc:]
            solver._extend_add(front, updates[r], pos,
                               None if np.all(ratio == 1.0) else ratio)
        built[s] = (unpack_rfp(front[0], p), front[1].copy(),
                    unpack_rfp(front[2], q))
    return built


def representatives_per_node(fronts, tree, mirrors):
    """(rep, signs, rows): the representatives and signs that
    ``solver._representatives`` returns and the rows it lists each front in,
    found node by node with one ``bytes`` key per node and a union-find per
    height: the reference of its array pass by height. For every node s, its
    representative: the first node in postorder whose front equals s's
    before scaling up to a signed permutation of the rows below the pivots,
    bit for bit; those signs, None where all are +1; and s's front rows, as
    tree positions, listed as the images of its representative's rows.
    Node s's unscaled front is then S rep[s]'s unscaled front S, row for
    row, with S = diag(signs[s]).

    A node's rows below its pivots get canonical labels in order of first
    appearance: in its entering elements by part, element and slot, then in
    each child's update rows, in the order of the child's rows. A node's key
    holds everything its unscaled front is built from, rows by label: the
    front's shape; for each element part that enters it, the part's index
    and the elements' canonical rows (-1 where the matrix leaves a DOF out)
    and, in the solver's merged parts of one entry, the only parts whose
    elements hold values of their own, their values; for each child, its
    representative and the labels and signs of the rows its update lands
    on. Keys are compared as bytes.

    A node s may also be the mirror image of an earlier node t of its
    height, under one of ``mirrors`` (``_mirror_maps``), whose image map
    takes t's first pivot into s's: where that map takes t's front rows, in
    order, onto s's; no pivot of either node is tainted; and each child of
    s has the representative of the child of t at its place, its rows the
    images of that child's rows with the signs of the map. Each pair of
    keys takes the first such map between their nodes, by s in postorder
    and then by map.

    The twins of one class are a connected component of equal keys and
    mirror maps among the nodes of a height, and its first node is their
    representative. A node's rows and signs follow its key's first node's,
    label by label. A key's first node is placed in passes over the mirror
    maps in postorder, each placing the key of a map's other end once one
    end's key is placed, the first key of a class being placed as it is."""
    bounds = tree.bounds.tolist()
    pivots = np.diff(tree.bounds).tolist()
    node_of = np.append(np.repeat(np.arange(len(pivots)), pivots), -1)
    children: list[list[int]] = [[] for _ in pivots]
    for c in np.flatnonzero(tree.parent >= 0).tolist():
        children[tree.parent[c]].append(c)
    height = [0] * len(pivots)
    for s, kids in enumerate(children):  # postorder: children come first
        height[s] = max((height[c] + 1 for c in kids), default=0)
    entering: list[list[int]] = [[] for _ in pivots]
    for i, plan in enumerate(fronts.parts):
        for s in np.flatnonzero(np.diff(plan.starts)).tolist():
            entering[s].append(i)
    rep = np.arange(len(pivots))
    signs = [np.ones(fronts.rows[s].size, dtype=np.int8) for s in rep]
    rows = [fronts.rows[s].tolist() for s in rep]  # in the class's order

    def canonical(s):  # every front position's canonical index in node s
        label = {q: q - bounds[s] for q in range(bounds[s], bounds[s + 1])}

        def see(q):
            label.setdefault(q, len(label))

        front = fronts.rows[s]
        for i in entering[s]:
            plan = fronts.parts[i]
            for element in plan.local[plan.starts[s]:plan.starts[s + 1]]:
                for r in element.tolist():
                    if r >= 0:
                        see(int(front[r]))
        for c in children[s]:
            for q in rows[c][pivots[c]:]:
                see(q)
        return label

    def mirrored(s, t, image, sign, tainted):
        mine, theirs = fronts.rows[s], fronts.rows[t]
        if (pivots[t] != pivots[s] or theirs.size != mine.size
                or len(children[t]) != len(children[s])
                or not np.array_equal(image[theirs], mine)
                or tainted[mine[:pivots[s]]].any()
                or tainted[theirs[:pivots[s]]].any()):
            return False
        for c, c_t in zip(children[s], children[t]):
            p = pivots[c]
            ours, other = np.array(rows[c][p:]), np.array(rows[c_t][p:])
            if (rep[c] != rep[c_t] or not np.array_equal(image[other], ours)
                    or not np.array_equal(signs[c][p:],
                                          sign[other] * signs[c_t][p:])):
                return False
        return True

    for h in range(max(height, default=-1) + 1):
        nodes = [s for s in range(len(pivots)) if height[s] == h]
        labels = {s: canonical(s) for s in nodes}
        first: dict[bytes, int] = {}
        lead = {}
        for s in nodes:
            label = labels[s]
            head = [fronts.rows[s].size, pivots[s], len(children[s])]
            arrays = []
            for i in entering[s]:
                plan = fronts.parts[i]
                e0, e1 = plan.starts[s], plan.starts[s + 1]
                head += [i, e1 - e0]
                local = plan.local[e0:e1]
                arrays.append(np.array(
                    [[label[int(fronts.rows[s][r])] if r >= 0 else -1
                      for r in element] for element in local.tolist()]))
                if plan.pairs.ndim == 2:
                    arrays.append(plan.pairs[e0:e1])
            for c in children[s]:
                head += [int(rep[c]), len(rows[c]) - pivots[c]]
                arrays += [np.array([label[q] for q in rows[c][pivots[c]:]]),
                           signs[c][pivots[c]:]]
            key = np.array(head).tobytes() + b"".join(
                np.ascontiguousarray(a).tobytes() for a in arrays)
            lead[s] = first.setdefault(key, s)
        edges, linked = [], set()
        for s in nodes:
            for r, (image, sign, tainted) in enumerate(mirrors):
                t = int(node_of[image[bounds[s]]]) if pivots[s] else -1
                pair = frozenset((lead[s], lead[t])) if t >= 0 else None
                if (0 <= t < s and height[t] == h and lead[t] != lead[s]
                        and pair not in linked
                        and mirrored(s, t, image, sign, tainted)):
                    edges.append((s, t, r))
                    linked.add(pair)
        root = {g: g for g in set(lead.values())}

        def find(g):
            while root[g] != g:
                g = root[g]
            return g

        for s, t, _ in edges:
            a, b = sorted((find(lead[s]), find(lead[t])))
            root[b] = a
        # Each placed key: its first node's positions, by label in the
        # class's order, and their signs.
        placed = {}
        for g in root:
            if find(g) == g:
                placed[g] = ([labels[g][q] for q in fronts.rows[g].tolist()],
                             np.ones(fronts.rows[g].size, dtype=np.int8))
        while edges:
            left = []
            for x, y, r in edges:
                if lead[y] in placed and lead[x] not in placed:
                    x, y = y, x
                if lead[x] not in placed or lead[y] in placed:
                    if lead[x] not in placed:
                        left.append((x, y, r))
                    continue
                order, flips = placed[lead[x]]
                at = {v: q for q, v in labels[x].items()}
                mine = [at[v] for v in order]  # x's positions, class order
                g = lead[y]
                there = [int(mirrors[r][0][q]) for q in mine]
                placed[g] = ([labels[y][q] for q in there],
                             flips * mirrors[r][1][mine])
            assert len(left) < len(edges)
            edges = left
        for s in nodes:
            order, flips = placed[lead[s]]
            at = {v: q for q, v in labels[s].items()}
            rep[s] = find(lead[s])
            rows[s] = [at[v] for v in order]
            signs[s] = flips.copy()
    return rep, [None if np.all(f == 1) else f for f in signs], rows


def assert_same_sharing(elements, tree):
    """``solver._representatives`` finds the (rep, signs, rows) of the
    per-node reference on ``tree``, with and without the mirror maps: signs
    int8, None where all are +1. The fronts it reorders describe the same
    fronts, rows permuted: every element part's rows and every update's
    landing rows name the same tree positions as the symbolic phase's."""
    pivots = np.diff(tree.bounds)
    for mirrors in ([], solver._mirror_maps(elements, tree)):
        fronts = solver._symbolic_phase(elements, tree)
        want_rep, want_signs, want_rows = representatives_per_node(
            fronts, tree, mirrors)
        ours = solver._symbolic_phase(elements, tree)
        rep, signs = solver._representatives(ours, tree, mirrors)
        assert np.array_equal(rep, want_rep)
        assert len(signs) == len(want_signs)
        for s, (mine, theirs) in enumerate(zip(signs, want_signs)):
            assert (mine is None) == (theirs is None), s
            if mine is not None:
                assert mine.dtype == np.int8, s
                assert np.array_equal(mine, theirs), s
        for s, rows in enumerate(ours.rows):
            assert np.array_equal(rows, want_rows[s]), s
            assert np.array_equal(rows[:pivots[s]], fronts.rows[s][:pivots[s]])
        for old, new in zip(fronts.parts, ours.parts):
            for s in range(pivots.size):
                e0, e1 = old.starts[s], old.starts[s + 1]
                was, now = old.local[e0:e1], new.local[e0:e1]
                assert np.array_equal(now < 0, was < 0), s
                assert np.array_equal(ours.rows[s][now[now >= 0]],
                                      fronts.rows[s][was[was >= 0]]), s
        for c in np.flatnonzero(tree.parent >= 0):
            s, p = tree.parent[c], pivots[c]
            end = ours.starts[c] + ours.sizes[c]
            lands = ours.lands[end - ours.sizes[c] + p:end]
            assert np.array_equal(ours.rows[s][lands], ours.rows[c][p:]), c


# Extended-precision oracle of the class blocks: the Legendre polynomials in
# exact rational arithmetic, everything after in 40-digit decimal arithmetic.


def _legendre_exact(k):
    """Unnormalized Legendre polynomials P_0..P_k as rational coefficient
    lists (Bonnet's recurrence), and with them the 1D factors of the
    orthonormal basis sqrt(m + 1/2) P_m: values and slopes at -1 and +1,
    and (P_j, P_m'), (P_j, P_m'') over [-1, 1]."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for m in range(1, k):
        shifted = [Fraction(0)] + [(2 * m + 1) * c for c in polys[m]]
        lower = [m * c for c in polys[m - 1]] + [Fraction(0)] * 2
        polys.append([(a - b) / (m + 1) for a, b in zip(shifted, lower)])

    def derive(p):
        return [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]

    def at(p, t):
        return sum(c * t ** i for i, c in enumerate(p))

    def inner(p, q):  # integral of p q over [-1, 1]
        prod = [Fraction(0)] * (len(p) + len(q))
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        return sum(2 * c / (i + 1) for i, c in enumerate(prod) if i % 2 == 0)

    root = [(Decimal(2 * m + 1) / 2).sqrt() for m in range(k + 1)]

    def dec(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    polys = polys[:k + 1]
    value = [[root[m] * dec(at(p, t)) for t in (-1, 1)]
             for m, p in enumerate(polys)]
    slope = [[root[m] * dec(at(derive(p), t)) for t in (-1, 1)]
             for m, p in enumerate(polys)]
    d1 = [[root[j] * root[m] * dec(inner(polys[j], derive(polys[m])))
           for m in range(k + 1)] for j in range(k + 1)]
    d2 = [[root[j] * root[m] * dec(inner(polys[j], derive(derive(polys[m]))))
           for m in range(k + 1)] for j in range(k + 1)]
    return value, slope, d1, d2


def decimal_class_block(widths, k, eps, h, H, condense):
    """The class block of a cell of ``widths`` in 40-digit decimal
    arithmetic: the stiffness eps^2 L'L + G'G + S of the layout of
    ``weak_ops``, or, with ``condense``, its Schur complement onto the edge
    DOFs. An oracle for ``weak_ops.local_stiffness`` and
    ``assembly.schur_complement``, independent of binary floating point."""
    with localcontext() as ctx:
        ctx.prec = 40
        value, slope, d1, d2 = _legendre_exact(k)
        kk, ni = k + 1, (k + 1) ** 2
        n_loc = ni + 12 * kk
        h1, h2 = (Decimal(w) for w in widths)
        eps, h, H = Decimal(eps), Decimal(h), Decimal(H)
        sx, sy = (2 / h1).sqrt(), (2 / h2).sqrt()
        L = np.full((ni, n_loc), Decimal(0), dtype=object)
        G = np.full((2 * ni, n_loc), Decimal(0), dtype=object)
        jumps = []  # (coefficient, jump row) of the stabilizer
        c_grad, c_val = eps * eps / h, eps * eps / (h * h * H) + 1 / H
        for mx in range(kk):
            for my in range(kk):
                i = mx * kk + my
                # (phi_d, Lap phi_i) and -(phi_d, div q) over the cell.
                for j in range(kk):
                    L[i, j * kk + my] += (2 / h1) ** 2 * d2[j][mx]
                    L[i, mx * kk + j] += (2 / h2) ** 2 * d2[j][my]
                    G[i, j * kk + my] -= (2 / h1) * d1[j][mx]
                    G[ni + i, mx * kk + j] -= (2 / h2) * d1[j][my]
        for side, (vertical, end, sign) in enumerate(
                ((False, 0, -1), (True, 1, 1), (False, 1, 1), (True, 0, -1))):
            base = ni + side * 3 * kk
            # Moments <chi_j, D phi_i> of the side's edge basis chi_j.
            val = np.full((ni, kk), Decimal(0), dtype=object)
            dx, dy = val.copy(), val.copy()
            for mx in range(kk):
                for my in range(kk):
                    i = mx * kk + my
                    # The normal factor at the side, the tangential one
                    # against the edge basis.
                    normal, along = (mx, my) if vertical else (my, mx)
                    s, hn, ht = (sx, h1, h2) if vertical else (sy, h2, h1)
                    for j in range(kk):
                        at_side = s * value[normal][end]
                        val[i, j] = at_side * (j == along)
                        slope_n = (s * (2 / hn) * slope[normal][end]
                                   * (j == along))
                        slope_t = at_side * (2 / ht) * d1[j][along]
                        dx[i, j], dy[i, j] = ((slope_n, slope_t) if vertical
                                              else (slope_t, slope_n))
            trace, gx, gy = (base + np.arange(kk) + kk * t for t in range(3))
            if vertical:
                L[:, trace] -= sign * dx
                L[:, gx] += sign * val
                G[:ni, trace] += sign * val
            else:
                L[:, trace] -= sign * dy
                L[:, gy] += sign * val
                G[ni:, trace] += sign * val
            for coefficient, moments, dofs in ((c_val, val, trace),
                                               (c_grad, dx, gx),
                                               (c_grad, dy, gy)):
                row = np.full((kk, n_loc), Decimal(0), dtype=object)
                row[:, :ni] = moments.T
                row[np.arange(kk), dofs] = Decimal(-1)
                jumps.append((coefficient, row))
        A = eps * eps * (L.T @ L) + G.T @ G
        for coefficient, row in jumps:
            A = A + coefficient * (row.T @ row)
        if not condense:
            return A
        # Gaussian elimination of the interior block.
        a = A.copy()
        for j in range(ni):
            for i in range(j + 1, n_loc):
                factor = a[i, j] / a[j, j]
                a[i, j + 1:] = a[i, j + 1:] - factor * a[j, j + 1:]
        return a[ni:, ni:]
