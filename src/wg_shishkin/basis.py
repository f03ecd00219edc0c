"""Orthonormal Legendre bases on cells and edges, with L2 projections.

Cell bases span Q_k (degree <= k in each variable) and edge bases span P_k
along the edge. Both are scaled so the mass matrix on the owning entity is
the identity, which turns every local L2 projection into plain quadrature
moments and makes the weak-operator solves coefficient reads.
"""

import numpy as np

from .mesh import Cell, Edge
from .quadrature import gauss_legendre


def default_quadrature(k: int) -> int:
    """Default points per direction; exact for degree <= 2k+5 integrands."""
    return k + 3


def legendre_table(k: int, t: np.ndarray, nderiv: int = 0) -> np.ndarray:
    """Orthonormal Legendre values (and derivatives) on [-1, 1].

    Returns an array of shape (nderiv+1, k+1, len(t)) where entry (d, m, :)
    holds the d-th derivative of sqrt(m + 1/2) * P_m at the points t.
    """
    if nderiv > 2:
        raise ValueError("only derivatives up to order 2 are tabulated")
    t = np.asarray(t, dtype=float)
    out = np.zeros((nderiv + 1, k + 1, t.size))
    out[0, 0] = 1.0
    if k >= 1:
        out[0, 1] = t
        if nderiv >= 1:
            out[1, 1] = 1.0
    for m in range(1, k):
        out[0, m + 1] = ((2 * m + 1) * t * out[0, m] - m * out[0, m - 1]) / (m + 1)
        if nderiv >= 1:
            out[1, m + 1] = out[1, m - 1] + (2 * m + 1) * out[0, m]
        if nderiv >= 2:
            out[2, m + 1] = out[2, m - 1] + (2 * m + 1) * out[1, m]
    scale = np.sqrt(np.arange(k + 1) + 0.5)
    return out * scale[None, :, None]


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


def _weighted_legendre(k: int, q: int):
    """Reference q-point rule and the orthonormal Legendre table at its
    nodes times its weights, shape (k+1, q).

    Every projection is built from this one reference table, scaled by the
    entity's nominal widths, so its coefficients depend on the entity only
    through those widths and the sampled function values; mapping physical
    points back to [-1, 1] would cost log2(1/h) bits and differ by ulps
    between entities of one width class.
    """
    rule = gauss_legendre(q)
    return rule, legendre_table(k, rule.nodes)[0] * rule.weights


def _checked_quadrature(k: int, q: int | None) -> int:
    q = default_quadrature(k) if q is None else q
    if q < k + 1:
        raise ValueError(f"need at least {k + 1} points per direction, got {q}")
    return q


def project_cell(fun, cell: Cell, k: int, q: int | None = None) -> np.ndarray:
    """Coefficients of the L2 projection of ``fun(x, y)`` onto Q_k(cell).

    ``fun`` must accept equal-shaped coordinate arrays. Exact for fun in Q_k
    whenever q >= k+1; agrees with the cell's row of ``project_all_cells``.
    """
    q = _checked_quadrature(k, q)
    rule, U = _weighted_legendre(k, q)
    xq, _ = rule.mapped(*cell.x_range)
    yq, _ = rule.mapped(*cell.y_range)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    values = np.broadcast_to(fun(X.ravel(), Y.ravel()), X.size).reshape(q, q)
    h1, h2 = cell.widths
    return (U @ values @ U.T).ravel() * (0.5 * np.sqrt(h1 * h2))


def project_edge(fun, edge: Edge, k: int, q: int | None = None) -> np.ndarray:
    """Coefficients of the L2 projection of ``fun(x, y)`` onto P_k(edge);
    agrees with the edge's row of ``project_all_edges``."""
    q = _checked_quadrature(k, q)
    rule, U = _weighted_legendre(k, q)
    (xa, ya), (xb, yb) = edge.endpoints
    if edge.orientation == "horizontal":
        x, _ = rule.mapped(xa, xb)
        y = np.full_like(x, ya)
    else:
        y, _ = rule.mapped(ya, yb)
        x = np.full_like(y, xa)
    values = np.broadcast_to(fun(x, y), x.shape)
    return (U @ values) * np.sqrt(0.5 * edge.length)


def project_all_cells(mesh, k: int, fun, q: int | None = None) -> np.ndarray:
    """Cell moments (fun, phi_i)_T for every cell at once; shape
    (n_cells, (k+1)^2), rows in cell-id order.

    ``fun`` is evaluated once on broadcast coordinate arrays, so it must be
    vectorized (all the analytic solutions are).
    """
    q = _checked_quadrature(k, q)
    rule, U = _weighted_legendre(k, q)
    bp = mesh.breakpoints
    points, _ = rule.mapped(bp[:-1], bp[1:])
    n = mesh.params.n
    values = np.broadcast_to(
        np.asarray(fun(points[:, :, None, None], points[None, None, :, :]),
                   dtype=float), (n, q, n, q))
    moments = np.einsum("ma,nb,iajb->ijmn", U, U, values, optimize=True)
    widths = mesh.axis_widths()
    moments = moments * (0.5 * np.sqrt(np.outer(widths, widths)))[:, :, None, None]
    return moments.reshape(n * n, (k + 1) ** 2)


def project_all_edges(mesh, k: int, fun, q: int | None = None) -> np.ndarray:
    """Edge moments (fun, chi_j)_e for every edge at once; shape
    (n_edges, k+1), rows in edge-id order (horizontal first, then vertical)."""
    q = _checked_quadrature(k, q)
    rule, U = _weighted_legendre(k, q)
    bp = mesh.breakpoints
    points, _ = rule.mapped(bp[:-1], bp[1:])
    n = mesh.params.n
    scale = np.sqrt(0.5 * mesh.axis_widths())[None, :, None]

    horizontal = np.broadcast_to(
        np.asarray(fun(points[None, :, :], bp[:, None, None]), dtype=float),
        (n + 1, n, q))
    ch = np.einsum("ma,jia->jim", U, horizontal) * scale
    vertical = np.broadcast_to(
        np.asarray(fun(bp[:, None, None], points[None, :, :]), dtype=float),
        (n + 1, n, q))
    cv = np.einsum("ma,ija->ijm", U, vertical) * scale
    return np.concatenate([ch.reshape(-1, k + 1), cv.reshape(-1, k + 1)])
