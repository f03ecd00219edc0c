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
