import numpy as np
import pytest

from wg_shishkin.basis import project_cell, project_edge
from wg_shishkin.mesh import SIDES, Cell, Edge, MeshParams, build_mesh
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


def reference_cell_moments(fun, cell, k, q=20):
    """Moments (fun, phi_i)_T via an independent rule (numpy's Gauss nodes,
    direct tensor summation against the orthonormal Legendre basis)."""
    from numpy.polynomial.legendre import leggauss

    from wg_shishkin.basis import CellBasis

    t, w = leggauss(q)
    (x0, x1), (y0, y1) = cell.x_range, cell.y_range
    xq = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * t
    yq = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * t
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    W = 0.25 * (x1 - x0) * (y1 - y0) * np.outer(w, w)
    basis = CellBasis(cell, k)
    values = basis.eval(X.ravel(), Y.ravel())
    return values @ (W.ravel() * fun(X.ravel(), Y.ravel()))
