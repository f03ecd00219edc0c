import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import (CellBasis, EdgeBasis, all_cells, mesh_edge,
                      project_cell, project_edge, region_end_cells)
from wg_shishkin.basis import project_all_cells, project_all_edges
from wg_shishkin.mesh import MeshParams, build_mesh

RNG = np.random.default_rng(20240817)


def most_anisotropic_cell(mesh):
    return max(all_cells(mesh), key=lambda c: max(c.widths) / min(c.widths))


def cell_gram(basis, q=None):
    x, y, w = basis.quad_points(q or basis.k + 3)
    values = basis.eval(x, y)
    return (values * w) @ values.T


class TestCellBasis:
    def test_mass_matrix_is_identity(self, mesh_n4_eps1e2):
        cell = most_anisotropic_cell(mesh_n4_eps1e2)
        assert max(cell.widths) / min(cell.widths) > 5  # genuinely anisotropic
        gram = cell_gram(CellBasis(cell, 3))
        assert np.abs(gram - np.eye(16)).max() < 1e-12

    def test_constant_member(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(0)
        basis = CellBasis(cell, 3)
        x = RNG.uniform(*cell.x_range, 7)
        y = RNG.uniform(*cell.y_range, 7)
        assert basis.eval(x, y)[0] == pytest.approx(
            np.full(7, 1.0 / np.sqrt(cell.area)), rel=1e-13)

    @pytest.mark.parametrize("dx,dy", [(1, 0), (0, 1), (2, 0), (0, 2)])
    def test_derivatives_against_finite_differences(self, mesh_n4_eps1e2, dx, dy):
        # Central differences of the next-lower derivative table.
        cell = mesh_n4_eps1e2.cell(5)
        basis = CellBasis(cell, 3)
        x = np.linspace(*cell.x_range, 9)[1:-1]
        y = np.linspace(*cell.y_range, 9)[1:-1]
        h = 1e-6 * min(cell.widths)
        table = basis.eval(x, y, dx=dx, dy=dy)
        ex, ey = (h, 0.0) if dx else (0.0, h)
        lower = dict(dx=dx - (1 if dx else 0), dy=dy - (1 if dy else 0))
        fd = (basis.eval(x + ex, y + ey, **lower)
              - basis.eval(x - ex, y - ey, **lower)) / (2 * h)
        assert np.abs(table - fd).max() / np.abs(table).max() < 1e-6


class TestEdgeBasis:
    def test_mass_matrix_is_identity(self, mesh_n4_eps1e2):
        for edge in [mesh_edge(mesh_n4_eps1e2, e) for e in range(6)]:
            basis = EdgeBasis(edge, 3)
            x, y, w = basis.quad_points(6)
            t = x if edge.orientation == "horizontal" else y
            values = basis.eval(t)
            gram = (values * w) @ values.T
            assert np.abs(gram - np.eye(4)).max() < 1e-12


class TestProjectCell:
    def test_reproduces_basis_member(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(3)
        basis = CellBasis(cell, 3)
        coeffs = project_cell(lambda x, y: basis.eval(x, y)[7], cell, 3)
        expected = np.zeros(16)
        expected[7] = 1.0
        assert coeffs == pytest.approx(expected, abs=1e-12)

    def test_reproduces_q3_polynomial(self, mesh_n4_eps1e2):
        cell = most_anisotropic_cell(mesh_n4_eps1e2)
        coef = RNG.standard_normal((4, 4))

        def poly(x, y):
            return np.polynomial.polynomial.polyval2d(x, y, coef)

        coeffs = project_cell(poly, cell, 3)
        basis = CellBasis(cell, 3)
        x = RNG.uniform(*cell.x_range, 20)
        y = RNG.uniform(*cell.y_range, 20)
        assert coeffs @ basis.eval(x, y) == pytest.approx(poly(x, y), rel=1e-12)

    def test_exp_against_high_order_reference(self):
        # Unit-square cell; reference moments from numpy's 20-point rule.
        mesh = build_mesh(MeshParams(n=4, eps=1.0, k=3, mesh_kind="uniform"))
        cell = mesh.cell(5)
        fun = lambda x, y: np.exp(x + y)
        coeffs = project_cell(fun, cell, 3)
        t, w = leggauss(20)
        xq = cell.x_range[0] + cell.widths[0] * (t + 1) / 2
        yq = cell.y_range[0] + cell.widths[1] * (t + 1) / 2
        X, Y = np.meshgrid(xq, yq, indexing="ij")
        W = np.outer(w, w) * cell.area / 4
        reference = CellBasis(cell, 3).eval(X.ravel(), Y.ravel()) @ (
            W.ravel() * fun(X.ravel(), Y.ravel()))
        assert coeffs == pytest.approx(reference, abs=1e-10)

    def test_idempotence(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(10)
        basis = CellBasis(cell, 3)
        first = project_cell(lambda x, y: np.sin(3 * x) * np.cos(y), cell, 3)
        second = project_cell(lambda x, y: first @ basis.eval(x, y), cell, 3)
        assert second == pytest.approx(first, abs=1e-13)

    def test_rejects_low_quadrature(self, mesh_n4_eps1e2):
        with pytest.raises(ValueError):
            project_cell(lambda x, y: x, mesh_n4_eps1e2.cell(0), 3, q=3)


class TestProjectEdge:
    def test_constant(self, mesh_n4_eps1e2):
        edge = mesh_edge(mesh_n4_eps1e2, 0)
        coeffs = project_edge(lambda x, y: np.full_like(x, 3.0), edge, 3)
        expected = np.zeros(4)
        expected[0] = 3.0 * np.sqrt(edge.length)
        assert coeffs == pytest.approx(expected, abs=1e-13)

    def test_reproduces_pk(self, mesh_n4_eps1e2):
        edge = mesh_edge(mesh_n4_eps1e2, 9)
        c = RNG.standard_normal(4)

        def poly(x, y):
            t = x if edge.orientation == "horizontal" else y
            return np.polynomial.polynomial.polyval(t, c)

        coeffs = project_edge(poly, edge, 3)
        basis = EdgeBasis(edge, 3)
        t = np.linspace(basis.t0, basis.t1, 11)
        xy = (t, np.full_like(t, edge.endpoints[0][1]))
        if edge.orientation == "vertical":
            xy = (np.full_like(t, edge.endpoints[0][0]), t)
        assert coeffs @ basis.eval(t) == pytest.approx(poly(*xy), rel=1e-12)

    def test_sine_against_high_order_reference(self):
        mesh = build_mesh(MeshParams(n=8, eps=1.0, k=3))
        edge = mesh_edge(mesh, 3)
        assert edge.length == pytest.approx(0.125)

        def fun(x, y):
            s = (x if edge.orientation == "horizontal" else y) - edge.endpoints[0][0]
            return np.sin(np.pi * s)

        coeffs = project_edge(fun, edge, 3)
        reference = project_edge(fun, edge, 3, q=20)
        assert coeffs == pytest.approx(reference, abs=1e-12)


class TestMeshWideProjections:
    @pytest.mark.parametrize("project", [project_all_cells, project_all_edges])
    def test_rejects_low_quadrature(self, mesh_n4_eps1e2, project):
        with pytest.raises(ValueError, match="at least 4 points"):
            project(mesh_n4_eps1e2, 3, lambda x, y: x * y, q=3)

    def test_matches_per_cell_projection(self, mesh_n4_eps1e2, mesh_n128_eps1e7):
        fun = lambda x, y: np.sin(2 * x + 0.3) * np.exp(y)
        table = project_all_cells(mesh_n4_eps1e2, 3, fun)
        for c in (0, 5, 15):
            cell = mesh_n4_eps1e2.cell(c)
            assert table[c] == pytest.approx(project_cell(fun, cell, 3), abs=1e-13)

        mesh = mesh_n128_eps1e7
        table = project_all_cells(mesh, 3, fun)
        for cell in region_end_cells(mesh):
            row = table[cell.index[0] * mesh.n + cell.index[1]]
            single = project_cell(fun, cell, 3)
            assert np.abs(row - single).max() <= 1e-13 * np.abs(row).max(), \
                f"cell {cell.index}"

    def test_matches_per_edge_projection(self, mesh_n4_eps1e2, mesh_n128_eps1e7):
        fun = lambda x, y: np.cos(x - 2 * y)
        table = project_all_edges(mesh_n4_eps1e2, 3, fun)
        for e in (0, 7, 21, 39):
            edge = mesh_edge(mesh_n4_eps1e2, e)
            assert table[e] == pytest.approx(project_edge(fun, edge, 3), abs=1e-13)

        mesh = mesh_n128_eps1e7
        table = project_all_edges(mesh, 3, fun)
        for cell in region_end_cells(mesh):
            for e in cell.edge_ids:
                single = project_edge(fun, mesh_edge(mesh, e), 3)
                assert np.abs(table[e] - single).max() \
                    <= 1e-13 * np.abs(table[e]).max(), f"edge {e}"
