import math

import numpy as np
import pytest

from conftest import all_cells, all_edges, loop_records
from wg_shishkin.mesh import (EPS_MIN, MeshParams, axis_partition,
                              build_mesh, transition_point)


class TestTransitionPoint:
    def test_clamps_at_quarter(self):
        assert transition_point(8, 1.0, 4.0) == 0.25

    def test_small_eps_values(self):
        # 0.04 * ln(32) and 0.004 * ln(8)
        assert transition_point(32, 1e-2, 4.0) == pytest.approx(
            0.13862943611198906, rel=1e-14)
        assert transition_point(8, 1e-3, 4.0) == pytest.approx(
            0.008317766166719343, rel=1e-14)

    @pytest.mark.parametrize("n,eps,alpha", [(2, 1.0, 4.0), (8, 0.0, 4.0),
                                             (8, -1e-3, 4.0), (8, 1.0, 0.0)])
    def test_rejects_bad_arguments(self, n, eps, alpha):
        with pytest.raises(ValueError):
            transition_point(n, eps, alpha)


class TestAxisPartition:
    def test_uniform_when_lambda_is_quarter(self):
        points = axis_partition(8, 0.25)
        assert points == pytest.approx(np.linspace(0, 1, 9), abs=1e-15)

    def test_piecewise_widths(self):
        points = axis_partition(8, 0.1)
        assert points == pytest.approx(
            [0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0], abs=1e-15)

    @pytest.mark.parametrize("n,lam", [(8, 0.25), (8, 0.1), (16, 0.017),
                                       (64, 0.21), (4, 0.002)])
    def test_reversal_symmetry_exact(self, n, lam):
        points = axis_partition(n, lam)
        assert np.all(points + points[::-1] == 1.0)
        assert np.all(np.diff(points) > 0)
        assert points[0] == 0.0 and points[-1] == 1.0

    @pytest.mark.parametrize("lam", [0.0, -0.1, 0.2500001, 1.0])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError):
            axis_partition(8, lam)


class TestBuildMesh:
    def test_counts_and_widths_n8(self):
        mesh = build_mesh(MeshParams(n=8, eps=1.0, k=3))
        assert len(all_cells(mesh)) == mesh.n_cells == 64
        assert len(all_edges(mesh)) == mesh.n_edges == 144
        assert mesh.boundary_edges.sum() == 32
        assert mesh.h_fine == pytest.approx(0.125)
        assert mesh.h_coarse == pytest.approx(0.125)

    def test_shishkin_widths_n4(self):
        mesh = build_mesh(MeshParams(n=4, eps=1e-2, k=3))
        lam = 4 * 1e-2 * math.log(4)
        assert mesh.lam == pytest.approx(lam, rel=1e-14)
        assert mesh.h_fine == pytest.approx(lam, rel=1e-14)
        assert mesh.h_coarse == pytest.approx(2 * (1 - 2 * lam) / 4, rel=1e-14)

    def test_uniform_kind_forces_quarter(self):
        mesh = build_mesh(MeshParams(n=12, eps=1e-5, k=3, mesh_kind="uniform"))
        assert mesh.lam == 0.25
        for cell in all_cells(mesh):
            assert cell.widths == pytest.approx((1 / 12, 1 / 12), rel=1e-14)

    def test_cell_areas_sum_to_one(self):
        for params in [MeshParams(n=8, eps=1e-3, k=3),
                       MeshParams(n=16, eps=1e-6, k=4),
                       MeshParams(n=4, eps=1.0, k=3)]:
            mesh = build_mesh(params)
            assert sum(c.area for c in all_cells(mesh)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_edge_adjacency(self, n):
        for edge in all_edges(build_mesh(MeshParams(n=n, eps=1e-2, k=3))):
            assert edge.on_boundary == (len(edge.cells) == 1)
            if not edge.on_boundary:
                assert len(edge.cells) == 2

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_cell_edge_consistency(self, n):
        mesh = build_mesh(MeshParams(n=n, eps=1e-2, k=3))
        for c, cell in enumerate(all_cells(mesh)):
            south, east, north, west = (mesh.edge(e) for e in cell.edge_ids)
            assert south.orientation == north.orientation == "horizontal"
            assert east.orientation == west.orientation == "vertical"
            for edge in (south, east, north, west):
                assert c in edge.cells
            assert south.endpoints[0][1] == cell.y_range[0]
            assert north.endpoints[0][1] == cell.y_range[1]
            assert west.endpoints[0][0] == cell.x_range[0]
            assert east.endpoints[0][0] == cell.x_range[1]

    def test_fine_not_wider_than_coarse(self):
        for eps in (1.0, 1e-1, 1e-4, 1e-7):
            mesh = build_mesh(MeshParams(n=16, eps=eps, k=3))
            assert mesh.h_fine <= mesh.h_coarse + 1e-15

    def test_clamped_lambda_equals_uniform_mesh(self):
        shishkin = build_mesh(MeshParams(n=8, eps=1.0, k=3))
        uniform = build_mesh(MeshParams(n=8, eps=1.0, k=3, mesh_kind="uniform"))
        assert np.all(shishkin.breakpoints == uniform.breakpoints)

    def test_axis_widths_match_cells(self, mesh_n8_eps1e2):
        widths = mesh_n8_eps1e2.axis_widths()
        n = 8
        for cell in all_cells(mesh_n8_eps1e2):
            i, j = cell.index
            assert cell.widths == (widths[i], widths[j])

    @pytest.mark.parametrize("kwargs", [
        dict(n=6, eps=1.0, k=3), dict(n=0, eps=1.0, k=3),
        dict(n=8, eps=0.0, k=3), dict(n=8, eps=2.0, k=3),
        dict(n=8, eps=1.0, k=2), dict(n=8, eps=1.0, k=3, alpha=-1.0),
        dict(n=8, eps=1.0, k=3, mesh_kind="bakhvalov"),
    ])
    def test_rejects_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            MeshParams(**kwargs)

    def test_eps_floor(self):
        assert MeshParams(n=8, eps=EPS_MIN, k=3).eps == EPS_MIN
        for eps in (np.nextafter(EPS_MIN, 0.0), 1e-30, 1e-80):
            with pytest.raises(ValueError, match="eps must lie"):
                MeshParams(n=8, eps=eps, k=3)

    def test_alpha_defaults_to_k_plus_one(self):
        assert MeshParams(n=8, eps=1.0, k=3).alpha == 4.0
        assert MeshParams(n=8, eps=1.0, k=4).alpha == 5.0


class TestLatticeTables:
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("eps", [1.0, 1e-4])
    def test_records_match_loops(self, n, mesh_kind, eps):
        mesh = build_mesh(MeshParams(n=n, eps=eps, k=3, mesh_kind=mesh_kind))
        cells, edges = loop_records(mesh)
        assert all_cells(mesh) == cells
        assert all_edges(mesh) == edges

    def test_tables_match_records(self, mesh_n8_eps1e2):
        mesh = mesh_n8_eps1e2
        cells, edges = loop_records(mesh)
        assert mesh.cell_edges.tolist() == [list(c.edge_ids) for c in cells]
        assert mesh.edge_vertical.tolist() == [e.orientation == "vertical"
                                               for e in edges]
        assert mesh.boundary_edges.tolist() == [e.on_boundary for e in edges]
        # Cells at odd/odd lattice points, each side one step from its
        # cell's point; no two entities share a point.
        lattice = mesh.lattice
        steps = np.array([[0, -1], [1, 0], [0, 1], [-1, 0]])  # S, E, N, W
        for c, cell in enumerate(cells):
            i, j = cell.index
            assert lattice[c].tolist() == [2 * i + 1, 2 * j + 1]
            assert (lattice[mesh.n_cells + np.array(cell.edge_ids)]
                    == lattice[c] + steps).all()
        assert len({tuple(p) for p in lattice.tolist()}) == lattice.shape[0]

    def test_records_reject_ids_out_of_range(self, mesh_n8_eps1e2):
        mesh = mesh_n8_eps1e2
        for index in (-1, mesh.n_cells):
            with pytest.raises(IndexError):
                mesh.cell(index)
        for index in (-1, mesh.n_edges):
            with pytest.raises(IndexError):
                mesh.edge(index)
