import numpy as np
import pytest

from conftest import all_cells, all_edges, loop_dof_tables, superlu_solve
from wg_shishkin.analytic import ExactSolution
from wg_shishkin.assembly import (DofMap, assemble_system,
                                  fill_reducing_ordering, schur_complement)
from wg_shishkin.mesh import MeshParams, build_mesh
from wg_shishkin.solver import solve_spd
from wg_shishkin.weak_ops import local_stiffness

RNG = np.random.default_rng(2718)


class TestDofMap:
    def test_counts_n8_k3(self, mesh_n8_eps1e2):
        dofmap = DofMap(mesh_n8_eps1e2, 3)
        assert dofmap.n_raw == 64 * 16 + 144 * 12 == 2752
        assert dofmap.n_constrained == 32 * 8 == 256
        assert dofmap.n_free == 2496

    def test_counts_n4_k3(self, mesh_n4_eps1e2):
        dofmap = DofMap(mesh_n4_eps1e2, 3)
        assert dofmap.n_raw == 16 * 16 + 40 * 12 == 736
        assert dofmap.n_constrained == 128
        assert dofmap.n_free == 608

    def test_tangential_gradient_free_on_boundary(self, mesh_n8_eps1e2):
        mesh = mesh_n8_eps1e2
        dofmap = DofMap(mesh, 3)
        kk = 4
        for edge in all_edges(mesh):
            if not edge.on_boundary:
                continue
            trace = slice(dofmap.trace_base + edge.id * kk,
                          dofmap.trace_base + (edge.id + 1) * kk)
            assert np.all(dofmap.constrained[trace])
            normal_base = (dofmap.grad_x_base if edge.orientation == "vertical"
                           else dofmap.grad_y_base)
            tangent_base = (dofmap.grad_y_base if edge.orientation == "vertical"
                            else dofmap.grad_x_base)
            assert np.all(dofmap.constrained[
                normal_base + edge.id * kk:normal_base + (edge.id + 1) * kk])
            assert not np.any(dofmap.constrained[
                tangent_base + edge.id * kk:tangent_base + (edge.id + 1) * kk])

    @pytest.mark.parametrize("n", [4, 8, 12, 32])
    @pytest.mark.parametrize("k", [3, 4, 6])
    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("eps", [1.0, 1e-4])
    def test_tables_match_loops(self, n, k, mesh_kind, eps):
        mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, mesh_kind=mesh_kind))
        cell_dofs, constrained, classes = loop_dof_tables(mesh, k)
        dofmap = DofMap(mesh, k)
        assert np.array_equal(dofmap.cell_dofs, cell_dofs)
        assert np.array_equal(dofmap.constrained, constrained)
        tables = mesh.width_classes()
        assert list(tables) == list(classes)
        for widths, ids in classes.items():
            assert np.array_equal(tables[widths], ids)

    def test_interior_free_indices_are_raw_indices(self, mesh_n4_eps1e2):
        dofmap = DofMap(mesh_n4_eps1e2, 3)
        n_int = dofmap.n_interior_total
        assert np.all(dofmap.free_index[:n_int] == np.arange(n_int))

    def test_cell_dofs_cover_each_cell_once(self, mesh_n4_eps1e2):
        dofmap = DofMap(mesh_n4_eps1e2, 3)
        table = dofmap.cell_dofs
        assert table.shape == (16, 64)
        for row in table:
            assert len(set(row.tolist())) == 64


class TestAssemble:
    def test_zero_forcing_gives_zero_solution(self, mesh_n8_eps1e2):
        system = assemble_system(mesh_n8_eps1e2, 3, 1e-2,
                                 lambda x, y: np.zeros(np.broadcast(x, y).shape))
        assert np.all(system.rhs == 0.0)
        x, report = solve_spd(system.elements, system.rhs,
                              tree=fill_reducing_ordering(system))
        assert np.all(x == 0.0)
        assert report.iterations == 0

    def test_matrix_exactly_symmetric(self, mesh_n8_eps1e2):
        sol = ExactSolution(1, 1e-2)
        system = assemble_system(mesh_n8_eps1e2, 3, 1e-2, sol.forcing)
        transposed = system.matrix.T.tocsr()
        transposed.sort_indices()
        system.matrix.sort_indices()
        assert np.array_equal(system.matrix.indptr, transposed.indptr)
        assert np.array_equal(system.matrix.indices, transposed.indices)
        assert np.array_equal(system.matrix.data, transposed.data)

    def test_global_bilinear_form_matches_cell_sum(self, mesh_n4_eps1e2):
        mesh = mesh_n4_eps1e2
        eps = 1e-2
        sol = ExactSolution(1, eps)
        system = assemble_system(mesh, 3, eps, sol.forcing)
        dofmap = system.dofmap
        u = RNG.standard_normal(dofmap.n_free)
        v = RNG.standard_normal(dofmap.n_free)
        global_value = u @ (system.matrix @ v)
        u_raw, v_raw = dofmap.expand_free(u), dofmap.expand_free(v)
        local_value = 0.0
        for c, cell in enumerate(all_cells(mesh)):
            ops = local_stiffness(cell, 3, eps, mesh.h_fine, mesh.h_coarse)
            idx = dofmap.cell_dofs[c]
            local_value += u_raw[idx] @ ops.A @ v_raw[idx]
        assert global_value == pytest.approx(local_value, rel=1e-12)

    def test_positive_definite(self, mesh_n4_eps1e2):
        sol = ExactSolution(1, 1e-2)
        system = assemble_system(mesh_n4_eps1e2, 3, 1e-2, sol.forcing)
        eigenvalues = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigenvalues.min() > 0.0

    def test_rhs_lives_on_interior_dofs_only(self, mesh_n4_eps1e2):
        sol = ExactSolution(2, 1e-2)
        system = assemble_system(mesh_n4_eps1e2, 3, 1e-2, sol.forcing)
        n_int = system.dofmap.n_interior_total
        assert np.any(system.rhs[:n_int] != 0.0)
        assert np.all(system.rhs[n_int:] == 0.0)


class TestCondensation:
    def test_agrees_with_full_solve(self):
        mesh = build_mesh(MeshParams(n=8, eps=1e-3, k=3))
        sol = ExactSolution(1, 1e-3)
        full = assemble_system(mesh, 3, 1e-3, sol.forcing)
        x_full, _ = solve_spd(full.elements, full.rhs,
                              tree=fill_reducing_ordering(full))
        condensed = assemble_system(mesh, 3, 1e-3, sol.forcing, condense=True)
        x_cond, _ = solve_spd(condensed.elements, condensed.rhs,
                              tree=fill_reducing_ordering(condensed))
        u_full = full.expand(x_full)
        u_cond = condensed.expand(x_cond)
        rel = np.linalg.norm(u_full - u_cond) / np.linalg.norm(u_full)
        assert rel < 1e-10

    def test_condensed_dimension(self, mesh_n8_eps1e2):
        sol = ExactSolution(1, 1e-2)
        system = assemble_system(mesh_n8_eps1e2, 3, 1e-2, sol.forcing,
                                 condense=True)
        assert system.matrix.shape == (1472, 1472)  # 2496 - 1024

    def test_schur_of_uncoupled_blocks_is_trivial(self):
        a_ii = np.diag([2.0, 3.0])
        a_ee = np.array([[5.0, 1.0], [1.0, 4.0]])
        schur, factor = schur_complement(a_ii, np.zeros((2, 2)), a_ee)
        assert np.array_equal(schur, a_ee)
        from scipy.linalg import cho_solve
        assert cho_solve(factor, np.array([4.0, 9.0])) == pytest.approx([2, 3])

    def test_schur_matches_dense_elimination(self):
        m = RNG.standard_normal((6, 6))
        a = m @ m.T + 6 * np.eye(6)
        schur, _ = schur_complement(a[:2, :2], a[:2, 2:], a[2:, 2:])
        expected = a[2:, 2:] - a[:2, 2:].T @ np.linalg.solve(a[:2, :2], a[:2, 2:])
        assert schur == pytest.approx(expected, rel=1e-12)


class TestOrdering:
    def test_permutation_is_bijection(self, mesh_n8_eps1e2):
        sol = ExactSolution(1, 1e-2)
        for condense in (False, True):
            system = assemble_system(mesh_n8_eps1e2, 3, 1e-2, sol.forcing,
                                     condense=condense)
            perm = fill_reducing_ordering(system).perm
            assert np.array_equal(np.sort(perm), np.arange(system.matrix.shape[0]))

    def test_permuted_solve_matches_default(self, mesh_n8_eps1e2):
        sol = ExactSolution(1, 1e-2)
        system = assemble_system(mesh_n8_eps1e2, 3, 1e-2, sol.forcing)
        x_plain = superlu_solve(system.matrix, system.rhs)
        x_tree, _ = solve_spd(system.elements, system.rhs,
                              tree=fill_reducing_ordering(system))
        assert np.linalg.norm(x_plain - x_tree) / np.linalg.norm(x_plain) < 1e-9

