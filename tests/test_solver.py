import numpy as np
import pytest
import scipy.sparse as sp

import wg_shishkin.solver as solver
from conftest import elements_of, one_front, superlu_solve
from wg_shishkin.analytic import ExactSolution
from wg_shishkin.assembly import assemble_system, fill_reducing_ordering
from wg_shishkin.mesh import MeshParams, build_mesh
from wg_shishkin.solver import (ElementGroup, ElementMatrix, SeparatorTree,
                                SolverError, solve_spd)

RNG = np.random.default_rng(31415)


def random_spd(dim):
    m = RNG.standard_normal((dim, dim))
    a = m @ m.T + dim * np.eye(dim)  # diagonally dominant
    return sp.csr_matrix(a)


def element_bytes(elements) -> int:
    """Bytes of the element blocks of a matrix."""
    return sum(group.block.nbytes for group in elements.groups)


def solve_sparse(matrix, rhs, method="direct", tol=1e-12, tree=None):
    """``solve_spd`` of a sparse matrix, on one front without a tree."""
    if tree is None:
        tree = one_front(matrix.shape[0])
    return solve_spd(elements_of(matrix), rhs, method, tol, tree=tree)


class TestBasics:
    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_identity(self, method):
        rhs = RNG.standard_normal(10)
        x, report = solve_sparse(sp.identity(10, format="csr"), rhs, method)
        assert x == pytest.approx(rhs, rel=1e-14)
        # The single-precision preconditioner leaves a residual near its
        # unit round-off after one CG step; a second one reaches tol.
        assert report.iterations <= {"direct": 0, "pcg": 2}[method]

    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_two_by_two(self, method):
        matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x, _ = solve_sparse(matrix, np.array([3.0, 3.0]), method)
        assert x == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_zero_rhs(self):
        x, report = solve_sparse(random_spd(5), np.zeros(5))
        assert np.all(x == 0.0)
        assert report.rel_residual == 0.0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            solve_sparse(random_spd(3), np.ones(3), method="gmres")

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_sparse(random_spd(3), np.ones(4))


class TestFailureModes:
    def test_singular_matrix(self):
        matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            solve_sparse(matrix, np.array([1.0, 2.0]))

    def test_indefinite_matrix_direct(self):
        matrix = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(SolverError):
            solve_sparse(matrix, np.ones(3), method="direct")

    def test_indefinite_matrix_pcg(self):
        matrix = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(SolverError):
            solve_sparse(matrix, np.ones(3), method="pcg")


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("dim", [20, 97, 200])
    def test_random_spd(self, dim):
        matrix = random_spd(dim)
        rhs = RNG.standard_normal(dim)
        x_direct, rep_d = solve_sparse(matrix, rhs, "direct", tol=1e-12)
        x_pcg, rep_p = solve_sparse(matrix, rhs, "pcg", tol=1e-12)
        rel = np.linalg.norm(x_direct - x_pcg) / np.linalg.norm(x_direct)
        assert rel < 1e-9
        assert rep_p.iterations > 0

    def test_reported_residual_is_recomputed(self):
        matrix = random_spd(50)
        rhs = RNG.standard_normal(50)
        x, report = solve_sparse(matrix, rhs, "pcg", tol=1e-10)
        independent = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert independent <= 2.0 * max(report.rel_residual, 1e-300)
        assert report.rel_residual <= 1e-10


def tridiagonal(dim):
    return sp.diags([-np.ones(dim - 1), 4.0 * np.ones(dim), -np.ones(dim - 1)],
                    [-1, 0, 1], format="csr")


def make_tree(perm, bounds, parent):
    return SeparatorTree(np.asarray(perm), np.asarray(bounds),
                         np.asarray(parent))


class TestTreeSolve:
    def test_separated_halves(self):
        matrix = tridiagonal(7)
        rhs = RNG.standard_normal(7)
        tree = make_tree([0, 1, 2, 4, 5, 6, 3], [0, 3, 6, 7], [2, 2, -1])
        x, _ = solve_sparse(matrix, rhs, tree=tree)
        assert x == pytest.approx(np.linalg.solve(matrix.toarray(), rhs),
                                  rel=1e-13)

    def test_empty_separator_joins_uncoupled_blocks(self):
        matrix = sp.block_diag([tridiagonal(3), tridiagonal(4)], format="csr")
        rhs = RNG.standard_normal(7)
        tree = make_tree(np.arange(7), [0, 3, 7, 7], [2, 2, -1])
        x, _ = solve_sparse(matrix, rhs, tree=tree)
        assert x == pytest.approx(np.linalg.solve(matrix.toarray(), rhs),
                                  rel=1e-13)

    def test_rejects_tree_that_does_not_separate(self):
        # Positions 2 and 3 are coupled but lie in sibling leaves.
        with pytest.raises(ValueError, match="does not separate"):
            solve_sparse(tridiagonal(7), np.ones(7),
                         tree=make_tree(np.arange(7), [0, 3, 6, 7], [2, 2, -1]))

    def test_rejects_tree_of_other_dimension(self):
        with pytest.raises(ValueError, match="covers"):
            solve_sparse(tridiagonal(7), np.ones(7),
                         tree=make_tree(np.arange(6), [0, 6], [-1]))


class TestPcg:
    def test_single_precision_breakdown_falls_back_to_double(self,
                                                             monkeypatch):
        # Unit diagonal already; 1 - 1e-9 rounds to 1 in single precision,
        # where the matrix is singular and spotrf breaks down.
        off = 1.0 - 1e-9
        matrix = sp.csr_matrix(np.array([[1.0, off], [off, 1.0]]))
        rhs = np.array([1.0, -2.0])
        factored, symbolic_runs = [], []
        numeric, symbolic = solver._factor_fronts, solver._symbolic_phase

        def spy(fronts, tree, scale, plan, dtype):
            factored.append(np.dtype(dtype))
            return numeric(fronts, tree, scale, plan, dtype)

        def symbolic_spy(elements, tree):
            symbolic_runs.append(elements.dim)
            return symbolic(elements, tree)

        monkeypatch.setattr(solver, "_factor_fronts", spy)
        monkeypatch.setattr(solver, "_symbolic_phase", symbolic_spy)
        x, report = solve_sparse(matrix, rhs, "pcg", tol=1e-12,
                                 tree=make_tree([0, 1], [0, 2], [-1]))
        assert factored == [np.float32, np.float64]
        assert symbolic_runs == [2]  # the fallback reuses the symbolic phase
        assert x == pytest.approx(np.linalg.solve(matrix.toarray(), rhs),
                                  rel=1e-12)
        assert report.iterations >= 1

    def test_double_precision_fallback_checks_memory_first(self, monkeypatch):
        # Room for the single-precision factor only: after its breakdown the
        # double-precision one must be refused before any numeric work.
        off = 1.0 - 1e-9
        matrix = sp.csr_matrix(np.array([[1.0, off], [off, 1.0]]))
        tree = make_tree([0, 1], [0, 2], [-1])
        _, report = solve_sparse(matrix, np.array([1.0, -2.0]), tol=1e-12,
                                 tree=tree)
        held = element_bytes(elements_of(matrix))
        factored = []
        numeric = solver._factor_fronts

        def spy(fronts, tree, scale, plan, dtype):
            factored.append(np.dtype(dtype))
            return numeric(fronts, tree, scale, plan, dtype)

        monkeypatch.setattr(solver, "_factor_fronts", spy)
        monkeypatch.setattr(solver, "_physical_memory",
                            lambda: 4 * report.workspace + held)
        with pytest.raises(SolverError, match="physical memory"):
            solve_sparse(matrix, np.array([1.0, -2.0]), "pcg", tol=1e-12,
                         tree=tree)
        assert factored == [np.float32]

    def test_k4_eps1_n64_matches_direct(self):
        # kappa of the scaled system is near single precision's limit here,
        # so CG stalls on the single-precision factor and goes on with the
        # double-precision one. The reported error sits at its round-off
        # floor, so the solutions are compared instead.
        mesh = build_mesh(MeshParams(n=64, eps=1.0, k=4))
        system = assemble_system(mesh, 4, 1.0, ExactSolution(1, 1.0).forcing,
                                 q=5, condense=True)
        tree = fill_reducing_ordering(system)
        x_direct, _ = solve_spd(system.elements, system.rhs, tol=1e-10,
                                tree=tree)
        x_pcg, report = solve_spd(system.elements, system.rhs, "pcg",
                                  tol=1e-10, tree=tree)
        gap = np.linalg.norm(x_pcg - x_direct) / np.linalg.norm(x_direct)
        assert gap <= 1e-8, f"pcg/direct gap {gap:.2e}"


class TestOnDiscreteSystem:
    def test_spec_case_reaches_1e12_by_both_methods(self):
        mesh = build_mesh(MeshParams(n=8, eps=1e-3, k=3))
        sol = ExactSolution(1, 1e-3)
        system = assemble_system(mesh, 3, 1e-3, sol.forcing)
        tree = fill_reducing_ordering(system)
        x_direct, rep_d = solve_spd(system.elements, system.rhs, "direct",
                                    tol=1e-12, tree=tree)
        x_pcg, rep_p = solve_spd(system.elements, system.rhs, "pcg",
                                 tol=1e-12, tree=tree)
        assert rep_d.rel_residual <= 1e-12
        assert rep_p.rel_residual <= 1e-12
        rel = np.linalg.norm(x_direct - x_pcg) / np.linalg.norm(x_direct)
        assert rel < 1e-9


@pytest.fixture(scope="module", params=[False, True], ids=["full", "condensed"])
def mesh_system(request):
    mesh = build_mesh(MeshParams(n=8, eps=1e-3, k=3))
    system = assemble_system(mesh, 3, 1e-3, ExactSolution(1, 1e-3).forcing,
                             condense=request.param)
    return system, fill_reducing_ordering(system)


class TestSpdCertificate:
    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_indefinite_mesh_system_with_positive_diagonal(self, mesh_system,
                                                           method):
        # Under pcg the single-precision factor breaks down first; the
        # double-precision one that replaces it raises as the direct solve.
        system, tree = mesh_system
        matrix = system.matrix.copy()
        # The 2x2 minor at (i, j) gets determinant -3 A_ii A_jj < 0, while
        # every diagonal entry stays positive.
        i = matrix.shape[0] // 2
        j = next(c for c in matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
                 if c != i)
        value = 2.0 * np.sqrt(matrix[i, i] * matrix[j, j])
        matrix[i, j] = matrix[j, i] = value
        assert matrix.nnz == system.matrix.nnz
        assert np.all(matrix.diagonal() > 0.0)
        with pytest.raises(SolverError, match=r"front \d+ .*dimension "
                                              f"{matrix.shape[0]}"):
            solve_sparse(matrix, system.rhs, method, tol=1e-10, tree=tree)
        with pytest.raises(SolverError, match="not positive definite"):
            solve_sparse(matrix, system.rhs, method, tol=1e-10)


class TestFactorSize:
    def test_reported_entries(self, mesh_system):
        system, tree = mesh_system
        dim = system.elements.dim
        _, direct = solve_spd(system.elements, system.rhs, tol=1e-10,
                              tree=tree)
        assert dim < direct.factor_nnz < dim * (dim + 1) // 2
        # pcg counts its preconditioner, the direct solve's factor.
        _, pcg = solve_spd(system.elements, system.rhs, "pcg", tol=1e-8,
                           tree=tree)
        assert (pcg.factor_nnz, pcg.factor_stored) == (
            direct.factor_nnz, direct.factor_stored)

    def test_factor_beyond_physical_memory_raises_before_numeric_work(
            self, mesh_system, monkeypatch):
        system, tree = mesh_system
        _, report = solve_spd(system.elements, system.rhs, tol=1e-10,
                              tree=tree)
        # The workspace in double precision and the element blocks.
        needed = 8 * report.workspace + element_bytes(system.elements)

        def numeric(*args):
            raise AssertionError("numeric factorization started")

        monkeypatch.setattr(solver, "_physical_memory", lambda: needed - 1)
        monkeypatch.setattr(solver, "_factor_fronts", numeric)
        with pytest.raises(SolverError, match="physical memory"):
            solve_spd(system.elements, system.rhs, tol=1e-10, tree=tree)
        monkeypatch.undo()
        monkeypatch.setattr(solver, "_physical_memory", lambda: needed)
        solve_spd(system.elements, system.rhs, tol=1e-10, tree=tree)

    @pytest.mark.parametrize("n, k, eps, quad, entries", [
        (128, 3, 1e-4, None, 98_089_344),
        (64, 4, 1e-3, 5, 32_321_680),
    ])
    def test_benchmark_case_factor_entries(self, n, k, eps, quad, entries):
        # The factor sizes of the assembled-matrix fronts: the element form
        # must not widen any front.
        mesh = build_mesh(MeshParams(n=n, eps=eps, k=k))
        system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                                 q=quad, condense=True)
        fronts = solver._symbolic_phase(system.elements,
                                        fill_reducing_ordering(system))
        assert fronts.factor_nnz == entries


class TestWorkspacePlan:
    """The one array of the numeric phase, checked against its schedule
    rederived here: distinct nodes in postorder, each building F11 and F22
    while it is factored and reading its children's updates, the update
    of a representative being read by the front of every distinct parent
    of a node it stands for."""

    @pytest.mark.parametrize("condense", [False, True],
                             ids=["full", "condensed"])
    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_live_blocks_never_overlap(self, n, k, mesh_kind, condense):
        mesh = build_mesh(MeshParams(n=n, eps=1e-3, k=k, mesh_kind=mesh_kind))
        system = assemble_system(mesh, k, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 condense=condense)
        tree = fill_reducing_ordering(system)
        scale = 1.0 / np.sqrt(system.elements.diagonal())
        fronts = solver._symbolic_phase(system.elements, tree)
        plan = solver._plan_workspace(
            fronts, tree, solver._representatives(fronts, tree,
                                                  scale[tree.perm]))
        rep, pivots = plan.rep, np.diff(tree.bounds)
        distinct = np.flatnonzero(rep == np.arange(rep.size))
        last_read = {}
        for s in distinct:
            for c in np.flatnonzero(tree.parent == s):
                last_read[rep[c]] = s
        blocks = []  # (start, stop, first step, last step, name)
        for s in distinct:
            p, below = pivots[s], fronts.rows[s].size - pivots[s]
            blocks.append((plan.pivot[s], plan.pivot[s] + p * p, s, s,
                           f"F11 of {s}"))
            blocks.append((plan.update[s], plan.update[s] + below * below, s,
                           last_read.get(s, s), f"F22 of {s}"))
        blocks = [block for block in blocks if block[1] > block[0]]
        written = 0
        for s in distinct:
            # The factor fills the array from the start in postorder.
            assert plan.factor[s] == written
            written += fronts.entries[s]  # node s's slot, F21 included
            live = sorted(block for block in blocks
                          if block[2] <= s <= block[3])
            for start, stop, *_, name in live:
                assert written <= start and stop <= plan.size, (s, name)
            for before, after in zip(live, live[1:]):
                assert before[1] <= after[0], (s, before[4], after[4])
        assert written == fronts.entries[distinct].sum() <= plan.size

    def test_reported_and_shared_by_both_methods(self, mesh_system):
        system, tree = mesh_system
        _, direct = solve_spd(system.elements, system.rhs, tol=1e-10,
                              tree=tree)
        _, pcg = solve_spd(system.elements, system.rhs, "pcg", tol=1e-8,
                           tree=tree)
        assert pcg.workspace == direct.workspace >= direct.factor_stored


class TestElementMatrix:
    def test_sparse_matrix_round_trip(self):
        matrix = random_spd(30)
        elements = elements_of(matrix)
        assert np.abs(elements.to_csr() - matrix).max() == 0.0
        x = RNG.standard_normal(30)
        assert elements @ x == pytest.approx(matrix @ x, rel=1e-13)
        assert elements.norm_inf() == pytest.approx(
            np.abs(matrix.toarray()).sum(axis=1).max(), rel=1e-14)
        assert elements.abs_matmul(x) == pytest.approx(
            abs(matrix) @ np.abs(x), rel=1e-13)

    def test_shared_face_entries_sum_before_absolute_value(self):
        # Two elements share the face {1, 2}; their (1, 2) entries cancel.
        block = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 2.0], [1.0, 2.0, 4.0]])
        other = block.copy()
        other[1, 2] = other[2, 1] = -2.0
        face = np.array([[1, 2]])
        elements = ElementMatrix(4, (
            ElementGroup(np.array([[0, 1, 2]]), block, face),
            ElementGroup(np.array([[3, 1, 2]]), other, face)))
        dense = elements.to_csr().toarray()
        assert dense[1, 2] == 0.0
        assert elements.norm_inf() == np.abs(dense).sum(axis=1).max() == 10.0
        x = np.array([1.0, -2.0, 3.0, -4.0])
        assert np.array_equal(elements.abs_matmul(x), np.abs(dense) @ np.abs(x))

    def test_rejects_shared_face_listed_in_another_order(self):
        block = 4.0 * np.eye(3)
        face = np.array([[1, 2]])
        elements = ElementMatrix(4, (
            ElementGroup(np.array([[0, 1, 2], [3, 2, 1]]), block, face),))
        with pytest.raises(ValueError, match="different orders"):
            elements.norm_inf()


def stacked(elements):
    """The same matrix with a block of its own for every element."""
    return ElementMatrix(elements.dim, tuple(
        ElementGroup(group.index,
                     np.repeat(group.block[None], group.index.shape[0], axis=0)
                     if group.block.ndim == 2 else group.block.copy(),
                     group.faces)
        for group in elements.groups))


class TestFrontSharing:
    """Twin fronts share one factor, so a key that missed anything a front
    is built from would hand a node its twin's factor: each change below
    touches one front that has a twin, and the tree solve must still match
    SuperLU while the distinct fronts, and so the stored entries, grow."""

    @pytest.fixture(scope="class")
    def uniform_system(self):
        mesh = build_mesh(MeshParams(n=16, eps=1e-2, k=3, mesh_kind="uniform"))
        system = assemble_system(mesh, 3, 1e-2, ExactSolution(1, 1e-2).forcing,
                                 condense=True)
        return system, fill_reducing_ordering(system)

    def test_twins_share_their_factor(self, uniform_system):
        system, tree = uniform_system
        _, report = solve_spd(system.elements, system.rhs, tol=1e-10, tree=tree)
        assert report.factor_stored < report.factor_nnz
        _, again = solve_spd(stacked(system.elements), system.rhs, tol=1e-10,
                             tree=tree)
        assert again.factor_stored == report.factor_stored
        _, pcg = solve_spd(system.elements, system.rhs, "pcg", tol=1e-8,
                           tree=tree)
        assert (pcg.factor_nnz, pcg.factor_stored) == (
            report.factor_nnz, report.factor_stored)

    @pytest.mark.parametrize("change", ["cell diagonal", "cell off-diagonal",
                                        "dof diagonal"])
    def test_key_misses_nothing(self, uniform_system, change):
        system, tree = uniform_system
        _, report = solve_spd(system.elements, system.rhs, tol=1e-10, tree=tree)
        elements = stacked(system.elements)
        # A DOF of the root separator: the fronts below it that hold it are
        # translated copies of fronts that do not.
        dof = tree.perm[(tree.bounds[-2] + tree.bounds[-1]) // 2]
        group = elements.groups[0]
        cell, at = np.argwhere(group.index == dof)[0]
        if change == "cell diagonal":
            # The block entry and the scale of the DOF change.
            group.block[cell, at, at] *= 1 + 1e-3
        elif change == "cell off-diagonal":
            # Only the block entries change: the diagonal, so the scale, stays.
            other = next(j for j in np.flatnonzero(group.block[cell, at])
                         if j != at and group.index[cell, j] >= 0)
            group.block[cell, at, other] *= 1 + 1e-3
            group.block[cell, other, at] *= 1 + 1e-3
        else:
            # No cell block changes: the fronts of the cells that hold the
            # DOF differ from their twins' by the scale alone.
            diagonal = elements.diagonal()[dof]
            elements = ElementMatrix(elements.dim, elements.groups + (
                ElementGroup(np.array([[dof]]), np.array([[1e-3 * diagonal]]),
                             np.empty((0, 0), dtype=np.int64)),))
        x_tree, changed = solve_spd(elements, system.rhs, tol=1e-10, tree=tree)
        x_lu = superlu_solve(elements.to_csr(), system.rhs)
        assert np.linalg.norm(x_tree - x_lu) <= 1e-9 * np.linalg.norm(x_lu)
        assert changed.factor_stored > report.factor_stored
        assert changed.factor_nnz == report.factor_nnz
