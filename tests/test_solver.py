import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

import wg_shishkin.solver as solver
from conftest import (assert_same_sharing, elements_of, one_front,
                      representatives_per_node, rfp_indices, superlu_solve,
                      unpack_rfp)
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
    """``solve_spd`` of a sparse matrix, on one front, as one element,
    without a tree."""
    elements = elements_of(matrix, dense=tree is None)
    if tree is None:
        tree = one_front(matrix.shape[0])
    return solve_spd(elements, rhs, method, tol, tree=tree)


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

    def test_twins_that_update_the_same_rows(self):
        # Two equal chains hang from one separator DOF at the same end, so
        # the leaves are twins that share one group of the solve and both
        # update the separator's row.
        matrix = sp.lil_matrix(sp.block_diag([tridiagonal(3), tridiagonal(3),
                                              sp.identity(1) * 4.0]))
        matrix[2, 6] = matrix[6, 2] = matrix[5, 6] = matrix[6, 5] = -1.0
        matrix = matrix.tocsr()
        rhs = RNG.standard_normal(7)
        tree = make_tree(np.arange(7), [0, 3, 6, 7], [2, 2, -1])
        for method in ("direct", "pcg"):
            x, report = solve_sparse(matrix, rhs, method, tree=tree)
            assert report.factor_stored < report.factor_nnz
            assert x == pytest.approx(np.linalg.solve(matrix.toarray(), rhs),
                                      rel=1e-13)
        elements = elements_of(matrix)
        assert_same_sharing(elements, solver._pivot_order(elements, tree))

    def test_keys_beyond_32_bits(self):
        # A chain of 2^16 DOFs bisected down to one DOF per node: a balanced
        # tree of 2^16 nodes, so the symbolic phase's keys node << shift |
        # position reach 2^33, past any 32-bit integer.
        n = 1 << 16
        perm, parent = [], []

        def bisect(lo, hi):  # the subtree of DOFs lo..hi-1, and its root
            if lo == hi:
                return -1
            mid = (lo + hi) // 2
            children = (bisect(lo, mid), bisect(mid + 1, hi))
            perm.append(mid)
            parent.append(-1)
            for child in children:
                if child >= 0:
                    parent[child] = len(perm) - 1
            return len(perm) - 1

        bisect(0, n)
        tree = make_tree(perm, np.arange(n + 1), parent)
        assert (len(parent) - 1) << n.bit_length() >= 1 << 31
        matrix = tridiagonal(n)
        rhs = RNG.standard_normal(n)
        x, _ = solve_sparse(matrix, rhs, tree=tree)
        reference = spla.spsolve(matrix.tocsc(), rhs)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
        elements = elements_of(matrix)
        tree = solver._pivot_order(elements, tree)
        fronts = solver._symbolic_phase(elements, tree)
        rep, _ = solver._representatives(fronts, tree, [])
        assert np.array_equal(rep,
                              representatives_per_node(fronts, tree, [])[0])

    def test_rejects_tree_that_does_not_separate(self):
        # Positions 2 and 3 are coupled but lie in sibling leaves.
        with pytest.raises(ValueError, match="does not separate"):
            solve_sparse(tridiagonal(7), np.ones(7),
                         tree=make_tree(np.arange(7), [0, 3, 6, 7], [2, 2, -1]))

    def test_rejects_tree_not_in_postorder(self):
        # Node 1's parent, node 0, comes before it.
        with pytest.raises(ValueError, match="not in postorder"):
            solve_sparse(tridiagonal(7), np.ones(7),
                         tree=make_tree(np.arange(7), [0, 3, 6, 7], [2, 0, -1]))

    def test_rejects_root_that_couples_beyond_its_positions(self):
        # Two roots: position 2 of the first is coupled to position 3 of the
        # second, which no ancestor of the first owns.
        with pytest.raises(ValueError, match="root node 0 couples beyond"):
            solve_sparse(tridiagonal(7), np.ones(7),
                         tree=make_tree(np.arange(7), [0, 3, 7], [-1, -1]))

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
        tree = make_tree([0, 1], [0, 2], [-1])
        x, report = solve_sparse(matrix, rhs, "pcg", tol=1e-12, tree=tree)
        assert factored == [np.float32, np.float64]
        assert symbolic_runs == [2]  # the fallback reuses the symbolic phase
        assert x == pytest.approx(np.linalg.solve(matrix.toarray(), rhs),
                                  rel=1e-12)
        # No CG step ran: the result is the direct solve's.
        assert report.iterations == 0
        assert np.array_equal(x, solve_sparse(matrix, rhs, tol=1e-12,
                                              tree=tree)[0])

    def test_stalled_cg_returns_the_direct_solve(self, monkeypatch):
        # kappa of the scaled k=4, eps=1 system is near single precision's
        # limit: |b - Ax| / |b| stops halving above 1e-10 after a few steps.
        mesh = build_mesh(MeshParams(n=16, eps=1.0, k=4))
        system = assemble_system(mesh, 4, 1.0, ExactSolution(1, 1.0).forcing,
                                 condense=False)
        tree = fill_reducing_ordering(system)
        x_direct, direct = solve_spd(system.elements, system.rhs, tol=1e-10,
                                     tree=tree)
        solved = []
        front_solve = solver._front_solve

        def spy(factor, groups, y):
            solved.append(y.dtype)
            return front_solve(factor, groups, y)

        monkeypatch.setattr(solver, "_front_solve", spy)
        x_pcg, pcg = solve_spd(system.elements, system.rhs, "pcg", tol=1e-10,
                               tree=tree)
        assert np.array_equal(x_pcg, x_direct)
        assert pcg.rel_residual == direct.rel_residual
        # Each CG step takes one single-precision solve; the direct solve
        # and its refinement step take two in double precision.
        assert pcg.iterations >= 1
        assert solved == [np.float32] * pcg.iterations + [np.float64] * 2

    def test_benchmark_case_needs_no_double_precision(self, monkeypatch):
        # A pcg-condensed case of the benchmark: CG reaches tol on the
        # single-precision factor alone.
        mesh = build_mesh(MeshParams(n=32, eps=1e-3, k=3))
        system = assemble_system(mesh, 3, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 condense=True)
        factored = []
        numeric = solver._factor_fronts

        def spy(fronts, tree, scale, plan, dtype):
            factored.append(np.dtype(dtype))
            return numeric(fronts, tree, scale, plan, dtype)

        monkeypatch.setattr(solver, "_factor_fronts", spy)
        _, report = solve_spd(system.elements, system.rhs, "pcg", tol=1e-10,
                              tree=fill_reducing_ordering(system))
        assert factored == [np.float32]
        assert report.iterations == 3
        assert report.rel_residual <= 1e-10

    def test_scale_keeps_single_precision_in_range(self, monkeypatch):
        # The diagonal falls to 8e-20 here, below the flush threshold
        # sqrt(tiny) = 1.1e-19 of the single-precision factor: unscaled, it
        # breaks down. The iterations are not pinned, as the BLAS thread
        # count changes them.
        mesh = build_mesh(MeshParams(n=8, eps=1e-10, k=3, mesh_kind="uniform"))
        system = assemble_system(mesh, 3, 1e-10,
                                 ExactSolution(1, 1e-10).forcing, condense=True)
        factored = []
        numeric = solver._factor_fronts

        def spy(fronts, tree, scale, plan, dtype):
            factored.append(np.dtype(dtype))
            return numeric(fronts, tree, scale, plan, dtype)

        monkeypatch.setattr(solver, "_factor_fronts", spy)
        _, report = solve_spd(system.elements, system.rhs, "pcg", tol=1e-10,
                              tree=fill_reducing_ordering(system))
        assert factored == [np.float32]
        assert report.rel_residual <= 1e-10

    def test_double_precision_fallback_checks_memory_first(self, monkeypatch):
        # Room for the single-precision factor only: after its breakdown the
        # direct solve's factor must be refused before any numeric work.
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
        # so CG may stall on the single-precision factor and fall back to
        # the direct solve. The reported error sits at its round-off floor,
        # so the solutions are compared instead.
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
        # direct solve it falls back to raises as it does under direct.
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

    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_reports_analysis_time(self, mesh_system, method):
        system, tree = mesh_system
        _, report = solve_spd(system.elements, system.rhs, method, tol=1e-8,
                              tree=tree)
        assert 0.0 < report.analysis_time <= report.wall_time

    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_reports_analysis_bytes(self, method):
        # The index data the analysis holds through the numeric phase stays
        # below the workspace of a double-precision factorization.
        mesh = build_mesh(MeshParams(n=16, eps=1e-3, k=3))
        system = assemble_system(mesh, 3, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 condense=True)
        _, report = solve_spd(system.elements, system.rhs, method, tol=1e-8,
                              tree=fill_reducing_ordering(system))
        assert 0 < report.analysis_bytes < 8 * report.workspace

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

    @pytest.mark.parametrize("n, k, quad, entries, stored, workspace", [
        (32, 3, None, 4_086_528, 1_011_132, 1_073_260),
        (16, 4, 5, 1_235_200, 347_560, 374_240),
    ])
    def test_small_case_factor_sizes(self, n, k, quad, entries, stored,
                                     workspace):
        # The fronts' sizes, the twins (equal up to a signed power-of-two
        # scaling, mirror images included) and the workspace plan.
        mesh = build_mesh(MeshParams(n=n, eps=1e-3, k=k))
        system = assemble_system(mesh, k, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 q=quad, condense=True)
        _, report = solve_spd(system.elements, system.rhs, tol=1e-10,
                              tree=fill_reducing_ordering(system))
        assert (report.factor_nnz, report.factor_stored, report.workspace) == (
            entries, stored, workspace)


class TestPivotOrder:
    """Within each node the DOFs linked beyond their face come first, so a
    child's update lands in a few runs of its parent's front."""

    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [16, 32])
    def test_updates_land_in_few_runs(self, n, k, mesh_kind):
        mesh = build_mesh(MeshParams(n=n, eps=1e-3, k=k, mesh_kind=mesh_kind))
        system = assemble_system(mesh, k, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 condense=True)
        elements = system.elements
        original = fill_reducing_ordering(system)
        tree = solver._pivot_order(elements, original)
        assert np.array_equal(tree.bounds, original.bounds)
        assert np.array_equal(tree.parent, original.parent)
        for s in range(tree.parent.size):
            b0, b1 = tree.bounds[s], tree.bounds[s + 1]
            assert np.array_equal(np.sort(tree.perm[b0:b1]),
                                  np.sort(original.perm[b0:b1]))

        linked = np.zeros(elements.dim + 1, dtype=bool)
        for group in elements.groups:
            held = group.index >= 0
            for position in np.flatnonzero(solver._links(group)[2]):
                linked[group.index[held[:, position], position]] = True
        linked = linked[tree.perm]  # by tree position
        fronts = solver._symbolic_phase(elements, tree)
        most = 0
        for c in np.flatnonzero(tree.parent >= 0):
            s = tree.parent[c]
            b0, b1 = tree.bounds[s], tree.bounds[s + 1]
            # Linked DOFs first: no face-only DOF precedes a linked one.
            assert np.all(np.diff(linked[b0:b1].astype(int)) <= 0), s
            child_rows = fronts.rows[c][tree.bounds[c + 1] - tree.bounds[c]:]
            if not child_rows.size:
                continue
            # An update reaches no face-only DOF: the parent's pivots it
            # reaches are its linked ones.
            assert linked[child_rows].all(), c
            pos = np.searchsorted(fronts.rows[s], child_rows)
            most = max(most, len(solver._runs(pos, b1 - b0)))
        assert 1 < most <= 4


class TestWorkspacePlan:
    """The one array of the numeric phase, checked against its schedule
    rederived here: distinct nodes in postorder, each building F11 and F21
    in its factor slot and F22, a triangle in RFP, while it is factored and
    reading its children's updates, the update of a representative being
    read by the front of every distinct parent of a node it stands for."""

    @pytest.mark.parametrize("condense", [False, True],
                             ids=["full", "condensed"])
    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_live_blocks_never_overlap(self, n, k, mesh_kind, condense):
        mesh = build_mesh(MeshParams(n=n, eps=1e-3, k=k, mesh_kind=mesh_kind))
        system = assemble_system(mesh, k, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 condense=condense)
        tree = solver._pivot_order(system.elements,
                                   fill_reducing_ordering(system))
        fronts = solver._symbolic_phase(system.elements, tree)
        plan = solver._plan_workspace(fronts, tree, *solver._representatives(
            fronts, tree, solver._mirror_maps(system.elements, tree)))
        rep, pivots = plan.rep, np.diff(tree.bounds)
        distinct = np.flatnonzero(rep == np.arange(rep.size))
        last_read = {}
        for s in distinct:
            for c in np.flatnonzero(tree.parent == s):
                last_read[rep[c]] = s
        blocks = []  # (start, stop, first step, last step, name)
        for s in distinct:
            below = fronts.rows[s].size - pivots[s]
            blocks.append((plan.update[s],
                           plan.update[s] + below * (below + 1) // 2, s,
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

    @pytest.mark.parametrize("n, k, quad", [(32, 3, None), (16, 4, 5)])
    def test_plan_meets_the_live_set_bound(self, n, k, quad):
        # No layout fits in fewer entries than the most, over the distinct
        # nodes, of the factor written through a node and the updates live
        # while it is factored; the offline plan comes within 1% of that.
        mesh = build_mesh(MeshParams(n=n, eps=1e-3, k=k))
        system = assemble_system(mesh, k, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 q=quad, condense=True)
        tree = solver._pivot_order(system.elements,
                                   fill_reducing_ordering(system))
        fronts = solver._symbolic_phase(system.elements, tree)
        rep, signs = solver._representatives(
            fronts, tree, solver._mirror_maps(system.elements, tree))
        distinct = np.flatnonzero(rep == np.arange(rep.size))
        last_read = {}
        for s in distinct:
            for c in np.flatnonzero(tree.parent == s):
                last_read[rep[c]] = s
        below = fronts.sizes - np.diff(tree.bounds)
        bound = max(
            fronts.entries[distinct[distinct <= s]].sum()
            + sum(below[r] * (below[r] + 1) // 2 for r in distinct
                  if r <= s <= last_read.get(r, r))
            for s in distinct)
        size = solver._plan_workspace(fronts, tree, rep, signs).size
        assert bound <= size <= 1.01 * bound


class TestRectangularFullPacked:
    """Pivot blocks and updates are triangles in LAPACK's rectangular full
    packed format (TRANSR='N', UPLO='L'), placed by closed-form offsets and
    read and written through two strided views."""

    @pytest.mark.parametrize("n", [*range(1, 10), 20, 31])
    def test_offsets_and_views_match_trttf(self, n):
        full = RNG.standard_normal((n, n))
        flat, info = get_lapack_funcs(("trttf",), dtype=np.float64)[0](
            np.asfortranarray(full), uplo="L")
        assert info == 0 and flat.size == n * (n + 1) // 2
        rows, cols = rfp_indices(n)
        i, j = np.tril_indices(n)
        at = solver._rfp_offset(i, j, n)
        assert np.array_equal(np.sort(at), np.arange(flat.size))
        assert np.array_equal(rows[at], i) and np.array_equal(cols[at], j)
        assert np.array_equal(flat[at], full[i, j])
        n1 = (n + 1) // 2
        block = solver._rfp(flat, n)
        # Columns 0:n1 from the diagonal down, and the trailing triangle.
        leading, trailing = block(0, 0, n, n1), block(n1, n1, n - n1, n - n1)
        assert np.array_equal(np.tril(leading), np.tril(full[:, :n1]))
        assert np.array_equal(np.tril(trailing), np.tril(full[n1:, n1:]))

    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    @pytest.mark.parametrize("rows", ["trailing", "through", "gaps"])
    @pytest.mark.parametrize("p, q", [(6, 7), (7, 6), (9, 9), (300, 301)])
    def test_extend_add_adds_lower_triangles_only(self, p, q, rows, scaled):
        # The front after the extend-add is its dense sum with the update,
        # for rows on the trailing triangles of F11 and F22 alone, for rows
        # through every cut between blocks and RFP halves, and for rows with
        # gaps. The strict upper triangle of a view of a trailing triangle,
        # transposed in the RFP array, aliases the leading columns, so an
        # update on the trailing triangles leaves those columns, negative
        # zeros included, bit for bit.
        p1, q1 = (p + 1) // 2, (q + 1) // 2
        pos = {"trailing": np.r_[p1:p, p + q1:p + q],
               "through": np.arange(1, p + q),
               "gaps": np.r_[0, 2:p + 1, p + 3:p + q]}[rows]
        front = (RNG.standard_normal(p * (p + 1) // 2),
                 np.asfortranarray(RNG.standard_normal((q, p))),
                 RNG.standard_normal(q * (q + 1) // 2))
        for flat, order in ((front[0], p), (front[2], q)):
            i, j = np.tril_indices(order)
            lead = solver._rfp_offset(i, j, order)[j < (order + 1) // 2]
            flat[lead[::2]] = -0.0
        before = [block.copy() for block in front]
        m = pos.size
        update = RNG.standard_normal(m * (m + 1) // 2)
        scale = (np.ldexp(1.0, RNG.integers(-3, 4, m))
                 * RNG.choice([-1.0, 1.0], m) if scaled else None)
        solver._extend_add(front, update, pos, scale)

        def dense(f11, f21, f22):  # the front's lower triangle
            out = np.zeros((p + q, p + q))
            out[:p, :p], out[p:, :p] = unpack_rfp(f11, p), f21
            out[p:, p:] = unpack_rfp(f22, q)
            return out

        u = unpack_rfp(update, m)
        if scaled:
            u = u * scale[:, None] * scale
        expected = dense(*before)
        a, b = np.tril_indices(m)
        expected[pos[a], pos[b]] += u[a, b]
        assert np.array_equal(dense(*front), expected)
        if rows != "trailing":
            return
        for new, old, order in ((front[0], before[0], p),
                                (front[2], before[2], q)):
            i, j = np.tril_indices(order)
            lead = solver._rfp_offset(i, j, order)[j < (order + 1) // 2]
            assert np.array_equal(new[lead].view(np.int64),
                                  old[lead].view(np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_factor_routines_write_into_the_workspace(self, dtype,
                                                      monkeypatch):
        # f2py copies an argument that is not contiguous in the order it
        # wants and writes the result to the copy: pftrf, tfsm and sfrk must
        # each return the very workspace view they were given.
        mesh = build_mesh(MeshParams(n=16, eps=1e-3, k=3))
        system = assemble_system(mesh, 3, 1e-3, ExactSolution(1, 1e-3).forcing,
                                 condense=True)
        elements = system.elements
        tree = solver._pivot_order(elements, fill_reducing_ordering(system))
        fronts = solver._symbolic_phase(elements, tree)
        rep, signs = solver._representatives(
            fronts, tree, solver._mirror_maps(elements, tree))
        plan = solver._plan_workspace(fronts, tree, rep, signs)
        scale = solver._power_of_two_scale(elements.diagonal())[tree.perm]
        calls = []  # (routine, the argument it writes, what it returned)
        overwrites = {"pftrf": 1, "tfsm": 2, "sfrk": 5}
        lapack = solver.get_lapack_funcs

        def spy(name, routine):
            def recorded(*args, **kwargs):
                out = routine(*args, **kwargs)
                calls.append((name, args[overwrites[name]],
                              out[0] if name == "pftrf" else out))
                return out
            return recorded

        def spy_lapack(names, dtype):
            return tuple(spy(name, routine) for name, routine
                         in zip(names, lapack(names, dtype=dtype)))

        monkeypatch.setattr(solver, "get_lapack_funcs", spy_lapack)
        factor = solver._factor_fronts(fronts, tree, scale, plan, dtype)
        work = next(l11 for l11, *_ in factor if l11 is not None).base
        assert work.size == plan.size and work.dtype == dtype
        assert {name for name, *_ in calls} == {"pftrf", "tfsm", "sfrk"}
        for name, given, written in calls:
            assert given.base is work, name
            assert np.shares_memory(written, given), name


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

    def test_rejects_block_not_shared_by_the_group(self):
        # A stack of one block per element, or a block of another size,
        # would be misread as the group's one block.
        index = np.array([[0, 1], [1, 2]])
        no_faces = np.empty((0, 0), dtype=np.int64)
        for block in (np.repeat(np.eye(2)[None], 2, axis=0), np.eye(3),
                      np.ones(2)):
            with pytest.raises(ValueError, match=r"one \(2, 2\) block"):
                ElementGroup(index, block, no_faces)

    def test_rejects_index_outside_the_matrix(self):
        # -1 marks a left-out position and reads a zero; -2 would read x[2]
        # and add its term to the element's held rows, and an index of 3
        # would read past x.
        no_faces = np.empty((0, 0), dtype=np.int64)

        def matrix(index):
            return ElementMatrix(3, (ElementGroup(index, np.ones((2, 2)),
                                                  no_faces),))

        for index in ([[0, -2]], [[0, 3]], [[-5, 1], [0, 1]]):
            with pytest.raises(ValueError, match=r"lie in \[-1, 3\)"):
                matrix(np.array(index))
        for index in (np.array([[0.0, 1.0]]), np.array([[True, False]])):
            with pytest.raises(ValueError, match="must be integers"):
                matrix(index)
        for dtype in (np.int32, np.int64, np.uint8):
            held = matrix(np.array([[2, 0], [0, 1]], dtype=dtype))
            assert held @ np.ones(3) == pytest.approx([4.0, 2.0, 2.0])
        assert matrix(np.array([[-1, 2]])) @ np.ones(3) == pytest.approx(
            [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("condense", [False, True])
    def test_csr_is_the_sum_of_the_element_blocks(self, n, k, mesh_kind,
                                                  condense):
        # Bit for bit: an entry sums at most two element terms.
        mesh = build_mesh(MeshParams(n=n, eps=1e-3, k=k, mesh_kind=mesh_kind))
        elements = assemble_system(mesh, k, 1e-3,
                                   ExactSolution(1, 1e-3).forcing,
                                   condense=condense).elements
        dense = np.zeros((elements.dim + 1,) * 2)  # index -1 adds to the last
        for group in elements.groups:
            np.add.at(dense, (group.index[:, :, None], group.index[:, None, :]),
                      group.block)
        matrix = elements.to_csr()
        assert np.array_equal(matrix.toarray(), dense[:-1, :-1])
        assert np.all(matrix.data != 0.0)


def own_block(elements, cell):
    """The same matrix with element ``cell`` of the first group moved into a
    group of its own, the last, with a copy of the shared block that a test
    may change. The first group leaves out the cell's row (-1), so that its
    ``mirrors`` keep their element numbers; the new group claims no
    symmetry."""
    group = elements.groups[0]
    index = group.index.copy()
    index[cell] = -1
    return ElementMatrix(elements.dim, (
        ElementGroup(index, group.block, group.faces, group.mirrors),
        *elements.groups[1:],
        ElementGroup(group.index[cell:cell + 1], group.block.copy(),
                     group.faces)))


class TestFrontSharing:
    """Twin fronts, equal up to a signed power-of-two scaling, share one
    factor, so a key or a mirror check that missed anything a front is
    built from would hand a node its twin's factor: each change in
    ``test_key_misses_nothing`` touches one front that has a twin, and the
    tree solve must still match SuperLU while the distinct fronts, and so
    the stored entries, grow."""

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
        _, pcg = solve_spd(system.elements, system.rhs, "pcg", tol=1e-8,
                           tree=tree)
        assert (pcg.factor_nnz, pcg.factor_stored) == (
            report.factor_nnz, report.factor_stored)
        # Without their mirror claims the class groups share the factors of
        # translated copies alone, and so does the matrix as one group per
        # value, whose elements, each of one entry, form the solver's merged
        # parts, the only parts whose keys hold values.
        plain = ElementMatrix(system.elements.dim, tuple(
            ElementGroup(g.index, g.block, g.faces)
            for g in system.elements.groups))
        assert (report.factor_stored < stored(plain, tree)
                == stored(elements_of(system.matrix), tree)
                < report.factor_nnz)
        for elements in (system.elements, own_block(system.elements, 17)):
            assert_same_sharing(elements, solver._pivot_order(elements, tree))

    @pytest.mark.parametrize("change", ["cell diagonal", "cell off-diagonal",
                                        "held to left out",
                                        "cell of one quadrant"])
    def test_key_misses_nothing(self, uniform_system, change):
        system, tree = uniform_system
        _, report = solve_spd(system.elements, system.rhs, tol=1e-10, tree=tree)
        elements = system.elements
        if change in ("cell diagonal", "cell off-diagonal"):
            # A DOF of the root separator: the fronts below it that hold it
            # are translated copies of fronts that do not. The cell that
            # holds it gets a block of its own.
            dof = tree.perm[(tree.bounds[-2] + tree.bounds[-1]) // 2]
            cell, at = np.argwhere(elements.groups[0].index == dof)[0]
            elements = own_block(elements, cell)
            block, index = elements.groups[-1].block, elements.groups[-1].index
        if change == "cell diagonal":
            # The block entry and the scale of the DOF change.
            block[at, at] *= 1 + 1e-3
        elif change == "cell off-diagonal":
            # Only the block entries change: the diagonal, so the scale, stays.
            other = next(j for j in np.flatnonzero(block[at])
                         if j != at and index[0, j] >= 0)
            block[at, other] *= 1 + 1e-3
            block[other, at] *= 1 + 1e-3
        elif change == "held to left out":
            # Every element that holds the first pivot of a twin, row 0 of
            # its front, leaves it out. A left-out DOF reads row 0 too, so
            # only the key's mask of held DOFs tells this front from its
            # representative's. A new element couples the pivot to the
            # next, and the representative's first two pivots alike, so
            # that both nodes keep their pivot order and their parts.
            (d, e), pair = first_pivots_of_a_twin(elements, tree)
            coupling = elements.diagonal()[d] * np.array([[1.0, -0.5],
                                                          [-0.5, 1.0]])
            elements = ElementMatrix(elements.dim, tuple(
                ElementGroup(np.where(g.index == d, -1, g.index), g.block,
                             g.faces, g.mirrors) for g in elements.groups) + (
                ElementGroup(np.array([[d, e], pair]), coupling,
                             np.empty((0, 0), dtype=np.int64)),))
        else:
            # One cell block of the lower left quadrant, all of it, so that
            # the block stays SPD: the fronts it enters stop sharing a
            # factor with their mirror images in the other three quadrants,
            # whose blocks stay, and with their translated copies.
            before = sharing(elements, tree)
            node = first_node_of(elements, tree, elements.groups[0].index[17])
            elements = own_block(elements, 17)  # cell (1, 1)
            elements.groups[-1].block[:] *= 1 + 1e-3
            after = sharing(elements, tree)
            twins = np.flatnonzero(before[0] == before[0][node])
            assert any(before[1][s] is not None for s in twins)
            assert [s for s in twins
                    if after[0][s] == after[0][node]] == [node]
        assert_same_sharing(elements, solver._pivot_order(elements, tree))
        x_tree, changed = solve_spd(elements, system.rhs, tol=1e-10, tree=tree)
        x_lu = superlu_solve(elements.to_csr(), system.rhs)
        assert np.linalg.norm(x_tree - x_lu) <= 1e-9 * np.linalg.norm(x_lu)
        assert changed.factor_stored > report.factor_stored
        assert changed.factor_nnz == report.factor_nnz

    @pytest.mark.parametrize("mesh_kind, n", [("uniform", 16),
                                              ("shishkin", 32)])
    def test_twins_that_differ_in_scale_share_their_factor(self, mesh_kind, n):
        mesh = build_mesh(MeshParams(n=n, eps=1e-2, k=3, mesh_kind=mesh_kind))
        system = assemble_system(mesh, 3, 1e-2, ExactSolution(1, 1e-2).forcing,
                                 condense=True)
        tree = fill_reducing_ordering(system)
        elements = system.elements
        if mesh_kind == "uniform":
            # Four times the diagonal at a DOF of the root separator halves
            # that DOF's scale, so the fronts below that hold it differ from
            # their mirror images by the scale alone.
            _, before = solve_spd(elements, system.rhs, tol=1e-10, tree=tree)
            dof = tree.perm[(tree.bounds[-2] + tree.bounds[-1]) // 2]
            elements = ElementMatrix(elements.dim, elements.groups + (
                ElementGroup(np.array([[dof]]),
                             np.array([[3.0 * elements.diagonal()[dof]]]),
                             np.empty((0, 0), dtype=np.int64)),))
        x_tree, report = solve_spd(elements, system.rhs, tol=1e-10, tree=tree)
        x_lu = superlu_solve(elements.to_csr(), system.rhs)
        assert np.linalg.norm(x_tree - x_lu) <= 1e-9 * np.linalg.norm(x_lu)
        assert_same_sharing(elements, solver._pivot_order(elements, tree))
        assert report.factor_stored < stored_if_twins_share_a_scale(elements,
                                                                    tree)
        if mesh_kind == "uniform":
            assert report.factor_stored == before.factor_stored


def sharing(elements, tree):
    """(rep, signs) of ``_representatives`` on the solver's tree, mirror
    twins included."""
    tree = solver._pivot_order(elements, tree)
    fronts = solver._symbolic_phase(elements, tree)
    return solver._representatives(fronts, tree,
                                   solver._mirror_maps(elements, tree))


def stored(elements, tree) -> int:
    """The factor entries ``_tree_factor`` stores: those of the distinct
    fronts."""
    tree = solver._pivot_order(elements, tree)
    fronts = solver._symbolic_phase(elements, tree)
    rep, _ = solver._representatives(fronts, tree,
                                     solver._mirror_maps(elements, tree))
    return int(fronts.entries[rep == np.arange(rep.size)].sum())


def first_node_of(elements, tree, dofs):
    """The node of the first of ``dofs`` in the solver's tree: an element
    that holds them enters that node's front with the part that holds that
    DOF."""
    tree = solver._pivot_order(elements, tree)
    position = np.empty(elements.dim, dtype=np.int64)
    position[tree.perm] = np.arange(elements.dim)
    first = position[dofs[dofs >= 0]].min()
    return int(np.searchsorted(tree.bounds, first, side="right") - 1)


def first_pivots_of_a_twin(elements, tree):
    """The first two pivots of a node t that is a translated copy of an
    earlier one, its representative, and those of the representative, where
    every element that holds t's first pivot enters t's front and holds
    another pivot of t: left out there, its element parts still enter t,
    and no front changes its rows."""
    tree = solver._pivot_order(elements, tree)
    fronts = solver._symbolic_phase(elements, tree)
    rep, _ = solver._representatives(fronts, tree, [])  # translated copies
    bounds = tree.bounds
    for t in np.flatnonzero(rep != np.arange(rep.size)):
        b0, b1 = bounds[t], bounds[t + 1]
        if b1 - b0 < 2:
            continue
        for plan in fronts.parts:
            node = np.repeat(np.arange(bounds.size - 1), np.diff(plan.starts))
            positions = np.where(plan.local >= 0, fronts.flat[
                fronts.starts[node][:, None] + plan.local], -1)
            mine = ((positions >= b0) & (positions < b1)).sum(axis=1)
            holds = (positions == b0).any(axis=1)
            if np.any(holds & ((node != t) | (mine < 2))):
                break
        else:
            r = bounds[rep[t]]
            return tree.perm[[b0, b0 + 1]], tree.perm[[r, r + 1]]
    raise AssertionError("no twin whose first pivot only its own front holds")


def stored_if_twins_share_a_scale(elements, tree) -> int:
    """The factor entries stored if twins had also to agree in the scale at
    every front row: a lower bound on those of a key that holds the scale."""
    tree = solver._pivot_order(elements, tree)
    fronts = solver._symbolic_phase(elements, tree)
    rep, _ = solver._representatives(fronts, tree,
                                     solver._mirror_maps(elements, tree))
    scale = solver._power_of_two_scale(elements.diagonal())[tree.perm]
    first = {}
    for s, rows in enumerate(fronts.rows):
        first.setdefault((rep[s], scale[rows].tobytes()), s)
    return int(fronts.entries[list(first.values())].sum())
