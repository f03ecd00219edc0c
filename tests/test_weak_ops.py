from decimal import Decimal

import numpy as np
import pytest

from conftest import (ROUNDOFF_FACTOR, CellBasis, all_cells,
                      decimal_class_block, local_projection_dofs, project_cell,
                      reference_cell_moments, region_end_cells, roundoff_ratio)
from wg_shishkin.analytic import ExactSolution
from wg_shishkin.assembly import assemble_system
from wg_shishkin.mesh import SIDES, MeshParams, build_mesh
from wg_shishkin.weak_ops import (LocalDofLayout, local_stiffness,
                                  stabilizer_matrix, weak_gradient_matrix,
                                  weak_laplacian_matrix)

RNG = np.random.default_rng(7)
K = 3


def unit_cell():
    mesh = build_mesh(MeshParams(n=4, eps=1.0, k=K, mesh_kind="uniform"))
    # synthetic unit cell: reuse geometry code with a scaled mesh cell
    from wg_shishkin.mesh import Cell
    return Cell(index=(0, 0), x_range=(0.0, 1.0), y_range=(0.0, 1.0),
                widths=(1.0, 1.0), edge_ids=mesh.cell(0).edge_ids)


class TestLocalDofLayout:
    def test_sizes(self):
        layout = LocalDofLayout(3)
        assert layout.n_interior == 16
        assert layout.n_per_side == 12
        assert layout.n_loc == 64
        seen = sorted(
            list(range(16))
            + [i for s in range(4) for sl in (layout.trace(s), layout.grad_x(s),
                                              layout.grad_y(s))
               for i in range(sl.start, sl.stop)])
        assert seen == list(range(64))


class TestWeakLaplacian:
    def test_quadratic_gives_constant(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(5)
        dofs = local_projection_dofs(
            cell, K, lambda x, y: x ** 2 + y ** 2,
            lambda x, y: 2 * x, lambda x, y: 2 * y)
        result = weak_laplacian_matrix(cell, K) @ dofs
        expected = np.zeros(16)
        expected[0] = 4.0 * np.sqrt(cell.area)
        assert result == pytest.approx(expected, abs=1e-12)

    def test_linear_gives_zero(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(9)
        dofs = local_projection_dofs(
            cell, K, lambda x, y: x,
            lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x))
        result = weak_laplacian_matrix(cell, K) @ dofs
        assert np.abs(result).max() < 1e-12

    def test_pure_gradient_dof_divergence_identity(self):
        # v = {0, 0, vg=(1,0)}: (Lap_w v, phi) = <n_x, phi> = (1, d_x phi).
        cell = unit_cell()
        layout = LocalDofLayout(K)
        dofs = np.zeros(layout.n_loc)
        for side, edge_len in zip(range(4), (1.0, 1.0, 1.0, 1.0)):
            dofs[layout.grad_x(side).start] = np.sqrt(edge_len)  # constant 1
        result = weak_laplacian_matrix(cell, K) @ dofs
        oracle = reference_cell_moments(
            lambda x, y: np.ones_like(x), cell, K)
        # moments of d_x phi_i: differentiate via basis tables at 20 points
        from numpy.polynomial.legendre import leggauss
        t, w = leggauss(20)
        xq = (t + 1) / 2
        X, Y = np.meshgrid(xq, xq, indexing="ij")
        W = np.outer(w, w) / 4
        basis = CellBasis(cell, K)
        expected = basis.eval(X.ravel(), Y.ravel(), dx=1) @ W.ravel()
        assert result == pytest.approx(expected, abs=1e-12)


class TestWeakGradient:
    def test_constant_weak_function_gives_zero(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(0)
        layout = LocalDofLayout(K)
        dofs = np.zeros(layout.n_loc)
        c = 2.5
        dofs[0] = c * np.sqrt(cell.area)
        for side in range(4):
            edge_len = cell.widths[0] if side in (0, 2) else cell.widths[1]
            dofs[layout.trace(side).start] = c * np.sqrt(edge_len)
            dofs[layout.grad_x(side)] = RNG.standard_normal(K + 1)  # ignored
            dofs[layout.grad_y(side)] = RNG.standard_normal(K + 1)
        result = weak_gradient_matrix(cell, K) @ dofs
        assert np.abs(result).max() < 1e-12

    def test_xy_gives_projected_gradient(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(7)
        dofs = local_projection_dofs(cell, K, lambda x, y: x * y,
                                     lambda x, y: y, lambda x, y: x)
        result = weak_gradient_matrix(cell, K) @ dofs
        expected = np.concatenate([
            project_cell(lambda x, y: y, cell, K),
            project_cell(lambda x, y: x, cell, K)])
        assert result == pytest.approx(expected, abs=1e-12)

    def test_gradient_dof_columns_are_zero(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(3)
        layout = LocalDofLayout(K)
        G = weak_gradient_matrix(cell, K)
        for side in range(4):
            assert np.all(G[:, layout.grad_x(side)] == 0.0)
            assert np.all(G[:, layout.grad_y(side)] == 0.0)


class TestStabilizer:
    def test_vanishes_on_projected_polynomial(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(11)
        dofs = local_projection_dofs(
            cell, K, lambda x, y: x ** 2 * y ** 2,
            lambda x, y: 2 * x * y ** 2, lambda x, y: 2 * x ** 2 * y)
        S = stabilizer_matrix(cell, K, eps=1e-2, h=0.01, H=0.4)
        scale = np.abs(S).max() * dofs @ dofs
        assert dofs @ S @ dofs < 1e-12 * scale

    def test_single_side_trace_value(self):
        # v0 = 0, vb = 1 on the south side of the unit cell, eps = h = H = 1:
        # s(v, v) = (1 + 1) * edge length.
        cell = unit_cell()
        layout = LocalDofLayout(K)
        dofs = np.zeros(layout.n_loc)
        dofs[layout.trace(0).start] = 1.0  # constant 1 on a unit edge
        S = stabilizer_matrix(cell, K, eps=1.0, h=1.0, H=1.0)
        assert dofs @ S @ dofs == pytest.approx(2.0, rel=1e-13)

    def test_positive_semidefinite(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(6)
        S = stabilizer_matrix(cell, K, eps=1e-3, h=0.0554, H=0.44)
        scale = np.abs(S).max()
        for v in RNG.standard_normal((1000, S.shape[0])):
            assert v @ S @ v >= -1e-12 * scale * (v @ v)


class TestLocalStiffness:
    def test_symmetry_and_psd(self, mesh_n4_eps1e2):
        mesh = mesh_n4_eps1e2
        ops = local_stiffness(mesh.cell(5), K, 1e-2, mesh.h_fine, mesh.h_coarse)
        assert np.abs(ops.A - ops.A.T).max() <= 1e-13 * np.abs(ops.A).max()
        assert np.abs(ops.S - ops.S.T).max() <= 1e-13 * np.abs(ops.S).max()
        eigenvalues = np.linalg.eigvalsh(ops.A)
        assert eigenvalues.min() >= -1e-10 * eigenvalues.max()

    def test_constant_weak_function_energy_is_zero(self, mesh_n4_eps1e2):
        cell = mesh_n4_eps1e2.cell(2)
        mesh = mesh_n4_eps1e2
        ops = local_stiffness(cell, K, 1e-2, mesh.h_fine, mesh.h_coarse)
        layout = ops.layout
        dofs = np.zeros(layout.n_loc)
        dofs[0] = 3.0 * np.sqrt(cell.area)
        for side in range(4):
            edge_len = cell.widths[0] if side in (0, 2) else cell.widths[1]
            dofs[layout.trace(side).start] = 3.0 * np.sqrt(edge_len)
        energy = dofs @ ops.A @ dofs
        assert abs(energy) < 1e-12 * np.abs(ops.A).max() * (dofs @ dofs)

    def test_identity_combination(self, mesh_n4_eps1e2):
        mesh = mesh_n4_eps1e2
        eps = 1e-2
        ops = local_stiffness(mesh.cell(8), K, eps, mesh.h_fine, mesh.h_coarse)
        recombined = eps ** 2 * ops.L.T @ ops.L + ops.G.T @ ops.G + ops.S
        assert np.abs(ops.A - recombined).max() <= 1e-12 * np.abs(ops.A).max()

    def test_energy_scaling_is_quadratic(self, mesh_n4_eps1e2):
        mesh = mesh_n4_eps1e2
        ops = local_stiffness(mesh.cell(4), K, 1e-3, mesh.h_fine, mesh.h_coarse)
        v = RNG.standard_normal(ops.layout.n_loc)
        base = v @ ops.A @ v
        assert (2.5 * v) @ ops.A @ (2.5 * v) == pytest.approx(
            2.5 ** 2 * base, rel=1e-13)

    def test_same_width_cells_share_operators(self, mesh_n8_eps1e2,
                                              mesh_n128_eps1e7):
        for mesh in (mesh_n8_eps1e2, mesh_n128_eps1e7):
            eps = mesh.params.eps
            first = {}
            for cell in region_end_cells(mesh):
                ops = local_stiffness(cell, K, eps, mesh.h_fine, mesh.h_coarse)
                ref = first.setdefault(cell.widths, ops)
                for name in ("L", "G", "S", "A"):
                    a, b = getattr(ref, name), getattr(ops, name)
                    assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max(), \
                        f"N={mesh.params.n} cell {cell.index}: {name} differs"


class TestCommutation:
    """Weak operators applied to projected data reproduce projected
    derivatives exactly; checked here on a few cells, exhaustively in the
    acceptance suite."""

    def _check(self, mesh, cell, value, grad_x, grad_y, laplacian):
        dofs = local_projection_dofs(cell, K, value, grad_x, grad_y)
        lap = roundoff_ratio(weak_laplacian_matrix(cell, K), dofs,
                             project_cell(laplacian, cell, K))
        assert lap <= ROUNDOFF_FACTOR, f"cell {cell.index}: {lap:.1f}"
        expected = np.concatenate([project_cell(grad_x, cell, K),
                                   project_cell(grad_y, cell, K)])
        grad = roundoff_ratio(weak_gradient_matrix(cell, K), dofs, expected)
        assert grad <= ROUNDOFF_FACTOR, f"cell {cell.index}: {grad:.1f}"

    def test_polynomial(self, mesh_n8_eps1e2):
        coef = RNG.standard_normal((K + 1, K + 1))
        pv = np.polynomial.polynomial
        for cell in all_cells(mesh_n8_eps1e2)[::13]:
            self._check(
                mesh_n8_eps1e2, cell,
                lambda x, y: pv.polyval2d(x, y, coef),
                lambda x, y: pv.polyval2d(x, y, pv.polyder(coef, axis=0)),
                lambda x, y: pv.polyval2d(x, y, pv.polyder(coef, axis=1)),
                lambda x, y: (pv.polyval2d(x, y, pv.polyder(coef, 2, axis=0))
                              + pv.polyval2d(x, y, pv.polyder(coef, 2, axis=1))))

    def test_smooth_function(self, mesh_n8_eps1e2):
        a, b = 2.3, -1.7
        for cell in all_cells(mesh_n8_eps1e2)[::17]:
            self._check(
                mesh_n8_eps1e2, cell,
                lambda x, y: np.sin(a * x + b * y),
                lambda x, y: a * np.cos(a * x + b * y),
                lambda x, y: b * np.cos(a * x + b * y),
                lambda x, y: -(a * a + b * b) * np.sin(a * x + b * y))


def local_reflection(k, axis):
    """(positions, signs) of the cell's x- (axis 0) or y-reflection of the
    local vector, written out from the layout: slot a of the mirror cell
    holds signs[a] times slot positions[a]. The x-reflection swaps east and
    west, negates grad-x and flips the odd Legendre modes along x: those of
    the interior's x-degree and of the south and north sides. The
    y-reflection does the same for south and north, grad-y and y."""
    layout = LocalDofLayout(k)
    kk = k + 1
    positions, signs = np.arange(layout.n_loc), np.ones(layout.n_loc)
    for mx in range(kk):
        for my in range(kk):
            signs[mx * kk + my] = (-1.0) ** (my if axis else mx)
    swap = ({"east": "west", "west": "east"} if axis == 0
            else {"south": "north", "north": "south"})
    for side, name in enumerate(SIDES):
        image = SIDES.index(swap.get(name, name))
        runs_along_x = name in ("south", "north")
        modes = ((-1.0) ** np.arange(kk) if runs_along_x == (axis == 0)
                 else np.ones(kk))
        for kind, (of, negated) in enumerate(((layout.trace, False),
                                              (layout.grad_x, axis == 0),
                                              (layout.grad_y, axis == 1))):
            slots = of(side)
            positions[slots] = np.arange(of(image).start, of(image).stop)
            signs[slots] = -modes if negated else modes
    return positions, signs


class TestClassBlocks:
    """The blocks the solver factors, one per width class: the stiffness
    block, or its Schur complement onto the edge DOFs when condensed."""

    @pytest.mark.parametrize("condense", [False, True],
                             ids=["full", "condensed"])
    @pytest.mark.parametrize("mesh_kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_blocks_equal_their_mirror_images(self, k, mesh_kind, condense):
        # Exactly, under both reflections: the mirror twins of the solver
        # rest on it.
        for eps in (1e-10, 1e-7, 1e-4, 1e-2, 1.0):
            mesh = build_mesh(MeshParams(n=8, eps=eps, k=k,
                                         mesh_kind=mesh_kind))
            system = assemble_system(mesh, k, eps,
                                     ExactSolution(1, eps).forcing,
                                     condense=condense)
            ni = (k + 1) ** 2 if condense else 0
            for axis in (0, 1):
                positions, signs = local_reflection(k, axis)
                assert np.array_equal(
                    LocalDofLayout(k).reflection(axis)[0], positions)
                assert np.array_equal(
                    LocalDofLayout(k).reflection(axis)[1], signs)
                positions, signs = positions[ni:] - ni, signs[ni:]
                for group in system.elements.groups:
                    image = (signs[:, None]
                             * group.block[np.ix_(positions, positions)]
                             * signs)
                    assert np.array_equal(image, group.block), (eps, axis)

    @pytest.mark.parametrize("k, n, eps", [(3, 128, 1e-4), (4, 64, 1.0)])
    def test_blocks_within_an_ulp_of_a_decimal_oracle(self, k, n, eps):
        mesh = build_mesh(MeshParams(n=n, eps=eps, k=k))
        for condense in (False, True):
            system = assemble_system(mesh, k, eps,
                                     ExactSolution(1, eps).forcing,
                                     condense=condense)
            block = system.elements.groups[0].block
            widths = next(iter(mesh.width_classes()))
            exact = decimal_class_block(widths, k, eps, mesh.h_fine,
                                        mesh.h_coarse, condense)
            largest = max(abs(float(x)) for x in exact.ravel())
            for computed, reference in zip(block.ravel(), exact.ravel()):
                if abs(float(reference)) <= 1e-12 * largest:
                    continue
                ulp = Decimal(float(np.spacing(abs(float(reference)))))
                assert abs(Decimal(float(computed)) - reference) <= ulp, (
                    condense, computed, reference)

    def test_without_extended_precision_the_blocks_are_not_built(
            self, monkeypatch, mesh_n4_eps1e2):
        # Where np.longdouble is plain double, as on some platforms, the
        # build raises rather than rounding in double silently.
        real = np.finfo

        class Double:
            nmant = 52

        monkeypatch.setattr(np, "finfo", lambda dtype: Double()
                            if dtype is np.longdouble else real(dtype))
        with pytest.raises(RuntimeError, match="52 mantissa bits"):
            local_stiffness(mesh_n4_eps1e2.cell(0), K, 1e-2,
                            mesh_n4_eps1e2.h_fine, mesh_n4_eps1e2.h_coarse)
