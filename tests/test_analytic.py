import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CellBasis, all_cells
from wg_shishkin.analytic import (ExactSolution, eval_bump, eval_g, eval_p,
                                  forcing, project_exact)
from wg_shishkin.assembly import DofMap
from wg_shishkin.mesh import EPS_MIN, MeshParams, build_mesh

RNG = np.random.default_rng(99)
EPS_VALUES = (1.0, 1e-1, 1e-2, 1e-3, 1e-5, 1e-7)


def central_difference(fun, t, order, h):
    """n-th derivative from central differences of the (n-1)-th."""
    return (fun(t + h, order - 1) - fun(t - h, order - 1)) / (2 * h)


class TestBoundaryValues:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_g_clamped(self, eps):
        for t in (0.0, 1.0):
            assert abs(eval_g(t, eps)) < 1e-14
            assert abs(eval_g(t, eps, 1)) < 1e-13

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_p_clamped(self, eps):
        for t in (0.0, 1.0):
            assert abs(eval_p(t, eps)) < 1e-13
            assert abs(eval_p(t, eps, 1)) < 1e-13

    @pytest.mark.parametrize("example", [0, 1, 2])
    def test_solution_clamped_on_boundary(self, example):
        sol = ExactSolution(example, 1e-2)
        t = np.linspace(0, 1, 33)
        zero = np.zeros_like(t)
        for u, un in [(sol.value(t, zero), sol.partial(t, zero, 0, 1)),
                      (sol.value(t, 1 - zero), sol.partial(t, 1 - zero, 0, 1)),
                      (sol.value(zero, t), sol.partial(zero, t, 1, 0)),
                      (sol.value(1 - zero, t), sol.partial(1 - zero, t, 1, 0))]:
            assert np.abs(u).max() < 1e-12
            assert np.abs(un).max() < 1e-10


class TestDerivatives:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-2])
    def test_g_finite_differences(self, order, eps):
        h = max(1e-6, eps * 1e-3)
        t = np.linspace(0.05, 0.95, 19)
        fd = central_difference(lambda x, n: eval_g(x, eps, n), t, order, h)
        exact = eval_g(t, eps, order)
        scale = np.abs(exact).max()
        assert np.abs(exact - fd).max() / scale < 1e-5

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-2])
    def test_p_finite_differences(self, order, eps):
        h = max(1e-6, eps * 1e-3)
        t = np.linspace(0.05, 0.95, 19)
        fd = central_difference(lambda x, n: eval_p(x, eps, n), t, order, h)
        exact = eval_p(t, eps, order)
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(exact - fd).max() / scale < 1e-5

    def test_bump_derivatives_exact(self):
        t = np.linspace(0, 1, 11)
        assert eval_bump(t, 0) == pytest.approx(t ** 2 * (1 - t) ** 2)
        fd = central_difference(lambda x, n: eval_bump(x, n), t, 1, 1e-6)
        assert eval_bump(t, 1) == pytest.approx(fd, abs=1e-8)
        assert np.all(eval_bump(t, 4) == 24.0)

    @pytest.mark.parametrize("fun", [eval_g, eval_p, eval_bump])
    def test_rejects_order_above_four(self, fun):
        args = (0.5, 1e-2, 5) if fun is not eval_bump else (0.5, 5)
        with pytest.raises(ValueError):
            fun(*args)


def stencil_forcing(sol, x, y, h):
    """eps^2 * biharmonic - laplacian via 13-point/5-point stencils."""
    u = sol.value
    lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h)
           - 4 * u(x, y)) / h ** 2
    bih = (20 * u(x, y)
           - 8 * (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h))
           + 2 * (u(x + h, y + h) + u(x + h, y - h) + u(x - h, y + h)
                  + u(x - h, y - h))
           + u(x + 2 * h, y) + u(x - 2 * h, y) + u(x, y + 2 * h)
           + u(x, y - 2 * h)) / h ** 4
    return sol.eps ** 2 * bih - lap


class TestForcing:
    def test_module_function_delegates(self):
        sol = ExactSolution(0, 1e-2)
        assert forcing(0, 0.5, 0.5, 1e-2) == pytest.approx(
            sol.forcing(0.5, 0.5))

    def test_example1_stencil_oracle(self):
        sol = ExactSolution(1, 1.0)
        value = sol.forcing(0.5, 0.5)
        oracle = stencil_forcing(sol, 0.5, 0.5, 1e-3)
        assert value == pytest.approx(oracle, rel=1e-4)

    def test_example2_layer_aware_stencil(self):
        sol = ExactSolution(2, 1e-2)
        h = min(1e-3, 1e-2 / 10)
        value = sol.forcing(0.9, 0.05)
        oracle = stencil_forcing(sol, 0.9, 0.05, h)
        assert value == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("example", [1, 2])
    def test_random_interior_points(self, example):
        sol = ExactSolution(example, 1e-1)
        pts = RNG.uniform(0.05, 0.95, (100, 2))
        values = sol.forcing(pts[:, 0], pts[:, 1])
        oracle = stencil_forcing(sol, pts[:, 0], pts[:, 1], 1e-3)
        assert values == pytest.approx(oracle, rel=1e-3)


class TestEnvelope:
    @pytest.mark.parametrize("example", [1, 2])
    def test_bounded_for_moderate_eps(self, example):
        t = np.linspace(0, 1, 41)
        X, Y = np.meshgrid(t, t)
        for eps in (1.0, 0.5, 1e-1):
            sol = ExactSolution(example, eps)
            for i in range(3):
                for j in range(3 - i):
                    assert np.abs(sol.partial(X, Y, i, j)).max() < 100.0

    @pytest.mark.parametrize("example", [1, 2])
    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4, 1e-7])
    def test_no_nan_or_inf(self, example, eps):
        t = np.linspace(0, 1, 29)
        X, Y = np.meshgrid(t, t)
        sol = ExactSolution(example, eps)
        for i in range(5):
            for j in range(5 - i):
                assert np.all(np.isfinite(sol.partial(X, Y, i, j)))
        assert np.all(np.isfinite(sol.forcing(X, Y)))


@settings(max_examples=200, deadline=None)
@given(log_eps=st.floats(min_value=math.log10(EPS_MIN), max_value=0.0))
@example(log_eps=math.log10(EPS_MIN))
@example(log_eps=0.0)
def test_layer_profiles_finite_down_to_eps_floor(log_eps):
    eps = min(max(10.0 ** log_eps, EPS_MIN), 1.0)
    # The ends, where the layer terms peak, and points inside the layers.
    t = np.concatenate([np.linspace(0.0, 1.0, 33), eps * np.arange(1, 4),
                        1.0 - eps * np.arange(1, 4)])
    for order in range(5):
        assert np.all(np.isfinite(eval_g(t, eps, order)))
        assert np.all(np.isfinite(eval_p(t, eps, order)))


class TestProjectExact:
    def test_constrained_entries_nearly_zero_before_zeroing(self):
        mesh = build_mesh(MeshParams(n=8, eps=1e-2, k=3))
        dofmap = DofMap(mesh, 3)
        raw = project_exact(mesh, 3, 1, 1e-2, zero_constrained=False)
        assert np.abs(raw[dofmap.constrained]).max() < 1e-12

    def test_zeroing_is_exact(self):
        mesh = build_mesh(MeshParams(n=4, eps=1e-3, k=3))
        dofmap = DofMap(mesh, 3)
        raw = project_exact(mesh, 3, 2, 1e-3, dofmap=dofmap)
        assert np.all(raw[dofmap.constrained] == 0.0)

    def test_polynomial_solution_reproduced(self):
        # u = x^2 (1-x)^2 y^2 (1-y)^2 lies in Q_4, so its projection
        # evaluates back to u exactly.
        mesh = build_mesh(MeshParams(n=4, eps=1.0, k=4))
        raw = project_exact(mesh, 4, 0, 1.0)
        sol = ExactSolution(0, 1.0)
        pts = RNG.uniform(0, 1, (100, 2))
        for c, cell in enumerate(all_cells(mesh)):
            inside = ((cell.x_range[0] <= pts[:, 0]) & (pts[:, 0] <= cell.x_range[1])
                      & (cell.y_range[0] <= pts[:, 1]) & (pts[:, 1] <= cell.y_range[1]))
            if not inside.any():
                continue
            x, y = pts[inside, 0], pts[inside, 1]
            coeffs = raw[c * 25:(c + 1) * 25]
            values = coeffs @ CellBasis(cell, 4).eval(x, y)
            assert values == pytest.approx(sol.value(x, y), abs=1e-12)

    def test_rejects_unknown_example(self):
        with pytest.raises(ValueError):
            ExactSolution(3, 1e-2)


class TestEpsEnvelope:
    """ExactSolution accepts the eps of ``MeshParams``, [EPS_MIN, 1]: far
    below it the fourth derivative of the layer terms overflows."""

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nextafter(EPS_MIN, 0.0),
                                     1e-80, np.nextafter(1.0, 2.0), 5.0])
    def test_rejects_eps_outside(self, eps):
        with pytest.raises(ValueError, match="eps must lie"):
            ExactSolution(1, eps)

    @pytest.mark.parametrize("eps", [EPS_MIN, 1.0])
    def test_accepts_its_ends(self, eps):
        sol = ExactSolution(1, eps)
        assert np.isfinite(sol.factor_x(0.0, 4))
