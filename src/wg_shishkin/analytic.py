"""Manufactured exact solutions, their derivatives and the forcing term.

All built-in solutions are separable, u(x, y) = a(x) * b(y), with clamped
boundary values (u and its normal derivative vanish on the boundary of the
unit square). Derivatives through fourth order come from closed forms of the
1D factors, so the forcing eps^2 * biharmonic(u) - laplace(u) is exact and
cheap at quadrature points.

Built-in cases:
    0 -- polynomial x^2(1-x)^2 * y^2(1-y)^2 (degree-4 exactness checks)
    1 -- u = g(x) g(y) with a sine plus boundary-layer profile g
    2 -- u = g(x) p(y) with a cubic plus boundary-layer profile p
"""

import math

import numpy as np

from .basis import default_quadrature, project_all_cells, project_all_edges
from .mesh import ShishkinMesh

EXAMPLES = (0, 1, 2)
_MAX_ORDER = 4


def _check_order(order: int):
    if not 0 <= order <= _MAX_ORDER:
        raise ValueError(f"derivative order must be in [0, {_MAX_ORDER}], got {order}")


def eval_g(x, eps: float, order: int = 0):
    """n-th derivative of g(x) = [sin(pi x) + (pi eps / l) * (e^{-x/eps}
    + e^{(x-1)/eps} - 1 - e^{-1/eps})] / 2 with l = 1 - e^{-1/eps}.

    For eps below about 1.3e-3 the e^{-1/eps} terms underflow to zero and
    l = 1, with no special case. The n-th derivative's layer terms are
    (pi eps / l) (1/eps)^n e^{...}, so they grow like eps^(1-n): at order 4
    about pi eps^-3 / 2, 1.6e30 at ``mesh.EPS_MIN`` = 1e-10, finite for
    every eps the mesh accepts. Far below it, (1/eps)^4 overflows (eps
    under about 1e-77) and Python raises OverflowError.
    """
    _check_order(order)
    x = np.asarray(x, dtype=float)
    ell = 1.0 - math.exp(-1.0 / eps)
    c = math.pi * eps / ell
    sin_part = math.pi ** order * np.sin(math.pi * x + 0.5 * math.pi * order)
    exp_part = c * ((-1.0 / eps) ** order * np.exp(-x / eps)
                    + (1.0 / eps) ** order * np.exp((x - 1.0) / eps))
    if order == 0:
        exp_part = exp_part - c * (1.0 + math.exp(-1.0 / eps))
    return 0.5 * (sin_part + exp_part)


def eval_p(y, eps: float, order: int = 0):
    """n-th derivative of p(y) = 2y(1 - y^2) + eps * [l d (1 - 2y) - 3 q / l
    + (3/l - d) e^{-y/eps} + (3/l + d) e^{(y-1)/eps}]
    with l = 1 - e^{-1/eps}, q = 2 - l and d = 1 / (q - 2 eps l)."""
    _check_order(order)
    y = np.asarray(y, dtype=float)
    ell = 1.0 - math.exp(-1.0 / eps)
    qq = 2.0 - ell
    d = 1.0 / (qq - 2.0 * eps * ell)
    poly = (2.0 * y - 2.0 * y ** 3, 2.0 - 6.0 * y ** 2, -12.0 * y,
            np.full_like(y, -12.0), np.zeros_like(y))[order]
    out = poly + eps * ((3.0 / ell - d) * (-1.0 / eps) ** order * np.exp(-y / eps)
                        + (3.0 / ell + d) * (1.0 / eps) ** order * np.exp((y - 1.0) / eps))
    if order == 0:
        out = out + eps * (ell * d * (1.0 - 2.0 * y) - 3.0 * qq / ell)
    elif order == 1:
        out = out - 2.0 * eps * ell * d
    return out


def eval_bump(t, order: int = 0):
    """n-th derivative of t^2 (1 - t)^2 = t^2 - 2 t^3 + t^4."""
    _check_order(order)
    t = np.asarray(t, dtype=float)
    return (t ** 2 - 2.0 * t ** 3 + t ** 4,
            2.0 * t - 6.0 * t ** 2 + 4.0 * t ** 3,
            2.0 - 12.0 * t + 12.0 * t ** 2,
            -12.0 + 24.0 * t,
            np.full_like(t, 24.0))[order]


class ExactSolution:
    """Separable exact solution u(x, y) = a(x) b(y) of one built-in case."""

    def __init__(self, example: int, eps: float):
        if example not in EXAMPLES:
            raise ValueError(f"example must be one of {EXAMPLES}, got {example}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.example = example
        self.eps = eps

    def factor_x(self, x, order: int = 0):
        if self.example == 0:
            return eval_bump(x, order)
        return eval_g(x, self.eps, order)

    def factor_y(self, y, order: int = 0):
        if self.example == 0:
            return eval_bump(y, order)
        if self.example == 1:
            return eval_g(y, self.eps, order)
        return eval_p(y, self.eps, order)

    def value(self, x, y):
        return self.factor_x(x) * self.factor_y(y)

    def partial(self, x, y, dx: int, dy: int):
        """Mixed partial of total order dx + dy <= 4."""
        if dx + dy > _MAX_ORDER:
            raise ValueError("partials are available through total order 4")
        return self.factor_x(x, dx) * self.factor_y(y, dy)

    def forcing(self, x, y):
        """eps^2 * (a''''b + 2 a''b'' + a b'''') - (a''b + a b'')."""
        a = [self.factor_x(x, n) for n in (0, 2, 4)]
        b = [self.factor_y(y, n) for n in (0, 2, 4)]
        e2 = self.eps * self.eps
        return (e2 * (a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2])
                - (a[1] * b[0] + a[0] * b[1]))


def forcing(example: int, x, y, eps: float):
    """Manufactured right-hand side for which the built-in u solves the PDE."""
    return ExactSolution(example, eps).forcing(x, y)


def project_exact(mesh: ShishkinMesh, k: int, example: int, eps: float,
                  q: int | None = None, dofmap=None,
                  zero_constrained: bool = True) -> np.ndarray:
    """Global raw coefficient vector of the projection of u into the weak
    space: cell L2 projections of u, edge projections of u, and edge
    projections of both components of grad u.

    The clamped boundary data makes the constrained entries vanish up to
    quadrature roundoff; they are zeroed exactly unless requested otherwise.
    """
    from .assembly import DofMap

    sol = ExactSolution(example, eps)
    q = default_quadrature(k) if q is None else q
    interior = project_all_cells(mesh, k, sol.value, q).ravel()
    trace = project_all_edges(mesh, k, sol.value, q).ravel()
    grad_x = project_all_edges(mesh, k, lambda x, y: sol.partial(x, y, 1, 0), q).ravel()
    grad_y = project_all_edges(mesh, k, lambda x, y: sol.partial(x, y, 0, 1), q).ravel()
    raw = np.concatenate([interior, trace, grad_x, grad_y])
    if zero_constrained:
        if dofmap is None:
            dofmap = DofMap(mesh, k)
        raw[dofmap.constrained] = 0.0
    return raw
