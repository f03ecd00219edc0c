"""Per-cell matrices of the weak Laplacian, weak gradient and stabilizer.

A weak function on a cell is the triple {v0, vb, vg}: an interior Q_k
polynomial, a P_k trace and a [P_k]^2 gradient approximation per edge. All
matrices act on the local coefficient vector laid out as

    interior (k+1)^2 | per side (south, east, north, west):
                       trace (k+1), grad-x (k+1), grad-y (k+1)

with edge coefficients stored in the canonical edge orientation; the +/-1
outward-normal sign is applied inside the operators, never to the data.

The stiffness block is built in extended precision (``np.longdouble``, at
least 63 mantissa bits) from the 1D Legendre factors up and rounded to
double once, after averaging over the cell's two reflections
(``LocalDofLayout.reflection``), so every entry is within an ulp of exact
and the block equals its mirror images bit for bit. The double L, G and S
kept for the energy norm are built in double precision.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import SIDE_SIGNS, SIDES, Cell


@dataclass(frozen=True)
class LocalDofLayout:
    """Index layout of the local coefficient vector of one cell."""

    k: int

    @property
    def n_interior(self) -> int:
        return (self.k + 1) ** 2

    @property
    def n_per_side(self) -> int:
        return 3 * (self.k + 1)

    @property
    def n_loc(self) -> int:
        return self.n_interior + 4 * self.n_per_side

    @property
    def interior(self) -> slice:
        return slice(0, self.n_interior)

    def trace(self, side: int) -> slice:
        base = self.n_interior + side * self.n_per_side
        return slice(base, base + self.k + 1)

    def grad_x(self, side: int) -> slice:
        base = self.n_interior + side * self.n_per_side + (self.k + 1)
        return slice(base, base + self.k + 1)

    def grad_y(self, side: int) -> slice:
        base = self.n_interior + side * self.n_per_side + 2 * (self.k + 1)
        return slice(base, base + self.k + 1)

    def reflection(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """The local vector of a cell's mirror image across the midline
        normal to ``axis`` (0: x -> -x), as (positions, signs): slot a of
        the image holds signs[a] times slot positions[a]. The reflection
        swaps east and west (south and north), negates the gradient
        component along ``axis`` and flips the odd Legendre modes along
        ``axis``: the interior's and those of the two sides that run along
        it. It is an involution."""
        kk = self.k + 1
        odd = (-1.0) ** np.arange(kk)
        ones = np.ones(kk)
        modes = np.outer(odd, ones) if axis == 0 else np.outer(ones, odd)
        positions, signs = [np.arange(self.n_interior)], [modes.ravel()]
        grad_signs = (-1.0 if axis == 0 else 1.0, -1.0 if axis == 1 else 1.0)
        for side in range(4):
            # A side that runs along ``axis`` maps onto itself, its modes
            # flipped; the other two swap.
            along = (1 if _is_vertical(side) else 0) == axis
            tangent = odd if along else ones
            image = side if along else (side + 2) % 4
            positions.append(self.n_interior + image * self.n_per_side
                             + np.arange(self.n_per_side))
            signs.append(np.concatenate([tangent, grad_signs[0] * tangent,
                                         grad_signs[1] * tangent]))
        return np.concatenate(positions), np.concatenate(signs)


@dataclass(frozen=True)
class LocalOperators:
    """Weak-operator and stiffness matrices of one cell."""

    layout: LocalDofLayout
    L: np.ndarray  # (k+1)^2   x n_loc, weak Laplacian coefficients
    G: np.ndarray  # 2(k+1)^2  x n_loc, weak gradient (x block, then y block)
    S: np.ndarray  # n_loc x n_loc, stabilizer
    A: np.ndarray  # n_loc x n_loc, eps^2 L'L + G'G + S, rounded once
    A_extended: np.ndarray  # A before rounding, in np.longdouble


def _extended_precision() -> type:
    """``np.longdouble``, checked to carry at least 63 mantissa bits (the
    x87 80-bit format); raises where it is plain double, rather than
    building the blocks in double silently."""
    bits = np.finfo(np.longdouble).nmant
    if bits < 63:
        raise RuntimeError(f"np.longdouble has {bits} mantissa bits here; "
                           "the class blocks need at least 63")
    return np.longdouble


def mirror_average(block: np.ndarray, reflections) -> np.ndarray:
    """``block`` averaged over the group its reflections (positions, signs)
    generate, pairwise: B <- (B + R B R) / 2 for each R in turn. Each sum
    is of two terms and commutes, so for commuting involutions R the result
    equals its image under every R bit for bit."""
    for positions, signs in reflections:
        image = signs[:, None] * block[np.ix_(positions, positions)] * signs
        block = (block + image) / 2
    return block


def _is_vertical(side: int) -> bool:
    return SIDES[side] in ("east", "west")


def _legendre_factors(k: int, dtype=np.float64):
    """1D factors of the orthonormal Legendre basis P_m (m <= k) on [-1, 1],
    in ``dtype``.

    Returns ``ends`` of shape (2, k+1, 2) holding P_m and P_m' at -1 and +1,
    and ``d1``, ``d2`` with d1[j, m] = (P_j, P_m') and d2[j, m] = (P_j, P_m''),
    taken in closed form from P_m(+-1) = (+-1)^m, P_m'(+-1) = (+-1)^(m+1)
    m(m+1)/2 and the expansions
        P_m'  = sum_{j < m, m-j odd}  (2j+1) P_j,
        P_m'' = sum_{j < m, m-j even} (j+1/2) (m(m+1) - j(j+1)) P_j
    of the unnormalized polynomials; each entry is an integer times one
    square root, within an ulp of exact.
    """
    m = np.arange(k + 1)
    root = np.sqrt(m.astype(dtype) + dtype(0.5))
    alt = (-1.0) ** m
    slope = m * (m + 1) // 2
    ends = np.stack([np.stack([alt, np.ones(k + 1)], axis=1) * root[:, None],
                     np.stack([-alt * slope, slope], axis=1) * root[:, None]])
    j, m = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    norms = np.sqrt((j + dtype(0.5)) * (m + dtype(0.5)))
    zero = dtype(0)
    d1 = np.where((j < m) & ((m - j) % 2 == 1), 2 * norms, zero)
    d2 = np.where((j < m) & ((m - j) % 2 == 0),
                  (m * (m + 1) - j * (j + 1)) * norms, zero)
    return ends, d1, d2


def _side_moments(widths: tuple[float, float], side: int, factors):
    """Edge moments <chi_j, D phi_i> on one side for D = 1, d/dx, d/dy, in
    the precision of ``factors``, the 1D factors of ``_legendre_factors``.

    Each table has shape ((k+1)^2, k+1), rows indexed by the cell basis and
    columns by the side's edge basis. Side integrals of tensor Legendre
    products separate, so every table is a Kronecker product of 1D factors
    scaled by the nominal widths: the side's edge basis is orthonormal
    along the tangential axis, and the normal factor is an endpoint value.
    """
    ends, d1, _ = factors
    dtype, k = d1.dtype.type, d1.shape[0] - 1
    h1, h2 = (dtype(h) for h in widths)
    end = 1 if SIDE_SIGNS[side] > 0 else 0  # east/north sit at +1
    value = ends[0, :, end][:, None]
    slope = ends[1, :, end][:, None]
    eye = np.eye(k + 1, dtype=dtype)
    if _is_vertical(side):
        s = np.sqrt(2 / h1)
        return (s * np.kron(value, eye), s * (2 / h1) * np.kron(slope, eye),
                s * (2 / h2) * np.kron(value, d1.T))
    s = np.sqrt(2 / h2)
    return (s * np.kron(eye, value), s * (2 / h1) * np.kron(d1.T, value),
            s * (2 / h2) * np.kron(eye, slope))


def weak_laplacian_matrix(cell: Cell, k: int, dtype=np.float64) -> np.ndarray:
    """Matrix L whose column d holds the Q_k coefficients of the discrete
    weak Laplacian of the d-th local unit coefficient, in ``dtype``.

    Realizes, against every test polynomial phi in Q_k,
        (Lap_w v, phi)_T = (v0, Lap phi)_T - <vb, grad phi . n> + <vg . n, phi>.
    All integrals are exact; L depends on the cell only through its widths.
    """
    layout = LocalDofLayout(k)
    h1, h2 = (dtype(h) for h in cell.widths)
    factors = _legendre_factors(k, dtype)
    d2 = factors[2]
    eye = np.eye(k + 1, dtype=dtype)
    L = np.zeros((layout.n_interior, layout.n_loc), dtype=dtype)
    L[:, layout.interior] = ((2 / h1) ** 2 * np.kron(d2.T, eye)
                             + (2 / h2) ** 2 * np.kron(eye, d2.T))
    for side in range(4):
        value, dx, dy = _side_moments(cell.widths, side, factors)
        sign = SIDE_SIGNS[side]
        if _is_vertical(side):
            L[:, layout.trace(side)] -= sign * dx
            L[:, layout.grad_x(side)] += sign * value
        else:
            L[:, layout.trace(side)] -= sign * dy
            L[:, layout.grad_y(side)] += sign * value
    return L


def weak_gradient_matrix(cell: Cell, k: int, dtype=np.float64) -> np.ndarray:
    """Matrix G of the discrete weak gradient, in ``dtype``; rows are the
    x-component coefficients followed by the y-component ones.

    Realizes (grad_w v, q)_T = -(v0, div q)_T + <vb, q . n> for q in [Q_k]^2;
    vg never enters, so its columns are identically zero.
    """
    layout = LocalDofLayout(k)
    h1, h2 = (dtype(h) for h in cell.widths)
    factors = _legendre_factors(k, dtype)
    d1 = factors[1]
    eye = np.eye(k + 1, dtype=dtype)
    dim = layout.n_interior
    G = np.zeros((2 * dim, layout.n_loc), dtype=dtype)
    G[:dim, layout.interior] = -(2 / h1) * np.kron(d1.T, eye)
    G[dim:, layout.interior] = -(2 / h2) * np.kron(eye, d1.T)
    for side in range(4):
        value, _, _ = _side_moments(cell.widths, side, factors)
        block = slice(0, dim) if _is_vertical(side) else slice(dim, 2 * dim)
        G[block, layout.trace(side)] += SIDE_SIGNS[side] * value
    return G


def stabilizer_matrix(cell: Cell, k: int, eps: float, h: float, H: float,
                      dtype=np.float64) -> np.ndarray:
    """Stabilizer block: eps^2/h <grad v0 - vg, .> + (eps^2/(h^2 H) + 1/H)
    <v0 - vb, .> over the four sides, in ``dtype``.

    h and H are the GLOBAL fine/coarse mesh widths, on every cell including
    coarse-region ones; the scheme is defined with global widths and must
    not be "corrected" to per-cell sizes.
    """
    layout = LocalDofLayout(k)
    eps, h, H = dtype(eps), dtype(h), dtype(H)
    c_grad = eps * eps / h
    c_val = (eps / h) ** 2 / H + 1 / H

    n_loc = layout.n_loc
    S = np.zeros((n_loc, n_loc), dtype=dtype)
    eye = np.eye(k + 1, dtype=dtype)
    factors = _legendre_factors(k, dtype)
    for side in range(4):
        value, dx, dy = _side_moments(cell.widths, side, factors)
        jump_val = np.zeros((k + 1, n_loc), dtype=dtype)
        jump_val[:, layout.interior] = value.T
        jump_val[:, layout.trace(side)] = -eye
        jump_gx = np.zeros((k + 1, n_loc), dtype=dtype)
        jump_gx[:, layout.interior] = dx.T
        jump_gx[:, layout.grad_x(side)] = -eye
        jump_gy = np.zeros((k + 1, n_loc), dtype=dtype)
        jump_gy[:, layout.interior] = dy.T
        jump_gy[:, layout.grad_y(side)] = -eye
        # np.dot: in double it calls the same BLAS as @, and in
        # np.longdouble its loop is about twice as fast.
        S += c_grad * (np.dot(jump_gx.T, jump_gx) + np.dot(jump_gy.T, jump_gy))
        S += c_val * np.dot(jump_val.T, jump_val)
    return (S + S.T) / 2


def local_stiffness(cell: Cell, k: int, eps: float, h: float, H: float
                    ) -> LocalOperators:
    """All local operators plus the stiffness block eps^2 L'L + G'G + S.

    A is built in extended precision (``_extended_precision``) from its own
    L, G and S, averaged over the cell's reflections (``mirror_average``)
    and rounded to double once; ``A_extended`` keeps it unrounded, for the
    Schur complement of a condensed system. L, G and S are the double ones.
    """
    ext = _extended_precision()
    layout = LocalDofLayout(k)
    L_ext = weak_laplacian_matrix(cell, k, ext)
    G_ext = weak_gradient_matrix(cell, k, ext)
    A = (ext(eps) ** 2 * np.dot(L_ext.T, L_ext) + np.dot(G_ext.T, G_ext)
         + stabilizer_matrix(cell, k, eps, h, H, ext))
    A = mirror_average((A + A.T) / 2,
                       [layout.reflection(axis) for axis in (0, 1)])
    return LocalOperators(layout=layout, L=weak_laplacian_matrix(cell, k),
                          G=weak_gradient_matrix(cell, k),
                          S=stabilizer_matrix(cell, k, eps, h, H),
                          A=A.astype(np.float64), A_extended=A)
