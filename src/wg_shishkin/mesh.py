"""Shishkin tensor-product meshes on the unit square.

The 1D partition is piecewise equidistant: [0, lam] and [1-lam, 1] each get
n/4 cells of the fine width ``4*lam/n`` and [lam, 1-lam] gets n/2 cells of the
coarse width ``2*(1-2*lam)/n``, with ``lam = min(alpha*eps*ln(n), 1/4)``.
The 2D mesh is the tensor product of two identical such partitions.

Numbering, with breakpoints x_0 < ... < x_n on both axes:

- cell (i, j) = [x_i, x_i+1] x [x_j, x_j+1] has id c = i*n + j;
- horizontal edge (i, j) = [x_i, x_i+1] x {x_j}, j = 0..n, has id j*n + i;
- vertical edge (i, j) = {x_i} x [x_j, x_j+1], i = 0..n, has id
  n(n+1) + i*n + j.

So the horizontal edges come first, row by row, then the vertical ones,
column by column. On the (2n+1)^2 entity lattice that nested dissection
bisects, cell (i, j) sits at (2i+1, 2j+1), horizontal edge (i, j) at
(2i+1, 2j) and vertical edge (i, j) at (2i, 2j+1). Every index table of the
package follows from these formulas: ``ShishkinMesh`` holds them as arrays,
and ``ShishkinMesh.cell`` builds one cell's record.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MESH_KINDS = ("shishkin", "uniform")

#: Smallest eps accepted. Example 1 (k=3, N=128 and k=4, N=64, condensed)
#: has its energy error still falling from eps=1e-10 to 1e-11 and rising
#: from 1e-12 on, where round-off in the layer cells takes over; at
#: eps=1e-30 the layer at x = 1 lies within a few ulps of 1 and N=8
#: reports 0.139 where eps in 1e-12..1e-20 gives 1.70e-4, and at 1e-80 the
#: fourth derivative of the exact solution overflows. So the floor is a
#: decade above the last eps at which those errors still fall.
EPS_MIN = 1e-10

#: Local side order of a cell and the sign of its outward normal relative to
#: the canonical edge normal (+x for vertical edges, +y for horizontal ones).
SIDES = ("south", "east", "north", "west")
SIDE_SIGNS = (-1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class MeshParams:
    """Parameters of a Shishkin (or uniform) tensor mesh.

    Attributes
    ----------
    n : int
        Cells per axis; must be >= 4 and divisible by 4.
    eps : float
        Perturbation parameter in [EPS_MIN, 1].
    k : int
        Polynomial degree, >= 3.
    alpha : float
        Transition constant; defaults to k + 1.
    mesh_kind : str
        "shishkin" or "uniform" (uniform forces the transition point to 1/4,
        which makes every cell width 1/n).
    """

    n: int
    eps: float
    k: int
    alpha: float | None = None
    mesh_kind: str = "shishkin"

    def __post_init__(self):
        if self.n < 4 or self.n % 4 != 0:
            raise ValueError(f"n must be >= 4 and divisible by 4, got {self.n}")
        if not EPS_MIN <= self.eps <= 1.0:
            raise ValueError(f"eps must lie in [{EPS_MIN:g}, 1], got {self.eps}")
        if self.k < 3:
            raise ValueError(f"degree k must be >= 3, got {self.k}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", float(self.k + 1))
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.mesh_kind not in MESH_KINDS:
            raise ValueError(f"mesh_kind must be one of {MESH_KINDS}")


@dataclass(frozen=True)
class Cell:
    """Axis-aligned rectangular cell of the tensor mesh."""

    index: tuple[int, int]
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    widths: tuple[float, float]
    edge_ids: tuple[int, int, int, int]  # south, east, north, west

    @property
    def area(self) -> float:
        return self.widths[0] * self.widths[1]


@dataclass(frozen=True)
class ShishkinMesh:
    """Breakpoints and nominal widths of the tensor mesh, with its index
    tables in closed form (numbering in the module docstring)."""

    params: MeshParams
    breakpoints: np.ndarray
    lam: float
    h_fine: float
    h_coarse: float

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def n_cells(self) -> int:
        return self.params.n ** 2

    @property
    def n_edges(self) -> int:
        n = self.params.n
        return 2 * n * (n + 1)

    def axis_widths(self) -> np.ndarray:
        """Nominal cell widths along one axis (both axes are identical).

        Region widths, not breakpoint differences: equal-width cells compare
        equal, so they share one set of local operators."""
        n = self.params.n
        quarter = n // 4
        w = np.full(n, self.h_coarse)
        w[:quarter] = self.h_fine
        w[n - quarter:] = self.h_fine
        return w

    def _edge_ij(self, e):
        """(vertical, i, j) of edge ids ``e``."""
        n = self.n
        v = e - n * (n + 1)
        vertical = v >= 0
        return (vertical, np.where(vertical, v // n, e % n),
                np.where(vertical, v % n, e // n))

    @cached_property
    def cell_edges(self) -> np.ndarray:
        """Edge ids of every cell's south, east, north and west sides,
        shape (n_cells, 4)."""
        n = self.n
        i, j = np.divmod(np.arange(self.n_cells), n)
        south = j * n + i
        west = n * (n + 1) + i * n + j
        return np.stack([south, west + n, south + n, west], axis=1)

    @cached_property
    def edge_vertical(self) -> np.ndarray:
        """Whether each edge is vertical (canonical normal +x)."""
        return self._edge_ij(np.arange(self.n_edges))[0]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Whether each edge lies on the boundary of the unit square."""
        vertical, i, j = self._edge_ij(np.arange(self.n_edges))
        normal = np.where(vertical, i, j)
        return (normal == 0) | (normal == self.n)

    @cached_property
    def lattice(self) -> np.ndarray:
        """Entity lattice coordinates, shape (n_cells + n_edges, 2): the
        cells in id order, then the edges in id order."""
        i, j = np.divmod(np.arange(self.n_cells), self.n)
        vertical, ei, ej = self._edge_ij(np.arange(self.n_edges))
        return np.concatenate([np.stack([2 * i + 1, 2 * j + 1], axis=1),
                               np.stack([2 * ei + 1 - vertical,
                                         2 * ej + vertical], axis=1)])

    def width_classes(self) -> dict[tuple[float, float], np.ndarray]:
        """Ascending cell ids of each width class (h_x, h_y), the classes in
        order of first appearance; at most four on a Shishkin mesh."""
        values, axis = np.unique(self.axis_widths(), return_inverse=True)
        label = (axis[:, None] * values.size + axis[None, :]).ravel()
        first = np.sort(np.unique(label, return_index=True)[1])
        return {self.cell(c).widths: np.flatnonzero(label == label[c])
                for c in first}

    def cell(self, c: int) -> Cell:
        """Record of cell ``c``."""
        if not 0 <= c < self.n_cells:
            raise IndexError(f"cell {c} outside 0..{self.n_cells - 1}")
        i, j = divmod(int(c), self.n)
        points, w = self.breakpoints, self.axis_widths()
        return Cell(index=(i, j), x_range=(points[i], points[i + 1]),
                    y_range=(points[j], points[j + 1]),
                    widths=(float(w[i]), float(w[j])),
                    edge_ids=tuple(self.cell_edges[c].tolist()))


def transition_point(n: int, eps: float, alpha: float) -> float:
    """Distance from the boundary at which the mesh switches fine -> coarse."""
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if not EPS_MIN <= eps <= 1.0:
        raise ValueError(f"eps must lie in [{EPS_MIN:g}, 1], got {eps}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return min(alpha * eps * math.log(n), 0.25)


def axis_partition(n: int, lam: float) -> np.ndarray:
    """Piecewise-equidistant breakpoints of [0, 1], symmetric about 1/2."""
    if not 0.0 < lam <= 0.25:
        raise ValueError(f"transition point must lie in (0, 1/4], got {lam}")
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be >= 4 and divisible by 4, got {n}")
    quarter = n // 4
    points = np.empty(n + 1)
    # Left half; the right half is mirrored so points[i] + points[n-i] == 1.
    fine = lam / quarter
    coarse = (0.5 - lam) / quarter
    for i in range(quarter + 1):
        points[i] = i * fine
    for j in range(1, quarter + 1):
        points[quarter + j] = lam + j * coarse
    points[quarter] = lam
    points[2 * quarter] = 0.5
    for i in range(2 * quarter):
        points[n - i] = 1.0 - points[i]
    return points


def build_mesh(params: MeshParams) -> ShishkinMesh:
    """The tensor mesh of ``params``; its index tables are built on first
    use."""
    n = params.n
    lam = 0.25 if params.mesh_kind == "uniform" else transition_point(
        n, params.eps, params.alpha)
    return ShishkinMesh(params=params, breakpoints=axis_partition(n, lam),
                        lam=lam, h_fine=4.0 * lam / n,
                        h_coarse=2.0 * (1.0 - 2.0 * lam) / n)
