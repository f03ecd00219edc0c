"""Sparse SPD solves: multifrontal Cholesky on a separator tree, SuperLU for a
matrix given without one, and Jacobi-preconditioned CG.

Both direct paths scale the matrix symmetrically to unit diagonal first.
Given the nested-dissection tree of ``assembly.fill_reducing_ordering``, the
direct path factors the permuted matrix front by front in postorder (George
1973; Duff & Reid 1983). A node's front is a dense matrix over its own DOFs
and the ancestor DOFs they couple to. LAPACK ``potrf`` factors the node's
pivot block, and the Schur complement of the rest passes to the parent. A
front that ``potrf`` cannot factor proves the matrix indefinite, so every
tree factorization certifies SPD at any size.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

METHODS = ("direct", "pcg")

#: Rows of the permuted matrix gathered at a time, so that no full permuted
#: copy of the matrix is ever held.
_ROW_BLOCK = 1 << 15


class SolverError(RuntimeError):
    """Factorization breakdown or non-convergence; never silently returned."""


@dataclass(frozen=True)
class SeparatorTree:
    """A fill-reducing ordering with the separator tree behind it.

    ``perm[i]`` is the DOF placed at position i. Node s owns the positions
    ``bounds[s]:bounds[s + 1]``. Nodes are numbered in postorder: a subtree's
    positions precede its root's, every parent comes after its children and
    the root, whose ``parent`` is -1, is the last node. The matrix must
    couple no two DOFs of disjoint subtrees.
    """

    perm: np.ndarray
    bounds: np.ndarray
    parent: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    rel_residual is |b - Ax| / |b| for pcg and the normwise backward error
    |b - Ax| / (|A| |x| + |b|) for direct solves; the plain b-relative
    residual of a factorization bottoms out at |A||x|/|b| * eps_machine,
    which exceeds any fixed tolerance once the fourth-order terms dominate.
    factor_nnz counts the factor's stored entries: for a tree factorization
    the packed pivot blocks and the front rows below them, counted by the
    symbolic phase; L + U for SuperLU; 0 for pcg.
    """

    method: str
    iterations: int
    rel_residual: float
    wall_time: float
    factor_nnz: int


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _tree_order_upper(matrix, tree: SeparatorTree,
                      scale: np.ndarray) -> sp.csr_matrix:
    """Upper triangle of P D A D P^T by rows, D = diag(scale): row i holds
    the entries (i, j), j >= i, in tree order. By symmetry these are the
    lower-triangular entries of column i."""
    n = matrix.shape[0]
    perm = tree.perm
    position = np.empty(n, dtype=np.int32)
    position[perm] = np.arange(n, dtype=np.int32)
    scale = scale[perm]
    csr = matrix.tocsr()
    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [], []
    for start in range(0, n, _ROW_BLOCK):
        block = csr[perm[start:start + _ROW_BLOCK]]
        cols = position[block.indices]
        rows = np.repeat(np.arange(start, start + block.shape[0]),
                         np.diff(block.indptr))
        keep = cols >= rows
        rows, cols = rows[keep], cols[keep]
        counts = np.bincount(rows - start, minlength=block.shape[0])
        indptr.append(indptr[-1][-1] + np.cumsum(counts))
        indices.append(cols)
        data.append(block.data[keep] * scale[rows] * scale[cols])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                          np.concatenate(indptr)), shape=(n, n))


def _front_rows(upper: sp.csr_matrix, tree: SeparatorTree) -> list[np.ndarray]:
    """Symbolic phase: the ascending rows of every node's front. They are
    the node's own positions, then the positions beyond it that its columns
    or its children's fronts reach."""
    bounds, parent = tree.bounds, tree.parent
    reached: list[list[np.ndarray]] = [[] for _ in range(parent.size)]
    fronts = []
    for s in range(parent.size):
        b0, b1 = bounds[s], bounds[s + 1]
        rows = np.unique(np.concatenate(
            [np.arange(b0, b1), upper.indices[upper.indptr[b0]:upper.indptr[b1]],
             *reached[s]]))
        reached[s] = []
        if rows.size and rows[0] < b0:
            raise ValueError(f"the front of node {s} reaches position "
                             f"{rows[0]}, which none of its ancestors owns: "
                             "the tree does not separate the matrix")
        if rows.size > b1 - b0:
            if parent[s] < 0:
                raise ValueError(f"root node {s} couples beyond its positions")
            reached[parent[s]].append(rows[b1 - b0:])
        fronts.append(rows)
    return fronts


def _extend_add(pivot_cols: np.ndarray, rest: np.ndarray, update: np.ndarray,
                pos: np.ndarray) -> None:
    """Add a child's update (lower triangle) at rows and columns ``pos`` of
    a front split as [F11; F21] = ``pivot_cols`` and F22 = ``rest``. The
    child's rows fall in runs of consecutive front rows, so each run of
    columns is one slice of the front and one add, several times faster
    than an add over np.ix_(pos, pos)."""
    p = pivot_cols.shape[1]
    cut = np.flatnonzero((np.diff(pos) != 1) | (pos[1:] == p)) + 1
    starts = [0, *cut.tolist()]
    ends = [*cut.tolist(), pos.size]
    for j0, j1, c0 in zip(starts, ends, pos[starts].tolist()):
        if c0 < p:
            pivot_cols[pos[j0:], c0:c0 + j1 - j0] += update[j0:, j0:j1]
        else:
            rest[pos[j0:] - p, c0 - p:c0 - p + j1 - j0] += update[j0:, j0:j1]


def _factor_fronts(upper: sp.csr_matrix, tree: SeparatorTree,
                   fronts: list[np.ndarray], factor_nnz: int) -> list:
    """Numeric phase: (L11, L21) of every node, in postorder. L11 is the
    Cholesky factor of the node's pivot block, packed by columns, and L21
    the rows of the front beyond it; None where empty. Both are views of
    one array of ``factor_nnz`` entries: a single large block goes back to
    the system when freed, where thousands of small ones stay in the heap
    of the process."""
    bounds, parent = tree.bounds, tree.parent
    n = upper.shape[0]
    pending: list[list] = [[] for _ in range(parent.size)]
    packing: dict[int, np.ndarray] = {}  # few pivot orders recur
    store = np.empty(factor_nnz)
    at = 0
    factor = []
    for s, rows in enumerate(fronts):
        b0, b1 = bounds[s], bounds[s + 1]
        p, m = b1 - b0, rows.size
        pivot_cols = np.zeros((m, p), order="F")
        rest = np.zeros((m - p, m - p), order="F")
        lo, hi = upper.indptr[b0], upper.indptr[b1]
        col = np.repeat(np.arange(p), np.diff(upper.indptr[b0:b1 + 1]))
        local = np.searchsorted(rows, upper.indices[lo:hi])
        pivot_cols.ravel(order="F")[local + m * col] = upper.data[lo:hi]
        for update, child_rows in pending[s]:
            _extend_add(pivot_cols, rest, update,
                        np.searchsorted(rows, child_rows))
        pending[s] = []
        l11 = l21 = None
        if p:
            l11, info = lapack.dpotrf(pivot_cols[:p], lower=1, clean=0)
            if info != 0:
                raise SolverError(
                    f"matrix is not positive definite: pivot {info} of front "
                    f"{s} fails (tree positions {b0}:{b1} of dimension {n}, "
                    f"front order {m})")
            packed = store[at:at + p * (p + 1) // 2]
            at += packed.size
            if m > p:
                l21 = store[at:at + (m - p) * p].reshape((m - p, p), order="F")
                at += l21.size
                l21[:] = pivot_cols[p:]
                l21 = blas.dtrsm(1.0, l11, l21, side=1, lower=1, trans_a=1,
                                 overwrite_b=1)
                rest = blas.dsyrk(-1.0, l21, beta=1.0, c=rest, lower=1,
                                  overwrite_c=1)
            if p not in packing:
                packing[p] = np.triu(np.ones((p, p), dtype=bool))
            packed[:] = l11.T[packing[p]]
            l11 = packed
        if m > p:
            pending[parent[s]].append((rest, rows[p:]))
        factor.append((l11, l21))
    return factor


def _front_solve(factor: list, fronts: list[np.ndarray], bounds: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Solve L L^T w = y in place, one front at a time."""
    for s, (l11, l21) in enumerate(factor):
        if l11 is None:
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        y[b0:b1] = blas.dtpsv(b1 - b0, l11, y[b0:b1], lower=1)
        if l21 is not None:
            y[fronts[s][b1 - b0:]] -= l21 @ y[b0:b1]
    for s in range(len(factor) - 1, -1, -1):
        l11, l21 = factor[s]
        if l11 is None:
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        piv = y[b0:b1]
        if l21 is not None:
            piv = piv - l21.T @ y[fronts[s][b1 - b0:]]
        y[b0:b1] = blas.dtpsv(b1 - b0, l11, piv, lower=1, trans=1)
    return y


def _solve_multifrontal(matrix, rhs, scale, tree: SeparatorTree):
    n = matrix.shape[0]
    if tree.perm.size != n or tree.bounds[-1] != n:
        raise ValueError(f"tree covers {tree.perm.size} DOFs, matrix has {n}")
    if not np.all((tree.parent > np.arange(tree.parent.size))
                  | (tree.parent == -1)):
        raise ValueError("tree nodes are not in postorder")
    upper = _tree_order_upper(matrix, tree, scale)
    fronts = _front_rows(upper, tree)
    pivots = np.diff(tree.bounds)
    sizes = np.array([rows.size for rows in fronts])
    factor_nnz = int(np.sum(pivots * (pivots + 1) // 2 + pivots * (sizes - pivots)))
    memory = _physical_memory()
    if 8 * factor_nnz > memory:
        raise SolverError(
            f"the factor of dimension {n} needs {factor_nnz} entries "
            f"({8 * factor_nnz / 2**30:.1f} GiB), more than the "
            f"{memory / 2**30:.1f} GiB of physical memory")
    factor = _factor_fronts(upper, tree, fronts, factor_nnz)
    perm = tree.perm
    w = _front_solve(factor, fronts, tree.bounds, scale[perm] * rhs[perm])
    x = np.empty(n)
    x[perm] = scale[perm] * w
    return x, factor_nnz


def _solve_superlu(matrix, rhs, scale):
    # Symmetric-mode SuperLU with diagonal pivoting acts as an LDL'-type
    # factorization on SPD input: a nonpositive pivot flags an indefinite
    # matrix (the discrete norm would fail to be a norm).
    scaling = sp.diags(scale)
    try:
        lu = spla.splu((scaling @ matrix @ scaling).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization breakdown: {exc}") from exc
    pivots = lu.U.diagonal()
    if np.any(pivots <= 0.0) or not np.all(np.isfinite(pivots)):
        raise SolverError("matrix is not positive definite (min pivot "
                          f"{pivots.min():.3e}, dimension {matrix.shape[0]})")
    return scale * lu.solve(scale * rhs), lu.nnz


def _solve_direct(matrix, rhs, tree):
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry")
    # Symmetric Jacobi equilibration: the trace-penalty and fourth-order
    # blocks differ in scale by several orders of magnitude, which otherwise
    # dominates the forward error of the factorization.
    scale = 1.0 / np.sqrt(diag)
    if tree is None:
        return _solve_superlu(matrix, rhs, scale)
    return _solve_multifrontal(matrix, rhs, scale, tree)


#: Restarts of PCG from the true residual before it gives up.
_PCG_RESTARTS = 4


def residual_floor(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """Round-off floor eps_mach * || |A| |x| || / ||b|| of |b - Ax| / |b|.

    Forming Ax in double precision already errs by about this much, so no
    solver can certify a b-relative residual below it for this x.
    """
    return float(np.finfo(float).eps * np.linalg.norm(abs(matrix) @ np.abs(x))
                 / np.linalg.norm(rhs))


def _solve_pcg(matrix, rhs, tol, max_iter):
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry")
    inv_diag = 1.0 / diag
    rhs_norm = np.linalg.norm(rhs)
    threshold = tol * rhs_norm

    x = np.zeros_like(rhs)
    r = rhs.copy()
    iterations = 0
    # Outer restarts guard against drift of the recursive residual.
    for _ in range(_PCG_RESTARTS):
        z = inv_diag * r
        p = z.copy()
        rz = float(r @ z)
        while iterations < max_iter:
            ap = matrix @ p
            alpha = rz / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            iterations += 1
            if np.linalg.norm(r) <= threshold:
                break
            z = inv_diag * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        r = rhs - matrix @ x  # true residual
        if np.linalg.norm(r) <= threshold or iterations >= max_iter:
            break
    if np.linalg.norm(r) > threshold:
        limit = (f"the cap of {max_iter} iterations" if iterations >= max_iter
                 else f"{_PCG_RESTARTS} restarts ({iterations} iterations)")
        raise SolverError(
            f"PCG stopped by {limit} at relative residual "
            f"{np.linalg.norm(r) / rhs_norm:.3e}, above tolerance {tol:.1e}; "
            f"its round-off floor eps*|A||x|/|b| is "
            f"{residual_floor(matrix, x, rhs):.1e}")
    return x, iterations


def solve_spd(matrix: sp.spmatrix, rhs: np.ndarray, method: str = "direct",
              tol: float = 1e-12, tree: SeparatorTree | None = None
              ) -> tuple[np.ndarray, SolveReport]:
    """Solve an SPD sparse system; aborts with SolverError on any failure.

    direct: Cholesky factorization. With ``tree`` (the separator tree of
            ``assembly.fill_reducing_ordering``) it is multifrontal: the
            symbolic phase counts the factor entries and raises before any
            numeric work if they would not fit in physical memory, and a
            front that is not positive definite raises, naming the front.
            Without a tree, SuperLU factors with its own ordering and its
            pivots are checked for positivity.
    pcg: Jacobi-preconditioned conjugate gradients until |b - Ax| / |b| <=
         tol; ``tree`` is not used. It stops at 20 * dim iterations in all,
         or earlier after four restarts from the true residual. That
         residual cannot go below ``residual_floor(matrix, x, rhs)``, so a
         tol under the floor fails whatever the iteration does.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method}")
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.size:
        raise ValueError("matrix/rhs dimension mismatch")
    start = time.perf_counter()
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        report = SolveReport(method, 0, 0.0, time.perf_counter() - start, 0)
        return np.zeros_like(rhs), report

    if method == "direct":
        x, factor_nnz = _solve_direct(matrix, rhs, tree)
        iterations = 0
    else:
        x, iterations = _solve_pcg(matrix, rhs, tol, max_iter=20 * rhs.size)
        factor_nnz = 0

    residual = float(np.linalg.norm(rhs - matrix @ x))
    if method == "direct":
        norm_a = float(np.abs(matrix).sum(axis=1).max())
        rel = residual / (norm_a * float(np.linalg.norm(x)) + rhs_norm)
    else:
        rel = residual / rhs_norm
    if not np.isfinite(rel) or rel > tol:
        raise SolverError(f"{method} solve left relative residual {rel:.3e} "
                          f"above tolerance {tol:.1e}")
    return x, SolveReport(method, iterations, rel, time.perf_counter() - start,
                          factor_nnz)
