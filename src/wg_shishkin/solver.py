"""Sparse SPD solves: multifrontal Cholesky on a separator tree, SuperLU for a
matrix given without one, and conjugate gradients preconditioned by either
factorization.

A matrix comes either as a scipy sparse matrix or in element form, an
``ElementMatrix``: the sum of small dense blocks, each placed at the rows and
columns of its element's DOFs. Every solve scales the matrix symmetrically
to unit diagonal first. Given the nested-dissection tree of
``assembly.fill_reducing_ordering``, the matrix is factored front by front in
postorder (George 1973), in the element form of the multifrontal method
(Duff & Reid 1983): each element's block enters the front of the first node
that owns one of its DOFs, and no global matrix is formed. A node's front is
a dense matrix over its own DOFs and the ancestor DOFs they couple to.
LAPACK ``potrf`` factors the node's pivot block, and the Schur complement of
the rest passes to the parent. A front that ``dpotrf`` cannot factor proves
the matrix indefinite, so every double-precision tree factorization
certifies SPD at any size.

On a piecewise-uniform mesh most subtrees are translated copies of each
other and build bit-identical fronts. Before any numeric work every node gets
an exact key of what enters its front, and only the first node with a given
key is factored; its twins share its factor (Przemieniecki 1963: repeated
substructures are condensed once).

The numeric phase runs in one array (Amestoy, Duff, L'Excellent & Koster
2001): the distinct fronts' factors fill it from the start in postorder,
and each front's F21 block is assembled, extended and solved in place at
its final slot. The pivot block F11, the update block F22 and the updates
kept for twins live in the part the factor has not yet reached, each at an
offset a dry run of the schedule assigns before any numeric work, and the
array reaches past the factor only as far as those blocks need. So a freed
front leaves no heap behind, and the physical-memory check counts this
array and the element blocks.

The iterative method is double-precision CG on the given matrix,
preconditioned by the tree factorization run in single precision: half the
factor's memory, and a few iterations recover full accuracy (Langou et al.
2006; Carson & Higham 2018). Without a tree the preconditioner is the
SuperLU factor.
"""

import bisect
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_blas_funcs, get_lapack_funcs

METHODS = ("direct", "pcg")

#: Entries of element blocks scattered at a time when the CSR matrix is
#: built, so that its temporaries stay small next to the matrix itself.
_SCATTER_ENTRIES = 1 << 20


class SolverError(RuntimeError):
    """Factorization breakdown or non-convergence; never silently returned."""


def _times_block(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``rows[e] @ block`` for a shared (m, m) block, or ``rows[e] @
    block[e]`` for an (n_e, m, m) stack."""
    if block.ndim == 2:
        return rows @ block
    return np.einsum("ea,eab->eb", rows, block)


@dataclass(frozen=True)
class ElementGroup:
    """Elements of one size m. Element e adds its symmetric block at the
    rows and columns ``index[e]``; -1 marks a local position the matrix
    leaves out. ``block`` is one (m, m) block shared by every element, or an
    (n_e, m, m) stack with one block per element.

    ``faces`` (n_faces, f) lists sets of local positions that other elements
    may hold too, as a mesh cell shares each side with its neighbour. An
    entry between two positions of one face may be a sum over the elements
    that hold the face, who list its DOFs in the same order; every other
    entry comes from one element alone.
    """

    index: np.ndarray
    block: np.ndarray
    faces: np.ndarray


@dataclass(frozen=True)
class ElementMatrix:
    """A symmetric ``dim`` x ``dim`` matrix held as the sum of its element
    blocks: the input of the tree factorization, which puts the blocks
    straight into its fronts. ``to_csr`` assembles it."""

    dim: int
    groups: tuple[ElementGroup, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @classmethod
    def from_sparse(cls, matrix) -> "ElementMatrix":
        """A symmetric sparse matrix as 1x1 elements on its diagonal and one
        2x2 element per stored entry above it."""
        n = matrix.shape[0]
        upper = sp.triu(matrix, k=1, format="coo")
        pairs = np.zeros((upper.nnz, 2, 2))
        pairs[:, 0, 1] = pairs[:, 1, 0] = upper.data
        no_faces = np.empty((0, 0), dtype=np.int64)
        return cls(n, (
            ElementGroup(np.arange(n)[:, None],
                         np.asarray(matrix.diagonal(), dtype=float)[:, None, None],
                         no_faces),
            ElementGroup(np.stack([upper.row, upper.col], axis=1).astype(np.int64),
                         pairs, no_faces)))

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.dim)
        for group in self.groups:
            held = group.index >= 0
            values = np.broadcast_to(
                np.diagonal(group.block, axis1=-2, axis2=-1), held.shape)
            diag += np.bincount(group.index[held], values[held],
                                minlength=self.dim)
        return diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x, summed element by element."""
        padded = np.append(x, 0.0)  # index -1 reads this zero
        y = np.zeros(self.dim)
        for group in self.groups:
            held = group.index >= 0
            local = _times_block(padded[group.index], group.block)
            y += np.bincount(group.index[held], local[held], minlength=self.dim)
        return y

    def abs_matmul(self, x: np.ndarray) -> np.ndarray:
        """|A| |x|, exactly: an entry between two positions of one face is
        summed over the elements that hold the face before its absolute
        value is taken. A sum of |block| |x| over the elements would only
        bound it from above."""
        padded = np.append(np.abs(x), 0.0)  # index -1 reads this zero
        y = np.zeros(self.dim)
        faces = []  # (DOFs, block entries) of each face of each element
        for group in self.groups:
            m = group.index.shape[1]
            held = group.index >= 0
            same_face = np.zeros((m, m), dtype=bool)
            for face in group.faces:
                same_face[np.ix_(face, face)] = True
                faces.append((group.index[:, face],
                              group.block[..., face[:, None], face]))
            outside = np.where(same_face, 0.0, np.abs(group.block))
            sums = _times_block(padded[group.index], outside)
            y += np.bincount(group.index[held], sums[held], minlength=self.dim)
        if faces:
            # A face is known by its largest DOF: distinct faces hold
            # disjoint DOFs. A face with every position left out adds nothing.
            every = np.concatenate([dofs for dofs, _ in faces])
            keys, inverse = np.unique(every.max(axis=1), return_inverse=True)
            dofs_of = np.empty((keys.size, every.shape[1]), dtype=np.int64)
            dofs_of[inverse] = every
            if not np.array_equal(dofs_of[inverse], every):
                raise ValueError("elements list a shared face's DOFs in "
                                 "different orders")
            summed = np.zeros((keys.size, every.shape[1], every.shape[1]))
            start = 0
            for dofs, block in faces:
                np.add.at(summed, inverse[start:start + dofs.shape[0]], block)
                start += dofs.shape[0]
            keep = keys >= 0
            dofs_of, summed = dofs_of[keep], summed[keep]
            held = dofs_of >= 0
            sums = np.einsum("kab,kb->ka", np.abs(summed), padded[dofs_of])
            y += np.bincount(dofs_of[held], sums[held], minlength=self.dim)
        return y

    def norm_inf(self) -> float:
        """max_i sum_j |A_ij|, exactly (see ``abs_matmul``)."""
        return float(self.abs_matmul(np.ones(self.dim)).max())

    def to_csr(self) -> sp.csr_matrix:
        """The assembled matrix, in one pass: every element entry is written
        once into rows sized by counting, then each row's duplicates are
        summed in place and explicit zeros dropped. Indices are int32."""
        n = self.dim
        # Element e writes, into each row it holds, one entry per DOF it holds.
        rows, lengths = [], []
        for group in self.groups:
            held = group.index >= 0
            rows.append(group.index[held])
            lengths.append(np.broadcast_to(held.sum(axis=1)[:, None],
                                           held.shape)[held])
        rows, lengths = np.concatenate(rows), np.concatenate(lengths)
        order = np.argsort(rows, kind="stable")
        # Sorted by row, each (element, row) run starts where the previous
        # ones end, and each row where the rows before it end.
        first = np.empty(rows.size, dtype=np.int64)
        first[order] = np.cumsum(lengths[order]) - lengths[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(rows, lengths, minlength=n))
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1])
        done = 0
        for group in self.groups:
            n_e, m = group.index.shape
            chunk = max(1, _SCATTER_ENTRIES // (m * m))
            for e0 in range(0, n_e, chunk):
                index = group.index[e0:e0 + chunk]
                held = index >= 0
                count = int(held.sum())
                starts = np.zeros(held.shape, dtype=np.int64)
                starts[held] = first[done:done + count]
                done += count
                slot = starts[:, :, None] + (np.cumsum(held, axis=1) - 1)[:, None, :]
                both = held[:, :, None] & held[:, None, :]
                at = slot[both]
                block = (group.block if group.block.ndim == 2
                         else group.block[e0:e0 + chunk])
                indices[at] = np.broadcast_to(index[:, None, :], both.shape)[both]
                data[at] = np.broadcast_to(block, both.shape)[both]
        matrix = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        return matrix


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

    rel_residual is the normwise backward error |b - Ax| / (|A| |x| + |b|)
    of a direct solve, with ||A||_inf; the plain b-relative residual of a
    factorization bottoms out at |A||x|/|b| * eps_machine, which exceeds any
    fixed tolerance once the fourth-order terms dominate. For pcg it is that
    b-relative residual |b - Ax| / |b| of the iterate returned, the best
    one seen, which is at most max(tol, 8 * ``residual_floor``). For an
    ``ElementMatrix``, A x and |A| |x| come from the elements, and equal
    those of the assembled matrix up to the order of summation. iterations
    counts the CG steps of pcg, over both precisions; 0 for direct.

    factor_nnz counts the factor's entries: for a tree factorization the
    packed pivot blocks and the front rows below them of every node,
    counted by the symbolic phase; L + U for SuperLU. factor_stored counts
    the entries the factor holds in memory: for a tree factorization those
    of the distinct fronts only, as twins share one copy; factor_nnz for
    SuperLU. workspace counts the entries of the one array the numeric
    phase of a tree factorization works in: factor_stored, and above it
    whatever the fronts and cached updates need beyond the factor's
    unfilled part; 0 for SuperLU. For pcg all three count its
    preconditioner, the same factor as the direct solve's, held in single
    precision on a tree.
    """

    method: str
    iterations: int
    rel_residual: float
    wall_time: float
    factor_nnz: int
    factor_stored: int
    workspace: int


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _element_parts(group: ElementGroup) -> list[tuple[np.ndarray, ...]]:
    """Split every element of a group into parts, each a clique whose DOFs
    meet in one front. A part is (its DOFs, one row per element; its
    nonzero block entries on and below the diagonal, shared or one row per
    element; the rows and the columns of those entries among its DOFs).

    A position is linked when its block row has a nonzero entry outside
    its own face; a position in no face is a face by itself. The entries
    among linked positions form one part. Every other nonzero entry lies
    within one face, since an entry across faces links both its positions,
    so the rest forms one part per face. A DOF that couples only within its
    face, as a tangential gradient couples only along its edge, then widens
    no front but its own node's, just as in the assembled matrix.
    """
    m = group.index.shape[1]
    nonzero = group.block != 0
    if nonzero.ndim == 3:
        nonzero = nonzero.any(axis=0)
    face = np.arange(m, 2 * m)
    for f, positions in enumerate(group.faces):
        face[positions] = f
    linked = (nonzero & (face[:, None] != face)).any(axis=1)
    a, b = np.tril_indices(m)
    keep = nonzero[a, b]
    a, b = a[keep], b[keep]
    among_linked = linked[a] & linked[b]
    selections = [among_linked] + [~among_linked & (face[a] == f)
                                   for f in np.unique(face[a[~among_linked]])]
    parts = []
    for sel in selections:
        if sel.any():
            cols = np.union1d(a[sel], b[sel])
            parts.append((group.index[:, cols], group.block[..., a[sel], b[sel]],
                          np.searchsorted(cols, a[sel]),
                          np.searchsorted(cols, b[sel])))
    return parts


@dataclass(frozen=True)
class _PartPlan:
    """One part of the elements of a group, sorted by the node whose front
    it enters: elements ``starts[s]:starts[s + 1]`` enter node s.
    ``positions`` are the part's DOFs' tree positions (-1 where left out)
    and ``local`` their rows in the node's front (0 where left out).
    ``pairs`` holds the block entries (a[i], b[i]), shared or one row per
    element, with a and b indices into the part's positions."""

    starts: np.ndarray
    positions: np.ndarray
    local: np.ndarray
    pairs: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class _Fronts:
    """Result of the symbolic phase: the ascending tree positions of every
    node's front, the element parts sorted by node, and the number of
    factor entries of every node."""

    rows: list[np.ndarray]
    parts: list[_PartPlan]
    entries: np.ndarray

    @property
    def factor_nnz(self) -> int:
        return int(self.entries.sum())


def _symbolic_phase(elements: ElementMatrix, tree: SeparatorTree) -> _Fronts:
    """Each part of an element (see ``_element_parts``) enters the first node
    in postorder that owns one of its DOFs. A node's front rows are its own
    positions, the DOFs of the parts that enter it, and its children's rows
    beyond their pivots."""
    n = elements.dim
    bounds, parent = tree.bounds, tree.parent
    n_nodes = parent.size
    position = np.empty(n, dtype=np.int64)
    position[tree.perm] = np.arange(n)
    parts = [part for group in elements.groups for part in _element_parts(group)]
    # Parts of one DOF, diagonal entries coupled to nothing else, are many
    # and small: one part takes them all, to be visited once per node.
    single = [part for part in parts if part[0].shape[1] == 1]
    if len(single) > 1:
        parts = [part for part in parts if part[0].shape[1] > 1]
        parts.append((np.concatenate([index for index, *_ in single]),
                      np.concatenate([np.broadcast_to(values, index.shape)
                                      for index, values, *_ in single]),
                      np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)))
    sorted_parts = []
    for index, pairs, a, b in parts:
        held = index >= 0
        positions = np.where(held, position[index], -1)
        # A part holding no DOF gets node n_nodes and enters no front.
        node = np.searchsorted(bounds, np.where(held, positions, n).min(axis=1),
                               side="right") - 1
        order = np.argsort(node, kind="stable")
        starts = np.searchsorted(node[order], np.arange(n_nodes + 1))
        order = order[:starts[-1]]
        if pairs.ndim == 2:
            pairs = pairs[order]
        sorted_parts.append((starts, node[order], positions[order], pairs, a, b))

    reached: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
    fronts = []
    for s in range(n_nodes):
        b0, b1 = bounds[s], bounds[s + 1]
        rows = np.unique(np.concatenate(
            [np.arange(b0, b1, dtype=np.int64), *reached[s],
             *(positions[starts[s]:starts[s + 1]].ravel()
               for starts, _, positions, *_ in sorted_parts
               if starts[s] < starts[s + 1])]))
        rows = rows[np.searchsorted(rows, 0):]  # drop the -1 of left-out DOFs
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

    # Front rows of all nodes as one ascending key node * (n + 1) + position,
    # so that one search finds every element DOF's row in its node's front.
    sizes = np.array([rows.size for rows in fronts])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    keys = np.repeat(np.arange(n_nodes, dtype=np.int64) * (n + 1), sizes)
    keys += np.concatenate(fronts)
    plans = []
    for starts, node, positions, pairs, a, b in sorted_parts:
        # A left-out DOF's key, node * (n + 1) - 1, finds the node's first row.
        local = (np.searchsorted(keys, node[:, None] * (n + 1) + positions)
                 - offsets[node][:, None])
        plans.append(_PartPlan(starts, positions, local, pairs, a, b))
    pivots = np.diff(bounds)
    return _Fronts(fronts, plans, pivots * (pivots + 1) // 2 + pivots * (sizes - pivots))


def _children(parent: np.ndarray) -> list[list[int]]:
    """Every node's children, ascending: the order their updates are added."""
    children: list[list[int]] = [[] for _ in range(parent.size)]
    for c in np.flatnonzero(parent >= 0).tolist():
        children[parent[c]].append(c)
    return children


def _representatives(fronts: _Fronts, tree: SeparatorTree,
                     scale: np.ndarray) -> np.ndarray:
    """The first node in postorder whose front equals node s's bit for bit,
    for every s: s itself where no earlier node does.

    A node's key holds everything its front is built from: the front's
    shape; for each element part that enters it, the part's index, the
    elements' rows in the front, the scale at their DOFs and, where the
    part's blocks are stacked, their values; for each child, its
    representative (whose update equals the child's, by induction) and the
    rows that update lands on. Keys are compared as bytes, so nodes of equal
    key assemble the same numbers in the same order and get the same factor
    and update."""
    bounds = tree.bounds
    scale = np.append(scale, 0.0)  # position -1 reads this zero
    parts = [(plan.starts, plan.local, scale[plan.positions],
              plan.pairs if plan.pairs.ndim == 2 else None)
             for plan in fronts.parts]
    children = _children(tree.parent)
    rep = np.empty(len(fronts.rows), dtype=np.int64)
    first: dict[bytes, int] = {}
    for s, rows in enumerate(fronts.rows):
        entering = [i for i, (starts, *_) in enumerate(parts)
                    if starts[s] < starts[s + 1]]
        key = [np.array([rows.size, bounds[s + 1] - bounds[s],
                         len(entering), len(children[s])])]
        for i in entering:
            starts, local, at_dofs, pairs = parts[i]
            e0, e1 = starts[s], starts[s + 1]
            key += [np.array([i, e1 - e0]), local[e0:e1], at_dofs[e0:e1]]
            if pairs is not None:
                key.append(pairs[e0:e1])
        for c in children[s]:
            pos = np.searchsorted(rows, fronts.rows[c][bounds[c + 1] - bounds[c]:])
            key += [np.array([rep[c], pos.size]), pos]
        rep[s] = first.setdefault(b"".join(part.tobytes() for part in key), s)
    return rep


#: Entries a temporary of the numeric phase holds at most: the chunks in
#: which a factor block is packed or flushed.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class _Workspace:
    """Where the numeric phase keeps every block in its one array of
    ``size`` entries. Distinct node s (``rep[s] == s``) keeps its packed L11
    from ``factor[s]``, with L21 right after it, and builds F11 at
    ``pivot[s]`` and F22, its update, at ``update[s]``, all column-major."""

    rep: np.ndarray
    size: int
    factor: np.ndarray
    pivot: np.ndarray
    update: np.ndarray


def _plan_workspace(fronts: _Fronts, tree: SeparatorTree,
                    rep: np.ndarray) -> _Workspace:
    """Lay out the numeric phase in one array (Amestoy et al. 2001): the
    distinct fronts' factors fill it from the start in postorder, and every
    F11 and F22 goes into the part the factor has not yet reached.

    A dry run of the schedule of ``_factor_fronts``. Node s's F11 lives
    while s is factored; its F22 is made then and lives until the last
    distinct node that adds it as a child's update (Liu 1992). Each block,
    F22 first, goes to the lowest offset clear of the blocks live at the
    time and of the factor entries written by the end of its last node,
    that node's F21 included (first fit)."""
    parent = tree.parent
    distinct = rep == np.arange(rep.size)
    pivots = np.diff(tree.bounds).tolist()
    below = [rows.size - p for rows, p in zip(fronts.rows, pivots)]
    ends = np.cumsum(np.where(distinct, fronts.entries, 0))
    # The last node to add a representative's update: the greatest distinct
    # parent among the nodes it stands for.
    feeds = (parent >= 0) & distinct[np.maximum(parent, 0)]
    last = np.arange(rep.size)
    np.maximum.at(last, rep[feeds], parent[feeds])
    factor = np.zeros(rep.size, dtype=np.int64)
    pivot, update = factor.copy(), factor.copy()
    factor[distinct] = (ends - fronts.entries)[distinct]
    ends, last = ends.tolist(), last.tolist()
    live = []  # (start, stop, last node) of every live block, by offset
    size = ends[-1]
    for s in np.flatnonzero(distinct).tolist():
        for offset, entries, until in ((update, below[s] ** 2, last[s]),
                                       (pivot, pivots[s] ** 2, s)):
            if not entries:
                continue
            at = ends[until]
            for start, stop, _ in live:
                if start - at >= entries:
                    break
                at = max(at, stop)
            offset[s] = at
            bisect.insort(live, (at, at + entries, until))
            size = max(size, at + entries)
        live = [block for block in live if block[2] > s]
    return _Workspace(rep, size, factor, pivot, update)


def _region(work: np.ndarray, at: int, rows: int, cols: int) -> np.ndarray:
    """The column-major rows x cols block of ``work`` from entry ``at``."""
    return work[at:at + rows * cols].reshape((rows, cols), order="F")


def _assemble_front(plans: list[_PartPlan], s: int, p: int, m: int,
                    scale: np.ndarray, work: np.ndarray,
                    at: tuple[int, int, int]) -> None:
    """Write the scaled blocks of the element parts that enter node s into
    its zeroed F11, F21 and F22, which start at the entries ``at`` of
    ``work``. Each entry is summed in double precision, in the order the
    parts list it, and rounded once to the dtype of ``work``. Only lower
    triangles are filled: the factorization reads no other part."""
    flat, weights = [], []
    q = m - p
    for plan in plans:
        e0, e1 = plan.starts[s], plan.starts[s + 1]
        if e0 == e1:
            continue
        sc = scale[plan.positions[e0:e1]]
        values = np.take(sc, plan.a, axis=1)
        values *= np.take(sc, plan.b, axis=1)
        values *= plan.pairs if plan.pairs.ndim == 1 else plan.pairs[e0:e1]
        local = plan.local[e0:e1]
        r, c = np.take(local, plan.a, axis=1), np.take(local, plan.b, axis=1)
        hi, lo = np.maximum(r, c), np.minimum(r, c)
        flat.append(np.where(lo >= p, at[2] + hi - p + q * (lo - p),
                             np.where(hi < p, at[0] + hi + p * lo,
                                      at[1] + hi - p + q * lo)).ravel())
        weights.append(values.ravel())
    if flat:
        targets, inverse = np.unique(np.concatenate(flat), return_inverse=True)
        work[targets] = np.bincount(inverse, np.concatenate(weights))


def _extend_add(front: tuple[np.ndarray, ...], update: np.ndarray,
                pos: np.ndarray) -> None:
    """Add a child's update (lower triangle) at rows and columns ``pos`` of
    a front held as (F11, F21, F22). The child's rows fall in runs of
    consecutive front rows, each on one side of the pivots, so each pair of
    runs is one slice of the update added to one slice of a block, in
    place and with no temporary."""
    f11, f21, f22 = front
    p = f11.shape[0]
    starts = [0, *(np.flatnonzero((np.diff(pos) != 1) | (pos[1:] == p))
                   + 1).tolist()]
    runs = list(zip(starts, [*starts[1:], pos.size], pos[starts].tolist()))
    for j, (j0, j1, c0) in enumerate(runs):
        for i0, i1, r0 in runs[j:]:
            part = update[i0:i1, j0:j1]
            if r0 < p:
                f11[r0:r0 + i1 - i0, c0:c0 + j1 - j0] += part
            elif c0 < p:
                f21[r0 - p:r0 - p + i1 - i0, c0:c0 + j1 - j0] += part
            else:
                f22[r0 - p:r0 - p + i1 - i0, c0 - p:c0 - p + j1 - j0] += part


def _pack_lower(l11: np.ndarray, packed: np.ndarray,
                upper: np.ndarray) -> None:
    """The lower triangle of ``l11`` into ``packed``, column by column, a
    few columns at a time; ``upper`` is an upper-triangular boolean mask of
    the same shape."""
    step = max(1, _CHUNK // l11.shape[0])
    at = 0
    for j0 in range(0, l11.shape[0], step):
        # Row j of the transpose is column j of l11.
        lower = l11.T[j0:j0 + step][upper[j0:j0 + step]]
        packed[at:at + lower.size] = lower
        at += lower.size


def _flush(block: np.ndarray, tiny: float) -> None:
    """Zero the entries of a contiguous block below ``tiny`` in magnitude."""
    flat = block.reshape(-1, order="F")
    for at in range(0, flat.size, _CHUNK):
        chunk = flat[at:at + _CHUNK]
        chunk[np.abs(chunk) < tiny] = 0.0


def _factor_fronts(fronts: _Fronts, tree: SeparatorTree, scale: np.ndarray,
                   plan: _Workspace, dtype=np.float64) -> list:
    """Numeric phase: (L11, L21) of every node, in postorder, for the matrix
    scaled by ``scale`` (in tree order), in the precision of ``dtype``. L11
    is the Cholesky factor of the node's pivot block, packed by columns, and
    L21 the rows of the front beyond it; None where empty.

    Only representatives (``plan.rep[s] == s``, see ``_representatives``)
    are assembled and factored; a twin's entry is its representative's.
    Everything lives in one array of ``dtype`` laid out by
    ``_plan_workspace``. The factor fills it from the start: each F21 is
    assembled, extended and solved in place at its final slot as L21, and
    L11 is packed into the slot before it. F11 and F22 lie in the part the
    factor has not yet reached, F11 until it is factored and packed, F22 as
    a cached update until the last front that adds it. So no block is
    allocated per front, and the pages of a freed block are the next
    block's. A front is built by zeroing its blocks, writing its element
    entries, summed in double precision and rounded once to ``dtype``, and
    adding its children's updates."""
    bounds = tree.bounds.tolist()
    n = bounds[-1]
    rep = plan.rep.tolist()
    factor_at, pivot_at = plan.factor.tolist(), plan.pivot.tolist()
    update_at = plan.update.tolist()
    scale = np.append(scale, 0.0)  # position -1 reads this zero
    children = _children(tree.parent)
    potrf, = get_lapack_funcs(("potrf",), dtype=dtype)
    trsm, syrk = get_blas_funcs(("trsm", "syrk"), dtype=dtype)
    work = np.empty(plan.size, dtype=dtype)
    # Below double precision, entries under sqrt(tiny) are zeroed, so that
    # no product of two entries is subnormal: subnormal operands slow the
    # BLAS kernels several times (eps=1e-6, N=64: ssyrk 0.79 s against
    # 0.06 s flushed). Against the unit diagonal such an entry lies 1e11
    # below single precision's unit round-off.
    flush = np.sqrt(np.finfo(dtype).tiny) if dtype != np.float64 else 0.0
    masks: dict[int, np.ndarray] = {}  # few pivot orders recur
    factor = []
    for s, rows in enumerate(fronts.rows):
        if rep[s] != s:
            factor.append(factor[rep[s]])
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        p, m = b1 - b0, rows.size
        packed = work[factor_at[s]:factor_at[s] + p * (p + 1) // 2]
        at = (pivot_at[s], factor_at[s] + packed.size, update_at[s])
        front = (_region(work, at[0], p, p), _region(work, at[1], m - p, p),
                 _region(work, at[2], m - p, m - p))
        for block in front:
            block.fill(0.0)
        _assemble_front(fronts.parts, s, p, m, scale, work, at)
        for c in children[s]:
            child_rows = fronts.rows[c][bounds[c + 1] - bounds[c]:]
            if child_rows.size:  # a child with an update
                _extend_add(front, _region(work, update_at[rep[c]],
                                           child_rows.size, child_rows.size),
                            np.searchsorted(rows, child_rows))
        if flush:
            for block in front:
                _flush(block, flush)
        if not p:
            factor.append((None, None))
            continue
        f11, l21, f22 = front
        _, info = potrf(f11, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise SolverError(
                f"matrix is not positive definite: pivot {info} of front "
                f"{s} fails (tree positions {b0}:{b1} of dimension {n}, "
                f"front order {m})")
        if p not in masks:
            masks[p] = np.triu(np.ones((p, p), dtype=bool))
        _pack_lower(f11, packed, masks[p])
        if m > p:
            trsm(1.0, f11, l21, side=1, lower=1, trans_a=1, overwrite_b=1)
            if flush:
                _flush(l21, flush)
            syrk(-1.0, l21, beta=1.0, c=f22, lower=1, overwrite_c=1)
        factor.append((packed, l21 if m > p else None))
    return factor


def _front_solve(factor: list, fronts: list[np.ndarray], bounds: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Solve L L^T w = y in place, one front at a time, in the precision of
    the factor, which is that of y."""
    tpsv, = get_blas_funcs(("tpsv",), dtype=y.dtype)
    for s, (l11, l21) in enumerate(factor):
        if l11 is None:
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        y[b0:b1] = tpsv(b1 - b0, l11, y[b0:b1], lower=1)
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
        y[b0:b1] = tpsv(b1 - b0, l11, piv, lower=1, trans=1)
    return y


def _tree_factor(elements: ElementMatrix, scale: np.ndarray,
                 tree: SeparatorTree):
    n = elements.dim
    if tree.perm.size != n or tree.bounds[-1] != n:
        raise ValueError(f"tree covers {tree.perm.size} DOFs, matrix has {n}")
    if not np.all((tree.parent > np.arange(tree.parent.size))
                  | (tree.parent == -1)):
        raise ValueError("tree nodes are not in postorder")
    fronts = _symbolic_phase(elements, tree)
    perm = tree.perm
    rep = _representatives(fronts, tree, scale[perm])
    stored = int(fronts.entries[rep == np.arange(rep.size)].sum())
    plan = _plan_workspace(fronts, tree, rep)
    held = sum(group.block.nbytes for group in elements.groups)

    def numeric(dtype):
        memory = _physical_memory()
        needed = np.dtype(dtype).itemsize * plan.size + held
        if needed > memory:
            raise SolverError(
                f"the factorization of dimension {n} needs a workspace of "
                f"{plan.size} entries and {held / 2**30:.1f} GiB of element "
                f"blocks ({needed / 2**30:.1f} GiB in all), more than the "
                f"{memory / 2**30:.1f} GiB of physical memory")
        factor = _factor_fronts(fronts, tree, scale[perm], plan, dtype)

        def solve(rhs):
            w = _front_solve(factor, fronts.rows, tree.bounds,
                             (scale[perm] * rhs[perm]).astype(dtype, copy=False))
            x = np.empty(n)
            x[perm] = scale[perm] * w
            return x

        return solve, fronts.factor_nnz, stored, plan.size

    return numeric


def _superlu_factor(matrix, scale):
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
    return lambda rhs: scale * lu.solve(scale * rhs), lu.nnz, lu.nnz, 0


def _factorize(matrix, scale, tree):
    """Cholesky factorization of the matrix scaled by ``scale`` on both
    sides, as a function of the precision: ``factor(dtype)`` returns
    (solve, factor_nnz, factor_stored, workspace), where solve(b) returns
    A^-1 b to the factor's precision. On the tree the symbolic phase, the
    front keys and the workspace plan run once, here, and every call checks
    the workspace and the element blocks against physical memory and runs
    the numeric phase in ``dtype``; without a tree
    SuperLU factors in double precision whatever ``dtype``."""
    if tree is None:
        return lambda dtype: _superlu_factor(matrix, scale)
    return _tree_factor(matrix, scale, tree)


def residual_floor(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """Round-off floor eps_mach * || |A| |x| || / ||b|| of |b - Ax| / |b|.

    Forming Ax in double precision already errs by about this much, so no
    solver can certify a b-relative residual below it for this x. For an
    ``ElementMatrix`` |A| |x| comes from the elements (``abs_matmul``).
    """
    abs_ax = (matrix.abs_matmul(x) if isinstance(matrix, ElementMatrix)
              else abs(matrix) @ np.abs(x))
    return float(np.finfo(float).eps * np.linalg.norm(abs_ax)
                 / np.linalg.norm(rhs))


def _solve_pcg(matrix, rhs, tol, scale, tree):
    """Double-precision CG preconditioned by the factorization, in single
    precision on a tree: (x, iterations, |b - Ax| / |b|, factor_nnz,
    factor_stored, workspace). See ``solve_spd`` for the stop and fallback rules."""
    factor = _factorize(matrix, scale, tree)
    dtype = np.float64 if tree is None else np.float32
    try:
        precondition, *counts = factor(dtype)
    except SolverError:
        if dtype == np.float64:
            raise
        dtype = np.float64
        precondition, *counts = factor(dtype)
    rhs_norm = float(np.linalg.norm(rhs))
    # x is the best iterate so far and r = b - A x its true residual.
    x, r, norm = np.zeros_like(rhs), rhs.copy(), rhs_norm
    p = rz = None
    iterations = 0
    while norm > tol * rhs_norm:
        # A unit residual goes in, so that the single-precision solve
        # neither under- nor overflows, whatever the scale of the system.
        z = norm * precondition(r / norm)
        rz_next = float(r @ z)
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        x_next = x + (rz / float(p @ (matrix @ p))) * p
        r_next = rhs - matrix @ x_next  # the true residual, every step
        iterations += 1
        norm_next = float(np.linalg.norm(r_next))
        halved = norm_next <= norm / 2
        if norm_next < norm:
            x, r, norm = x_next, r_next, norm_next
        if halved:
            continue
        floor = residual_floor(matrix, x, rhs)
        if norm <= max(tol, 8 * floor) * rhs_norm:
            break
        if dtype == np.float64:
            raise SolverError(
                f"PCG stagnated after {iterations} iterations at relative "
                f"residual {norm / rhs_norm:.3e}, above tolerance {tol:.1e} "
                f"and 8 times its round-off floor eps*|A||x|/|b|, "
                f"{floor:.1e}")
        # The single-precision factor is too coarse for this matrix: go on
        # from the best iterate with the double-precision one.
        dtype = np.float64
        del precondition  # its factor goes before the new one is built
        precondition, *_ = factor(dtype)
        p = None
    return x, iterations, norm / rhs_norm, *counts


def solve_spd(matrix: "sp.spmatrix | ElementMatrix", rhs: np.ndarray,
              method: str = "direct", tol: float = 1e-12,
              tree: SeparatorTree | None = None
              ) -> tuple[np.ndarray, SolveReport]:
    """Solve an SPD system; aborts with SolverError on any failure.

    ``matrix`` is a scipy sparse matrix or an ``ElementMatrix``.

    direct: Cholesky factorization. With ``tree`` (the separator tree of
            ``assembly.fill_reducing_ordering``) it is multifrontal on the
            element form; a sparse matrix is first rewritten as 1x1 and 2x2
            elements. The numeric phase is planned in one array before
            any numeric work, which raises if that array and the element
            blocks would not fit in physical memory, and a front that is
            not positive definite raises, naming the front. A front equal
            bit for bit to an earlier one shares its factor. Without a
            tree, SuperLU factors the assembled matrix with its own
            ordering and its pivots are checked for positivity.
    pcg: conjugate gradients in double precision on the given matrix,
         preconditioned by the same factorization, which runs in single
         precision on the tree: its factor takes half the memory. It
         computes the true residual |b - Ax| / |b| every step and stops at
         tol, or once that residual no longer halves. Then it returns the
         best iterate if its residual is at most max(tol, 8 * floor),
         where floor is ``residual_floor(matrix, x, rhs)``, below which no
         solver can go, and otherwise raises SolverError naming the
         floor. A single-precision factorization that breaks down, or CG
         that stagnates above that bound, is replaced once by the
         double-precision factorization, and CG goes on from its best
         iterate; so a matrix the double-precision factorization finds
         indefinite raises as the direct solve does, naming the front.

    With a tree a sparse matrix is rewritten as 1x1 and 2x2 elements, and
    without one an ``ElementMatrix`` is assembled. A direct solve is checked
    by its normwise backward error (see ``SolveReport``); on the element
    form, A x, |A| |x| and ||A||_inf are computed exactly from the elements.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method}")
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.size:
        raise ValueError("matrix/rhs dimension mismatch")
    if tree is not None:
        if not isinstance(matrix, ElementMatrix):
            matrix = ElementMatrix.from_sparse(matrix)
    elif isinstance(matrix, ElementMatrix):
        matrix = matrix.to_csr()
    start = time.perf_counter()
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        report = SolveReport(method, 0, 0.0, time.perf_counter() - start,
                             0, 0, 0)
        return np.zeros_like(rhs), report
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry")
    # Symmetric Jacobi equilibration: the trace-penalty and fourth-order
    # blocks differ in scale by several orders of magnitude, which otherwise
    # dominates the forward error of the factorization.
    scale = 1.0 / np.sqrt(diag)

    if method == "pcg":
        x, iterations, rel, *counts = _solve_pcg(matrix, rhs, tol, scale,
                                                 tree)
    else:
        solve, *counts = _factorize(matrix, scale, tree)(np.float64)
        x = solve(rhs)
        del solve  # free the factor before the residual check
        iterations = 0
        residual = float(np.linalg.norm(rhs - matrix @ x))
        norm_a = (matrix.norm_inf() if isinstance(matrix, ElementMatrix)
                  else float(np.abs(matrix).sum(axis=1).max()))
        rel = residual / (norm_a * float(np.linalg.norm(x)) + rhs_norm)
        if not np.isfinite(rel) or rel > tol:
            raise SolverError(f"direct solve left relative residual {rel:.3e} "
                              f"above tolerance {tol:.1e}")
    return x, SolveReport(method, iterations, rel, time.perf_counter() - start,
                          *counts)
