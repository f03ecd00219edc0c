"""Sparse SPD solves: multifrontal Cholesky on a separator tree, and
conjugate gradients preconditioned by it.

A matrix comes in element form, an ``ElementMatrix``: the sum of small
dense blocks, each placed at the rows and columns of its element's DOFs.
Every solve first scales the matrix symmetrically by powers of two, D A D
with D = 2^round(-log2(diag) / 2), so that its diagonal lies in [1/2, 2]
(``_power_of_two_scale``). On the nested-dissection tree of
``assembly.fill_reducing_ordering``, the matrix is factored front by front
in postorder (George 1973), in the element form of the multifrontal method
(Duff & Reid 1983): each element's block enters the front of the first node
that owns one of its DOFs, and no global matrix is formed. A node's front
is a dense matrix over its own DOFs and the ancestor DOFs they couple to.
LAPACK ``pftrf`` factors the node's pivot block, and the Schur complement
of the rest passes to the parent. A front that ``dpftrf`` cannot factor
proves the matrix indefinite, so every double-precision factorization
certifies SPD at any size. The CSR matrix ``ElementMatrix.to_csr``
assembles serves tests and the benchmark tracer; no solve builds it.

On a piecewise-uniform mesh most subtrees are translated copies of each
other and build fronts that are equal before scaling, though a DOF next to
the boundary or a transition line may have another diagonal, and so
another scale, than its copy. The mesh is also symmetric about x = 1/2 and
y = 1/2, and the top of the tree with it (``assembly.fill_reducing_ordering``),
so the fronts of its four quadrants are mirror images: equal up to the
signs of their rows, as a reflection negates a gradient component and the
odd Legendre modes along it (``ElementGroup.mirrors``). Before any numeric
work every node gets an exact key of what enters its unscaled front, and
a node whose key is new is checked against its mirror images; only the
first node of each kind is factored, and its twins share its factor
(Przemieniecki 1963: repeated substructures are condensed once; Bossavit
1986 on symmetry). Scaling by signed powers of two adds no rounding error
(Higham 2002, ch. 10; LAPACK's ``DPOEQUB`` picks its factors so), so a
twin's scaled front is E F E for its representative's F, with E the ratio
of their scales on the front rows times the twin's signs, and its factor is
exactly E L S_p, with S_p the signs on the pivots. Unscaled, D^-1 L, the
factors are equal up to those signs, and the solve uses them so.

The numeric phase runs in one array (Amestoy, Duff, L'Excellent & Koster
2001): the distinct fronts' factors fill it from the start in postorder,
each front's blocks F11 and F21 built and factored in place at their final
slot. F11 and the update F22 are triangles in rectangular full packed
format (RFP: Gustavson, Waśniewski, Dongarra & Langou 2010, ACM TOMS
37(2)), on which LAPACK's ``pftrf``, ``tfsm`` and ``sfrk`` work at BLAS-3
speed. A dry run places each update, largest first, at the lowest offset
past the factor written by its last reader and clear of those placed that
live at the same time. So no front is allocated on its own, and the
physical-memory check counts this array and the element blocks.

Beside it the solve holds the analysis's index data, kept compact
(``SolveReport.analysis_bytes``): an index array with an entry per DOF,
element entry or front row is int32 where the dimension allows
(``index_dtype``), and the numeric phase widens a node's slice where it
uses it. Arrays with an entry per node stay intp, and so do the symbolic
phase's keys node << shift | position, which pass 32 bits at N=256. The
analysis's temporaries live for one tree height, and a node's key lists
one id per element (``_first_alike``), not the element's rows: glibc
returns freed heap only from its top, so what they free stays resident.

Python steps per node are kept few. Each node lists its DOFs that couple
beyond their own face first and the face-only ones last (``_pivot_order``),
so a child's update lands in at most four runs of consecutive rows of its
parent's front and is added by a few slice-adds. The analysis takes a few
array passes per tree height and no step per node: the symbolic phase one
sort, the twins one array of keys (Liu 1992 keeps it cheap next to the
factorization). A triangular solve steps by height too (level scheduling,
Anderson & Saad 1989): the twins of one height share one factor, so each
group of twins takes one triangular solve and one product over all their
columns of the right-hand side.

The iterative method is CG on the given matrix, preconditioned by the tree
factorization run in single precision: half the factor's memory, and a few
iterations recover full accuracy (Langou et al. 2006; Carson & Higham
2018). Where that factorization breaks down, or a CG step fails to halve
the true residual, the result is the direct solve.
"""

import os
import time
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
# benchmark/tracing.py wraps spla.splu until ROADMAP item 3 re-points it.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import get_lapack_funcs

METHODS = ("direct", "pcg")


class SolverError(RuntimeError):
    """Factorization breakdown or non-convergence; never silently returned."""


def index_dtype(n: int) -> type:
    """The dtype of indices into n entries: int32 where it holds them."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class ElementGroup:
    """Elements of one size m that share one symmetric (m, m) ``block``, as
    the cells of one width class do: element e adds it at the rows and
    columns ``index[e]``; -1 marks a local position the matrix leaves out.
    Elements with other blocks form groups of their own.

    ``faces`` (n_faces, f) lists sets of local positions that other elements
    may hold too, as a mesh cell shares each side with its neighbour. An
    entry between two positions of one face may be a sum over the elements
    that hold the face, who list its DOFs in the same order; every other
    entry comes from one element alone.

    ``mirrors`` lists symmetries of the matrix the solver may use to share
    factors between mirror-image fronts (see ``_mirror_maps``): for each,
    (elements, positions, signs), saying that element elements[e] holds at
    local position a the image of element e's DOF at position positions[a],
    times signs[a], and that the block equals itself so permuted and
    signed. Both maps are involutions, and every face is held by at most two
    elements. Every group of a matrix lists its symmetries in the same
    order; a group without them makes its DOFs no mirror image of any other.
    The solver checks each claim before it relies on it.
    """

    index: np.ndarray
    block: np.ndarray
    faces: np.ndarray
    mirrors: tuple = ()

    def __post_init__(self):
        m = self.index.shape[1]
        if self.block.shape != (m, m):
            raise ValueError(f"elements of {m} DOFs need one ({m}, {m}) "
                             f"block, got shape {self.block.shape}")


@dataclass(frozen=True)
class ElementMatrix:
    """A symmetric ``dim`` x ``dim`` matrix held as the sum of its element
    blocks, one per group: the input of the tree factorization, which puts
    the blocks straight into its fronts. ``to_csr`` assembles it, for tests
    and the benchmark tracer. Element indices must be integers in [-1, dim):
    any other index would read another DOF's entry of x, or none."""

    dim: int
    groups: tuple[ElementGroup, ...]

    def __post_init__(self):
        for group in self.groups:
            index = group.index
            if not np.issubdtype(index.dtype, np.integer):
                raise ValueError("element indices must be integers, got "
                                 f"dtype {index.dtype}")
            if index.size and not -1 <= index.min() <= index.max() < self.dim:
                raise ValueError(f"element indices must lie in [-1, {self.dim})"
                                 f", got {index.min()}..{index.max()}")

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.dim)
        for group in self.groups:
            held = group.index >= 0
            values = np.broadcast_to(np.diagonal(group.block), held.shape)
            diag += np.bincount(group.index[held], values[held],
                                minlength=self.dim)
        return diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x, summed element by element."""
        padded = np.append(x, 0.0)  # index -1 reads this zero
        y = np.zeros(self.dim)
        for group in self.groups:
            held = group.index >= 0
            local = padded[group.index] @ group.block
            y += np.bincount(group.index[held], local[held], minlength=self.dim)
        return y

    def abs_matmul(self, x: np.ndarray) -> np.ndarray:
        """|A| |x|, exactly: an entry between two positions of one face is
        summed over the elements that hold the face before its absolute
        value is taken. A sum of |block| |x| over the elements would only
        bound it from above."""
        padded = np.append(np.abs(x), 0.0)  # index -1 reads this zero
        y = np.zeros(self.dim)
        faces = []  # (DOFs, block entries) of each face of each group
        for group in self.groups:
            m = group.index.shape[1]
            held = group.index >= 0
            same_face = np.zeros((m, m), dtype=bool)
            for face in group.faces:
                same_face[np.ix_(face, face)] = True
                faces.append((group.index[:, face],
                              group.block[np.ix_(face, face)]))
            outside = np.where(same_face, 0.0, np.abs(group.block))
            sums = padded[group.index] @ outside
            y += np.bincount(group.index[held], sums[held], minlength=self.dim)
        if faces:
            # A face is known by its largest DOF: distinct faces hold
            # disjoint DOFs. A face with every position left out adds nothing.
            every = np.concatenate([dofs for dofs, _ in faces])
            f = every.shape[1]
            # Row i of ``blocks`` is the block of the elements of faces[i];
            # the last row is zero.
            blocks = np.stack([block.ravel() for _, block in faces]
                              + [np.zeros(f * f)])
            row = np.repeat(np.arange(len(faces)),
                            [dofs.shape[0] for dofs, _ in faces])
            keys = every.max(axis=1)
            order = np.lexsort((row, keys))
            new = np.diff(keys[order], prepend=-2) != 0
            face = np.cumsum(new) - 1
            dofs_of = every[order[new]]
            if not np.array_equal(dofs_of[face], every[order]):
                raise ValueError("elements list a shared face's DOFs in "
                                 "different orders")
            # The rows of each face's holders; faces whose holders have the
            # same rows have the same summed block, taken once.
            slot = np.arange(order.size) - np.flatnonzero(new)[face]
            holders = np.full((dofs_of.shape[0], slot.max() + 1), len(faces))
            holders[face, slot] = row[order]
            by = np.lexsort(holders.T)
            alike = np.diff(holders[by], axis=0).any(axis=1)
            sums = np.empty(dofs_of.shape)
            for at in np.split(by, np.flatnonzero(alike) + 1):
                summed = blocks[holders[at[0]]].sum(axis=0).reshape(f, f)
                sums[at] = padded[dofs_of[at]] @ np.abs(summed).T
            held = dofs_of >= 0
            y += np.bincount(dofs_of[held], sums[held], minlength=self.dim)
        return y

    def norm_inf(self) -> float:
        """max_i sum_j |A_ij|, exactly (see ``abs_matmul``)."""
        return float(self.abs_matmul(np.ones(self.dim)).max())

    def to_csr(self) -> sp.csr_matrix:
        """The assembled matrix, without explicit zeros: each group's entries
        as one COO matrix, converted to CSR, which sums duplicates, and the
        groups' matrices summed. An entry sums at most two element terms, so
        no order of summation changes it."""
        matrix = sp.csr_matrix((self.dim, self.dim))
        for group in self.groups:
            held = group.index >= 0
            both = held[:, :, None] & held[:, None, :]
            index = group.index.astype(np.int32)
            entries = (np.broadcast_to(group.block, both.shape)[both],
                       (np.broadcast_to(index[:, :, None], both.shape)[both],
                        np.broadcast_to(index[:, None, :], both.shape)[both]))
            matrix = matrix + sp.coo_matrix(entries, matrix.shape).tocsr()
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
    b-relative residual |b - Ax| / |b|, at most tol, of the CG iterate
    returned, or the normwise backward error of the direct solve it fell
    back to. A x and |A| |x| come from the elements, and equal those of the
    assembled matrix up to the order of summation. iterations counts the CG
    steps of pcg, those before a fallback included; 0 for direct.

    factor_nnz counts the factor's entries, the packed pivot blocks and the
    front rows below them of every node, as the symbolic phase counts them.
    factor_stored counts the entries the factor holds in memory, those of
    the distinct fronts (distinct_fronts) only: twins, fronts equal up to a
    signed power-of-two scaling of their rows and columns, as translated
    copies and mirror images are, share one copy. workspace counts the
    entries of the one array the numeric phase works in: factor_stored, and
    above it the updates, in RFP, that outgrow the factor's unfilled part.
    For pcg all four count its preconditioner: this factor, in single precision.
    analysis_time is the part of wall_time, in seconds, spent before the
    numeric phase, from the pivot order to the solve's groups (``_tree_factor``).
    analysis_bytes counts the bytes of the index data the analysis holds
    through the numeric phase: the pivot order, the front rows laid out for
    the solve, the element parts' rows, the workspace plan, the twins'
    signs and the solve's groups, each array once (``_nbytes``).
    """

    method: str
    iterations: int
    rel_residual: float
    wall_time: float
    factor_nnz: int
    factor_stored: int
    workspace: int
    distinct_fronts: int
    analysis_time: float
    analysis_bytes: int


def _nbytes(*held) -> int:
    """Bytes of the arrays ``held`` reaches through tuples, lists, dicts and
    dataclasses, each buffer counted once however many views share it."""
    buffers, stack = {}, list(held)
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif is_dataclass(item):
            stack.extend(getattr(item, field.name) for field in fields(item))
    return sum(buffers.values())


def _power_of_two_scale(diag: np.ndarray) -> np.ndarray:
    """The symmetric scale D = 2^round(-log2(diag) / 2) of a positive
    diagonal: D diag D lies in [1/2, 2], and scaling by D rounds nothing."""
    return np.ldexp(1.0, -np.round(np.log2(diag) / 2).astype(np.int64))


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _links(group: ElementGroup) -> tuple[np.ndarray, ...]:
    """(nonzero, face, linked) of a group's local positions: which block
    entries are nonzero, the face of every position, and whether its block
    row has a nonzero entry outside its own face. A position in no face is a
    face by itself."""
    m = group.index.shape[1]
    nonzero = group.block != 0
    face = np.arange(m, 2 * m)
    for f, positions in enumerate(group.faces):
        face[positions] = f
    return nonzero, face, (nonzero & (face[:, None] != face)).any(axis=1)


def _element_parts(group: ElementGroup) -> list[tuple[np.ndarray, ...]]:
    """Split every element of a group into parts, each a clique whose DOFs
    meet in one front. A part is (its DOFs, one row per element; its
    nonzero block entries on and below the diagonal, which its elements
    share; the rows and the columns of those entries among its DOFs).

    The entries among linked positions (see ``_links``) form one part.
    Every other nonzero entry lies within one face, since an entry across
    faces links both its positions, so the rest forms one part per face. A
    DOF that couples only within its face, as a tangential gradient couples
    only along its edge, then widens no front but its own node's, just as in
    the assembled matrix.
    """
    nonzero, face, linked = _links(group)
    a, b = np.tril_indices(group.index.shape[1])
    keep = nonzero[a, b]
    a, b = a[keep], b[keep]
    among_linked = linked[a] & linked[b]
    selections = [among_linked] + [~among_linked & (face[a] == f)
                                   for f in np.unique(face[a[~among_linked]])]
    parts = []
    for sel in selections:
        if sel.any():
            cols = np.union1d(a[sel], b[sel])
            parts.append((group.index[:, cols], group.block[a[sel], b[sel]],
                          np.searchsorted(cols, a[sel]),
                          np.searchsorted(cols, b[sel])))
    return parts


def _pivot_order(elements: ElementMatrix, tree: SeparatorTree) -> SeparatorTree:
    """``tree`` with each node's positions stably reordered: the DOFs some
    element links beyond their face (see ``_links``) first, the face-only
    ones last. Nodes, bounds and parents stay. A face-only DOF reaches no
    front but its own node's, so the rows a child's update reaches in its
    parent's front, the parent's linked pivots and ancestor rows, fall in a
    few runs of consecutive rows and not in one run per face."""
    face_only = np.ones(elements.dim + 1, dtype=bool)  # index -1 writes the last
    for group in elements.groups:
        face_only[group.index[:, _links(group)[2]]] = False
    node = np.repeat(np.arange(tree.parent.size, dtype=tree.perm.dtype),
                     np.diff(tree.bounds))
    order = np.argsort(2 * node + face_only[tree.perm], kind="stable")
    return SeparatorTree(tree.perm[order], tree.bounds, tree.parent)


@dataclass(frozen=True)
class _PartPlan:
    """One part of the elements of a group, sorted by the node whose front
    it enters: elements ``starts[s]:starts[s + 1]`` enter node s. ``local``
    holds the rows of the part's DOFs in the node's front, -1 where left
    out. ``pairs`` holds the block entries (a[i], b[i]), shared, or a row
    per element in the merged parts of one entry (``_symbolic_phase``),
    with a and b indices into the part's DOFs."""

    starts: np.ndarray
    local: np.ndarray
    pairs: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class _Fronts:
    """Result of the symbolic phase: the ascending tree positions of every
    node's front, node s's the ``sizes[s]`` entries of ``flat`` from
    ``starts[s]`` on in steps of ``steps[s]``, the element parts sorted by
    node, and the number of factor entries of every node. ``lands``, laid
    out as ``flat``, holds every update row's row in the parent's front."""

    flat: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    steps: np.ndarray
    parts: list[_PartPlan]
    entries: np.ndarray
    lands: np.ndarray | None = None

    @cached_property
    def rows(self) -> list[np.ndarray]:
        """Every node's front rows, as views of ``flat``."""
        return [self.flat[a:a + m * k:k] for a, m, k in zip(
            self.starts.tolist(), self.sizes.tolist(), self.steps.tolist())]

    @property
    def factor_nnz(self) -> int:
        return int(self.entries.sum())


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """arange(a, a + c) for every (a, c) of ``starts`` and ``counts``, one
    after the other in one array."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - ends + counts, counts))


def _symbolic_phase(elements: ElementMatrix, tree: SeparatorTree) -> _Fronts:
    """Each part of an element (see ``_element_parts``) enters the first node
    in postorder that owns one of its DOFs. A node's front rows are its own
    positions, the DOFs of the parts that enter it, and its children's rows
    beyond their pivots. Nodes of one height (see ``_heights``) are
    independent, so each height takes one sort of the keys node << shift |
    position of its fronts' rows, which it lays out together in ``flat``;
    a node's own positions lead its rows, and the sort's inverse places
    every other row an element or a child's update brings."""
    n = elements.dim
    bounds, parent = tree.bounds, tree.parent
    n_nodes = parent.size
    itype = index_dtype(n + 1)
    position = np.full(n + 1, -1, dtype=itype)  # index -1 reads -1
    position[tree.perm] = np.arange(n, dtype=itype)
    parts = [part for group in elements.groups for part in _element_parts(group)]
    # Parts of one block entry are many and small: those of one size merge
    # into one part, each element with its own value, visited once per node.
    for size in (1, 2):
        single = [p for p in parts if p[1].size == 1 and p[0].shape[1] == size]
        if len(single) > 1:
            parts = [p for p in parts if p[1].size > 1 or p[0].shape[1] != size]
            parts.append((np.concatenate([index for index, *_ in single]),
                          np.concatenate([np.full((len(index), 1), values)
                                          for index, values, *_ in single]),
                          single[0][2], single[0][3]))
    shift = n.bit_length()
    first_row = bounds.astype(itype)
    plans, beyond, held = [], [], []
    for index, pairs, a, b in parts:
        positions = position[index]
        # A part holding no DOF gets node n_nodes and enters no front.
        node = np.searchsorted(bounds, positions.min(axis=1, initial=n,
                                                     where=positions >= 0),
                               side="right") - 1
        order = np.argsort(node, kind="stable")
        starts = np.searchsorted(node[order], np.arange(n_nodes + 1))
        order = order[:starts[-1]]
        node, positions = node[order, None], positions[order]
        # A node's own positions lead its rows; the DOFs beyond them, node
        # by node, are found by height below, as flat indices into ``local``.
        local = np.where(positions >= 0, positions - first_row[node], -1)
        plans.append(_PartPlan(starts, local,
                               pairs[order] if pairs.ndim == 2 else pairs, a, b))
        at = np.flatnonzero(positions >= first_row[node + 1]).astype(itype)
        beyond.append((at, np.searchsorted(at, starts * positions.shape[1])))
        held.append(positions.reshape(-1))

    pivots = np.diff(bounds)
    height = _heights(parent)
    starts, sizes = np.zeros_like(parent), np.zeros_like(parent)
    flat, lands, base = [], [], 0  # per height: rows, and where each lands
    # Update rows bound for each height: (their nodes, how many of each, the
    # height they come from and their index among its rows).
    reached: list = [[] for _ in range(height.max() + 1)]
    for h in range(len(reached)):
        arrived, reached[h] = reached[h], None
        nodes = np.flatnonzero(height == h)
        keys = [(np.repeat(nodes, pivots[nodes]) << shift)
                + _ranges(bounds[nodes], pivots[nodes])]
        keys += [(np.repeat(up, count) << shift) + flat[g][at]
                 for up, count, g, at in arrived]
        entering = []
        for (at, by_node), positions in zip(beyond, held):
            count = by_node[nodes + 1] - by_node[nodes]
            entering.append((at[_ranges(by_node[nodes], count)], count))
            keys.append((np.repeat(nodes, count) << shift)
                        + positions[entering[-1][0]])
        # The keys come in sorted runs, which a stable sort merges fast, and
        # the sort's inverse gives every key's index in its node's rows.
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        index = np.empty(order.size, dtype=itype)
        index[order] = np.cumsum(new, dtype=itype) - 1
        del order  # each height's arrays go before the next height's come
        keys = keys[new]
        rows = (keys & ((1 << shift) - 1)).astype(itype)
        first = np.searchsorted(keys, nodes << shift)
        starts[nodes], sizes[nodes] = base + first, np.diff(first,
                                                            append=keys.size)
        landing = np.full(keys.size, -1, dtype=itype)
        at = pivots[nodes].sum()
        for up, count, g, where in arrived:
            lands[g][where] = (index[at:at + where.size]
                               - np.repeat(starts[up] - base, count))
            at += where.size
        for plan, (now, count) in zip(plans, entering):
            plan.local.reshape(-1)[now] = (index[at:at + now.size]
                                           - np.repeat(first, count))
            at += now.size
        # Every node's rows beyond its pivots go to its parent's front. Those
        # that are the parent's own positions come first and land at once;
        # the others are sorted there.
        up, below = parent[nodes], sizes[nodes] - pivots[nodes]
        if np.any(below[up < 0]):
            raise ValueError(f"root node {nodes[(up < 0) & (below > 0)][0]} "
                             "couples beyond its positions")
        node, up = nodes[below > 0], up[below > 0]
        lo = starts[node] - base + pivots[node]
        mid = np.searchsorted(keys, (node << shift) + bounds[up + 1])
        wrong = np.flatnonzero((mid > lo) & (rows[lo] < bounds[up]))
        if wrong.size:
            raise ValueError(f"the front of node {up[wrong[0]]} reaches "
                             f"position {rows[lo[wrong[0]]]}, which none of "
                             "its ancestors owns: the tree does not separate "
                             "the matrix")
        at = _ranges(lo, mid - lo)
        landing[at] = rows[at] - np.repeat(bounds[up], mid - lo)
        for g in np.unique(height[up]).tolist():
            go = height[up] == g
            count = starts[node[go]] - base + sizes[node[go]] - mid[go]
            reached[g].append((up[go], count, h,
                               _ranges(mid[go], count).astype(itype)))
        flat.append(rows)
        lands.append(landing)
        base += keys.size
        del keys, new, index, entering, arrived
    del beyond, held
    flat = np.concatenate(flat)
    lands = np.concatenate(lands)
    return _Fronts(flat, starts, sizes, np.ones_like(sizes), plans,
                   pivots * (pivots + 1) // 2 + pivots * (sizes - pivots), lands)


def _heights(parent: np.ndarray) -> np.ndarray:
    """Every node's height: the length of the longest path down to a leaf.
    A node's children are lower than it, so nodes of one height are
    independent of each other."""
    height = np.zeros(parent.size, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    while True:
        taller = np.zeros_like(height)
        np.maximum.at(taller, parent[child], height[child] + 1)
        if np.array_equal(taller, height):
            return height
        height = taller


def _mirror_maps(elements: ElementMatrix, tree: SeparatorTree) -> list:
    """The symmetries the element groups claim (``ElementGroup.mirrors``),
    checked and read as maps of tree positions: for each, (image, sign,
    tainted), where position image[q] holds sign[q] times the image of the
    DOF at position q (-1 where no element says), and tainted[q] marks a
    DOF that some element holds which breaks the claim. An element breaks
    it if its mirror element does not hold the images of its DOFs with
    their signs; a whole group does if its maps are no involutions, if its
    block, or its faces, which shape its parts (``_element_parts``), do not
    map onto themselves, or if it claims no such symmetry."""
    n = elements.dim
    count = max((len(group.mirrors) for group in elements.groups), default=0)
    itype = index_dtype(n + 1)
    position = np.full(n + 1, -1, dtype=itype)  # index -1 reads -1
    position[tree.perm] = np.arange(n, dtype=itype)
    index = [position[group.index] for group in elements.groups]
    maps = []
    for r in range(count):
        # Each position's image, -1 where none, and its sign. Index -1, a
        # left-out DOF, writes and reads the last entry.
        image = np.full(n + 1, -1, dtype=itype)
        sign = np.zeros(n + 1, dtype=np.int8)
        for group, at in zip(elements.groups, index):
            if len(group.mirrors) > r:
                elems, slots, signs = group.mirrors[r]
                image[at[:, slots]] = at[elems]
                sign[at[:, slots]] = signs.astype(np.int8)
        tainted = np.zeros(n + 1, dtype=bool)
        for group, at in zip(elements.groups, index):
            if len(group.mirrors) <= r:
                tainted[at] = True
                continue
            elems, slots, signs = group.mirrors[r]
            src, dst = at[:, slots], at[elems]
            ok = (((image[src] == dst) & (sign[src] == signs.astype(np.int8))
                   & (signs.astype(np.int8) == signs))
                  | ((src < 0) & (dst < 0))).all(axis=1)
            pictured = (signs[:, None] * group.block[slots[:, None], slots]
                        * signs)
            face = _links(group)[1]
            same_face = face[:, None] == face
            ok &= (np.array_equal(elems[elems], np.arange(elems.size))
                   and np.array_equal(slots[slots], np.arange(slots.size))
                   and np.array_equal(signs[slots], signs)
                   and np.array_equal(pictured, group.block)
                   and np.array_equal(same_face[slots[:, None], slots],
                                      same_face))
            tainted[at[~ok]] = True
        maps.append((image[:n], sign[:n], tainted[:n]))
    return maps


def _padded(values: np.ndarray, first: np.ndarray, count: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """values[first[i]:first[i] + count[i]] as row i of one array, padded
    with zeros, and where each row holds those entries."""
    inside = np.arange(count.max(initial=0)) < count[:, None]
    if first.size and first.max() + inside.shape[1] <= values.size:
        rows = np.lib.stride_tricks.sliding_window_view(
            values, inside.shape[1])[first]
    else:
        rows = np.take(values, first[:, None] + np.arange(inside.shape[1]),
                       mode="clip")
    np.copyto(rows, 0, casting="unsafe", where=~inside)
    return rows, inside


def _first_alike(rows: np.ndarray) -> np.ndarray:
    """For every row of a 2-D integer array, the first row equal to it. Rows
    of equal hash are compared entry by entry with the first, and those
    that differ from it are split off and compared again."""
    group = rows.astype(np.uint64) @ np.random.default_rng(0).integers(
        1 << 63, size=rows.shape[1], dtype=np.uint64)
    while True:
        _, first, group = np.unique(group, return_index=True,
                                    return_inverse=True)
        same = (rows == rows[first[group]]).all(axis=1)
        if same.all():
            return first[group]
        group = np.where(same, group, group + first.size)


def _representatives(fronts: _Fronts, tree: SeparatorTree, mirrors: list
                     ) -> tuple[np.ndarray, list]:
    """For every node s, its representative: a node no later in postorder
    whose front equals s's before scaling up to the signs of its rows, bit
    for bit, and those signs: (rep, signs), with signs[s] None where all
    are +1, as for every representative (rep[s] == s). Node s's unscaled
    front is then S rep[s]'s unscaled front S, with S = diag(signs[s]).

    A node's key holds everything its unscaled front is built from: the
    front's shape; for each element part, how many elements enter it and,
    for each, its id, which elements share where their rows in the front
    (-1 where the matrix leaves a DOF out) are equal and, in the merged
    parts of one entry, the only parts whose elements hold values of their
    own, their values too; for each child, its representative and signs
    (whose update equals the child's up to scaling and signs, by
    induction) and the rows that update lands on
    (``_Fronts.lands``). Nodes of equal key assemble the same numbers in
    the same order, each scaled by a power of two, and their factors and
    updates are exact rescalings of each other (see ``_factor_fronts``).
    Twins have equal heights, so each height takes one pass: its nodes'
    keys are the rows of one array, counts first (``_first_alike``).

    A node whose key no earlier node has may still be the mirror image of
    an earlier node t, under one of ``mirrors`` (``_mirror_maps``), whose
    image map takes t's first pivot into s's. It is taken as t's twin, with
    the signs of the map on t's rows times t's signs, only where that map
    takes t's front rows, in order, onto s's; no pivot of either node is
    tainted, so every element that enters s or t keeps the claim (an
    element enters the node of its first DOF) and those that enter s are
    the images of those that enter t; and each child of s has the
    representative of the child of t at its place, with the signs that
    make its update the image of that child's. A front entry sums at most
    two element terms, whose order does not matter, and the updates in the
    order of the children, so s's front is t's so signed, bit for bit. The
    check reads no node's twins, so it runs on a height's new keys at once."""
    bounds, parent = tree.bounds, tree.parent
    pivots, sizes, starts, flat = (np.diff(bounds), fronts.sizes,
                                   fronts.starts, fronts.flat)
    height = _heights(parent)
    node_of = np.append(np.repeat(np.arange(parent.size, dtype=flat.dtype),
                                  pivots), -1)
    kids = np.argsort(parent, kind="stable")[np.count_nonzero(parent < 0):]
    first_kid = np.searchsorted(parent[kids], np.arange(parent.size + 1))
    n_kids = np.diff(first_kid)
    entering = np.array([np.diff(plan.starts) for plan in fronts.parts])
    # Elements of a part share an id where their rows in their fronts (-1
    # where left out) and, in merged parts, their values are equal.
    ids = [_first_alike(np.concatenate([plan.local] + [plan.pairs.view(
        plan.local.dtype)] * (plan.pairs.ndim == 2), axis=1))
        for plan in fronts.parts]
    rep, lead = np.full(parent.size, -1), np.arange(parent.size)
    signed = np.zeros(parent.size, dtype=bool)
    flips = np.ones(flat.size, dtype=np.int8)  # key's first node's signs

    def kid(s, j):  # child j of every node s, any node where s has none
        return kids[np.minimum(first_kid[s] + j, kids.size - 1)]

    def update(values, c, u):  # values at the first u update rows of c
        return _padded(values, starts[c] + pivots[c], u)

    def mirrored(s, t, image, sign, tainted):
        ok = ((pivots[t] == pivots[s]) & (sizes[t] == sizes[s])
              & (n_kids[t] == n_kids[s]))
        m, p = sizes[s] * ok, pivots[s] * ok
        (rows, inside), (mine, own) = (_padded(flat, starts[s], m),
                                       _padded(tainted, bounds[s], p))
        ok &= (((image[_padded(flat, starts[t], m)[0]] == rows)
                | ~inside).all(axis=1)
               & ~((mine | _padded(tainted, bounds[t], p)[0]) & own).any(1))
        for j in range(n_kids[s].max(initial=0)):
            c, c_t = kid(s, j), kid(t, j)
            ok &= (j >= n_kids[s]) | (rep[c] == rep[c_t])
            u = np.where(ok & (j < n_kids[s]), sizes[c] - pivots[c], 0)
            (rows, inside), rows_t = update(flat, c, u), update(flat, c_t, u)[0]
            ok &= (((image[rows_t] == rows)
                    & (update(flips, lead[c], u)[0]
                       == sign[rows_t] * update(flips, lead[c_t], u)[0]))
                   | ~inside).all(axis=1)
        return ok

    for h in range(height.max() + 1):
        nodes = np.flatnonzero(height == h)
        children = [(kid(nodes, j), j < n_kids[nodes])
                    for j in range(n_kids[nodes].max())]
        # Rows of equal counts pad alike, so the counts come first.
        keys = [np.stack([sizes[nodes], pivots[nodes], n_kids[nodes],
                          *entering[:, nodes]]
                         + [np.where(has, rep[c], -1) for c, has in children]
                         + [has & signed[c] for c, has in children], axis=1)]
        keys += [_padded(part, plan.starts[nodes], count)[0] for plan, part,
                 count in zip(fronts.parts, ids, entering[:, nodes])]
        for c, has in children:  # where each update lands, and its signs
            u = np.where(has, sizes[c] - pivots[c], 0)
            keys.append((update(fronts.lands, c, u)[0].astype(np.int64) << 8)
                        | update(flips, lead[c], u)[0].view(np.uint8))
        lead[nodes] = nodes[_first_alike(np.concatenate(keys, axis=1))]

        new = nodes[lead[nodes] == nodes]
        rep[new] = new
        s = new[pivots[new] > 0]
        twin, by = np.full(s.size, -1), np.zeros(s.size, dtype=np.int64)
        for r, (image, sign, tainted) in enumerate(mirrors):
            t = node_of[image[bounds[s]]]
            look = (twin < 0) & (t >= 0) & (t < s)
            look[look] = mirrored(s[look], t[look], image, sign, tainted)
            twin[look], by[look] = t[look], r
        # In postorder, as the first node of t's key may be found here too.
        for s, t, r in zip(s[twin >= 0].tolist(), twin[twin >= 0].tolist(),
                           by[twin >= 0].tolist()):
            f = (mirrors[r][1][flat[starts[t]:starts[t] + sizes[t]]]
                 * flips[starts[lead[t]]:starts[lead[t]] + sizes[t]])
            rep[s], signed[s] = rep[lead[t]], np.any(f != 1)
            flips[starts[s]:starts[s] + sizes[s]] = f
        rep[nodes], signed[nodes] = rep[lead[nodes]], signed[lead[nodes]]
    return rep, [flips[a:a + m] if g else None for a, m, g in zip(
        starts[lead].tolist(), sizes.tolist(), signed.tolist())]


#: Entries a temporary of the numeric phase holds at most, and the mask of
#: the lower triangle of a diagonal chunk of ``_extend_add``.
_CHUNK = 1 << 16
_LOWER = np.tril(np.ones((256, 256), dtype=bool))  # 256 = sqrt(_CHUNK)


@dataclass(frozen=True)
class _Workspace:
    """Where the numeric phase keeps every block in its one array of
    ``size`` entries: distinct node s (``rep[s] == s``) keeps L11 in RFP
    (``_rfp``) from ``factor[s]``, then L21 column-major, and its update F22
    in RFP from ``update[s]``. ``rep``, ``signs``: see ``_representatives``.
    ``lands[s]`` lists distinct node s's children, ascending, each with the
    rows of s's front its update lands on (``_Fronts.lands``)."""

    rep: np.ndarray
    size: int
    factor: np.ndarray
    update: np.ndarray
    signs: list
    lands: dict


def _plan_workspace(fronts: _Fronts, tree: SeparatorTree, rep: np.ndarray,
                    signs: list) -> _Workspace:
    """Lay out the numeric phase in one array (Amestoy et al. 2001): the
    distinct fronts' factors fill it from the start in postorder, and every
    update F22, q(q+1)/2 entries in RFP, goes where the factor has not yet
    reached. A dry run of the schedule of ``_factor_fronts``: node s's
    update is made while s is factored and lives until the last distinct
    node that adds it as a child's update (Liu 1992). Largest first, each
    goes to the lowest offset clear of the factor written by the end of that
    node, its F21 included, and of every update placed whose lifetime
    overlaps its own. At N=128, k=3 the array so meets the live-set bound,
    the most factor and live updates at any node; an online best fit in
    postorder needed 7% more."""
    parent = tree.parent
    distinct = rep == np.arange(rep.size)
    below = fronts.sizes - np.diff(tree.bounds)
    ends = np.cumsum(np.where(distinct, fronts.entries, 0))
    # The last node to add a representative's update: the greatest distinct
    # parent among the nodes it stands for.
    feeds = (parent >= 0) & distinct[np.maximum(parent, 0)]
    last = np.arange(rep.size)
    np.maximum.at(last, rep[feeds], parent[feeds])
    entries = np.where(distinct, below * (below + 1) // 2, 0)
    factor = np.where(distinct, ends - fronts.entries, 0)
    update = np.zeros_like(factor)
    placed = np.argsort(-entries, kind="stable")[:np.count_nonzero(entries)]
    for i, s in enumerate(placed.tolist()):
        others = placed[:i][(placed[:i] <= last[s]) & (last[placed[:i]] >= s)]
        at = int(ends[last[s]])
        for start, stop in sorted(zip(update[others].tolist(),
                                      (update + entries)[others].tolist())):
            if start >= at + entries[s]:
                break
            at = max(at, stop)
        update[s] = at
    size = int(max(ends[-1], (update + entries).max()))
    lands: dict = {s: [] for s in np.flatnonzero(distinct).tolist()}
    end = fronts.starts + fronts.sizes
    for c in np.flatnonzero(feeds).tolist():
        lands[int(parent[c])].append((c, fronts.lands[end[c] - below[c]:
                                                      end[c]].copy()))
    return _Workspace(rep, size, factor, update, signs, lands)


def _rfp(flat: np.ndarray, n: int):
    """The views block(r, c, a, b), rows r:r+a and columns c:c+b on or below
    the diagonal, with columns all below n1 = ceil(n/2) or all from it on,
    of the order-n lower triangle ``flat`` holds in RFP (TRANSR='N',
    UPLO='L'): a column-major (2 n2 + 1) x n1 array, n2 = n - n1, with
    columns 0:n1 from its row n2 + 1 - n1 on and rows and columns n1:n,
    transposed, in its first n2 rows from column n1 - n2 on. So the strict
    upper triangle of a diagonal view aliases other entries."""
    n1, n2 = (n + 1) // 2, n // 2
    rect = flat.reshape((2 * n2 + 1, n1), order="F")
    lead, trail = rect[n2 + 1 - n1:], rect[:n2, n1 - n2:].T

    def block(r, c, a, b):
        view, r, c = (lead, r, c) if c < n1 else (trail, r - n1, c - n1)
        return view[r:r + a, c:c + b]

    return block


def _rfp_offset(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Where an order-n RFP triangle (``_rfp``) holds its (i, j), i >= j."""
    n1, n2 = (n + 1) // 2, n // 2
    return np.where(j < n1, i + n2 + 1 - n1 + j * (2 * n2 + 1),
                    j - n1 + (i - n2) * (2 * n2 + 1))


def _assemble_front(plans: list[_PartPlan], s: int, p: int, m: int,
                    scale: np.ndarray, work: np.ndarray,
                    at: tuple[int, int, int]) -> None:
    """Add the scaled blocks of the element parts that enter node s into
    its zeroed F11, F21 and F22, which start at the entries ``at`` of
    ``work``, F11 and F22 in RFP. ``scale`` holds the scale at the m front
    rows and then a zero, which a left-out DOF (row -1) reads. Each block
    entry is rounded to the dtype of ``work`` and summed in it, in the order
    the parts list the entries. Only lower triangles are filled: the
    factorization reads no other part."""
    q = m - p
    for plan in plans:
        e0, e1 = plan.starts[s], plan.starts[s + 1]
        if e0 == e1:
            continue
        local = plan.local[e0:e1]
        sc = scale[local]
        values = np.take(sc, plan.a, axis=1)
        values *= np.take(sc, plan.b, axis=1)
        values *= plan.pairs if plan.pairs.ndim == 1 else plan.pairs[e0:e1]
        local = np.maximum(local, 0, dtype=np.intp)  # left out: row 0
        r, c = np.take(local, plan.a, axis=1), np.take(local, plan.b, axis=1)
        hi, lo = np.maximum(r, c), np.minimum(r, c)
        np.add.at(work, np.where(lo >= p, at[2] + _rfp_offset(hi - p, lo - p, q),
                                 np.where(hi < p, at[0] + _rfp_offset(hi, lo, p),
                                          at[1] + hi - p + q * lo)),
                  values.astype(work.dtype, copy=False))


def _runs(pos: np.ndarray, cuts) -> list[tuple[int, int, int]]:
    """(start, stop, first row) of each run of ``pos``, ascending front rows:
    consecutive rows, with a cut before the first row from each of ``cuts``."""
    starts = sorted({0, *(np.flatnonzero(np.diff(pos) != 1) + 1).tolist(),
                     *np.searchsorted(pos, cuts).ravel().tolist()} - {pos.size})
    return list(zip(starts, [*starts[1:], pos.size], pos[starts].tolist()))


def _extend_add(front: tuple[np.ndarray, ...], update: np.ndarray,
                pos: np.ndarray, scale: np.ndarray | None = None) -> None:
    """Add a child's update U, in RFP, at rows and columns ``pos`` of a
    front held as (F11, F21, F22), F11 and F22 in RFP (``_rfp``); where
    ``scale`` is given, add E U E with E = diag(scale) on U's rows. The
    child's rows fall in runs of consecutive front rows (``_runs``). Each
    run of columns, split where the halves of an RFP triangle meet, and each
    run of rows at or below it make one view of U added in place to one view
    of a block, by chunks of at most ``_CHUNK`` entries where rescaled or on
    the diagonal, where it adds its lower triangle alone (see ``_rfp``).

    The pivot order of ``_pivot_order`` keeps the runs few: an update
    reaches the parent's linked pivots, first in its positions, and ancestor
    rows, linked DOFs too, and skips the face-only DOFs at the end of each
    node's positions. So its rows fall in at most four runs, where with one
    face-only DOF per edge between the linked ones they would break at every
    edge (32 runs at the root of N=32, k=3)."""
    f21, (q, p) = front[1], front[1].shape
    f11, f22, u = _rfp(front[0], p), _rfp(front[2], q), _rfp(update, pos.size)
    cols = _runs(pos, [(p + 1) // 2, p, p + (q + 1) // 2,
                       *pos[(pos.size + 1) // 2:][:1]])
    runs = cols[:1]  # the same, cut only where rows jump and at the pivots
    for i0, i1, r0 in cols[1:]:
        if r0 != p and r0 == runs[-1][2] + i0 - runs[-1][0]:
            runs[-1] = (runs[-1][0], i1, runs[-1][2])
        else:
            runs.append((i0, i1, r0))
    for j0, j1, c0 in cols:
        for i0, i1, r0 in (run for run in runs if run[1] > j0):
            if diagonal := i0 <= j0:  # from the top of the columns
                i0, r0 = j0, r0 + j0 - i0
            a, b = i1 - i0, j1 - j0
            target = (f22(r0 - p, c0 - p, a, b) if c0 >= p else f11(r0, c0, a, b)
                      if r0 < p else f21[r0 - p:r0 - p + a, c0:c0 + b])
            part = u(i0, j0, a, b)
            if scale is None and (not diagonal or a <= len(_LOWER)):
                np.add(target, part, out=target,
                       where=_LOWER[:a, :b] if diagonal else True)
                continue
            step = max(1, _CHUNK // a)
            for k in range(0, b, step):
                top = k if diagonal else 0  # no entry of the block above
                chunk, dest = part[top:, k:k + step], target[top:, k:k + step]
                if scale is not None:
                    chunk = chunk * scale[i0 + top:i1, None]
                    chunk *= scale[j0:j1][k:k + step]
                if diagonal:
                    w = chunk.shape[1]
                    np.add(dest[:w], chunk[:w], out=dest[:w],
                           where=_LOWER[:w, :w])
                    chunk, dest = chunk[w:], dest[w:]
                dest += chunk


def _flush(block: np.ndarray, tiny: float) -> None:
    """Zero the entries of a contiguous block below ``tiny`` in magnitude."""
    flat = block.reshape(-1, order="F")
    for at in range(0, flat.size, _CHUNK):
        chunk = flat[at:at + _CHUNK]
        chunk[np.abs(chunk) < tiny] = 0.0


def _factor_fronts(fronts: _Fronts, tree: SeparatorTree, scale: np.ndarray,
                   plan: _Workspace, dtype=np.float64) -> list:
    """Numeric phase: (L11, L21, d) of every node, in postorder, for the
    matrix scaled by ``scale`` (in tree order, powers of two), in the
    precision of ``dtype``. L11 is the Cholesky factor of the node's pivot
    block in RFP (``_rfp``), L21 the rows of the front beyond it and d the
    scale at the front's rows; None where empty.

    Only representatives (``plan.rep[s] == s``, see ``_representatives``)
    are assembled and factored; a twin's entry is its representative's. A
    twin's own factor would be E (L11, L21) S_p, with E = S d_twin / d on
    the front rows, S its signs (``plan.signs``) and S_p those on its
    pivots, so the unscaled factor d^-1 (L11, L21) serves both up to the
    signs (``_front_solve``), and a distinct parent adds a twin child's
    update as E U E from its representative's U (``_extend_add``). In
    double precision this equals factoring the twin on its own, bit for
    bit, barring over- and underflow. In single precision the flush below
    zeroes the entries under sqrt(tiny) of the representative's front, not
    of the twin's, so a twin's preconditioner differs from its own factor
    only in entries under sqrt(tiny) * 2^12 for |E| within 2^[-6, 6], far
    below single precision's round-off. A twin's front is congruent to its
    representative's, so the representative's ``dpftrf`` certifies it SPD
    as well.

    Everything lives in one array of ``dtype`` laid out by
    ``_plan_workspace``, and no block is allocated per front. A front is
    built by zeroing its p(p+1)/2 + qp + q(q+1)/2 entries, adding its
    element entries, each rounded to ``dtype`` (see ``_assemble_front``),
    and its children's updates: F11, in RFP, and F21 after it in the
    node's factor slot, where ``pftrf`` and ``tfsm`` turn them into L11 and
    L21 in place, and F22, in RFP, which ``sfrk`` then updates in place."""
    bounds = tree.bounds.tolist()
    n = bounds[-1]
    rep = plan.rep.tolist()
    factor_at, update_at = plan.factor.tolist(), plan.update.tolist()
    pftrf, tfsm, sfrk = get_lapack_funcs(("pftrf", "tfsm", "sfrk"),
                                         dtype=dtype)
    work = np.empty(plan.size, dtype=dtype)
    # Below double precision, entries under sqrt(tiny) are zeroed, so that
    # no product of two entries is subnormal: subnormal operands slow the
    # BLAS kernels several times (eps=1e-6, N=64: ssyrk 0.79 s against
    # 0.06 s flushed). Against the unit diagonal such an entry lies 1e11
    # below single precision's unit round-off. F11 and F21 are flushed once
    # the front is built and L21 once it is solved; F22 is not, as ``sfrk``
    # only adds to it, and its entries are flushed in the ancestor's F11 or
    # F21 they reach.
    flush = np.sqrt(np.finfo(dtype).tiny) if dtype != np.float64 else 0.0
    factor = []
    for s, rows in enumerate(fronts.rows):
        if rep[s] != s:
            factor.append(factor[rep[s]])
            continue
        b0, b1 = bounds[s], bounds[s + 1]
        p, m = b1 - b0, rows.size
        q = m - p
        at = (factor_at[s], factor_at[s] + p * (p + 1) // 2, update_at[s])
        built = work[at[0]:at[1] + q * p]  # F11 and F21, column-major
        front = (built[:at[1] - at[0]],
                 built[at[1] - at[0]:].reshape((q, p), order="F"),
                 work[at[2]:at[2] + q * (q + 1) // 2])
        built.fill(0.0)
        front[2].fill(0.0)
        d = scale[rows]
        _assemble_front(fronts.parts, s, p, m, np.append(d, 0.0), work, at)
        for c, pos in plan.lands[s]:
            pc, r = bounds[c + 1] - bounds[c], rep[c]
            if not pos.size:  # a child without an update
                continue
            ratio = None
            if r != c:
                ratio = scale[fronts.rows[c][pc:]] / scale[fronts.rows[r][pc:]]
                if plan.signs[c] is not None:
                    ratio *= plan.signs[c][pc:]
                ratio = None if np.all(ratio == 1.0) else ratio.astype(dtype)
            size = pos.size * (pos.size + 1) // 2
            _extend_add(front, work[update_at[r]:update_at[r] + size], pos,
                        ratio)
        if flush:
            _flush(built, flush)
        if not p:
            factor.append((None, None, None))
            continue
        f11, l21, f22 = front
        _, info = pftrf(p, f11, uplo="L", overwrite_a=1)
        if info != 0:
            raise SolverError(
                f"matrix is not positive definite: pivot {info} of front "
                f"{s} fails (tree positions {b0}:{b1} of dimension {n}, "
                f"front order {m})")
        if q:
            tfsm(1.0, f11, l21, side="R", uplo="L", trans="T", overwrite_b=1)
            if flush:
                _flush(l21, flush)
            sfrk(q, p, -1.0, l21, 1.0, f22, uplo="L", overwrite_c=1)
        factor.append((f11, l21 if q else None, d.astype(dtype)))
    return factor


def _solve_groups(fronts: _Fronts, tree: SeparatorTree, rep: np.ndarray,
                  signs: list) -> tuple[_Fronts, list[tuple]]:
    """``fronts`` laid out for the solve, and the nodes with pivots in
    groups of twins, one per (height, representative) and by ascending
    height: (the representative, whose factor the group shares; the twins'
    pivot positions as the columns of a (p, t) array; the front rows below
    their pivots, (m - p, t); the signs of those rows relative to the
    representative's (``_representatives``), two int8 arrays of the same
    shapes, or None where all are +1). Twins build equal subtrees, so they
    have equal heights and equal front sizes. Each group's rows are laid
    out as one (m, t) array, twin j's in column j, and both arrays of
    positions are slices of it: the solve holds no second copy of the
    fronts."""
    pivots, sizes = np.diff(tree.bounds), fronts.sizes
    nodes = np.lexsort((rep, _heights(tree.parent)))
    flat = np.empty_like(fronts.flat)
    starts, steps = np.empty_like(fronts.starts), np.empty_like(sizes)
    groups, at, one = [], 0, np.ones(sizes.max(), dtype=np.int8)
    for twins in np.split(nodes, np.flatnonzero(np.diff(rep[nodes])) + 1):
        r, t = int(rep[twins[0]]), twins.size
        p, m = pivots[r], sizes[r]
        block = flat[at:at + m * t].reshape(m, t)
        block[:] = fronts.flat[fronts.starts[twins] + np.arange(m)[:, None]]
        starts[twins], steps[twins] = at + np.arange(t), t
        if p:
            flips = [signs[s] for s in twins]
            if all(f is None for f in flips):
                groups.append((r, block[:p], block[p:], None, None))
            else:
                flips = np.array([one[:m] if f is None else f
                                  for f in flips]).T
                groups.append((r, block[:p], block[p:], flips[:p], flips[p:]))
        at += m * t
    return _Fronts(flat, starts, sizes, steps, fronts.parts,
                   fronts.entries), groups


def _front_solve(factor: list, groups: list, y: np.ndarray) -> np.ndarray:
    """Solve A x = y in place, in the precision of the factor, which is that
    of y, with A = G G^T and G = d^-1 L the unscaled factor of every node:
    twins share it up to the signs of their rows, so y stays unscaled and
    each group of twins of ``_solve_groups`` takes its representative's d.
    The pivot block of y is scaled by d before the forward triangular solve
    and after the backward one, and the rows below by d^-1 around the
    products with L21. A twin with signs S (S_p on its pivots) has the
    factor S G S_p, so its pivot block and its rows below are multiplied by
    S around the same products, and the forward solve leaves S_p times its
    own result in its pivot rows, which only its backward solve reads.
    Nodes of one height depend on none of each other (level scheduling,
    Anderson & Saad 1989), so each group gathers its columns of y into one
    block and takes one triangular solve and one product with its shared
    factor. Twins may update the same rows, as two equal subtrees of one
    parent do, so the updates are summed entry by entry. ``tfsm`` solves
    with L11 in RFP, in place, from the right on the block's transpose."""
    tfsm, = get_lapack_funcs(("tfsm",), dtype=y.dtype)

    def solve(l11, block, trans):  # L^-1 B, or L^-T B, as (B^T L^-T)^T
        return tfsm(1.0, l11, block.T, side="R", uplo="L",
                    trans="N" if trans else "T", overwrite_b=1).T

    for r, pivots, below, on_pivots, on_below in groups:
        l11, l21, d = factor[r]
        p = pivots.shape[0]
        block = y[pivots] * d[:p, None]
        if on_pivots is not None:
            block *= on_pivots
        x = solve(l11, block, 0)
        y[pivots] = x
        if l21 is not None:
            update = (l21 @ x) / d[p:, None]
            if on_below is not None:
                update *= on_below
            np.subtract.at(y, below, update)
    for r, pivots, below, on_pivots, on_below in reversed(groups):
        l11, l21, d = factor[r]
        p = pivots.shape[0]
        block = y[pivots]
        if l21 is not None:
            rows = y[below] / d[p:, None]
            if on_below is not None:
                rows *= on_below
            block -= l21.T @ rows
        x = d[:p, None] * solve(l11, block, 1)
        if on_pivots is not None:
            x *= on_pivots
        y[pivots] = x
    return y


def _tree_factor(elements: ElementMatrix, scale: np.ndarray,
                 tree: SeparatorTree):
    """Cholesky factorization on ``tree`` of the matrix scaled by ``scale``
    (powers of two) on both sides, as a function of the precision:
    ``factor(dtype)`` returns (solve, factor_nnz, factor_stored, workspace,
    distinct_fronts, analysis_time, analysis_bytes), where solve(b) returns
    A^-1 b to the factor's precision. The analysis, by tree height, runs
    once, here: the pivot order, the symbolic phase, the twins, the
    workspace plan and the solve's groups. Every call checks the workspace
    and the element blocks against physical memory and runs the numeric
    phase in ``dtype``."""
    n = elements.dim
    if tree.perm.size != n or tree.bounds[-1] != n:
        raise ValueError(f"tree covers {tree.perm.size} DOFs, matrix has {n}")
    if not np.all((tree.parent > np.arange(tree.parent.size))
                  | (tree.parent == -1)):
        raise ValueError("tree nodes are not in postorder")
    start = time.perf_counter()
    tree = _pivot_order(elements, tree)
    fronts = _symbolic_phase(elements, tree)
    perm, scale = tree.perm, scale[tree.perm]
    rep, signs = _representatives(fronts, tree, _mirror_maps(elements, tree))
    distinct = rep == np.arange(rep.size)
    stored = int(fronts.entries[distinct].sum())
    plan = _plan_workspace(fronts, tree, rep, signs)
    fronts, groups = _solve_groups(fronts, tree, rep, signs)
    analysis_time = time.perf_counter() - start
    analysis_bytes = _nbytes(tree, fronts, plan, groups)
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
        factor = _factor_fronts(fronts, tree, scale, plan, dtype)

        def solve(rhs):
            x = np.empty(n)
            x[perm] = _front_solve(factor, groups,
                                   rhs[perm].astype(dtype, copy=False))
            return x

        return (solve, fronts.factor_nnz, stored, plan.size,
                int(distinct.sum()), analysis_time, analysis_bytes)

    return numeric


def _solve_direct(elements, rhs, tol, factor):
    """A^-1 b by ``factor`` in double precision and one step of iterative
    refinement: (x, normwise backward error, *the counts of ``_tree_factor``);
    raises SolverError where that error is above tol."""
    solve, *counts = factor(np.float64)
    x = solve(rhs)
    # One step of iterative refinement in double precision (Skeel 1980;
    # Higham 2002, ch. 12): where the discretization error nears the
    # round-off floor, as at k=4, eps=1, N=64, the forward error of an
    # unrefined solution shows in the reported error.
    x += solve(rhs - elements @ x)
    del solve  # free the factor before the residual check
    residual = float(np.linalg.norm(rhs - elements @ x))
    rel = residual / (elements.norm_inf() * float(np.linalg.norm(x))
                      + float(np.linalg.norm(rhs)))
    if not np.isfinite(rel) or rel > tol:
        raise SolverError(f"direct solve left relative residual {rel:.3e} "
                          f"above tolerance {tol:.1e}")
    return x, rel, *counts


def _solve_pcg(elements, rhs, tol, factor):
    """CG preconditioned by ``factor`` in single precision: (iterations, x,
    |b - Ax| / |b|, *counts), or the iterations and ``_solve_direct``'s
    result where CG falls back to it (see ``solve_spd``)."""
    try:
        precondition, *counts = factor(np.float32)
    except SolverError:
        return 0, *_solve_direct(elements, rhs, tol, factor)
    rhs_norm = float(np.linalg.norm(rhs))
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
        x = x + (rz / float(p @ (elements @ p))) * p
        r = rhs - elements @ x  # the true residual, every step
        iterations += 1
        norm, last = float(np.linalg.norm(r)), norm
        if not norm <= last / 2:  # NaN included
            del precondition  # its factor goes before the direct one is built
            return iterations, *_solve_direct(elements, rhs, tol, factor)
    return iterations, x, norm / rhs_norm, *counts


def solve_spd(elements: ElementMatrix, rhs: np.ndarray,
              method: str = "direct", tol: float = 1e-12, *,
              tree: SeparatorTree) -> tuple[np.ndarray, SolveReport]:
    """Solve an SPD system given in element form; aborts with SolverError on
    any failure. ``tree`` is the separator tree the matrix is factored on,
    as ``assembly.fill_reducing_ordering`` builds it.

    direct: multifrontal Cholesky factorization on the tree. The numeric
            phase is planned in one array before any numeric work, which
            raises if that array and the element blocks would not fit in
            physical memory, and a front that is not positive definite
            raises, naming the front. A front equal to an earlier one up
            to a signed power-of-two scaling shares its factor. One step of
            iterative refinement follows the solve.
    pcg: conjugate gradients on the given matrix, preconditioned by the
         same factorization run in single precision: its factor takes half
         the memory. It computes the true residual |b - Ax| / |b| every
         step and stops once that is at most tol. Where the
         single-precision factorization breaks down, or a step fails to
         halve the true residual, the result is the direct solve, on the
         same analysis; so a matrix that is not SPD raises as the direct
         solve does, naming the front.

    A direct solve is checked by its normwise backward error (see
    ``SolveReport``); A x, |A| |x| and ||A||_inf are computed exactly from
    the elements.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method}")
    if elements.dim != rhs.size:
        raise ValueError("matrix/rhs dimension mismatch")
    start = time.perf_counter()
    rhs = np.asarray(rhs, dtype=float)
    if float(np.linalg.norm(rhs)) == 0.0:
        report = SolveReport(method, 0, 0.0, time.perf_counter() - start,
                             0, 0, 0, 0, 0.0, 0)
        return np.zeros_like(rhs), report
    diag = elements.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry")
    # Symmetric equilibration by powers of two. It changes no solve in
    # double precision, where Cholesky commutes with it exactly, but keeps
    # pcg's single-precision factor in range: on the uniform mesh at
    # eps=1e-10 the diagonal falls to 8e-20, below the flush threshold
    # sqrt(tiny) = 1.1e-19 of ``_factor_fronts``, and unscaled the factor
    # breaks down (N=8) or CG takes more steps or falls back (N=16, 32).
    # It adds no rounding error, so twins whose scales differ still share
    # one factor (see ``_representatives``).
    factor = _tree_factor(elements, _power_of_two_scale(diag), tree)
    del diag  # before the numeric phase
    iterations, x, rel, *counts = (
        _solve_pcg(elements, rhs, tol, factor) if method == "pcg"
        else (0, *_solve_direct(elements, rhs, tol, factor)))
    return x, SolveReport(method, iterations, rel, time.perf_counter() - start,
                          *counts)
