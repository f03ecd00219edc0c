"""Property tests of the nested-dissection tree, the element form and the
multifrontal solve over the parameter envelope: N, k, eps, alpha, both mesh
kinds, condensed or not. The reference solve is SuperLU on the assembled
matrix (``conftest.superlu_solve``), a test oracle independent of the
package's tree factorization."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assembled_fronts, assert_same_sharing, elements_of,
                      front_solve_per_node, rfp_indices, superlu_solve)
from wg_shishkin import solver
from wg_shishkin.analytic import ExactSolution
from wg_shishkin.assembly import assemble_system, fill_reducing_ordering
from wg_shishkin.mesh import MeshParams, build_mesh
from wg_shishkin.solver import solve_spd


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4, 8, 12]), k=st.sampled_from([3, 4, 5]),
       log_eps=st.floats(min_value=-10.0, max_value=0.0),
       log_alpha=st.floats(min_value=0.0, max_value=math.log(8.0)),
       mesh_kind=st.sampled_from(["shishkin", "uniform"]),
       condense=st.booleans())
def test_tree_solve_matches_superlu(n, k, log_eps, log_alpha, mesh_kind,
                                    condense):
    eps = 10.0 ** log_eps
    alpha = min(math.exp(log_alpha), 8.0)
    mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, alpha=alpha,
                                 mesh_kind=mesh_kind))
    system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                             condense=condense)
    dim = system.matrix.shape[0]
    tree = fill_reducing_ordering(system)

    assert np.array_equal(np.sort(tree.perm), np.arange(dim))
    assert tree.bounds[0] == 0 and tree.bounds[-1] == dim
    assert np.all(np.diff(tree.bounds) >= 0)
    nodes = np.arange(tree.parent.size)
    assert tree.parent[-1] == -1
    assert np.all(tree.parent[:-1] > nodes[:-1])

    x_lu = superlu_solve(system.matrix, system.rhs)
    for elements in (system.elements, elements_of(system.matrix)):
        x_tree, _ = solve_spd(elements, system.rhs, tol=1e-10, tree=tree)
        assert np.linalg.norm(x_tree - x_lu) <= 1e-9 * np.linalg.norm(x_lu)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4, 8, 12]), k=st.sampled_from([3, 4]),
       log_eps=st.floats(min_value=-8.0, max_value=0.0),
       mesh_kind=st.sampled_from(["shishkin", "uniform"]),
       condense=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_element_form_equals_assembled_matrix(n, k, log_eps, mesh_kind,
                                              condense, seed):
    eps = 10.0 ** log_eps
    mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, mesh_kind=mesh_kind))
    system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                             condense=condense)
    elements, matrix = system.elements, system.matrix
    x = np.random.default_rng(seed).standard_normal(elements.dim)

    scale = np.linalg.norm(abs(matrix) @ np.abs(x))
    assert np.linalg.norm(elements @ x - matrix @ x) <= 1e-14 * scale
    norm = float(abs(matrix).sum(axis=1).max())
    assert abs(elements.norm_inf() - norm) <= 1e-14 * norm
    assert np.array_equal(elements.diagonal(), matrix.diagonal())

    # The fronts of the element form are those of the assembled matrix.
    tree = fill_reducing_ordering(system)
    from_elements = solver._symbolic_phase(elements, tree)
    from_matrix = solver._symbolic_phase(elements_of(matrix), tree)
    assert from_elements.factor_nnz == from_matrix.factor_nnz
    assert all(np.array_equal(a, b)
               for a, b in zip(from_elements.rows, from_matrix.rows))


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4, 8, 12]), k=st.sampled_from([3, 4]),
       log_eps=st.floats(min_value=-8.0, max_value=0.0),
       mesh_kind=st.sampled_from(["shishkin", "uniform"]),
       condense=st.booleans(), single=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_solve_matches_per_node_solve(n, k, log_eps, mesh_kind,
                                              condense, single, seed):
    # The same factor solved group by group and node by node. The order in
    # which a row's updates are summed differs, so the two agree to a few
    # units of round-off: at most 1.4e-15 in double and 5.1e-7 in single
    # precision over these parameters.
    eps = 10.0 ** log_eps
    mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, mesh_kind=mesh_kind))
    system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                             condense=condense)
    elements = system.elements
    tree = fill_reducing_ordering(system)
    scale = solver._power_of_two_scale(elements.diagonal())[tree.perm]
    fronts = solver._symbolic_phase(elements, tree)
    rep, signs = solver._representatives(fronts, tree,
                                         solver._mirror_maps(elements, tree))
    dtype, rtol = (np.float32, 1e-5) if single else (np.float64, 1e-12)
    factor = solver._factor_fronts(
        fronts, tree, scale, solver._plan_workspace(fronts, tree, rep, signs),
        dtype)
    y = np.random.default_rng(seed).standard_normal(elements.dim).astype(dtype)
    _, groups = solver._solve_groups(fronts, tree, rep, signs)
    grouped = solver._front_solve(factor, groups, y.copy())
    per_node = front_solve_per_node(factor, fronts.rows, tree.bounds, y.copy(),
                                    signs)
    assert grouped.dtype == dtype
    assert (np.abs(grouped - per_node).max()
            <= rtol * np.abs(per_node).max())


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4, 8, 12]), k=st.sampled_from([3, 4]),
       log_eps=st.floats(min_value=-8.0, max_value=0.0),
       mesh_kind=st.sampled_from(["shishkin", "uniform"]),
       condense=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_rescales_the_factor_exactly(n, k, log_eps,
                                                         mesh_kind, condense,
                                                         seed):
    # The numeric phase with scale D and with +-2^j D, j in [-6, 6] and a
    # random sign per DOF: every distinct node's L11 and L21 are the first's
    # with row i times +-2^j_i and column i times the sign, bit for bit,
    # since chol(E F E) = E L S_p for E a signed power of two per row and
    # S_p its signs on the pivots. So the unscaled factor d^-1 (L11, L21)
    # is the same up to the signs of rows and pivot columns, and twin
    # children's updates are rescaled and signed on the way.
    eps = 10.0 ** log_eps
    mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, mesh_kind=mesh_kind))
    system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                             condense=condense)
    elements = system.elements
    tree = fill_reducing_ordering(system)
    fronts = solver._symbolic_phase(elements, tree)
    plan = solver._plan_workspace(fronts, tree, *solver._representatives(
        fronts, tree, solver._mirror_maps(elements, tree)))
    scale = solver._power_of_two_scale(elements.diagonal())[tree.perm]
    rng = np.random.default_rng(seed)
    times = np.ldexp(rng.choice([-1.0, 1.0], elements.dim),
                     rng.integers(-6, 7, elements.dim))
    factor = solver._factor_fronts(fronts, tree, scale, plan)
    other = solver._factor_fronts(fronts, tree, scale * times, plan)
    pivots = np.diff(tree.bounds)
    for s in np.flatnonzero(plan.rep == np.arange(plan.rep.size)):
        (l11, l21, d), (m11, m21, e) = factor[s], other[s]
        if l11 is None:
            continue
        p, rows = pivots[s], fronts.rows[s]
        row, sign = times[rows], np.sign(times[rows[:p]])
        # In RFP: entry i of L11 is (packed_rows[i], packed_cols[i]).
        packed_rows, packed_cols = rfp_indices(p)
        assert np.array_equal(e, d * row)
        assert np.array_equal(m11, l11 * row[packed_rows] * sign[packed_cols])
        if l21 is not None:
            assert np.array_equal(m21, l21 * row[p:, None] * sign)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4, 8, 12]), k=st.sampled_from([3, 4]),
       log_eps=st.floats(min_value=-8.0, max_value=0.0),
       mesh_kind=st.sampled_from(["shishkin", "uniform"]),
       condense=st.booleans())
def test_twins_build_signed_images_of_their_representatives(n, k, log_eps,
                                                            mesh_kind,
                                                            condense):
    # Every node is factored on its own, and every twin's front, as built
    # before its factorization, is E F E of its representative's F, bit for
    # bit, with E the ratio of their scales times the twin's signs. So
    # sharing the representative's factor is exact. Mirror twins, whose
    # signs are not all +1, are among them.
    eps = 10.0 ** log_eps
    mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, mesh_kind=mesh_kind))
    system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                             condense=condense)
    elements = system.elements
    tree = fill_reducing_ordering(system)
    fronts = solver._symbolic_phase(elements, tree)
    rep, signs = solver._representatives(fronts, tree,
                                         solver._mirror_maps(elements, tree))
    scale = solver._power_of_two_scale(elements.diagonal())[tree.perm]
    built = assembled_fronts(fronts, tree, scale)
    pivots = np.diff(tree.bounds)
    twins = [s for s in range(rep.size) if rep[s] != s and pivots[s]]
    assert any(signs[s] is not None for s in twins)
    for s in twins:
        r = rep[s]
        e = scale[fronts.rows[s]] / scale[fronts.rows[r]]
        if signs[s] is not None:
            e *= signs[s]
        p = pivots[s]
        for ours, theirs, rows, cols in zip(built[s], built[r],
                                            (e[:p], e[p:], e[p:]),
                                            (e[:p], e[:p], e[p:])):
            assert np.array_equal(ours, rows[:, None] * theirs * cols), s


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([8, 12, 16]), k=st.sampled_from([3, 4]),
       log_eps=st.floats(min_value=-10.0, max_value=0.0),
       mesh_kind=st.sampled_from(["shishkin", "uniform"]),
       condense=st.booleans())
def test_twins_by_height_match_the_per_node_pass(n, k, log_eps, mesh_kind,
                                                 condense):
    # The twins and signs found height by height are those of the per-node
    # pass with bytes keys (conftest.representatives_per_node), translated
    # copies and mirror images alike.
    eps = 10.0 ** log_eps
    mesh = build_mesh(MeshParams(n=n, eps=eps, k=k, mesh_kind=mesh_kind))
    system = assemble_system(mesh, k, eps, ExactSolution(1, eps).forcing,
                             condense=condense)
    elements = system.elements
    assert_same_sharing(elements, fill_reducing_ordering(system))
