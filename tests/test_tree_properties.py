"""Property tests of the nested-dissection tree, the element form and the
multifrontal solve over the parameter envelope: N, k, eps, alpha, both mesh
kinds, condensed or not. The reference solve is SuperLU on the assembled
matrix (``conftest.superlu_solve``), a test oracle independent of the
package's tree factorization."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements_of, superlu_solve
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
