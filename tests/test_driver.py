import io
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import wg_shishkin.driver as driver
import wg_shishkin.solver as solver
from wg_shishkin.analytic import ExactSolution, project_exact
from wg_shishkin.assembly import DofMap, assemble_system
from wg_shishkin.driver import (TABLE_PRESETS, ConvergenceRecord, RunConfig,
                                convergence_table, run_case, triple_bar_norm,
                                write_csv)
from wg_shishkin.mesh import MeshParams, build_mesh

RNG = np.random.default_rng(5)


class TestTripleBarNorm:
    def test_zero_vector(self, mesh_n4_eps1e2):
        dofmap = DofMap(mesh_n4_eps1e2, 3)
        assert triple_bar_norm(np.zeros(dofmap.n_free), mesh_n4_eps1e2, 3,
                               1e-2) == 0.0

    def test_equals_quadratic_form(self, mesh_n8_eps1e2):
        eps = 1e-2
        sol = ExactSolution(1, eps)
        system = assemble_system(mesh_n8_eps1e2, 3, eps, sol.forcing)
        for _ in range(5):
            v = RNG.standard_normal(system.dofmap.n_free)
            norm = triple_bar_norm(v, mesh_n8_eps1e2, 3, eps,
                                   dofmap=system.dofmap)
            assert norm ** 2 == pytest.approx(v @ (system.matrix @ v),
                                              rel=1e-12)

    def test_projected_polynomial_against_sobolev_oracle(self):
        # For u in Q_4 with k=4 every projection is exact and the stabilizer
        # vanishes, so the discrete norm reduces to
        # sqrt(eps^2 |lap u|^2 + |grad u|^2); here eps = 1.
        mesh = build_mesh(MeshParams(n=8, eps=1.0, k=4))
        dofmap = DofMap(mesh, 4)
        raw = project_exact(mesh, 4, 0, 1.0, dofmap=dofmap)
        value = triple_bar_norm(raw[dofmap.free_raw], mesh, 4, 1.0,
                                dofmap=dofmap)
        sol = ExactSolution(0, 1.0)
        t, w = leggauss(20)
        x = (t + 1) / 2
        W = np.outer(w, w) / 4
        X, Y = np.meshgrid(x, x, indexing="ij")
        lap = sol.partial(X, Y, 2, 0) + sol.partial(X, Y, 0, 2)
        grad2 = sol.partial(X, Y, 1, 0) ** 2 + sol.partial(X, Y, 0, 1) ** 2
        oracle = math.sqrt(float(np.sum(W * (lap ** 2 + grad2))))
        assert value == pytest.approx(oracle, rel=1e-11)

    def test_dimension_mismatch_rejected(self, mesh_n4_eps1e2):
        with pytest.raises(ValueError):
            triple_bar_norm(np.zeros(3), mesh_n4_eps1e2, 3, 1e-2)


class TestRunCase:
    def test_matches_published_value(self):
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8,))
        record = run_case(config, 1.0, 8)
        assert record.error == pytest.approx(1.01e-3, rel=0.05)
        assert record.order is None

    def test_deterministic(self):
        config = RunConfig(example=2, k=3, eps_list=(1e-2,), n_list=(8,))
        first = run_case(config, 1e-2, 8)
        second = run_case(config, 1e-2, 8)
        assert first.error == second.error

    def test_shishkin_equals_uniform_when_lambda_clamps(self):
        shishkin = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8,))
        uniform = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8,),
                            mesh_kind="uniform")
        assert run_case(shishkin, 1.0, 8).error == run_case(uniform, 1.0, 8).error


    def test_rejects_quadrature_below_k_plus_one(self):
        config = RunConfig(example=1, k=3, eps_list=(1e-2,), n_list=(8,), quad=2)
        with pytest.raises(ValueError, match="at least 4 points"):
            run_case(config, 1e-2, 8)

    @pytest.mark.parametrize("condense", ["on", "off"])
    def test_direct_case_never_calls_superlu(self, monkeypatch, condense):
        def splu(*args, **kwargs):
            raise AssertionError("a mesh system was factored by SuperLU")

        monkeypatch.setattr(solver.spla, "splu", splu)
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8,),
                           condense=condense)
        assert run_case(config, 1.0, 8).error == pytest.approx(1.01e-3, rel=0.05)

    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_memory_failure_raises_before_numeric_work(self, monkeypatch,
                                                       method):
        # An N=8 case plans a workspace of about 266k entries: neither
        # precision fits in 256 KiB, so pcg's double-precision fallback
        # raises too.
        def numeric(*args):
            raise AssertionError("numeric factorization started")

        monkeypatch.setattr(solver, "_physical_memory", lambda: 1 << 18)
        monkeypatch.setattr(solver, "_factor_fronts", numeric)
        config = RunConfig(example=1, k=3, eps_list=(1e-2,), n_list=(8,),
                           method=method)
        with pytest.raises(solver.SolverError, match="physical memory"):
            run_case(config, 1e-2, 8)

    @pytest.mark.parametrize("method", ["direct", "pcg"])
    @pytest.mark.parametrize("condense", ["on", "off"])
    def test_direct_case_never_builds_the_matrix(self, monkeypatch, condense,
                                                 method):
        def to_csr(self):
            raise AssertionError(f"a {method} case assembled the CSR matrix")

        monkeypatch.setattr(solver.ElementMatrix, "to_csr", to_csr)
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8,),
                           condense=condense, method=method)
        assert run_case(config, 1.0, 8).error == pytest.approx(1.01e-3, rel=0.05)

    @pytest.mark.parametrize("eps, n", [(1.0, 32), (0.1, 64)])
    def test_pcg_case_matches_direct(self, eps, n):
        # eps=1, N=32: the round-off floor of |b - Ax| / |b| (2.8e-10) lies
        # above RunConfig.tol. eps=0.1, N=64: a diagonal preconditioner
        # stagnates above the floor after thousands of iterations.
        errors = {}
        for method in ("direct", "pcg"):
            config = RunConfig(example=1, k=3, eps_list=(eps,), n_list=(n,),
                               condense="on", method=method)
            errors[method] = run_case(config, eps, n).error
        gap = abs(errors["pcg"] - errors["direct"]) / errors["direct"]
        assert gap <= 1e-9, f"pcg/direct error gap {gap:.2e}"


class TestConvergenceTable:
    def test_progress_once_per_case_in_parallel(self):
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8, 16))
        calls = []
        records = convergence_table(
            config, jobs=2, progress=lambda record, seconds: calls.append(
                (record.n, seconds)))
        assert sorted(n for n, _ in calls) == [8, 16]
        assert all(seconds > 0.0 for _, seconds in calls)
        serial = convergence_table(config)
        assert [r.error for r in records] == pytest.approx(
            [r.error for r in serial], rel=1e-12)


    def test_order_convention(self, monkeypatch):
        canned = {(1.0, 8): 1.01e-3, (1.0, 16): 2.61e-4}

        def fake_run_case(config, eps, n):
            return ConvergenceRecord(example=config.example,
                                     mesh_kind=config.mesh_kind, k=config.k,
                                     eps=eps, n=n, error=canned[(eps, n)])

        monkeypatch.setattr(driver, "run_case", fake_run_case)
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8, 16))
        records = convergence_table(config)
        assert records[0].order == pytest.approx(math.log2(1.01e-3 / 2.61e-4),
                                                 abs=1e-12)
        assert records[0].order == pytest.approx(1.952, abs=5e-4)
        assert records[1].order is None

    def test_equal_errors_give_zero_order(self, monkeypatch):
        monkeypatch.setattr(
            driver, "run_case",
            lambda config, eps, n: ConvergenceRecord(
                example=1, mesh_kind="shishkin", k=3, eps=eps, n=n, error=0.5))
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8, 16))
        records = convergence_table(config)
        assert records[0].order == 0.0

    def test_rejects_non_doubling_chain(self):
        config = RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(8, 24))
        with pytest.raises(ValueError):
            convergence_table(config)

    def test_rejects_n_not_divisible_by_four(self):
        with pytest.raises(ValueError):
            RunConfig(example=1, k=3, eps_list=(1.0,), n_list=(10,))


class TestCsv:
    def test_schema_and_formatting(self):
        records = [
            ConvergenceRecord(example=1, mesh_kind="shishkin", k=3, eps=1e-2,
                              n=8, error=1.1697e-2, order=0.863),
            ConvergenceRecord(example=1, mesh_kind="shishkin", k=3, eps=1e-2,
                              n=16, error=6.43e-3),
        ]
        buffer = io.StringIO()
        write_csv(records, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "example,mesh,k,eps,N,error,order,error_full"
        first = lines[1].split(",")
        assert first[:7] == ["1", "shishkin", "3", "1e-02", "8", "1.17e-02",
                             "0.86"]
        assert float(first[7]) == 1.1697e-2
        assert lines[2].split(",")[6] == ""  # no order on the last N


class TestPresets:
    def test_all_six_tables_defined(self):
        assert sorted(TABLE_PRESETS) == [f"table{i}" for i in range(1, 7)]
        assert TABLE_PRESETS["table1"].example == 1
        assert TABLE_PRESETS["table2"].mesh_kind == "uniform"
        assert TABLE_PRESETS["table3"].k == 4
        assert TABLE_PRESETS["table4"] == RunConfig(
            example=2, k=3, eps_list=TABLE_PRESETS["table4"].eps_list,
            n_list=(8, 16, 32, 64, 128), mesh_kind="uniform")
        assert TABLE_PRESETS["table5"].mesh_kind == "shishkin"
        assert TABLE_PRESETS["table6"].example == 2
        for name in ("table3", "table6"):
            assert TABLE_PRESETS[name].n_list[-1] == 64
