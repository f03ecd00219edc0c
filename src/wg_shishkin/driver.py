"""Convergence studies: discrete energy norm, case runner, order tables, CSV.

The reported error is the energy norm of (projection of u) - (discrete
solution), exactly the quantity tabulated in convergence studies of this
scheme; the order printed with mesh size N is log2(error(N) / error(2N)).
"""

import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace

import numpy as np

from .analytic import ExactSolution, project_exact
from .assembly import DofMap, assemble_system, fill_reducing_ordering
from .mesh import MeshParams, ShishkinMesh, build_mesh
from .solver import solve_spd
from .weak_ops import local_stiffness

CSV_HEADER = ("example", "mesh", "k", "eps", "N", "error", "order", "error_full")

#: Tolerance of every case solve, orders below every tabulated case's
#: discretization error: pcg stops at |b - Ax| / |b| <= CASE_TOL, which at
#: 1e-12 would lie below that residual's round-off floor once the
#: eps^2-weighted fourth-order terms dominate, so more cases would fall back.
CASE_TOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """One sweep: a list of eps values crossed with a doubling chain of N."""

    example: int
    k: int
    eps_list: tuple[float, ...]
    n_list: tuple[int, ...]
    mesh_kind: str = "shishkin"
    alpha: float | None = None
    quad: int | None = None
    method: str = "direct"
    condense: str = "auto"  # auto | on | off

    def __post_init__(self):
        for n in self.n_list:
            if n % 4 != 0:
                raise ValueError(f"every N must be divisible by 4, got {n}")
        if self.condense not in ("auto", "on", "off"):
            raise ValueError(f"condense must be auto/on/off, got {self.condense}")


@dataclass(frozen=True)
class ConvergenceRecord:
    example: int
    mesh_kind: str
    k: int
    eps: float
    n: int
    error: float
    order: float | None = None


def triple_bar_norm(coeffs: np.ndarray, mesh: ShishkinMesh, k: int, eps: float,
                    dofmap: DofMap | None = None, ops: dict | None = None) -> float:
    """Discrete energy norm sqrt(eps^2 |Lap_w v|^2 + |grad_w v|^2 + s(v, v))
    of a free-DOF coefficient vector (constrained entries are zero). ``ops``
    maps each width class to its local operators, as the assembly builds
    them (``SparseSystem.ctx.ops``); missing, they are built here."""
    if dofmap is None:
        dofmap = DofMap(mesh, k)
    if coeffs.size != dofmap.n_free:
        raise ValueError(f"expected {dofmap.n_free} free coefficients, "
                         f"got {coeffs.size}")
    raw = dofmap.expand_free(coeffs)
    total = 0.0
    for widths, cells in mesh.width_classes().items():
        op = (ops[widths] if ops is not None else
              local_stiffness(mesh.cell(cells[0]), k, eps, mesh.h_fine,
                              mesh.h_coarse))
        local = raw[dofmap.cell_dofs[cells]]
        total += eps * eps * float(np.sum((local @ op.L.T) ** 2))
        total += float(np.sum((local @ op.G.T) ** 2))
        total += float(np.sum((local @ op.S) * local))
    return math.sqrt(max(total, 0.0))


def run_case(config: RunConfig, eps: float, n: int) -> ConvergenceRecord:
    """Build, assemble, solve and measure one (eps, N) case."""
    params = MeshParams(n=n, eps=eps, k=config.k, alpha=config.alpha,
                        mesh_kind=config.mesh_kind)
    mesh = build_mesh(params)
    solution = ExactSolution(config.example, eps)
    condense = config.condense == "on" or (config.condense == "auto" and n >= 64)
    system = assemble_system(mesh, config.k, eps, solution.forcing,
                             q=config.quad, condense=condense)
    # Both methods factor the element form on its tree: no CSR is built.
    x, _ = solve_spd(system.elements, system.rhs, method=config.method,
                     tol=CASE_TOL, tree=fill_reducing_ordering(system))
    numeric = system.expand(x)
    projected = project_exact(mesh, config.k, config.example, eps,
                              q=config.quad, dofmap=system.dofmap)
    error = triple_bar_norm(projected[system.dofmap.free_raw] - numeric,
                            mesh, config.k, eps, dofmap=system.dofmap,
                            ops=system.ctx.ops)
    return ConvergenceRecord(example=config.example, mesh_kind=config.mesh_kind,
                             k=config.k, eps=eps, n=n, error=error)


def _run_case_timed(case):
    start = time.perf_counter()
    record = run_case(*case)
    return record, time.perf_counter() - start


def convergence_table(config: RunConfig, jobs: int = 1,
                      progress=None) -> list[ConvergenceRecord]:
    """Run the whole sweep and attach orders between consecutive N.

    ``progress(record, seconds)`` is called as each case finishes, in the
    order they finish when ``jobs > 1``."""
    ns = list(config.n_list)
    if sorted(ns) != ns or any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"N list must be an increasing doubling chain, got {ns}")
    cases = [(config, eps, n) for eps in config.eps_list for n in ns]
    results = []

    def finished(record, seconds):
        if progress is not None:
            progress(record, seconds)
        results.append(record)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_case_timed, case) for case in cases]
            for future in as_completed(futures):
                finished(*future.result())
    else:
        for case in cases:
            finished(*_run_case_timed(case))

    by_key = {(r.eps, r.n): r for r in results}
    records = []
    for eps in config.eps_list:
        for n in ns:
            record = by_key[(eps, n)]
            partner = by_key.get((eps, 2 * n))
            if partner is not None and partner.error > 0.0 and record.error > 0.0:
                record = replace(record,
                                 order=math.log2(record.error / partner.error))
            records.append(record)
    return records


def write_csv(records, stream=None) -> None:
    """Emit records with 3-significant-digit errors plus a full-precision
    column; header: example,mesh,k,eps,N,error,order,error_full."""
    out = sys.stdout if stream is None else stream
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            r.example, r.mesh_kind, r.k, f"{r.eps:.0e}", r.n,
            f"{r.error:.2e}", "" if r.order is None else f"{r.order:.2f}",
            repr(float(r.error)),
        ])


_EPS_K3 = tuple(10.0 ** -i for i in range(8))
_EPS_K4 = tuple(10.0 ** -i for i in range(7))
_N_K3 = (8, 16, 32, 64, 128)
_N_K4 = (8, 16, 32, 64)

#: Presets reproducing the published convergence tables. The k=4 tables pin
#: a 5-point rule: their coarse-N entries carry the layer-quadrature
#: signature of a (k+1)-point rule, and a higher-order rule shifts them by
#: up to 5%.
TABLE_PRESETS = {
    "table1": RunConfig(example=1, k=3, eps_list=_EPS_K3, n_list=_N_K3),
    "table2": RunConfig(example=1, k=3, eps_list=_EPS_K3, n_list=_N_K3,
                        mesh_kind="uniform"),
    "table3": RunConfig(example=1, k=4, eps_list=_EPS_K4, n_list=_N_K4,
                        quad=5),
    "table4": RunConfig(example=2, k=3, eps_list=_EPS_K3, n_list=_N_K3,
                        mesh_kind="uniform"),
    "table5": RunConfig(example=2, k=3, eps_list=_EPS_K3, n_list=_N_K3),
    "table6": RunConfig(example=2, k=4, eps_list=_EPS_K4, n_list=_N_K4,
                        quad=5),
}
