"""The benchmark's workloads: fixed lists of cases, one case being one
(example, k, eps, N) run through ``wg_shishkin.driver.run_case``.

Standard library only, so that the orchestrator can read a workload without
importing the package it measures.
"""

from dataclasses import asdict, dataclass

_EPS_K3 = tuple(10.0 ** -i for i in range(8))
_EPS_K4 = tuple(10.0 ** -i for i in range(7))

#: (example, mesh kind, k, quad, eps list) of the six table presets of
#: ``wg_shishkin.driver.TABLE_PRESETS``, restated so that the workload stays
#: the same if a preset is changed.
_TABLES = {
    "table1": (1, "shishkin", 3, None, _EPS_K3),
    "table2": (1, "uniform", 3, None, _EPS_K3),
    "table3": (1, "shishkin", 4, 5, _EPS_K4),
    "table4": (2, "uniform", 3, None, _EPS_K3),
    "table5": (2, "shishkin", 3, None, _EPS_K3),
    "table6": (2, "shishkin", 4, 5, _EPS_K4),
}


@dataclass(frozen=True)
class Case:
    example: int
    mesh_kind: str
    k: int
    eps: float
    n: int
    quad: int | None = None
    method: str = "direct"
    condense: str = "auto"

    @property
    def key(self) -> str:
        quad = "" if self.quad is None else f" quad={self.quad}"
        return (f"ex{self.example} {self.mesh_kind} k={self.k} eps={self.eps:.0e}"
                f" N={self.n}{quad} {self.method} condense={self.condense}")

    def as_dict(self) -> dict:
        return asdict(self)


def _tables_coarse() -> list[Case]:
    return [Case(example, mesh_kind, k, eps, n, quad)
            for example, mesh_kind, k, quad, eps_list in _TABLES.values()
            for eps in eps_list for n in (8, 16)]


WORKLOADS: dict[str, list[Case]] = {
    # Every table preset at N in {8, 16}: small uncondensed direct solves,
    # where mesh, DOF map, local operators, assembly and the norm are about
    # 40% of the time. BENCHMARK.json leaves it out: its systems fit in
    # cache, so on a shared host its time follows the host's clock speed
    # (medians of ten runs 22% apart a quarter of an hour later), which no
    # bound of 25% or less holds. Its traced run still shows those layers.
    "tables-coarse": _tables_coarse(),
    # The north-star case and the largest k=4 case: condensed direct solves
    # whose time and memory are mostly the SuperLU factorization.
    "direct-large": [
        Case(1, "shishkin", 3, 1e-4, 128, condense="on"),
        Case(1, "shishkin", 4, 1e-3, 64, quad=5, condense="on"),
    ],
    # Jacobi PCG on condensed systems at the default tolerance: no ordering,
    # no factorization, memory-bound sparse mat-vecs.
    "pcg-condensed": [
        Case(1, "shishkin", 3, eps, n, method="pcg", condense="on")
        for eps in (1e-3, 1e-6) for n in (32, 64)
    ],
}

#: The case run before the first timed case of every worker process. It
#: loads the lazily imported parts of NumPy and SciPy and touches every stage
#: of a condensed direct solve; it is neither counted nor checked.
WARMUP = Case(1, "shishkin", 3, 1e-2, 8, condense="on")
