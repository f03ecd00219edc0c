"""Spans around the calls one module of ``wg_shishkin`` makes into another.

Each traced function is replaced under the name through which its caller
looks it up (``driver.solve_spd``, ``assembly.local_stiffness``, ...), so the
program runs unchanged. A span records its name, start, end, parent span,
the case it belongs to, and the process's peak resident memory on entry and
exit. Spans stay in memory until the run ends.
"""

import resource
import time
from collections import defaultdict


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _ModuleView:
    """Stand-in for a module whose attributes may be replaced one by one
    without touching the module itself."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, record=None) -> None:
        """Replace ``owner.attr`` by a traced call; ``record(args, result)``
        returns extra fields for the span."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "rss_in_mb": peak_rss_mb(), "start": time.perf_counter()}
            span["case"] = (self.spans[span["parent"]]["case"]
                            if span["parent"] is not None else span["id"])
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
                span["rss_out_mb"] = peak_rss_mb()
            if record is not None:
                span.update(record(args, result))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def install(self, wg) -> None:
        """Trace every layer boundary that ``driver.run_case`` crosses."""
        driver, assembly, analytic, solver = (wg.driver, wg.assembly,
                                              wg.analytic, wg.solver)
        self.wrap(driver, "run_case", "driver.run_case")
        self.wrap(driver, "build_mesh", "mesh.build_mesh")
        self.wrap(driver, "assemble_system", "assembly.assemble_system",
                  lambda args, system: {"dim": system.matrix.shape[0],
                                        "nnz": system.matrix.nnz})
        self.wrap(assembly.DofMap, "__init__", "assembly.dofmap")
        for module in (assembly, driver):
            self.wrap(module, "local_stiffness", "weak_ops.local_stiffness",
                      lambda args, ops: {"width_class": repr(args[0].widths)})
        self.wrap(assembly, "project_all_cells", "basis.projection")
        self.wrap(analytic, "project_all_cells", "basis.projection")
        self.wrap(analytic, "project_all_edges", "basis.projection")
        self.wrap(driver, "fill_reducing_ordering", "assembly.ordering")
        self.wrap(driver, "solve_spd", "solver.solve_spd",
                  lambda args, out: {"iterations": out[1].iterations})
        solver.spla = _ModuleView(solver.spla)
        self.wrap(solver.spla, "splu", "solver.factor",
                  lambda args, lu: {"factor_nnz": lu.nnz})
        self.wrap(assembly.SparseSystem, "expand", "assembly.expand")
        self.wrap(driver, "project_exact", "analytic.project_exact")
        self.wrap(driver, "triple_bar_norm", "driver.norm")


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures summed over ``spans``; times are self times."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        self_time[span["name"]] += (span["end"] - span["start"]
                                    - child_time[span["id"]])
        calls[span["name"]] += 1

    def total(name, field):
        return sum(s.get(field, 0) for s in spans if s["name"] == name)

    def rss_growth(name):
        return sum(s["rss_out_mb"] - s["rss_in_mb"] for s in spans
                   if s["name"] == name)

    stiffness_calls = calls["weak_ops.local_stiffness"]
    width_classes = len({(s["case"], s.get("width_class")) for s in spans
                         if s["name"] == "weak_ops.local_stiffness"})
    return {
        "mesh.build_mesh_s": self_time["mesh.build_mesh"],
        "assembly.dofmap_s": self_time["assembly.dofmap"],
        "assembly.assemble_system_self_s": self_time["assembly.assemble_system"],
        "assembly.ordering_s": self_time["assembly.ordering"],
        "assembly.expand_s": self_time["assembly.expand"],
        "assembly.system_dim": total("assembly.assemble_system", "dim"),
        "assembly.system_nnz": total("assembly.assemble_system", "nnz"),
        "assembly.rss_growth_mb": rss_growth("assembly.assemble_system"),
        "weak_ops.local_stiffness_s": self_time["weak_ops.local_stiffness"],
        "weak_ops.local_stiffness_calls": stiffness_calls,
        "weak_ops.width_classes": width_classes,
        "weak_ops.useful_call_ratio": (width_classes / stiffness_calls
                                       if stiffness_calls else 1.0),
        "basis.projection_s": self_time["basis.projection"],
        "analytic.project_exact_self_s": self_time["analytic.project_exact"],
        "solver.solve_spd_s": self_time["solver.solve_spd"],
        "solver.factor_s": self_time["solver.factor"],
        "solver.factor_nnz": total("solver.factor", "factor_nnz"),
        "solver.pcg_iterations": total("solver.solve_spd", "iterations"),
        "solver.rss_growth_mb": rss_growth("solver.solve_spd"),
        "driver.norm_self_s": self_time["driver.norm"],
        "driver.run_case_self_s": self_time["driver.run_case"],
    }
