"""One benchmark process: imports ``wg_shishkin`` from the checkout's
``src``, runs the warm-up case, then whole rounds of a workload's cases, and
prints one JSON line with what it measured.

    python3 benchmark/worker.py --workload NAME --seconds S [--trace SPANS.json]
    python3 benchmark/worker.py --setup-only

Run by ``run.py``, which sets the BLAS thread count.
"""

import argparse
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics, peak_rss_mb
from workloads import WARMUP, WORKLOADS, Case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """The package under ``src`` of this checkout, and no other copy."""
    sys.path.insert(0, str(SRC))
    wg = importlib.import_module("wg_shishkin")
    if Path(wg.__file__).resolve().parent != SRC / "wg_shishkin":
        raise ImportError(f"wg_shishkin was imported from {wg.__file__}, "
                          f"not from {SRC}")
    return wg


def run_round(cases: list[Case], driver) -> dict:
    """Run each case once through ``driver.run_case``; a case that raises is
    recorded and the round goes on. ``wall_s`` sums the cases' own times."""
    results = []
    for case in cases:
        config = driver.RunConfig(
            example=case.example, k=case.k, eps_list=(case.eps,),
            n_list=(case.n,), mesh_kind=case.mesh_kind, quad=case.quad,
            method=case.method, condense=case.condense)
        start = time.perf_counter()
        try:
            error, raised = driver.run_case(config, case.eps, case.n).error, None
        except Exception as exc:  # one failed case must not end the round
            traceback.print_exc(file=sys.stderr)
            error, raised = None, f"{type(exc).__name__}: {exc}"
        results.append({"case": case.as_dict(), "error": error, "raised": raised,
                        "seconds": time.perf_counter() - start})
    return {"wall_s": sum(r["seconds"] for r in results), "cases": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting rounds until this much time has "
                             "passed; at least one round runs")
    parser.add_argument("--trace", metavar="SPANS.json", default=None,
                        help="trace one round and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up case")
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required unless --setup-only is given")

    wg = import_package()
    driver = wg.driver
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install(wg)
    warmup = run_round([WARMUP], driver)["cases"][0]
    if warmup["raised"] is not None:
        print(f"warm-up case failed: {warmup['raised']}", file=sys.stderr)
        return 1
    out = {"ready": time.monotonic()}
    if not args.setup_only:
        cases = WORKLOADS[args.workload]
        rounds = []
        start = time.perf_counter()
        while not rounds or (tracer is None
                             and time.perf_counter() - start < args.seconds):
            rounds.append(run_round(cases, driver))
        out["rounds"] = rounds
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.spans))
        out["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
