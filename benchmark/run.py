"""The repository's benchmark: runs one workload in fresh processes, checks
every case's error, and prints one JSON line of metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The workloads are fixed lists of cases
(see ``workloads.py``); ``--seed`` is recorded but changes no input.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced process next to an untraced one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_errors
from tracing import layer_unit
from workloads import WORKLOADS, Case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Processes that only import and warm up, timed for ``setup_s`` besides
#: the one that runs the workload.
SETUP_PROBES = 4
#: The whole run, workers included, ends within this many seconds.
BUDGET_S = 170.0
#: Fixed so that PCG iteration counts and round-off repeat from run to run
#: (they shift between one and two OpenBLAS threads), and because a second
#: thread makes no case of these workloads faster on two cores.
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to its end and return its result, with ``setup_s``
    measured from just before the process was started."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=_worker_env(),
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def tally(rounds: list[dict]) -> tuple[int, list[str], list[str]]:
    """Cases attempted, and what went wrong with each case that raised and
    with each whose result failed a check."""
    attempted = 0
    raised, wrong = [], []
    for rnd in rounds:
        errors = {}
        for result in rnd["cases"]:
            case = Case(**result["case"])
            attempted += 1
            if result["raised"] is not None:
                raised.append(f"{case.key}: raised {result['raised']}")
            else:
                errors[case] = result["error"]
        wrong += [f"{case.key}: wrong result: {'; '.join(found)}"
                  for case, found in check_errors(errors).items()]
    return attempted, raised, wrong


def round_errors(rnd: dict) -> dict[str, float | None]:
    return {Case(**r["case"]).key: r["error"] for r in rnd["cases"]}


def differing_errors(a: dict, b: dict) -> list[str]:
    """Cases whose errors are not bit for bit the same in two rounds."""
    return [key for key in a.keys() | b.keys()
            if repr(a.get(key)) != repr(b.get(key))]


def best_wall(rounds: list[dict]) -> float:
    """Sum over cases of each case's fastest time among ``rounds``: the
    shared machine slows whole seconds at a time, and the fastest repeat of
    a case is the one least slowed."""
    fastest: dict[str, float] = {}
    for rnd in rounds:
        for r in rnd["cases"]:
            key = Case(**r["case"]).key
            fastest[key] = min(fastest.get(key, r["seconds"]), r["seconds"])
    return sum(fastest.values())


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "wg_shishkin" / "__init__.py").is_file():
        print(f"no wg_shishkin package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = ["--workload", args.workload]

    try:
        if args.trace == 0:
            setups = [spawn(["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            untraced = spawn([*workload, "--seconds", str(args.seconds)], deadline)
            setups.append(untraced["setup_s"])
            workers = [untraced]
        else:
            untraced = spawn(workload, deadline)
            spans = OUT / f"spans-{stem}.json"
            traced = spawn([*workload, "--trace", str(spans)], deadline)
            workers = [untraced, traced]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    rounds = [rnd for worker in workers for rnd in worker["rounds"]]
    attempted, raised, wrong = tally(rounds)
    if args.trace == 0:
        metrics = {
            "wall_s": _metric(best_wall(untraced["rounds"]), "s"),
            "peak_rss_mb": _metric(untraced["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
    else:
        mismatched = differing_errors(round_errors(untraced["rounds"][0]),
                                      round_errors(traced["rounds"][0]))
        wrong += [f"{key}: traced error differs from untraced"
                  for key in mismatched]
        metrics = {name: _metric(value, layer_unit(name))
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_s"] = _metric(
            traced["rounds"][0]["wall_s"] - untraced["rounds"][0]["wall_s"], "s")

    for problem in raised + wrong:
        print(problem, file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted,
              "failed": len(raised) + len(wrong), "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
