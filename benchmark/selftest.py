"""Self-test of the benchmark's checks: they pass on real results and catch
wrong ones.

    python3 benchmark/selftest.py

Runs eight small cases (a few seconds), then hands the checks altered copies
of their errors, a round in which one case raises, and a traced round whose
error differs in the last bit. Exits with 0 only if every wrong result is
caught and no right one is flagged.
"""

import math
import sys
from types import SimpleNamespace

from checks import check_errors
from run import differing_errors, round_errors, tally
from worker import import_package, run_round
from workloads import Case

#: Published cases (Table 1 at eps = 1 and 1e-3, Table 3 at eps = 1) and the
#: uniform-mesh twins that only the property checks hold.
CASES = [Case(example, mesh_kind, k, eps, n, quad)
         for example, mesh_kind, k, quad, eps in (
             (1, "shishkin", 3, None, 1.0), (1, "uniform", 3, None, 1.0),
             (1, "shishkin", 3, None, 1e-3), (1, "shishkin", 4, 5, 1.0))
         for n in (8, 16)]


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    wg = import_package()
    driver = wg.driver
    rnd = run_round(CASES, driver)
    errors = {Case(**r["case"]): r["error"] for r in rnd["cases"]}
    expect(all(r["raised"] is None for r in rnd["cases"]), "every case runs")
    expect(check_errors(errors) == {}, "the checks pass on the real errors")

    for case in CASES:
        for factor in (1.1, 0.9):
            altered = dict(errors)
            altered[case] *= factor
            expect(bool(check_errors(altered)),
                   f"an error off by {factor - 1:+.0%} is caught: {case.key}")

    wrong_round = {**rnd, "cases": [dict(r) for r in rnd["cases"]]}
    wrong_round["cases"][0]["error"] *= 1.1
    attempted, raised, wrong = tally([wrong_round])
    expect(attempted == len(CASES) and not raised and len(wrong) >= 1,
           "a wrong error counts as a failed case")

    failing = CASES[1]

    def run_case(config, eps, n):
        if (config.mesh_kind, config.k, eps, n) == (failing.mesh_kind, failing.k,
                                                     failing.eps, failing.n):
            raise wg.SolverError("injected failure")
        return driver.run_case(config, eps, n)

    raising = run_round(CASES, SimpleNamespace(RunConfig=driver.RunConfig,
                                               run_case=run_case))
    attempted, raised, wrong = tally([raising])
    expect(attempted == len(CASES) and len(raised) == 1 and not wrong,
           "a case that raises counts as failed and the round goes on")

    nudged = {**rnd, "cases": [dict(r) for r in rnd["cases"]]}
    nudged["cases"][-1]["error"] = math.nextafter(nudged["cases"][-1]["error"],
                                                  math.inf)
    expect(differing_errors(round_errors(rnd), round_errors(nudged))
           == [CASES[-1].key], "a traced error one bit off is caught")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
