"""Checks of case errors made apart from the program.

Where the paper publishes a value (Table 1 in full, Tables 3 and 6 at
eps in {1, 1e-3}) a case's error must lie within 5% of it and the order
between N and 2N within 0.05 of the published order. Elsewhere the checks
are properties the method must have: at eps = 1 the Shishkin transition
point is 1/4, so a uniform-mesh case equals its Shishkin twin, and the rate
from N = 8 to N = 16 is k - 1.
"""

import math
from dataclasses import replace

from workloads import Case

_N_CHAIN = (8, 16, 32, 64, 128)

# Per eps: errors over the N chain and the order printed with the smaller N
# of each pair.
_TABLE1_EX1_K3 = {
    1e-0: ([1.01e-3, 2.61e-4, 6.58e-5, 1.65e-5, 4.12e-6], [1.96, 1.99, 2.00, 2.00]),
    1e-1: ([3.77e-3, 1.06e-3, 2.75e-4, 6.94e-5, 1.74e-5], [1.83, 1.95, 1.99, 2.00]),
    1e-2: ([1.17e-2, 6.43e-3, 3.03e-3, 1.25e-3, 4.59e-4], [0.86, 1.09, 1.28, 1.44]),
    1e-3: ([3.81e-3, 2.08e-3, 9.73e-4, 4.00e-4, 1.46e-4], [0.87, 1.10, 1.28, 1.45]),
    1e-4: ([1.22e-3, 6.59e-4, 3.08e-4, 1.27e-4, 4.64e-5], [0.89, 1.10, 1.28, 1.45]),
    1e-5: ([4.18e-4, 2.09e-4, 9.75e-5, 4.01e-5, 1.47e-5], [1.00, 1.10, 1.28, 1.45]),
    1e-6: ([2.09e-4, 6.71e-5, 3.09e-5, 1.27e-5, 4.64e-6], [1.64, 1.12, 1.28, 1.45]),
    1e-7: ([1.74e-4, 2.44e-5, 9.84e-6, 4.01e-6, 1.47e-6], [2.84, 1.31, 1.29, 1.45]),
}
_TABLE3_EX1_K4 = {
    1e-0: ([3.07e-5, 3.90e-6, 4.89e-7, 6.12e-8], [2.98, 3.00, 3.00]),
    1e-3: ([1.98e-3, 8.29e-4, 2.66e-4, 6.77e-5], [1.26, 1.64, 1.97]),
}
_TABLE6_EX2_K4 = {
    1e-0: ([3.84e-6, 4.86e-7, 6.09e-8, 7.62e-9], [2.98, 3.00, 3.00]),
    1e-3: ([3.57e-3, 1.49e-3, 4.79e-4, 1.22e-4], [1.26, 1.64, 1.97]),
}

#: Published tables by (example, mesh kind, k, quadrature points). Tables 3
#: and 6 were computed with a 5-point rule, so they hold only for cases that
#: use one.
_PUBLISHED = {
    (1, "shishkin", 3, None): _TABLE1_EX1_K3,
    (1, "shishkin", 4, 5): _TABLE3_EX1_K4,
    (2, "shishkin", 4, 5): _TABLE6_EX2_K4,
}

ERROR_RTOL = 0.05
ORDER_ATOL = 0.05
#: How far the eps = 1 rate from N = 8 to 16 may sit from k - 1; the
#: published ones are 1.96 (k = 3) and 2.98 (k = 4).
RATE_ATOL = 0.1
#: Relative distance allowed between a uniform-mesh case at eps = 1 and its
#: Shishkin twin: the two meshes are the same, so only round-off may differ.
TWIN_RTOL = 1e-10


def _published(case: Case):
    row = _PUBLISHED.get((case.example, case.mesh_kind, case.k, case.quad), {})
    errors_orders = row.get(case.eps)
    if errors_orders is None or case.n not in _N_CHAIN:
        return None, None
    errors, orders = errors_orders
    i = _N_CHAIN.index(case.n)
    return (errors[i] if i < len(errors) else None,
            orders[i] if i < len(orders) else None)


def check_errors(errors: dict[Case, float]) -> dict[Case, list[str]]:
    """Map each case whose error fails a check to what it failed.

    ``errors`` holds the cases that ran without raising. A check that pairs
    two cases is charged to the finer (or the uniform-mesh) one.
    """
    problems: dict[Case, list[str]] = {case: [] for case in errors}
    for case, error in errors.items():
        if not (math.isfinite(error) and error > 0.0):
            problems[case].append(f"error {error!r} is not a positive number")
            continue
        reference, reference_order = _published(case)
        if reference is not None and abs(error / reference - 1.0) > ERROR_RTOL:
            problems[case].append(f"error {error:.4e} is not within "
                                  f"{ERROR_RTOL:.0%} of published {reference:.2e}")
        finer = replace(case, n=2 * case.n)
        finer_error = errors.get(finer)
        if finer_error is not None and math.isfinite(finer_error) and finer_error > 0.0:
            order = math.log2(error / finer_error)
            if reference_order is not None and abs(order - reference_order) > ORDER_ATOL:
                problems[finer].append(f"order {order:.3f} from N={case.n} is not "
                                       f"within {ORDER_ATOL} of published "
                                       f"{reference_order:.2f}")
            if case.eps == 1.0 and case.n == 8 and abs(order - (case.k - 1)) > RATE_ATOL:
                problems[finer].append(f"eps=1 rate {order:.3f} from N=8 is not "
                                       f"within {RATE_ATOL} of k-1 = {case.k - 1}")
        if case.mesh_kind == "uniform" and case.eps == 1.0:
            twin = errors.get(replace(case, mesh_kind="shishkin"))
            if twin is not None and abs(error - twin) > TWIN_RTOL * abs(twin):
                problems[case].append(f"eps=1 uniform error {error!r} differs "
                                      f"from the Shishkin one {twin!r}")
    return {case: found for case, found in problems.items() if found}

