"""Gauss-Legendre quadrature on the reference interval [-1, 1]."""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_POINTS = 32


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [-1, 1]; a q-point rule is exact for degree <= 2q-1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return self.nodes.size

    def mapped(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights transplanted to the interval [a, b].

        Array endpoints map many intervals at once (nodes on the last axis).
        Every physical quadrature point in the package comes from this one
        formula, so per-entity and mesh-wide tables sample identical points.
        """
        a = np.asarray(a, dtype=float)[..., None]
        b = np.asarray(b, dtype=float)[..., None]
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights


def gauss_legendre(q: int) -> QuadratureRule:
    """The q-point Gauss-Legendre rule, from ``numpy``'s ``leggauss``:
    nodes ascending and, as that routine symmetrizes them, exactly
    symmetric about 0, like the weights."""
    if not 1 <= q <= MAX_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_POINTS}], got {q}")
    return QuadratureRule(*leggauss(q))
