import numpy as np
import pytest

from conftest import golub_welsch
from wg_shishkin.quadrature import gauss_legendre


def test_one_point_rule_is_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([2.0])


def test_two_point_rule():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert rule.weights == pytest.approx([1.0, 1.0])


def test_three_point_rule():
    rule = gauss_legendre(3)
    assert rule.nodes == pytest.approx([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
    assert rule.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9])


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 10, 16, 32])
def test_polynomial_exactness(q):
    rule = gauss_legendre(q)
    for degree in range(2 * q):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        approx = np.sum(rule.weights * rule.nodes ** degree)
        assert approx == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("q", range(1, 33))
def test_weights_sum_and_symmetry(q):
    rule = gauss_legendre(q)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    assert np.all(rule.nodes == -rule.nodes[::-1])
    assert np.all(rule.weights == rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("q", [2, 5, 12, 20, 32])
def test_matches_reference_implementation(q):
    rule = gauss_legendre(q)
    nodes, weights = golub_welsch(q)
    assert rule.nodes == pytest.approx(nodes, abs=1e-14)
    assert rule.weights == pytest.approx(weights, abs=1e-14)


@pytest.mark.parametrize("q", [0, -3, 33])
def test_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        gauss_legendre(q)


def test_mapped_interval():
    rule = gauss_legendre(4)
    x, w = rule.mapped(0.25, 0.75)
    assert np.sum(w) == pytest.approx(0.5)
    assert np.sum(w * x ** 3) == pytest.approx((0.75 ** 4 - 0.25 ** 4) / 4)
