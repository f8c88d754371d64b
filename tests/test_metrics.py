"""Assignment solver and OSPA metric."""

import itertools
import math

import numpy as np
import pytest

from ppdiv import OspaParams, PointPattern, optimal_assignment, ospa
from ppdiv.validate import brute_force_assignment


def test_assignment_two_by_two():
    pairs, total = optimal_assignment([[1.0, 2.0], [3.0, 0.5]])
    assert total == pytest.approx(1.5)
    assert sorted(map(tuple, pairs)) == [(0, 0), (1, 1)]
    pairs, total = optimal_assignment([[10.0, 1.0], [1.0, 10.0]])
    assert total == pytest.approx(2.0)
    assert sorted(map(tuple, pairs)) == [(0, 1), (1, 0)]


def test_assignment_matches_brute_force():
    gen = np.random.default_rng(5)
    for _ in range(10):
        cost = gen.uniform(0.0, 10.0, size=(6, 6))
        pairs, total = optimal_assignment(cost)
        perm, best = brute_force_assignment(cost)
        assert total == pytest.approx(best, rel=1e-12)
        assert pairs.shape == (6, 2)
        assert total == pytest.approx(cost[pairs[:, 0], pairs[:, 1]].sum())


def test_assignment_rectangular():
    cost = np.array([[4.0, 1.0, 9.0], [2.0, 8.0, 3.0]])
    pairs, total = optimal_assignment(cost)
    assert pairs.shape == (2, 2)
    # All injective row-to-column maps, exhaustively.
    best = min(
        cost[0, c0] + cost[1, c1]
        for c0, c1 in itertools.permutations(range(3), 2)
    )
    assert total == pytest.approx(best)


def test_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        optimal_assignment(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        optimal_assignment([1.0, 2.0])
    with pytest.raises(ValueError):
        optimal_assignment([[1.0, np.nan], [0.0, 1.0]])


def test_ospa_empty_conventions():
    empty = np.zeros((0, 2))
    one = np.array([[3.0, 4.0]])
    assert ospa(empty, empty) == 0.0
    assert ospa(empty, one) == pytest.approx(100.0)
    assert ospa(one, empty) == pytest.approx(100.0)


def test_ospa_identity_and_permutation():
    gen = np.random.default_rng(7)
    pts = gen.uniform(0.0, 100.0, size=(5, 2))
    assert ospa(pts, pts) == pytest.approx(0.0, abs=1e-12)
    shuffled = pts[gen.permutation(5)]
    other = gen.uniform(0.0, 100.0, size=(3, 2))
    assert ospa(pts, other) == pytest.approx(ospa(shuffled, other), rel=1e-12)


def test_ospa_reference_value():
    # One point vs two in 1-D: the survivor pairs with its nearest neighbour
    # and the unmatched point costs a full cutoff.
    x = np.array([[0.0]])
    y = np.array([[3.0], [4.0]])
    candidates = [min(3.0, 100.0), min(4.0, 100.0)]
    expected = math.sqrt((min(candidates) ** 2 + 100.0**2) / 2.0)
    assert ospa(x, y) == pytest.approx(expected, rel=1e-12)
    assert ospa(x, y) == pytest.approx(70.7425, abs=1e-4)
    p1 = OspaParams(order=1.0)
    assert ospa(x, y, p1) == pytest.approx((3.0 + 100.0) / 2.0, rel=1e-12)


def test_ospa_cutoff_saturates():
    x = np.array([[0.0, 0.0]])
    y = np.array([[5000.0, 5000.0]])
    assert ospa(x, y) == pytest.approx(100.0)
    small = OspaParams(cutoff=2.5)
    assert ospa(x, y, small) == pytest.approx(2.5)
    assert ospa(np.zeros((0, 2)), y, small) == pytest.approx(2.5)


def test_ospa_accepts_point_patterns():
    x = PointPattern([[1.0, 2.0], [3.0, 4.0]], dim=2)
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ospa(x, y) == pytest.approx(0.0, abs=1e-12)
    assert ospa(x, y + 1.0) == pytest.approx(ospa(y, y + 1.0))


def test_ospa_matches_brute_force_six_by_six():
    gen = np.random.default_rng(21)
    params = OspaParams()
    for _ in range(5):
        x = gen.uniform(0.0, 300.0, size=(6, 2))
        y = gen.uniform(0.0, 300.0, size=(6, 2))
        cut = np.minimum(
            np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1), params.cutoff
        )
        _, best = brute_force_assignment(cut**params.order)
        expected = (best / 6.0) ** (1.0 / params.order)
        assert ospa(x, y, params) == pytest.approx(expected, rel=1e-12)


def test_ospa_metric_axioms():
    gen = np.random.default_rng(33)
    params = OspaParams(order=2.0, cutoff=8.0)
    for _ in range(100):
        sets = [
            gen.uniform(-10.0, 10.0, size=(gen.integers(0, 6), 2)) for _ in range(3)
        ]
        x, y, z = sets
        dxy = ospa(x, y, params)
        dyx = ospa(y, x, params)
        assert dxy == pytest.approx(dyx, rel=1e-12, abs=1e-12)
        assert 0.0 <= dxy <= params.cutoff + 1e-12
        assert ospa(x, x, params) == pytest.approx(0.0, abs=1e-12)
        assert dxy <= ospa(x, z, params) + ospa(z, y, params) + 1e-9


def test_ospa_params_reject_a_charge_beyond_the_normal_floats():
    # ospa charges each unmatched point cutoff ** order.  Past the largest
    # float it raised OverflowError; below the smallest normal one a true
    # distance of 0.4 read 0.0.
    with pytest.raises(ValueError, match=r"cutoff \*\* order must be a normal float"):
        OspaParams(order=200.0)
    with pytest.raises(ValueError, match=r"got 0\.5 \*\* 1100\.0$"):
        OspaParams(1100.0, 0.5)
    # Next to either edge, one unmatched point of two costs half the charge.
    for order, cutoff in ((154.0, 100.0), (1000.0, 0.5)):
        got = ospa([[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], OspaParams(order, cutoff))
        assert got == pytest.approx(cutoff * 0.5 ** (1.0 / order), rel=1e-12)


def test_ospa_params_validation():
    with pytest.raises(ValueError):
        OspaParams(order=0.5)
    with pytest.raises(ValueError):
        OspaParams(cutoff=0.0)
    with pytest.raises(ValueError):
        OspaParams(order=math.inf)
