"""Multi-target miss distance between finite point sets.

OSPA (optimal sub-pattern assignment) of order p with cutoff c: pad the
smaller set, charge each optimally-assigned pair min(c, distance)^p and each
unmatched point c^p, average over the larger cardinality, take the p-th root.
A metric on the space of finite point sets; equals 0 only for identical sets
and c when one set is empty and the other is not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .gaussmix import POSITIVE, checked_array, checked_number


@dataclass(frozen=True)
class OspaParams:
    order: float = 2.0
    cutoff: float = 100.0

    def __post_init__(self):
        at_least_1 = (lambda v: 1.0 <= v < math.inf, "finite and >= 1")
        object.__setattr__(self, "order", checked_number(self.order, "order", float, *at_least_1))
        object.__setattr__(self, "cutoff", checked_number(self.cutoff, "cutoff", float, *POSITIVE))
        # ospa charges each unmatched point cutoff ** order: a normal float.
        try:
            charge = self.cutoff**self.order
        except OverflowError:
            charge = math.inf
        if not (sys.float_info.min <= charge < math.inf):
            raise ValueError(
                f"cutoff ** order must be a normal float, got {self.cutoff!r} ** {self.order!r}"
            )


def optimal_assignment(cost_matrix) -> tuple[np.ndarray, float]:
    """Minimum-cost assignment of rows to columns (Hungarian method).

    Returns (pairs, total) where pairs is a (min(m, n), 2) array of
    (row, column) indices and total is the summed cost.
    """
    cost = checked_array(cost_matrix, (None, None), "cost matrix")
    if cost.size == 0:
        raise ValueError(f"cost matrix must be nonempty, got shape {cost.shape}")
    rows, cols = linear_sum_assignment(cost)
    pairs = np.stack([rows, cols], axis=1)
    return pairs, float(cost[rows, cols].sum())


def _as_points(x, what: str) -> np.ndarray:
    """``x`` as an (n, d) array of finite points, a 1-D ``x`` being one point;
    or a ValueError naming ``what``.  An empty ``x`` has no points: of shape
    (0, d) it keeps its dimension d, of any other shape it has none and comes
    back 1-D."""
    pts = np.asarray(x.points if hasattr(x, "points") else x)
    if pts.size == 0:
        return np.zeros((0, pts.shape[1])) if pts.ndim == 2 and len(pts) == 0 else np.zeros(0)
    return checked_array(np.atleast_2d(pts), (None, None), what)


def _distances(diffs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis that do not underflow: each
    vector is measured in units of its largest entry."""
    big = np.abs(diffs).max(axis=-1)
    unit = np.where((0.0 < big) & (big < math.inf), big, 1.0)
    return big * np.linalg.norm(diffs / unit[..., None], axis=-1)


def ospa(x, y, params: OspaParams = OspaParams()) -> float:
    """OSPA distance between two point sets (PointPattern or (n, d) arrays)."""
    a = _as_points(x, "x")
    b = _as_points(y, "y")
    if a.ndim == b.ndim == 2 and a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    if m == 0:
        return float(params.cutoff)
    p, c = params.order, params.cutoff
    diffs = a[:, None, :] - b[None, :, :]
    cut = np.minimum(np.linalg.norm(diffs, axis=-1), c) ** p
    pairs, total = optimal_assignment(cut)
    total += (c**p) * (n - m)
    if total > 0.0:
        return float((total / n) ** (1.0 / p))
    # Every charge underflowed (so m == n), perhaps with the distances too.
    # Solve again in units of the largest distance the assignment takes,
    # until that distance is its own unit: the total is then >= 1, and any
    # charge too small to count is below its last bit.  That assignment
    # costs at most n, so an entry past (2n)^(1/p) units joins no optimum,
    # and capping there keeps every charge finite.
    e = np.minimum(_distances(diffs), c)
    cap = (2.0 * n) ** (1.0 / p)
    unit = math.inf
    while 0.0 < (top := float(e[tuple(pairs.T)].max())) < unit:
        unit = top
        cut = (np.minimum(e, cap * unit) / unit) ** p
        pairs, total = optimal_assignment(cut)
    if top == 0.0:
        return 0.0
    return float(unit * (total / n) ** (1.0 / p))
