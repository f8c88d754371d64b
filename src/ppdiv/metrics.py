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


@dataclass(frozen=True)
class OspaParams:
    order: float = 2.0
    cutoff: float = 100.0

    def __post_init__(self):
        if not (self.order >= 1.0 and math.isfinite(self.order)):
            raise ValueError(f"order must be finite and >= 1, got {self.order!r}")
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be finite and > 0, got {self.cutoff!r}")
        # ospa charges each unmatched point cutoff ** order: a normal float.
        try:
            charge = float(self.cutoff) ** float(self.order)
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
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost matrix must be 2-D and nonempty, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    pairs = np.stack([rows, cols], axis=1)
    return pairs, float(cost[rows, cols].sum())


def _as_points(x) -> np.ndarray:
    pts = x.points if hasattr(x, "points") else np.asarray(x, dtype=float)
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
    return np.atleast_2d(pts)


def ospa(x, y, params: OspaParams = OspaParams()) -> float:
    """OSPA distance between two point sets (PointPattern or (n, d) arrays)."""
    a = _as_points(x)
    b = _as_points(y)
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    if m == 0:
        return float(params.cutoff)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    p, c = params.order, params.cutoff
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    cut = np.minimum(dists, c) ** p
    rows, cols = linear_sum_assignment(cut)
    total = float(cut[rows, cols].sum()) + (c**p) * (n - m)
    return float((total / n) ** (1.0 / p))
