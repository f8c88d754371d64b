"""Gaussian and Gaussian-mixture primitives.

Everything downstream (divergences, the PHD filter, the controller) reduces to
a few operations on weighted sums of multivariate Gaussians: pointwise
evaluation, L2 inner products via the identity

    int N(x; m0, P0) N(x; m1, P1) dx = N(m0; m1, P0 + P1),

moment-matched pruning/merging, and coordinate scaling.  Mixtures are stored
as flat arrays (weights, means, covariances) so all of these batch through
numpy's stacked linear algebra; the simulation loop evaluates pairwise
Gaussian tables with tens of thousands of entries per step and a component
loop would dominate the runtime.  ``pairwise_log_inner`` is the one evaluator
of such tables, in blocks of 2**16 pairs, and of a self table on one triangle.

All evaluation happens in log space through a Cholesky factorization, so
ill-scaled but positive-definite covariances (entries around 1e6 show up in
the sensor model) stay accurate.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)
# Pairs per block of a batched table: its intermediates then stay in a core's
# own cache, where bigger blocks stream through memory and slow down whenever
# a neighbour does the same.
_BLOCK = 65_536


@dataclass(frozen=True)
class HyperVolumeUnit:
    """Numeric value of the unit hyper-volume K of the single-point space.

    The Poisson process density is taken with respect to a dimensionless
    reference measure, which leaves one free constant: the measure K assigns
    to the unit cell of the state space.  Divergences that depend on the
    reference measure scale linearly in ``k``; set ``k = s**d`` when
    rescaling coordinates by ``s`` to keep them invariant.
    """

    k: float = 1.0

    def __post_init__(self):
        k = float(self.k)
        if not math.isfinite(k) or k <= 0.0:
            raise ValueError(f"unit hyper-volume must be finite and > 0, got {self.k!r}")
        object.__setattr__(self, "k", k)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _spd(c: np.ndarray) -> np.ndarray:
    """Symmetrized copy of the (..., d, d) stack ``c``, or ValueError unless
    every matrix in it is finite, symmetric and positive definite."""
    if not np.all(np.isfinite(c)):
        raise ValueError("covariance has non-finite entries")
    ct = np.swapaxes(c, -1, -2)
    if not np.allclose(c, ct, rtol=1e-9, atol=1e-9):
        raise ValueError("covariance is not symmetric")
    c = 0.5 * (c + ct)
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive definite") from None
    return c


def validate_cov(cov, dim: int | None = None) -> np.ndarray:
    """Return a symmetrized, read-only copy of the covariance matrix ``cov``,
    or raise ValueError unless it is square (of size ``dim`` when given),
    finite, symmetric and positive definite."""
    c = np.array(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"covariance must be a square matrix, got shape {c.shape}")
    if dim is not None and c.shape[0] != dim:
        raise ValueError(f"covariance dimension {c.shape[0]} does not match {dim}")
    return _frozen(_spd(c))


@dataclass(frozen=True)
class Gaussian:
    """A single multivariate normal, mean (d,) and SPD covariance (d, d)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean has non-finite entries")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", validate_cov(self.cov, mean.size))

    @property
    def dim(self) -> int:
        return self.mean.size


class GaussianMixture:
    """Weighted sum of Gaussians, stored as stacked arrays.

    weights: (n,) nonnegative; means: (n, d); covs: (n, d, d) each SPD.
    Zero-weight components are legal; they contribute nothing to evaluation,
    mass, or inner products, but are carried through until pruned.
    Instances are immutable; operations return new mixtures.
    """

    __slots__ = ("weights", "means", "covs")

    def __init__(self, weights, means, covs):
        w = np.array(weights, dtype=float).reshape(-1)
        m = np.array(means, dtype=float)
        c = np.array(covs, dtype=float)
        n = w.size
        if n == 0:
            # Empty mixtures keep an explicit dimension via the array shapes.
            if m.ndim != 2 or m.shape[0] != 0:
                raise ValueError("empty mixture needs means of shape (0, d); use GaussianMixture.empty")
            d = m.shape[1]
            c = c.reshape(0, d, d)
        else:
            m = np.atleast_2d(m)
            if m.shape[0] != n:
                raise ValueError(f"{n} weights but {m.shape[0]} means")
            d = m.shape[1]
            if c.shape != (n, d, d):
                raise ValueError(f"covs must have shape {(n, d, d)}, got {c.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights have non-finite entries")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if not np.all(np.isfinite(m)):
            raise ValueError("means have non-finite entries")
        self.weights = _frozen(w)
        self.means = _frozen(m)
        self.covs = _frozen(_spd(c))

    @classmethod
    def trusted(cls, weights, means, covs) -> "GaussianMixture":
        """Mixture over float arrays that already hold the invariants: weights
        (n,) finite and >= 0, means (n, d) finite, covs (n, d, d) exactly
        symmetric and positive definite.

        Nothing is copied or checked, so the arrays are frozen in place.  For
        code that builds such arrays itself (the filter's predict, update and
        prune steps); anything from outside goes through the constructor.
        """
        u = cls.__new__(cls)
        u.weights = _frozen(weights)
        u.means = _frozen(means)
        u.covs = _frozen(covs)
        return u

    @classmethod
    def empty(cls, dim: int) -> "GaussianMixture":
        return cls(np.zeros(0), np.zeros((0, dim)), np.zeros((0, dim, dim)))

    @classmethod
    def from_components(cls, components) -> "GaussianMixture":
        """Build from an iterable of (weight, Gaussian) pairs (must be nonempty)."""
        comps = list(components)
        if not comps:
            raise ValueError("from_components needs at least one component; use empty(dim)")
        w = [float(wi) for wi, _ in comps]
        m = [g.mean for _, g in comps]
        c = [g.cov for _, g in comps]
        return cls(w, np.stack(m), np.stack(c))

    @classmethod
    def single(cls, weight: float, mean, cov) -> "GaussianMixture":
        return cls.from_components([(weight, Gaussian(mean, cov))])

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def __len__(self) -> int:
        return self.weights.size

    def components(self) -> list[tuple[float, Gaussian]]:
        return [
            (float(w), Gaussian(m, c))
            for w, m, c in zip(self.weights, self.means, self.covs)
        ]

    def __repr__(self) -> str:
        return f"GaussianMixture(n={len(self)}, dim={self.dim}, mass={mixture_mass(self):.6g})"


# ---------------------------------------------------------------------------
# batched Gaussian evaluation


def _maha(chol: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis norms diff' C^-1 diff for batched lower Cholesky
    factors L of C (..., d, d) and diffs (..., d), by solving L y = diff.

    d is small (<= 4 in the tracking scenario) so an explicit loop over rows,
    vectorized across the batch, beats a general batched solve.
    """
    d = chol.shape[-1]
    y = np.empty(np.broadcast_shapes(chol.shape[:-2] + (d,), diffs.shape), dtype=float)
    diffs = np.broadcast_to(diffs, y.shape)
    for i in range(d):
        acc = diffs[..., i]
        if i:
            acc = acc - np.einsum("...j,...j->...", chol[..., i, :i], y[..., :i])
        y[..., i] = acc / chol[..., i, i]
    return np.einsum("...i,...i->...", y, y)


def gauss_factor(covs) -> tuple[np.ndarray, np.ndarray]:
    """(L, 0.5 log|C|) for batched covariances C (..., d, d), with L the lower
    Cholesky factor: everything ``log_gauss_factored`` needs of C."""
    covs = np.asarray(covs, dtype=float)
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise ValueError("covariance in batched evaluation is not positive definite") from None
    return chol, np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def log_gauss_factored(diffs: np.ndarray, factor: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """log N(diff; 0, C) for batched diffs (..., d), from ``factor`` =
    gauss_factor(C); the factor broadcasts against ``diffs``."""
    chol, logdet_half = factor
    diffs = np.asarray(diffs, dtype=float)
    return -0.5 * (_maha(chol, diffs) + diffs.shape[-1] * _LOG_2PI) - logdet_half


def log_gauss(diffs: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """log N(diff; 0, C) for batched diffs (..., d) and covariances (..., d, d).

    ``covs`` broadcasts against ``diffs``; pass it unbroadcast so that each
    covariance is factored once, however many diffs share it.
    """
    return log_gauss_factored(diffs, gauss_factor(covs))


def gauss_log_eval(x, g: Gaussian) -> float:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != g.dim:
        raise ValueError(f"point has dimension {x.size}, Gaussian has {g.dim}")
    return float(log_gauss(x - g.mean, g.cov))


def gauss_eval(x, g: Gaussian) -> float:
    """Density of ``g`` at point ``x``."""
    return math.exp(gauss_log_eval(x, g))


def gauss_inner(g0: Gaussian, g1: Gaussian) -> float:
    """L2 inner product int g0(x) g1(x) dx = N(m0; m1, P0 + P1)."""
    if g0.dim != g1.dim:
        raise ValueError(f"dimension mismatch: {g0.dim} vs {g1.dim}")
    return float(np.exp(log_gauss(g0.mean - g1.mean, g0.cov + g1.cov)))


def gauss_bhatt_coeff(g0: Gaussian, g1: Gaussian) -> float:
    """Bhattacharyya coefficient int sqrt(g0 g1) dx, in (0, 1].

    Equals exp(-D_B) with the Gaussian Bhattacharyya distance
    D_B = (1/8) dm' Pbar^-1 dm + (1/2) log(|Pbar| / sqrt(|P0| |P1|)),
    Pbar = (P0 + P1)/2.  Coordinate-scale invariant.
    """
    if g0.dim != g1.dim:
        raise ValueError(f"dimension mismatch: {g0.dim} vs {g1.dim}")
    pbar = 0.5 * (g0.cov + g1.cov)
    chol = np.linalg.cholesky(pbar)
    maha = float(_maha(chol, g0.mean - g1.mean))
    logdet_bar = 2.0 * float(np.log(np.diagonal(chol)).sum())
    _, logdet0 = np.linalg.slogdet(g0.cov)
    _, logdet1 = np.linalg.slogdet(g1.cov)
    log_cb = -0.125 * maha - 0.5 * (logdet_bar - 0.5 * (logdet0 + logdet1))
    return float(np.exp(log_cb))


# ---------------------------------------------------------------------------
# mixture operations


def mixture_mass(u: GaussianMixture) -> float:
    """Total weight (the integral of the mixture over the state space)."""
    return float(u.weights.sum())


def _active(u: GaussianMixture):
    """Drop zero-weight components; exact because they contribute zero."""
    keep = u.weights > 0.0
    if np.all(keep):
        return u.weights, u.means, u.covs
    return u.weights[keep], u.means[keep], u.covs[keep]


def pairwise_log_inner(means_a, covs_a, means_b, covs_b) -> np.ndarray:
    """Matrix of log N(m_a_i; m_b_j, P_a_i + P_b_j), shape (na, nb), in blocks
    of 2**16 pairs.  Given the same arrays on both sides, each unordered pair
    is evaluated once and mirrored: P_i + P_j is the same in both orders and
    the differences are exact negatives, so the table is bitwise symmetric."""
    na, nb = means_a.shape[0], means_b.shape[0]
    out = np.empty((na, nb))
    same = means_a is means_b and covs_a is covs_b
    ia, ib = np.triu_indices(na) if same else np.divmod(np.arange(na * nb), nb)
    for lo in range(0, ia.size, _BLOCK):
        a, b = ia[lo : lo + _BLOCK], ib[lo : lo + _BLOCK]
        diffs = np.take(means_a, a, 0) - np.take(means_b, b, 0)
        out[a, b] = log_gauss(diffs, np.take(covs_a, a, 0) + np.take(covs_b, b, 0))
    if same:
        out[ib, ia] = out[ia, ib]
    return out


def mixture_inner(u: GaussianMixture, v: GaussianMixture) -> float:
    """L2 inner product int u(x) v(x) dx of two mixtures on the same space."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    wa, ma, ca = _active(u)
    wb, mb, cb = (wa, ma, ca) if v is u else _active(v)
    table = np.exp(pairwise_log_inner(ma, ca, mb, cb))
    return float(wa @ table @ wb)


def mixture_log_eval(u: GaussianMixture, points: np.ndarray) -> np.ndarray:
    """log u(x) for points (m, d); -inf where the mixture is zero."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != u.dim:
        raise ValueError(f"points have dimension {points.shape[1]}, mixture has {u.dim}")
    m = points.shape[0]
    w, means, covs = _active(u)
    n = w.size
    if n == 0 or m == 0:
        return np.full(m, -np.inf)
    logw = np.log(w)
    out = np.empty(m)
    chunk = max(1, _BLOCK // n)
    for lo in range(0, m, chunk):
        pts = points[lo : lo + chunk]
        diffs = pts[:, None, :] - means[None, :, :]
        logs = log_gauss(diffs, covs)
        block = logs + logw
        top = block.max(axis=1)
        out[lo : lo + chunk] = top + np.log(np.exp(block - top[:, None]).sum(axis=1))
    return out


def mixture_eval(u: GaussianMixture, points: np.ndarray) -> np.ndarray:
    """Mixture density u(x) at points (m, d)."""
    return np.exp(mixture_log_eval(u, points))


def mixture_scale(u: GaussianMixture, s: float) -> GaussianMixture:
    """Push the mixture through x -> s x: means scale by s, covs by s^2."""
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"scale must be finite and > 0, got {s!r}")
    return GaussianMixture(u.weights, s * u.means, (s * s) * u.covs)


def prune_merge(
    u: GaussianMixture,
    truncation_threshold: float = 1e-5,
    merge_threshold: float = 4.0,
    max_components: int = 100,
) -> GaussianMixture:
    """Standard mixture reduction: truncate, greedily merge, cap.

    Components with weight < truncation_threshold are dropped.  Then,
    repeatedly, the heaviest remaining component (the earliest among equal
    weights) absorbs every remaining component i whose mean lies within
    merge_threshold of its own, (m_i - m_j)' P_i^-1 (m_i - m_j) <= U in the
    candidate's own covariance; the group is replaced by its moment-matched
    Gaussian.  Finally only the max_components heaviest merged components are
    kept.  Total mass is preserved by merging but not by truncation or the cap.

    The pivots are taken in stable descending-weight order, skipping those
    already absorbed.  The merge gate is evaluated as a table, one row per
    upcoming pivot and one column per component still remaining, from the
    Cholesky factors of the kept covariances; the greedy loop only indexes
    it.  The rows are built in blocks of max(1, 2**16 // n) pivots, so the
    table and its (rows, n, d) intermediates hold about max(2**16, n) d
    floats however many components come in, never n^2 d; rows of pivots
    absorbed by an earlier pivot of their own block are wasted work.
    """
    if not truncation_threshold >= 0.0:
        raise ValueError(f"truncation_threshold must be >= 0, got {truncation_threshold!r}")
    if not merge_threshold >= 0.0:
        raise ValueError(f"merge_threshold must be >= 0, got {merge_threshold!r}")
    if not isinstance(max_components, numbers.Integral) or max_components < 0:
        raise ValueError(f"max_components must be a whole number >= 0, got {max_components!r}")
    keep = u.weights >= truncation_threshold
    w = u.weights[keep]
    m = u.means[keep]
    c = u.covs[keep]
    chol = np.linalg.cholesky(c)
    out_w: list[float] = []
    out_m: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    n = w.size
    order = np.argsort(-w, kind="stable")
    remaining = np.ones(n, dtype=bool)
    rows = max(1, _BLOCK // max(n, 1))
    for lo in range(0, n, rows):
        pivots = order[lo : lo + rows]
        pivots = pivots[remaining[pivots]]
        if pivots.size == 0:
            continue
        cols = np.flatnonzero(remaining)
        gate = _maha(chol[cols], m[cols] - m[pivots][:, None]) <= merge_threshold
        for j, near in zip(pivots, gate):
            if not remaining[j]:
                continue
            group = cols[near & remaining[cols]]
            remaining[group] = False
            if group.size == 1:
                out_w.append(float(w[j]))
                out_m.append(m[j])
                out_c.append(c[j])
                continue
            wg = w[group]
            total = float(wg.sum())
            if total <= 0.0:
                # All-zero-weight group: moment matching is undefined, keep the pivot.
                out_w.append(0.0)
                out_m.append(m[j])
                out_c.append(c[j])
                continue
            mean = (wg[:, None] * m[group]).sum(axis=0) / total
            dev = m[group] - mean
            cov = (
                wg[:, None, None] * (c[group] + dev[:, :, None] * dev[:, None, :])
            ).sum(axis=0) / total
            out_w.append(total)
            out_m.append(mean)
            out_c.append(cov)
    if not out_w:
        return GaussianMixture.empty(u.dim)
    ww = np.array(out_w)
    mm = np.stack(out_m)
    cc = np.stack(out_c)
    if ww.size > max_components:
        order = np.argsort(-ww, kind="stable")[:max_components]
        order = np.sort(order)
        ww, mm, cc = ww[order], mm[order], cc[order]
    return GaussianMixture.trusted(ww, mm, cc)


# ---------------------------------------------------------------------------
# serialization


def mixture_to_dict(u: GaussianMixture) -> dict:
    return {
        "dim": u.dim,
        "components": [
            {"weight": float(w), "mean": m.tolist(), "cov": c.tolist()}
            for w, m, c in zip(u.weights, u.means, u.covs)
        ],
    }


def mixture_from_dict(data: dict) -> GaussianMixture:
    if not isinstance(data, dict):
        raise ValueError("mixture document must be a JSON object")
    try:
        dim = data["dim"]
        comps = data["components"]
    except KeyError as exc:
        raise ValueError(f"mixture document missing key {exc.args[0]!r}") from None
    if not isinstance(dim, numbers.Integral) and not (
        isinstance(dim, numbers.Real) and float(dim).is_integer()
    ):
        raise ValueError(f"dim must be a whole number, got {dim!r}")
    dim = int(dim)
    if dim <= 0:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not isinstance(comps, list):
        raise ValueError("components must be a list")
    if not comps:
        return GaussianMixture.empty(dim)
    weights, means, covs = [], [], []
    for i, comp in enumerate(comps):
        try:
            weights.append(float(comp["weight"]))
            mean = np.asarray(comp["mean"], dtype=float)
            cov = np.asarray(comp["cov"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"components[{i}] is malformed: {exc}") from None
        if mean.shape != (dim,):
            raise ValueError(f"components[{i}].mean must have shape ({dim},), got {mean.shape}")
        if cov.shape != (dim, dim):
            raise ValueError(f"components[{i}].cov must have shape ({dim}, {dim}), got {cov.shape}")
        means.append(mean)
        covs.append(cov)
    return GaussianMixture(weights, np.stack(means), np.stack(covs))


def load_mixture(path) -> GaussianMixture:
    with open(path, "r", encoding="utf-8") as fh:
        return mixture_from_dict(json.load(fh))


def save_mixture(u: GaussianMixture, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mixture_to_dict(u), fh, indent=2)
        fh.write("\n")
