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

``mixture_log_eval`` evaluates a mixture at many points (the quadrature and
Monte Carlo oracles).  It factors the covariances once and lays each block
of about 2**16 (point, component) pairs out component-major, (components,
points): a quadrature grid or Monte Carlo batch has far more points than the
mixture has components, so the elementwise kernel runs along long rows.

All evaluation happens in log space through a Cholesky factorization, so
ill-scaled but positive-definite covariances (entries around 1e6 show up in
the sensor model) stay accurate.

Arrays from outside the package are judged here and nowhere else:
``checked_array`` for any finite array, ``validate_cov`` for a covariance.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)
# Pairs (or rows) per block of a batched computation: its intermediates then
# stay in a core's own cache, where bigger blocks stream through memory and
# slow down whenever a neighbour does the same.
BLOCK = 65_536


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


def checked_array(value, shape: tuple, what: str) -> np.ndarray:
    """A read-only finite float copy of ``value`` whose shape matches
    ``shape``, where a None size is free; otherwise a ValueError naming
    ``what``.  The message names the free sizes n, m, k in turn."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be an array of numbers ({exc})") from None
    if arr.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, arr.shape)):
        free = iter("nmk")
        shown = ", ".join(next(free) if n is None else str(n) for n in shape)
        shown += "," * (len(shape) == 1)
        raise ValueError(f"{what} must have shape ({shown}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    return _frozen(arr)


def _spd(c: np.ndarray, definite: bool = True) -> np.ndarray:
    """Symmetrized copy of the finite (..., d, d) stack ``c``, or ValueError
    unless every matrix in it is symmetric and positive definite (by
    Cholesky) or, if not ``definite``, positive semidefinite (no eigenvalue
    below -1e-9 max(1, max|C|), max over the whole stack)."""
    ct = np.swapaxes(c, -1, -2)
    if not np.allclose(c, ct, rtol=1e-9, atol=1e-9):
        raise ValueError("covariance is not symmetric")
    c = 0.5 * (c + ct)
    if not definite:
        if np.linalg.eigvalsh(c).min() < -1e-9 * max(1.0, float(np.abs(c).max())):
            raise ValueError("covariance is not positive semidefinite")
        return c
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive definite") from None
    return c


def validate_cov(cov, dim: int | None = None, definite: bool = True) -> np.ndarray:
    """Return a symmetrized, read-only copy of the covariance matrix ``cov``,
    or raise ValueError unless it is square (of size ``dim`` when given),
    finite, symmetric and positive definite; positive semidefinite is enough
    if not ``definite`` (process and spawn noise may be singular)."""
    c = checked_array(cov, (dim, dim), "covariance")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"covariance must be a square matrix, got shape {c.shape}")
    return _frozen(_spd(c, definite))


@dataclass(frozen=True)
class Gaussian:
    """A single multivariate normal, mean (d,) and SPD covariance (d, d)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = checked_array(np.atleast_1d(self.mean), (None,), "mean")
        object.__setattr__(self, "mean", mean)
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
        w = checked_array(np.ravel(weights), (None,), "weights")
        n = w.size
        # An empty mixture keeps its dimension in the means' shape (0, d).
        m = checked_array(np.atleast_2d(means) if n else means, (n, None), "means")
        d = m.shape[1]
        c = checked_array(covs if n else np.reshape(covs, (0, d, d)), (n, d, d), "covs")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        self.weights = w
        self.means = m
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
    def single(cls, weight: float, mean, cov) -> "GaussianMixture":
        return cls([weight], [mean], [cov])

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return f"GaussianMixture(n={len(self)}, dim={self.dim}, mass={mixture_mass(self):.6g})"


# ---------------------------------------------------------------------------
# batched Gaussian evaluation


def _maha(chol: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis norms diff' C^-1 diff for batched lower Cholesky
    factors L of C (..., d, d) and diffs (..., d), by solving L y = diff.

    d is small (<= 4 in the tracking scenario), so the solve runs row by row,
    each step one elementwise operation over the whole batch, on the factor
    entries L[..., i, j] and on contiguous rows y_i, in place.  Every sum (a
    row's L_ij y_j, and the final sum of the y_i^2) adds its terms left to
    right, at any d; elementwise products and sums round the same in every
    batch layout, so each value is a function of its own L and diff alone.
    """
    d = chol.shape[-1]
    shape = np.broadcast_shapes(chol.shape[:-2], diffs.shape[:-1])
    y = np.empty((d,) + shape)
    term = np.empty(shape) if d >= 3 else None
    for i in range(d):
        yi = y[i, ...]
        if i:
            np.multiply(chol[..., i, 0], y[0, ...], out=yi)
            for j in range(1, i):
                yi += np.multiply(chol[..., i, j], y[j, ...], out=term)
            np.subtract(diffs[..., i], yi, out=yi)
        np.divide(yi if i else diffs[..., 0], chol[..., i, i], out=yi)
    # In place: each row is squared after the solve has read it for the last time.
    total = np.square(y[0, ...], out=y[0, ...])
    for i in range(1, d):
        total += np.square(y[i, ...], out=y[i, ...])
    return total


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
    return bhatt_coeff(g0.mean - g1.mean, g0.cov, g1.cov)


def bhatt_coeff(diff: np.ndarray, cov0: np.ndarray, cov1: np.ndarray) -> float:
    """gauss_bhatt_coeff from the mean difference m0 - m1 (d,) and the
    covariances P0, P1 (d, d), arrays already known to be finite, symmetric
    and positive definite (such as one mixture component's)."""
    pbar = 0.5 * (cov0 + cov1)
    chol = np.linalg.cholesky(pbar)
    maha = float(_maha(chol, diff))
    logdet_bar = 2.0 * float(np.log(np.diagonal(chol)).sum())
    _, logdet0 = np.linalg.slogdet(cov0)
    _, logdet1 = np.linalg.slogdet(cov1)
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
    tri = np.triu_indices(na) if same else None
    size = tri[0].size if same else na * nb
    for lo in range(0, size, BLOCK):
        if same:
            a, b = tri[0][lo : lo + BLOCK], tri[1][lo : lo + BLOCK]
        else:
            # Each block's cross pairs come from its own flat range.
            a, b = np.divmod(np.arange(lo, min(lo + BLOCK, size)), nb)
        diffs = np.take(means_a, a, 0) - np.take(means_b, b, 0)
        # Factored within the call, so the covariance sums are freed before
        # the solve runs.
        out[a, b] = log_gauss_factored(
            diffs, gauss_factor(np.take(covs_a, a, 0) + np.take(covs_b, b, 0))
        )
    if same:
        out[tri[::-1]] = out[tri]
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
    """log u(x) for points (m, d); -inf where the mixture is zero.

    The covariances are factored once.  The points go in blocks of about
    2**16 (point, component) pairs, each laid out component-major,
    (components, points), so that each component's row of points is
    contiguous.  The log-sum-exp still adds over a contiguous component axis,
    in the order a point-major block would.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2:
        raise ValueError(f"points must be an (m, d) array with d = {u.dim}, got shape {points.shape}")
    if points.shape[1] != u.dim:
        raise ValueError(f"points have dimension {points.shape[1]}, mixture has {u.dim}")
    m = points.shape[0]
    w, means, covs = _active(u)
    n = w.size
    if n == 0 or m == 0:
        return np.full(m, -np.inf)
    chol, logdet_half = gauss_factor(covs)
    factor = (chol[:, None], logdet_half[:, None])
    logw = np.log(w)[:, None]
    out = np.empty(m)
    chunk = max(1, BLOCK // n)
    for lo in range(0, m, chunk):
        pts = points[lo : lo + chunk]
        # (d, n, p) seen as (n, p, d), so each coordinate is contiguous.
        diffs = np.moveaxis(pts.T[:, None, :] - means.T[:, :, None], 0, -1)
        block = log_gauss_factored(diffs, factor)
        block += logw
        top = block.max(axis=0)
        block -= top
        np.exp(block, out=block)
        # numpy adds 8 or more terms pairwise only along a contiguous axis,
        # and one by one (as it does fewer) along any other.
        total = block.T.copy().sum(axis=1) if n >= 8 else block.sum(axis=0)
        out[lo : lo + chunk] = top + np.log(total)
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
    rows = max(1, BLOCK // max(n, 1))
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
            mean, cov = comp["mean"], comp["cov"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"components[{i}] is malformed: {exc}") from None
        means.append(checked_array(mean, (dim,), f"components[{i}].mean"))
        covs.append(checked_array(cov, (dim, dim), f"components[{i}].cov"))
    return GaussianMixture(weights, np.stack(means), np.stack(covs))


def load_mixture(path) -> GaussianMixture:
    with open(path, "r", encoding="utf-8") as fh:
        return mixture_from_dict(json.load(fh))


def save_mixture(u: GaussianMixture, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mixture_to_dict(u), fh, indent=2)
        fh.write("\n")
