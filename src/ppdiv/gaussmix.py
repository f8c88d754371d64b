"""Gaussian and Gaussian-mixture primitives.

Everything downstream (divergences, the PHD filter, the controller) reduces to
a few operations on weighted sums of multivariate Gaussians: pointwise
evaluation, L2 inner products via the identity

    int N(x; m0, P0) N(x; m1, P1) dx = N(m0; m1, P0 + P1),

moment-matched pruning/merging, and coordinate scaling.  Mixtures are stored
as flat arrays (weights, means, covariances) so all of these batch through
numpy; the simulation loop evaluates pairwise Gaussian tables with tens of
thousands of entries per step and a component loop would dominate the
runtime.

Every evaluation goes through one coordinate-major kernel: ``gauss_factor``,
the package's only Cholesky, factors with elementwise operations over the
whole batch and stores L as packed rows (row i(i+1)/2 + j is L_ij for every
matrix), and ``_maha`` and ``solve_factored`` solve against those rows one
coordinate row at a time.
``pairwise_log_inner``, the one evaluator of pair tables, broadcasts each
block's covariance sums and mean differences straight into that layout, in
row blocks of about 2**16 pairs; a self table takes only the columns from
each block's first row on.

``mixture_log_eval`` evaluates a mixture at many points (the quadrature and
Monte Carlo oracles).  It factors the covariances once and lays each block
of about 2**16 (point, component) pairs out component-major, (components,
points): a quadrature grid or Monte Carlo batch has far more points than the
mixture has components, so the elementwise kernel runs along long rows.

All evaluation happens in log space through the Cholesky factor, so
ill-scaled but positive-definite covariances (entries around 1e6 show up in
the sensor model) stay accurate.

Numbers and arrays from outside the package are judged here and nowhere
else: ``checked_number`` for a scalar, ``checked_array`` for any finite
array, ``validate_cov`` for a covariance.
"""

from __future__ import annotations

import functools
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


def _is_number(value) -> bool:
    # Python counts a bool as an integer; a JSON true is not a number.
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def checked_number(value, what: str, kind, test, requirement: str, *, kind_requirement=None):
    """``value`` as a ``kind`` (float or int) that passes ``test``; otherwise
    ``ValueError(f"{what} must be {requirement}, got {value!r}")``.

    A number is a real number that is not a bool, so a string is not one;
    for an int it must also be whole, so 2.5, inf and nan are not.  For a
    value that fails there the message says "a number" or "a whole number"
    in place of ``requirement``, or ``kind_requirement`` when given.
    ``what`` may be empty where the caller puts the name in front of the
    message itself.
    """
    number = None
    if _is_number(value):
        try:
            number = kind(value)
        except (OverflowError, ValueError):
            # inf or nan as an int, or an int past the float range: NaN fails
            # the whole-number rule and every test.
            number = math.nan
    if number is None or (kind is int and number != value):
        requirement = kind_requirement or ("a number" if number is None else "a whole number")
    elif test(number):
        return number
    raise ValueError(f"{what} must be {requirement}, got {value!r}".lstrip())


# (test, requirement) pairs that checked_number's callers share.
POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
PROBABILITY = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")


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
        k = checked_number(self.k, "unit hyper-volume", float, *POSITIVE)
        object.__setattr__(self, "k", k)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _non_numbers(value) -> list:
    """The entries of ``value`` that are not numbers.  A nested list or tuple
    is read entry by entry, since numpy reads a bool among numbers as 0 or 1;
    anything else as numpy reads it."""
    if isinstance(value, (list, tuple)):
        return [bad for item in value for bad in _non_numbers(item)]
    if _is_number(value):
        return []
    arr = np.asarray(value)
    return [] if arr.dtype.kind in "iuf" else [x for x in arr.ravel().tolist() if not _is_number(x)]


def checked_array(value, shape: tuple, what: str, view=None) -> np.ndarray:
    """A read-only finite float copy of ``value`` whose shape matches
    ``shape``, where a None size is free; otherwise a ValueError naming
    ``what``.  Its entries must be numbers as checked_number counts them.
    The message names the free sizes n, m, k in turn.  ``view`` (such as
    np.ravel) reshapes the copy before its shape is checked: the entries
    are judged as given, before numpy promotes them."""
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be an array of numbers ({exc})") from None
    if bad := _non_numbers(value):
        raise ValueError(f"{what} entries must be numbers, got {bad[0]!r}")
    try:
        arr = arr.astype(float, copy=False)
    except OverflowError:
        raise ValueError(f"{what} has non-finite entries") from None
    if view is not None:
        arr = view(arr)
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
    unless d >= 1 and every matrix is symmetric and positive definite (by
    gauss_factor) or, if not ``definite``, positive semidefinite (no
    eigenvalue below -1e-9 max(1, max|C|), max over the whole stack)."""
    checked_number(c.shape[-1], "covariance dimension", int, *AT_LEAST_1)
    ct = np.swapaxes(c, -1, -2)
    if not np.allclose(c, ct, rtol=1e-9, atol=1e-9):
        raise ValueError("covariance is not symmetric")
    c = 0.5 * (c + ct)
    if not definite:
        if np.linalg.eigvalsh(c).min() < -1e-9 * max(1.0, float(np.abs(c).max())):
            raise ValueError("covariance is not positive semidefinite")
        return c
    try:
        gauss_factor(c)
    except ValueError:
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
        mean = checked_array(self.mean, (None,), "mean", view=np.atleast_1d)
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
        w = checked_array(weights, (None,), "weights", view=np.ravel)
        n = w.size
        # An empty mixture keeps its dimension in the means' shape (0, d).
        m = checked_array(means, (n, None), "means", view=np.atleast_2d if n else None)
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


@functools.cache
def _lower(d: int) -> np.ndarray:
    # Index in a flattened (d, d) matrix of each packed row i(i+1)/2 + j.
    return np.flatnonzero(np.tri(d, dtype=bool))


def _packed(covs: np.ndarray) -> np.ndarray:
    """Covariances (..., d, d) as packed rows (p, ...): row i(i+1)/2 + j,
    i >= j, is C_ij over the whole batch, contiguous."""
    lower = _lower(covs.shape[-1])
    return covs.reshape(-1, covs.shape[-1] ** 2).T[lower].reshape(lower.shape + covs.shape[:-2])


def _cholesky(c: np.ndarray) -> np.ndarray:
    """Overwrite the packed rows ``c`` of C with those of its lower Cholesky
    factor L, and return 0.5 log|C|.

    Column by column, as LAPACK's potf2 goes, l_jj = sqrt(c_jj - sum_k l_jk^2)
    and l_ij = (c_ij - sum_k l_ik l_jk) (1 / l_jj), each sum added left to
    right, each step one elementwise operation over the whole batch.  Only
    correctly rounded operations, so the factor does not depend on the LAPACK
    build; at d <= 2 it is np.linalg.cholesky's to the bit.
    """
    d = math.isqrt(2 * c.shape[0])
    rows = [c[k, ...] for k in range(c.shape[0])]
    acc = np.empty(c.shape[1:])
    term = np.empty(c.shape[1:]) if d >= 3 else None
    # A pivot that is not > 0 turns its l_jj into 0 or NaN, so its log into
    # -inf or NaN; the check waits for the logs, and nothing warns before it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(d):
            lj = rows[j * (j + 1) // 2 :]
            for i in range(j, d):
                li = rows[i * (i + 1) // 2 :]
                if j:
                    np.multiply(li[0], lj[0], out=acc)
                    for k in range(1, j):
                        acc += np.multiply(li[k], lj[k], out=term)
                    np.subtract(li[j], acc, out=li[j])
                if i == j:
                    np.sqrt(lj[j], out=lj[j])
                    inv = np.divide(1.0, lj[j])
                else:
                    li[j] *= inv
        half = np.log(rows[0])
        for j in range(1, d):
            half += np.log(rows[j * (j + 3) // 2])
    if not (half > -math.inf).all():
        raise ValueError("covariance in batched evaluation is not positive definite")
    return half


def _forward(chol: np.ndarray, rows) -> np.ndarray:
    """Rows y (d, ...) of L y = b, for factors L as gauss_factor packs them
    (p, ...) and b as coordinate rows, d of them, each over the batch.

    d is small (<= 4 in the tracking scenario), so the solve runs row by row,
    each step one elementwise operation over the whole batch, in place.  Each
    row's sum L_ij y_j adds its terms left to right, at any d; elementwise
    operations round the same in every batch layout, so each value is a
    function of its own L and b alone.
    """
    d = len(rows)
    y = np.empty((d,) + np.broadcast(chol[0], rows[0]).shape)
    term = np.empty(y.shape[1:]) if d >= 3 else None
    for i in range(d):
        ri = i * (i + 1) // 2
        yi = y[i, ...]
        if i:
            np.multiply(chol[ri], y[0], out=yi)
            for j in range(1, i):
                yi += np.multiply(chol[ri + j], y[j], out=term)
            np.subtract(rows[i], yi, out=yi)
        np.divide(yi if i else rows[0], chol[ri + i], out=yi)
    return y


def _maha(chol: np.ndarray, diffs) -> np.ndarray:
    """Squared Mahalanobis norms diff' C^-1 diff, |L^-1 diff|^2 from
    _forward's rows, their squares added left to right."""
    y = _forward(chol, diffs)
    # In place: each row is squared after the solve has read it for the last time.
    total = np.square(y[0], out=y[0, ...])
    for i in range(1, len(y)):
        total += np.square(y[i], out=y[i, ...])
    return total


def solve_factored(b: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """C^-1 b for batched b (..., d), from the packed rows ``chol`` of
    gauss_factor(C), whose batch broadcasts against b's: _maha's forward
    solve L y = b, then L' x = y back from x_(d-1), as
    x_i = (y_i - L_(i+1)i x_(i+1) - ... - L_(d-1)i x_(d-1)) / L_ii."""
    d = b.shape[-1]
    x = _forward(chol, [b[..., i] for i in range(d)])
    for i in reversed(range(d)):
        for j in range(i + 1, d):
            x[i] -= chol[j * (j + 1) // 2 + i] * x[j]
        x[i] /= chol[i * (i + 3) // 2]
    return np.moveaxis(x, 0, -1)


def gauss_factor(covs) -> tuple[np.ndarray, np.ndarray]:
    """(L, 0.5 log|C|) for batched covariances C (..., d, d), with L the lower
    Cholesky factor as packed rows (p, ...): row i(i+1)/2 + j is L_ij over
    the batch.  Everything ``log_gauss_factored`` needs of C."""
    chol = _packed(np.asarray(covs, dtype=float))
    return chol, _cholesky(chol)


def factor_matrices(chol: np.ndarray) -> np.ndarray:
    """Packed factor rows (p, ...), as gauss_factor returns them, as lower
    triangular matrices (..., d, d)."""
    d = math.isqrt(2 * chol.shape[0])
    out = np.zeros(chol.shape[1:] + (d * d,))
    out[..., _lower(d)] = np.moveaxis(chol, 0, -1)
    return out.reshape(chol.shape[1:] + (d, d))


def log_gauss_factored(diffs: np.ndarray, factor: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """log N(diff; 0, C) for batched diffs (..., d), from ``factor`` =
    gauss_factor(C); the factor's batch broadcasts against the diffs'."""
    chol, logdet_half = factor
    diffs = np.asarray(diffs, dtype=float)
    d = diffs.shape[-1]
    out = _maha(chol, [diffs[..., i] for i in range(d)])
    out += d * _LOG_2PI
    out *= -0.5
    out -= logdet_half
    return out


def log_gauss(diffs: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """log N(diff; 0, C) for batched diffs (..., d) and covariances (..., d, d).

    ``covs`` broadcasts against ``diffs``; pass it unbroadcast so that each
    covariance is factored once, however many diffs share it.
    """
    return log_gauss_factored(diffs, gauss_factor(covs))


def gauss_eval(x, g: Gaussian) -> float:
    """Density of ``g`` at point ``x``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != g.dim:
        raise ValueError(f"point has dimension {x.size}, Gaussian has {g.dim}")
    return math.exp(float(log_gauss(x - g.mean, g.cov)))


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
    chol, half = gauss_factor(np.stack([0.5 * (cov0 + cov1), cov0, cov1]))
    maha = float(_maha(chol[:, 0], diff))
    return float(np.exp(-0.125 * maha - (half[0] - 0.5 * (half[1] + half[2]))))


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
    """Matrix of log N(m_a_i; m_b_j, P_a_i + P_b_j), shape (na, nb).

    Rows of a go in blocks of about 2**16 pairs against the columns of b.
    The covariance sums and mean differences of a block are formed by
    broadcasting, straight into the packed coordinate-major rows the kernel
    reads.  Given the same arrays on both sides, a block takes only the
    columns from its first row on and is mirrored: P_i + P_j is the same sum
    in both orders and the differences are exact negatives, so the table is
    bitwise symmetric."""
    na, nb = means_a.shape[0], means_b.shape[0]
    out = np.empty((na, nb))
    if na == 0 or nb == 0:
        return out
    same = means_a is means_b and covs_a is covs_b
    ca, ma = _packed(covs_a), means_a.T
    cb, mb = (ca, ma) if same else (_packed(covs_b), means_b.T)
    lo = 0
    while lo < na:
        first = lo if same else 0
        rows = slice(lo, min(na, lo + max(1, BLOCK // (nb - first))))
        cols = slice(first, nb)
        chol = ca[:, rows, None] + cb[:, None, cols]
        diffs = ma[:, rows, None] - mb[:, None, cols]
        half = _cholesky(chol)
        block = log_gauss_factored(np.moveaxis(diffs, 0, -1), (chol, half))
        out[rows, cols] = block
        if same:
            out[cols, rows] = block.T
        lo = rows.stop
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
    factor = (chol[:, :, None], logdet_half[:, None])
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
    s = checked_number(s, "scale", float, *POSITIVE)
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
    table and its (d, rows, n) intermediates hold about max(2**16, n) d
    floats however many components come in, never n^2 d; rows of pivots
    absorbed by an earlier pivot of their own block are wasted work.
    """
    truncation_threshold = checked_number(
        truncation_threshold, "truncation_threshold", float, *AT_LEAST_0
    )
    merge_threshold = checked_number(merge_threshold, "merge_threshold", float, *AT_LEAST_0)
    max_components = checked_number(max_components, "max_components", int, *AT_LEAST_0)
    keep = u.weights >= truncation_threshold
    w = u.weights[keep]
    m = u.means[keep]
    c = u.covs[keep]
    chol = gauss_factor(c)[0]
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
        gate = _maha(chol[:, cols], m.T[:, None, cols] - m.T[:, pivots, None]) <= merge_threshold
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
    dim = checked_number(dim, "dim", int, *AT_LEAST_1, kind_requirement="a whole number")
    if not isinstance(comps, list):
        raise ValueError("components must be a list")
    if not comps:
        return GaussianMixture.empty(dim)
    weights, means, covs = [], [], []
    for i, comp in enumerate(comps):
        try:
            weight, mean, cov = comp["weight"], comp["mean"], comp["cov"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"components[{i}] is malformed: {exc}") from None
        weights.append(checked_number(weight, f"components[{i}].weight", float, *NONNEGATIVE))
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
