"""Sampling and density evaluation for Poisson point processes.

A draw from a Poisson process with intensity u is a Poisson(mass) count of
i.i.d. points from the normalized intensity.  The density of a finite point
set X with respect to the dimensionless Poisson reference measure is

    log f(X) = -mass + sum_x log(k u(x)),

with k the numeric unit hyper-volume.  The key identity used for Monte Carlo
oracles is <f, g> = E_{X ~ f}[g(X)]: the L2 inner product of two process
densities is a plain expectation, so closed-form divergences can be checked
by simulation.

Randomness flows through RngStream, a thin handle over numpy's Philox
counter-based generator keyed by (seed, stream_id, path).  Child streams are
derived from the key alone, never from draw position, so the same (seed,
stream) always produces the same numbers no matter what other streams did,
on any machine, at any level of parallelism.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .divergence import MixturePoissonModel, PoissonModel, check_pair
from .gaussmix import BLOCK, GaussianMixture, factor_matrices, gauss_factor, mixture_log_eval
from .gaussmix import AT_LEAST_0, AT_LEAST_1, NONNEGATIVE, checked_array, checked_number

MAX_MC_MASS = 5.0
# The largest Poisson mean whose count sample_poisson_counts draws by table
# inversion; the table holds about mean + 12 sqrt(mean) entries.
MAX_POISSON_MEAN = 1e6


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id, path)."""

    __slots__ = ("seed", "stream_id", "path", "generator")

    def __init__(self, seed: int, stream_id: int = 0, path: tuple = ()):
        self.seed = checked_number(seed, "seed", int, *AT_LEAST_0)
        self.stream_id = checked_number(stream_id, "stream_id", int, *AT_LEAST_0)
        self.path = tuple(checked_number(p, "path entry", int, *AT_LEAST_0) for p in path)
        key = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        self.generator = np.random.Generator(np.random.Philox(key))

    def child(self, index: int) -> "RngStream":
        """Independent stream keyed by this stream's address plus ``index``."""
        return RngStream(self.seed, self.stream_id, (*self.path, index))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, path={self.path})"


class PointPattern:
    """Immutable finite point set, stored as an (n, d) array."""

    __slots__ = ("points",)

    def __init__(self, points, dim: int | None = None):
        if dim is not None:
            dim = checked_number(dim, "dim", int, *AT_LEAST_1, kind_requirement="a whole number")
        pts = np.asarray(points)
        if pts.size == 0 and pts.ndim == 2 and dim is None:
            dim = checked_number(pts.shape[1], "points dimension", int, *AT_LEAST_1)
        elif pts.shape == (0,):
            if dim is None:
                raise ValueError("empty pattern needs an explicit dim")
            points = pts.reshape(0, dim)
        self.points = checked_array(points, (None, dim), "points", view=np.atleast_2d)

    @classmethod
    def empty(cls, dim: int) -> "PointPattern":
        return cls(np.zeros((0, dim)))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"PointPattern(n={len(self)}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Poisson counts by CDF inversion.  One uniform per draw, table built from the
# recurrence pmf(j+1) = pmf(j) * mean / (j+1); reproducible across numpy
# versions, unlike Generator.poisson.


def _poisson_cdf_table(mean: float) -> np.ndarray:
    mean = checked_number(mean, "Poisson mean", float, *NONNEGATIVE)
    if mean == 0.0:
        return np.ones(1)
    if mean > MAX_POISSON_MEAN:
        raise ValueError(f"Poisson mean {mean!r} too large for table inversion")
    top = int(mean + 12.0 * math.sqrt(mean) + 30.0)
    js = np.arange(1, top + 1)
    # pmf in log space to survive large means, then cumulative sum.
    logpmf = np.concatenate([[0.0], np.cumsum(np.log(mean / js))]) - mean
    cdf = np.cumsum(np.exp(logpmf))
    return cdf / cdf[-1]


def sample_poisson_counts(rng: RngStream, mean: float, size: int = 1) -> np.ndarray:
    """Poisson(mean) counts by inversion; consumes exactly ``size`` uniforms."""
    cdf = _poisson_cdf_table(mean)
    u = rng.generator.random(checked_number(size, "size", int, *AT_LEAST_0))
    return np.searchsorted(cdf, u, side="right")


def _sample_points(gen: np.random.Generator, intensity: GaussianMixture, total: int) -> np.ndarray:
    """``total`` i.i.d. points from the normalized intensity.

    Draw order: component picks (total uniforms), then standard normals
    (total * d), so the consumption pattern is a pure function of ``total``.
    The points are then formed in blocks of rows, so that the per-point
    factors and means gathered for them stay small.
    """
    d = intensity.dim
    if total == 0:
        return np.zeros((0, d))
    keep = intensity.weights > 0.0
    w = intensity.weights[keep]
    if w.size == 0:
        raise ValueError("cannot sample points from a zero-mass intensity")
    means = intensity.means[keep]
    chols = factor_matrices(gauss_factor(intensity.covs[keep])[0])
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    comp = np.searchsorted(cdf, gen.random(total), side="right")
    points = gen.standard_normal((total, d))
    rows = max(1, BLOCK // (d * d))
    for lo in range(0, total, rows):
        pick, z = comp[lo : lo + rows], points[lo : lo + rows]
        z[...] = means[pick] + np.einsum("nij,nj->ni", chols[pick], z)
    return points


def _model_components(model) -> list[tuple[float, PoissonModel]]:
    if isinstance(model, PoissonModel):
        return [(1.0, model)]
    if isinstance(model, MixturePoissonModel):
        return list(model.components)
    raise ValueError(f"expected PoissonModel or MixturePoissonModel, got {type(model).__name__}")


def sample_poisson(rng: RngStream, model) -> PointPattern:
    """One realization of the process (mixtures pick a component first)."""
    _, points, _ = _sample_pattern_batch(rng, model, 1)
    return PointPattern(points, dim=model.dim)


def _sample_pattern_batch(rng: RngStream, model, n: int):
    """n independent realizations in one vectorized pass.

    Returns (counts (n,), points (total, d), owner (total,)) where owner maps
    each point row to its pattern index.
    """
    gen = rng.generator
    comps = _model_components(model)
    d = model.dim
    if len(comps) == 1:
        cidx = np.zeros(n, dtype=int)
    else:
        cdf = np.cumsum([w for w, _ in comps])
        cdf /= cdf[-1]
        cidx = np.searchsorted(cdf, gen.random(n), side="right")
    counts = np.zeros(n, dtype=int)
    for j, (_, sub) in enumerate(comps):
        mask = cidx == j
        if not mask.any():
            continue
        cdf_j = _poisson_cdf_table(sub.mass)
        counts[mask] = np.searchsorted(cdf_j, gen.random(int(mask.sum())), side="right")
    owner = np.repeat(np.arange(n), counts)
    point_comp = cidx[owner]
    points = np.zeros((int(counts.sum()), d))
    for j, (_, sub) in enumerate(comps):
        rows = point_comp == j
        total_j = int(rows.sum())
        if total_j:
            points[rows] = _sample_points(gen, sub.intensity, total_j)
    return counts, points, owner


def _log_density_batch(model, counts: np.ndarray, points: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """log density of each pattern in a batch under ``model``.

    ``owner`` must be sorted, as ``_sample_pattern_batch`` returns it.  The
    patterns go in blocks of whole patterns holding about BLOCK points, so
    the per-point and per-pattern temporaries stay small.
    """
    comps = _model_components(model)
    n = counts.size
    logk = math.log(comps[0][1].unit.k)
    starts = np.concatenate(([0], np.cumsum(counts)))
    out = np.empty(n)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + BLOCK, side="right")) - 1)
        pts = points[starts[lo] : starts[hi]]
        own = owner[starts[lo] : starts[hi]] - lo
        per_comp = np.empty((len(comps), hi - lo))
        for j, (wj, sub) in enumerate(comps):
            point_logs = mixture_log_eval(sub.intensity, pts)
            sums = np.bincount(own, weights=point_logs, minlength=hi - lo)
            prior = math.log(wj) if wj > 0.0 else -np.inf
            per_comp[j] = prior - sub.mass + sums
        out[lo:hi] = counts[lo:hi] * logk + logsumexp(per_comp, axis=0)
        lo = hi
    return out


def poisson_log_density(pattern: PointPattern, model) -> float:
    """log of the process density at a point pattern.

    For a single Poisson model this is -mass + sum_x log(k u(x)); mixtures of
    processes add a log-sum over components.
    """
    if pattern.dim != model.dim:
        raise ValueError(f"dimension mismatch: pattern {pattern.dim}, model {model.dim}")
    n = len(pattern)
    counts = np.array([n])
    owner = np.zeros(n, dtype=int)
    return float(_log_density_batch(model, counts, pattern.points, owner)[0])


def mc_inner_product(rng: RngStream, a, b, n: int) -> tuple[float, float]:
    """Monte Carlo estimate of <f_a, f_b> = E_{X ~ f_a}[f_b(X)].

    Returns (estimate, standard_error) from ``n`` independent draws of the
    ``a`` process.
    """
    n = checked_number(n, "n", int, lambda v: v >= 2, ">= 2 for a standard error")
    check_pair(a, b, (PoissonModel, MixturePoissonModel))
    counts, points, owner = _sample_pattern_batch(rng, a, n)
    vals = np.exp(_log_density_batch(b, counts, points, owner))
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n))
    return est, se


def _max_component_mass(model) -> float:
    return max(sub.mass for _, sub in _model_components(model))


def mc_csd(rng: RngStream, a, b, n: int) -> tuple[float, float]:
    """Monte Carlo Cauchy-Schwarz divergence with a delta-method error bar.

    D = -log <f_a,f_b> + (1/2) log <f_a,f_a> + (1/2) log <f_b,f_b>, each inner
    product estimated on an independent child stream.  Masses above
    MAX_MC_MASS are rejected: the estimator's variance grows like an
    exponential moment of the mass and the error bar stops being honest.
    """
    for name, model in (("a", a), ("b", b)):
        m = _max_component_mass(model)
        if m > MAX_MC_MASS:
            raise ValueError(
                f"{name} has component mass {m:.3g} > {MAX_MC_MASS}; "
                "Monte Carlo estimate would be unreliable"
            )
    est_ab, se_ab = mc_inner_product(rng.child(0), a, b, n)
    est_aa, se_aa = mc_inner_product(rng.child(1), a, a, n)
    est_bb, se_bb = mc_inner_product(rng.child(2), b, b, n)
    if min(est_ab, est_aa, est_bb) <= 0.0:
        raise ValueError("inner-product estimate is not positive; increase n")
    value = -math.log(est_ab) + 0.5 * math.log(est_aa) + 0.5 * math.log(est_bb)
    se = math.sqrt(
        (se_ab / est_ab) ** 2
        + 0.25 * (se_aa / est_aa) ** 2
        + 0.25 * (se_bb / est_bb) ** 2
    )
    return value, se
