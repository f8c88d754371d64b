"""Gaussian-mixture PHD filter with state-dependent detection probability.

The filter propagates a Gaussian-mixture approximation of the first-moment
(intensity) function of the multi-target state.  Prediction pushes each
component through survival / spawn / birth; the update splits the predicted
intensity into a missed-detection part and one detection part per
measurement.  One private core runs the update, for phd_update at the
profile's own centers and for phd_update_at_centers at many.

The detection probability is a constant plus Gaussian terms in a projection
of the state,

    p_D(x) = w0 + sum_j w_j N(D_j x; c_j, S_j),

which covers both a detection model written directly over the full state
(D = identity) and one that depends only on the observed position (D = the
observation matrix).  Because p_D varies over the state space, the exact
missed-detection intensity u(x)(1 - p_D(x)) is not a nonnegative Gaussian
mixture; instead its exact total mass

    T = mass(predicted) - sum_ij w_i w_j q_ij

is redistributed over the predicted components in proportion to their
plug-in missed weights (1 - p_D(m_i)) w_i, which keeps every weight
nonnegative.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .gaussmix import GaussianMixture, checked_array, gauss_factor, log_gauss_factored, solve_factored
from .gaussmix import NONNEGATIVE, PROBABILITY, checked_number, factor_matrices, validate_cov
from .gaussmix import POSITIVE_PROBABILITY
from .pointprocess import PointPattern

_EPS_MASS = 1e-12


def _square(value, what: str) -> np.ndarray:
    arr = checked_array(value, (None, None), what)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MotionModel:
    """Linear Gaussian dynamics x' ~ N(F x, Q) with survival probability p_S."""

    transition: np.ndarray
    process_noise: np.ndarray
    survival_prob: float = 1.0

    def __post_init__(self):
        f = _square(self.transition, "transition")
        object.__setattr__(self, "transition", f)
        q = checked_array(self.process_noise, f.shape, "process_noise")
        object.__setattr__(self, "process_noise", validate_cov(q, definite=False))
        ps = checked_number(self.survival_prob, "survival_prob", float, *PROBABILITY)
        object.__setattr__(self, "survival_prob", ps)

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class SpawnTerm:
    """One spawn kernel: existing targets seed N(F_b x + d_b, Q_b) with weight w_b."""

    weight: float
    transition: np.ndarray
    offset: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        w = checked_number(self.weight, "spawn weight", float, *NONNEGATIVE)
        object.__setattr__(self, "weight", w)
        f = _square(self.transition, "transition")
        object.__setattr__(self, "transition", f)
        object.__setattr__(self, "offset", checked_array(self.offset, f.shape[:1], "offset"))
        q = checked_array(self.noise, f.shape, "noise")
        object.__setattr__(self, "noise", validate_cov(q, definite=False))


@dataclass(frozen=True)
class BirthSpawnModel:
    """Birth intensity plus optional spawn kernels."""

    birth: GaussianMixture
    spawn_terms: tuple = ()

    def __post_init__(self):
        if not isinstance(self.birth, GaussianMixture):
            raise ValueError("birth must be a GaussianMixture")
        terms = tuple(self.spawn_terms)
        for i, term in enumerate(terms):
            if not isinstance(term, SpawnTerm):
                raise ValueError(f"spawn_terms[{i}] is not a SpawnTerm")
            if term.transition.shape[0] != self.birth.dim:
                raise ValueError(f"spawn_terms[{i}] dimension does not match birth")
        object.__setattr__(self, "spawn_terms", terms)


@dataclass(frozen=True)
class MeasModel:
    """Linear Gaussian sensor z ~ N(H x, R) plus uniform Poisson clutter.

    ``clutter_rate`` is points per unit observation volume; ``clutter_region``
    is the axis-aligned box carrying the clutter (None means the whole
    observation space, in which case only the rate enters the update).
    """

    observation: np.ndarray
    noise: np.ndarray
    clutter_rate: float = 0.0
    clutter_region: np.ndarray | None = None

    def __post_init__(self):
        h = checked_array(self.observation, (None, None), "observation")
        object.__setattr__(self, "observation", h)
        r = checked_array(self.noise, (h.shape[0],) * 2, "noise")
        object.__setattr__(self, "noise", validate_cov(r))
        rate = checked_number(self.clutter_rate, "clutter_rate", float, *NONNEGATIVE)
        object.__setattr__(self, "clutter_rate", rate)
        if self.clutter_region is not None:
            box = checked_array(self.clutter_region, (h.shape[0], 2), "clutter_region")
            if np.any(box[:, 0] >= box[:, 1]):
                raise ValueError("clutter_region rows must satisfy low < high")
            object.__setattr__(self, "clutter_region", box)

    @property
    def state_dim(self) -> int:
        return self.observation.shape[1]

    @property
    def meas_dim(self) -> int:
        return self.observation.shape[0]

    @functools.cached_property
    def noise_factor(self) -> np.ndarray:
        """Lower triangular L with L L' = R, gauss_factor's factor of R as a
        matrix, taken once per model; it draws the measurement noise."""
        return factor_matrices(gauss_factor(self.noise)[0])


def clutter_intensity(meas: MeasModel, zs: np.ndarray) -> np.ndarray:
    """Clutter intensity at measurement locations: the rate inside the region, 0 outside."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    if meas.clutter_region is None:
        return np.full(zs.shape[0], meas.clutter_rate)
    box = meas.clutter_region
    inside = np.all((zs >= box[:, 0]) & (zs <= box[:, 1]), axis=1)
    return np.where(inside, meas.clutter_rate, 0.0)


@dataclass(frozen=True)
class DetectionTerm:
    """One Gaussian detection term w * N(D x; c, S); its ``factor``,
    gauss_factor(S), is taken once and shared by every copy ``at`` makes."""

    weight: float
    center: np.ndarray
    cov: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        w = checked_number(self.weight, "detection term weight", float, *NONNEGATIVE)
        object.__setattr__(self, "weight", w)
        c = checked_array(self.center, (None,), "center")
        object.__setattr__(self, "center", c)
        d = checked_array(self.projection, (None, None), "projection")
        object.__setattr__(self, "projection", d)
        self._match(d.shape[0], c)
        object.__setattr__(self, "cov", validate_cov(self.cov, c.size))
        object.__setattr__(self, "factor", gauss_factor(self.cov))

    @staticmethod
    def _match(rows: int, center: np.ndarray) -> None:
        if center.size != rows:
            raise ValueError(f"projection rows {rows} do not match center dimension {center.size}")

    @property
    def state_dim(self) -> int:
        return self.projection.shape[1]

    def at(self, center) -> "DetectionTerm":
        """This term moved to ``center``: only the new center is checked, the
        weight, covariance and projection are this term's, already checked."""
        c = checked_array(center, (None,), "center")
        self._match(self.center.size, c)
        term = copy.copy(self)
        object.__setattr__(term, "center", c)
        return term

    def evaluate(self, states: np.ndarray, centers: np.ndarray | None = None) -> np.ndarray:
        """w N(D x; c, S) at each state row, shape (n,); with ``centers``
        (k, m), the term moved to each of them, shape (n, k)."""
        y = states @ self.projection.T
        diffs = y - self.center if centers is None else y[:, None, :] - centers[None, :, :]
        return self.weight * np.exp(log_gauss_factored(diffs, self.factor))


@dataclass(frozen=True)
class DetectionProfile:
    """State-dependent detection probability w0 + sum_j w_j N(D_j x; c_j, S_j).

    Construction probes the profile (term peaks via pseudo-inverse preimages,
    the origin, and pairwise midpoints) and rejects profiles that exceed 1
    there; the update additionally rejects any profile whose excess shows up
    as negative missed-detection mass.
    """

    constant: float = 0.0
    terms: tuple = ()

    def __post_init__(self):
        w0 = checked_number(self.constant, "constant detection term", float, *PROBABILITY)
        object.__setattr__(self, "constant", w0)
        terms = tuple(self.terms)
        for i, term in enumerate(terms):
            if not isinstance(term, DetectionTerm):
                raise ValueError(f"terms[{i}] is not a DetectionTerm")
        dims = {t.state_dim for t in terms}
        if len(dims) > 1:
            raise ValueError(f"detection terms disagree on state dimension: {sorted(dims)}")
        object.__setattr__(self, "terms", terms)
        if terms:
            d = terms[0].state_dim
            probes = [np.zeros(d)]
            peaks = [np.linalg.pinv(t.projection) @ t.center for t in terms]
            probes.extend(peaks)
            for a in range(len(peaks)):
                for b in range(a + 1, len(peaks)):
                    probes.append(0.5 * (peaks[a] + peaks[b]))
            values = self.evaluate(np.stack(probes))
            if values.max() > 1.0 + 1e-9:
                raise ValueError(
                    f"detection probability reaches {values.max():.6g} > 1 at a probe point"
                )

    @classmethod
    def trusted(cls, constant: float, terms: tuple) -> "DetectionProfile":
        """Profile over a float constant in [0, 1] and a tuple of
        DetectionTerms of one state dimension that are known to keep p_D <= 1,
        such as one term whose weight is 1/N(0; 0, S).  Nothing is checked or
        probed; anything else goes through the constructor."""
        profile = cls.__new__(cls)
        object.__setattr__(profile, "constant", constant)
        object.__setattr__(profile, "terms", terms)
        return profile

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        """p_D at each state row; shape (n,)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        out = np.full(states.shape[0], self.constant)
        for term in self.terms:
            if states.shape[1] != term.state_dim:
                raise ValueError(
                    f"states have dimension {states.shape[1]}, profile expects {term.state_dim}"
                )
            out = out + term.evaluate(states)
        return out


def phd_predict(
    prior: GaussianMixture, motion: MotionModel, birth_spawn: BirthSpawnModel
) -> GaussianMixture:
    """Predicted intensity: survival + spawn + birth.

    Output component order: survivors in prior order, then one block per
    spawn term (prior order within each block), then the birth components.
    Predicted mass is p_S * mass + mass * sum(spawn weights) + birth mass.
    """
    d = motion.dim
    if prior.dim != d:
        raise ValueError(f"prior dimension {prior.dim} does not match motion {d}")
    if birth_spawn.birth.dim != d:
        raise ValueError(f"birth dimension {birth_spawn.birth.dim} does not match motion {d}")
    f = motion.transition
    q = motion.process_noise
    weights = [motion.survival_prob * prior.weights]
    means = [prior.means @ f.T]
    covs = [np.einsum("ab,ibc,dc->iad", f, prior.covs, f) + q]
    for term in birth_spawn.spawn_terms:
        fb, db, qb = term.transition, term.offset, term.noise
        weights.append(term.weight * prior.weights)
        means.append(prior.means @ fb.T + db)
        covs.append(np.einsum("ab,ibc,dc->iad", fb, prior.covs, fb) + qb)
    weights.append(birth_spawn.birth.weights)
    means.append(birth_spawn.birth.means)
    covs.append(birth_spawn.birth.covs)
    w = np.concatenate(weights)
    if w.size == 0:
        return GaussianMixture.empty(d)
    cc = np.concatenate([c.reshape(-1, d, d) for c in covs])
    cc = 0.5 * (cc + np.swapaxes(cc, -1, -2))
    return GaussianMixture.trusted(w, np.concatenate([m.reshape(-1, d) for m in means]), cc)


def _kalman(means, covs, projection, noise, targets):
    """Condition each N(x; m_i, P_i) on y = projection x + N(0, noise) at each target row.

    ``means`` is (n, ..., d): the axes after the first are batch axes that
    share component i's covariance, whose gain and conditioned covariance
    are computed once.  S_i = D P_i D' + R is factored once, for the gain
    K_i = P_i D' S_i^-1 and the likelihood.  Returns (q, m', P') with
    q[i, ..., t] = N(y_t; D m_i, S_i), m'[i, ..., t] = m_i + K_i (y_t - D m_i)
    and P'_i = (I - K_i D) P_i (I - K_i D)' + K_i R K_i' (Joseph form, which
    stays positive definite where (I - K_i D) P_i cancels to rounding),
    shapes (n, ..., t), (n, ..., t, d) and (n, d, d).
    """
    dm = means @ projection.T
    dp = projection @ covs
    chol, half = gauss_factor(dp @ projection.T + noise)
    # Row a of K_i is S_i^-1 (D P_i)[:, a], S_i being symmetric.
    gain = solve_factored(np.swapaxes(dp, -1, -2), chol[:, :, None])
    innov = targets - dm[..., None, :]
    batch = (slice(None),) + (None,) * (means.ndim - 1)
    q = np.exp(log_gauss_factored(innov, (chol[(slice(None),) + batch], half[batch])))
    m1 = means[..., None, :] + np.einsum("iab,i...b->i...a", gain, innov)
    shrink = np.eye(means.shape[-1]) - gain @ projection
    p1 = shrink @ covs @ np.swapaxes(shrink, -1, -2) + gain @ noise @ np.swapaxes(gain, -1, -2)
    return q, m1, 0.5 * (p1 + np.swapaxes(p1, -1, -2))


def _missed_weights(weights, w_cond, pd_at_means):
    """Missed-detection weights: the exact missed mass T = mass - sum(w_cond)
    spread over the predicted components in proportion to their plug-in
    missed weights (1 - p_D(m_i)) w_i.

    ``w_cond`` (m, k) and ``pd_at_means`` (n, k) carry a trailing center
    axis, each center with a T of its own; the result is (n, k), bitwise the
    same at a center whatever k is.
    """
    mass = float(weights.sum())
    # Each center's sums run along a contiguous row, which numpy adds pairwise
    # at any k; an axis-0 sum would be pairwise at k = 1 and in order beyond.
    t_mass = mass - np.ascontiguousarray(w_cond.T).sum(axis=1)
    if np.any(t_mass < -1e-9):
        raise ValueError(
            f"negative missed-detection mass {float(np.min(t_mass)):.3g}: "
            "detection profile exceeds 1"
        )
    t_mass = np.maximum(t_mass, 0.0)
    w_mu = np.maximum(1.0 - pd_at_means, 0.0) * weights[:, None]
    sum_mu = np.ascontiguousarray(w_mu.T).sum(axis=1)
    spread = (t_mass > _EPS_MASS) & (sum_mu > _EPS_MASS)
    w_missed = np.where(spread, w_mu * (t_mass / np.where(spread, sum_mu, 1.0)), 0.0)
    total = w_missed.sum(axis=0)
    off = np.flatnonzero(spread & ~(np.abs(total - t_mass) <= 1e-9 * max(1.0, mass)))
    if off.size:
        i = off[0]
        raise RuntimeError(
            f"missed-detection weights sum to {float(np.ravel(total)[i])!r}, "
            f"not T = {float(np.ravel(t_mass)[i])!r}"
        )
    return w_missed


@dataclass(frozen=True)
class CenteredUpdates:
    """Bayes updates of one predicted intensity against one measurement set
    for k detection-term centers.  Their posteriors share every covariance:
    the missed block keeps the predicted ones and each detection block has
    ``covs`` (n', d, d), the n' conditioned components conditioned on the
    measurement noise.  Only weights and means move with the center:
    ``missed`` (k, n), ``detected`` (k, nz, n') and ``means`` (k, nz, n', d),
    one detection block per measurement.
    """

    predicted: GaussianMixture
    missed: np.ndarray
    detected: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def posterior(self, t: int) -> GaussianMixture:
        """The posterior at center t: the missed block on the predicted
        components, then the detection blocks in measurement order."""
        nz, d = self.detected.shape[1], self.predicted.dim
        return GaussianMixture.trusted(
            np.concatenate([self.missed[t], self.detected[t].reshape(-1)]),
            np.concatenate([self.predicted.means, self.means[t].reshape(-1, d)]),
            np.concatenate([self.predicted.covs, np.tile(self.covs, (nz, 1, 1))]),
        )


def _bayes_update(predicted, measurements, constant, terms, meas, centers=None):
    """The update for p_D(x) = constant + sum_j w_j N(D_j x; c_j, S_j), each
    term at its own center (k = 1) or at every row of ``centers`` (k, m).

    Each predicted component is conditioned on each slot of p_D, one block
    per slot in predicted order: the constant slot (if > 0) passes it with
    q = 1, and a term gives N(x; m, P) N(D x; c, S) = q N(x; m', P'), the
    Kalman conditioning on D x = c with noise S.  The missed mass is spread
    over the predicted components, and each conditioned one is conditioned
    on every measurement.
    """
    w, m, p = predicted.weights, predicted.means, predicted.covs
    n, d = m.shape
    if meas.state_dim != d:
        raise ValueError(f"observation matrix expects state dim {meas.state_dim}, got {d}")
    if measurements.dim != meas.meas_dim:
        raise ValueError(f"measurements have dimension {measurements.dim}, model has {meas.meas_dim}")
    k = 1 if centers is None else len(centers)
    c = n if constant > 0.0 else 0  # an empty constant slot still concatenates
    blocks = [
        (np.broadcast_to(constant * w[:c, None], (c, k)), np.broadcast_to(m[:c, None], (c, k, d)), p[:c])
    ]
    pd = np.full((n, k), constant)
    for term in terms:
        if term.state_dim != d:
            raise ValueError(f"detection term expects state dim {term.state_dim}, got {d}")
        at = term.center[None, :] if centers is None else centers
        q, m1, p1 = _kalman(m, p, term.projection, term.cov, at)
        blocks.append((term.weight * w[:, None] * q, m1, p1))
        pd = pd + term.evaluate(m, at)
    w_cond, m_cond, p_cond = (np.concatenate(arrays) for arrays in zip(*blocks))
    missed = _missed_weights(w, w_cond, pd)
    z = measurements.points
    qz, m_det, p2 = _kalman(m_cond, p_cond, meas.observation, meas.noise, z)
    # Each measurement's detection weights: w_cond q / (clutter + their sum), 0 where that is 0.
    # The sum runs in order at any k; an axis-0 sum would add pairwise when k = |z| = 1.
    num = w_cond[..., None] * qz
    denom = clutter_intensity(meas, z) + (np.cumsum(num, axis=0)[-1] if len(num) else 0.0)
    w_det = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    return CenteredUpdates(predicted, missed.T, np.moveaxis(w_det, 0, -1), np.moveaxis(m_det, 0, 2), p2)


def phd_update(
    predicted: GaussianMixture,
    measurements: PointPattern,
    detection: DetectionProfile,
    meas: MeasModel,
) -> GaussianMixture:
    """Bayes update of the predicted intensity against one measurement set.

    Posterior = missed-detection intensity + one detection intensity per
    measurement, laid out by CenteredUpdates.posterior; each detection block
    holds the constant slot (if w0 > 0) and then one block per term, each in
    predicted order.  Posterior mass equals T + sum of per-measurement
    detection masses, each of the latter in [0, 1].
    """
    update = _bayes_update(predicted, measurements, detection.constant, detection.terms, meas)
    return update.posterior(0)


def phd_update_at_centers(
    predicted: GaussianMixture,
    measurements: PointPattern,
    term: DetectionTerm,
    centers,
    meas: MeasModel,
) -> CenteredUpdates:
    """phd_update for p_D(x) = w N(D x; c, S) at each row c of ``centers``.

    One batched pass through the same update as phd_update's: the gains and
    conditioned covariances are computed once for every center.  ``term``
    should come from a DetectionProfile, whose construction checks that p_D
    stays <= 1; moving the center keeps that.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, term.center.size)
    return _bayes_update(predicted, measurements, 0.0, (term,), meas, centers)


def extract_states(intensity: GaussianMixture, threshold: float = 0.5) -> PointPattern:
    """Means of components with weight strictly above ``threshold``."""
    threshold = checked_number(threshold, "threshold", float, *POSITIVE_PROBABILITY)
    keep = intensity.weights > threshold
    return PointPattern(intensity.means[keep], dim=intensity.dim)
