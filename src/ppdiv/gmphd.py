"""Gaussian-mixture PHD filter with state-dependent detection probability.

The filter propagates a Gaussian-mixture approximation of the first-moment
(intensity) function of the multi-target state.  Prediction pushes each
component through survival / spawn / birth; the update splits the predicted
intensity into a missed-detection part and one detection part per
measurement.

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
import math
from dataclasses import dataclass

import numpy as np

from .gaussmix import GaussianMixture, checked_array, log_gauss, validate_cov
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
        ps = float(self.survival_prob)
        if not (0.0 <= ps <= 1.0):
            raise ValueError(f"survival_prob must be in [0, 1], got {ps!r}")
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
        w = float(self.weight)
        if not (w >= 0.0 and math.isfinite(w)):
            raise ValueError(f"spawn weight must be finite and >= 0, got {w!r}")
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
        rate = float(self.clutter_rate)
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise ValueError(f"clutter_rate must be finite and >= 0, got {rate!r}")
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
    """One Gaussian detection term w * N(D x; c, S)."""

    weight: float
    center: np.ndarray
    cov: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        w = float(self.weight)
        if not (w >= 0.0 and math.isfinite(w)):
            raise ValueError(f"detection term weight must be finite and >= 0, got {w!r}")
        object.__setattr__(self, "weight", w)
        c = checked_array(self.center, (None,), "center")
        object.__setattr__(self, "center", c)
        d = checked_array(self.projection, (None, None), "projection")
        object.__setattr__(self, "projection", d)
        self._match(d.shape[0], c)
        object.__setattr__(self, "cov", validate_cov(self.cov, c.size))

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
        return self.weight * np.exp(log_gauss(diffs, self.cov))


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
        w0 = float(self.constant)
        if not (0.0 <= w0 <= 1.0):
            raise ValueError(f"constant detection term must be in [0, 1], got {w0!r}")
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
    are computed once.  For S_i = D P_i D' + R and K_i = P_i D' S_i^-1,
    returns (q, m', P') with q[i, ..., t] = N(y_t; D m_i, S_i),
    m'[i, ..., t] = m_i + K_i (y_t - D m_i) and P'_i = (I - K_i D) P_i,
    shapes (n, ..., t), (n, ..., t, d) and (n, d, d).
    """
    dm = means @ projection.T
    dp = np.einsum("ab,ibc->iac", projection, covs)
    s = np.einsum("iab,cb->iac", dp, projection) + noise
    try:
        gain = np.swapaxes(np.linalg.solve(s, dp), -1, -2)
    except np.linalg.LinAlgError:
        raise ValueError("singular innovation covariance in the PHD update") from None
    innov = targets - dm[..., None, :]
    batch = (slice(None),) + (None,) * (means.ndim - 1)
    q = np.exp(log_gauss(innov, s[batch]))
    m1 = means[..., None, :] + np.einsum("iab,i...b->i...a", gain, innov)
    shrink = np.eye(means.shape[-1]) - np.einsum("iab,bc->iac", gain, projection)
    p1 = np.einsum("iab,ibc->iac", shrink, covs)
    return q, m1, 0.5 * (p1 + np.swapaxes(p1, -1, -2))


def _condition_on_terms(predicted: GaussianMixture, profile: DetectionProfile):
    """Per (component, detection-term) conditioning.

    Returns stacked arrays (weights, means, covs) over the constant slot, if
    w0 > 0, followed by each Gaussian term, each block in predicted-component
    order.  In the constant slot the component passes through with q = 1; for
    a Gaussian term, N(x; m, P) N(D x; c, S) = q N(x; m', P'), the Kalman
    conditioning of N(x; m, P) on D x = c with noise S.
    """
    w, m, p = predicted.weights, predicted.means, predicted.covs
    blocks = [(profile.constant * w, m, p)] if profile.constant > 0.0 else []
    for term in profile.terms:
        q, m1, p1 = _kalman(m, p, term.projection, term.cov, term.center[None, :])
        blocks.append((term.weight * w * q[:, 0], m1[:, 0], p1))
    if not blocks:
        return w[:0], m[:0], p[:0]
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _check_update(predicted: GaussianMixture, measurements: PointPattern, meas: MeasModel):
    d = predicted.dim
    if meas.state_dim != d:
        raise ValueError(f"observation matrix expects state dim {meas.state_dim}, got {d}")
    if measurements.dim != meas.meas_dim:
        raise ValueError(
            f"measurements have dimension {measurements.dim}, model has {meas.meas_dim}"
        )


def _missed_weights(weights, w_cond, pd_at_means):
    """Missed-detection weights: the exact missed mass T = mass - sum(w_cond)
    spread over the predicted components in proportion to their plug-in
    missed weights (1 - p_D(m_i)) w_i.

    ``w_cond`` (m, ...) and ``pd_at_means`` (n, ...) may carry trailing
    candidate axes, each with a T of its own; the result is (n, ...).
    """
    mass = float(weights.sum())
    t_mass = mass - w_cond.sum(axis=0)
    if np.any(t_mass < -1e-9):
        raise ValueError(
            f"negative missed-detection mass {float(np.min(t_mass)):.3g}: "
            "detection profile exceeds 1"
        )
    t_mass = np.maximum(t_mass, 0.0)
    w_mu = np.maximum(1.0 - pd_at_means, 0.0) * weights.reshape(
        (-1,) + (1,) * (pd_at_means.ndim - 1)
    )
    sum_mu = w_mu.sum(axis=0)
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


def _detection_weights(num, clutter):
    """num / (clutter + num summed over components), 0 where that is 0.

    ``num`` (m, ..., nz) holds w_cond q per component and measurement,
    ``clutter`` (nz,) the clutter intensity at each measurement.
    """
    denom = clutter + num.sum(axis=0)
    return np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)


def phd_update(
    predicted: GaussianMixture,
    measurements: PointPattern,
    detection: DetectionProfile,
    meas: MeasModel,
) -> GaussianMixture:
    """Bayes update of the predicted intensity against one measurement set.

    Posterior = missed-detection intensity + one detection intensity per
    measurement.  Component order: the missed block (predicted order), then
    per measurement (input order) the conditioned blocks from
    _condition_on_terms.  Posterior mass equals T + sum of per-measurement
    detection masses, each of the latter in [0, 1].
    """
    _check_update(predicted, measurements, meas)
    w_cond, m_cond, p_cond = _condition_on_terms(predicted, detection)
    w_missed = _missed_weights(predicted.weights, w_cond, detection.evaluate(predicted.means))
    z = measurements.points
    qz, m_det, p2 = _kalman(m_cond, p_cond, meas.observation, meas.noise, z)
    w_det = _detection_weights(w_cond[:, None] * qz, clutter_intensity(meas, z))
    return GaussianMixture.trusted(
        np.concatenate([w_missed, w_det.T.reshape(-1)]),
        np.concatenate([predicted.means, np.swapaxes(m_det, 0, 1).reshape(-1, predicted.dim)]),
        np.concatenate([predicted.covs, np.tile(p2, (len(z), 1, 1))]),
    )


@dataclass(frozen=True)
class CenteredUpdates:
    """phd_update of one predicted intensity against one measurement set, for
    the one-term detection profile w N(D x; c, S) moved to each of k centers c.

    Every one of these posteriors has the same covariances: the missed block
    keeps the predicted ones, and every detection block has ``covs``, the
    predicted ones conditioned on the detection term and then on the
    measurement noise, none of which depends on c.  Only weights and means
    move with the center: ``missed`` (k, n) holds the missed-block weights,
    ``detected`` (k, nz, n) and ``means`` (k, nz, n, d) the detection blocks',
    one block per measurement; only phd_update lays out a posterior.
    """

    missed: np.ndarray
    detected: np.ndarray
    means: np.ndarray
    covs: np.ndarray


def phd_update_at_centers(
    predicted: GaussianMixture,
    measurements: PointPattern,
    term: DetectionTerm,
    centers,
    meas: MeasModel,
) -> CenteredUpdates:
    """phd_update for p_D(x) = w N(D x; c, S) at each row c of ``centers``.

    One batched pass: the gains and conditioned covariances are computed once
    for every center, and the same checks as phd_update's guard each
    posterior.  ``term`` should come from a DetectionProfile, whose
    construction checks that p_D stays <= 1; moving the center keeps that.
    """
    _check_update(predicted, measurements, meas)
    if term.state_dim != predicted.dim:
        raise ValueError(
            f"detection term expects state dim {term.state_dim}, got {predicted.dim}"
        )
    centers = np.asarray(centers, dtype=float).reshape(-1, term.center.size)
    w, m, p = predicted.weights, predicted.means, predicted.covs
    q, m_cond, p_cond = _kalman(m, p, term.projection, term.cov, centers)
    w_cond = term.weight * w[:, None] * q
    w_missed = _missed_weights(w, w_cond, term.evaluate(m, centers))
    z = measurements.points
    qz, m_det, p2 = _kalman(m_cond, p_cond, meas.observation, meas.noise, z)
    w_det = _detection_weights(w_cond[..., None] * qz, clutter_intensity(meas, z))
    return CenteredUpdates(
        w_missed.T,
        np.transpose(w_det, (1, 2, 0)),
        np.transpose(m_det, (1, 2, 0, 3)),
        p2,
    )


def extract_states(intensity: GaussianMixture, threshold: float = 0.5) -> PointPattern:
    """Means of components with weight strictly above ``threshold``."""
    threshold = float(threshold)
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold!r}")
    keep = intensity.weights > threshold
    return PointPattern(intensity.means[keep], dim=intensity.dim)
