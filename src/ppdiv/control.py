"""Single-step look-ahead sensor control with a divergence reward.

Each candidate sensor position is scored by the Cauchy-Schwarz divergence
between the predicted intensity and the posterior intensity that would
result from updating against the ideal measurement set Z* (the projected
means of confidently-detected predicted components, with no noise and no
clutter).  Moving toward targets raises their detection probability, which
makes the hypothetical update more informative and the divergence larger, so
the argmax chases information.

Out-of-area candidates score -inf and can never win; ties go to the earliest
candidate in grid order (stay put, then increasing ring radius, then
increasing angle index), which makes selection fully deterministic.

The reward is D_CS = (k/2) ||u - v||^2 = (k/2) (<u,u> + <v,v> - 2 <u,v>)
with u the predicted and v the hypothetical posterior intensity, k = 1, and
every inner product a double sum of Gaussian pair terms N(m_i; m_j, C_i + C_j).
At one step every candidate's posterior has the same covariances: the
predicted P_i in the missed block and, in each detection block, the p2_i
that conditions P_i on the detection term's fixed shape and then on the
measurement noise.  The sensor position moves only weights and means.  So
the scorer factors P_i + P_j, P_i + p2_j and p2_i + p2_j once per step and,
per candidate, evaluates only the mean-dependent Mahalanobis terms between
its nonzero-weight components, then assembles <u,u>, <v,v> and <u,v> with
csd_terms as before.  ``reward`` keeps the direct route (phd_update and
three mixture inner products per position): it is the reference the scorer
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import csd_terms
from .gaussmix import (
    GaussianMixture,
    gauss_factor,
    log_gauss_factored,
    mixture_inner,
    pairwise_log_inner,
)
from .gmphd import MeasModel, phd_update, phd_update_at_centers
from .pointprocess import PointPattern
from .scenario import (
    ScenarioConfig,
    action_positions,
    detection_profile,
    in_area,
)


@dataclass(frozen=True)
class ActionEvaluation:
    """Score of one candidate position; reward is -inf iff out of area,
    in which case no posterior preview is available."""

    action_index: int
    candidate_position: np.ndarray
    reward: float
    posterior_preview: GaussianMixture | None

    def __post_init__(self):
        pos = np.array(self.candidate_position, dtype=float).reshape(-1)
        pos.setflags(write=False)
        object.__setattr__(self, "candidate_position", pos)
        object.__setattr__(self, "action_index", int(self.action_index))
        object.__setattr__(self, "reward", float(self.reward))


def ideal_measurements(
    predicted: GaussianMixture, observation: np.ndarray, threshold: float = 0.5
) -> PointPattern:
    """Noise-free, clutter-free measurements from the predicted intensity:
    the observation projection of every component with weight > threshold."""
    observation = np.asarray(observation, dtype=float)
    keep = predicted.weights > threshold
    return PointPattern(predicted.means[keep] @ observation.T, dim=observation.shape[0])


def planning_meas_model(cfg: ScenarioConfig) -> MeasModel:
    """Measurement model for the hypothetical update behind the reward.

    Ideal measurements carry no origin information, so they are weighed
    against the whole-scan clutter mass instead of its density.  At the
    density, one ideal detection of a sharp track saturates the update and
    the divergence then falls as detection probability rises, steering the
    sensor away from its targets; at the scan mass the detections stay
    unsaturated and the reward grows with the mass the candidate can see.
    """
    volume = float(np.prod(cfg.area[:, 1] - cfg.area[:, 0]))
    return MeasModel(cfg.observation, cfg.meas_noise, cfg.clutter_rate * volume, None)


def _score(
    predicted: GaussianMixture,
    z_star: PointPattern,
    positions: np.ndarray,
    cfg: ScenarioConfig,
    inner_pred: float,
) -> tuple[np.ndarray, list[GaussianMixture | None]]:
    """Rewards and posterior previews of every candidate position.

    The hypothetical update runs once for all in-area candidates, and the
    Gaussian pair tables of csd_terms' inner products are built from
    covariance factors shared by all of them: the posteriors' covariances do
    not depend on the position (see CenteredUpdates).  Out-of-area
    candidates score -inf with no preview.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, cfg.meas_dim)
    rewards = np.full(len(positions), -math.inf)
    previews: list[GaussianMixture | None] = [None] * len(positions)
    inside = np.flatnonzero([in_area(p, cfg) for p in positions])
    if inside.size == 0:
        return rewards, previews
    (term,) = detection_profile(cfg, positions[inside[0]]).terms
    update = phd_update_at_centers(
        predicted, z_star, term, positions[inside], planning_meas_model(cfg)
    )
    # Zero-weight predicted components carry zero weight into every block.
    keep = predicted.weights > 0.0
    w, m, p = predicted.weights[keep], predicted.means[keep], predicted.covs[keep]
    p2 = update.covs[keep]
    # Pair tables fixed for the step: N(m_i; m_j, P_i + P_j), and the factors
    # of P_i + p2_j (predicted by detection) and p2_i + p2_j (detection pairs).
    g_pp = np.exp(pairwise_log_inner(m, p, m, p))
    f_pd = gauss_factor(p[:, None] + p2[None, :])
    f_dd = gauss_factor(p2[:, None] + p2[None, :])
    for t, index in enumerate(inside):
        previews[index] = update.posterior(t)
        w_missed = update.missed[t][keep]
        w_det = update.detected[t][:, keep]
        im = np.flatnonzero(w_missed > 0.0)
        dz, dj = np.nonzero(w_det > 0.0)
        w_post = np.concatenate([w_missed[im], w_det[dz, dj]])
        vv = uv = 0.0
        if w_post.size:
            md = update.means[t][:, keep][dz, dj]
            g_pd = np.exp(
                log_gauss_factored(m[:, None] - md[None], (f_pd[0][:, dj], f_pd[1][:, dj]))
            )
            # The detection-pair table is symmetric: evaluate one triangle.
            a, b = np.triu_indices(dj.size)
            pair = (dj[a], dj[b])
            g_dd = np.empty((dj.size, dj.size))
            g_dd[a, b] = g_dd[b, a] = np.exp(
                log_gauss_factored(md[a] - md[b], (f_dd[0][pair], f_dd[1][pair]))
            )
            g_post = np.block([[g_pp[np.ix_(im, im)], g_pd[im]], [g_pd[im].T, g_dd]])
            vv = float(w_post @ g_post @ w_post)
            uv = float(w @ np.concatenate([g_pp[:, im], g_pd], axis=1) @ w_post)
        rewards[index] = csd_terms(1.0, inner_pred, vv, uv)
    return rewards, previews


def _evaluate_candidate(
    position: np.ndarray,
    predicted: GaussianMixture,
    z_star: PointPattern,
    cfg: ScenarioConfig,
    inner_pred: float,
) -> tuple[float, GaussianMixture | None]:
    """(reward, posterior preview) of one candidate position."""
    rewards, previews = _score(predicted, z_star, position, cfg, inner_pred)
    return float(rewards[0]), previews[0]


def reward(
    position, predicted: GaussianMixture, z_star: PointPattern, cfg: ScenarioConfig
) -> float:
    """Cauchy-Schwarz divergence between predicted and hypothetical posterior
    intensities for a sensor at ``position``; -inf outside the area.

    Computed the direct way, one phd_update and three mixture inner
    products, as the reference that the factored scorer is checked against.
    """
    position = np.asarray(position, dtype=float).reshape(-1)
    if not in_area(position, cfg):
        return -math.inf
    profile = detection_profile(cfg, position)
    posterior = phd_update(predicted, z_star, profile, planning_meas_model(cfg))
    return csd_terms(
        1.0,
        mixture_inner(predicted, predicted),
        mixture_inner(posterior, posterior),
        mixture_inner(predicted, posterior),
    )


def _best_index(evaluations: list[ActionEvaluation]) -> int:
    """Index of the highest reward; ties go to the earliest candidate."""
    return int(np.argmax([e.reward for e in evaluations]))


def select_action(
    predicted: GaussianMixture, s_prev, cfg: ScenarioConfig
) -> tuple[np.ndarray, list[ActionEvaluation]]:
    """Argmax of the ideal reward over the action grid.

    Returns (chosen position, evaluations for every candidate).  The earliest
    best candidate wins, implementing the smallest-displacement-then-
    smallest-angle tie-break.
    """
    candidates = action_positions(s_prev, cfg)
    z_star = ideal_measurements(predicted, cfg.observation, cfg.extraction_threshold)
    rewards, previews = _score(
        predicted, z_star, candidates, cfg, mixture_inner(predicted, predicted)
    )
    evaluations = [
        ActionEvaluation(idx, position, value, preview)
        for idx, (position, value, preview) in enumerate(zip(candidates, rewards, previews))
    ]
    best = _best_index(evaluations)
    if math.isinf(evaluations[best].reward):
        raise RuntimeError("every candidate position is outside the surveillance area")
    return candidates[best], evaluations
