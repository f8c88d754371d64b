"""Single-step look-ahead sensor control with a divergence reward.

Each candidate sensor position is scored by the Cauchy-Schwarz divergence
between the predicted intensity and the posterior intensity that would
result from updating against the ideal measurement set Z* (the projected
means of confidently-detected predicted components, with no noise and no
clutter).  Moving toward targets raises their detection probability, which
makes the hypothetical update more informative and the divergence larger, so
the argmax chases information.  The update reads two models the config built
once: ``cfg.detection_term``, p_D's term moved to each candidate, and
``cfg.planning_model``, the sensor with the whole scan's clutter mass as its
rate (ScenarioConfig says why).

Out-of-area candidates score -inf and can never win; ties go to the earliest
candidate in grid order (stay put, then increasing ring radius, then
increasing angle index), which makes selection fully deterministic.

The reward is D_CS = (k/2) ||u - v||^2, k = 1, with u the predicted and v
the hypothetical posterior intensity.  The missed block of v reuses u's
components, so u - v has weights c = w - w_missed on u's components and -d on
v's nonzero-weight detection components, and ||u - v||^2 = c' G_pp c -
2 c' G_pd d + d' G_dd d over Gaussian pair tables N(m_i; m_j, C_i + C_j);
divergence.csd_from_sq_distance turns it into D_CS.  At one step every
candidate's posterior has the same covariances: the predicted P_i in the
missed block and, in each detection block, the p2_i that conditions P_i on
the detection term's fixed shape and then on the measurement noise.  The
sensor position moves only weights and means.  So G_pp comes once per step
from gaussmix.pairwise_log_inner, the one evaluator of Gaussian pair tables
(on one triangle, in blocks of 2**16 pairs), the factors of P_i + p2_j and
p2_i + p2_j are taken once per step (the latter on one triangle, as they are
exactly symmetric), and each candidate evaluates only the mean-dependent
Mahalanobis terms of G_pd and G_dd.
``reward`` keeps the direct route (phd_update and three mixture inner
products per position): it is the reference the scorer is tested against.
The scorer returns rewards only; select_action runs phd_update once, at the
chosen position, for the one posterior preview it hands back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gaussmix
from .divergence import csd_from_sq_distance
from .gaussmix import GaussianMixture, gauss_factor, log_gauss_factored, mixture_inner
from .gmphd import phd_update, phd_update_at_centers
from .pointprocess import PointPattern
from .scenario import (
    ScenarioConfig,
    action_positions,
    detection_profile,
    in_area,
)


@dataclass(frozen=True)
class ActionEvaluation:
    """Score of one candidate position; reward is -inf iff out of area.  Only
    select_action's chosen candidate carries a posterior preview, else None."""

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


def _score(
    predicted: GaussianMixture,
    z_star: PointPattern,
    positions: np.ndarray,
    cfg: ScenarioConfig,
) -> np.ndarray:
    """Reward of every candidate position; no posterior is built.

    The hypothetical update runs once for all in-area candidates.  Each
    reward is (1/2) ||u - v||^2 over the predicted components (weights
    w - w_missed) and the candidate's detection components (weights -d), and
    its Gaussian pair tables are built from covariance factors shared by all
    candidates: the posteriors' covariances do not depend on the position
    (see CenteredUpdates).  Out-of-area candidates score -inf.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, cfg.meas_dim)
    rewards = np.full(len(positions), -math.inf)
    inside = np.flatnonzero([in_area(p, cfg) for p in positions])
    if inside.size == 0:
        return rewards
    update = phd_update_at_centers(
        predicted, z_star, cfg.detection_term, positions[inside], cfg.planning_model
    )
    # A zero-weight predicted component gets c = 0 and detection weights 0.
    w, m, p, p2 = predicted.weights, predicted.means, predicted.covs, update.covs
    # Pair tables fixed for the step: N(m_i; m_j, P_i + P_j), and the factors
    # of P_i + p2_j (predicted by detection) and p2_i + p2_j (detection pairs).
    # The last are exactly symmetric in i and j, so they are factored on one
    # triangle, packed, and ``tri`` maps (i, j) into it.  The table goes
    # through the gaussmix attribute, which the benchmark's tracer wraps.
    g_pp = np.exp(gaussmix.pairwise_log_inner(m, p, m, p))
    a, b = np.triu_indices(w.size)
    tri = np.empty((w.size, w.size), dtype=np.intp)
    tri[a, b] = tri[b, a] = np.arange(a.size)
    f_pd = gauss_factor(p[:, None] + p2[None, :])
    f_dd = gauss_factor(p2[a] + p2[b])
    for t, index in enumerate(inside):
        c = w - update.missed[t]
        dz, dj = np.nonzero(update.detected[t])
        d = update.detected[t][dz, dj]
        md = update.means[t][dz, dj]
        g_pd = np.exp(log_gauss_factored(m[:, None] - md[None], (f_pd[0][:, dj], f_pd[1][:, dj])))
        # The detection-pair table is symmetric too: one triangle again.
        da, db = np.triu_indices(dj.size)
        pair = tri[dj[da], dj[db]]
        g_dd = np.empty((dj.size, dj.size))
        g_dd[da, db] = g_dd[db, da] = np.exp(
            log_gauss_factored(md[da] - md[db], (f_dd[0][pair], f_dd[1][pair]))
        )
        sq = c @ g_pp @ c - 2.0 * (c @ g_pd @ d) + d @ g_dd @ d
        rewards[index] = csd_from_sq_distance(1.0, sq)
    return rewards


def _evaluate_candidate(
    position: np.ndarray,
    predicted: GaussianMixture,
    z_star: PointPattern,
    cfg: ScenarioConfig,
) -> float:
    """Reward of one candidate position."""
    return float(_score(predicted, z_star, position, cfg)[0])


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
    posterior = phd_update(
        predicted, z_star, detection_profile(cfg, position), cfg.planning_model
    )
    return csd_from_sq_distance(
        1.0,
        mixture_inner(predicted, predicted)
        + mixture_inner(posterior, posterior)
        - 2.0 * mixture_inner(predicted, posterior),
    )


def best_index(evaluations: list[ActionEvaluation]) -> int:
    """Index of the highest reward; ties go to the earliest candidate."""
    return int(np.argmax([e.reward for e in evaluations]))


def select_action(
    predicted: GaussianMixture, s_prev, cfg: ScenarioConfig
) -> tuple[np.ndarray, list[ActionEvaluation]]:
    """Argmax of the ideal reward over the action grid.

    Returns (chosen position, evaluations for every candidate).  The earliest
    best candidate wins, implementing the smallest-displacement-then-
    smallest-angle tie-break.  The chosen evaluation alone carries a
    posterior preview, from phd_update at its position.
    """
    candidates = action_positions(s_prev, cfg)
    z_star = ideal_measurements(predicted, cfg.observation, cfg.extraction_threshold)
    rewards = _score(predicted, z_star, candidates, cfg)
    evaluations = [
        ActionEvaluation(idx, position, value, None)
        for idx, (position, value) in enumerate(zip(candidates, rewards))
    ]
    best = best_index(evaluations)
    if math.isinf(evaluations[best].reward):
        raise RuntimeError("every candidate position is outside the surveillance area")
    profile = detection_profile(cfg, candidates[best])
    preview = phd_update(predicted, z_star, profile, cfg.planning_model)
    evaluations[best] = replace(evaluations[best], posterior_preview=preview)
    return candidates[best], evaluations
