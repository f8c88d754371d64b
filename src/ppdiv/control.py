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
(a mirrored self table, in row blocks of about 2**16 pairs), the factors of
P_i + p2_j and p2_i + p2_j are taken once per step, as full tables, and each
candidate evaluates only the mean-dependent Mahalanobis terms of G_pd and
G_dd.  Every entry is the one pairwise_log_inner would give for the same
pair, to the last bit.

Most detection components are far too light to move a reward's bits, so
each candidate drops its lightest ones under a proven bound before any pair
work.  Since det(A + B) >= det(B) for A positive semidefinite and B positive
definite, every term of G_pd or G_dd on detection component j is at most
its peak h_j = N(0; 0, p2_j) = (2 pi)^(-d/2) det(p2_j)^(-1/2).  Split the
candidate's detection weights as d = d_K + d_D (kept plus dropped), with
W = sum d and r_j = d_j h_j.  The dropped terms are

    sq_full - sq_kept = -2 c' G_pd d_D + 2 d_K' G_dd d_D + d_D' G_dd d_D,

so |sq_full - sq_kept| <= 2 (|c|_1 + W) sum_{j in D} r_j; the 1-norm because
the missed-mass spread can make c negative.  The smallest r_j are dropped
for as long as that bound stays below eps c' G_pp c, eps the machine
epsilon: one rounding of c' G_pp c, a term the sum computes anyway, already
moves it by up to half of that, so the dropped terms stay below the last
bit the reward's own terms carry.  The factors of P_i + p2_j and
p2_i + p2_j are then taken only over U, the union of the components some
candidate keeps, and each candidate evaluates G_pd and G_dd over its own
kept set: the same quadratic form over fewer terms, with no threshold to
set.
``reward`` keeps the direct route (phd_update and three mixture inner
products per position, every term kept): it is the reference the scorer is
tested against.  The scorer hands back the batched update with its rewards,
and select_action lays out the chosen candidate's posterior preview from it
(CenteredUpdates.posterior), so a step runs the look-ahead update once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gaussmix
from .divergence import csd_from_sq_distance
from .gaussmix import GaussianMixture, gauss_factor, log_gauss_factored, mixture_inner
from .gmphd import CenteredUpdates, phd_update, phd_update_at_centers
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


def _kept(
    predicted: GaussianMixture, update: CenteredUpdates, g_pp: np.ndarray
) -> list[tuple[np.ndarray, float, np.ndarray, np.ndarray]]:
    """Per in-area candidate t: (c, c' G_pp c, dz, dj), with (dz, dj) the
    detection components of ``update.detected[t]`` that its reward keeps.

    Every pair term on detection component j is at most its peak h_j =
    N(0; 0, p2_j), so the lightest components, by r_j = d_j h_j, are dropped
    for as long as 2 (|c|_1 + W) sum_dropped r_j stays below eps c' G_pp c
    (the module docstring derives the bound).  The order is a stable sort,
    and the kept components stay in the order np.nonzero gives them.  With
    c' G_pp c = 0 nothing is below the budget, so nothing is dropped.
    """
    w, p2 = predicted.weights, update.covs
    peaks = np.exp(log_gauss_factored(np.zeros(p2.shape[-1]), gauss_factor(p2)))
    kept = []
    for missed, detected in zip(update.missed, update.detected):
        c = w - missed
        q = c @ g_pp @ c
        dz, dj = np.nonzero(detected)
        d = detected[dz, dj]
        r = d * peaks[dj]
        order = np.argsort(r, kind="stable")
        bound = 2.0 * (np.abs(c).sum() + d.sum()) * np.cumsum(r[order])
        keep = np.sort(order[np.searchsorted(bound, np.finfo(float).eps * q) :])
        kept.append((c, q, dz[keep], dj[keep]))
    return kept


def _score(
    predicted: GaussianMixture,
    z_star: PointPattern,
    positions: np.ndarray,
    cfg: ScenarioConfig,
) -> tuple[np.ndarray, CenteredUpdates | None]:
    """Reward of every candidate position, and the hypothetical update they
    are read from, one center per in-area candidate in grid order (None if
    there is none); no posterior is laid out.

    The hypothetical update runs once for all in-area candidates.  Each
    reward is (1/2) ||u - v||^2 over the predicted components (weights
    w - w_missed) and the detection components (weights -d) that _kept
    keeps for the candidate, and its Gaussian pair tables are built from
    covariance factors shared by all candidates: the posteriors'
    covariances do not depend on the position (see CenteredUpdates).
    Out-of-area candidates score -inf.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, cfg.meas_dim)
    rewards = np.full(len(positions), -math.inf)
    inside = np.flatnonzero([in_area(p, cfg) for p in positions])
    if inside.size == 0:
        return rewards, None
    update = phd_update_at_centers(
        predicted, z_star, cfg.detection_term, positions[inside], cfg.planning_model
    )
    # A zero-weight predicted component gets c = 0 and detection weights 0.
    m, p = predicted.means, predicted.covs
    # N(m_i; m_j, P_i + P_j), fixed for the step.  The table goes through the
    # gaussmix attribute, which the benchmark's tracer wraps.
    g_pp = np.exp(gaussmix.pairwise_log_inner(m, p, m, p))
    kept = _kept(predicted, update, g_pp)
    # The factors of P_i + p2_j (predicted by detection) and p2_i + p2_j
    # (detection pairs), over U alone, the sorted union of the kept
    # components.  U is tiny (a median of 5 in the desk scene), so the
    # detection pairs take the full U x U square: p2_i + p2_j and p2_j + p2_i
    # are the same sum and md_a - md_b is the exact negative of md_b - md_a,
    # so each G_dd comes out bitwise symmetric without mirroring.
    union = np.unique(np.concatenate([dj for *_, dj in kept]))
    p2 = update.covs[union]
    f_pd = gauss_factor(p[:, None] + p2[None, :])
    f_dd = gauss_factor(p2[:, None] + p2[None, :])
    for t, (index, (c, q, dz, dj)) in enumerate(zip(inside, kept)):
        d = update.detected[t][dz, dj]
        md = update.means[t][dz, dj]
        du = np.searchsorted(union, dj)
        g_pd = np.exp(log_gauss_factored(m[:, None] - md[None], (f_pd[0][:, :, du], f_pd[1][:, du])))
        col = du[:, None]
        g_dd = np.exp(log_gauss_factored(md[:, None] - md[None], (f_dd[0][:, col, du], f_dd[1][col, du])))
        sq = q - 2.0 * (c @ g_pd @ d) + d @ g_dd @ d
        rewards[index] = csd_from_sq_distance(1.0, sq)
    return rewards, update


def _evaluate_candidate(
    position: np.ndarray,
    predicted: GaussianMixture,
    z_star: PointPattern,
    cfg: ScenarioConfig,
) -> float:
    """Reward of one candidate position."""
    return float(_score(predicted, z_star, position, cfg)[0][0])


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
    posterior preview: the posterior its reward was scored on, laid out from
    the scorer's update, so no update runs after the scoring.
    """
    candidates = action_positions(s_prev, cfg)
    z_star = ideal_measurements(predicted, cfg.observation, cfg.extraction_threshold)
    rewards, update = _score(predicted, z_star, candidates, cfg)
    evaluations = [
        ActionEvaluation(idx, position, value, None)
        for idx, (position, value) in enumerate(zip(candidates, rewards))
    ]
    best = best_index(evaluations)
    if math.isinf(evaluations[best].reward):
        raise RuntimeError("every candidate position is outside the surveillance area")
    # The update's centers are the in-area candidates, the ones not at -inf.
    preview = update.posterior(int(np.count_nonzero(rewards[:best] != -math.inf)))
    evaluations[best] = replace(evaluations[best], posterior_preview=preview)
    return candidates[best], evaluations
