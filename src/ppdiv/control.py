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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import csd_terms
from .gaussmix import GaussianMixture, mixture_inner
from .gmphd import MeasModel, phd_update
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


def _evaluate_candidate(
    position: np.ndarray,
    predicted: GaussianMixture,
    z_star: PointPattern,
    cfg: ScenarioConfig,
    inner_pred: float,
) -> tuple[float, GaussianMixture | None]:
    if not in_area(position, cfg):
        return -math.inf, None
    profile = detection_profile(cfg, position)
    posterior = phd_update(predicted, z_star, profile, planning_meas_model(cfg))
    value = csd_terms(
        1.0,
        inner_pred,
        mixture_inner(posterior, posterior),
        mixture_inner(predicted, posterior),
    )
    return value, posterior


def reward(
    position, predicted: GaussianMixture, z_star: PointPattern, cfg: ScenarioConfig
) -> float:
    """Cauchy-Schwarz divergence between predicted and hypothetical posterior
    intensities for a sensor at ``position``; -inf outside the area."""
    position = np.asarray(position, dtype=float).reshape(-1)
    value, _ = _evaluate_candidate(
        position, predicted, z_star, cfg, mixture_inner(predicted, predicted)
    )
    return value


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
    inner_pred = mixture_inner(predicted, predicted)
    evaluations: list[ActionEvaluation] = []
    for idx, position in enumerate(candidates):
        value, preview = _evaluate_candidate(position, predicted, z_star, cfg, inner_pred)
        evaluations.append(ActionEvaluation(idx, position, value, preview))
    best = _best_index(evaluations)
    if math.isinf(evaluations[best].reward):
        raise RuntimeError("every candidate position is outside the surveillance area")
    return candidates[best], evaluations
