"""Look-ahead sensor control: ideal measurements, reward, action selection."""

import math

import numpy as np
import pytest

from ppdiv import (
    GaussianMixture,
    PointPattern,
    ScenarioConfig,
    detection_profile,
    ideal_measurements,
    phd_update,
    reward,
    select_action,
)


def track(mean, pos_var=25.0, vel_var=4.0, weight=0.95):
    return (
        weight,
        np.asarray(mean, dtype=float),
        np.diag([pos_var, pos_var, vel_var, vel_var]),
    )


def mixture(*comps):
    w, m, p = zip(*comps)
    return GaussianMixture(np.array(w), np.array(m), np.array(p))


def test_ideal_measurements_threshold():
    u = mixture(
        track([100.0, 200.0, 1.0, 0.0], weight=0.95),
        track([300.0, 400.0, 0.0, 1.0], weight=0.3),
    )
    h = np.eye(2, 4)
    z = ideal_measurements(u, h)
    assert z.points.shape == (1, 2)
    assert np.allclose(z.points[0], [100.0, 200.0])
    # Default threshold is strict, so exactly 0.5 does not count.
    z = ideal_measurements(mixture(track([1.0, 2.0, 0.0, 0.0], weight=0.5)), h)
    assert len(z) == 0
    z = ideal_measurements(
        mixture(
            track([10.0, 20.0, 0.0, 0.0], weight=0.9),
            track([30.0, 40.0, 0.0, 0.0], weight=0.8),
        ),
        h,
    )
    assert np.allclose(z.points, [[10.0, 20.0], [30.0, 40.0]])


def test_planning_model_uses_scan_clutter_mass():
    cfg = ScenarioConfig()
    model = cfg.planning_model
    assert model.clutter_rate == pytest.approx(cfg.clutter_rate * 1000.0 * 1000.0)
    assert model.clutter_region is None
    assert np.allclose(model.observation, cfg.observation)
    assert np.allclose(model.noise, cfg.meas_noise)


def test_reward_sign_and_out_of_area():
    cfg = ScenarioConfig()
    u = mixture(track([500.0, 500.0, 0.0, 0.0]))
    z = ideal_measurements(u, cfg.observation)
    assert reward([500.0, 500.0], u, z, cfg) > 0.0
    assert reward([400.0, 650.0], u, z, cfg) >= 0.0
    assert reward([-1.0, 500.0], u, z, cfg) == -math.inf
    assert reward([500.0, 1000.5], u, z, cfg) == -math.inf


def test_reward_vanishes_when_nothing_is_detectable():
    # A tight detection footprint leaves a distant sensor effectively blind,
    # so the hypothetical update returns the prediction and the reward is 0.
    cfg = ScenarioConfig(detection_shape=100.0 * np.eye(2))
    u = mixture(track([100.0, 100.0, 0.0, 0.0]))
    z = ideal_measurements(u, cfg.observation)
    assert abs(reward([900.0, 900.0], u, z, cfg)) < 1e-9
    assert reward([100.0, 100.0], u, z, cfg) > 1e-6


def test_reward_with_empty_ideal_measurements():
    cfg = ScenarioConfig(detection_shape=100.0 * np.eye(2))
    u = mixture(track([100.0, 100.0, 0.0, 0.0], weight=0.4))
    z = ideal_measurements(u, cfg.observation)
    assert len(z) == 0
    far = reward([900.0, 900.0], u, z, cfg)
    near = reward([100.0, 100.0], u, z, cfg)
    assert abs(far) < 1e-9
    assert near >= 0.0


def test_reward_prefers_near_candidate():
    cfg = ScenarioConfig()
    u = mixture(track([200.0, 800.0, 5.0, -8.0]))
    z = ideal_measurements(u, cfg.observation)
    near = reward([250.0, 750.0], u, z, cfg)
    far = reward([950.0, 50.0], u, z, cfg)
    assert near > far


@pytest.mark.parametrize("pos_var", [25.0, 2500.0])
def test_reward_monotone_toward_single_track(pos_var):
    # Approaching a lone confident track must never lower the reward, for
    # sharp tracks as well as broad ones.
    cfg = ScenarioConfig()
    u = mixture(track([500.0, 500.0, 0.0, 0.0], pos_var=pos_var))
    z = ideal_measurements(u, cfg.observation)
    radii = np.linspace(0.0, 440.0, 12)
    for ang in np.arange(8) * (math.pi / 4.0):
        direction = np.array([math.cos(ang), math.sin(ang)])
        vals = [reward(u.means[0][:2] + r * direction, u, z, cfg) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_select_action_shape_and_consistency():
    cfg = ScenarioConfig()
    u = mixture(
        track([300.0, 300.0, 1.0, 0.0]),
        track([700.0, 600.0, 0.0, 1.0], weight=0.7),
    )
    s_prev = np.array([250.0, 250.0])
    chosen, evals = select_action(u, s_prev, cfg)
    assert len(evals) == 17
    assert [e.action_index for e in evals] == list(range(17))
    best = max(range(17), key=lambda i: (evals[i].reward, -i))
    assert np.allclose(chosen, evals[best].candidate_position)
    # Spot-check stored rewards against the standalone scorer.
    z = ideal_measurements(u, cfg.observation, cfg.extraction_threshold)
    for idx in (0, 5, 11):
        again = reward(evals[idx].candidate_position, u, z, cfg)
        assert evals[idx].reward == pytest.approx(again, rel=1e-12)
    # The chosen candidate alone carries a preview: phd_update's posterior
    # at its position, bit for bit.
    preview = evals[best].posterior_preview
    want = phd_update(u, z, detection_profile(cfg, chosen), cfg.planning_model)
    assert np.array_equal(preview.weights, want.weights)
    assert np.array_equal(preview.means, want.means)
    assert np.array_equal(preview.covs, want.covs)
    assert all(e.posterior_preview is None for e in evals if e.action_index != best)
    chosen2, evals2 = select_action(u, s_prev, cfg)
    assert np.array_equal(chosen, chosen2)
    assert [e.reward for e in evals] == [e.reward for e in evals2]


def test_select_action_moves_toward_lone_track():
    cfg = ScenarioConfig()
    u = mixture(track([600.0, 600.0, 0.0, 0.0]))
    s_prev = np.array([250.0, 250.0])
    chosen, _ = select_action(u, s_prev, cfg)
    before = np.linalg.norm(s_prev - [600.0, 600.0])
    after = np.linalg.norm(chosen - [600.0, 600.0])
    assert after < before


def test_select_action_tie_break_prefers_staying():
    cfg = ScenarioConfig()
    empty = GaussianMixture.empty(4)
    chosen, evals = select_action(empty, np.array([500.0, 500.0]), cfg)
    assert np.allclose(chosen, [500.0, 500.0])
    assert all(e.reward == pytest.approx(0.0, abs=1e-12) for e in evals)


def test_select_action_single_feasible_candidate():
    cfg = ScenarioConfig(
        area=((0.0, 10.0), (0.0, 10.0)), truth_script=(), sensor_start=(5.0, 5.0)
    )
    u = mixture(track([5.0, 5.0, 0.0, 0.0]))
    chosen, evals = select_action(u, np.array([5.0, 5.0]), cfg)
    assert np.allclose(chosen, [5.0, 5.0])
    finite = [e for e in evals if math.isfinite(e.reward)]
    assert len(finite) == 1 and finite[0].action_index == 0
    assert all(e.posterior_preview is None for e in evals if e.action_index != 0)


def test_select_action_rejects_stranded_sensor():
    cfg = ScenarioConfig()
    u = mixture(track([500.0, 500.0, 0.0, 0.0]))
    with pytest.raises(RuntimeError):
        select_action(u, np.array([5000.0, 5000.0]), cfg)


def test_chosen_positions_stay_in_area():
    cfg = ScenarioConfig()
    u = mixture(track([20.0, 20.0, 0.0, 0.0]))
    s = np.array([30.0, 30.0])
    for _ in range(5):
        s, _ = select_action(u, s, cfg)
        assert 0.0 <= s[0] <= 1000.0 and 0.0 <= s[1] <= 1000.0


def test_reward_with_explicit_empty_pattern():
    cfg = ScenarioConfig(detection_shape=100.0 * np.eye(2))
    u = mixture(track([100.0, 100.0, 0.0, 0.0]))
    val = reward([900.0, 900.0], u, PointPattern(np.zeros((0, 2)), dim=2), cfg)
    assert abs(val) < 1e-9
