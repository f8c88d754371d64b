"""Truth simulation, detection model, measurements, and configuration."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from ppdiv import (
    ConfigError,
    DetectionProfile,
    DetectionTerm,
    ScenarioConfig,
    TruthState,
    TruthTarget,
    action_positions,
    config_from_dict,
    config_to_dict,
    detection_probability,
    detection_profile,
    generate_measurements,
    load_config,
    run_simulation,
    step_truth,
)
from ppdiv.gaussmix import log_gauss
from ppdiv.pointprocess import MAX_POISSON_MEAN, RngStream, sample_poisson_counts
from ppdiv import scenario
from ppdiv.scenario import in_area


def replay_truth(cfg, seed, upto):
    rng = RngStream(seed, stream_id=0).child(0)
    truth = TruthState.empty(cfg.state_dim)
    frames = {}
    for k in range(1, upto + 1):
        truth = step_truth(truth, cfg, rng, k)
        frames[k] = truth
    return frames


def test_truth_target_lifetime_convention():
    t = TruthTarget(5, 9, np.zeros(4))
    assert not t.alive_at(4)
    assert t.alive_at(5) and t.alive_at(8)
    assert not t.alive_at(9)
    forever = TruthTarget(1, None, np.zeros(4))
    assert forever.alive_at(10_000)
    with pytest.raises(ValueError):
        TruthTarget(5, 5, np.zeros(4))


def test_noiseless_truth_advances_by_velocity():
    cfg = ScenarioConfig(
        process_noise=np.zeros((4, 4)),
        truth_script=(TruthTarget(1, None, [100.0, 200.0, 3.0, -2.0]),),
    )
    frames = replay_truth(cfg, 0, 3)
    # Birth step leaves the scripted state untouched; later steps integrate.
    assert np.allclose(frames[1].states[0], [100.0, 200.0, 3.0, -2.0])
    assert np.allclose(frames[2].states[0], [103.0, 198.0, 3.0, -2.0])
    assert np.allclose(frames[3].states[0], [106.0, 196.0, 3.0, -2.0])


def test_default_script_births_and_deaths():
    cfg = ScenarioConfig()
    frames = replay_truth(cfg, 1, 30)
    assert len(frames[1]) == 2
    assert len(frames[19]) == 2
    assert len(frames[20]) == 1
    assert len(frames[26]) == 1
    assert len(frames[27]) == 2
    born = frames[27].states[[i for i, t in enumerate(frames[27].ids) if t == 2][0]]
    assert np.allclose(born, [500.0, 500.0, 6.0, 0.0])


def test_truth_propagation_mean():
    # One-step propagation of many identical targets matches F x on average.
    state = np.array([10.0, -5.0, 2.0, 1.0])
    n = 10_000
    script = tuple(TruthTarget(1, None, state) for _ in range(n))
    cfg = ScenarioConfig(truth_script=script)
    rng = RngStream(3).child(0)
    born = step_truth(TruthState.empty(4), cfg, rng, 1)
    stepped = step_truth(born, cfg, rng, 2)
    target = cfg.transition @ state
    sd = np.sqrt(np.diag(cfg.process_noise))
    err = np.abs(stepped.states.mean(axis=0) - target)
    assert np.all(err < 3.0 * sd / math.sqrt(n) + 1e-12)


def test_detection_probability_peak_and_reference_value():
    cfg = ScenarioConfig()
    x = np.array([400.0, 600.0, 1.0, 1.0])
    assert detection_probability(x, x[:2], cfg) == pytest.approx(1.0, abs=1e-12)
    # Direct quadratic-form evaluation at a 1000 m offset.
    delta = np.array([1000.0, 0.0])
    s_inv = np.linalg.inv(cfg.detection_shape)
    expected = math.exp(-0.5 * delta @ s_inv @ delta)
    got = detection_probability(x, x[:2] + delta, cfg)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.6997, abs=1e-4)


def test_detection_probability_monotone_along_rays():
    cfg = ScenarioConfig()
    x = np.array([500.0, 500.0, 0.0, 0.0])
    gen = np.random.default_rng(11)
    for _ in range(20):
        ang = gen.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(ang), math.sin(ang)])
        radii = np.sort(gen.uniform(0.0, 2000.0, size=8))
        vals = [detection_probability(x, x[:2] + r * direction, cfg) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_detection_profile_matches_pointwise_probability():
    cfg = ScenarioConfig()
    sensor = np.array([300.0, 700.0])
    profile = detection_profile(cfg, sensor)
    gen = np.random.default_rng(13)
    states = gen.uniform(0.0, 1000.0, size=(50, 4))
    batch = profile.evaluate(states)
    for x, val in zip(states, batch):
        assert detection_probability(x, sensor, cfg) == pytest.approx(val, rel=1e-14)


def test_detection_profile_equals_the_checked_construction():
    # The scenario moves one term checked with the config instead of
    # building and probing a profile per call; the result is the same.
    cfg = ScenarioConfig(detection_shape=[[400.0, 30.0], [30.0, 900.0]])
    sensor = [310.0, 420.0]
    peak = float(np.exp(-log_gauss(np.zeros(2), cfg.detection_shape)))
    term = DetectionTerm(peak, sensor, cfg.detection_shape, cfg.observation)
    want = DetectionProfile(0.0, (term,))
    got = detection_profile(cfg, sensor)
    assert got.constant == want.constant and len(got.terms) == 1
    for field in ("weight", "center", "cov", "projection"):
        a, b = np.asarray(getattr(got.terms[0], field)), np.asarray(getattr(term, field))
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="non-finite"):
        detection_profile(cfg, [np.nan, 0.0])
    with pytest.raises(ValueError, match="center dimension 3"):
        detection_profile(cfg, [1.0, 2.0, 3.0])


def test_config_keeps_its_models_read_only_and_out_of_the_document():
    cfg = ScenarioConfig(survival_prob=0.9, clutter_rate=1e-5, ospa_cutoff=50.0)
    assert cfg.motion.survival_prob == 0.9
    assert cfg.births.birth is cfg.birth and cfg.births.spawn_terms == cfg.spawn_terms
    assert cfg.sensor_model.clutter_rate == 1e-5
    assert cfg.sensor_model.clutter_region.tobytes() == cfg.area.tobytes()
    assert cfg.planning_model.clutter_rate == cfg.clutter_mass == 1e-5 * 1e6
    assert cfg.ospa_params.cutoff == 50.0
    document = config_to_dict(cfg)
    for name in (
        "motion", "births", "sensor_model", "planning_model", "clutter_mass",
        "detection_term", "truth_noise_factor", "ospa_params",
    ):
        assert name not in document
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, None)


def test_truth_noise_is_factored_once_per_config(monkeypatch):
    # The factor is an eigendecomposition (process noise may be singular);
    # the config takes it once, and no step of a run takes it again.
    calls = []
    factor = scenario._psd_factor
    monkeypatch.setattr(scenario, "_psd_factor", lambda q: calls.append(q) or factor(q))
    cfg = ScenarioConfig(horizon=5)
    assert len(calls) == 1 and calls[0] is cfg.process_noise
    assert cfg.truth_noise_factor.tobytes() == factor(cfg.process_noise).tobytes()
    run_simulation(cfg, 3, "stay")
    assert len(calls) == 1


def test_measurements_ideal_sensor():
    cfg = ScenarioConfig(
        clutter_rate=0.0,
        meas_noise=1e-18 * np.eye(2),
        truth_script=(TruthTarget(1, None, [400.0, 400.0, 0.0, 0.0]),),
    )
    truth = TruthState((0,), np.array([[400.0, 400.0, 0.0, 0.0]]))
    zs = generate_measurements(truth, np.array([400.0, 400.0]), cfg, RngStream(1))
    assert len(zs) == 1
    assert np.allclose(zs.points[0], [400.0, 400.0], atol=1e-6)


def test_clutter_count_distribution():
    # Scan-level clutter cardinality is Poisson with mean rate * area = 20.
    cfg = ScenarioConfig(truth_script=())
    truth = TruthState.empty(4)
    rng = RngStream(17)
    n = 10_000
    counts = np.array(
        [
            len(generate_measurements(truth, np.array([500.0, 500.0]), cfg, rng.child(i)))
            for i in range(n)
        ]
    )
    mean = counts.mean()
    assert abs(mean - 20.0) < 3.0 * math.sqrt(20.0 / n)

    # Chi-squared goodness of fit with tails pooled to expected count >= 5.
    lo, hi = 10, 31
    edges = list(range(lo, hi + 1))
    observed = [np.sum(counts <= lo - 1)]
    observed += [np.sum(counts == k) for k in edges]
    observed.append(np.sum(counts >= hi + 1))
    pmf = scipy.stats.poisson.pmf(np.array(edges), 20.0)
    expected = np.concatenate(
        [
            [scipy.stats.poisson.cdf(lo - 1, 20.0)],
            pmf,
            [scipy.stats.poisson.sf(hi, 20.0)],
        ]
    ) * n
    assert expected.min() >= 5.0
    stat = float(((np.array(observed) - expected) ** 2 / expected).sum())
    p_value = float(scipy.stats.chi2.sf(stat, len(expected) - 1))
    assert p_value > 0.01

    pts = generate_measurements(truth, np.array([0.0, 0.0]), cfg, rng.child(n))
    assert np.all(pts.points >= 0.0) and np.all(pts.points <= 1000.0)


def test_measurement_noise_covariance():
    target = np.array([500.0, 500.0, 0.0, 0.0])
    cfg = ScenarioConfig(clutter_rate=0.0, truth_script=())
    n = 20_000
    truth = TruthState(tuple(range(n)), np.tile(target, (n, 1)))
    zs = generate_measurements(truth, target[:2], cfg, RngStream(19))
    resid = zs.points - target[:2]
    sample_cov = resid.T @ resid / len(resid)
    assert np.allclose(sample_cov, cfg.meas_noise, rtol=0.05, atol=0.3)


def test_action_grid_geometry():
    cfg = ScenarioConfig()
    s = np.array([500.0, 500.0])
    grid = action_positions(s, cfg)
    assert grid.shape == (17, 2)
    assert len(np.unique(np.round(grid, 9), axis=0)) == 17
    assert np.allclose(grid[0], s)
    assert np.allclose(grid[1], s + [50.0, 0.0])
    assert np.allclose(grid[9], s + [100.0, 0.0])
    radii = np.linalg.norm(grid - s, axis=1)
    assert radii.max() <= 100.0 + 1e-9


def test_in_area_boundaries():
    cfg = ScenarioConfig()
    assert in_area([0.0, 0.0], cfg)
    assert in_area([1000.0, 1000.0], cfg)
    assert not in_area([-0.1, 500.0], cfg)
    assert not in_area([500.0, 1000.1], cfg)


def test_config_roundtrip_and_load(tmp_path):
    cfg = ScenarioConfig(horizon=12, seed=99, clutter_rate=1e-5)
    doc = config_to_dict(cfg)
    back = config_from_dict(doc)
    assert config_to_dict(back) == doc
    path = tmp_path / "cfg.json"
    path.write_text(__import__("json").dumps(doc))
    loaded = load_config(path)
    assert loaded.horizon == 12 and loaded.seed == 99
    assert loaded.clutter_rate == pytest.approx(1e-5)


def test_config_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="horizon"):
        ScenarioConfig(horizon=0)
    with pytest.raises(ConfigError, match="observation"):
        ScenarioConfig(observation=np.eye(3))
    with pytest.raises(ConfigError, match="survival"):
        ScenarioConfig(survival_prob=1.5)
    with pytest.raises(ConfigError, match="clutter"):
        ScenarioConfig(clutter_rate=-1.0)
    with pytest.raises(ConfigError):
        config_from_dict({"horizon": 5, "unknown_field": 1})
    with pytest.raises(ConfigError, match="^process_noise: .*positive semidefinite"):
        ScenarioConfig(process_noise=-np.eye(4))
    with pytest.raises(ConfigError, match="^meas_noise: .*not symmetric"):
        ScenarioConfig(meas_noise=[[9.0, 1.0], [0.0, 9.0]])
    with pytest.raises(ConfigError, match="^detection_shape: .*not positive definite"):
        ScenarioConfig(detection_shape=[[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("shape", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]])
def test_detection_shape_is_judged_before_its_peak_is_computed(shape):
    # The covariance checker's words, not those of the kernel that would
    # evaluate N(0; 0, S) on an indefinite or singular S.
    with pytest.raises(ConfigError) as error:
        ScenarioConfig(detection_shape=shape)
    assert str(error.value) == "detection_shape: covariance is not positive definite"


def test_clutter_mass_beyond_the_poisson_table_is_rejected_at_load():
    # Each scan draws one Poisson count of mean rate x area volume; beyond
    # the table's limit every run used to fail at step 1 naming no field.
    with pytest.raises(ConfigError, match=r"^clutter_rate: rate x area volume is 5000000\.0 "):
        config_from_dict({"clutter_rate": 5.0, "horizon": 2})
    edge = ScenarioConfig(clutter_rate=MAX_POISSON_MEAN / 1e6)
    assert edge.clutter_mass == MAX_POISSON_MEAN
    assert sample_poisson_counts(RngStream(3), edge.clutter_mass, 1)[0] > 0
    with pytest.raises(ConfigError, match="^clutter_rate: "):
        ScenarioConfig(clutter_rate=np.nextafter(MAX_POISSON_MEAN / 1e6, 2.0))


# (field, value, seed, horizon) of configs whose runs failed part-way when
# the filter conditioned in the plain form (I - K D) P, which loses
# definiteness when R, or p_D's shape, is tiny next to the predicted
# covariance.  Each horizon is the shortest at which some policy failed that
# way on that seed; step periods of 1e7 and 1e30 were refused at load for it.
CONDITIONING_CASES = [
    ("step_period", 2e6, 7, 31),
    ("step_period", 3e6, 16, 17),
    ("step_period", 5e6, 9, 4),
    ("meas_noise", 3e-12 * np.eye(2), 0, 1),
    ("meas_noise", 1e-12 * np.eye(2), 0, 1),
    ("meas_noise", 1e-14 * np.eye(2), 0, 1),
    ("step_period", 1e7, 0, 3),
    ("step_period", 1e30, 0, 2),
]


@pytest.mark.parametrize(
    "name, value, seed, horizon",
    CONDITIONING_CASES,
    ids=["period-2e6", "period-3e6", "period-5e6", "noise-3e-12", "noise-1e-12", "noise-1e-14", "period-1e7", "period-1e30"],
)
def test_config_that_loads_runs_to_its_horizon(name, value, seed, horizon):
    cfg = ScenarioConfig(**{name: value, "horizon": horizon})
    for policy in ("cs", "random", "stay"):
        steps = run_simulation(cfg, seed, policy).steps
        assert len(steps) == horizon
        assert all(math.isfinite(step.ospa) and math.isfinite(step.reward) for step in steps), policy


# Matrix fields whose JSON null means "use the default".
DEFAULTED_MATRICES = ("transition", "process_noise", "observation", "meas_noise", "detection_shape")


@pytest.mark.parametrize("value", [None, "x", [1], {"a": 1}], ids=["null", "str", "list", "object"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
def test_every_malformed_field_is_named(name, value):
    if value is None and name in DEFAULTED_MATRICES:
        got = getattr(config_from_dict({name: None}), name)
        assert np.array_equal(got, getattr(ScenarioConfig(), name))
        return
    with pytest.raises(ConfigError, match=rf"^{name}(\[\d+\])?: "):
        config_from_dict({name: value})


@pytest.mark.parametrize("name", ["horizon", "n_radial", "n_angular", "max_components", "seed"])
def test_integer_fields_take_whole_numbers_only(name):
    for bad in (2.9, -0.5, 1e400, float("nan")):
        with pytest.raises(ConfigError, match=f"^{name}: "):
            config_from_dict({name: bad})
    with pytest.raises(ConfigError, match=f"^{name}: must be a whole number, got 2.9$"):
        ScenarioConfig(**{name: 2.9})
    for whole in (40, 40.0, np.int64(40)):
        value = getattr(ScenarioConfig(**{name: whole}), name)
        assert value == 40 and type(value) is int


def test_booleans_are_not_numbers():
    # bool is a numbers.Real, so JSON true once loaded as 1.
    with pytest.raises(ConfigError, match=r"^horizon: must be a number, got True$"):
        config_from_dict({"horizon": True})
    with pytest.raises(ConfigError, match=r"^clutter_rate: must be a number, got False$"):
        config_from_dict({"clutter_rate": False})
    with pytest.raises(
        ConfigError, match=r"^truth_script\[0\]: death_step must be a number, got True$"
    ):
        target = {"birth_step": 0, "death_step": True, "state": [0.0] * 4}
        config_from_dict({"truth_script": [target]})


def test_list_items_are_named_by_index():
    state = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ConfigError, match=r"^truth_script\[1\]: missing key 'state'$"):
        config_from_dict({"truth_script": [{"birth_step": 1, "state": state}, {"birth_step": 2}]})
    with pytest.raises(
        ConfigError, match=r"^truth_script\[0\]: birth_step must be a whole number, got 1.5$"
    ):
        config_from_dict({"truth_script": [{"birth_step": 1.5, "state": state}]})
    with pytest.raises(ConfigError, match=r"^spawn_terms\[0\]: missing key 'transition'$"):
        config_from_dict({"spawn_terms": [{"weight": 0.1}]})
    with pytest.raises(ConfigError, match=r"^truth_script\[0\]: must be a TruthTarget of dimension 4$"):
        ScenarioConfig(truth_script=(TruthTarget(1, None, [0.0, 0.0]),))


def test_sensor_start_outside_area_rejected():
    with pytest.raises(ConfigError, match="sensor_start"):
        ScenarioConfig(sensor_start=(-500.0, -500.0))
    with pytest.raises(ConfigError, match="sensor_start"):
        config_from_dict({"sensor_start": [250.0, 1000.5]})
    # The area's edges are inside it, as for in_area.
    edge = ScenarioConfig(sensor_start=(0.0, 1000.0))
    assert np.array_equal(edge.sensor_start, [0.0, 1000.0])


def test_scenario_matrices_match_constant_velocity_form():
    cfg = ScenarioConfig()
    t = cfg.step_period
    f = np.block([[np.eye(2), t * np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
    assert np.allclose(cfg.transition, f)
    assert np.allclose(cfg.observation, np.block([np.eye(2), np.zeros((2, 2))]))
    assert np.allclose(cfg.meas_noise, 9.0 * np.eye(2))
    assert np.allclose(
        cfg.detection_shape, 1e6 * np.array([[3.0, -2.4], [-2.4, 3.6]])
    )
    # Positive-semidefinite process noise with the white-acceleration layout.
    vals = np.linalg.eigvalsh(cfg.process_noise)
    assert vals.min() >= -1e-9
    assert cfg.process_noise[0, 2] == pytest.approx(cfg.process_noise[2, 0])
