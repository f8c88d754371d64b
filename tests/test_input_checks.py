"""Every array from outside is judged by gaussmix's two checkers: the
filter models, Gaussians, mixtures, truth targets, mixture documents, grid
samples and OSPA point sets all reject bad arrays by argument name, and
covariances by one rule.  Every scalar from outside is judged by
gaussmix.checked_number, which names the argument too."""

import math
import re

import numpy as np
import pytest

from ppdiv import (
    ConfigError,
    DetectionProfile,
    DetectionTerm,
    Gaussian,
    GaussianMixture,
    HyperVolumeUnit,
    MeasModel,
    MixturePoissonModel,
    MotionModel,
    OspaParams,
    PointPattern,
    PoissonModel,
    RngStream,
    ScenarioConfig,
    SpawnTerm,
    TruthTarget,
    bhatt_poisson_gaussian,
    config_from_dict,
    csd_poisson_gm,
    csd_poisson_mixture,
    csd_poisson_quadrature,
    extract_states,
    hellinger_sq_quadrature,
    ideal_measurements,
    intensity_grid,
    mc_csd,
    mc_inner_product,
    mixture_from_dict,
    mixture_scale,
    ospa,
    poisson_log_density,
    prune_merge,
    run_montecarlo,
    run_simulation,
    sample_poisson_counts,
)
from ppdiv.gaussmix import validate_cov

I2 = np.eye(2)


def _doc(mean=(0.0, 0.0), cov=I2):
    comp = {"weight": 1.0, "mean": mean, "cov": cov}
    return mixture_from_dict({"dim": 2, "components": [comp]})


# (label, argument name in the message, good value, build from a value)
ARGUMENTS = [
    ("MotionModel", "transition", I2, lambda v: MotionModel(v, I2)),
    ("MotionModel", "process_noise", I2, lambda v: MotionModel(I2, v)),
    ("SpawnTerm", "transition", I2, lambda v: SpawnTerm(0.1, v, [0.0, 0.0], I2)),
    ("SpawnTerm", "offset", np.zeros(2), lambda v: SpawnTerm(0.1, I2, v, I2)),
    ("SpawnTerm", "noise", I2, lambda v: SpawnTerm(0.1, I2, [0.0, 0.0], v)),
    ("MeasModel", "observation", I2, lambda v: MeasModel(v, I2)),
    ("MeasModel", "noise", I2, lambda v: MeasModel(I2, v)),
    ("MeasModel", "clutter_region", [[0.0, 1.0], [0.0, 1.0]], lambda v: MeasModel(I2, I2, 1.0, v)),
    ("DetectionTerm", "center", np.zeros(2), lambda v: DetectionTerm(1.0, v, I2, I2)),
    ("DetectionTerm", "cov", I2, lambda v: DetectionTerm(1.0, np.zeros(2), v, I2)),
    ("DetectionTerm", "projection", I2, lambda v: DetectionTerm(1.0, np.zeros(2), I2, v)),
    ("DetectionTerm.at", "center", np.zeros(2), lambda v: DetectionTerm(1.0, np.zeros(2), I2, I2).at(v)),
    ("Gaussian", "mean", np.zeros(2), lambda v: Gaussian(v, I2)),
    ("Gaussian", "cov", I2, lambda v: Gaussian(np.zeros(2), v)),
    ("GaussianMixture", "weights", [1.0], lambda v: GaussianMixture(v, [[0.0, 0.0]], [I2])),
    ("GaussianMixture", "means", [[0.0, 0.0]], lambda v: GaussianMixture([1.0], v, [I2])),
    ("GaussianMixture", "covs", [I2], lambda v: GaussianMixture([1.0], [[0.0, 0.0]], v)),
    ("TruthTarget", "state", np.zeros(4), lambda v: TruthTarget(1, None, v)),
    ("mixture_from_dict", "components[0].mean", [0.0, 0.0], lambda v: _doc(mean=v)),
    ("mixture_from_dict", "components[0].cov", I2.tolist(), lambda v: _doc(cov=v)),
]

# Arguments whose size is free, so that only a sibling can find it wrong.
FREE_SIZE = {"MeasModel.observation", "Gaussian.mean", "GaussianMixture.weights", "TruthTarget.state"}
BAD = {
    "nan": lambda good: np.full(np.shape(good), np.nan),
    "shape": lambda good: np.concatenate([good, np.asarray(good)[:1]]),
    "ndim": lambda good: np.asarray(good)[None],
    # Numbers only: numpy would parse the strings and read the booleans as 0 or 1.
    "string": lambda good: np.asarray(good).astype(str),
    "boolean": lambda good: np.ones(np.shape(good), dtype=bool),
}
CASES = [
    pytest.param(name, good, build, kind, id=f"{label}.{name}-{kind}")
    for label, name, good, build in ARGUMENTS
    for kind in BAD
    if not (kind == "shape" and f"{label}.{name}" in FREE_SIZE)
    # Weights are raveled, so any nesting of them is as good as a vector.
    and not (kind == "ndim" and name == "weights")
]


@pytest.mark.parametrize("name, good, build, kind", CASES)
def test_bad_array_is_rejected_by_argument_name(name, good, build, kind):
    build(good)
    with pytest.raises(ValueError, match=rf"(^|\W){re.escape(name)}"):
        build(BAD[kind](good))


def test_noise_may_be_singular_only_for_motion_and_spawn():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(MotionModel(I2, singular).process_noise, singular)
    assert np.array_equal(SpawnTerm(0.1, I2, [0.0, 0.0], singular).noise, singular)
    assert np.array_equal(SpawnTerm(0.1, I2, [0.0, 0.0], np.zeros((2, 2))).noise, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        SpawnTerm(0.1, I2, [0.0, 0.0], [[1.0, 0.0], [0.0, -1e-3]])
    with pytest.raises(ValueError, match="not positive definite"):
        MeasModel(I2, singular)
    with pytest.raises(ValueError, match="not positive definite"):
        DetectionTerm(1.0, np.zeros(2), singular, I2)
    with pytest.raises(ConfigError, match="^meas_noise: .*not positive definite"):
        ScenarioConfig(meas_noise=singular)
    with pytest.raises(ConfigError, match="^detection_shape: .*not positive definite"):
        ScenarioConfig(detection_shape=[[3e6, 0.0], [0.0, 0.0]])
    # Process noise may be singular in the config too: a noiseless motion.
    assert not ScenarioConfig(process_noise=np.zeros((4, 4))).process_noise.any()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["zero", "indefinite", "last pivot zero"])
def test_covariance_that_is_not_positive_definite_is_rejected_by_one_message(d, kind):
    # gauss_factor judges definiteness for the constructors too; its own
    # message is replaced by the constructors' one, and no warning escapes.
    bad = {
        "zero": np.zeros((d, d)),
        "indefinite": np.eye(d) - 2.0 / d,
        "last pivot zero": np.diag(np.arange(d, 0, -1) - 1.0),
    }[kind]
    for build in (
        lambda: validate_cov(bad),
        lambda: Gaussian(np.zeros(d), bad),
        lambda: GaussianMixture([1.0, 1.0], np.zeros((2, d)), [np.eye(d), bad]),
    ):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == "covariance is not positive definite"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GaussianMixture([1.0], np.zeros((1, 0)), np.zeros((1, 0, 0))), "covariance dimension"),
        (lambda: GaussianMixture.empty(0), "covariance dimension"),
        (lambda: Gaussian(np.zeros(0), np.zeros((0, 0))), "covariance dimension"),
        (lambda: validate_cov(np.zeros((0, 0))), "covariance dimension"),
        (lambda: validate_cov(np.zeros((0, 0)), definite=False), "covariance dimension"),
        (lambda: PointPattern(np.zeros((3, 0))), "points dimension"),
        (lambda: PointPattern(np.zeros((0, 0))), "points dimension"),
    ],
    ids=["mixture", "empty-mixture", "Gaussian", "validate_cov", "semidefinite", "PointPattern", "empty-PointPattern"],
)
def test_dimension_zero_is_rejected_by_name(build, message):
    # No Gaussian lives on a point and no 0 x 0 matrix can be factored, so
    # a dimension of 0 fails at the constructor, not inside an evaluation.
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == f"{message} must be >= 1, got 0"


@pytest.mark.parametrize(
    "points, message",
    [
        (np.zeros((3, 0)), "points must have shape (n, 2), got (3, 0)"),
        (np.zeros((2, 0, 5)), "points must have shape (n, 2), got (2, 0, 5)"),
        (np.zeros((0, 3)), "points must have shape (n, 2), got (0, 3)"),
        ([], None),
        (np.zeros((0, 2)), None),
    ],
    ids=["no-columns", "three-axes", "other-dimension", "flat", "matching"],
)
def test_empty_points_take_dim_only_when_flat(points, message):
    # An empty array of another shape is as wrong as a full one; only a
    # flat empty input such as [] needs the given dim to have a shape.
    if message is None:
        assert PointPattern(points, dim=2).points.shape == (0, 2)
        return
    with pytest.raises(ValueError) as error:
        PointPattern(points, dim=2)
    assert str(error.value) == message


def test_near_symmetric_matrix_is_accepted_and_symmetrized():
    near = np.array([[2.0, 0.5], [0.5 + 5e-10, 3.0]])
    for cov in (
        MotionModel(I2, near).process_noise,
        SpawnTerm(0.1, I2, [0.0, 0.0], near).noise,
        MeasModel(I2, near).noise,
        DetectionTerm(1.0, np.zeros(2), near, I2).cov,
        Gaussian(np.zeros(2), near).cov,
        GaussianMixture([1.0], [[0.0, 0.0]], [near]).covs[0],
        _doc(cov=near.tolist()).covs[0],
    ):
        assert np.array_equal(cov, cov.T)
        assert np.array_equal(cov, 0.5 * (near + near.T))
        assert not cov.flags.writeable
    with pytest.raises(ValueError, match="not symmetric"):
        MotionModel(I2, [[2.0, 0.5], [0.5 + 1e-6, 3.0]])


def test_config_names_a_non_square_transition_itself():
    # The motion model is built under process_noise's name, so the config
    # judges the transition's shape first.
    with pytest.raises(ConfigError, match=r"^transition: "):
        ScenarioConfig(transition=[[1, 2, 3]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GaussianMixture([True, 2.0], [[0, 0], [1, 1]], [I2, I2]), "weights entries must be numbers, got True"),
        (lambda: Gaussian([True, 0.5], I2), "mean entries must be numbers, got True"),
        (lambda: PointPattern([[True, 2.0]]), "points entries must be numbers, got True"),
    ],
    ids=["GaussianMixture.weights", "Gaussian.mean", "PointPattern.points"],
)
def test_boolean_among_numbers_is_rejected_before_reshaping(build, message):
    # numpy reshaping the list first would promote the bool to 1.0.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_mixture_document_rejects_booleans():
    # Python counts a JSON true as the integer 1; a mixture document does not.
    comp = {"weight": 1.0, "mean": [0.0, 0.0], "cov": I2.tolist()}
    for doc, message in (
        ({"dim": True, "components": []}, "dim must be a whole number, got True"),
        ({"dim": 2, "components": [{**comp, "weight": True}]}, "components[0].weight must be a number, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mixture_from_dict(doc)
        with pytest.raises(ConfigError, match=f"^birth: {re.escape(message)}$"):
            config_from_dict({"birth": doc})


@pytest.mark.parametrize("route", [csd_poisson_quadrature, hellinger_sq_quadrature])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_samples_must_be_finite(route, bad):
    good = np.ones((2, 3))
    spoilt = good.copy()
    spoilt[1, 2] = bad
    # Samples of any shape are flattened.
    assert route(good, 4.0 * good, 0.5) == route(good.ravel(), [4.0] * 6, 0.5)
    with pytest.raises(ValueError, match=r"^u_values has non-finite entries"):
        route(spoilt, good, 0.5)
    with pytest.raises(ValueError, match=r"^v_values has non-finite entries"):
        route(good, spoilt, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ospa_points_must_be_finite(bad):
    with pytest.raises(ValueError, match=r"^x has non-finite entries"):
        ospa([[bad, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^y has non-finite entries"):
        ospa([[1.0, 0.0], [2.0, 0.0]], [bad, 0.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ospa([[[1, 2]]], [[1, 2]]), "x must have shape (n, m), got (1, 1, 2)"),
        (lambda: MeasModel(I2[None], I2), "observation must have shape (n, m), got (1, 2, 2)"),
        (
            lambda: GaussianMixture([1.0], [[[0.0, 0.0]]], [I2]),
            "means must have shape (1, n), got (1, 1, 2)",
        ),
        (lambda: Gaussian([[0.0, 0.0]], I2), "mean must have shape (n,), got (1, 2)"),
    ],
    ids=["ospa-points", "observation", "means", "mean"],
)
def test_shape_message_names_each_free_size(build, message):
    # Free sizes are independent, so they get a name each: a shape of
    # (None, None) does not read as square.
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


_MIX = GaussianMixture([1.0], [[0.0, 0.0]], [I2])
_MODEL = PoissonModel(_MIX)
_ONE_STEP = ScenarioConfig(horizon=1)


def _weighted_doc(weight=1.0, dim=2):
    comp = {"weight": weight, "mean": [0.0] * 2, "cov": I2.tolist()}
    return mixture_from_dict({"dim": dim, "components": [comp]})


# (label, name in the message, whole number?, build from a value)
SCALARS = [
    ("HyperVolumeUnit", "unit hyper-volume", False, lambda v: HyperVolumeUnit(v)),
    ("mixture_scale", "scale", False, lambda v: mixture_scale(_MIX, v)),
    ("prune_merge", "truncation_threshold", False, lambda v: prune_merge(_MIX, v)),
    ("prune_merge", "merge_threshold", False, lambda v: prune_merge(_MIX, 1e-5, v)),
    ("prune_merge", "max_components", True, lambda v: prune_merge(_MIX, 1e-5, 4.0, v)),
    ("mixture_from_dict", "dim", True, lambda v: _weighted_doc(dim=v)),
    ("mixture_from_dict", "components[0].weight", False, lambda v: _weighted_doc(weight=v)),
    ("MotionModel", "survival_prob", False, lambda v: MotionModel(I2, I2, v)),
    ("SpawnTerm", "spawn weight", False, lambda v: SpawnTerm(v, I2, [0.0, 0.0], I2)),
    ("MeasModel", "clutter_rate", False, lambda v: MeasModel(I2, I2, v)),
    ("DetectionTerm", "detection term weight", False, lambda v: DetectionTerm(v, [0.0, 0.0], I2, I2)),
    ("DetectionProfile", "constant detection term", False, lambda v: DetectionProfile(v)),
    ("extract_states", "threshold", False, lambda v: extract_states(_MIX, v)),
    ("ideal_measurements", "threshold", False, lambda v: ideal_measurements(_MIX, I2, v)),
    ("OspaParams", "order", False, lambda v: OspaParams(order=v)),
    ("OspaParams", "cutoff", False, lambda v: OspaParams(cutoff=v)),
    (
        "MixturePoissonModel",
        "components[0] weight",
        False,
        lambda v: MixturePoissonModel(((v, PoissonModel(_MIX)),)),
    ),
    ("csd_poisson_quadrature", "cell_volume", False, lambda v: csd_poisson_quadrature([1.0], [2.0], v)),
    ("hellinger_sq_quadrature", "cell_volume", False, lambda v: hellinger_sq_quadrature([1.0], [2.0], v)),
    ("intensity_grid", "cells_per_axis", True, lambda v: intensity_grid([_MIX], cells_per_axis=v)),
    ("intensity_grid", "pad_sigmas", False, lambda v: intensity_grid([_MIX], pad_sigmas=v)),
    ("RngStream", "seed", True, lambda v: RngStream(v)),
    ("RngStream", "stream_id", True, lambda v: RngStream(0, v)),
    ("sample_poisson_counts", "mean", False, lambda v: sample_poisson_counts(RngStream(0), v)),
    ("sample_poisson_counts", "size", True, lambda v: sample_poisson_counts(RngStream(0), 1.0, v)),
    ("PointPattern", "dim", True, lambda v: PointPattern([], dim=v)),
    ("mc_inner_product", "n", True, lambda v: mc_inner_product(RngStream(0), _MODEL, _MODEL, v)),
    ("mc_csd", "n", True, lambda v: mc_csd(RngStream(0), _MODEL, _MODEL, v)),
    ("TruthTarget", "birth_step", True, lambda v: TruthTarget(v, None, np.zeros(4))),
    ("TruthTarget", "death_step", True, lambda v: TruthTarget(0, v, np.zeros(4))),
    ("run_simulation", "seed", True, lambda v: run_simulation(_ONE_STEP, seed=v)),
    ("run_montecarlo", "n_runs", True, lambda v: run_montecarlo(_ONE_STEP, n_runs=v)),
    ("run_montecarlo", "parallelism", True, lambda v: run_montecarlo(_ONE_STEP, 1, parallelism=v)),
    ("run_montecarlo", "master_seed", True, lambda v: run_montecarlo(_ONE_STEP, 1, master_seed=v)),
] + [
    ("config_from_dict", name, isinstance(getattr(ScenarioConfig, name), int),
     lambda v, name=name: config_from_dict({name: v}))
    for name in (
        "step_period", "clutter_rate", "survival_prob", "horizon", "radial_step", "n_radial",
        "n_angular", "truncation_threshold", "merge_threshold", "max_components",
        "extraction_threshold", "ospa_order", "ospa_cutoff", "seed",
    )
]
SCALAR_CASES = [
    pytest.param(name, build, bad, id=f"{label}.{name}-{bad!r}")
    for label, name, whole, build in SCALARS
    for bad in ("1.5", True, math.nan) + (1.7,) * whole
]


@pytest.mark.parametrize("name, build, bad", SCALAR_CASES)
def test_bad_scalar_is_rejected_by_argument_name(name, build, bad):
    # A string is not parsed, a bool is not 1, NaN fails every range, and a
    # count or seed is not truncated.  ConfigError is a ValueError.
    with pytest.raises(ValueError, match=rf"(^|\W){re.escape(name)}\W"):
        build(bad)


_MIXTURE_MODEL = MixturePoissonModel(((1.0, _MODEL),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: csd_poisson_gm(_MIX, _MODEL), "expected PoissonModel, got GaussianMixture"),
        (lambda: csd_poisson_gm(_MODEL, None), "expected PoissonModel, got NoneType"),
        (lambda: bhatt_poisson_gaussian(_MIX, _MODEL), "expected PoissonModel, got GaussianMixture"),
        (
            lambda: csd_poisson_mixture(_MODEL, _MIXTURE_MODEL),
            "expected MixturePoissonModel, got PoissonModel",
        ),
        (
            lambda: mc_inner_product(RngStream(0), _MIX, _MODEL, 2),
            "expected PoissonModel or MixturePoissonModel, got GaussianMixture",
        ),
        (
            lambda: poisson_log_density(PointPattern(np.zeros((2, 2))), "x"),
            "expected PoissonModel or MixturePoissonModel, got str",
        ),
    ],
    ids=[
        "csd_poisson_gm", "csd_poisson_gm-None", "bhatt_poisson_gaussian", "csd_poisson_mixture",
        "mc_inner_product", "poisson_log_density",
    ],
)
def test_divergence_names_a_process_of_the_wrong_type(build, message):
    # Each route takes its own kind of process; another kind, or None, in
    # its place fails by name, not by a missing attribute.
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_poisson_log_density_names_a_pattern_of_the_wrong_type():
    with pytest.raises(ValueError) as error:
        poisson_log_density(np.zeros((2, 2)), _MODEL)
    assert str(error.value) == "pattern must be a PointPattern, got ndarray"
