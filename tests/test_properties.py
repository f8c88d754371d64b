"""Property-based checks of the closed-form Cauchy-Schwarz divergence on
small random Gaussian-mixture intensities in d = 1-3, and of the look-ahead
scorer's factored reward on random predicted intensities in d = 4.

Examples are derandomized and bounded, so a failure reproduces and the run
time stays fixed.  Rounding is judged against <u,u> + <v,v>, the size of the
terms whose difference D_CS = (k/2) ||u - v||^2 is.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppdiv import (
    GaussianMixture,
    HyperVolumeUnit,
    PointPattern,
    PoissonModel,
    ScenarioConfig,
    action_positions,
    csd_poisson_gm,
    detection_profile,
    ideal_measurements,
    phd_update,
    reward,
)
from ppdiv.control import _evaluate_candidate, _score, planning_meas_model
from ppdiv.gaussmix import mixture_inner

properties = settings(derandomize=True, max_examples=50, deadline=None, database=None)
ROUNDING = 1e-12


@st.composite
def mixtures(draw, dim):
    n = draw(st.integers(1, 4))
    weights = draw(arrays(float, n, elements=st.floats(0.05, 3.0)))
    means = draw(arrays(float, (n, dim), elements=st.floats(-3.0, 3.0)))
    factors = draw(arrays(float, (n, dim, dim), elements=st.floats(-1.0, 1.0)))
    ridges = draw(arrays(float, n, elements=st.floats(0.2, 2.0)))
    covs = factors @ np.swapaxes(factors, -1, -2) + ridges[:, None, None] * np.eye(dim)
    return GaussianMixture(weights, means, covs)


pairs = st.integers(1, 3).flatmap(lambda dim: st.tuples(mixtures(dim), mixtures(dim)))


def csd(u, v, k=1.0):
    unit = HyperVolumeUnit(k)
    return csd_poisson_gm(PoissonModel(u, unit), PoissonModel(v, unit))


def scale(u, v):
    return mixture_inner(u, u) + mixture_inner(v, v)


@properties
@given(pairs)
def test_csd_nonnegative_symmetric_and_zero_on_itself(pair):
    u, v = pair
    value = csd(u, v)
    assert value >= 0.0
    assert abs(csd(v, u) - value) <= ROUNDING * scale(u, v)
    assert csd(u, u) == 0.0


@properties
@given(pairs, st.data())
def test_csd_invariant_under_component_permutation(pair, data):
    u, v = pair
    order = np.array(data.draw(st.permutations(range(len(u)))))
    permuted = GaussianMixture(u.weights[order], u.means[order], u.covs[order])
    tolerance = ROUNDING * scale(u, v)
    assert abs(csd(permuted, v) - csd(u, v)) <= tolerance
    assert csd(permuted, u) <= tolerance


@properties
@given(pairs, st.data())
def test_csd_invariant_under_component_split(pair, data):
    u, v = pair
    i = data.draw(st.integers(0, len(u) - 1))
    weights = u.weights.copy()
    weights[i] /= 2.0
    split = GaussianMixture(
        np.append(weights, weights[i]),
        np.concatenate([u.means, u.means[i : i + 1]]),
        np.concatenate([u.covs, u.covs[i : i + 1]]),
    )
    tolerance = ROUNDING * scale(u, v)
    assert abs(csd(split, v) - csd(u, v)) <= tolerance
    assert csd(split, u) <= tolerance


@properties
@given(pairs, st.floats(0.01, 100.0))
def test_csd_linear_in_unit(pair, k):
    u, v = pair
    assert abs(csd(u, v, k) - k * csd(u, v)) <= ROUNDING * k * scale(u, v)


# ---------------------------------------------------------------------------
# the factored look-ahead reward

DESK = ScenarioConfig()


@st.composite
def predicted_intensities(draw):
    """0-4 tracks in the desk area with random SPD covariances whose
    standard deviations run from 1 to 300."""
    n = draw(st.integers(0, 4))
    weights = draw(arrays(float, n, elements=st.floats(0.05, 1.5)))
    positions = draw(arrays(float, (n, 2), elements=st.floats(0.0, 1000.0)))
    velocities = draw(arrays(float, (n, 2), elements=st.floats(-10.0, 10.0)))
    factors = draw(arrays(float, (n, 4, 4), elements=st.floats(-1.0, 1.0)))
    sigmas = draw(arrays(float, n, elements=st.floats(1.0, 300.0)))
    shapes = factors @ np.swapaxes(factors, -1, -2) + 0.2 * np.eye(4)
    means = np.concatenate([positions, velocities], axis=1).reshape(n, 4)
    return GaussianMixture(weights, means, sigmas[:, None, None] ** 2 * shapes)


def assert_same_mixture(got, want):
    for a, b in ((got.weights, want.weights), (got.means, want.means), (got.covs, want.covs)):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= ROUNDING * np.abs(b).max(initial=1.0))


@properties
@given(predicted_intensities(), arrays(float, 2, elements=st.floats(0.0, 1000.0)))
def test_factored_reward_matches_direct_update(predicted, sensor):
    # The action grid around the sensor, plus one candidate surely outside.
    positions = np.concatenate([action_positions(sensor, DESK), [[-1.0, 500.0]]])
    meas = planning_meas_model(DESK)
    inner_pred = mixture_inner(predicted, predicted)
    for z_star in (
        ideal_measurements(predicted, DESK.observation, DESK.extraction_threshold),
        PointPattern(np.zeros((0, 2)), dim=2),
    ):
        rewards, previews = _score(predicted, z_star, positions, DESK, inner_pred)
        assert rewards[-1] == -np.inf and previews[-1] is None
        for position, value, preview in zip(positions, rewards, previews):
            want = reward(position, predicted, z_star, DESK)
            if want == -np.inf:
                assert value == -np.inf and preview is None
                continue
            posterior = phd_update(predicted, z_star, detection_profile(DESK, position), meas)
            assert_same_mixture(preview, posterior)
            assert abs(value - want) <= ROUNDING * scale(predicted, posterior)
        # The one-position path of the random and stay policies.
        one, preview = _evaluate_candidate(positions[0], predicted, z_star, DESK, inner_pred)
        assert_same_mixture(preview, previews[0])
        assert abs(one - rewards[0]) <= ROUNDING * scale(predicted, preview)
