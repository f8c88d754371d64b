"""Property-based checks of the closed-form Cauchy-Schwarz divergence on
small random Gaussian-mixture intensities in d = 1-3, of log_gauss,
mixture_inner and csd_poisson_gm against an independent slogdet/solve double
sum on ill-scaled 4-d covariances, of the rewards a short cs run records
against the same double sum, of the look-ahead scorer's factored reward on
random predicted intensities in d = 4, also with weights up to 1.5e4, of
prune_merge against a one-pivot-at-a-time reference, and of phd_update's
missed-detection mass.

Examples are derandomized and bounded, so a failure reproduces and the run
time stays fixed.  Rounding is judged against <u,u> + <v,v>, the size of the
terms whose difference D_CS = (k/2) ||u - v||^2 is.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppdiv import (
    DetectionProfile,
    DetectionTerm,
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
    prune_merge,
    reward,
)
from ppdiv import harness
from ppdiv.control import _evaluate_candidate, _score, select_action
from ppdiv.gaussmix import _maha, log_gauss, mixture_inner
from ppdiv.harness import run_simulation

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
# the Gaussian kernel against an independent double sum


def reference_log_gauss(diffs, covs):
    """log N(diff; 0, C) for stacked diffs (..., d) and covariances
    (..., d, d), with numpy's slogdet and solve, apart from gaussmix's
    Cholesky kernel."""
    logdet = np.linalg.slogdet(covs)[1]
    maha = np.einsum("...i,...i->...", diffs, np.linalg.solve(covs, diffs[..., None])[..., 0])
    return -0.5 * (maha + logdet + diffs.shape[-1] * math.log(2.0 * math.pi))


def reference_inner(u, v):
    """<u, v> = sum_ij w_i w_j N(m_i; m_j, P_i + P_j), every term from
    reference_log_gauss."""
    logs = reference_log_gauss(u.means[:, None] - v.means[None], u.covs[:, None] + v.covs[None])
    return float(u.weights @ np.exp(logs) @ v.weights)


@st.composite
def ill_scaled_mixtures(draw):
    """1-4 components in d = 4 whose covariances have standard deviations of
    1e3 (the 1e6 variance scale of detection_shape) along some axes and O(1)
    along the others, with means a few standard deviations from the origin."""
    n = draw(st.integers(1, 4))
    weights = draw(arrays(float, n, elements=st.floats(0.05, 3.0)))
    sigmas = draw(arrays(float, (n, 4), elements=st.sampled_from([1.0, 1e3])))
    offsets = draw(arrays(float, (n, 4), elements=st.floats(-3.0, 3.0)))
    factors = draw(arrays(float, (n, 4, 4), elements=st.floats(-1.0, 1.0)))
    shapes = factors @ np.swapaxes(factors, -1, -2) + 0.2 * np.eye(4)
    covs = sigmas[:, :, None] * shapes * sigmas[:, None, :]
    return GaussianMixture(weights, offsets * sigmas, covs)


@properties
@given(ill_scaled_mixtures(), ill_scaled_mixtures())
def test_log_gauss_matches_independent_reference(u, v):
    # Each component's own covariance, and every pair sum P_i + P_j.
    for diffs, covs in (
        (u.means - v.means[0], u.covs),
        (u.means[:, None] - v.means[None], u.covs[:, None] + v.covs[None]),
    ):
        want = reference_log_gauss(diffs, covs)
        assert np.all(np.abs(log_gauss(diffs, covs) - want) <= ROUNDING * (1.0 + np.abs(want)))


@properties
@given(ill_scaled_mixtures(), ill_scaled_mixtures())
def test_mixture_inner_matches_independent_reference(u, v):
    for a, b in ((u, u), (u, v), (v, v)):
        want = reference_inner(a, b)
        assert abs(mixture_inner(a, b) - want) <= ROUNDING * want


@properties
@given(ill_scaled_mixtures(), ill_scaled_mixtures())
def test_csd_matches_independent_reference(u, v):
    uu, vv, uv = reference_inner(u, u), reference_inner(v, v), reference_inner(u, v)
    assert abs(csd(u, v) - 0.5 * (uu + vv - 2.0 * uv)) <= ROUNDING * (uu + vv)


# ---------------------------------------------------------------------------
# the factored look-ahead reward

DESK = ScenarioConfig()


def test_recorded_cs_rewards_match_independent_double_sum(monkeypatch):
    # Step by step, the reward a short cs run records for its chosen position
    # against the divergence between the predicted intensity and
    # phd_update's posterior there, summed with reference_inner.
    cfg = ScenarioConfig(horizon=6)
    seen = []

    def recording(predicted, s_prev, cfg):
        position, evaluations = select_action(predicted, s_prev, cfg)
        seen.append((predicted, position))
        return position, evaluations

    monkeypatch.setattr(harness, "select_action", recording)
    record = run_simulation(cfg, 1, "cs")
    assert len(seen) == len(record.steps) == 6
    for step, (predicted, position) in zip(record.steps, seen):
        z_star = ideal_measurements(predicted, cfg.observation, cfg.extraction_threshold)
        profile = detection_profile(cfg, position)
        posterior = phd_update(predicted, z_star, profile, cfg.planning_model)
        uu, vv = reference_inner(predicted, predicted), reference_inner(posterior, posterior)
        want = 0.5 * (uu + vv) - reference_inner(predicted, posterior)
        assert abs(step.reward - want) <= ROUNDING * (uu + vv)
    assert min(step.reward for step in record.steps) > 0.0


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
    meas = DESK.planning_model
    for z_star in (
        ideal_measurements(predicted, DESK.observation, DESK.extraction_threshold),
        PointPattern(np.zeros((0, 2)), dim=2),
    ):
        rewards, previews = _score(predicted, z_star, positions, DESK)
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
        one, preview = _evaluate_candidate(positions[0], predicted, z_star, DESK)
        assert_same_mixture(preview, previews[0])
        assert abs(one - rewards[0]) <= ROUNDING * scale(predicted, preview)


@properties
@given(
    predicted_intensities(),
    arrays(float, 2, elements=st.floats(0.0, 1000.0)),
    st.sampled_from([1e2, 1e4]),
)
def test_factored_reward_matches_direct_update_at_large_weights(predicted, sensor, boost):
    # Predicted weights up to 1.5e4, where ||u - v||^2 is the small
    # difference of large pair sums: rounding stays relative to them, and
    # no in-area reward comes out negative.
    predicted = GaussianMixture(boost * predicted.weights, predicted.means, predicted.covs)
    positions = action_positions(sensor, DESK)
    z_star = ideal_measurements(predicted, DESK.observation, DESK.extraction_threshold)
    rewards, previews = _score(predicted, z_star, positions, DESK)
    for position, value, preview in zip(positions, rewards, previews):
        want = reward(position, predicted, z_star, DESK)
        if want == -np.inf:
            assert value == -np.inf
            continue
        assert value >= 0.0
        assert abs(value - want) <= ROUNDING * scale(predicted, preview)


# ---------------------------------------------------------------------------
# prune_merge


def greedy_reference(u, truncation, gate, cap):
    """prune_merge one pivot at a time: the heaviest remaining component, the
    earliest among equal weights, absorbs every remaining component that
    passes its gate, each gate evaluated when its pivot comes up."""
    keep = u.weights >= truncation
    w, m, c = u.weights[keep], u.means[keep], u.covs[keep]
    chol = np.linalg.cholesky(c)
    out = []
    remaining = np.ones(w.size, dtype=bool)
    while remaining.any():
        idx = np.flatnonzero(remaining)
        j = idx[np.argmax(w[idx])]
        group = idx[_maha(chol[idx], m[idx] - m[j]) <= gate]
        remaining[group] = False
        wg = w[group]
        total = float(wg.sum())
        if group.size == 1 or total <= 0.0:
            out.append((float(w[j]) if group.size == 1 else 0.0, m[j], c[j]))
            continue
        mean = (wg[:, None] * m[group]).sum(axis=0) / total
        dev = m[group] - mean
        cov = (wg[:, None, None] * (c[group] + dev[:, :, None] * dev[:, None, :])).sum(
            axis=0
        ) / total
        out.append((total, mean, cov))
    if not out:
        return GaussianMixture.empty(u.dim)
    ww = np.array([o[0] for o in out])
    order = np.sort(np.argsort(-ww, kind="stable")[:cap])
    return GaussianMixture.trusted(
        ww[order], np.stack([o[1] for o in out])[order], np.stack([o[2] for o in out])[order]
    )


@st.composite
def reducible_mixtures(draw):
    """0-12 components in d = 1-4 whose means sit within a few standard
    deviations of each other, so that merge gates open; the weights often
    come from a few shared values, so that pivots tie."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    shared = st.sampled_from([0.0, 1e-6, 0.25, 1.0])
    weights = draw(arrays(float, n, elements=shared | st.floats(0.0, 2.0)))
    means = draw(arrays(float, (n, dim), elements=st.floats(-4.0, 4.0)))
    factors = draw(arrays(float, (n, dim, dim), elements=st.floats(-1.0, 1.0)))
    covs = factors @ np.swapaxes(factors, -1, -2) + 0.2 * np.eye(dim)
    return GaussianMixture(weights, means, covs)


def clustered_mixture(n, dim, clusters, seed):
    """n components around ``clusters`` centres, with tied weights."""
    gen = np.random.default_rng(seed)
    centres = gen.uniform(-100.0, 100.0, (clusters, dim))
    means = centres[gen.integers(clusters, size=n)] + gen.normal(0.0, 1.5, (n, dim))
    factors = gen.uniform(-1.0, 1.0, (n, dim, dim))
    covs = factors @ np.swapaxes(factors, -1, -2) + 0.5 * np.eye(dim)
    weights = gen.choice([0.05, 0.2, 0.5, 1.0], n) * gen.choice([1.0, 1.0, 1.1], n)
    return GaussianMixture(weights, means, covs)


def assert_identical_mixture(got, want):
    for a, b in ((got.weights, want.weights), (got.means, want.means), (got.covs, want.covs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@properties
@given(
    reducible_mixtures(),
    st.sampled_from([0.0, 1e-5, 0.3]),
    st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 50.0),
    st.integers(0, 14),
)
# More components than one block of gate rows takes, so that pivots are
# absorbed both within their own block and by earlier ones.
@example(clustered_mixture(6000, 2, 700, seed=5), 1e-5, 4.0, 100)
@example(clustered_mixture(5000, 4, 50, seed=6), 0.0, 9.0, 5000)
def test_prune_merge_matches_one_pivot_at_a_time(u, truncation, gate, cap):
    assert_identical_mixture(
        prune_merge(u, truncation, gate, cap), greedy_reference(u, truncation, gate, cap)
    )


@properties
@given(reducible_mixtures(), st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 50.0))
def test_prune_merge_preserves_mass_when_it_only_merges(u, gate):
    out = prune_merge(u, 0.0, gate, len(u))
    assert len(out) <= len(u)
    mass = float(u.weights.sum())
    assert abs(float(out.weights.sum()) - mass) <= ROUNDING * mass


# ---------------------------------------------------------------------------
# phd_update's missed-detection mass


def gauss_density(x, mean, cov):
    """N(x; mean, cov) by a direct solve and determinant."""
    r = x - mean
    quad = float(r @ np.linalg.solve(cov, r))
    return math.exp(-0.5 * quad) / math.sqrt(np.linalg.det(2.0 * math.pi * cov))


@st.composite
def update_inputs(draw):
    """A 4-d predicted intensity, a profile of a constant and 0-2 position
    terms whose peaks add up to at most 1, and 0-3 measurements."""
    predicted = draw(predicted_intensities())
    constant = draw(st.floats(0.0, 0.5))
    n_terms = draw(st.integers(0, 2))
    shares = draw(arrays(float, n_terms, elements=st.floats(0.0, 1.0)))
    centres = draw(arrays(float, (n_terms, 2), elements=st.floats(0.0, 1000.0)))
    sigmas = draw(arrays(float, n_terms, elements=st.floats(5.0, 500.0)))
    h = DESK.observation
    terms = []
    for share, centre, sigma in zip(shares, centres, sigmas):
        shape = sigma**2 * np.eye(2)
        peak = 1.0 / gauss_density(np.zeros(2), np.zeros(2), shape)
        terms.append(DetectionTerm((1.0 - constant) / n_terms * share * peak, centre, shape, h))
    zs = draw(arrays(float, (draw(st.integers(0, 3)), 2), elements=st.floats(0.0, 1000.0)))
    return predicted, DetectionProfile(constant, tuple(terms)), PointPattern(zs, dim=2)


@properties
@given(update_inputs())
def test_missed_mass_is_spread_over_plug_in_missed_weights(inputs):
    # T = mass - int u p_D, spread in proportion to (1 - p_D(m_i)) w_i.
    predicted, profile, zs = inputs
    posterior = phd_update(predicted, zs, profile, DESK.planning_model)
    missed = posterior.weights[: len(predicted)]
    w, m, p = predicted.weights, predicted.means, predicted.covs
    mass = float(w.sum())
    detected = profile.constant * mass
    pd = np.full(len(w), profile.constant)
    for term in profile.terms:
        d = term.projection
        for i in range(len(w)):
            y = d @ m[i]
            detected += term.weight * w[i] * gauss_density(term.center, y, d @ p[i] @ d.T + term.cov)
            pd[i] += term.weight * gauss_density(y, term.center, term.cov)
    t_mass = max(mass - detected, 0.0)
    plug_in = np.maximum(1.0 - pd, 0.0) * w
    if t_mass <= 1e-12 or plug_in.sum() <= 1e-12:
        assert np.all(missed <= 1e-9 * max(1.0, mass))
        return
    assert np.all(missed >= 0.0)
    assert abs(float(missed.sum()) - t_mass) <= 1e-10 * max(1.0, mass)
    assert np.allclose(missed, plug_in * (t_mass / plug_in.sum()), rtol=1e-9, atol=1e-12)
