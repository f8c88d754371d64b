"""Property-based checks of the closed-form Cauchy-Schwarz divergence on
small random Gaussian-mixture intensities in d = 1-3, of log_gauss,
mixture_inner and csd_poisson_gm against an independent slogdet/solve double
sum on ill-scaled 4-d covariances, of the rewards a short cs run records
against the same double sum, of the look-ahead scorer's factored reward on
random predicted intensities in d = 4, also with weights up to 1.5e4, of
the detection terms the scorer drops against their bound, of a dense
scripted scene's actions and rewards, of prune_merge against a
one-pivot-at-a-time reference, and of phd_update's missed-detection mass.

Examples are derandomized and bounded, so a failure reproduces and the run
time stays fixed.  Rounding is judged against <u,u> + <v,v>, the size of the
terms whose difference D_CS = (k/2) ||u - v||^2 is.
"""

import math
from dataclasses import replace

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
    TruthTarget,
    action_positions,
    csd_poisson_gm,
    detection_profile,
    ideal_measurements,
    phd_update,
    prune_merge,
    reward,
)
from ppdiv import harness
from ppdiv.control import _evaluate_candidate, _kept, _score, select_action
from ppdiv.divergence import csd_from_sq_distance
from ppdiv.gaussmix import _maha, gauss_factor, log_gauss, mixture_inner, pairwise_log_inner
from ppdiv.gmphd import phd_update_at_centers
from ppdiv.harness import run_simulation
from ppdiv.scenario import in_area

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


def test_dense_scene_keeps_its_actions_and_rewards(monkeypatch):
    # Ten scripted targets, where the look-ahead drops most detection
    # components.  The actions were recorded before it dropped any, and
    # every chosen reward must match reward(), which keeps every term.
    rng = np.random.default_rng(2026)
    places, velocities = rng.uniform(0.0, 1000.0, (10, 2)), rng.uniform(-5.0, 5.0, (10, 2))
    script = tuple(TruthTarget(1, None, np.concatenate(x)) for x in zip(places, velocities))
    cfg = ScenarioConfig(truth_script=script, horizon=5)
    seen = []

    def recording(predicted, s_prev, cfg):
        position, evaluations = select_action(predicted, s_prev, cfg)
        seen.append((predicted, s_prev, position))
        return position, evaluations

    monkeypatch.setattr(harness, "select_action", recording)
    record = run_simulation(cfg, 1, "cs")
    assert [step.action_index for step in record.steps] == [10, 10, 2, 16, 11]
    for step, (predicted, _, position) in zip(record.steps, seen):
        z_star = ideal_measurements(predicted, cfg.observation, cfg.extraction_threshold)
        posterior = phd_update(
            predicted, z_star, detection_profile(cfg, position), cfg.planning_model
        )
        want = reward(position, predicted, z_star, cfg)
        assert abs(step.reward - want) <= ROUNDING * scale(predicted, posterior)
    # The regime: at the last step (z_star is still its own), fewer than
    # half of the candidates' nonzero detection components are kept.
    predicted, s_prev, _ = seen[-1]
    candidates = [x for x in action_positions(s_prev, cfg) if in_area(x, cfg)]
    update = phd_update_at_centers(
        predicted, z_star, cfg.detection_term, candidates, cfg.planning_model
    )
    m, p = predicted.means, predicted.covs
    kept = _kept(predicted, update, np.exp(pairwise_log_inner(m, p, m, p)))
    assert 2 * sum(dz.size for _, _, dz, _ in kept) < np.count_nonzero(update.detected)


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


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ROUNDING * np.abs(want).max(initial=1.0))


def assert_same_blocks(update, t, posterior, predicted):
    """phd_update_at_centers' arrays at centre t against phd_update's
    posterior there, cut into its missed block (on the predicted means and
    covariances) and one detection block per measurement."""
    n, nz, d = len(predicted), update.detected.shape[1], predicted.dim
    assert len(posterior) == n * (1 + nz)
    assert_close(update.missed[t], posterior.weights[:n])
    assert np.array_equal(posterior.means[:n], predicted.means)
    assert np.array_equal(posterior.covs[:n], predicted.covs)
    assert_close(update.detected[t], posterior.weights[n:].reshape(nz, n))
    assert_close(update.means[t], posterior.means[n:].reshape(nz, n, d))
    for covs in posterior.covs[n:].reshape(nz, n, d, d):
        assert_close(update.covs, covs)


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
        rewards = _score(predicted, z_star, positions, DESK)
        assert rewards[-1] == -np.inf
        # The batched update the rewards are read from, component by
        # component: a defect that leaves every reward alone, such as
        # permuted components, still shows here.
        inside = positions[[in_area(position, DESK) for position in positions]]
        update = phd_update_at_centers(predicted, z_star, DESK.detection_term, inside, meas)
        # The scorer's per-step factors re-lay out the one pair-table
        # evaluator: its rewards equal, bit for bit, the quadratic form over
        # tables that pairwise_log_inner builds for each kept set.
        m, p = predicted.means, predicted.covs
        kept = _kept(predicted, update, np.exp(pairwise_log_inner(m, p, m, p)))
        posteriors = []
        for position, value in zip(positions, rewards):
            want = reward(position, predicted, z_star, DESK)
            if want == -np.inf:
                assert value == -np.inf
                continue
            t = len(posteriors)
            c, q, dz, dj = kept[t]
            d, md, p2k = update.detected[t][dz, dj], update.means[t][dz, dj], update.covs[dj]
            g_pd = np.exp(pairwise_log_inner(m, p, md, p2k))
            g_dd = np.exp(pairwise_log_inner(md, p2k, md, p2k))
            assert value == csd_from_sq_distance(1.0, q - 2.0 * (c @ g_pd @ d) + d @ g_dd @ d)
            posterior = phd_update(predicted, z_star, detection_profile(DESK, position), meas)
            assert_same_blocks(update, t, posterior, predicted)
            assert abs(value - want) <= ROUNDING * scale(predicted, posterior)
            posteriors.append(posterior)
        assert len(posteriors) == len(inside)
        # The one-position path of the random and stay policies.
        one = _evaluate_candidate(positions[0], predicted, z_star, DESK)
        assert abs(one - rewards[0]) <= ROUNDING * scale(predicted, posteriors[0])


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
    rewards = _score(predicted, z_star, positions, DESK)
    for position, value in zip(positions, rewards):
        want = reward(position, predicted, z_star, DESK)
        if want == -np.inf:
            assert value == -np.inf
            continue
        assert value >= 0.0
        posterior = phd_update(
            predicted, z_star, detection_profile(DESK, position), DESK.planning_model
        )
        assert abs(value - want) <= ROUNDING * scale(predicted, posterior)


@st.composite
def heavy_intensities_with_far_tracks(draw):
    """predicted_intensities with weights x 1 to 1e4, plus a cluster of 0-6
    sharp tracks up to 100 m per axis from a centre anywhere from inside the
    desk area to 6 km outside it: each measurement then weighs every other
    track of the cluster a little, so many detection components are light
    but not zero, and their weights are graded."""
    near = draw(predicted_intensities())
    boost = draw(st.sampled_from([1.0, 1e2, 1e3, 1e4]))
    n = draw(st.integers(0, 6))
    centre = draw(arrays(float, 2, elements=st.floats(500.0, 7000.0)))
    offsets = draw(arrays(float, (n, 2), elements=st.floats(-100.0, 100.0)))
    means = np.concatenate([near.means, np.pad(centre + offsets, ((0, 0), (0, 2)))])
    covs = np.concatenate([near.covs, np.broadcast_to(np.diag([25.0, 25.0, 1.0, 1.0]), (n, 4, 4))])
    weights = boost * np.concatenate([near.weights, np.ones(n)])
    return GaussianMixture(weights, means, covs)


def test_dropped_detection_terms_stay_within_their_bound():
    # One candidate's ||u - v||^2 with every detection component and with
    # _kept's differ by exactly the dropped terms.  Summed here with
    # reference_log_gauss, they must stay within 2 (|c|_1 + W) sum r_j, and
    # that bound below eps c' G_pp c, with r_j = d_j h_j and the peaks h_j
    # from slogdet.
    eps = np.finfo(float).eps
    dropped = {False: 0, True: 0}

    @properties
    @given(
        heavy_intensities_with_far_tracks(),
        arrays(float, 2, elements=st.floats(0.0, 1000.0)),
        st.data(),
    )
    def check(predicted, sensor, data):
        z_star = ideal_measurements(predicted, DESK.observation, DESK.extraction_threshold)
        update = phd_update_at_centers(
            predicted, z_star, DESK.detection_term, sensor[None], DESK.planning_model
        )
        w, m, p = predicted.weights, predicted.means, predicted.covs
        logdet = np.linalg.slogdet(update.covs)[1]
        peaks = np.exp(-0.5 * (logdet + 4 * math.log(2.0 * math.pi)))
        g_pp = np.exp(reference_log_gauss(m[:, None] - m[None], p[:, None] + p[None]))
        missed, detected = update.missed[0], update.detected[0]
        drawn = bool(detected.size) and data.draw(st.booleans())
        if drawn:
            # The bound holds for any weights c and d >= 0, so half the
            # examples draw them: missed weights up to 3 w, which leave c of
            # either sign; the heavy detection weights times up to 1e4, so
            # that W may outweigh |c|_1; and every light one an r_j at a
            # drawn share of 4 / (their count) budgets, so that the drop has
            # to stop close to the budget.
            missed = w * data.draw(arrays(float, w.size, elements=st.floats(0.0, 3.0)))
            light = (detected > 0.0) & (detected < detected.max())
            detected = np.where(light, 0.0, detected * data.draw(st.floats(1.0, 1e4)))
            c = w - missed
            budget = eps * (c @ g_pp @ c) / (2.0 * (np.abs(c).sum() + detected.sum()))
            shares = data.draw(arrays(float, detected.shape, elements=st.floats(0.05, 1.0)))
            step = 4.0 * budget / max(np.count_nonzero(light), 1)
            detected = np.where(light, shares * step / peaks, detected)
            update = replace(update, missed=missed[None], detected=detected[None])
        c = w - missed
        q = c @ g_pp @ c
        [(got_c, got_q, kz, kj)] = _kept(predicted, update, np.exp(pairwise_log_inner(m, p, m, p)))
        assert np.array_equal(got_c, c)
        assert abs(got_q - q) <= ROUNDING * (np.abs(c) @ g_pp @ np.abs(c))
        kept = np.zeros(detected.shape, dtype=bool)
        kept[kz, kj] = True
        assert np.all(detected[kept] > 0.0)
        dz, dj = np.nonzero(detected)
        d, md, p2 = detected[dz, dj], update.means[0][dz, dj], update.covs[dj]
        keep = kept[dz, dj]
        d_k, d_d = np.where(keep, d, 0.0), np.where(keep, 0.0, d)
        g_pd = np.exp(reference_log_gauss(m[:, None] - md[None], p[:, None] + p2[None]))
        g_dd = np.exp(reference_log_gauss(md[:, None] - md[None], p2[:, None] + p2[None]))
        delta = -2.0 * (c @ g_pd @ d_d) + 2.0 * (d_k @ g_dd @ d_d) + d_d @ g_dd @ d_d
        bound = 2.0 * (np.abs(c).sum() + d.sum()) * (d_d @ peaks[dj])
        assert abs(delta) <= bound * (1.0 + ROUNDING)
        assert bound <= eps * got_q * (1.0 + ROUNDING)
        dropped[drawn] += np.count_nonzero(~keep)

    check()
    # Components of nonzero weight were dropped, with drawn weights and
    # with the update's own.
    assert dropped[False] > 0 and dropped[True] > 0


# ---------------------------------------------------------------------------
# prune_merge


def greedy_reference(u, truncation, gate, cap):
    """prune_merge one pivot at a time: the heaviest remaining component, the
    earliest among equal weights, absorbs every remaining component that
    passes its gate, each gate evaluated when its pivot comes up."""
    keep = u.weights >= truncation
    w, m, c = u.weights[keep], u.means[keep], u.covs[keep]
    chol = gauss_factor(c)[0]
    out = []
    remaining = np.ones(w.size, dtype=bool)
    while remaining.any():
        idx = np.flatnonzero(remaining)
        j = idx[np.argmax(w[idx])]
        group = idx[_maha(chol[:, idx], (m[idx] - m[j]).T) <= gate]
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
