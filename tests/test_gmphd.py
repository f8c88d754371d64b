"""PHD prediction/update against loop-based reference equations and a Kalman oracle."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from ppdiv import (
    BirthSpawnModel,
    DetectionProfile,
    DetectionTerm,
    GaussianMixture,
    MeasModel,
    MotionModel,
    PointPattern,
    ScenarioConfig,
    SpawnTerm,
    detection_profile,
    extract_states,
    mixture_mass,
    phd_predict,
    phd_update,
)
from ppdiv.gaussmix import gauss_factor, log_gauss
from ppdiv.gmphd import _kalman, phd_update_at_centers
from ppdiv.pointprocess import RngStream
from ppdiv.validate import kalman_filter_sequence, random_mixture


def random_spd(gen, d, scale=1.0):
    a = gen.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def valid_profile_identity(gen, d, n_terms, constant=0.1):
    # Gaussian terms over the full state (projection = identity), scaled so
    # the total probability stays below 1 everywhere.
    terms = []
    for _ in range(n_terms):
        cov = random_spd(gen, d, scale=0.5)
        peak = 1.0 / math.sqrt((2.0 * math.pi) ** d * np.linalg.det(cov))
        weight = (0.6 / n_terms) / peak
        terms.append(DetectionTerm(weight, gen.normal(size=d), cov, np.eye(d)))
    return DetectionProfile(constant, tuple(terms))


def reference_update(predicted, zs, profile, h, r, kappa):
    """Straight-loop transcription of the update recursion (identity projection)."""
    w, m, p = predicted.weights, predicted.means, predicted.covs
    d = predicted.dim
    j_pred = len(w)
    eye = np.eye(d)

    # Conditioning on the detection terms, constant slot first, term-major.
    cond = [(profile.constant * w[i], m[i], p[i]) for i in range(j_pred)]
    for term in profile.terms:
        for i in range(j_pred):
            s_ij = p[i] + term.cov
            q_ij = multivariate_normal.pdf(term.center, mean=m[i], cov=s_ij)
            k1 = p[i] @ np.linalg.inv(s_ij)
            m_ij = m[i] + k1 @ (term.center - m[i])
            p_ij = (eye - k1) @ p[i]
            cond.append((w[i] * term.weight * q_ij, m_ij, p_ij))

    pd_at_means = profile.evaluate(m)
    t_mass = float(w.sum()) - sum(wc for wc, _, _ in cond)
    w_mu = (1.0 - pd_at_means) * w
    missed = w_mu * (t_mass / w_mu.sum())

    out = [(missed[i], m[i], p[i]) for i in range(j_pred)]
    for z in zs.points:
        rows = []
        for wc, mc, pc in cond:
            s2 = h @ pc @ h.T + r
            qz = multivariate_normal.pdf(z, mean=h @ mc, cov=s2)
            gain = pc @ h.T @ np.linalg.inv(s2)
            rows.append(
                (wc * qz, mc + gain @ (z - h @ mc), (eye - gain @ h) @ pc)
            )
        den = kappa + sum(num for num, _, _ in rows)
        out.extend((num / den, mz, pz) for num, mz, pz in rows)
    return out


def test_predict_single_component():
    f = np.array([[1.0, 1.0], [0.0, 1.0]])
    q = 0.1 * np.eye(2)
    prior = GaussianMixture([1.0], [[2.0, -1.0]], [np.diag([4.0, 9.0])])
    motion = MotionModel(f, q, survival_prob=0.9)
    empty_birth = BirthSpawnModel(GaussianMixture.empty(2))
    out = phd_predict(prior, motion, empty_birth)
    assert len(out) == 1
    assert out.weights[0] == pytest.approx(0.9, rel=1e-15)
    assert np.allclose(out.means[0], f @ prior.means[0])
    assert np.allclose(out.covs[0], f @ prior.covs[0] @ f.T + q)


def test_predict_empty_prior_returns_birth():
    birth = random_mixture(RngStream(1), 2, 3, 0.4)
    motion = MotionModel(np.eye(2), np.eye(2), survival_prob=0.99)
    out = phd_predict(GaussianMixture.empty(2), motion, BirthSpawnModel(birth))
    assert np.array_equal(out.weights, birth.weights)
    assert np.array_equal(out.means, birth.means)
    assert np.array_equal(out.covs, birth.covs)


def test_predict_mass_balance_with_spawning():
    rng = RngStream(7)
    gen = rng.generator
    for trial in range(10):
        d = 2
        prior = random_mixture(rng.child(trial), d, 4, 2.3)
        birth = random_mixture(rng.child(100 + trial), d, 2, 0.3)
        spawn = tuple(
            SpawnTerm(0.05 + 0.1 * gen.random(), gen.normal(size=(d, d)),
                      gen.normal(size=d), random_spd(gen, d, 0.2))
            for _ in range(2)
        )
        motion = MotionModel(gen.normal(size=(d, d)), random_spd(gen, d, 0.3), 0.95)
        out = phd_predict(prior, motion, BirthSpawnModel(birth, spawn))
        expected = (
            0.95 * mixture_mass(prior)
            + mixture_mass(prior) * sum(t.weight for t in spawn)
            + mixture_mass(birth)
        )
        assert mixture_mass(out) == pytest.approx(expected, abs=1e-12 * max(1.0, expected))
        assert len(out) == len(prior) * (1 + len(spawn)) + len(birth)


def test_update_matches_reference_equations():
    # Identity-projection profile: the vectorized update must reproduce the
    # per-component reference loops termwise.  With w0 = 0 the update emits
    # no constant slot, so the reference's zero-weight constant rows (the
    # first j of each measurement block) are dropped before comparing.
    rng = RngStream(13)
    gen = rng.generator
    for trial in range(16):
        d = 2
        j = 3
        constant = 0.1 if trial % 2 == 0 else 0.0
        predicted = random_mixture(rng.child(trial), d, j, 1.8)
        profile = valid_profile_identity(gen, d, 2, constant)
        h = np.array([[1.0, 0.0], [0.3, 1.0]])
        r = random_spd(gen, d, 0.2)
        kappa = 0.05
        zs = PointPattern(gen.normal(scale=2.0, size=(2, d)))
        meas = MeasModel(h, r, clutter_rate=kappa, clutter_region=None)
        out = phd_update(predicted, zs, profile, meas)
        ref = reference_update(predicted, zs, profile, h, r, kappa)
        if constant == 0.0:
            block = j * (1 + len(profile.terms))
            slot = [k >= j and (k - j) % block < j for k in range(len(ref))]
            assert all(row[0] == 0.0 for row, s in zip(ref, slot) if s)
            ref = [row for row, s in zip(ref, slot) if not s]
        assert len(out) == len(ref)
        for i, (w_ref, m_ref, p_ref) in enumerate(ref):
            assert out.weights[i] == pytest.approx(w_ref, rel=1e-8, abs=1e-14)
            assert np.allclose(out.means[i], m_ref, rtol=1e-8, atol=1e-10)
            assert np.allclose(out.covs[i], p_ref, rtol=1e-8, atol=1e-10)


def test_update_no_detection_passthrough():
    predicted = random_mixture(RngStream(17), 3, 4, 2.0)
    profile = DetectionProfile(0.0, ())
    meas = MeasModel(np.eye(3)[:2], np.eye(2), clutter_rate=0.01, clutter_region=None)
    out = phd_update(predicted, PointPattern.empty(2), profile, meas)
    assert np.array_equal(out.weights, predicted.weights)
    assert np.array_equal(out.means, predicted.means)
    assert np.array_equal(out.covs, predicted.covs)
    # With measurements present and p_D = 0 nothing can be detected, so no
    # detection component is emitted.
    out2 = phd_update(predicted, PointPattern(np.zeros((2, 2))), profile, meas)
    assert mixture_mass(out2) == pytest.approx(mixture_mass(predicted), rel=1e-15)
    assert len(out2) == len(predicted)


def test_update_on_empty_inputs():
    # No early return: an empty predicted intensity gives an empty posterior
    # of its dimension, and an empty Z the missed block alone, on the
    # predicted means and covariances bit for bit.
    rng = RngStream(41)
    profile = valid_profile_identity(rng.generator, 3, 2)
    meas = MeasModel(np.eye(3)[:2], np.eye(2), clutter_rate=0.01, clutter_region=None)
    zs = PointPattern(rng.child(1).generator.normal(size=(2, 2)))
    for z in (zs, PointPattern.empty(2)):
        out = phd_update(GaussianMixture.empty(3), z, profile, meas)
        assert out.weights.shape == (0,)
        assert out.means.shape == (0, 3) and out.covs.shape == (0, 3, 3)
    predicted = random_mixture(rng.child(0), 3, 4, 2.0)
    out = phd_update(predicted, PointPattern.empty(2), profile, meas)
    assert np.array_equal(out.means, predicted.means)
    assert np.array_equal(out.covs, predicted.covs)
    # The missed weights do not depend on Z.
    full = phd_update(predicted, zs, profile, meas)
    assert np.array_equal(out.weights, full.weights[: len(predicted)])
    assert 0.0 < mixture_mass(out) < mixture_mass(predicted)


def test_update_kalman_reduction():
    # Unit detection, no clutter, single target: the filter is a Kalman filter.
    gen = np.random.default_rng(19)
    f = np.array([[1.0, 1.0], [0.0, 1.0]])
    q = np.diag([0.2, 0.1])
    h = np.array([[1.0, 0.0]])
    r = np.array([[0.5]])
    m0 = np.array([0.0, 1.0])
    p0 = np.diag([1.0, 1.0])
    zs = np.cumsum(gen.normal(size=10))[:, None]
    oracle = kalman_filter_sequence(m0, p0, f, q, h, r, zs)

    profile = DetectionProfile(1.0, ())
    meas = MeasModel(h, r, clutter_rate=0.0, clutter_region=None)
    motion = MotionModel(f, q, survival_prob=1.0)
    births = BirthSpawnModel(GaussianMixture.empty(2))
    prior = GaussianMixture([1.0], [m0], [p0])
    for k, z in enumerate(zs):
        predicted = phd_predict(prior, motion, births)
        posterior = phd_update(predicted, PointPattern(z[None, :]), profile, meas)
        assert mixture_mass(posterior) == pytest.approx(1.0, abs=1e-9)
        mean_ref, cov_ref = oracle[k]
        best = int(np.argmax(posterior.weights))
        assert np.allclose(posterior.means[best], mean_ref, atol=1e-9)
        assert np.allclose(posterior.covs[best], cov_ref, atol=1e-9)
        prior = posterior


def textbook_kalman(means, covs, h, r, targets):
    """The Kalman step as a textbook writes it: the gain by np.linalg.solve
    and the covariance in Joseph form, (q, m', P') in _kalman's shapes."""
    s = h @ covs @ h.T + r
    gain = np.swapaxes(np.linalg.solve(s, h @ covs), -1, -2)
    innov = targets - (means @ h.T)[..., None, :]
    batch = (slice(None),) + (None,) * (means.ndim - 1)
    q = np.exp(log_gauss(innov, s[batch]))
    m1 = means[..., None, :] + (gain[batch] @ innov[..., None])[..., 0]
    a = np.eye(covs.shape[-1]) - gain @ h
    return q, m1, a @ covs @ np.swapaxes(a, -1, -2) + gain @ r @ np.swapaxes(gain, -1, -2), gain, innov


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["plain", "batched"])
def test_kalman_step_matches_a_textbook_filter(d, rows, batch):
    gen = np.random.default_rng(1000 * d + 10 * rows + len(batch))
    n, t = 5, 4
    covs = np.stack([random_spd(gen, d, scale=gen.uniform(0.1, 10.0)) for _ in range(n)])
    means = gen.normal(scale=5.0, size=(n,) + batch + (d,))
    h = gen.normal(size=(rows, d))
    r = random_spd(gen, rows, scale=gen.uniform(0.01, 1.0))
    targets = gen.normal(scale=5.0, size=(t, rows))
    q, m1, p1 = _kalman(means, covs, h, r, targets)
    want_q, want_m, want_p, gain, innov = textbook_kalman(means, covs, h, r, targets)
    # One factor of S serves the gain and the likelihood, which is the
    # kernel's to the bit.
    assert q.tobytes() == want_q.tobytes() and q.shape == (n,) + batch + (t,)
    # Rounding scaled to the terms: the gain carries cond(S) eps in either
    # solve, and Joseph form is first-order insensitive to a gain's error.
    eps = 64 * np.finfo(float).eps
    cond = np.linalg.cond(h @ covs @ h.T + r)[(slice(None),) + (None,) * (len(batch) + 2)]
    step = np.abs(gain)[(slice(None),) + (None,) * (len(batch) + 1)] @ np.abs(innov)[..., None]
    assert np.all(np.abs(m1 - want_m) <= eps * (np.abs(means[..., None, :]) + cond * step[..., 0]))
    a = np.eye(d) + np.abs(gain) @ np.abs(h)
    terms = a @ np.abs(covs) @ a.swapaxes(-1, -2) + np.abs(gain) @ np.abs(r) @ np.abs(gain).swapaxes(-1, -2)
    assert np.all(np.abs(p1 - want_p) <= eps * terms)
    assert np.array_equal(p1, p1.swapaxes(-1, -2))
    gauss_factor(p1)


def test_update_clutter_dominated_limit():
    rng = RngStream(23)
    predicted = random_mixture(rng.child(0), 2, 3, 1.5)
    profile = valid_profile_identity(rng.generator, 2, 1)
    meas = MeasModel(np.eye(2), 0.3 * np.eye(2), clutter_rate=1e6, clutter_region=None)
    zs = PointPattern(rng.child(1).generator.normal(size=(3, 2)))
    out = phd_update(predicted, zs, profile, meas)
    # Every detection weight is ~q/1e6; the posterior is the missed mass.
    detected_ext = sum(
        w * (profile.constant + sum(
            t.weight * multivariate_normal.pdf(t.center, mean=m, cov=p + t.cov)
            for t in profile.terms
        ))
        for w, m, p in zip(predicted.weights, predicted.means, predicted.covs)
    )
    t_mass = mixture_mass(predicted) - detected_ext
    assert mixture_mass(out) == pytest.approx(t_mass, abs=1e-6)


def test_update_mass_identity_external():
    # Zero clutter, nonvanishing likelihoods: each measurement block carries
    # exactly unit mass and the missed block carries the non-detected integral.
    rng = RngStream(29)
    predicted = random_mixture(rng.child(0), 2, 3, 2.0)
    profile = valid_profile_identity(rng.generator, 2, 2)
    meas = MeasModel(np.eye(2), np.eye(2), clutter_rate=0.0, clutter_region=None)
    zs = PointPattern(rng.child(1).generator.normal(size=(2, 2)))
    out = phd_update(predicted, zs, profile, meas)
    j = len(predicted)
    block = j * (1 + len(profile.terms))
    missed_mass = float(out.weights[:j].sum())
    detected_ext = sum(
        w * (profile.constant + sum(
            t.weight * multivariate_normal.pdf(t.center, mean=m, cov=p + t.cov)
            for t in profile.terms
        ))
        for w, m, p in zip(predicted.weights, predicted.means, predicted.covs)
    )
    assert missed_mass == pytest.approx(mixture_mass(predicted) - detected_ext, abs=1e-9)
    for z_index in range(len(zs)):
        zmass = float(out.weights[j + z_index * block : j + (z_index + 1) * block].sum())
        assert zmass == pytest.approx(1.0, abs=1e-9)


def test_update_permutation_invariance():
    rng = RngStream(31)
    predicted = random_mixture(rng.child(0), 2, 3, 1.5)
    profile = valid_profile_identity(rng.generator, 2, 1)
    meas = MeasModel(np.eye(2), 0.5 * np.eye(2), clutter_rate=0.02, clutter_region=None)
    pts = rng.child(1).generator.normal(size=(3, 2))
    out_a = phd_update(predicted, PointPattern(pts), profile, meas)
    out_b = phd_update(predicted, PointPattern(pts[::-1]), profile, meas)

    def canon(u):
        rows = np.column_stack([u.weights, u.means, u.covs.reshape(len(u), -1)])
        return rows[np.lexsort(rows.T[::-1])]

    assert np.allclose(canon(out_a), canon(out_b), rtol=1e-12, atol=1e-14)


def test_update_rejects_invalid_inputs():
    predicted = random_mixture(RngStream(37), 2, 2, 1.0)
    profile = DetectionProfile(0.5, ())
    meas = MeasModel(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        phd_update(predicted, PointPattern.empty(3), profile, meas)
    with pytest.raises(ValueError):
        DetectionProfile(1.5, ())
    # A Gaussian term stacked on a large constant exceeds 1 at its peak.
    with pytest.raises(ValueError):
        cov = np.eye(2)
        peak = 1.0 / (2.0 * math.pi)
        DetectionProfile(
            0.9, (DetectionTerm(0.5 / peak, np.zeros(2), cov, np.eye(2)),)
        )


def test_update_names_a_detection_term_of_another_state_dimension():
    predicted = random_mixture(RngStream(41), 4, 2, 1.0)
    term = DetectionTerm(1.0, np.zeros(2), np.eye(2), np.eye(2))
    meas = MeasModel(np.eye(2, 4), np.eye(2))
    with pytest.raises(ValueError, match="^detection term expects state dim 2, got 4$"):
        phd_update(predicted, PointPattern.empty(2), DetectionProfile(0.1, (term,)), meas)


@pytest.mark.parametrize("clutter_rate", [0.0, 20.0])
@pytest.mark.parametrize("n_meas", [1, 3])
def test_update_at_centers_is_phd_update_at_each_center_bit_for_bit(n_meas, clutter_rate):
    # 12 predicted components: past 8 terms numpy adds an axis-0 sum
    # pairwise in one column and in order across several, so the missed
    # mass and a lone measurement's detection sum must not depend on how
    # many centers share the update.
    cfg = ScenarioConfig()
    gen = np.random.default_rng(12)
    n = 12
    means = np.concatenate([gen.uniform(480.0, 520.0, (n, 2)), gen.uniform(-1.0, 1.0, (n, 2))], axis=1)
    predicted = GaussianMixture(gen.uniform(0.05, 1.5, n), means, [random_spd(gen, 4, 25.0) for _ in range(n)])
    z = PointPattern(means[:n_meas, :2] + 1.0, dim=2)
    meas = MeasModel(cfg.observation, cfg.meas_noise, clutter_rate)
    centers = gen.uniform(0.0, 1000.0, (17, 2))
    update = phd_update_at_centers(predicted, z, cfg.detection_term, centers, meas)
    for t, center in enumerate(centers):
        want = phd_update(predicted, z, detection_profile(cfg, center), meas)
        got = update.posterior(t)
        for a, b in ((got.weights, want.weights), (got.means, want.means), (got.covs, want.covs)):
            assert a.tobytes() == b.tobytes()


def test_extract_states_threshold():
    u = GaussianMixture(
        [0.9, 0.3, 0.5],
        np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        np.tile(np.eye(2), (3, 1, 1)),
    )
    assert len(extract_states(u, 0.95)) == 0
    got = extract_states(u, 0.5)
    assert len(got) == 1
    assert np.allclose(got.points[0], [1.0, 0.0])
    low = extract_states(u, 0.25)
    assert len(low) == 3
