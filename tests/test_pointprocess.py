"""Point-process sampling, multi-object densities, and Monte-Carlo oracles."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from ppdiv import (
    GaussianMixture,
    HyperVolumeUnit,
    PointPattern,
    PoissonModel,
    RngStream,
    csd_poisson_gm,
    mc_csd,
    mc_inner_product,
    mixture_inner,
    mixture_mass,
    poisson_log_density,
    sample_poisson,
    sample_poisson_counts,
)
from ppdiv.gaussmix import factor_matrices, gauss_factor
from ppdiv.pointprocess import _sample_points
from ppdiv.validate import random_mixture


def unit_normal_model(mass=1.0, k=1.0):
    u = GaussianMixture([mass], np.zeros((1, 1)), np.eye(1)[None])
    return PoissonModel(u, HyperVolumeUnit(k))


def test_point_pattern_dimension_consistency():
    p = PointPattern(np.zeros((3, 2)))
    assert len(p) == 3 and p.dim == 2
    empty = PointPattern.empty(4)
    assert len(empty) == 0 and empty.dim == 4
    with pytest.raises(ValueError):
        PointPattern(np.zeros((2, 2, 2)))


def test_rng_stream_determinism():
    a = RngStream(123, stream_id=4).generator.random(10)
    b = RngStream(123, stream_id=4).generator.random(10)
    assert np.array_equal(a, b)
    c = RngStream(123, stream_id=5).generator.random(10)
    assert not np.array_equal(a, c)
    # A stream's generator persists: repeated use continues the sequence.
    s = RngStream(7)
    first = s.generator.random(5)
    second = s.generator.random(5)
    assert not np.array_equal(first, second)
    assert np.array_equal(
        np.concatenate([first, second]), RngStream(7).generator.random(10)
    )


def test_sampling_determinism_and_empty():
    model = PoissonModel(random_mixture(RngStream(1), 2, 2, 2.5))
    draws_a = [sample_poisson(RngStream(42, stream_id=i), model) for i in range(5)]
    draws_b = [sample_poisson(RngStream(42, stream_id=i), model) for i in range(5)]
    for pa, pb in zip(draws_a, draws_b):
        assert np.array_equal(pa.points, pb.points)
    zero = PoissonModel(GaussianMixture.empty(2))
    for i in range(10):
        assert len(sample_poisson(RngStream(i), zero)) == 0


def test_sampler_draws_with_gauss_factors_beyond_two_dimensions():
    # Each point is its component's mean plus L z, with L gauss_factor's
    # factor; at d = 4 LAPACK's factor rounds differently, so the draws no
    # longer depend on the LAPACK build.
    gen = np.random.default_rng(29)
    n, d, total = 200, 4, 2000
    a = gen.standard_normal((n, d, d)) * 10.0 ** gen.uniform(-2, 2, (n, 1, 1))
    u = GaussianMixture(gen.uniform(0.5, 2.0, n), gen.uniform(-50, 50, (n, d)), a @ np.swapaxes(a, -1, -2))
    points = _sample_points(np.random.default_rng(5), u, total)
    replay = np.random.default_rng(5)
    cdf = np.cumsum(u.weights)
    comp = np.searchsorted(cdf / cdf[-1], replay.random(total), side="right")
    z = replay.standard_normal((total, d))
    want = u.means[comp] + np.einsum("nij,nj->ni", factor_matrices(gauss_factor(u.covs)[0])[comp], z)
    assert points.tobytes() == want.tobytes()
    lapack = u.means[comp] + np.einsum("nij,nj->ni", np.linalg.cholesky(u.covs)[comp], z)
    assert not np.array_equal(points, lapack)
    np.testing.assert_allclose(points, lapack, rtol=1e-12, atol=1e-10)


def test_sampled_cardinality_is_poisson():
    n = 100_000
    counts = sample_poisson_counts(RngStream(11), 3.0, n)
    se = math.sqrt(3.0 / n)
    assert abs(counts.mean() - 3.0) < 3.0 * se
    # Chi-square goodness of fit with tail bins pooled to keep expected > 5.
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = poisson.pmf(np.arange(kmax + 1), 3.0) * n
    expected[-1] = n - expected[:-1].sum()
    while expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat, pvalue = chisquare(observed, expected)
    assert pvalue > 0.01
    # The full sampler draws its cardinality from the same inversion table.
    model = unit_normal_model(mass=3.0)
    lens = [len(sample_poisson(RngStream(13, stream_id=i), model)) for i in range(2000)]
    assert abs(np.mean(lens) - 3.0) < 3.0 * math.sqrt(3.0 / 2000)


def test_log_density_conventions():
    model = unit_normal_model(mass=2.0)
    assert poisson_log_density(PointPattern.empty(1), model) == -2.0
    single = unit_normal_model(mass=1.0)
    at_mode = poisson_log_density(PointPattern(np.zeros((1, 1))), single)
    assert at_mode == pytest.approx(-1.0 + math.log(1.0 / math.sqrt(2.0 * math.pi)), rel=1e-12)
    assert at_mode == pytest.approx(-1.9189385, abs=1e-7)


def test_log_density_permutation_invariant():
    rng = RngStream(17)
    model = PoissonModel(random_mixture(rng.child(0), 2, 3, 1.5))
    pts = rng.child(1).generator.normal(size=(5, 2))
    base = poisson_log_density(PointPattern(pts), model)
    for i in range(6):
        perm = rng.child(2 + i).generator.permutation(5)
        assert poisson_log_density(PointPattern(pts[perm]), model) == pytest.approx(
            base, rel=1e-14
        )


def test_log_density_zero_intensity_point():
    model = PoissonModel(GaussianMixture.empty(1))
    assert poisson_log_density(PointPattern.empty(1), model) == 0.0
    assert poisson_log_density(PointPattern(np.zeros((1, 1))), model) == -math.inf


def test_density_normalizes_over_truncated_enumeration():
    # Set integral of exp(log density) for |X| <= 6 on a 1-D grid, mass < 1.
    mass = 0.8
    model = unit_normal_model(mass=mass)
    x = np.linspace(-8.0, 8.0, 401)
    step = x[1] - x[0]
    log_u = np.array(
        [poisson_log_density(PointPattern(np.array([[xi]])), model) for xi in x]
    )
    s = float(np.exp(log_u).sum() * step)  # integral of u, times e^-mass
    # Explicit two-point tensor check that the density factorizes.
    pair_sum = 0.0
    coarse = x[::8]
    for xi in coarse:
        pats = np.stack([np.full(len(coarse), xi), coarse], axis=1)[:, :, None]
        pair_sum += sum(
            math.exp(poisson_log_density(PointPattern(p), model)) for p in pats
        )
    pair_sum *= (8 * step) ** 2 / 2.0
    coarse_s = sum(
        math.exp(poisson_log_density(PointPattern(np.array([[xi]])), model))
        for xi in coarse
    ) * (8 * step)
    assert pair_sum == pytest.approx(coarse_s**2 / (2.0 * math.exp(-mass)), rel=1e-9)
    # Factorized tail: each |X| = n term is e^-mass (integral K u)^n / n!.
    total = sum((s / math.exp(-mass)) ** n / math.factorial(n) for n in range(7))
    total *= math.exp(-mass)
    assert abs(total - 1.0) < 1e-3


def test_mc_inner_product_self_matches_closed_form():
    rng = RngStream(19)
    for i in range(5):
        u = random_mixture(rng.child(2 * i), 1 + i % 2, 2, 0.5 + 0.3 * i)
        model = PoissonModel(u)
        closed = math.exp(mixture_inner(u, u) - 2.0 * mixture_mass(u))
        est, se = mc_inner_product(rng.child(2 * i + 1), model, model, 100_000)
        assert abs(est - closed) < 3.0 * se


def test_mc_inner_product_void_probability():
    rng = RngStream(23)
    a = PoissonModel(random_mixture(rng.child(0), 1, 2, 1.3))
    empty = PoissonModel(GaussianMixture.empty(1))
    est, se = mc_inner_product(rng.child(1), a, empty, 100_000)
    assert abs(est - math.exp(-1.3)) < 3.0 * se


def test_mc_csd_zero_and_closed_form():
    rng = RngStream(29)
    a = PoissonModel(random_mixture(rng.child(0), 1, 2, 1.1))
    est, se = mc_csd(rng.child(1), a, a, 50_000)
    assert abs(est) < 3.0 * se
    u = PoissonModel(GaussianMixture([1.0], np.zeros((1, 1)), np.eye(1)[None]))
    v = PoissonModel(GaussianMixture([2.0], np.zeros((1, 1)), np.eye(1)[None]))
    est2, se2 = mc_csd(rng.child(2), u, v, 100_000)
    assert abs(est2 - 0.1410474) < 3.0 * se2


def test_mc_csd_rejects_large_masses():
    big = PoissonModel(
        GaussianMixture([6.0], np.zeros((1, 1)), np.eye(1)[None])
    )
    small = unit_normal_model()
    with pytest.raises(ValueError):
        mc_csd(RngStream(1), big, small, 10_000)
