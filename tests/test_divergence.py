"""Closed-form divergences against quadrature and Monte-Carlo oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

from ppdiv import (
    GaussianMixture,
    HyperVolumeUnit,
    MixturePoissonModel,
    PoissonModel,
    bhatt_poisson_gaussian,
    csd_poisson_gm,
    csd_poisson_mixture,
    csd_poisson_quadrature,
    hellinger_sq_quadrature,
    intensity_grid,
    mixture_eval,
    mixture_inner,
    mixture_scale,
)
from ppdiv.pointprocess import RngStream, mc_csd
from ppdiv.validate import random_mixture


def scipy_density(mixture, points):
    out = np.zeros(len(points))
    for w, mean, cov in zip(mixture.weights, mixture.means, mixture.covs):
        out += w * multivariate_normal.pdf(points, mean=mean, cov=cov)
    return out


def single_gaussian_model(w, mean, var, k=1.0):
    u = GaussianMixture([w], np.atleast_2d(mean), np.atleast_2d(var)[None])
    return PoissonModel(u, HyperVolumeUnit(k))


def test_csd_self_is_zero():
    rng = RngStream(3)
    for i in range(5):
        u = random_mixture(rng.child(i), 2, 3, 2.0)
        model = PoissonModel(u)
        assert csd_poisson_gm(model, model) <= 1e-12


def test_csd_one_dimensional_value():
    a = single_gaussian_model(1.0, [0.0], 1.0)
    b = single_gaussian_model(2.0, [0.0], 1.0)
    # Half the squared L2 distance of the intensities, by direct quadrature.
    x = np.arange(-10.0, 10.0, 1e-3)
    diff = 1.0 * norm.pdf(x) - 2.0 * norm.pdf(x)
    oracle = 0.5 * trapezoid(diff**2, x)
    value = csd_poisson_gm(a, b)
    assert value == pytest.approx(oracle, rel=1e-6)
    assert value == pytest.approx(0.1410474, abs=1e-7)
    assert csd_poisson_gm(b, a) == value


def test_csd_k_linearity():
    rng = RngStream(5)
    u = random_mixture(rng.child(0), 1, 2, 1.5)
    v = random_mixture(rng.child(1), 1, 3, 2.5)
    base = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
    doubled = csd_poisson_gm(
        PoissonModel(u, HyperVolumeUnit(2.0)), PoissonModel(v, HyperVolumeUnit(2.0))
    )
    assert doubled == 2.0 * base


def test_csd_mismatches_raise():
    a = single_gaussian_model(1.0, [0.0], 1.0)
    b = PoissonModel(GaussianMixture([1.0], np.zeros((1, 2)), np.eye(2)[None]))
    with pytest.raises(ValueError):
        csd_poisson_gm(a, b)
    c = single_gaussian_model(1.0, [0.0], 1.0, k=2.0)
    with pytest.raises(ValueError):
        csd_poisson_gm(a, c)


def test_quadrature_zero_and_agreement():
    vals = np.array([0.3, 0.5, 0.1])
    assert csd_poisson_quadrature(vals, vals, 0.01) == 0.0
    rng = RngStream(9)
    for d in (1, 2):
        for i in range(2):
            u = random_mixture(rng.child(10 * d + 2 * i), d, 3, 2.0)
            v = random_mixture(rng.child(10 * d + 2 * i + 1), d, 2, 1.0)
            pts, vol = intensity_grid([u, v])
            closed = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
            grid = csd_poisson_quadrature(mixture_eval(u, pts), mixture_eval(v, pts), vol)
            assert grid == pytest.approx(closed, rel=1e-6)
            # The same integral with an external density implementation.
            external = csd_poisson_quadrature(scipy_density(u, pts), scipy_density(v, pts), vol)
            assert external == pytest.approx(closed, rel=1e-6)


def test_quadrature_grid_convergence():
    rng = RngStream(13)
    u = random_mixture(rng.child(0), 1, 2, 1.0)
    v = random_mixture(rng.child(1), 1, 2, 1.5)

    def at(cells):
        pts, vol = intensity_grid([u, v], cells_per_axis=cells)
        return csd_poisson_quadrature(mixture_eval(u, pts), mixture_eval(v, pts), vol)

    assert abs(at(2000) - at(4000)) < 1e-7


def test_mixture_single_component_reduction():
    rng = RngStream(17)
    for i in range(5):
        u = random_mixture(rng.child(2 * i), 2, 2, 1.5)
        v = random_mixture(rng.child(2 * i + 1), 2, 3, 2.0)
        a, b = PoissonModel(u), PoissonModel(v)
        fa = MixturePoissonModel(((1.0, a),))
        fb = MixturePoissonModel(((1.0, b),))
        assert csd_poisson_mixture(fa, fb) == pytest.approx(
            csd_poisson_gm(a, b), abs=1e-12
        )


def test_mixture_self_is_zero_and_symmetric():
    rng = RngStream(19)
    a = PoissonModel(random_mixture(rng.child(0), 1, 2, 1.0))
    b = PoissonModel(random_mixture(rng.child(1), 1, 1, 0.7))
    fa = MixturePoissonModel(((0.4, a), (0.6, b)))
    assert csd_poisson_mixture(fa, fa) <= 1e-12
    fb = MixturePoissonModel(((0.7, b), (0.3, a)))
    assert csd_poisson_mixture(fa, fb) == csd_poisson_mixture(fb, fa)
    assert csd_poisson_mixture(fa, fb) >= 0.0


def test_mixture_matches_per_pair_inner_products():
    # Every <u_i, v_j> comes from one stacked table; the reference takes each
    # from its own mixture_inner call.  One sub-intensity carries a
    # zero-weight component and one is empty.
    rng = RngStream(23)
    unit = HyperVolumeUnit(1.7)
    parts = [random_mixture(rng.child(i), 2, n, 1.0 + 0.3 * i) for i, n in enumerate((3, 4, 2, 5))]
    padded = GaussianMixture(
        np.append(parts[1].weights, 0.0),
        np.vstack([parts[1].means, [[40.0, -40.0]]]),
        np.concatenate([parts[1].covs, 2.0 * np.eye(2)[None]]),
    )
    models = [PoissonModel(u, unit) for u in (parts[0], padded, GaussianMixture.empty(2))]
    fa = MixturePoissonModel(((0.5, models[0]), (0.3, models[1]), (0.2, models[2])))
    fb = MixturePoissonModel(
        ((0.6, PoissonModel(parts[2], unit)), (0.4, PoissonModel(parts[3], unit)))
    )

    def log_gram(left, right):
        terms = [
            (p * q, unit.k * mixture_inner(mi.intensity, mj.intensity) - mi.mass - mj.mass)
            for p, mi in left.components
            for q, mj in right.components
        ]
        return logsumexp([e for _, e in terms], b=[w for w, _ in terms])

    want = -log_gram(fa, fb) + 0.5 * log_gram(fa, fa) + 0.5 * log_gram(fb, fb)
    assert want > 0.01
    assert abs(csd_poisson_mixture(fa, fb) - want) <= 1e-12 * want


def test_mixture_weight_validation():
    a = PoissonModel(random_mixture(RngStream(21), 1, 1, 1.0))
    with pytest.raises(ValueError):
        MixturePoissonModel(((0.5, a), (0.6, a)))


def test_mixture_against_monte_carlo():
    rng = RngStream(29)
    a = PoissonModel(random_mixture(rng.child(0), 1, 2, 1.2))
    b = PoissonModel(random_mixture(rng.child(1), 1, 2, 0.9))
    c = PoissonModel(random_mixture(rng.child(2), 1, 2, 1.6))
    fa = MixturePoissonModel(((0.5, a), (0.5, b)))
    fb = MixturePoissonModel(((0.3, b), (0.7, c)))
    closed = csd_poisson_mixture(fa, fb)
    est, se = mc_csd(rng.child(3), fa, fb, 100_000)
    assert abs(est - closed) < 3.0 * se


def test_bhatt_gaussian_values():
    g = ([0.0], 1.0)
    same = bhatt_poisson_gaussian(single_gaussian_model(1.0, *g), single_gaussian_model(1.0, *g))
    assert same == 0.0
    # Mass-only separation: (sqrt(1) - sqrt(4))^2 / 2, by Hellinger quadrature.
    a = single_gaussian_model(1.0, *g)
    b = single_gaussian_model(4.0, *g)
    x = np.arange(-12.0, 12.0, 1e-3)[:, None]
    u_vals = 1.0 * norm.pdf(x[:, 0])
    v_vals = 4.0 * norm.pdf(x[:, 0])
    oracle = 0.5 * trapezoid((np.sqrt(u_vals) - np.sqrt(v_vals)) ** 2, x[:, 0])
    value = bhatt_poisson_gaussian(a, b)
    assert value == pytest.approx(oracle, rel=1e-6)
    assert value == pytest.approx(0.5, abs=1e-9)
    # Distant means: the coefficient term vanishes.
    far = bhatt_poisson_gaussian(
        single_gaussian_model(1.0, [0.0], 1.0), single_gaussian_model(2.0, [100.0], 1.0)
    )
    assert far == pytest.approx(1.5, abs=1e-10)


def test_bhatt_rejects_multi_component():
    two = PoissonModel(
        GaussianMixture([0.5, 0.5], np.zeros((2, 1)), np.tile(np.eye(1), (2, 1, 1)))
    )
    one = single_gaussian_model(1.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        bhatt_poisson_gaussian(two, one)


def test_hellinger_quadrature_identities():
    assert hellinger_sq_quadrature([0.2, 0.4], [0.2, 0.4], 0.5) == 0.0
    with pytest.raises(ValueError):
        hellinger_sq_quadrature([-0.1, 0.2], [0.1, 0.2], 0.5)
    rng = RngStream(37)
    for i in range(5):
        u = random_mixture(rng.child(3 * i), 1, 1, 0.5 + i * 0.4)
        v = random_mixture(rng.child(3 * i + 1), 1, 1, 2.0 - i * 0.3)
        pts, vol = intensity_grid([u, v])
        uv, vv = mixture_eval(u, pts), mixture_eval(v, pts)
        grid = hellinger_sq_quadrature(uv, vv, vol)
        closed = bhatt_poisson_gaussian(PoissonModel(u), PoissonModel(v))
        assert grid == pytest.approx(closed, rel=1e-6)
        # Expansion into masses minus the Bhattacharyya overlap term.
        expansion = 0.5 * (uv.sum() + vv.sum()) * vol - np.sqrt(uv * vv).sum() * vol
        assert abs(grid - expansion) < 1e-10


def test_unit_scale_invariance():
    rng = RngStream(41)
    for d in (1, 2, 4):
        u = random_mixture(rng.child(2 * d), d, 2, 1.5)
        v = random_mixture(rng.child(2 * d + 1), d, 3, 2.0)
        base = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
        for s in (0.1, 10.0):
            unit = HyperVolumeUnit(s**d)
            scaled = csd_poisson_gm(
                PoissonModel(mixture_scale(u, s), unit),
                PoissonModel(mixture_scale(v, s), unit),
            )
            assert scaled == pytest.approx(base, rel=1e-10)
