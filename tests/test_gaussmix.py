"""Gaussian and Gaussian-mixture algebra against quadrature and closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from ppdiv import (
    Gaussian,
    GaussianMixture,
    gauss_bhatt_coeff,
    gauss_eval,
    gauss_inner,
    mixture_inner,
    mixture_log_eval,
    mixture_mass,
    mixture_scale,
    prune_merge,
)
from ppdiv.gaussmix import _LOG_2PI, _maha, gauss_factor, log_gauss, log_gauss_factored, pairwise_log_inner
from ppdiv.pointprocess import RngStream, sample_poisson_counts
from ppdiv.validate import random_mixture


def scipy_density(mixture, points):
    # Reference mixture density via scipy, independent of the package's code.
    out = np.zeros(len(points))
    for w, mean, cov in zip(mixture.weights, mixture.means, mixture.covs):
        out += w * multivariate_normal.pdf(points, mean=mean, cov=cov)
    return out


def trapz_product(g0, g1, lo, hi, step, transform=None):
    # 1-D trapezoid integral of N0(x) * N1(x) (or a transform of the product).
    x = np.arange(lo, hi + step, step)[:, None]
    vals = multivariate_normal.pdf(x, mean=g0.mean, cov=g0.cov) * multivariate_normal.pdf(
        x, mean=g1.mean, cov=g1.cov
    )
    if transform is not None:
        vals = transform(vals)
    return float(trapezoid(vals, x[:, 0]))


def grid_product_2d(u, v, pad=8.0, cells=400):
    # Midpoint-rule integral of u(x) * v(x) over a box covering both mixtures.
    sig_u = np.sqrt(np.diagonal(u.covs, axis1=-2, axis2=-1))
    sig_v = np.sqrt(np.diagonal(v.covs, axis1=-2, axis2=-1))
    lo = np.minimum((u.means - pad * sig_u).min(0), (v.means - pad * sig_v).min(0))
    hi = np.maximum((u.means + pad * sig_u).max(0), (v.means + pad * sig_v).max(0))
    edges = [np.linspace(lo[i], hi[i], cells + 1) for i in range(2)]
    centers = [0.5 * (e[1:] + e[:-1]) for e in edges]
    xx, yy = np.meshgrid(*centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    cell = (edges[0][1] - edges[0][0]) * (edges[1][1] - edges[1][0])
    return float(np.sum(scipy_density(u, pts) * scipy_density(v, pts)) * cell)


def test_gauss_eval_standard_normal_values():
    g = Gaussian(np.zeros(1), np.eye(1))
    assert gauss_eval(np.zeros(1), g) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    assert gauss_eval(np.zeros(1), g) == pytest.approx(0.3989423, abs=1e-7)
    assert gauss_eval(np.ones(1), g) == pytest.approx(0.2419707, abs=1e-7)
    g2 = Gaussian(np.zeros(2), np.eye(2))
    assert gauss_eval(np.zeros(2), g2) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert gauss_eval(np.zeros(2), g2) == pytest.approx(0.1591549, abs=1e-7)


def test_gauss_eval_rejects_bad_inputs():
    g = Gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        gauss_eval(np.zeros(3), g)
    with pytest.raises(ValueError):
        Gaussian(np.zeros(2), -np.eye(2))
    with pytest.raises(ValueError):
        Gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gauss_inner_same_and_separated():
    g0 = Gaussian(np.zeros(1), np.eye(1))
    g3 = Gaussian(np.full(1, 3.0), np.eye(1))
    same = gauss_inner(g0, g0)
    assert same == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)
    assert same == pytest.approx(0.2820948, abs=1e-7)
    # Independent oracle: trapezoid quadrature of the product density.
    cross = gauss_inner(g0, g3)
    oracle = trapz_product(g0, g3, -10.0, 13.0, 1e-3)
    assert cross == pytest.approx(oracle, rel=1e-6)
    assert cross == pytest.approx(0.0297325, abs=1e-7)
    assert gauss_inner(g3, g0) == cross


def test_gauss_inner_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        mk = lambda: Gaussian(
            rng.normal(size=d),
            (lambda a: a @ a.T + 0.3 * np.eye(d))(0.5 * rng.normal(size=(d, d))),
        )
        a, b = mk(), mk()
        assert gauss_inner(a, b) == gauss_inner(b, a)
        lhs = gauss_inner(a, b) ** 2
        rhs = gauss_inner(a, a) * gauss_inner(b, b)
        assert lhs <= rhs + 1e-12


def test_mixture_inner_single_term_and_bilinearity():
    g = Gaussian(np.zeros(1), np.eye(1))
    u = GaussianMixture([1.0], [g.mean], [g.cov])
    assert mixture_inner(u, u) == pytest.approx(0.2820948, abs=1e-7)
    v = GaussianMixture([2.0], [g.mean], [g.cov])
    assert mixture_inner(v, u) == pytest.approx(0.5641896, abs=1e-7)
    rng = RngStream(11)
    for i in range(20):
        a = random_mixture(rng.child(2 * i), 2, 3, 1.5)
        b = random_mixture(rng.child(2 * i + 1), 2, 2, 2.0)
        c = 0.1 + 5.0 * rng.child(1000 + i).generator.random()
        scaled = GaussianMixture(c * a.weights, a.means, a.covs)
        assert mixture_inner(scaled, b) == pytest.approx(
            c * mixture_inner(a, b), rel=1e-12
        )


def test_mixture_inner_matches_2d_quadrature():
    rng = RngStream(23)
    for i in range(3):
        u = random_mixture(rng.child(2 * i), 2, 3, 1.2)
        v = random_mixture(rng.child(2 * i + 1), 2, 2, 0.8)
        oracle = grid_product_2d(u, v)
        assert mixture_inner(u, v) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("n", [0, 1, 400])
def test_pairwise_self_table_is_symmetric_and_equals_cross_route(n):
    # 400 components make 80,200 triangle pairs and 160,000 cross pairs, so
    # both routes span several blocks of 2**16 pairs.
    u = random_mixture(RngStream(43), 4, n, 3.0) if n else GaussianMixture.empty(4)
    m, c = u.means, u.covs
    table = pairwise_log_inner(m, c, m, c)
    assert table.shape == (n, n)
    assert table.tobytes() == table.T.copy().tobytes()
    cross = pairwise_log_inner(m.copy(), c.copy(), m.copy(), c.copy())
    assert table.tobytes() == cross.tobytes()
    # Blocking changes no value: one unblocked batch gives the same bits.
    diffs, covs = (m[:, None] - m[None]).reshape(-1, 4), (c[:, None] + c[None]).reshape(-1, 4, 4)
    whole = log_gauss(diffs, covs)
    assert cross.tobytes() == whole.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pairwise_table_is_bitwise_a_per_pair_loop(d):
    # 300 x 250 cross pairs take blocks of 65_536 // 250 = 262 rows, so the
    # second block is partial; the 300-component self table takes 218 rows,
    # then the other 82 against the columns from row 218 on.
    rng = RngStream(60 + d)
    a = random_mixture(rng.child(0), d, 300, 3.0)
    b = random_mixture(rng.child(1), d, 250, 3.0)
    for u, v in ((a, b), (a, a)):
        loop = np.stack([log_gauss(m - v.means, c + v.covs) for m, c in zip(u.means, u.covs)])
        table = pairwise_log_inner(u.means, u.covs, v.means, v.covs)
        assert table.tobytes() == loop.tobytes()


def test_self_inner_product_memory_stays_bounded():
    # Unblocked, the 600 x 600 stack of 4 x 4 covariance sums alone takes
    # 44 MiB and its Cholesky factors as much again; blocks of 2**16 pairs
    # hold a fraction of that at a time.
    u = random_mixture(RngStream(45), 4, 600, 5.0)
    tracemalloc.start()
    try:
        mixture_inner(u, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_mixture_log_eval_matches_component_loop_across_chunks():
    # 2500 components make chunks of 65_536 // 2500 = 26 points, so 2500
    # points span 97 chunks, the last one partial.
    rng = RngStream(41)
    u = random_mixture(rng.child(0), 3, 2500, 4.0)
    points = rng.child(1).generator.uniform(-4.0, 4.0, size=(2500, 3))
    per_component = np.column_stack(
        [log_gauss(points - mean, cov) for mean, cov in zip(u.means, u.covs)]
    )
    expected = logsumexp(per_component + np.log(u.weights), axis=1)
    np.testing.assert_allclose(mixture_log_eval(u, points), expected, rtol=1e-12, atol=1e-12)


def fixed_order_sum(t):
    # The order _maha promises: left to right.
    total = t[0]
    for term in t[1:]:
        total = total + term
    return total


def ordered_maha(chol, diffs):
    # Forward substitution, each sum added in the fixed order.
    y = []
    for i in range(chol.shape[-1]):
        acc = diffs[..., i]
        if i:
            acc = acc - fixed_order_sum([chol[..., i, j] * y[j] for j in range(i)])
        y.append(acc / chol[..., i, i])
    return fixed_order_sum([yi * yi for yi in y])


def ordered_factor(covs):
    # The lower Cholesky factor, column by column, each sum in the fixed order:
    # l_jj = sqrt(c_jj - sum_k l_jk^2), l_ij = (c_ij - sum_k l_ik l_jk) (1 / l_jj).
    d = covs.shape[-1]
    chol = np.zeros(covs.shape)
    for j in range(d):
        for i in range(j, d):
            acc = covs[..., i, j]
            if j:
                acc = acc - fixed_order_sum([chol[..., i, k] * chol[..., j, k] for k in range(j)])
            chol[..., i, j] = np.sqrt(acc) if i == j else acc * (1.0 / chol[..., j, j])
    return chol


def packed(chol):
    # Matrix-layout factors (..., d, d) as the kernel's packed rows (p, ...).
    return np.moveaxis(chol, (-2, -1), (0, 1))[np.tril_indices(chol.shape[-1])]


def ordered_log_gauss(diffs, covs):
    chol = ordered_factor(covs)
    d = covs.shape[-1]
    logdet_half = fixed_order_sum([np.log(chol[..., i, i]) for i in range(d)])
    return -0.5 * (ordered_maha(chol, diffs) + d * _LOG_2PI) - logdet_half


def spd_stack(gen, shape, d):
    # Factors spread over six decades, as the sensor model's covariances are.
    a = gen.standard_normal(shape + (d, d)) * 10.0 ** gen.uniform(-3, 3, shape + (1, 1))
    return a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(d)


def caller_layouts(d, seed):
    # (covs, diffs) in every layout the callers hand to the kernel.
    gen = np.random.default_rng(seed)
    layouts = {
        # pairwise_log_inner and the look-ahead's detection pairs: one factor per diff.
        "per-pair stack": (spd_stack(gen, (3000,), d), (3000, d)),
        # the look-ahead's predicted-by-detection table: (n, d, d) against (k, n, d).
        "shared over a leading axis": (spd_stack(gen, (60,), d), (17, 60, d)),
        # gmphd's detection term and prune_merge's gate: one matrix, many diffs.
        "one matrix": (spd_stack(gen, (), d), (2000, d)),
        # mixture_log_eval's component-major blocks: (n, 1, d, d) against (n, p, d).
        "component-major": (spd_stack(gen, (30, 1), d), (30, 400, d)),
        # gauss_bhatt_coeff and gauss_inner: one matrix, one diff.
        "scalar": (spd_stack(gen, (), d), (d,)),
    }
    for name, (covs, shape) in layouts.items():
        diffs = gen.standard_normal(shape) * 10.0 ** gen.uniform(-3, 3, shape[:-1] + (1,))
        yield name, covs, diffs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_maha_adds_in_its_fixed_order_in_every_caller_layout(d):
    for name, covs, diffs in caller_layouts(d, 100 + d):
        chol = ordered_factor(covs)
        rows = np.moveaxis(diffs, -1, 0)
        np.testing.assert_array_equal(_maha(packed(chol), rows), ordered_maha(chol, diffs), err_msg=name)
        np.testing.assert_array_equal(
            log_gauss_factored(diffs, gauss_factor(covs)), ordered_log_gauss(diffs, covs), err_msg=name
        )
        # Contiguous coordinate rows, as pairwise_log_inner hands them over, change nothing.
        np.testing.assert_array_equal(
            _maha(packed(chol), np.ascontiguousarray(rows)), ordered_maha(chol, diffs), err_msg=name
        )


@pytest.mark.parametrize("d", [5, 6])
def test_maha_beyond_four_dimensions_matches_solve(d):
    for name, covs, diffs in caller_layouts(d, 100 + d):
        chol = ordered_factor(covs)
        shape = np.broadcast_shapes(covs.shape[:-2], diffs.shape[:-1])
        y = np.linalg.solve(np.broadcast_to(chol, shape + (d, d)), np.broadcast_to(diffs, shape + (d,))[..., None])
        maha = _maha(packed(chol), np.moveaxis(diffs, -1, 0))
        np.testing.assert_allclose(maha, (y[..., 0] ** 2).sum(axis=-1), rtol=1e-12, err_msg=name)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_factor_is_lapacks_to_the_bit_up_to_two_dimensions_and_to_rounding_beyond(d):
    gen = np.random.default_rng(200 + d)
    a = gen.standard_normal((20_000, d, d))
    covs = (a @ np.swapaxes(a, -1, -2) + d * np.eye(d)) * 10.0 ** gen.uniform(-3, 3, (20_000, 1, 1))
    covs = np.concatenate([covs, spd_stack(gen, (20_000,), d)])
    chol, logdet_half = gauss_factor(covs)
    assert chol.tobytes() == packed(ordered_factor(covs)).tobytes()
    lapack = np.linalg.cholesky(covs)
    if d <= 2:
        assert chol.tobytes() == packed(lapack).tobytes()
        want = np.log(np.diagonal(lapack, axis1=-2, axis2=-1)).sum(axis=-1)
        assert logdet_half.tobytes() == want.tobytes()
    else:
        # Row i of L is at most sqrt(C_ii) in size; on the well-conditioned
        # half, LAPACK's factor agrees to 1e-12 of that.
        scale = np.sqrt(np.diagonal(covs, axis1=-2, axis2=-1).T[np.tril_indices(d)[0]])
        well = slice(0, 20_000)
        assert np.all(np.abs(chol - packed(lapack))[:, well] <= 1e-12 * scale[:, well])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["zero", "indefinite", "nan pivot", "nan entry"])
def test_factor_rejects_a_covariance_that_is_not_positive_definite(d, kind):
    bad = np.eye(d)
    if kind == "zero":
        bad[:] = 0.0
    elif kind == "indefinite":
        bad -= 2.0 / d
    elif kind == "nan pivot":
        bad[-1, -1] = np.nan
    else:
        bad[0, -1] = bad[-1, 0] = np.nan
    # One bad matrix among good ones; numpy's warnings are errors here, so
    # no warning may escape before the error.
    covs = np.stack([np.eye(d)] * 3 + [bad] + [np.eye(d)] * 2)
    message = "^covariance in batched evaluation is not positive definite$"
    for build in (
        lambda: gauss_factor(covs),
        lambda: log_gauss(np.zeros(d), covs),
        lambda: log_gauss(np.zeros(d), bad),
        lambda: pairwise_log_inner(np.zeros((6, d)), covs, np.zeros((1, d)), np.zeros((1, d, d))),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def point_major_log_eval(u, points):
    # Point-major blocks of 2**16 // n points with the covariances factored
    # again for every block: the evaluation the pinned oracle values were
    # first computed with, on the fixed-order kernel, kept as a bitwise
    # reference.
    points = np.atleast_2d(np.asarray(points, dtype=float))
    keep = u.weights > 0.0
    w, means, covs = u.weights[keep], u.means[keep], u.covs[keep]
    m, n = points.shape[0], w.size
    if n == 0 or m == 0:
        return np.full(m, -np.inf)
    out = np.empty(m)
    chunk = max(1, 65_536 // n)
    for lo in range(0, m, chunk):
        pts = points[lo : lo + chunk]
        block = ordered_log_gauss(pts[:, None, :] - means[None, :, :], covs) + np.log(w)
        top = block.max(axis=1)
        out[lo : lo + chunk] = top + np.log(np.exp(block - top[:, None]).sum(axis=1))
    return out


@pytest.mark.parametrize("n, d", [(1, 2), (2, 1), (7, 2), (8, 3), (20, 2), (300, 4), (2500, 2)])
def test_mixture_log_eval_is_bitwise_the_point_major_loop(n, d):
    # Blocks hold 2**16 // n points, more than n up to n = 255 and fewer
    # above.  n = 7 and 8 straddle numpy's switch from one-by-one to pairwise
    # sums.  Zero-weight components are mixed in beside the n live ones; the
    # points span two full blocks, a partial one and a far tail.
    rng = RngStream(1000 + n)
    live = random_mixture(rng.child(0), d, n, 3.0)
    dead = random_mixture(rng.child(1), d, max(1, n // 3), 1.0)
    order = rng.child(2).generator.permutation(n + len(dead))
    u = GaussianMixture(
        np.concatenate([live.weights, np.zeros(len(dead))])[order],
        np.concatenate([live.means, dead.means])[order],
        np.concatenate([live.covs, dead.covs])[order],
    )
    m = 2 * max(1, 65_536 // n) + 3
    points = rng.child(3).generator.standard_normal((m, d)) * np.geomspace(0.1, 30.0, m)[:, None]
    np.testing.assert_array_equal(mixture_log_eval(u, points), point_major_log_eval(u, points))
    np.testing.assert_array_equal(mixture_log_eval(u, points[:1]), point_major_log_eval(u, points[:1]))


def test_mixture_log_eval_empty_inputs_and_bad_shapes():
    u = random_mixture(RngStream(47), 2, 3, 1.0)
    assert mixture_log_eval(u, np.zeros((0, 2))).shape == (0,)
    assert np.all(mixture_log_eval(GaussianMixture.empty(2), np.ones((4, 2))) == -np.inf)
    silent = GaussianMixture(np.zeros(3), u.means, u.covs)
    assert np.all(mixture_log_eval(silent, np.ones((4, 2))) == -np.inf)
    # A single point may come as a vector.
    assert mixture_log_eval(u, np.ones(2)).tobytes() == mixture_log_eval(u, np.ones((1, 2))).tobytes()
    with pytest.raises(ValueError, match=r"^points must be an \(m, d\) array"):
        mixture_log_eval(u, np.zeros((5, 2, 2)))
    with pytest.raises(ValueError, match="points have dimension 3"):
        mixture_log_eval(u, np.zeros((5, 3)))


def test_mixture_inner_dimension_mismatch():
    u = GaussianMixture([1.0], np.zeros((1, 1)), np.eye(1)[None])
    v = GaussianMixture([1.0], np.zeros((1, 2)), np.eye(2)[None])
    with pytest.raises(ValueError):
        mixture_inner(u, v)


def test_mixture_mass_counts_and_sampling():
    assert mixture_mass(GaussianMixture.empty(3)) == 0.0
    u = GaussianMixture([1.0, 2.0], np.zeros((2, 1)), np.tile(np.eye(1), (2, 1, 1)))
    assert mixture_mass(u) == 3.0
    # Cardinality of sampled processes is Poisson(mass).
    n = 100_000
    counts = sample_poisson_counts(RngStream(5), 3.0, n)
    se = math.sqrt(3.0 / n)
    assert abs(counts.mean() - 3.0) < 3.0 * se


def test_bhatt_coeff_values():
    g0 = Gaussian(np.zeros(1), np.eye(1))
    g3 = Gaussian(np.full(1, 3.0), np.eye(1))
    assert gauss_bhatt_coeff(g0, g0) == pytest.approx(1.0, abs=1e-12)
    coeff = gauss_bhatt_coeff(g0, g3)
    oracle = trapz_product(g0, g3, -10.0, 13.0, 1e-3, transform=np.sqrt)
    assert coeff == pytest.approx(oracle, rel=1e-6)
    assert coeff == pytest.approx(0.3246525, abs=1e-7)
    gw = Gaussian(np.zeros(1), 4.0 * np.eye(1))
    wide = gauss_bhatt_coeff(g0, gw)
    oracle_wide = trapz_product(g0, gw, -30.0, 30.0, 1e-3, transform=np.sqrt)
    assert abs(wide - oracle_wide) < 1e-8
    assert 0.0 < wide <= 1.0


def test_mixture_scale_identity_and_affine():
    rng = RngStream(31)
    u = random_mixture(rng, 2, 3, 2.5)
    same = mixture_scale(u, 1.0)
    assert np.array_equal(same.weights, u.weights)
    assert np.array_equal(same.means, u.means)
    assert np.array_equal(same.covs, u.covs)
    one = GaussianMixture([1.0], [[1.0]], [np.eye(1)])
    doubled = mixture_scale(one, 2.0)
    assert doubled.means[0, 0] == pytest.approx(2.0)
    assert doubled.covs[0, 0, 0] == pytest.approx(4.0)
    for i in range(10):
        v = random_mixture(rng.child(i), 3, 4, 1.7)
        s = 0.1 + 3.0 * rng.child(100 + i).generator.random()
        assert mixture_mass(mixture_scale(v, s)) == pytest.approx(
            mixture_mass(v), rel=1e-12
        )
    with pytest.raises(ValueError):
        mixture_scale(u, 0.0)


def test_prune_merge_basics():
    single = GaussianMixture([0.8], np.zeros((1, 2)), np.eye(2)[None])
    kept = prune_merge(single, 1e-5, 4.0, 100)
    assert len(kept) == 1
    assert np.allclose(kept.means, single.means)

    twin = GaussianMixture(
        [0.5, 0.5], np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1))
    )
    merged = prune_merge(twin, 1e-5, 4.0, 100)
    assert len(merged) == 1
    assert merged.weights[0] == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(merged.means[0], np.zeros(2), atol=1e-12)
    assert np.allclose(merged.covs[0], np.eye(2), atol=1e-12)


def test_prune_merge_caps_and_preserves_mass():
    rng = RngStream(43)
    u = random_mixture(rng, 2, 200, 10.0)
    out = prune_merge(u, 1e-5, 4.0, 100)
    assert len(out) <= 100
    assert mixture_mass(out) <= mixture_mass(u) + 1e-9
    # Zero thresholds and a generous cap leave the mixture untouched.
    out2 = prune_merge(u, 0.0, 0.0, 500)
    assert len(out2) == len(u)
    assert mixture_mass(out2) == pytest.approx(mixture_mass(u), rel=1e-12)


@pytest.mark.parametrize(
    "args, name",
    [
        ((float("nan"), 4.0, 10), "truncation_threshold"),
        ((1e-5, float("nan"), 10), "merge_threshold"),
        ((1e-5, -1.0, 10), "merge_threshold"),
        ((1e-5, 4.0, 1.5), "max_components"),
        ((1e-5, 4.0, -1), "max_components"),
    ],
)
def test_prune_merge_rejects_bad_arguments_by_name(args, name):
    # A NaN merge gate used to loop forever and a NaN truncation threshold
    # to return an empty mixture.
    u = random_mixture(RngStream(44), 2, 20, 5.0)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        prune_merge(u, *args)


def test_zero_weight_components_contribute_nothing():
    base = GaussianMixture([1.0], np.zeros((1, 1)), np.eye(1)[None])
    padded = GaussianMixture(
        [1.0, 0.0], np.array([[0.0], [50.0]]), np.tile(np.eye(1), (2, 1, 1))
    )
    assert mixture_inner(padded, padded) == mixture_inner(base, base)
    assert mixture_mass(padded) == 1.0
