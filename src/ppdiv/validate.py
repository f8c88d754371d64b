"""Self-contained oracle battery.

Every closed form in the package is checked against an independent route:
deterministic quadrature, Monte Carlo with error bars, a textbook Kalman
filter, brute-force assignment enumeration, and statistical checks of the
simulation components.  ``validate_oracles`` returns a machine-readable
report: one entry per oracle with the measured error, its tolerance, and
``elapsed_seconds``, the wall time of the check that produced it (the
entries of one check share it).  The CLI turns a failed entry into a
nonzero exit code.

This module is the only implementation of the oracles behind acceptance
criteria 1-7, 9 and 10: those checks run on the criterion's own seeds and
inputs, and the criterion tests assert on their entries.  ``policy_comparison``
is criterion 10's policy batch, shared by the tests and the full level; its
``cs`` runs' final sensor positions also answer ``sensor_moves_toward_targets``.

The fast level finishes in seconds; the full level adds the behavioral
checks (policy comparison, determinism, goodness of fit), which run whole
Monte Carlo batches.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from scipy.integrate import trapezoid
from scipy.stats import chi2

from .control import reward
from .divergence import (
    MixturePoissonModel,
    PoissonModel,
    bhatt_poisson_gaussian,
    csd_poisson_gm,
    csd_poisson_mixture,
    csd_poisson_quadrature,
    hellinger_sq_quadrature,
    intensity_grid,
)
from .gaussmix import (
    Gaussian,
    GaussianMixture,
    HyperVolumeUnit,
    gauss_inner,
    mixture_eval,
    mixture_inner,
    mixture_mass,
    mixture_scale,
    prune_merge,
)
from .gmphd import (
    BirthSpawnModel,
    DetectionProfile,
    MeasModel,
    MotionModel,
    extract_states,
    phd_predict,
    phd_update,
)
from .harness import mc_csv_text, run_csv_text, run_montecarlo, run_simulation, run_streams
from .metrics import OspaParams, optimal_assignment, ospa
from .pointprocess import (
    PointPattern,
    RngStream,
    mc_csd,
    mc_inner_product,
    sample_poisson_counts,
)
from .scenario import (
    ScenarioConfig,
    TruthState,
    TruthTarget,
    action_positions,
    detection_probability,
    generate_measurements,
    step_truth,
)

# ---------------------------------------------------------------------------
# independent oracles


def kalman_filter_sequence(m0, p0, f, q, h, r, measurements):
    """Textbook Kalman filter: one predict/update per measurement row.

    Returns the list of posterior (mean, cov) pairs.  Written directly from
    the standard equations so it shares no code with the PHD update.
    """
    f = np.asarray(f, dtype=float)
    q = np.asarray(q, dtype=float)
    h = np.asarray(h, dtype=float)
    r = np.asarray(r, dtype=float)
    m = np.asarray(m0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    eye = np.eye(p.shape[0])
    out = []
    for z in np.atleast_2d(np.asarray(measurements, dtype=float)):
        m = f @ m
        p = f @ p @ f.T + q
        innov_cov = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(innov_cov)
        m = m + gain @ (z - h @ m)
        p = (eye - gain @ h) @ p
        out.append((m.copy(), p.copy()))
    return out


def brute_force_assignment(cost) -> tuple[tuple, float]:
    """Exhaustive minimum over all row-to-column permutations (square cost)."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    rows = np.arange(n)
    best_perm = None
    best_total = math.inf
    for perm in itertools.permutations(range(n)):
        total = float(cost[rows, perm].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    return best_perm, best_total


# ---------------------------------------------------------------------------
# random model generator (deterministic in the supplied stream)


def random_mixture(rng: RngStream, dim: int, n_comp: int, mass: float) -> GaussianMixture:
    gen = rng.generator
    raw = gen.random(n_comp) + 0.2
    weights = raw / raw.sum() * mass
    means = gen.uniform(-3.0, 3.0, size=(n_comp, dim))
    covs = np.empty((n_comp, dim, dim))
    for i in range(n_comp):
        a = 0.4 * gen.standard_normal((dim, dim))
        covs[i] = a @ a.T + (0.3 + gen.random()) * np.eye(dim)
    return GaussianMixture(weights, means, covs)


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _z(estimate: float, reference: float, se: float) -> float:
    """Deviation in standard errors; infinite when the estimate has no spread."""
    return abs(estimate - reference) / se if se > 0.0 else math.inf


def _worst(errors) -> float:
    """Largest error, 0 for none; NaN if any error is NaN, so it cannot pass."""
    return float(np.max(np.array(errors, dtype=float), initial=0.0))


# ---------------------------------------------------------------------------
# the battery

# Root of the streams of the checks that no acceptance criterion shares.
_SEED = 20260814
_MC_SAMPLES = 100_000


class _Report:
    def __init__(self, level: str):
        self.level = level
        self.entries = []

    def add(self, name: str, measure: float, tolerance: float, detail: str = ""):
        self.entries.append(
            {
                "name": name,
                "measure": float(measure),
                "tolerance": float(tolerance),
                "passed": bool(measure < tolerance),
                "detail": detail,
            }
        )

    def run(self, check, *args) -> None:
        """Run one check; the entries it adds share its wall time."""
        first = len(self.entries)
        started = time.monotonic()
        check(self, *args)
        elapsed = time.monotonic() - started
        for entry in self.entries[first:]:
            entry["elapsed_seconds"] = elapsed

    def finish(self, elapsed: float) -> dict:
        return {
            "level": self.level,
            "passed": all(e["passed"] for e in self.entries),
            "n_entries": len(self.entries),
            "n_failed": sum(not e["passed"] for e in self.entries),
            "elapsed_seconds": elapsed,
            "entries": self.entries,
        }


def _check_quadrature(report: _Report):
    """Criterion 1."""
    masses_u = (4.8, 1.5, 3.2, 2.4, 0.9)
    masses_v = (3.6, 2.8, 1.1, 4.2, 1.7)
    errors = []
    for dim in (1, 2):
        for trial in range(5):
            u = random_mixture(RngStream(100 + 10 * dim + trial), dim, 3, masses_u[trial])
            v = random_mixture(RngStream(160 + 10 * dim + trial), dim, 3, masses_v[trial])
            closed = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
            pts, vol = intensity_grid([u, v])
            quad = csd_poisson_quadrature(mixture_eval(u, pts), mixture_eval(v, pts), vol)
            errors.append(_rel_err(closed, quad))
    report.add(
        "csd_closed_vs_quadrature",
        _worst(errors),
        1e-6,
        "max relative error over 5 mixture pairs in each of d = 1 and d = 2, masses <= 5",
    )


def _check_grid(report: _Report, rng: RngStream):
    # grid-halving convergence on a representative 2-D pair
    u = random_mixture(rng.child(300), 2, 3, 2.0)
    v = random_mixture(rng.child(301), 2, 2, 1.5)
    vals = []
    for cells in (500, 1000):
        pts, vol = intensity_grid([u, v], cells)
        vals.append(csd_poisson_quadrature(mixture_eval(u, pts), mixture_eval(v, pts), vol))
    report.add(
        "csd_quadrature_grid_halving",
        abs(vals[1] - vals[0]),
        1e-7,
        "absolute change when the grid step halves",
    )
    # single-Gaussian inner product against 1-D trapezoid integration
    g0 = Gaussian([0.0], [[1.0]])
    g1 = Gaussian([3.0], [[1.0]])
    xs = np.arange(-10.0, 13.0 + 1e-12, 1e-3)
    trap = float(
        trapezoid(
            mixture_eval(GaussianMixture.single(1.0, g0.mean, g0.cov), xs[:, None])
            * mixture_eval(GaussianMixture.single(1.0, g1.mean, g1.cov), xs[:, None]),
            xs,
        )
    )
    report.add(
        "gauss_inner_vs_trapezoid",
        _rel_err(gauss_inner(g0, g1), trap),
        1e-6,
        "int N(x;0,1) N(x;3,1) dx",
    )


def _check_bhatt(report: _Report):
    """Criterion 5."""
    gen = np.random.default_rng(55)

    def model(dim):
        weight = gen.uniform(0.3, 3.0)
        mean = gen.uniform(-2.0, 2.0, size=dim)
        aa = gen.uniform(-1.0, 1.0, size=(dim, dim))
        cov = aa @ aa.T + (0.4 + gen.uniform()) * np.eye(dim)
        return PoissonModel(GaussianMixture([weight], [mean], [cov]))

    errors = []
    for dim in (1, 1, 1, 2, 2):
        a, b = model(dim), model(dim)
        closed = bhatt_poisson_gaussian(a, b)
        pts, vol = intensity_grid([a.intensity, b.intensity])
        quad = hellinger_sq_quadrature(
            mixture_eval(a.intensity, pts), mixture_eval(b.intensity, pts), vol
        )
        errors.append(_rel_err(closed, quad))
    report.add(
        "bhatt_vs_hellinger_quadrature",
        _worst(errors),
        1e-6,
        "max relative error over 5 single-Gaussian pairs, d = 1 and 2",
    )
    mean = np.array([0.5, -0.2])
    cov = np.array([[1.4, 0.3], [0.3, 0.9]])
    value = bhatt_poisson_gaussian(
        PoissonModel(GaussianMixture([1.0], [mean], [cov])),
        PoissonModel(GaussianMixture([4.0], [mean], [cov])),
    )
    report.add(
        "bhatt_mass_only_case",
        abs(value - 0.5),
        1e-9,
        f"identical shapes, masses 1 and 4: (1+4)/2 - sqrt(4) = 0.5, got {value!r}",
    )


def _check_monte_carlo(report: _Report):
    """Criterion 2."""
    dims = (1, 2, 2)
    masses_u = (1.8, 1.2, 0.7)
    masses_v = (1.5, 0.9, 1.9)
    errors = []
    for i in range(3):
        u = random_mixture(RngStream(200 + i), dims[i], 2, masses_u[i])
        v = random_mixture(RngStream(230 + i), dims[i], 2, masses_v[i])
        a, b = PoissonModel(u), PoissonModel(v)
        est, se = mc_csd(RngStream(700 + i), a, b, _MC_SAMPLES)
        errors.append(_z(est, csd_poisson_gm(a, b), se))
    report.add(
        "csd_closed_vs_mc",
        _worst(errors),
        3.0,
        f"max |closed - MC| in standard errors, n={_MC_SAMPLES}, 3 pairs, masses <= 2",
    )


def _check_self_inner_product(report: _Report):
    """Criterion 3."""
    dims = (1, 2, 3, 2, 1)
    units = (1.0, 1.0, 1.0, 1.0, 0.7)
    masses = (1.9, 1.1, 0.8, 1.5, 2.0)
    n = 200_000
    errors = []
    for i in range(5):
        u = random_mixture(RngStream(300 + i), dims[i], 2, masses[i])
        a = PoissonModel(u, HyperVolumeUnit(units[i]))
        expected = math.exp(units[i] * mixture_inner(u, u) - 2.0 * mixture_mass(u))
        est, se = mc_inner_product(RngStream(800 + i), a, a, n)
        errors.append(_z(est, expected, se))
    report.add(
        "self_inner_product_vs_mc",
        _worst(errors),
        3.0,
        f"mc_inner_product(a, a) against exp(k<u,u> - 2 mass) in standard errors, "
        f"n={n}, 5 models, d <= 3, k = 1 and 0.7",
    )


def _check_process_mixtures(report: _Report):
    """Criterion 4."""
    errors = []
    for i in range(5):
        a = PoissonModel(random_mixture(RngStream(410 + i), 2, 2, 1.3))
        b = PoissonModel(random_mixture(RngStream(440 + i), 2, 2, 1.8))
        single = csd_poisson_mixture(
            MixturePoissonModel(((1.0, a),)), MixturePoissonModel(((1.0, b),))
        )
        errors.append(abs(single - csd_poisson_gm(a, b)))
    report.add(
        "process_mixture_single_reduction",
        _worst(errors),
        1e-12,
        "1-component process mixtures reduce to the plain closed form, 5 pairs",
    )
    a1, a2, b1, b2 = (
        PoissonModel(random_mixture(RngStream(seed), 1, 2, mass))
        for seed, mass in ((401, 1.4), (402, 0.9), (403, 1.7), (404, 1.1))
    )
    fa = MixturePoissonModel(((0.4, a1), (0.6, a2)))
    fb = MixturePoissonModel(((0.7, b1), (0.3, b2)))
    est, se = mc_csd(RngStream(900), fa, fb, _MC_SAMPLES)
    report.add(
        "process_mixture_vs_mc",
        _z(est, csd_poisson_mixture(fa, fb), se),
        3.0,
        f"2x2-component process mixtures, in standard errors, n={_MC_SAMPLES}",
    )


def _check_unit_scale(report: _Report, rng: RngStream):
    """Criterion 6, and linearity in the unit."""
    errors = []
    for dim in (1, 2, 4):
        u = random_mixture(RngStream(600 + dim), dim, 2, 1.7)
        v = random_mixture(RngStream(640 + dim), dim, 2, 2.3)
        base = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
        for s in (0.1, 10.0):
            unit = HyperVolumeUnit(s**dim)
            scaled = csd_poisson_gm(
                PoissonModel(mixture_scale(u, s), unit),
                PoissonModel(mixture_scale(v, s), unit),
            )
            errors.append(_rel_err(scaled, base))
    report.add(
        "unit_scale_invariance",
        _worst(errors),
        1e-10,
        "coordinate scale s with unit volume s^d leaves the divergence unchanged",
    )
    u = random_mixture(rng.child(980), 2, 2, 1.5)
    v = random_mixture(rng.child(981), 2, 2, 1.0)
    d1 = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
    d2 = csd_poisson_gm(
        PoissonModel(u, HyperVolumeUnit(2.0)), PoissonModel(v, HyperVolumeUnit(2.0))
    )
    report.add(
        "unit_linearity",
        _rel_err(d2, 2.0 * d1),
        1e-12,
        "doubling the unit hyper-volume doubles the divergence",
    )


def _check_kalman_reduction(report: _Report):
    """Criterion 7, and state extraction."""
    cfg = ScenarioConfig()
    f, q, h, r = cfg.transition, cfg.process_noise, cfg.observation, cfg.meas_noise
    gen = np.random.default_rng(77)
    x = np.array([5.0, -3.0, 1.1, 0.6])
    zs = []
    for _ in range(40):
        x = f @ x + gen.multivariate_normal(np.zeros(4), q)
        zs.append(h @ x + gen.multivariate_normal(np.zeros(2), r))
    m0 = np.zeros(4)
    p0 = np.diag([100.0, 100.0, 25.0, 25.0])
    oracle = kalman_filter_sequence(m0, p0, f, q, h, r, zs)

    motion = MotionModel(f, q, 1.0)
    births = BirthSpawnModel(GaussianMixture.empty(4))
    profile = DetectionProfile(constant=1.0)
    model = MeasModel(h, r, 0.0, None)
    prior = GaussianMixture([1.0], [m0], [p0])
    mean_err, cov_err, mass_err = [], [], []
    bad_extractions = 0
    for k, z in enumerate(zs):
        predicted = phd_predict(prior, motion, births)
        posterior = phd_update(predicted, PointPattern([z], dim=2), profile, model)
        mass_err.append(abs(mixture_mass(posterior) - 1.0))
        kept = prune_merge(posterior, 1e-12, 0.0, 4)
        if len(kept) != 1:
            break
        mean, cov = oracle[k]
        mean_err.append(float(np.abs(kept.means[0] - mean).max()))
        cov_err.append(float(np.abs(kept.covs[0] - cov).max()))
        bad_extractions += len(extract_states(kept, 0.5)) != 1
        prior = kept
    for name, errors, detail in (
        ("mean", mean_err, "max |PHD - Kalman| mean entry"),
        ("cov", cov_err, "max |PHD - Kalman| covariance entry"),
        ("mass", mass_err, "max |posterior mass - 1| before pruning"),
    ):
        report.add(f"kalman_reduction_{name}", _worst(errors), 1e-9, f"{detail}, 40 steps")
    report.add(
        "kalman_reduction_one_component",
        float(len(zs) - len(mean_err)),
        0.5,
        "steps not reached with exactly one component kept (stops at the first)",
    )
    report.add(
        "kalman_reduction_extraction",
        float(bad_extractions),
        0.5,
        "exactly one state extracted at every step",
    )


def _check_ospa_and_assignment(report: _Report):
    """Criterion 9."""
    gen = np.random.default_rng(99)
    params = OspaParams(order=2.0, cutoff=10.0)
    asymmetric = out_of_range = 0
    identity, triangle, empty = [], [], []
    for _ in range(100):
        x, y, z = (
            gen.uniform(-6.0, 6.0, size=(gen.integers(0, 6), 2)) for _ in range(3)
        )
        dxy = ospa(x, y, params)
        asymmetric += dxy != ospa(y, x, params)
        out_of_range += not 0.0 <= dxy <= params.cutoff + 1e-12
        identity.append(ospa(x, x, params))
        triangle.append(dxy - (ospa(x, z, params) + ospa(z, y, params)))
        if (len(x) == 0) != (len(y) == 0):
            empty.append(abs(dxy - params.cutoff))
    for name, measure, tolerance, detail in (
        ("ospa_symmetry", asymmetric, 0.5, "count of d(x, y) != d(y, x)"),
        ("ospa_range", out_of_range, 0.5, "count of d(x, y) outside [0, cutoff + 1e-12]"),
        ("ospa_identity", _worst(identity), 1e-12, "max d(x, x)"),
        ("ospa_triangle", _worst(triangle), 1e-9, "max d(x, y) - (d(x, z) + d(z, y))"),
        ("ospa_empty_set_cutoff", _worst(empty), 1e-9, "max |d(x, {}) - cutoff|"),
    ):
        report.add(name, measure, tolerance, f"{detail}, 100 random set triples")
    gaps = []
    for _ in range(25):
        cost = gen.uniform(0.0, 10.0, size=(6, 6))
        gaps.append(abs(optimal_assignment(cost)[1] - brute_force_assignment(cost)[1]))
    report.add(
        "assignment_vs_brute_force",
        _worst(gaps),
        1e-12,
        "25 random 6x6 cost matrices vs all 720 permutations",
    )


def _check_scenario_statistics(report: _Report, rng: RngStream):
    cfg = ScenarioConfig()
    sensor = np.array([250.0, 250.0])
    # detection probability against direct 2x2 evaluation at a fixed offset
    x = np.array([1250.0, 250.0, 0.0, 0.0])
    delta = sensor - cfg.observation @ x
    sinv = np.linalg.inv(cfg.detection_shape)
    expected = math.exp(-0.5 * float(delta @ sinv @ delta))
    report.add(
        "detection_probability_offset",
        _rel_err(detection_probability(x, sensor, cfg), expected),
        1e-9,
        "p_D at a 1000 m offset vs direct evaluation",
    )
    report.add(
        "detection_probability_peak",
        abs(detection_probability(np.array([250.0, 250.0, 1.0, 1.0]), sensor, cfg) - 1.0),
        1e-9,
        "p_D = 1 when the sensor sits on the projected state",
    )
    # Poisson count sampler mean
    counts = sample_poisson_counts(rng.child(1), 20.0, 100_000)
    se = math.sqrt(20.0 / counts.size)
    report.add(
        "poisson_count_mean",
        abs(float(counts.mean()) - 20.0) / se,
        3.0,
        "inversion sampler mean in standard errors, mean 20, n=1e5",
    )
    # clutter through the full scan path, no targets present
    empty = TruthState.empty(4)
    scans = [
        len(generate_measurements(empty, sensor, cfg, rng.child(2).child(i)))
        for i in range(3000)
    ]
    se = math.sqrt(20.0 / len(scans))
    report.add(
        "clutter_mean_count",
        abs(float(np.mean(scans)) - 20.0) / se,
        3.0,
        "empty-truth scans vs rate x area = 20, in standard errors",
    )
    # measurement noise covariance, sensor parked on the targets so p_D = 1
    n = 10_000
    state = np.array([500.0, 500.0, 0.0, 0.0])
    truth = TruthState(tuple(range(n)), np.tile(state, (n, 1)))
    zcfg = ScenarioConfig(clutter_rate=0.0, truth_script=())
    zs = generate_measurements(truth, state[:2], zcfg, rng.child(3))
    resid = zs.points - state[:2]
    sample_cov = resid.T @ resid / len(zs)
    report.add(
        "measurement_noise_covariance",
        float(np.abs(sample_cov - zcfg.meas_noise).max()) / 9.0,
        0.05,
        "sample covariance of z - Hx vs R, relative to sigma^2 = 9",
    )
    # truth propagation: sample mean of F x + noise
    n = 2000
    script = tuple(TruthTarget(0, None, state) for _ in range(n))
    pcfg = ScenarioConfig(truth_script=script, clutter_rate=0.0)
    batch = TruthState(tuple(range(n)), np.tile(state, (n, 1)))
    stepped = step_truth(batch, pcfg, rng.child(4), 1)
    target_mean = pcfg.transition @ state
    sd = np.sqrt(np.diag(pcfg.process_noise))
    se_vec = np.where(sd > 0, sd, 1.0) / math.sqrt(n)
    devs = np.abs(stepped.states.mean(axis=0) - target_mean) / se_vec
    report.add(
        "truth_propagation_mean",
        float(devs.max()),
        3.0,
        "propagated sample mean vs F x, per-coordinate standard errors",
    )


def _check_reward_orientation(report: _Report):
    cfg = ScenarioConfig()
    predicted = phd_predict(GaussianMixture.empty(4), cfg.motion, cfg.births)
    z_star = PointPattern.empty(2)
    candidates = action_positions(cfg.sensor_start, cfg)
    center = np.array([500.0, 500.0])
    dists = np.linalg.norm(candidates - center, axis=1)
    near = reward(candidates[int(np.argmin(dists))], predicted, z_star, cfg)
    far = reward(candidates[int(np.argmax(dists))], predicted, z_star, cfg)
    report.add(
        "reward_prefers_informative_position",
        0.0 if near > far else 1.0,
        0.5,
        f"reward toward the birth region {near:.3e} vs away {far:.3e}",
    )


def _final_truth_positions(cfg: ScenarioConfig, seed: int, run_index: int) -> np.ndarray:
    # replays the run's truth stream
    rng = run_streams(seed, run_index).truth
    truth = TruthState.empty(cfg.state_dim)
    for k in range(1, cfg.horizon + 1):
        truth = step_truth(truth, cfg, rng, k)
    return truth.states @ cfg.observation.T


def _check_policies(report: _Report):
    """Criterion 10, and where the divergence policy's sensor ends."""
    cfg = ScenarioConfig()
    runs = {p: run_montecarlo(cfg, 20, master_seed=cfg.seed, policy=p) for p in ("cs", "random", "stay")}
    steady = {p: float(s.ospa_mean[s.steps >= 10].mean()) for p, s in runs.items()}
    report.add(
        "policy_cs_beats_random",
        steady["cs"] - steady["random"],
        0.0,
        f"steady-state mean OSPA: cs {steady['cs']:.2f} vs random {steady['random']:.2f}",
    )
    report.add(
        "policy_cs_beats_stay",
        steady["cs"] - steady["stay"],
        0.0,
        f"steady-state mean OSPA: cs {steady['cs']:.2f} vs stay {steady['stay']:.2f}",
    )
    report.add(
        "policy_cs_absolute",
        steady["cs"],
        60.0,
        "steady-state mean OSPA of the divergence policy, meters",
    )
    finals = runs["cs"].final_sensors
    closer = 0
    for i, final in enumerate(finals):
        centroid = _final_truth_positions(cfg, cfg.seed, i).mean(axis=0)
        before = float(np.linalg.norm(cfg.sensor_start - centroid))
        closer += float(np.linalg.norm(final - centroid)) < before
    report.add(
        "sensor_moves_toward_targets",
        1.0 - closer / len(finals),
        0.2 + 1e-12,
        f"{closer}/{len(finals)} runs end closer to the final truth centroid",
    )


def policy_comparison() -> list[dict]:
    """The policy batch as report entries: 20 seeded runs of the default
    scenario per policy; the divergence policy's steady-state mean OSPA
    (steps >= 10) must beat random and stay-put and stay below 60 m, and at
    least 80% of its runs must end with the sensor closer to the final truth
    centroid than where it started.  The four entries share the batch's wall
    time in ``elapsed_seconds``."""
    report = _Report("full")
    report.run(_check_policies)
    return report.entries


def _check_determinism(report: _Report):
    cfg = ScenarioConfig(horizon=10)
    text_a = run_csv_text(run_simulation(cfg, _SEED, policy="cs"))
    text_b = run_csv_text(run_simulation(cfg, _SEED, policy="cs"))
    report.add(
        "run_determinism",
        0.0 if text_a == text_b else 1.0,
        0.5,
        "two identical runs produce identical CSV bytes",
    )
    mc_a = mc_csv_text(run_montecarlo(cfg, 4, _SEED, parallelism=1, policy="random"))
    mc_b = mc_csv_text(run_montecarlo(cfg, 4, _SEED, parallelism=2, policy="random"))
    report.add(
        "montecarlo_parallelism_determinism",
        0.0 if mc_a == mc_b else 1.0,
        0.5,
        "1 worker vs 2 workers produce identical batch CSV bytes",
    )


def _check_count_gof(report: _Report, rng: RngStream):
    mean = 4.0
    counts = sample_poisson_counts(rng, mean, 100_000)
    top = 12
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
    ks = np.arange(top)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(ks[1:])]))
    pmf = np.exp(ks * math.log(mean) - mean - log_fact)
    probs = np.concatenate([pmf, [1.0 - pmf.sum()]])
    expected = probs * counts.size
    stat = float(((observed - expected) ** 2 / expected).sum())
    pval = float(chi2.sf(stat, df=top))
    report.add(
        "poisson_count_chi2_gof",
        1e-3 - pval,
        1e-12,
        f"chi-square p-value {pval:.4f} for Poisson(4) counts, n=1e5",
    )


def validate_oracles(level: str = "fast") -> dict:
    """Run the oracle battery; returns the report dict (see module docstring)."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    started = time.monotonic()
    report = _Report(level)
    rng = RngStream(_SEED, stream_id=999)
    report.run(_check_quadrature)
    report.run(_check_grid, rng.child(0))
    report.run(_check_bhatt)
    report.run(_check_monte_carlo)
    report.run(_check_self_inner_product)
    report.run(_check_process_mixtures)
    report.run(_check_unit_scale, rng.child(4))
    report.run(_check_kalman_reduction)
    report.run(_check_ospa_and_assignment)
    report.run(_check_scenario_statistics, rng.child(8))
    report.run(_check_reward_orientation)
    if level == "full":
        report.run(_check_count_gof, rng.child(9))
        report.run(_check_determinism)
        report.entries += policy_comparison()
    return report.finish(time.monotonic() - started)
