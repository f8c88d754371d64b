"""Self-contained oracle battery.

Every closed form in the package is checked against an independent route:
deterministic quadrature, Monte Carlo with error bars, a textbook Kalman
filter, brute-force assignment enumeration, and statistical checks of the
simulation components.  ``validate_oracles`` returns a machine-readable
report (one entry per oracle with the measured error and its tolerance);
the CLI turns a failed entry into a nonzero exit code.

The fast level finishes in well under a minute; the full level adds the
behavioral checks (policy comparison, determinism, goodness of fit), which
run whole Monte Carlo batches.
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
    GmPhdState,
    MeasModel,
    MotionModel,
    extract_states,
    phd_predict,
    phd_update,
)
from .harness import mc_csv_text, run_csv_text, run_montecarlo, run_simulation
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


# ---------------------------------------------------------------------------
# the battery


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

    def finish(self, elapsed: float) -> dict:
        return {
            "level": self.level,
            "passed": all(e["passed"] for e in self.entries),
            "n_entries": len(self.entries),
            "n_failed": sum(not e["passed"] for e in self.entries),
            "elapsed_seconds": elapsed,
            "entries": self.entries,
        }


def _check_quadrature(report: _Report, rng: RngStream):
    for dim, cells in ((1, 2000), (2, 500)):
        worst = 0.0
        for i in range(5):
            u = random_mixture(rng.child(10 * dim + i), dim, 3, 1.0 + 3.0 * (i / 5))
            v = random_mixture(rng.child(10 * dim + i + 100), dim, 2, 0.5 + 2.0 * (i / 5))
            closed = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
            pts, vol = intensity_grid([u, v], cells)
            quad = csd_poisson_quadrature(mixture_eval(u, pts), mixture_eval(v, pts), vol)
            worst = max(worst, _rel_err(quad, closed))
        report.add(
            f"csd_closed_vs_quadrature_{dim}d",
            worst,
            1e-6,
            "max relative error over 5 random mixture pairs",
        )
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


def _check_bhatt(report: _Report, rng: RngStream):
    worst = 0.0
    for i in range(5):
        dim = 1 + i % 2
        u = random_mixture(rng.child(400 + i), dim, 1, 0.5 + i)
        v = random_mixture(rng.child(450 + i), dim, 1, 2.0 + 0.5 * i)
        closed = bhatt_poisson_gaussian(PoissonModel(u), PoissonModel(v))
        pts, vol = intensity_grid([u, v], 2000 if dim == 1 else 500)
        quad = hellinger_sq_quadrature(mixture_eval(u, pts), mixture_eval(v, pts), vol)
        worst = max(worst, _rel_err(quad, closed))
    report.add(
        "bhatt_vs_hellinger_quadrature",
        worst,
        1e-6,
        "max relative error over 5 single-Gaussian pairs",
    )
    shape = Gaussian([0.5, -0.5], [[1.0, 0.2], [0.2, 0.8]])
    a = PoissonModel(GaussianMixture.single(1.0, shape.mean, shape.cov))
    b = PoissonModel(GaussianMixture.single(4.0, shape.mean, shape.cov))
    report.add(
        "bhatt_mass_only_case",
        abs(bhatt_poisson_gaussian(a, b) - 0.5),
        1e-9,
        "identical shapes, masses 1 and 4: (1+4)/2 - sqrt(4) = 0.5",
    )


def _check_monte_carlo(report: _Report, rng: RngStream, n: int):
    worst = 0.0
    for i in range(3):
        dim = 1 + i % 2
        u = random_mixture(rng.child(500 + i), dim, 2, 1.0 + 0.4 * i)
        v = random_mixture(rng.child(550 + i), dim, 2, 0.8 + 0.3 * i)
        a, b = PoissonModel(u), PoissonModel(v)
        closed = csd_poisson_gm(a, b)
        est, se = mc_csd(rng.child(600 + i), a, b, n)
        worst = max(worst, abs(est - closed) / se)
    report.add(
        "csd_closed_vs_mc",
        worst,
        3.0,
        f"max |closed - MC| in standard errors, n={n}, 3 mixture pairs",
    )
    worst = 0.0
    for i in range(5):
        dim = 1 + i % 2
        u = random_mixture(rng.child(700 + i), dim, 2, 0.6 + 0.3 * i)
        a = PoissonModel(u)
        expected = math.exp(mixture_inner(u, u) - 2.0 * mixture_mass(u))
        est, se = mc_inner_product(rng.child(750 + i), a, a, n)
        worst = max(worst, abs(est - expected) / se)
    report.add(
        "self_inner_product_vs_mc",
        worst,
        3.0,
        "mc_inner_product(a, a) against exp(<u,u> - 2 mass), 5 models",
    )


def _check_process_mixtures(report: _Report, rng: RngStream, n: int):
    u = random_mixture(rng.child(800), 1, 2, 1.4)
    v = random_mixture(rng.child(801), 1, 3, 0.9)
    single_a = MixturePoissonModel(((1.0, PoissonModel(u)),))
    single_b = MixturePoissonModel(((1.0, PoissonModel(v)),))
    report.add(
        "process_mixture_single_reduction",
        abs(
            csd_poisson_mixture(single_a, single_b)
            - csd_poisson_gm(PoissonModel(u), PoissonModel(v))
        ),
        1e-12,
        "1-component process mixtures reduce to the plain closed form",
    )
    fa = MixturePoissonModel(
        (
            (0.6, PoissonModel(random_mixture(rng.child(810), 1, 2, 1.2))),
            (0.4, PoissonModel(random_mixture(rng.child(811), 1, 1, 0.7))),
        )
    )
    fb = MixturePoissonModel(
        (
            (0.3, PoissonModel(random_mixture(rng.child(812), 1, 2, 0.9))),
            (0.7, PoissonModel(random_mixture(rng.child(813), 1, 2, 1.6))),
        )
    )
    closed = csd_poisson_mixture(fa, fb)
    est, se = mc_csd(rng.child(814), fa, fb, n)
    report.add(
        "process_mixture_vs_mc",
        abs(est - closed) / se,
        3.0,
        f"2x2-component process mixtures, n={n}",
    )


def _check_unit_scale(report: _Report, rng: RngStream):
    worst = 0.0
    for dim in (1, 2, 4):
        u = random_mixture(rng.child(900 + dim), dim, 2, 1.5)
        v = random_mixture(rng.child(950 + dim), dim, 2, 1.0)
        base = csd_poisson_gm(PoissonModel(u), PoissonModel(v))
        for s in (0.1, 10.0):
            unit = HyperVolumeUnit(float(s) ** dim)
            scaled = csd_poisson_gm(
                PoissonModel(mixture_scale(u, s), unit),
                PoissonModel(mixture_scale(v, s), unit),
            )
            worst = max(worst, _rel_err(scaled, base))
    report.add(
        "unit_scale_invariance",
        worst,
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


def _check_kalman_reduction(report: _Report, rng: RngStream, steps: int = 40):
    cfg = ScenarioConfig()
    f, q, h, r = cfg.transition, cfg.process_noise, cfg.observation, cfg.meas_noise
    gen = rng.generator
    m0 = np.array([300.0, 300.0, 4.0, -2.0])
    p0 = np.diag([100.0, 100.0, 25.0, 25.0])
    x = m0 + np.linalg.cholesky(p0) @ gen.standard_normal(4)
    chol_q = np.linalg.cholesky(q)
    chol_r = np.linalg.cholesky(r)
    zs = []
    for _ in range(steps):
        x = f @ x + chol_q @ gen.standard_normal(4)
        zs.append(h @ x + chol_r @ gen.standard_normal(2))
    zs = np.stack(zs)

    oracle = kalman_filter_sequence(m0, p0, f, q, h, r, zs)
    motion = MotionModel(f, q, survival_prob=1.0)
    births = BirthSpawnModel(GaussianMixture.empty(4))
    meas = MeasModel(h, r, clutter_rate=0.0)
    profile = DetectionProfile(constant=1.0)
    state = GmPhdState(GaussianMixture.single(1.0, m0, p0), 0)
    worst = 0.0
    worst_mass = 0.0
    bad_extractions = 0
    for k in range(steps):
        predicted = phd_predict(state, motion, births)
        posterior = phd_update(predicted, PointPattern(zs[k : k + 1]), profile, meas)
        posterior = prune_merge(posterior, 1e-12, 0.0, 10)
        worst_mass = max(worst_mass, abs(mixture_mass(posterior) - 1.0))
        km, kp = oracle[k]
        worst = max(worst, float(np.abs(posterior.means[0] - km).max()))
        worst = max(worst, float(np.abs(posterior.covs[0] - kp).max()))
        bad_extractions += len(extract_states(posterior, 0.5)) != 1
        state = GmPhdState(posterior, k + 1)
    report.add(
        "kalman_reduction_mean_cov",
        worst,
        1e-9,
        f"max |PHD - Kalman| entry over {steps} steps",
    )
    report.add("kalman_reduction_mass", worst_mass, 1e-9, "posterior mass stays 1")
    report.add(
        "kalman_reduction_extraction",
        float(bad_extractions),
        0.5,
        "exactly one state extracted at every step",
    )


def _check_assignment(report: _Report, rng: RngStream):
    gen = rng.generator
    worst = 0.0
    for _ in range(25):
        cost = gen.random((6, 6)) * 10.0
        _, total = optimal_assignment(cost)
        _, brute = brute_force_assignment(cost)
        worst = max(worst, abs(total - brute))
    report.add(
        "assignment_vs_brute_force",
        worst,
        1e-9,
        "25 random 6x6 cost matrices vs all 720 permutations",
    )


def _check_ospa(report: _Report, rng: RngStream):
    gen = rng.generator
    params = OspaParams(2.0, 100.0)
    worst = 0.0
    for _ in range(100):
        sets = []
        for _ in range(3):
            n = int(gen.integers(0, 6))
            sets.append(PointPattern(gen.random((n, 2)) * 150.0, dim=2))
        x, y, z = sets
        xy = ospa(x, y, params)
        worst = max(worst, abs(xy - ospa(y, x, params)))
        worst = max(worst, ospa(x, x, params))
        worst = max(worst, xy - params.cutoff)
        worst = max(worst, ospa(x, z, params) - (xy + ospa(y, z, params)))
        if len(x) and not len(y):
            worst = max(worst, abs(xy - params.cutoff))
    report.add(
        "ospa_metric_axioms",
        worst,
        1e-9,
        "symmetry, identity, cutoff bound, triangle inequality on 100 triples",
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
    state = GmPhdState(GaussianMixture.empty(4), 0)
    predicted = phd_predict(
        state,
        MotionModel(cfg.transition, cfg.process_noise, cfg.survival_prob),
        BirthSpawnModel(cfg.birth, cfg.spawn_terms),
    )
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


def _final_truth_positions(cfg: ScenarioConfig, seed: int) -> np.ndarray:
    # replays the harness truth stream: base (seed, run 0), purpose child 0
    rng = RngStream(seed, stream_id=0).child(0)
    truth = TruthState.empty(cfg.state_dim)
    for k in range(1, cfg.horizon + 1):
        truth = step_truth(truth, cfg, rng, k)
    return truth.states @ cfg.observation.T


def _check_behavior(report: _Report, base_seed: int):
    cfg = ScenarioConfig()
    closer = 0
    n_seeds = 20
    for i in range(n_seeds):
        seed = base_seed + 17 * i
        record = run_simulation(cfg, seed, policy="cs")
        centroid = _final_truth_positions(cfg, seed).mean(axis=0)
        before = float(np.linalg.norm(cfg.sensor_start - centroid))
        after = float(np.linalg.norm(record.steps[-1].sensor - centroid))
        closer += after < before
    report.add(
        "sensor_moves_toward_targets",
        1.0 - closer / n_seeds,
        0.2 + 1e-12,
        f"{closer}/{n_seeds} seeds end closer to the final truth centroid",
    )


def _check_policies(report: _Report, seed: int, n_runs: int = 20):
    cfg = ScenarioConfig()
    steady = {}
    for policy in ("cs", "random", "stay"):
        summary = run_montecarlo(cfg, n_runs, seed, parallelism=1, policy=policy)
        steady[policy] = float(summary.ospa_mean[9:].mean())
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


def _check_determinism(report: _Report, seed: int):
    cfg = ScenarioConfig(horizon=10)
    text_a = run_csv_text(run_simulation(cfg, seed, policy="cs"))
    text_b = run_csv_text(run_simulation(cfg, seed, policy="cs"))
    report.add(
        "run_determinism",
        0.0 if text_a == text_b else 1.0,
        0.5,
        "two identical runs produce identical CSV bytes",
    )
    mc_a = mc_csv_text(run_montecarlo(cfg, 4, seed, parallelism=1, policy="random"))
    mc_b = mc_csv_text(run_montecarlo(cfg, 4, seed, parallelism=2, policy="random"))
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


def validate_oracles(level: str = "fast", seed: int = 20260814, mc_samples: int = 100_000) -> dict:
    """Run the oracle battery; returns the report dict (see module docstring)."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    started = time.monotonic()
    report = _Report(level)
    rng = RngStream(seed, stream_id=999)
    _check_quadrature(report, rng.child(0))
    _check_bhatt(report, rng.child(1))
    _check_monte_carlo(report, rng.child(2), mc_samples)
    _check_process_mixtures(report, rng.child(3), mc_samples)
    _check_unit_scale(report, rng.child(4))
    _check_kalman_reduction(report, rng.child(5))
    _check_assignment(report, rng.child(6))
    _check_ospa(report, rng.child(7))
    _check_scenario_statistics(report, rng.child(8))
    _check_reward_orientation(report)
    if level == "full":
        _check_count_gof(report, rng.child(9))
        _check_determinism(report, seed)
        _check_behavior(report, seed)
        _check_policies(report, seed)
    return report.finish(time.monotonic() - started)
