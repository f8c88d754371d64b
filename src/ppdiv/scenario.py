"""Ground-truth simulation: scripted targets, a movable sensor, noisy
position measurements, clutter, and the sensor's action grid.

The world is a planar surveillance area.  Targets follow a constant-velocity
model with process noise, appear and disappear at scripted steps, and are
seen by a sensor whose detection probability falls off with the Mahalanobis
distance between the sensor position and the target's position:

    p_D(x; s) = N(s; Hx, S) / N(0; 0, S) = exp(-(s - Hx)' S^-1 (s - Hx) / 2).

The same profile object drives both measurement generation here and the
PHD filter update, so there is exactly one implementation of p_D.

Everything is configured through ScenarioConfig, which round-trips to a JSON
document (see config_from_dict for the schema); defaults reproduce the
standard desk scenario on a 1000 m x 1000 m area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .gaussmix import GaussianMixture, log_gauss, mixture_from_dict, mixture_to_dict
from .gmphd import (
    BirthSpawnModel,
    DetectionProfile,
    DetectionTerm,
    MeasModel,
    MotionModel,
    SpawnTerm,
)
from .metrics import OspaParams
from .pointprocess import PointPattern, RngStream, sample_poisson_counts


class ConfigError(ValueError):
    """Configuration rejected; message starts with the offending field path."""


def _cv_transition(t: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, t, 0.0],
            [0.0, 1.0, 0.0, t],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _cv_process_noise(t: float) -> np.ndarray:
    a = t**3
    b = t**2 / 54.0
    c = t / 81.0
    return 27.0 * np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, c, 0.0],
            [0.0, b, 0.0, c],
        ]
    )


def _default_birth() -> GaussianMixture:
    return GaussianMixture.single(
        0.05,
        [500.0, 500.0, 0.0, 0.0],
        np.diag([300.0**2, 300.0**2, 10.0**2, 10.0**2]),
    )


@dataclass(frozen=True)
class TruthTarget:
    """Scripted target: alive while birth_step <= k < death_step.

    death_step is the first step the target is absent; None means it never
    dies.  ``state`` is the exact state at birth.
    """

    birth_step: int
    death_step: int | None
    state: np.ndarray

    def __post_init__(self):
        birth = int(self.birth_step)
        if birth < 0:
            raise ValueError(f"birth_step must be >= 0, got {birth}")
        object.__setattr__(self, "birth_step", birth)
        death = self.death_step
        if death is not None:
            death = int(death)
            if death <= birth:
                raise ValueError(f"death_step {death} must exceed birth_step {birth}")
        object.__setattr__(self, "death_step", death)
        state = np.array(self.state, dtype=float).reshape(-1)
        if not np.all(np.isfinite(state)):
            raise ValueError("state has non-finite entries")
        state.setflags(write=False)
        object.__setattr__(self, "state", state)

    def alive_at(self, k: int) -> bool:
        return self.birth_step <= k and (self.death_step is None or k < self.death_step)


def _default_truth_script() -> tuple:
    return (
        TruthTarget(1, None, [200.0, 800.0, 5.0, -8.0]),
        TruthTarget(1, 20, [800.0, 200.0, -8.0, 6.0]),
        TruthTarget(27, None, [500.0, 500.0, 6.0, 0.0]),
    )


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one tracking-and-control experiment.

    Matrix fields left as None are derived from ``step_period`` (transition,
    process_noise) or set to the standard sensor model (observation,
    meas_noise, detection_shape).
    """

    area: np.ndarray = ((0.0, 1000.0), (0.0, 1000.0))
    step_period: float = 1.0
    transition: np.ndarray | None = None
    process_noise: np.ndarray | None = None
    observation: np.ndarray | None = None
    meas_noise: np.ndarray | None = None
    detection_shape: np.ndarray | None = None
    clutter_rate: float = 2e-5
    survival_prob: float = 0.99
    birth: GaussianMixture = field(default_factory=_default_birth)
    spawn_terms: tuple = ()
    truth_script: tuple = field(default_factory=_default_truth_script)
    sensor_start: np.ndarray = (250.0, 250.0)
    horizon: int = 40
    radial_step: float = 50.0
    n_radial: int = 2
    n_angular: int = 8
    truncation_threshold: float = 1e-5
    merge_threshold: float = 4.0
    max_components: int = 100
    extraction_threshold: float = 0.5
    ospa_order: float = 2.0
    ospa_cutoff: float = 100.0
    seed: int = 0

    def __post_init__(self):
        def fail(name, msg):
            raise ConfigError(f"{name}: {msg}")

        def setattr_(name, value):
            object.__setattr__(self, name, value)

        def check(name, model, *args):
            # The filter model that consumes the matrix judges it.
            try:
                model(*args)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None

        def as_matrix(name, value, shape):
            arr = np.array(value, dtype=float)
            if arr.shape != shape:
                fail(name, f"expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                fail(name, "has non-finite entries")
            arr.setflags(write=False)
            return arr

        t = float(self.step_period)
        if not (t > 0.0 and math.isfinite(t)):
            fail("step_period", f"must be finite and > 0, got {t!r}")
        setattr_("step_period", t)

        f = _cv_transition(t) if self.transition is None else np.array(self.transition, float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            fail("transition", f"must be square, got shape {f.shape}")
        d = f.shape[0]
        setattr_("transition", as_matrix("transition", f, (d, d)))
        q = _cv_process_noise(t) if self.process_noise is None else self.process_noise
        setattr_("process_noise", as_matrix("process_noise", q, (d, d)))
        check("process_noise", MotionModel, self.transition, self.process_noise)

        h = np.eye(2, d) if self.observation is None else np.array(self.observation, float)
        if h.ndim != 2 or h.shape[1] != d:
            fail("observation", f"must have {d} columns, got shape {h.shape}")
        m = h.shape[0]
        setattr_("observation", as_matrix("observation", h, (m, d)))
        r = 9.0 * np.eye(m) if self.meas_noise is None else self.meas_noise
        setattr_("meas_noise", as_matrix("meas_noise", r, (m, m)))
        check("meas_noise", MeasModel, h, self.meas_noise)
        s = (
            1e6 * np.array([[3.0, -2.4], [-2.4, 3.6]])
            if self.detection_shape is None
            else self.detection_shape
        )
        setattr_("detection_shape", as_matrix("detection_shape", s, (m, m)))
        check("detection_shape", DetectionTerm, 1.0, np.zeros(m), self.detection_shape, h)

        area = np.array(self.area, dtype=float)
        if area.shape != (m, 2):
            fail("area", f"expected shape ({m}, 2) [low, high] rows, got {area.shape}")
        if not np.all(np.isfinite(area)) or np.any(area[:, 0] >= area[:, 1]):
            fail("area", "rows must be finite with low < high")
        area.setflags(write=False)
        setattr_("area", area)

        rate = float(self.clutter_rate)
        if not (rate >= 0.0 and math.isfinite(rate)):
            fail("clutter_rate", f"must be finite and >= 0, got {rate!r}")
        setattr_("clutter_rate", rate)
        ps = float(self.survival_prob)
        if not (0.0 <= ps <= 1.0):
            fail("survival_prob", f"must be in [0, 1], got {ps!r}")
        setattr_("survival_prob", ps)

        if not isinstance(self.birth, GaussianMixture):
            fail("birth", "must be a GaussianMixture")
        if self.birth.dim != d:
            fail("birth", f"dimension {self.birth.dim} does not match state dimension {d}")
        spawn = tuple(self.spawn_terms)
        for i, term in enumerate(spawn):
            if not isinstance(term, SpawnTerm):
                fail(f"spawn_terms[{i}]", "must be a SpawnTerm")
            if term.transition.shape[0] != d:
                fail(f"spawn_terms[{i}]", "dimension does not match state dimension")
        setattr_("spawn_terms", spawn)

        script = tuple(self.truth_script)
        for i, target in enumerate(script):
            if not isinstance(target, TruthTarget):
                fail(f"truth_script[{i}]", "must be a TruthTarget")
            if target.state.size != d:
                fail(f"truth_script[{i}].state", f"expected {d} entries, got {target.state.size}")
        setattr_("truth_script", script)

        start = np.array(self.sensor_start, dtype=float).reshape(-1)
        if start.size != m or not np.all(np.isfinite(start)):
            fail("sensor_start", f"expected finite {m}-vector")
        if not in_area(start, self):
            fail("sensor_start", f"{start.tolist()} is outside area {area.tolist()}")
        start.setflags(write=False)
        setattr_("sensor_start", start)

        horizon = int(self.horizon)
        if horizon < 1:
            fail("horizon", f"must be >= 1, got {horizon}")
        setattr_("horizon", horizon)
        rstep = float(self.radial_step)
        if not (rstep > 0.0 and math.isfinite(rstep)):
            fail("radial_step", f"must be finite and > 0, got {rstep!r}")
        setattr_("radial_step", rstep)
        nr = int(self.n_radial)
        if nr < 0:
            fail("n_radial", f"must be >= 0, got {nr}")
        setattr_("n_radial", nr)
        na = int(self.n_angular)
        if na < 1:
            fail("n_angular", f"must be >= 1, got {na}")
        setattr_("n_angular", na)

        trunc = float(self.truncation_threshold)
        if not (trunc >= 0.0 and math.isfinite(trunc)):
            fail("truncation_threshold", f"must be finite and >= 0, got {trunc!r}")
        setattr_("truncation_threshold", trunc)
        merge = float(self.merge_threshold)
        if not (merge >= 0.0 and math.isfinite(merge)):
            fail("merge_threshold", f"must be finite and >= 0, got {merge!r}")
        setattr_("merge_threshold", merge)
        cap = int(self.max_components)
        if cap < 1:
            fail("max_components", f"must be >= 1, got {cap}")
        setattr_("max_components", cap)
        extract = float(self.extraction_threshold)
        if not (0.0 < extract <= 1.0):
            fail("extraction_threshold", f"must be in (0, 1], got {extract!r}")
        setattr_("extraction_threshold", extract)
        try:
            OspaParams(float(self.ospa_order), float(self.ospa_cutoff))
        except ValueError as exc:
            fail("ospa_order/ospa_cutoff", str(exc))
        setattr_("ospa_order", float(self.ospa_order))
        setattr_("ospa_cutoff", float(self.ospa_cutoff))
        seed = int(self.seed)
        if seed < 0:
            fail("seed", f"must be >= 0, got {seed}")
        setattr_("seed", seed)

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.observation.shape[0]


# ---------------------------------------------------------------------------
# model builders (the bridge from configuration to filter objects)


def motion_model(cfg: ScenarioConfig) -> MotionModel:
    return MotionModel(cfg.transition, cfg.process_noise, cfg.survival_prob)


def birth_model(cfg: ScenarioConfig) -> BirthSpawnModel:
    return BirthSpawnModel(cfg.birth, cfg.spawn_terms)


def meas_model(cfg: ScenarioConfig) -> MeasModel:
    return MeasModel(cfg.observation, cfg.meas_noise, cfg.clutter_rate, cfg.area)


def ospa_params(cfg: ScenarioConfig) -> OspaParams:
    return OspaParams(cfg.ospa_order, cfg.ospa_cutoff)


def detection_profile(cfg: ScenarioConfig, sensor_pos) -> DetectionProfile:
    """Detection probability peaking at 1 where Hx equals the sensor position.

    One Gaussian term with weight 1/N(0; 0, S), center at the sensor, shape
    S, projected through the observation matrix.
    """
    sensor_pos = np.asarray(sensor_pos, dtype=float).reshape(-1)
    peak = float(np.exp(-log_gauss(np.zeros(cfg.meas_dim), cfg.detection_shape)))
    term = DetectionTerm(peak, sensor_pos, cfg.detection_shape, cfg.observation)
    return DetectionProfile(0.0, (term,))


def detection_probability(x, sensor_pos, cfg: ScenarioConfig) -> float:
    """p_D of a single state; same implementation the filter update uses."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(detection_profile(cfg, sensor_pos).evaluate(x[None, :])[0])


# ---------------------------------------------------------------------------
# truth propagation and measurement generation


@dataclass(frozen=True)
class TruthState:
    """Live targets: parallel (ids, states) in ascending script order."""

    ids: tuple
    states: np.ndarray

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != len(ids):
            raise ValueError(f"states must be ({len(ids)}, d), got {states.shape}")
        states.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "states", states)

    @classmethod
    def empty(cls, dim: int) -> "TruthState":
        return cls((), np.zeros((0, dim)))

    def __len__(self) -> int:
        return len(self.ids)


def _psd_factor(q: np.ndarray) -> np.ndarray:
    """Factor A with A A' = Q for symmetric PSD Q (Q may be singular)."""
    vals, vecs = np.linalg.eigh(q)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def step_truth(truth: TruthState, cfg: ScenarioConfig, rng: RngStream, k: int) -> TruthState:
    """Advance the truth to step k: deaths removed, survivors propagated
    through N(Fx, Q), scripted births added with their exact initial states.

    Noise draw order: one (d,)-normal block per surviving target in id order
    (drawn even when Q = 0, so the stream layout does not depend on Q).
    """
    script = cfg.truth_script
    d = cfg.state_dim
    carried = [(i, x) for i, x in zip(truth.ids, truth.states) if script[i].alive_at(k)]
    noise = rng.generator.standard_normal((len(carried), d))
    factor = _psd_factor(cfg.process_noise)
    ids = []
    states = []
    for (i, x), z in zip(carried, noise):
        ids.append(i)
        states.append(cfg.transition @ x + factor @ z)
    for i, target in enumerate(script):
        if target.birth_step == k and i not in truth.ids:
            ids.append(i)
            states.append(target.state)
    if not ids:
        return TruthState.empty(d)
    order = np.argsort(ids, kind="stable")
    states = np.stack(states)[order]
    return TruthState(tuple(np.asarray(ids)[order]), states)


def generate_measurements(
    truth: TruthState,
    sensor_pos,
    cfg: ScenarioConfig,
    rng: RngStream,
    clutter_rng: RngStream | None = None,
) -> PointPattern:
    """One scan: per-target detection coin at p_D, Gaussian position noise,
    plus uniform Poisson clutter over the area.

    Draw order on ``rng``: one uniform per live target (detection coins),
    then one (m,)-normal block per detected target.  Clutter uses
    ``clutter_rng`` when given (one uniform for the count, then 2 per point),
    so adding or removing targets never shifts the clutter sequence.
    """
    gen = rng.generator
    h = cfg.observation
    n = len(truth)
    detected = np.zeros((0, cfg.meas_dim))
    if n:
        profile = detection_profile(cfg, sensor_pos)
        pd = profile.evaluate(truth.states)
        coins = gen.random(n)
        hits = coins < pd
        n_hit = int(hits.sum())
        noise = gen.standard_normal((n_hit, cfg.meas_dim))
        chol = np.linalg.cholesky(cfg.meas_noise)
        detected = truth.states[hits] @ h.T + noise @ chol.T
    crng = clutter_rng if clutter_rng is not None else rng
    volume = float(np.prod(cfg.area[:, 1] - cfg.area[:, 0]))
    count = int(sample_poisson_counts(crng, cfg.clutter_rate * volume, 1)[0])
    lo, hi = cfg.area[:, 0], cfg.area[:, 1]
    clutter = lo + crng.generator.random((count, cfg.meas_dim)) * (hi - lo)
    return PointPattern(np.concatenate([detected, clutter]), dim=cfg.meas_dim)


def action_positions(s_prev, cfg: ScenarioConfig) -> np.ndarray:
    """Candidate sensor positions: stay put, then n_radial rings of n_angular
    points spaced radial_step apart, ring-major then angle-major."""
    s_prev = np.asarray(s_prev, dtype=float).reshape(-1)
    if s_prev.size != 2:
        raise ValueError(f"sensor position must be a 2-vector, got {s_prev.size}")
    out = [s_prev.copy()]
    dtheta = 2.0 * math.pi / cfg.n_angular
    for j in range(1, cfg.n_radial + 1):
        for ell in range(cfg.n_angular):
            ang = ell * dtheta
            out.append(
                s_prev + j * cfg.radial_step * np.array([math.cos(ang), math.sin(ang)])
            )
    return np.stack(out)


def in_area(pos, cfg: ScenarioConfig) -> bool:
    pos = np.asarray(pos, dtype=float).reshape(-1)
    return bool(np.all((pos >= cfg.area[:, 0]) & (pos <= cfg.area[:, 1])))


# ---------------------------------------------------------------------------
# JSON configuration schema


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "area": cfg.area.tolist(),
        "step_period": cfg.step_period,
        "transition": cfg.transition.tolist(),
        "process_noise": cfg.process_noise.tolist(),
        "observation": cfg.observation.tolist(),
        "meas_noise": cfg.meas_noise.tolist(),
        "detection_shape": cfg.detection_shape.tolist(),
        "clutter_rate": cfg.clutter_rate,
        "survival_prob": cfg.survival_prob,
        "birth": mixture_to_dict(cfg.birth),
        "spawn_terms": [
            {
                "weight": t.weight,
                "transition": t.transition.tolist(),
                "offset": t.offset.tolist(),
                "noise": t.noise.tolist(),
            }
            for t in cfg.spawn_terms
        ],
        "truth_script": [
            {
                "birth_step": t.birth_step,
                "death_step": t.death_step,
                "state": t.state.tolist(),
            }
            for t in cfg.truth_script
        ],
        "sensor_start": cfg.sensor_start.tolist(),
        "horizon": cfg.horizon,
        "radial_step": cfg.radial_step,
        "n_radial": cfg.n_radial,
        "n_angular": cfg.n_angular,
        "truncation_threshold": cfg.truncation_threshold,
        "merge_threshold": cfg.merge_threshold,
        "max_components": cfg.max_components,
        "extraction_threshold": cfg.extraction_threshold,
        "ospa_order": cfg.ospa_order,
        "ospa_cutoff": cfg.ospa_cutoff,
        "seed": cfg.seed,
    }


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a JSON document; unknown keys are rejected.

    Every key is optional and defaults to the desk scenario.  ``birth`` uses
    the mixture document schema; ``truth_script`` entries are objects with
    birth_step, death_step (null = immortal), and state.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration document must be a JSON object")
    known = {f.name for f in fields(ScenarioConfig)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration field")
        kwargs[key] = value
    if "birth" in kwargs:
        try:
            kwargs["birth"] = mixture_from_dict(kwargs["birth"])
        except ValueError as exc:
            raise ConfigError(f"birth: {exc}") from None
    if "spawn_terms" in kwargs:
        terms = []
        for i, item in enumerate(kwargs["spawn_terms"]):
            try:
                terms.append(
                    SpawnTerm(item["weight"], item["transition"], item["offset"], item["noise"])
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"spawn_terms[{i}]: {exc}") from None
        kwargs["spawn_terms"] = tuple(terms)
    if "truth_script" in kwargs:
        script = []
        for i, item in enumerate(kwargs["truth_script"]):
            try:
                script.append(
                    TruthTarget(item["birth_step"], item.get("death_step"), item["state"])
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"truth_script[{i}]: {exc}") from None
        kwargs["truth_script"] = tuple(script)
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(data)
