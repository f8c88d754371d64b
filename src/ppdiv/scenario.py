"""Ground-truth simulation: scripted targets, a movable sensor, noisy
position measurements, clutter, and the sensor's action grid.

The world is a planar surveillance area.  Targets follow a constant-velocity
model with process noise, appear and disappear at scripted steps, and are
seen by a sensor whose detection probability falls off with the Mahalanobis
distance between the sensor position and the target's position:

    p_D(x; s) = N(s; Hx, S) / N(0; 0, S) = exp(-(s - Hx)' S^-1 (s - Hx) / 2).

The same detection term drives measurement generation here, the PHD filter
update and the look-ahead, so there is exactly one implementation of p_D.

Everything is configured through ScenarioConfig, which round-trips to a JSON
document (see config_from_dict for the schema); defaults reproduce the
standard desk scenario on a 1000 m x 1000 m area.  The config checks its
fields once and keeps the filter models it checked them with, so no run or
step builds a model again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .gaussmix import GaussianMixture, checked_array, log_gauss_factored
from .gaussmix import mixture_from_dict, mixture_to_dict
from .gaussmix import AT_LEAST_0, AT_LEAST_1, NONNEGATIVE, POSITIVE, PROBABILITY, checked_number
from .gmphd import (
    BirthSpawnModel,
    DetectionProfile,
    DetectionTerm,
    MeasModel,
    MotionModel,
    SpawnTerm,
)
from .metrics import OspaParams
from .pointprocess import MAX_POISSON_MEAN, PointPattern, RngStream, sample_poisson_counts


class ConfigError(ValueError):
    """Configuration rejected; message starts with the offending field path."""


def _field(name: str, convert, *args):
    """``convert(*args)``; a failure becomes a ConfigError naming the field.

    A nested ConfigError already names its own field and passes through.
    """
    try:
        return convert(*args)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{name}: missing key {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


# (name, type, test, requirement) of every scalar field of ScenarioConfig.
_SCALARS = (
    ("step_period", float, *POSITIVE),
    ("clutter_rate", float, *NONNEGATIVE),
    ("survival_prob", float, *PROBABILITY),
    ("horizon", int, *AT_LEAST_1),
    ("radial_step", float, *POSITIVE),
    ("n_radial", int, *AT_LEAST_0),
    ("n_angular", int, *AT_LEAST_1),
    ("truncation_threshold", float, *NONNEGATIVE),
    ("merge_threshold", float, *NONNEGATIVE),
    ("max_components", int, *AT_LEAST_1),
    ("extraction_threshold", float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("ospa_order", float, lambda v: 1.0 <= v < math.inf, "finite and >= 1"),
    ("ospa_cutoff", float, *POSITIVE),
    ("seed", int, *AT_LEAST_0),
)


def _matrix(value, default, shape) -> np.ndarray:
    """``value``, or ``default`` when it is None, as checked_array judges it."""
    return checked_array(default if value is None else value, shape, "matrix")


def _area(value) -> np.ndarray:
    area = _matrix(value, None, (2, 2))
    if np.any(area[:, 0] >= area[:, 1]):
        raise ValueError("rows must be [low, high] with low < high")
    if not math.isfinite(math.prod(hi - lo for lo, hi in area.tolist())):
        raise ValueError("widths and volume must be finite")  # no numpy overflow warning
    return area


def _sensor_start(value, cfg) -> np.ndarray:
    start = checked_array(value, (cfg.meas_dim,), "position")
    if not in_area(start, cfg):
        raise ValueError(f"{start.tolist()} is outside area {cfg.area.tolist()}")
    return start


def _clutter_mass(rate: float, area: np.ndarray) -> float:
    """Expected clutter points per scan, rate x area volume, which one
    Poisson count per scan must be able to draw."""
    mass = rate * float(np.prod(area[:, 1] - area[:, 0]))
    if mass > MAX_POISSON_MEAN:
        raise ValueError(
            f"rate x area volume is {mass!r} clutter points per scan, "
            f"more than the {MAX_POISSON_MEAN!r} a scan can draw"
        )
    return mass


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
    """Constant-velocity process noise; its largest entry, 27 t**3, must be finite."""
    try:
        a = t**3
    except OverflowError:
        a = math.inf
    if not math.isfinite(27.0 * a):
        raise OverflowError(f"27 * {t!r}**3 in the default process_noise overflows")
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


def _conditionable(t: float, shape: np.ndarray) -> None:
    """Raise where the filter surely cannot condition one step of the
    default process noise on the detection term.  Conditioning a position
    variance of 27 t**3 on p_D's shape S leaves about S, by a cancellation
    that rounds off eps * 27 t**3 in float64; from S's smallest variance on,
    that rounding is as large as what is left, and the conditioned
    covariance is no longer surely positive definite."""
    least = float(np.linalg.eigvalsh(shape)[0])
    if np.finfo(float).eps * 27.0 * t**3 >= least:
        raise ValueError(
            f"the default process noise, 27 * {t!r}**3, is at least 1/eps times "
            f"detection_shape's smallest variance {least!r}, too much for the "
            f"filter to condition on the detection term"
        )


_DETECTION_SHAPE = 1e6 * np.array([[3.0, -2.4], [-2.4, 3.6]])


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
        birth = checked_number(self.birth_step, "birth_step", int, *AT_LEAST_0)
        object.__setattr__(self, "birth_step", birth)
        death = self.death_step
        if death is not None:
            after = (lambda v: v > birth, f"> birth_step {birth}")
            death = checked_number(death, "death_step", int, *after)
        object.__setattr__(self, "death_step", death)
        object.__setattr__(self, "state", checked_array(self.state, (None,), "state"))

    def alive_at(self, k: int) -> bool:
        return self.birth_step <= k and (self.death_step is None or k < self.death_step)


def _default_truth_script() -> tuple:
    return (
        TruthTarget(1, None, [200.0, 800.0, 5.0, -8.0]),
        TruthTarget(1, 20, [800.0, 200.0, -8.0, 6.0]),
        TruthTarget(27, None, [500.0, 500.0, 6.0, 0.0]),
    )


def _detection_term(shape: np.ndarray, observation: np.ndarray) -> DetectionTerm:
    """p_D's one term, weight 1/N(0; 0, S) so that it peaks at exactly 1,
    centred at the origin; detection_profile moves it to the sensor.  The
    term judges ``shape`` before the peak weight is computed from it."""
    term = DetectionTerm(1.0, np.zeros(2), shape, observation)
    return replace(term, weight=float(np.exp(-log_gauss_factored(np.zeros(2), term.factor))))


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one tracking-and-control experiment.

    Matrix fields left as None are derived from ``step_period`` (transition,
    process_noise) or set to the standard sensor model (observation,
    meas_noise, detection_shape).  The sensor is planar: ``observation`` has
    two rows.  Integer fields take whole numbers only.  A bad field raises a
    ConfigError whose message starts with its name.

    Construction also builds, once, what every run reads, as read-only
    attributes that are not fields (so the JSON document and the digest do
    not carry them): ``motion`` and ``births`` for prediction, the filter's
    ``sensor_model`` (clutter over ``area``), ``clutter_mass`` (expected
    clutter points per scan), the look-ahead's ``planning_model`` (clutter
    rate = ``clutter_mass``), ``detection_term`` (p_D's term, centred at the
    origin), ``truth_noise_factor`` (A A' = Q) and ``ospa_params``.
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
        def keep(name, value):
            object.__setattr__(self, name, value)
            return value

        def put(name, convert, *args):
            return keep(name, _field(name, convert, getattr(self, name), *args))

        for name, *row in _SCALARS:
            # The field's name leads the message, so the judge names nothing.
            put(name, checked_number, "", *row)
        t = self.step_period
        f = put("transition", _matrix, _cv_transition(t), (None, None))
        d = f.shape[0]
        if f.shape != (d, d):
            raise ConfigError(f"transition: must be square, got shape {f.shape}")
        q = put("process_noise", _matrix, _field("step_period", _cv_process_noise, t), (d, d))
        # The filter model that consumes a matrix judges it.
        keep("motion", _field("process_noise", MotionModel, f, q, self.survival_prob))
        keep("truth_noise_factor", _psd_factor(q))
        h = put("observation", _matrix, np.eye(2, d), (2, d))
        area = put("area", _area)
        r = put("meas_noise", _matrix, 9.0 * np.eye(2), (2, 2))
        keep("sensor_model", _field("meas_noise", MeasModel, h, r, self.clutter_rate, area))
        # Ideal measurements carry no origin information, so the look-ahead
        # weighs them against the whole scan's clutter mass instead of its
        # density.  At the density, one ideal detection of a sharp track
        # saturates the update and the divergence then falls as detection
        # probability rises, steering the sensor away from its targets; at
        # the scan mass the detections stay unsaturated and the reward grows
        # with the mass the candidate can see.
        mass = keep("clutter_mass", _field("clutter_rate", _clutter_mass, self.clutter_rate, area))
        keep("planning_model", _field("clutter_rate", MeasModel, h, r, mass, None))
        s = put("detection_shape", _matrix, _DETECTION_SHAPE, (2, 2))
        keep("detection_term", _field("detection_shape", _detection_term, s, h))
        _field("step_period", _conditionable, t, s)
        put("sensor_start", _sensor_start, self)

        if not isinstance(self.birth, GaussianMixture) or self.birth.dim != d:
            raise ConfigError(f"birth: must be a GaussianMixture of dimension {d}")
        for name, kind, dim in (
            ("spawn_terms", SpawnTerm, lambda term: term.transition.shape[0]),
            ("truth_script", TruthTarget, lambda target: target.state.size),
        ):
            for i, item in enumerate(put(name, tuple)):
                if not isinstance(item, kind) or dim(item) != d:
                    raise ConfigError(f"{name}[{i}]: must be a {kind.__name__} of dimension {d}")
        keep("births", BirthSpawnModel(self.birth, self.spawn_terms))
        keep("ospa_params", _field("ospa_order", OspaParams, self.ospa_order, self.ospa_cutoff))

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.observation.shape[0]


# ---------------------------------------------------------------------------
# detection probability


def detection_profile(cfg: ScenarioConfig, sensor_pos) -> DetectionProfile:
    """Detection probability peaking at 1 where Hx equals the sensor position.

    One Gaussian term with weight 1/N(0; 0, S), center at the sensor, shape
    S, projected through the observation matrix.  That weight keeps p_D <= 1
    by construction, so the term, checked once with the config, is only
    moved here and the profile is not probed.
    """
    return DetectionProfile.trusted(0.0, (cfg.detection_term.at(sensor_pos),))


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
    ids = []
    states = []
    for (i, x), z in zip(carried, noise):
        ids.append(i)
        states.append(cfg.transition @ x + cfg.truth_noise_factor @ z)
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
        detected = truth.states[hits] @ h.T + noise @ cfg.sensor_model.noise_factor.T
    crng = clutter_rng if clutter_rng is not None else rng
    count = int(sample_poisson_counts(crng, cfg.clutter_mass, 1)[0])
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


def _to_json(value):
    """A config value as JSON: dataclasses field by field, arrays as lists."""
    if isinstance(value, GaussianMixture):
        return mixture_to_dict(value)
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return _to_json(cfg)


# How one JSON item of each list field becomes a filter object.
_ITEMS = {
    "spawn_terms": lambda item: SpawnTerm(
        item["weight"], item["transition"], item["offset"], item["noise"]
    ),
    "truth_script": lambda item: TruthTarget(
        item["birth_step"], item.get("death_step"), item["state"]
    ),
}


def _items(name: str, items) -> tuple:
    if not isinstance(items, list):
        raise TypeError(f"must be a list, got {type(items).__name__}")
    return tuple(_field(f"{name}[{i}]", _ITEMS[name], item) for i, item in enumerate(items))


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a JSON document; unknown keys are rejected.

    Every key is optional and defaults to the desk scenario.  ``birth`` uses
    the mixture document schema; ``truth_script`` entries are objects with
    birth_step, death_step (null = immortal), and state.  Every malformed
    value raises a ConfigError that starts with its field path.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration document must be a JSON object")
    known = {f.name for f in fields(ScenarioConfig)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration field")
        if key == "birth":
            value = _field(key, mixture_from_dict, value)
        elif key in _ITEMS:
            value = _field(key, _items, key, value)
        kwargs[key] = value
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(data)
