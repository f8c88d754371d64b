"""Seeded simulation runs, Monte Carlo batches, and result emission.

One run executes, per step: advance truth, PHD-predict, pick a sensor
position (policy), move, generate measurements, PHD-update, prune/merge,
extract estimates, score OSPA on positions.  Every random draw comes from a
purpose-specific stream derived from (seed, run_index), so runs are
reproducible bit-for-bit and independent of how a batch is scheduled.

Outputs are deliberately plain: a per-run CSV, a batch CSV, and a JSON
metadata sidecar carrying the config digest and seeds.  Floats are written
with repr, so identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from . import __version__
# _evaluate_candidate keeps its private name: perfbench/tracing.py patches it here.
from .control import _evaluate_candidate, best_index, ideal_measurements, select_action
from .gaussmix import AT_LEAST_0, AT_LEAST_1, GaussianMixture, checked_number, prune_merge
from .gaussmix import mixture_inner  # noqa: F401 (unused here; the benchmark's tracer patches it)
from .gmphd import extract_states, phd_predict, phd_update
from .metrics import ospa
from .pointprocess import RngStream
from .scenario import (
    ScenarioConfig,
    TruthState,
    action_positions,
    config_from_dict,
    config_to_dict,
    detection_profile,
    generate_measurements,
    in_area,
    step_truth,
)

POLICIES = ("cs", "random", "stay")

# Purpose codes for per-run random streams; adding a purpose never perturbs
# draws on existing streams.
_STREAM_TRUTH = 0
_STREAM_MEAS = 1
_STREAM_CLUTTER = 2
_STREAM_POLICY = 3


@dataclass(frozen=True)
class StepRecord:
    step: int
    sensor: np.ndarray
    action_index: int
    reward: float
    n_true: int
    n_est: int
    n_meas: int
    ospa: float


@dataclass(frozen=True)
class RunRecord:
    policy: str
    seed: int
    run_index: int
    config_digest: str
    steps: tuple


@dataclass(frozen=True)
class McSummary:
    policy: str
    master_seed: int
    config_digest: str
    n_runs: int
    steps: np.ndarray
    ospa_mean: np.ndarray
    ospa_std: np.ndarray
    final_sensors: np.ndarray
    elapsed_seconds: float


def config_digest(cfg: ScenarioConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _choose_position(policy, predicted, sensor, cfg, policy_rng):
    """Returns (position, action_index, reward_of_choice)."""
    if policy == "cs":
        position, evaluations = select_action(predicted, sensor, cfg)
        best = best_index(evaluations)
        return position, best, evaluations[best].reward
    candidates = action_positions(sensor, cfg)
    if policy == "stay":
        index = 0
    else:
        admissible = [i for i in range(len(candidates)) if in_area(candidates[i], cfg)]
        index = admissible[int(policy_rng.generator.integers(len(admissible)))]
    z_star = ideal_measurements(predicted, cfg.observation, cfg.extraction_threshold)
    value = _evaluate_candidate(candidates[index], predicted, z_star, cfg)
    return candidates[index], index, value


def run_simulation(
    cfg: ScenarioConfig,
    seed: int | None = None,
    policy: str = "cs",
    run_index: int = 0,
) -> RunRecord:
    """One full scenario run; deterministic in (cfg, seed, policy, run_index)."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    # The stream judges the seed and the run index.
    base = RngStream(cfg.seed if seed is None else seed, stream_id=run_index)
    seed, run_index = base.seed, base.stream_id
    truth_rng = base.child(_STREAM_TRUTH)
    meas_rng = base.child(_STREAM_MEAS)
    clutter_rng = base.child(_STREAM_CLUTTER)
    policy_rng = base.child(_STREAM_POLICY)

    h = cfg.observation

    truth = TruthState.empty(cfg.state_dim)
    posterior = GaussianMixture.empty(cfg.state_dim)
    sensor = cfg.sensor_start
    records = []
    for k in range(1, cfg.horizon + 1):
        truth = step_truth(truth, cfg, truth_rng, k)
        predicted = phd_predict(posterior, cfg.motion, cfg.births)
        sensor, action_index, chosen_reward = _choose_position(
            policy, predicted, sensor, cfg, policy_rng
        )
        measurements = generate_measurements(truth, sensor, cfg, meas_rng, clutter_rng)
        posterior = phd_update(
            predicted, measurements, detection_profile(cfg, sensor), cfg.sensor_model
        )
        posterior = prune_merge(
            posterior,
            cfg.truncation_threshold,
            cfg.merge_threshold,
            cfg.max_components,
        )
        estimates = extract_states(posterior, cfg.extraction_threshold)
        distance = ospa(truth.states @ h.T, estimates.points @ h.T, cfg.ospa_params)
        records.append(
            StepRecord(
                step=k,
                sensor=sensor,
                action_index=action_index,
                reward=chosen_reward,
                n_true=len(truth),
                n_est=len(estimates),
                n_meas=len(measurements),
                ospa=distance,
            )
        )
    return RunRecord(
        policy=policy,
        seed=seed,
        run_index=run_index,
        config_digest=config_digest(cfg),
        steps=tuple(records),
    )


def _mc_worker(args) -> tuple[list[float], np.ndarray]:
    """One run's OSPA row and the position its sensor ended at."""
    cfg_doc, seed, policy, index = args
    record = run_simulation(config_from_dict(cfg_doc), seed, policy, index)
    return [s.ospa for s in record.steps], record.steps[-1].sensor


def _worker_count(parallelism: int, n_runs: int, cpus: int | None) -> int:
    """Worker processes worth starting: no more than the runs or the CPUs."""
    return min(parallelism, n_runs, cpus or 1)


def run_montecarlo(
    cfg: ScenarioConfig,
    n_runs: int,
    master_seed: int | None = None,
    parallelism: int = 1,
    policy: str = "cs",
) -> McSummary:
    """n_runs independent runs (run_index 0..n-1): per-step OSPA stats and
    each run's final sensor position, (n_runs, 2) in run order.

    The result depends only on (cfg, master_seed, policy, n_runs); the
    parallelism level changes wall-clock time, never values.  At most
    min(parallelism, n_runs, CPU count) workers start; one means no pool.
    """
    n_runs = checked_number(n_runs, "n_runs", int, *AT_LEAST_1)
    parallelism = checked_number(parallelism, "parallelism", int, *AT_LEAST_1)
    seed = cfg.seed
    if master_seed is not None:
        seed = checked_number(master_seed, "master_seed", int, *AT_LEAST_0)
    started = time.monotonic()
    jobs = [(config_to_dict(cfg), seed, policy, i) for i in range(n_runs)]
    workers = _worker_count(parallelism, n_runs, os.cpu_count())
    if workers == 1:
        results = [_mc_worker(job) for job in jobs]
    else:
        with get_context("spawn").Pool(workers) as pool:
            results = pool.map(_mc_worker, jobs)
    rows, sensors = zip(*results)
    matrix = np.array(rows)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0, ddof=1) if n_runs > 1 else np.zeros(matrix.shape[1])
    return McSummary(
        policy=policy,
        master_seed=seed,
        config_digest=config_digest(cfg),
        n_runs=n_runs,
        steps=np.arange(1, cfg.horizon + 1),
        ospa_mean=mean,
        ospa_std=std,
        final_sensors=np.array(sensors),
        elapsed_seconds=time.monotonic() - started,
    )


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return repr(float(x))


def run_csv_text(record: RunRecord) -> str:
    lines = ["step,sensor_x,sensor_y,action,reward,n_true,n_est,n_meas,ospa"]
    for s in record.steps:
        lines.append(
            f"{s.step},{_fmt(s.sensor[0])},{_fmt(s.sensor[1])},{s.action_index},"
            f"{_fmt(s.reward)},{s.n_true},{s.n_est},{s.n_meas},{_fmt(s.ospa)}"
        )
    return "\n".join(lines) + "\n"


def mc_csv_text(summary: McSummary) -> str:
    lines = ["step,ospa_mean,ospa_std,n_runs"]
    for k, mean, std in zip(summary.steps, summary.ospa_mean, summary.ospa_std):
        lines.append(f"{k},{_fmt(mean)},{_fmt(std)},{summary.n_runs}")
    return "\n".join(lines) + "\n"


def write_run_csv(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(run_csv_text(record))
    _write_sidecar(
        path,
        {
            "kind": "run",
            "version": __version__,
            "config_sha256": record.config_digest,
            "seed": record.seed,
            "run_index": record.run_index,
            "policy": record.policy,
        },
    )


def write_mc_csv(summary: McSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(mc_csv_text(summary))
    _write_sidecar(
        path,
        {
            "kind": "montecarlo",
            "version": __version__,
            "config_sha256": summary.config_digest,
            "master_seed": summary.master_seed,
            "n_runs": summary.n_runs,
            "policy": summary.policy,
        },
    )


def _write_sidecar(csv_path, payload: dict) -> None:
    with open(f"{csv_path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
