"""Run loop determinism, Monte Carlo batching, and CSV emission."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppdiv
from ppdiv import (
    ScenarioConfig,
    config_from_dict,
    run_montecarlo,
    run_simulation,
    write_mc_csv,
    write_run_csv,
)
from ppdiv.harness import (
    POLICIES,
    _worker_count,
    config_digest,
    mc_csv_text,
    run_csv_text,
)

HEADER_RUN = "step,sensor_x,sensor_y,action,reward,n_true,n_est,n_meas,ospa"
HEADER_MC = "step,ospa_mean,ospa_std,n_runs"


def short_config(horizon=5, **overrides):
    return ScenarioConfig(horizon=horizon, **overrides)


def test_run_is_deterministic_and_byte_stable():
    cfg = short_config()
    a = run_simulation(cfg, seed=123, policy="cs")
    b = run_simulation(cfg, seed=123, policy="cs")
    assert run_csv_text(a) == run_csv_text(b)
    c = run_simulation(cfg, seed=124, policy="cs")
    assert run_csv_text(a) != run_csv_text(c)


def test_run_record_structure():
    cfg = short_config(horizon=4)
    record = run_simulation(cfg, seed=7, policy="cs")
    assert record.policy == "cs"
    assert record.seed == 7
    assert record.config_digest == config_digest(cfg)
    assert [s.step for s in record.steps] == [1, 2, 3, 4]
    for s in record.steps:
        assert 0 <= s.action_index < 17
        assert 0.0 <= s.sensor[0] <= 1000.0 and 0.0 <= s.sensor[1] <= 1000.0
        assert s.n_true >= 1 and s.n_meas >= 0 and s.n_est >= 0
        assert 0.0 <= s.ospa <= 100.0


def test_single_step_run_and_csv_shape():
    cfg = short_config(horizon=1)
    record = run_simulation(cfg, seed=3, policy="stay")
    text = run_csv_text(record)
    lines = text.strip().split("\n")
    assert lines[0] == HEADER_RUN
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1"
    # repr-formatted floats round-trip exactly.
    assert float(fields[4]) == record.steps[0].reward
    assert float(fields[8]) == record.steps[0].ospa


def test_stay_policy_never_moves():
    cfg = short_config()
    record = run_simulation(cfg, seed=11, policy="stay")
    for s in record.steps:
        assert np.allclose(s.sensor, cfg.sensor_start)
        assert s.action_index == 0


def test_random_policy_deterministic_and_in_area():
    cfg = short_config(horizon=8)
    a = run_simulation(cfg, seed=5, policy="random")
    b = run_simulation(cfg, seed=5, policy="random")
    assert run_csv_text(a) == run_csv_text(b)
    assert any(s.action_index != 0 for s in a.steps)
    for s in a.steps:
        assert 0.0 <= s.sensor[0] <= 1000.0 and 0.0 <= s.sensor[1] <= 1000.0


def test_run_index_changes_draws():
    cfg = short_config()
    a = run_simulation(cfg, seed=9, policy="stay", run_index=0)
    b = run_simulation(cfg, seed=9, policy="stay", run_index=1)
    assert [s.ospa for s in a.steps] != [s.ospa for s in b.steps]


def test_unknown_policy_rejected():
    cfg = short_config(horizon=1)
    with pytest.raises(ValueError):
        run_simulation(cfg, seed=0, policy="greedy")
    with pytest.raises(ValueError):
        run_montecarlo(cfg, n_runs=0)
    with pytest.raises(ValueError):
        run_montecarlo(cfg, n_runs=1, parallelism=0)
    assert POLICIES == ("cs", "random", "stay")


def test_montecarlo_single_run_matches_simulation():
    cfg = short_config(horizon=3)
    summary = run_montecarlo(cfg, n_runs=1, master_seed=42, policy="stay")
    record = run_simulation(cfg, seed=42, policy="stay", run_index=0)
    assert np.array_equal(summary.ospa_mean, [s.ospa for s in record.steps])
    assert np.array_equal(summary.ospa_std, np.zeros(3))
    assert summary.n_runs == 1
    assert np.array_equal(summary.steps, [1, 2, 3])


def test_montecarlo_statistics_match_individual_runs():
    cfg = short_config(horizon=4)
    summary = run_montecarlo(cfg, n_runs=3, master_seed=8, policy="stay")
    matrix = np.array(
        [
            [s.ospa for s in run_simulation(cfg, 8, "stay", i).steps]
            for i in range(3)
        ]
    )
    assert np.array_equal(summary.ospa_mean, matrix.mean(axis=0))
    assert np.array_equal(summary.ospa_std, matrix.std(axis=0, ddof=1))


def test_montecarlo_reports_each_runs_final_sensor():
    cfg = short_config(horizon=4)
    for policy in ("cs", "random"):
        summary = run_montecarlo(cfg, n_runs=3, master_seed=8, policy=policy)
        assert summary.final_sensors.shape == (3, 2)
        for i, final in enumerate(summary.final_sensors):
            sensor = run_simulation(cfg, 8, policy, i).steps[-1].sensor
            assert final.tobytes() == sensor.tobytes()


def test_montecarlo_parallelism_does_not_change_bytes():
    cfg = short_config(horizon=4)
    # stay keeps every sensor at its start; random moves them.
    for policy in ("stay", "random"):
        serial = run_montecarlo(cfg, n_runs=3, master_seed=17, policy=policy, parallelism=1)
        pooled = run_montecarlo(cfg, n_runs=3, master_seed=17, policy=policy, parallelism=2)
        assert mc_csv_text(serial) == mc_csv_text(pooled)
        assert serial.final_sensors.tobytes() == pooled.final_sensors.tobytes()


def test_worker_count_is_clamped_to_runs_and_cpus():
    # A pure function: no pool is started here, whatever the requested size.
    assert _worker_count(1000, 3, 64) == 3
    assert _worker_count(1000, 50, 2) == 2
    assert _worker_count(4, 50, 8) == 4
    assert _worker_count(1, 20, 8) == 1
    assert _worker_count(8, 8, None) == 1


def test_config_digest_properties():
    a = ScenarioConfig(horizon=10)
    b = ScenarioConfig(horizon=10)
    c = ScenarioConfig(horizon=11)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64
    int(config_digest(a), 16)


def test_config_digest_is_pinned():
    # The sidecar digests of the default config and of a round-tripped one
    # with a spawn term; config_to_dict must keep producing these bytes.
    assert config_digest(ScenarioConfig()) == (
        "b1ea1756835619d5200d71d58427cbb6099e3736dfab339a90b384a8b5664534"
    )
    doc = {
        "horizon": 12,
        "seed": 99,
        "clutter_rate": 1e-5,
        "spawn_terms": [
            {"weight": 0.1, "transition": np.eye(4).tolist(), "offset": [1, 2, 0, 0],
             "noise": np.eye(4).tolist()}
        ],
    }
    assert config_digest(config_from_dict(doc)) == (
        "8177a62048a6bb66a4c01f8215ec3dcbbf9eaef94c932ce8b0acd27dcaf16807"
    )


def test_write_run_csv_and_sidecar(tmp_path):
    cfg = short_config(horizon=2)
    record = run_simulation(cfg, seed=1, policy="stay")
    path = tmp_path / "run.csv"
    write_run_csv(record, path)
    assert path.read_text() == run_csv_text(record)
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["kind"] == "run"
    assert meta["config_sha256"] == config_digest(cfg)
    assert meta["seed"] == 1 and meta["run_index"] == 0
    assert meta["policy"] == "stay"
    assert isinstance(meta["version"], str)


def test_write_mc_csv_and_sidecar(tmp_path):
    cfg = short_config(horizon=2)
    summary = run_montecarlo(cfg, n_runs=2, master_seed=4, policy="stay")
    path = tmp_path / "mc.csv"
    write_mc_csv(summary, path)
    text = path.read_text()
    assert text == mc_csv_text(summary)
    lines = text.strip().split("\n")
    assert lines[0] == HEADER_MC
    assert len(lines) == 3
    assert all(line.endswith(",2") for line in lines[1:])
    meta = json.loads((tmp_path / "mc.csv.meta.json").read_text())
    assert meta["kind"] == "montecarlo"
    assert meta["master_seed"] == 4 and meta["n_runs"] == 2
    assert meta["config_sha256"] == config_digest(cfg)


# sha256 of the run CSV without its reward column, per (seed, policy), and of
# the 3-run batch CSV per policy, all at horizon 12.  Rewards may move in the
# last bits under a float-moving scorer change; the actions they choose, the
# truth, the measurements and the OSPA scores may not.
PINNED_RUNS = {
    (0, "cs"): "73d7753cd626dd2a0299e5929989cdee1381ebc568c24fcccf3cf6d8cfb3db99",
    (0, "random"): "38dac73f954db6399843ffabc62f7d12801a3bf3c6e54c96d0c6df8e2cd71aff",
    (0, "stay"): "7eca9a1db7f724f66e8a24785778abd4f55026b9efd2dcbd880a0626f01dba55",
    (1, "cs"): "3d278b719ae25a7b0816f76566241f5e7b58b606e43fcf4dfad64247cde8f1ba",
    (1, "random"): "8cd7dd1e47cb19683dd710ee55e232d74b1c057ad1e0d33a0e51250c86c69dcd",
    (1, "stay"): "7a52376ec68a6e968e9be353caa0355391c936a7810cc9b9b8ee4ec8440fc7f4",
}
PINNED_BATCHES = {
    "cs": "63d577aedee1c3522f8a361853be50e39f85c80ca6108e16d5741c8c39759991",
    "random": "42eb804e47e0e1c0766b6deb55c561793d0193a5bd628677868d890a76f0d7fd",
    "stay": "0060d9f90885411e98de3411ca7378bcb412acfdf6b013a296d97713932eb85b",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_reward(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    col = rows[0].index("reward")
    return "".join(",".join(row[:col] + row[col + 1 :]) + "\n" for row in rows)


def test_fixed_seed_outputs_are_pinned():
    # The config digest is pinned by test_config_digest_is_pinned.  The hashes
    # hold for numpy dispatching to AVX-512 (X86_V4): its exp and log kernels
    # round differently at other SIMD levels, which moves the last bits of the
    # OSPA column (test_decisions_do_not_depend_on_simd_dispatch).
    cfg = short_config(horizon=12)
    runs = {
        (seed, policy): sha256(without_reward(run_csv_text(run_simulation(cfg, seed, policy))))
        for seed, policy in PINNED_RUNS
    }
    assert runs == PINNED_RUNS
    batches = {p: sha256(mc_csv_text(run_montecarlo(cfg, 3, policy=p))) for p in POLICIES}
    assert batches == PINNED_BATCHES


SIMD_RUNS = [(seed, policy) for seed in (0, 1) for policy in POLICIES]
SIMD_SCRIPT = f"""
import json
from ppdiv import ScenarioConfig, run_simulation
from ppdiv.harness import run_csv_text
cfg = ScenarioConfig(horizon=12)
print(json.dumps([run_csv_text(run_simulation(cfg, s, p)) for s, p in {SIMD_RUNS!r}]))
"""


def csv_columns(text: str) -> dict[str, list[str]]:
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def test_decisions_do_not_depend_on_simd_dispatch():
    # numpy picks its exp and log kernels by the CPU's SIMD level, and they
    # round differently.  Without AVX-512 every action, count and sensor
    # position must stay byte for byte; OSPA and rewards may move by rounding.
    src = str(Path(ppdiv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4", PYTHONPATH=path)
    command = [sys.executable, "-W", "always::ImportWarning", "-c", SIMD_SCRIPT]
    result = subprocess.run(command, capture_output=True, text=True, timeout=600, env=env)
    if "You cannot disable CPU feature" in result.stderr:
        pytest.skip("numpy does not dispatch to X86_V4 on this machine")
    assert result.returncode == 0, result.stderr
    cfg = short_config(horizon=12)
    for (seed, policy), text in zip(SIMD_RUNS, json.loads(result.stdout), strict=True):
        there = csv_columns(text)
        here = csv_columns(run_csv_text(run_simulation(cfg, seed, policy)))
        assert there.keys() == here.keys()
        for name in here.keys() - {"reward", "ospa"}:
            assert there[name] == here[name], (seed, policy, name)
        np.testing.assert_allclose(
            np.array(there["ospa"], dtype=float), np.array(here["ospa"], dtype=float), rtol=1e-9, atol=0.0
        )
