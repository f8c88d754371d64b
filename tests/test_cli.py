"""Command-line entry points."""

import json
import re

import numpy as np
import pytest

from ppdiv import GaussianMixture, PoissonModel
from ppdiv.cli import main
from ppdiv.divergence import bhatt_poisson_gaussian, csd_poisson_gm
from ppdiv.gaussmix import load_mixture, mixture_from_dict, mixture_to_dict, save_mixture


@pytest.fixture
def mixture_files(tmp_path):
    a = GaussianMixture([1.2], [[0.0, 0.0]], [np.eye(2)])
    b = GaussianMixture([0.8], [[1.0, -0.5]], [1.5 * np.eye(2)])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_mixture(a, pa)
    save_mixture(b, pb)
    return a, b, pa, pb


def _value(line):
    return float(line.split(":")[1].split("+/-")[0])


def test_mixture_json_roundtrip(tmp_path):
    u = GaussianMixture(
        [0.5, 1.5],
        [[1.0, 2.0], [-1.0, 0.5]],
        [np.eye(2), [[2.0, 0.3], [0.3, 1.0]]],
    )
    path = tmp_path / "mix.json"
    save_mixture(u, path)
    back = load_mixture(path)
    assert np.array_equal(back.weights, u.weights)
    assert np.array_equal(back.means, u.means)
    assert np.array_equal(back.covs, u.covs)
    doc = mixture_to_dict(u)
    assert doc["dim"] == 2 and len(doc["components"]) == 2
    with pytest.raises(ValueError, match="components\\[0\\]"):
        mixture_from_dict({"dim": 2, "components": [{"weight": 1.0}]})
    with pytest.raises(ValueError, match="dim"):
        mixture_from_dict({"components": []})


def test_divergence_closed_and_quadrature(mixture_files, capsys):
    a, b, pa, pb = mixture_files
    assert main(["divergence", "--a", str(pa), "--b", str(pb)]) == 0
    closed_lines = capsys.readouterr().out.strip().split("\n")
    assert main(["divergence", "--a", str(pa), "--b", str(pb), "--method", "quadrature"]) == 0
    quad_lines = capsys.readouterr().out.strip().split("\n")
    expected_cs = csd_poisson_gm(PoissonModel(a), PoissonModel(b))
    expected_db = bhatt_poisson_gaussian(PoissonModel(a), PoissonModel(b))
    assert _value(closed_lines[0]) == pytest.approx(expected_cs, rel=1e-12)
    assert _value(closed_lines[1]) == pytest.approx(expected_db, rel=1e-12)
    assert _value(quad_lines[0]) == pytest.approx(expected_cs, rel=1e-6)
    assert _value(quad_lines[1]) == pytest.approx(expected_db, rel=1e-6)


def test_divergence_monte_carlo(mixture_files, capsys):
    a, b, pa, pb = mixture_files
    code = main(
        ["divergence", "--a", str(pa), "--b", str(pb), "--method", "montecarlo",
         "--samples", "50000", "--seed", "3"]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    est = _value(line)
    se = float(line.split("+/-")[1].split("(")[0])
    expected = csd_poisson_gm(PoissonModel(a), PoissonModel(b))
    assert abs(est - expected) <= 4.0 * se


def test_bad_inputs_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["divergence", "--a", str(missing), "--b", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"horizon": -3}))
    assert main(["simulate", "--config", str(shallow), "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dim", [None, 2.7, True], ids=["null", "non-integral", "boolean"])
def test_malformed_mixture_dim_exits_two(tmp_path, capsys, dim):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"dim": dim, "components": []}))
    assert main(["divergence", "--a", str(doc), "--b", str(doc)]) == 2
    assert f"dim must be a whole number, got {dim!r}" in capsys.readouterr().err


def test_zero_dimensional_mixture_exits_two(tmp_path, capsys):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"dim": 0, "components": []}))
    assert main(["divergence", "--a", str(doc), "--b", str(doc)]) == 2
    assert "error: dim must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "comp, name",
    [
        ({"weight": "1.5", "mean": [0.0, 0.0]}, "components[0].weight"),
        ({"weight": 1.0, "mean": ["0", 0.0]}, "components[0].mean"),
    ],
    ids=["string-weight", "string-mean-entry"],
)
def test_string_in_mixture_document_exits_two_naming_it(tmp_path, capsys, comp, name):
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"dim": 2, "components": [{**comp, "cov": np.eye(2).tolist()}]}))
    assert main(["divergence", "--a", str(doc), "--b", str(doc)]) == 2
    assert f"error: {name} " in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["cs", "stay"])
def test_sensor_start_outside_area_exits_two(tmp_path, capsys, policy):
    cfg = tmp_path / "outside.json"
    cfg.write_text(json.dumps({"sensor_start": [-500, -500]}))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--policy", policy]) == 2
    assert "sensor_start" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("process_noise", (-np.eye(4)).tolist()),
        ("meas_noise", [[9.0, 1.0], [0.0, 9.0]]),
        ("detection_shape", [[1.0, 2.0], [2.0, 1.0]]),
    ],
)
def test_bad_covariance_exits_two_naming_the_field(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"horizon": None},
        {"area": "x"},
        {"spawn_terms": 5},
        {"truth_script": [1]},
        {"horizon": 2.9},
        {"truth_script": [{"birth_step": 1.5, "state": [1.0, 1.0, 0.0, 0.0]}]},
        # A non-planar sensor, with every field that depends on m to match.
        {
            "observation": [[1.0, 0.0, 0.0, 0.0]],
            "meas_noise": [[9.0]],
            "detection_shape": [[3e6]],
            "area": [[0.0, 1000.0]],
            "sensor_start": [250.0],
        },
        {
            "observation": np.eye(3, 4).tolist(),
            "meas_noise": (9.0 * np.eye(3)).tolist(),
            "detection_shape": (3e6 * np.eye(3)).tolist(),
            "area": [[0.0, 1000.0], [0.0, 1000.0], [-50.0, 50.0]],
            "sensor_start": [250.0, 250.0, 0.0],
        },
        # Areas whose volume or widths overflow, with a rate that fits either.
        {"area": [[0.0, 1e200], [0.0, 1e200]], "clutter_rate": 1.0, "sensor_start": [1.0, 1.0]},
        {"area": [[0.0, 1e200], [0.0, 1e200]], "clutter_rate": 0.0, "sensor_start": [1.0, 1.0]},
        {"area": [[-1e308, 1e308], [0.0, 1000.0]]},
        # A clutter mass beyond what one Poisson count per scan can draw.
        {"clutter_rate": 5.0, "horizon": 2},
        # A default process noise, 27 step_period**3, that overflows.
        {"step_period": 1e120},
        # An OSPA charge, cutoff ** order, that overflows or underflows.
        {"ospa_order": 200},
        {"ospa_order": 1100, "ospa_cutoff": 0.5},
        # JSON booleans are not numbers.
        {"horizon": True},
        {"clutter_rate": True},
        {"truth_script": [{"birth_step": True, "state": [1.0, 1.0, 0.0, 0.0]}]},
        {"birth": {"dim": True, "components": []}},
        {"birth": {"dim": 4, "components": [{"weight": True, "mean": [0.0] * 4, "cov": np.eye(4).tolist()}]}},
        # JSON strings are not numbers, in a matrix or a mixture document.
        {"meas_noise": [["9", "0"], ["0", "9"]]},
        {"birth": {"dim": 4, "components": [{"weight": "1.5", "mean": [0.0] * 4, "cov": np.eye(4).tolist()}]}},
        {"birth": {"dim": 4, "components": [{"weight": 1.0, "mean": ["0", 0, 0, 0], "cov": np.eye(4).tolist()}]}},
    ],
    ids=[
        "null-number",
        "string-matrix",
        "non-list",
        "bad-list-item",
        "non-integral",
        "non-integral-item",
        "one-row-observation",
        "three-row-observation",
        "overflowing-volume",
        "overflowing-volume-no-clutter",
        "overflowing-width",
        "clutter-mass-beyond-poisson-table",
        "overflowing-process-noise",
        "overflowing-ospa-charge",
        "underflowing-ospa-charge",
        "boolean-integer",
        "boolean-number",
        "boolean-step",
        "boolean-mixture-dim",
        "boolean-mixture-weight",
        "string-matrix-entry",
        "string-mixture-weight",
        "string-mixture-mean-entry",
    ],
)
def test_malformed_field_exits_two_naming_it(tmp_path, capsys, doc):
    name = next(iter(doc))  # the malformed field; any others only match it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert re.match(rf"error: {name}(\[\d+\])?: ", capsys.readouterr().err)
    assert not out.exists()


def test_step_period_once_refused_at_load_runs(tmp_path, capsys):
    # 27 step_period**3 is finite, so the config loads, and the filter
    # conditions it in Joseph form through the horizon.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step_period": 1e30, "horizon": 2}))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3 and all("nan" not in row and "inf" not in row for row in rows)
    capsys.readouterr()


def test_rejected_flags_exit_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--config", "x.json", "--out", "y.csv", "--policy", "bogus"])
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


def test_validate_fast_battery(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["validate", "--level", "fast", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "oracles passed" in text
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["n_failed"] == 0
    assert report["level"] == "fast"
    assert all(entry["measure"] < entry["tolerance"] for entry in report["entries"])
