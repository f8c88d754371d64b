"""End-to-end acceptance checks, one test per shipped guarantee.

Criteria 1-7 and 9 assert on the entries of the fast oracle report
(``ppdiv.validate``), which computes each of them once, on the criterion's
own inputs; criterion 10 asserts on the shared policy batch.  Criteria 8 and
11 have no counterpart in the battery and are computed here.  Every test
asserts its stated tolerance and then prints a single PASS line with the
measured values, so `pytest -v` gives one verdict per criterion and
`pytest -s` shows the numbers behind each one.
"""

import json
import math

import numpy as np
import pytest

from ppdiv import ScenarioConfig, harness
from ppdiv.cli import main as cli_main
from ppdiv.gaussmix import mixture_mass
from ppdiv.gmphd import phd_predict, phd_update
from ppdiv.harness import config_to_dict, run_simulation
from ppdiv.validate import policy_comparison, validate_oracles


@pytest.fixture(scope="module")
def oracles():
    return {entry["name"]: entry for entry in validate_oracles("fast")["entries"]}


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d} PASS: {detail}")


def _assert_entries(criterion: int, entries, time_gate: float | None = None) -> None:
    """Each entry's measure is below its tolerance and, with a gate, the
    checks that produced the entries took less than ``time_gate`` seconds."""
    for entry in entries:
        assert entry["measure"] < entry["tolerance"], entry
    elapsed = max(entry["elapsed_seconds"] for entry in entries)
    if time_gate is not None:
        assert elapsed < time_gate
    _report(
        criterion,
        "; ".join(
            f"{e['name']} {e['measure']!r} < {e['tolerance']!r} ({e['detail']})"
            for e in entries
        )
        + f"; {elapsed:.2f}s",
    )


def test_criterion_01_closed_form_matches_quadrature(oracles):
    """Closed-form divergence vs grid quadrature, 5 mixture pairs per
    dimension in d = 1 and d = 2 with masses <= 5, relative error < 1e-6,
    within 5 seconds."""
    _assert_entries(1, [oracles["csd_closed_vs_quadrature"]], time_gate=5.0)


def test_criterion_02_closed_form_matches_monte_carlo(oracles):
    """Closed-form divergence vs sampling estimate, 3 pairs with masses <= 2,
    agreement within 3 standard errors at n = 1e5, within 60 seconds."""
    _assert_entries(2, [oracles["csd_closed_vs_mc"]], time_gate=60.0)


def test_criterion_03_self_inner_product_identity(oracles):
    """Sampled process inner product <f, f> vs exp(K<u,u> - 2<u,1>) within
    3 standard errors for 5 models with mass <= 2, n = 2e5."""
    _assert_entries(3, [oracles["self_inner_product_vs_mc"]])


def test_criterion_04_process_mixture_reduction_and_monte_carlo(oracles):
    """Mixture-of-processes divergence: a weight-1 single component reduces
    to the plain closed form within 1e-12, and a 2x2-component case agrees
    with the sampling estimate within 3 standard errors."""
    _assert_entries(
        4,
        [oracles["process_mixture_single_reduction"], oracles["process_mixture_vs_mc"]],
    )


def test_criterion_05_bhattacharyya_matches_hellinger_quadrature(oracles):
    """Closed-form Bhattacharyya distance vs squared-Hellinger quadrature on
    5 single-Gaussian pairs (relative error < 1e-6); the equal-shape pair
    with weights 1 and 4 gives exactly 1/2."""
    _assert_entries(
        5, [oracles["bhatt_vs_hellinger_quadrature"], oracles["bhatt_mass_only_case"]]
    )


def test_criterion_06_unit_scale_invariance(oracles):
    """Rescaling means by s, covariances by s^2, and the hyper-volume unit by
    s^d leaves the divergence unchanged to relative error 1e-10."""
    _assert_entries(6, [oracles["unit_scale_invariance"]])


def test_criterion_07_kalman_filter_reduction(oracles):
    """With unit detection probability, no clutter, and no birth or death,
    the filter posterior reproduces a Kalman filter over 40 steps: exactly
    one component kept, mean and covariance within 1e-9, mass within 1e-9
    of 1."""
    names = ("one_component", "mean", "cov", "mass")
    _assert_entries(7, [oracles[f"kalman_reduction_{name}"] for name in names])


# --- criterion 8 helpers: masses recomputed with explicit 2x2 algebra, no
# --- shared code with the filter update


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inv2(m):
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / _det2(m)[..., None, None]


def _norm2(diff, cov):
    quad = np.einsum("...a,...ab,...b->...", diff, _inv2(cov), diff)
    return np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(_det2(cov)))


def _reference_masses(predicted, zs, sensor, cfg):
    """Missed-detection mass and per-measurement detection masses of the
    update, from the predicted mixture alone."""
    w, m, p = predicted.weights, predicted.means, predicted.covs
    h, r, s = cfg.observation, cfg.meas_noise, cfg.detection_shape
    peak = 2.0 * math.pi * math.sqrt(_det2(s))
    hm = m @ h.T
    hp = np.einsum("ab,jbc->jac", h, p)
    s1 = np.einsum("jab,cb->jac", hp, h) + s
    w_cond = w * peak * _norm2(sensor - hm, s1)
    t_missed = float(w.sum() - w_cond.sum())
    gain = np.einsum("jab,jbc->jac", np.swapaxes(hp, -1, -2), _inv2(s1))
    m1 = m + np.einsum("jab,jb->ja", gain, sensor - hm)
    p1 = p - np.einsum("jab,jbc->jac", gain, hp)
    if len(zs) == 0:
        return t_missed, np.zeros(0)
    s2 = np.einsum("ab,jbc,dc->jad", h, p1, h) + r
    innov = zs.points[None, :, :] - (m1 @ h.T)[:, None, :]
    num = w_cond[:, None] * _norm2(innov, s2[:, None, :, :])
    inside = np.all(
        (zs.points >= cfg.area[:, 0]) & (zs.points <= cfg.area[:, 1]), axis=1
    )
    kappa = cfg.clutter_rate * inside
    total = num.sum(axis=0)
    return t_missed, total / (kappa + total)


def test_criterion_08_filter_mass_identities(monkeypatch):
    """Prediction mass balance and the update mass identity (posterior mass
    equals missed mass plus per-measurement detection masses, each in [0, 1])
    hold to 1e-9 at every step of 20 seeded random-policy scenario runs,
    observed at the harness's own predict and update calls."""
    cfg = ScenarioConfig()
    birth_mass = mixture_mass(cfg.birth)
    predict_errs, update_errs = [], []

    def observed_predict(prior, motion, births):
        predicted = phd_predict(prior, motion, births)
        balance = cfg.survival_prob * mixture_mass(prior) + birth_mass
        predict_errs.append(abs(mixture_mass(predicted) - balance))
        return predicted

    def observed_update(predicted, zs, profile, meas):
        posterior = phd_update(predicted, zs, profile, meas)
        # The run's sensor position is its detection term's centre.
        t_missed, blocks = _reference_masses(predicted, zs, profile.terms[0].center, cfg)
        assert np.all(blocks >= 0.0) and np.all(blocks <= 1.0 + 1e-9)
        update_errs.append(abs(mixture_mass(posterior) - (t_missed + blocks.sum())))
        return posterior

    monkeypatch.setattr(harness, "phd_predict", observed_predict)
    monkeypatch.setattr(harness, "phd_update", observed_update)
    for run in range(20):
        run_simulation(cfg, cfg.seed, "random", run)
    assert len(predict_errs) == len(update_errs) == 20 * cfg.horizon
    assert max(predict_errs) < 1e-9
    assert max(update_errs) < 1e-9
    _report(
        8,
        f"{len(update_errs)} steps, worst prediction err {max(predict_errs):.2e}, "
        f"worst update err {max(update_errs):.2e}",
    )


def test_criterion_09_ospa_axioms_and_assignment(oracles):
    """Metric axioms over 100 random set triples and assignment optimality
    against exhaustive search on random 6x6 cost matrices."""
    names = ("symmetry", "range", "identity", "triangle")
    entries = [oracles[f"ospa_{name}"] for name in names]
    _assert_entries(9, entries + [oracles["assignment_vs_brute_force"]])


def test_criterion_10_divergence_policy_beats_baselines():
    """Over 20 seeded runs of the default scenario, the divergence policy's
    steady-state mean OSPA (steps >= 10) beats the random and stay-put
    baselines and stays below 60 m, within a 5 minute batch budget.  The same
    batch answers sensor_moves_toward_targets: at least 16 of its 20
    divergence-policy runs end with the sensor nearer the final truth
    centroid than it started."""
    _assert_entries(10, policy_comparison(), time_gate=300.0)


def test_criterion_11_byte_identical_outputs(tmp_path):
    """Repeated CLI runs with fixed seeds write byte-identical CSV files, and
    the batch output does not depend on the parallelism level."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(ScenarioConfig(horizon=4))))
    run_bytes = []
    for name in ("run_a.csv", "run_b.csv"):
        out = tmp_path / name
        code = cli_main(
            ["simulate", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        run_bytes.append(out.read_bytes())
    assert run_bytes[0] == run_bytes[1]
    mc_bytes = []
    for name, jobs in (("mc_1.csv", "1"), ("mc_2.csv", "2")):
        out = tmp_path / name
        code = cli_main(
            [
                "montecarlo",
                "--config",
                str(cfg_path),
                "--runs",
                "3",
                "--seed",
                "7",
                "--jobs",
                jobs,
                "--out",
                str(out),
                "--policy",
                "stay",
            ]
        )
        assert code == 0
        mc_bytes.append(out.read_bytes())
    assert mc_bytes[0] == mc_bytes[1]
    _report(
        11,
        f"simulate {len(run_bytes[0])} bytes x2 identical, "
        f"montecarlo jobs 1 vs 2 identical ({len(mc_bytes[0])} bytes)",
    )
