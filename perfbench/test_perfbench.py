"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest -q perfbench

Every check is fed a correct value, which must pass, and a perturbed one,
which must fail.  These tests need numpy and scipy but not ppdiv.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

fails = pytest.raises(checks.CheckFailed)


def _mixture(gen, dim, n, mass):
    w = gen.uniform(0.2, 1.2, n)
    a = 0.4 * gen.standard_normal((n, dim, dim))
    covs = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(dim)
    return w / w.sum() * mass, gen.uniform(-3.0, 3.0, (n, dim)), covs


def _norm_by_loops(u, v):
    """(1/2) ||u - v||^2 one Gaussian pair at a time."""
    w = np.concatenate([u[0], -v[0]])
    m = np.concatenate([u[1], v[1]])
    c = np.concatenate([u[2], v[2]])
    d = m.shape[1]
    total = 0.0
    for i in range(w.size):
        for j in range(w.size):
            s = c[i] + c[j]
            diff = m[i] - m[j]
            dens = math.exp(-0.5 * diff @ np.linalg.inv(s) @ diff) / math.sqrt(
                (2 * math.pi) ** d * np.linalg.det(s)
            )
            total += w[i] * w[j] * dens
    return 0.5 * total


def test_reference_double_sum_matches_pair_loop():
    gen = np.random.default_rng(3)
    u, v = _mixture(gen, 2, 5, 2.0), _mixture(gen, 2, 4, 1.0)
    value, scale = reference.csd(u, v)
    assert value == pytest.approx(_norm_by_loops(u, v), rel=1e-12)
    assert scale >= value > 0.0
    assert reference.csd(u, u)[0] == pytest.approx(0.0, abs=1e-12 * scale)


def test_reference_process_mixture_reduces_to_single():
    gen = np.random.default_rng(4)
    u, v = _mixture(gen, 2, 3, 1.5), _mixture(gen, 2, 2, 1.0)
    single, _ = reference.csd(u, v)
    mixed, _ = reference.csd_process_mixture([(1.0, u)], [(1.0, v)])
    assert mixed == pytest.approx(single, rel=1e-9)


def test_reference_bhattacharyya_mass_only_case():
    cov = np.array([[1.4, 0.3], [0.3, 0.9]])
    mean = np.array([0.5, -0.2])
    assert reference.bhattacharyya_gaussian(1.0, mean, cov, 4.0, mean, cov) == pytest.approx(0.5)


def test_matches_reference_rejects_perturbation():
    checks.matches_reference("x", 1.0 + 1e-12, 1.0, 1.0)
    with fails:
        checks.matches_reference("x", 1.0 + 1e-6, 1.0, 1.0)
    with fails:
        checks.matches_reference("x", math.nan, 1.0, 1.0)


def test_divergence_properties_reject_perturbation():
    checks.nonnegative("x", 0.0)
    with fails:
        checks.nonnegative("x", -1e-3)
    checks.symmetric("x", 0.5, 0.5, 1.0)
    with fails:
        checks.symmetric("x", 0.5, 0.5001, 1.0)
    checks.self_divergence_zero("x", 0.0, 1.0)
    with fails:
        checks.self_divergence_zero("x", 1e-6, 1.0)
    checks.linear_in_k("x", 0.2, 0.5, 2.5, 1.0)
    with fails:
        checks.linear_in_k("x", 0.2, 0.2, 2.5, 1.0)
    checks.permutation_invariant("x", 0.3, 0.3, 1.0)
    with fails:
        checks.permutation_invariant("x", 0.3, 0.31, 1.0)


def test_oracle_checks_reject_perturbation():
    checks.quadrature_matches("q", 0.05 + 1e-15, 0.05 + 2e-15, 0.05)
    with fails:
        checks.quadrature_matches("q", 0.05 * (1 + 1e-6), 0.05 * (1 + 1e-6), 0.05)
    # A coarse grid far from the fine one widens the tolerance accordingly.
    checks.quadrature_matches("q", 0.0501, 0.0503, 0.05)
    checks.within_standard_errors("mc", 0.03, 0.01, 0.05)
    with fails:
        checks.within_standard_errors("mc", 0.03, 0.001, 0.05)
    with fails:
        checks.within_standard_errors("mc", 0.05, 0.0, 0.05)


def test_desk_checks_reject_perturbation():
    area = np.array([[0.0, 1000.0], [0.0, 1000.0]])
    checks.rewards_valid("r", [0.0, 1.5, 2.0])
    for bad in (-0.1, math.inf, -math.inf, math.nan):
        with fails:
            checks.rewards_valid("r", [0.0, bad])
    positions = np.array([[10.0, 10.0], [-40.0, 10.0], [60.0, 10.0]])
    checks.candidates_scored("c", [1.0, -math.inf, 2.0], positions, area)
    with fails:
        checks.candidates_scored("c", [1.0, 0.5, 2.0], positions, area)
    with fails:
        checks.candidates_scored("c", [-math.inf, -math.inf, 2.0], positions, area)
    checks.earliest_argmax("a", [1.0, 3.0, 3.0, -math.inf], 1)
    with fails:
        checks.earliest_argmax("a", [1.0, 3.0, 3.0, -math.inf], 2)
    checks.inside_area("s", [[0.0, 0.0], [1000.0, 500.0]], area)
    with fails:
        checks.inside_area("s", [[0.0, 0.0], [1000.5, 500.0]], area)
    checks.never_moves("s", [[250.0, 250.0]] * 3, [250.0, 250.0])
    with fails:
        checks.never_moves("s", [[250.0, 250.0], [300.0, 250.0]], [250.0, 250.0])
    checks.ospa_in_range("o", [0.0, 50.0, 100.0], 100.0)
    with fails:
        checks.ospa_in_range("o", [0.0, 100.0000001], 100.0)
    with fails:
        checks.ospa_in_range("o", [-1e-12], 100.0)


def test_byte_checks_reject_perturbation():
    full = b"step,x\n1,0.5\n2,0.25\n3,1.0\n"
    checks.same_bytes("b", full, bytes(full))
    with fails:
        checks.same_bytes("b", full.replace(b"0.25", b"0.26"), full)
    checks.csv_prefix("p", b"step,x\n1,0.5\n", full)
    with fails:
        checks.csv_prefix("p", b"step,x\n1,0.50\n", full)
    checks.same_outputs("o", (0.1, b"x"), (0.1, b"x"))
    with fails:
        checks.same_outputs("o", (0.1, b"x"), (0.1 + 1e-17 + 2e-17, b"x"))


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 6.5, 3],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    table = tracing.span_table(spans)
    assert table["c"] == {"calls": 2, "inclusive_s": pytest.approx(1.5), "self_s": pytest.approx(1.5)}
    assert table["root"]["inclusive_s"] == pytest.approx(10.0)
    assert table["root"]["self_s"] == pytest.approx(3.0)


def test_tracer_records_nesting_and_excludes_counting_time():
    tracer = tracing.Tracer()

    def slow_count(tr, args, kwargs, result):
        tr.counts["calls"] += 1
        t = tracing.time.perf_counter()
        while tracing.time.perf_counter() - t < 0.02:
            pass

    inner = tracer.wrapper("inner", slow_count)(lambda x: x + 1)
    outer = tracer.wrapper("outer")(lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["calls"] == 2
    # Two 20 ms counting pauses happened inside "outer" but are not in it.
    assert tracer.spans[0][2] - tracer.spans[0][1] < 0.02
