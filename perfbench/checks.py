"""Correctness checks on benchmark outputs.

Each check takes plain numbers, arrays or bytes and raises CheckFailed when
the output is wrong.  They compare against values computed apart from ppdiv
(see reference.py) or against properties the method must have; none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Relative rounding tolerance for two independent float64 evaluations of the
# same double sum, judged against the size of the terms that cancel.
ROUNDING = 1e-9


class CheckFailed(AssertionError):
    pass


def _fail(what: str, detail: str):
    raise CheckFailed(f"{what}: {detail}")


def matches_reference(what: str, value: float, reference: float, scale: float) -> None:
    """|value - reference| within rounding of the terms that cancel."""
    tol = ROUNDING * max(abs(scale), abs(reference), 1e-300)
    if not abs(value - reference) <= tol:
        _fail(what, f"{value!r} vs reference {reference!r} (tolerance {tol:.3g})")


def nonnegative(what: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        _fail(what, f"{value!r} is not a finite value >= 0")


def symmetric(what: str, d_uv: float, d_vu: float, scale: float) -> None:
    matches_reference(f"{what} symmetry", d_uv, d_vu, scale)


def self_divergence_zero(what: str, d_uu: float, scale: float) -> None:
    matches_reference(f"{what} D(u, u) = 0", d_uu, 0.0, scale)


def linear_in_k(what: str, d_1: float, d_k: float, k: float, scale: float) -> None:
    matches_reference(f"{what} linearity in k", d_k, k * d_1, k * scale)


def permutation_invariant(what: str, d: float, d_permuted: float, scale: float) -> None:
    matches_reference(f"{what} permutation invariance", d_permuted, d, scale)


def quadrature_matches(what: str, quad: float, quad_coarse: float, closed: float) -> None:
    """Quadrature vs closed form within the midpoint rule's error.

    The error is estimated by the change between the grid and one with half
    as many cells per axis, plus rounding of the grid sum.
    """
    tol = abs(quad - quad_coarse) + ROUNDING * abs(closed)
    if not abs(quad - closed) <= tol:
        _fail(what, f"quadrature {quad!r} vs closed form {closed!r} (tolerance {tol:.3g})")


def within_standard_errors(what: str, estimate: float, se: float, exact: float, z: float = 4.0) -> None:
    if not (se > 0.0 and math.isfinite(estimate)):
        _fail(what, f"estimate {estimate!r} with standard error {se!r}")
    if not abs(estimate - exact) <= z * se:
        _fail(what, f"estimate {estimate!r} is {abs(estimate - exact) / se:.2f} SE from {exact!r}")


def rewards_valid(what: str, rewards) -> None:
    """Rewards of the chosen positions: finite and >= 0."""
    r = np.asarray(rewards, dtype=float)
    bad = ~(np.isfinite(r) & (r >= 0.0))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        _fail(what, f"step {i + 1} reward {r[i]!r} is not finite and >= 0")


def candidates_scored(what: str, rewards, positions, area) -> None:
    """In-area candidates get a finite reward >= 0, the others -inf."""
    r = np.asarray(rewards, dtype=float)
    p = np.asarray(positions, dtype=float)
    area = np.asarray(area, dtype=float)
    inside = np.all((p >= area[:, 0]) & (p <= area[:, 1]), axis=1)
    ok = np.where(inside, np.isfinite(r) & (r >= 0.0), r == -math.inf)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        _fail(what, f"candidate {i} at {p[i].tolist()} scored {r[i]!r}")


def earliest_argmax(what: str, rewards, chosen: int) -> None:
    r = np.asarray(rewards, dtype=float)
    best = int(np.flatnonzero(r == r.max())[0])
    if chosen != best:
        _fail(what, f"chose candidate {chosen}, earliest argmax is {best}")


def inside_area(what: str, positions, area) -> None:
    p = np.atleast_2d(np.asarray(positions, dtype=float))
    area = np.asarray(area, dtype=float)
    inside = np.all((p >= area[:, 0]) & (p <= area[:, 1]), axis=1)
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        _fail(what, f"sensor at {p[i].tolist()} on step {i + 1} is outside the area")


def never_moves(what: str, positions, start) -> None:
    p = np.atleast_2d(np.asarray(positions, dtype=float))
    moved = np.any(p != np.asarray(start, dtype=float), axis=1)
    if moved.any():
        i = int(np.flatnonzero(moved)[0])
        _fail(what, f"sensor moved to {p[i].tolist()} on step {i + 1}")


def ospa_in_range(what: str, values, cutoff: float) -> None:
    v = np.asarray(values, dtype=float)
    bad = ~((v >= 0.0) & (v <= cutoff))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        _fail(what, f"OSPA {v[i]!r} on step {i + 1} is outside [0, {cutoff!r}]")


def same_bytes(what: str, got: bytes, expected: bytes) -> None:
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        _fail(what, f"bytes differ at offset {at} ({len(got)} vs {len(expected)} bytes)")


def csv_prefix(what: str, short: bytes, full: bytes) -> None:
    """A shorter run of the same seed writes the first rows of the longer run."""
    rows = short.splitlines(keepends=True)
    same_bytes(what, b"".join(full.splitlines(keepends=True)[: len(rows)]), short)


def same_outputs(what: str, got, expected) -> None:
    """Outputs of a repeated operation (numbers, tuples, bytes) are identical."""
    if got != expected:
        _fail(what, f"{got!r:.200} differs from {expected!r:.200}")
