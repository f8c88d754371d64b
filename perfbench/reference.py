"""Reference values computed with numpy and scipy alone, apart from ppdiv.

For Poisson processes with intensities u and v the Cauchy-Schwarz divergence
is (k/2) ||u - v||^2.  With Gaussian-mixture intensities that is a double
sum over Gaussian pairs: write u - v as one mixture with signed weights
(w_u, -w_v); then ||u - v||^2 = sum_ij w_i w_j N(m_i; m_j, P_i + P_j).
Each Gaussian pair is evaluated here with ``slogdet`` and ``solve`` rather
than ppdiv's Cholesky and forward substitution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

_LOG_2PI = math.log(2.0 * math.pi)


def _active(weights, means, covs):
    weights = np.asarray(weights, dtype=float)
    keep = weights != 0.0
    return weights[keep], np.asarray(means, float)[keep], np.asarray(covs, float)[keep]


def gauss_pair_table(means_a, covs_a, means_b, covs_b, rows_per_block: int = 64):
    """G[i, j] = N(m_a_i; m_b_j, P_a_i + P_b_j), in blocks of rows."""
    na, d = means_a.shape
    out = np.empty((na, means_b.shape[0]))
    for lo in range(0, na, rows_per_block):
        hi = min(na, lo + rows_per_block)
        s = covs_a[lo:hi, None] + covs_b[None, :]
        diff = means_a[lo:hi, None, :] - means_b[None, :, :]
        _, logdet = np.linalg.slogdet(s)
        sol = np.linalg.solve(s, diff[..., None])[..., 0]
        maha = np.einsum("ijk,ijk->ij", diff, sol)
        out[lo:hi] = np.exp(-0.5 * (maha + logdet + d * _LOG_2PI))
    return out


def inner(u, v) -> float:
    """L2 inner product of two mixtures given as (weights, means, covs)."""
    wa, ma, ca = _active(*u)
    wb, mb, cb = _active(*v)
    if wa.size == 0 or wb.size == 0:
        return 0.0
    return float(wa @ gauss_pair_table(ma, ca, mb, cb) @ wb)


def csd(u, v, k: float = 1.0) -> tuple[float, float]:
    """(k/2) ||u - v||^2 for mixtures given as (weights, means, covs).

    Returns (value, scale), where scale is the same double sum taken over
    absolute terms: the size of the numbers that cancel, against which
    rounding error is judged.
    """
    w = np.concatenate([np.asarray(u[0], float), -np.asarray(v[0], float)])
    m = np.concatenate([np.asarray(u[1], float), np.asarray(v[1], float)])
    c = np.concatenate([np.asarray(u[2], float), np.asarray(v[2], float)])
    w, m, c = _active(w, m, c)
    if w.size == 0:
        return 0.0, 0.0
    table = gauss_pair_table(m, c, m, c)
    value = 0.5 * k * float(w @ table @ w)
    scale = 0.5 * k * float(np.abs(w) @ table @ np.abs(w))
    return value, scale


def csd_process_mixture(fa, fb, k: float = 1.0) -> tuple[float, float]:
    """D_CS between finite mixtures of Poisson processes.

    ``fa`` and ``fb`` are lists of (probability, (weights, means, covs)).
    The process inner product of two components is
    exp(k <u_i, v_j> - mass(u_i) - mass(v_j)).  Returns (value, scale) with
    scale the largest log-term magnitude.
    """

    def log_gram(left, right):
        exps = np.array(
            [
                [k * inner(ui, vj) - float(np.sum(ui[0])) - float(np.sum(vj[0])) for _, vj in right]
                for _, ui in left
            ]
        )
        probs = np.outer([p for p, _ in left], [p for p, _ in right])
        return float(logsumexp(exps.reshape(-1), b=probs.reshape(-1))), float(np.abs(exps).max())

    ab, s_ab = log_gram(fa, fb)
    aa, s_aa = log_gram(fa, fa)
    bb, s_bb = log_gram(fb, fb)
    return -ab + 0.5 * aa + 0.5 * bb, max(s_ab, s_aa, s_bb)


def bhattacharyya_gaussian(wu, mu, pu, wv, mv, pv) -> float:
    """Bhattacharyya distance between Poisson processes with intensities
    wu N(mu, pu) and wv N(mv, pv): (wu + wv)/2 - sqrt(wu wv) BC, with the
    Gaussian Bhattacharyya coefficient BC = exp(-D_B)."""
    pbar = 0.5 * (np.asarray(pu, float) + np.asarray(pv, float))
    dm = np.asarray(mu, float) - np.asarray(mv, float)
    maha = float(dm @ np.linalg.solve(pbar, dm))
    _, ld_bar = np.linalg.slogdet(pbar)
    _, ld_u = np.linalg.slogdet(pu)
    _, ld_v = np.linalg.slogdet(pv)
    d_b = 0.125 * maha + 0.5 * (ld_bar - 0.5 * (ld_u + ld_v))
    return 0.5 * (wu + wv) - math.sqrt(wu * wv) * math.exp(-d_b)
