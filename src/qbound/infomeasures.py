"""Entropies and information-gain functionals, all in nats.

Covers the Shannon and von Neumann entropies, the subentropy (a spectral
functional that lower-bounds the accessible information of pure-state
ensembles), the mutual information of a measurement record, the average
von Neumann entropy reduction, its per-member conditional variant, and
the Holevo quantity. Conversion to bits happens only at the reporting
layer.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .qobjects import (DensityOperator, Ensemble, InvalidDistributionError,
                       OutcomeAnalysis, _clean_spectrum, _neg_xlogx, ensemble_state)

# Eigenvalues closer together than this (density-operator scale) are merged
# into one node and handled with derivative-based divided differences.
CLUSTER_GAP = 1e-7

_MP_DPS = 40

_CERTIFIED_LOSS = 4  # digits the float64 subentropy may lose to cancellation


def shannon(p, tol: float = 1e-9) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("expected a non-empty probability vector")
    if np.any(p < -1e-12):
        raise InvalidDistributionError("negative probability")
    if abs(p.sum() - 1.0) > tol:
        raise InvalidDistributionError(f"probabilities sum to {p.sum()}")
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum())


def von_neumann(rho: DensityOperator) -> float:
    """Von Neumann entropy S = -Tr rho ln rho in nats."""
    return rho.entropy


def _cluster_nodes(lam: np.ndarray) -> np.ndarray:
    """Merge eigenvalues whose consecutive gap is below CLUSTER_GAP.

    Returns the node list (cluster means, repeated by multiplicity) so the
    divided-difference table can detect multiplicities by float equality.
    """
    nodes = np.empty_like(lam)
    start = 0
    for k in range(1, len(lam) + 1):
        if k == len(lam) or lam[k] - lam[k - 1] >= CLUSTER_GAP:
            nodes[start:k] = lam[start:k].mean()
            start = k
    return nodes


def _xn_logx_deriv(n: int, order: int, x, harm) -> mp.mpf:
    """order-th derivative of x^n ln x, extended by continuity to 0 at x = 0.

    d^k/dx^k [x^n ln x] = (n!/(n-k)!) x^(n-k) (ln x + H_n - H_(n-k))
    for k < n, where H_m is the m-th harmonic number.
    """
    if x == 0:
        return mp.mpf(0)
    coeff = math.factorial(n) // math.factorial(n - order)
    return coeff * x ** (n - order) * (mp.ln(x) + harm[n] - harm[n - order])


def _table_dps(nodes: np.ndarray) -> int:
    """Digits for the Newton table: each of its N-1 orders can cancel
    -log10 g digits across the smallest gap g between distinct nodes."""
    distinct = np.unique(nodes)
    if len(distinct) < 2:
        return _MP_DPS
    loss = max(0, math.ceil(-math.log10(float(np.min(np.diff(distinct))))))
    return max(_MP_DPS, 30 + (len(nodes) - 1) * loss)


def _subentropy_table(lam: np.ndarray) -> tuple[float, int]:
    """Subentropy of one clean spectrum, and the digits used, as minus the
    (N-1)-th divided difference of x^N ln x over its N eigenvalues. Those
    closer than CLUSTER_GAP are merged and handled confluently (derivative
    entries in the Newton table), in the precision of :func:`_table_dps`."""
    n = len(lam)
    nodes = _cluster_nodes(lam)
    dps = _table_dps(nodes)
    with mp.workdps(dps):
        harm = [mp.mpf(0)]
        for m in range(1, n + 1):
            harm.append(harm[-1] + mp.mpf(1) / m)
        z = [mp.mpf(float(x)) for x in nodes]
        f0 = [_xn_logx_deriv(n, 0, x, harm) for x in z]
        # Newton table; diag[k][i] holds the order-k entry starting at node i
        prev = f0
        for k in range(1, n):
            cur = []
            for i in range(n - k):
                if nodes[i] == nodes[i + k]:
                    cur.append(_xn_logx_deriv(n, k, z[i], harm) / math.factorial(k))
                else:
                    cur.append((prev[i + 1] - prev[i]) / (z[i + k] - z[i]))
            prev = cur
        return float(-prev[0]), dps


def _subentropies(spectra: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subentropies in nats of a stack of spectra (..., d), 0 where the
    boolean ``live`` is false, and the mpmath digits each took (0: float64).

    The closed form -sum_k prod_(l!=k)[lam_k/(lam_k-lam_l)] lam_k ln lam_k
    runs in float64 over the n nonzero eigenvalues (n <= 1 gives 0.0) where
    (n-1) max(0, -log10 g) <= _CERTIFIED_LOSS, g their smallest gap; by the
    cancellation count of :func:`_table_dps` that leaves >= 12 good digits.
    Other spectra go to the divided-difference table."""
    lam = np.sort(_clean_spectrum(spectra[live]), axis=-1)
    n = (lam > 0.0).sum(axis=-1)
    gaps = np.where(lam[..., :-1] > 0.0, np.diff(lam, axis=-1), np.inf)
    with np.errstate(divide="ignore"):
        loss = np.maximum(0.0, -np.log10(gaps.min(axis=-1, initial=np.inf)))
    certified = (n <= 1) | ((n - 1) * loss <= _CERTIFIED_LOSS)
    x = lam[certified]
    skip = np.eye(x.shape[-1], dtype=bool) | (x[:, None, :] == 0.0)
    ratio = np.where(skip, 1.0, x[:, :, None] / np.where(skip, 1.0, x[:, :, None] - x[:, None, :]))
    values = np.zeros(len(lam))
    values[certified] = -(ratio.prod(axis=-1) * x * np.log(np.where(x > 0.0, x, 1.0))).sum(-1)
    values[n <= 1] = 0.0
    digits = np.zeros(len(lam), dtype=int)
    for k in np.flatnonzero(~certified):
        values[k], digits[k] = _subentropy_table(lam[k])
    out, dps = np.zeros(live.shape), np.zeros(live.shape, dtype=int)
    out[live], dps[live] = values, digits
    return out, dps


def subentropy(rho: DensityOperator) -> float:
    """Subentropy Q[rho] in nats, a batch of one of :func:`_subentropies`."""
    return float(_subentropies(rho.eigenvalues[None], np.ones(1, bool))[0][0])


def mutual_information(analysis: OutcomeAnalysis) -> float:
    """Information gained about the preparation index, in nats.

    H[P_i] - sum_j Q_j H[P(i|j)], the mutual information between the
    preparation and the (possibly coarse) outcome record.
    """
    live = analysis.effective_outcomes()
    h_post = analysis.outcome_probs[live] @ _neg_xlogx(analysis.posteriors[live])
    return shannon(analysis.ensemble.probs) - float(h_post)


def info_gain_f(analysis: OutcomeAnalysis) -> float:
    """Average reduction of the observer's von Neumann entropy, in nats.

    S[rho] - sum_j Q_j S[rho'_j]. For coarse analyses the group-averaged
    final states enter, and the result may be negative.
    """
    s_post = analysis.outcome_probs @ analysis.post_entropies
    return von_neumann(ensemble_state(analysis.ensemble)) - float(s_post)


def _conditional_gains(member_entropies, cond_probs, cond_post_entropies):
    """Conditional info gains of every member, of one instance or a stack."""
    return member_entropies - (cond_probs * cond_post_entropies).sum(axis=-2)


def conditional_info_gain(analysis: OutcomeAnalysis, i: int) -> float:
    """Entropy reduction the measurement would achieve if the preparation
    were known to be member i: S[rho_i] - sum_j Q(j|i) S[rho'_ji]."""
    if analysis.coarse:
        raise ValueError("conditional info gain requires an efficient analysis")
    gains = _conditional_gains(analysis.ensemble.member_entropies, analysis.cond_probs,
                               analysis.cond_post_entropies)
    if not 0 <= i < len(gains):
        raise IndexError(f"ensemble member {i} out of range")
    return float(gains[i])


def holevo_chi(ensemble: Ensemble) -> float:
    """Holevo quantity chi = S[rho] - sum_i P_i S[rho_i] in nats."""
    s_members = ensemble.probs @ ensemble.member_entropies
    return von_neumann(ensemble_state(ensemble)) - float(s_members)
