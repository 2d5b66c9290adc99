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


def subentropy(rho: DensityOperator) -> float:
    """Subentropy Q[rho] in nats.

    Evaluated as minus the (N-1)-th divided difference of x^N ln x over the
    N eigenvalues, which for distinct spectra coincides with the classic
    closed form -sum_k prod_(l!=k)[lam_k/(lam_k-lam_l)] lam_k ln lam_k.
    Eigenvalues closer than CLUSTER_GAP are merged and handled confluently
    (derivative entries in the Newton table). The table is evaluated in
    high precision, sized by :func:`_table_dps` to cover the cancellation
    the recurrence suffers near clustered spectra.
    """
    lam = _clean_spectrum(rho.eigenvalues)
    n = len(lam)
    if n == 1:
        return 0.0
    nodes = _cluster_nodes(lam)
    with mp.workdps(_table_dps(nodes)):
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
        return float(-prev[0])


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
