"""Entropies and information-gain functionals, all in nats.

Covers the Shannon and von Neumann entropies, the subentropy (a spectral
functional that lower-bounds the accessible information of pure-state
ensembles), the mutual information of a measurement record, the average
von Neumann entropy reduction, its per-member conditional variant, and
the Holevo quantity. Conversion to bits happens only at the reporting
layer.

Subentropy: Q = -(x^n ln x)[lam_1 ... lam_n] (Jozsa, Robb and Wootters,
PRA 49, 668, 1994); by ln x = int_0^inf (1/(1+t) - 1/(x+t)) dt and sum lam = 1,
Q = int_0^inf [t/(1+t) - prod_k t/(t+lam_k)] dt, with no cancellation between
eigenvalues. The trapezoid rule in u = ln t (exponentially convergent:
Trefethen and Weideman, SIAM Rev. 56, 385, 2014) on u = -20, -19.6, ..., 38
sums t [-expm1(-sum_k log1p(lam_k/t)) - 1/(1+t)]. Against a high-precision
closed form it is within 9e-15 for n = 2-12 (eigenvalues down to 1e-12,
gaps down to 1e-14) and 2.2e-13 at n = 64; a step of 0.5 is 5e-13 off.
"""

from __future__ import annotations

import numpy as np

from .qobjects import (DensityOperator, Ensemble, InvalidDistributionError,
                       OutcomeAnalysis, _clean_spectrum, _dot, _neg_xlogx, _scatter,
                       ensemble_state)

_QUAD_T = np.exp(np.linspace(-20.0, 38.0, 146))  # nodes t = e^u, step h = 0.4 in u
_QUAD_W = 0.4 * _QUAD_T  # trapezoid weights h dt/du


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


def _subentropies(spectra: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Subentropies in nats of a stack of spectra (..., d), 0 where the
    boolean ``live`` is false, by the quadrature of the module docstring.
    A spectrum with at most one nonzero eigenvalue gives exactly 0.0."""
    lam = _clean_spectrum(spectra[live])
    logs = np.zeros((len(lam), len(_QUAD_T)))
    for col in lam.T:
        logs += np.log1p(col[:, None] / _QUAD_T)
    values = ((-np.expm1(-logs) - 1.0 / (1.0 + _QUAD_T)) * _QUAD_W).sum(axis=-1)
    values[(lam > 0.0).sum(axis=-1) <= 1] = 0.0
    return _scatter(live, values)


def subentropy(rho: DensityOperator) -> float:
    """Subentropy Q[rho] in nats, a batch of one of :func:`_subentropies`."""
    return float(_subentropies(rho.eigenvalues[None], np.ones(1, bool))[0])


def _info_i(probs, stack):
    """H[P_i] - sum_j Q_j H[P(i|j)] of each instance of an outcome stack."""
    return _neg_xlogx(probs) - _dot(stack["outcome_probs"], _neg_xlogx(stack["posteriors"]))


def _info_f(s_rho, stack):
    """S[rho] - sum_j Q_j S[rho'_j] of each instance of an outcome stack."""
    return s_rho - _dot(stack["outcome_probs"], stack["post_entropies"])


def mutual_information(analysis: OutcomeAnalysis) -> float:
    """Information gained about the preparation index, in nats.

    H[P_i] - sum_j Q_j H[P(i|j)], the mutual information between the
    preparation and the (possibly coarse) outcome record.
    """
    return float(_info_i(analysis.ensemble.probs[None], analysis._stack)[0])


def info_gain_f(analysis: OutcomeAnalysis) -> float:
    """Average reduction of the observer's von Neumann entropy, in nats.

    S[rho] - sum_j Q_j S[rho'_j]. For coarse analyses the group-averaged
    final states enter, and the result may be negative.
    """
    return float(_info_f(von_neumann(ensemble_state(analysis.ensemble)), analysis._stack)[0])


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
