"""Right-hand sides of the information bounds, equivalence checks, and
saturation predicates.

Each evaluator returns nats. ``bound_report`` bundles every quantity for
one (ensemble, measurement) instance, including the per-outcome spectrum
agreement between sqrt(rho) E_j sqrt(rho) and Q_j rho'_j that underlies
the equality of the dual bound with the entropy-reduction gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .infomeasures import (conditional_gains, holevo_chi, info_gain_f,
                           mutual_information, subentropy, von_neumann)
from .matrixcore import HERMITIAN_TOL, hermitize, operator_rank, sqrt_psd, support_projector
from .qobjects import (DensityOperator, Ensemble, Measurement, OutcomeAnalysis,
                       PROB_FLOOR, apply_measurement, ensemble_state, entropies)


class NotPureEnsembleError(ValueError):
    """The bound requires a pure-state ensemble."""


class LengthMismatchError(ValueError):
    """Parallel argument lists have different lengths."""


def _dual_and_spectra(rho: DensityOperator, measurement: Measurement):
    """The dual bound and the (J, d) ascending spectra of sqrt(rho) E_j
    sqrt(rho) it is built from."""
    a = measurement.kraus_stack
    root = sqrt_psd(rho.matrix)
    x = hermitize(root @ (a.conj().swapaxes(1, 2) @ a) @ root)
    q, spectra = np.einsum("jaa->j", x).real, np.linalg.eigvalsh(x)
    live = q >= PROB_FLOOR
    s_cond = q[live] @ entropies(spectra[live] / q[live, None])
    return von_neumann(rho) - float(s_cond), spectra


def dual_holevo_rhs(rho: DensityOperator, measurement: Measurement) -> float:
    """Upper bound on the index information for fixed measurement and
    average state: S[rho] - sum_j Q_j S[sqrt(rho) E_j sqrt(rho) / Q_j]."""
    if measurement.dim != rho.dim:
        raise ValueError("dimension mismatch between state and measurement")
    return _dual_and_spectra(rho, measurement)[0]


def _sww_terms_form(analysis: OutcomeAnalysis, chi: float) -> float:
    """Four-term form: S[rho] - sum_i P_i S[rho_i]
    - sum_j Q_j [S[rho'_j] - sum_i P(i|j) S[rho'_ji]], from the post-state
    and conditional post-state spectra; ``chi`` supplies the first two terms."""
    post = analysis.posteriors
    weights = np.where(post >= PROB_FLOOR, post, 0.0)
    inner = analysis.post_entropies - (weights * analysis.cond_post_entropies).sum(axis=1)
    return chi - float(analysis.outcome_probs @ inner)


def _sww_chi_form(analysis: OutcomeAnalysis, chi: float) -> float:
    """Holevo-difference form: chi[ensemble] - sum_j Q_j chi[posterior
    ensemble j]. Each posterior ensemble's average state is rebuilt from
    the conditional post states, never read from the post states, which
    cross-validates the mixture identity rho'_j = sum_i P(i|j) rho'_ji."""
    live = analysis.effective_outcomes()
    post = analysis.posteriors[live]
    keep = (post >= PROB_FLOOR) & (analysis.cond_probs[live] >= PROB_FLOOR)
    w = np.where(keep, post, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    average = np.einsum("ji,jiab->jab", w, analysis.cond_post_matrices[live])
    s_members = (w * analysis.cond_post_entropies[live]).sum(axis=1)
    chis = entropies(np.linalg.eigvalsh(average)) - s_members
    return chi - float(analysis.outcome_probs[live] @ chis)


def sww_rhs(analysis: OutcomeAnalysis, tol: float = 1e-9) -> float:
    """Right-hand side of the strengthened (posterior-corrected) bound.

    Both evaluation routes are computed and must agree within ``tol``;
    the Holevo-difference route is returned.
    """
    if analysis.coarse:
        raise ValueError("the bound applies to efficient analyses")
    chi = holevo_chi(analysis.ensemble)
    terms = _sww_terms_form(analysis, chi)
    chi_form = _sww_chi_form(analysis, chi)
    if abs(terms - chi_form) > tol:
        raise AssertionError(
            f"bound evaluation routes disagree: {terms} vs {chi_form}")
    return chi_form


def eqx_rhs(analysis: OutcomeAnalysis) -> float:
    """Equivalent rewrite via conditional gains:
    S[rho] - sum_i P_i dI_f(i) - sum_j Q_j S[rho'_j]."""
    if analysis.coarse:
        raise ValueError("the rewrite applies to efficient analyses")
    ens = analysis.ensemble
    s_post = analysis.outcome_probs @ analysis.post_entropies
    gains = ens.probs @ conditional_gains(analysis)
    return von_neumann(ensemble_state(ens)) - float(gains) - float(s_post)


def accb_rhs(acc_total: float, acc_posteriors, outcome_probs) -> float:
    """Chain bound from accessible informations:
    acc_total - sum_j Q_j * acc(posterior ensemble j)."""
    acc_posteriors = np.asarray(acc_posteriors, dtype=float)
    q = np.asarray(outcome_probs, dtype=float)
    if acc_posteriors.shape != q.shape:
        raise LengthMismatchError("posterior accessible-information list and "
                                  "outcome probabilities differ in length")
    return float(acc_total - q @ acc_posteriors)


def bsub_rhs(acc_total: float, analysis: OutcomeAnalysis) -> float:
    """Subentropy-corrected bound for pure-state ensembles:
    acc_total - sum_j Q_j Q[rho'_j]."""
    if not analysis.ensemble.is_pure:
        raise NotPureEnsembleError("subentropy bound requires a pure-state ensemble")
    out = acc_total
    for j in analysis.effective_outcomes():
        out -= analysis.outcome_probs[j] * subentropy(analysis.post_states[j])
    return float(out)


def eqspec_check(ensemble: Ensemble, measurement: Measurement,
                 tol: float = 1e-8):
    """Check whether all coding states agree up to a scalar on each
    outcome operator's support.

    For each outcome j, every state is compressed by the support projector
    of A_j. The candidate scalar for an ordered pair (i, k) is the trace
    ratio (the only possibility when proportionality holds). Pairs where
    exactly one compression is non-negligible fail; pairs where both are
    negligible pass vacuously.

    Returns ``(satisfied, alphas)`` with ``alphas[i, k, j]`` the trace
    ratio (NaN where undefined).
    """
    if measurement.groups is not None:
        raise ValueError("condition applies to efficient measurements")
    if measurement.dim != ensemble.dim:
        raise ValueError("dimension mismatch")
    n = ensemble.size
    alphas = np.full((n, n, measurement.size), np.nan)
    satisfied = True
    for j, a in enumerate(measurement.kraus):
        proj = support_projector(a)
        comp = [hermitize(proj @ s.matrix @ proj) for s in ensemble.states]
        traces = [float(np.trace(x).real) for x in comp]
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                ti, tk = traces[i], traces[k]
                if ti <= tol and tk <= tol:
                    continue
                if ti <= tol or tk <= tol:
                    satisfied = False
                    continue
                alpha = ti / tk
                alphas[i, k, j] = alpha
                scale = max(1.0, np.linalg.norm(comp[i]), np.linalg.norm(comp[k]))
                if np.linalg.norm(comp[i] - alpha * comp[k]) > tol * scale:
                    satisfied = False
    return satisfied, alphas


def dimension_bound(measurement: Measurement, dim: int) -> float:
    """ln(N - M_max + 1), where M_max is the largest outcome-operator
    support dimension. Zero when some outcome has full support."""
    if measurement.dim != dim:
        raise ValueError("dimension mismatch")
    m_max = max(operator_rank(a) for a in measurement.kraus)
    return float(np.log(dim - m_max + 1))


@dataclass(frozen=True)
class SaturationFlags:
    povm_commuting: bool
    classical: bool
    pure_ensemble: bool
    rank_one_povm: bool


def _all_commute(ops: np.ndarray) -> bool:
    """True iff all pairs pass ``matrixcore.commutes`` (in squares), a batch per row."""
    n = len(ops)
    sq_norms = np.square(ops.reshape(n, -1).view(float)).sum(axis=1)
    for k in range(n - 1):
        comm = (ops[k] @ ops[k + 1:] - ops[k + 1:] @ ops[k]).reshape(n - k - 1, -1).view(float)
        limit = HERMITIAN_TOL ** 2 * np.maximum(1.0, sq_norms[k] * sq_norms[k + 1:])
        if (np.square(comm).sum(axis=1) > limit).any():
            return False
    return True


def saturation_predicates(ensemble: Ensemble, measurement: Measurement) -> SaturationFlags:
    """Structural flags tied to saturation of the bounds.

    Commuting POVM elements are necessary (not sufficient) for the dual
    bound to be tight; mutually commuting states and Kraus operators make
    the instance classical. Tolerances are those of ``matrixcore.commutes``
    and ``matrixcore.operator_rank``.
    """
    a = measurement.kraus_stack
    states = np.stack([s.matrix for s in ensemble.states])
    return SaturationFlags(povm_commuting=_all_commute(a.conj().swapaxes(1, 2) @ a),
                           classical=_all_commute(np.concatenate([states, a])),
                           pure_ensemble=ensemble.is_pure,
                           rank_one_povm=all(operator_rank(x) == 1 for x in a))


@dataclass
class BoundReport:
    """Every information quantity and bound for one instance, in nats."""

    dim: int
    seed: object
    info_i: float
    info_f: float
    chi: float
    dual: float
    sww: float
    sww_alt: float
    eqx: float
    spectrum_identity_dev: float
    flags: SaturationFlags
    slacks: dict = field(default_factory=dict)

    def min_slack(self) -> float:
        return min(self.slacks.values())


def _spectrum_deviation(spectra: np.ndarray, analysis: OutcomeAnalysis) -> float:
    live = analysis.effective_outcomes()
    right = analysis.outcome_probs[live, None] * analysis.post_spectra[live]
    return float(np.max(np.abs(spectra[live] - right), initial=0.0))


def spectrum_identity_deviation(rho: DensityOperator, measurement: Measurement,
                                analysis: OutcomeAnalysis) -> float:
    """Largest per-outcome deviation between the sorted spectra of
    sqrt(rho) E_j sqrt(rho) and Q_j rho'_j."""
    return _spectrum_deviation(_dual_and_spectra(rho, measurement)[1], analysis)


def bound_report(ensemble: Ensemble, measurement: Measurement,
                 seed=None, analysis: OutcomeAnalysis | None = None) -> BoundReport:
    """Evaluate the full chain of quantities and bounds for one instance."""
    if analysis is None:
        analysis = apply_measurement(measurement, ensemble)
    rho = ensemble_state(ensemble)
    info_i = mutual_information(analysis)
    info_f = info_gain_f(analysis)
    chi = holevo_chi(ensemble)
    dual, spectra_dual = _dual_and_spectra(rho, measurement)
    sww_terms = _sww_terms_form(analysis, chi)
    sww_chi = _sww_chi_form(analysis, chi)
    eqx = eqx_rhs(analysis)
    dev = _spectrum_deviation(spectra_dual, analysis)
    slacks = {
        "info_i_nonneg": info_i,
        "info_f_minus_info_i": info_f - info_i,
        "sww_minus_info_i": sww_chi - info_i,
        "chi_minus_sww": chi - sww_chi,
        "dual_minus_info_i": dual - info_i,
    }
    return BoundReport(dim=ensemble.dim, seed=seed, info_i=info_i, info_f=info_f,
                       chi=chi, dual=dual, sww=sww_chi, sww_alt=sww_terms,
                       eqx=eqx, spectrum_identity_dev=dev,
                       flags=saturation_predicates(ensemble, measurement),
                       slacks=slacks)
