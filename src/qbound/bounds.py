"""Right-hand sides of the information bounds, equivalence checks, and
saturation predicates.

Each evaluator returns nats. ``bound_report`` bundles every quantity for
one (ensemble, measurement) instance, including the per-outcome spectrum
agreement between sqrt(rho) E_j sqrt(rho) and Q_j rho'_j that underlies
the equality of the dual bound with the entropy-reduction gain.
``bound_reports`` evaluates many instances as one stack, so each numpy or
LAPACK call serves them all; the per-instance evaluators are stacks of one.
The kernel takes the zero-padded batch of ``_padded`` or of a whole-job
draw (``qobjects._random_batch``), with each member's factor B_i, and forms
the factor products A_j B_i of the pairs that exist in one product;
``_chain_terms`` returns the chain as (K,) columns, ``BoundReport`` rows of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .infomeasures import (_conditional_gains, _info_f, _info_i, _subentropies, holevo_chi,
                           von_neumann)
from .matrixcore import (HERMITIAN_TOL, SUPPORT_TOL, hermitize, operator_rank, sqrt_psd,
                         support_projector)
from .qobjects import (PROB_FLOOR, PURITY_TOL, DensityOperator, DimensionMismatchError,
                       Ensemble, Measurement, OutcomeAnalysis, _checked_spectra,
                       _conditional_stage, _dot, _factors, _group_factors, _mixtures,
                       _outcome_stack, _pair_sums, _povm, _products, _scatter,
                       ensemble_state, entropies)


SWW_ROUTE_TOL = 1e-9  # largest disagreement allowed between the two ``sww`` routes
EQSPEC_TOL = 1e-8  # negligibility and proportionality tolerance of ``eqspec_check``


class NotPureEnsembleError(ValueError):
    """The bound requires a pure-state ensemble."""


class LengthMismatchError(ValueError):
    """Parallel argument lists have different lengths."""


def _dual_and_spectra(rho: np.ndarray, s_rho, povm: np.ndarray):
    """The dual bound of K instances from their (K, d, d) average states,
    its entropies and (K, J, d, d) POVM elements, with the (K, J, d)
    spectra of sqrt(rho) E_j sqrt(rho) it is built from (0 below the floor)."""
    root = sqrt_psd(rho)[:, None]
    x = hermitize(root @ povm @ root)
    q = np.ascontiguousarray(np.einsum("kjaa->kj", x).real)  # unit stride for BLAS dot
    live = q >= PROB_FLOOR
    spectra = _scatter(live, np.linalg.eigvalsh(x[live]))
    s_cond = entropies(spectra / np.where(live, q, 1.0)[..., None], where=live)
    return s_rho - _dot(q, s_cond), spectra


def dual_holevo_rhs(rho: DensityOperator, measurement: Measurement) -> float:
    """Upper bound on the index information for fixed measurement and
    average state: S[rho] - sum_j Q_j S[sqrt(rho) E_j sqrt(rho) / Q_j]."""
    if measurement.dim != rho.dim:
        raise ValueError("dimension mismatch between state and measurement")
    return float(_dual_and_spectra(rho.matrix[None], rho.entropy,
                                   _povm(measurement.kraus_stack[None]))[0][0])


def _sww_terms_form(stack: dict, chi):
    """Four-term form: S[rho] - sum_i P_i S[rho_i]
    - sum_j Q_j [S[rho'_j] - sum_i P(i|j) S[rho'_ji]], from the post-state
    and conditional post-state spectra; ``chi`` supplies the first two terms."""
    post = stack["posteriors"]
    weights = np.where(post >= PROB_FLOOR, post, 0.0)
    inner = stack["post_entropies"] - (weights * stack["cond_post_entropies"]).sum(axis=-1)
    return chi - _dot(stack["outcome_probs"], inner)


def _sww_chi_form(stack: dict, chi):
    """Holevo-difference form: chi[ensemble] - sum_j Q_j chi[posterior
    ensemble j]. Each posterior ensemble's average state is rebuilt from
    the conditional post states X X† / Q(j|i), never read from the post
    states, which cross-validates the mixture identity
    rho'_j = sum_i P(i|j) rho'_ji."""
    live = stack["outcome_probs"] >= PROB_FLOOR
    post, cond = stack["posteriors"], stack["cond_probs"]
    w = np.where((post >= PROB_FLOOR) & (cond >= PROB_FLOOR), post, 0.0)
    w /= np.where(live, w.sum(axis=-1), 1.0)[..., None]
    average = _pair_sums(w / np.where(cond >= PROB_FLOOR, cond, 1.0), stack["grams"],
                         stack["exists"])
    chis = _scatter(live, entropies(np.linalg.eigvalsh(average[live]))
                    - (w * stack["cond_post_entropies"]).sum(axis=-1)[live])
    return chi - _dot(stack["outcome_probs"], chis)


def sww_rhs(analysis: OutcomeAnalysis) -> float:
    """Right-hand side of the strengthened (posterior-corrected) bound.

    Both evaluation routes are computed and must agree within
    ``SWW_ROUTE_TOL``; the Holevo-difference route is returned.
    """
    if analysis.coarse:
        raise ValueError("the bound applies to efficient analyses")
    chi = holevo_chi(analysis.ensemble)
    terms = float(_sww_terms_form(analysis._stack, chi)[0])
    chi_form = float(_sww_chi_form(analysis._stack, chi)[0])
    if abs(terms - chi_form) > SWW_ROUTE_TOL:
        raise AssertionError(
            f"bound evaluation routes disagree: {terms} vs {chi_form}")
    return chi_form


def _eqx(stack: dict, s_rho, probs, gains):
    return s_rho - _dot(probs, gains) - _dot(stack["outcome_probs"], stack["post_entropies"])


def eqx_rhs(analysis: OutcomeAnalysis) -> float:
    """Equivalent rewrite via conditional gains:
    S[rho] - sum_i P_i dI_f(i) - sum_j Q_j S[rho'_j]."""
    if analysis.coarse:
        raise ValueError("the rewrite applies to efficient analyses")
    ens = analysis.ensemble
    gains = _conditional_gains(ens.member_entropies, analysis.cond_probs,
                               analysis.cond_post_entropies)
    return float(_eqx(analysis._stack, von_neumann(ensemble_state(ens)), ens.probs, gains)[0])


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
    sub = _subentropies(analysis.post_spectra, analysis.outcome_probs >= PROB_FLOOR)
    return float(acc_total - analysis.outcome_probs @ sub)


def eqspec_check(ensemble: Ensemble, measurement: Measurement):
    """Check whether all coding states agree up to a scalar on each
    outcome operator's support.

    For each outcome j, every state is compressed by the support projector
    of A_j. The candidate scalar for an ordered pair (i, k) is the trace
    ratio (the only possibility when proportionality holds). A compression
    is negligible when its trace is at most ``EQSPEC_TOL``; pairs where
    exactly one is non-negligible fail, pairs where both are pass
    vacuously, and the rest must agree within ``EQSPEC_TOL`` relative to
    their Frobenius scale. One conjugation per outcome; the pairwise
    distances are taken in blocks of 256 rows.

    Returns ``(satisfied, alphas)`` with ``alphas[i, k, j]`` the trace
    ratio (NaN where undefined).
    """
    if measurement.groups is not None:
        raise ValueError("condition applies to efficient measurements")
    if measurement.dim != ensemble.dim:
        raise ValueError("dimension mismatch")
    states = np.stack([s.matrix for s in ensemble.states])
    alphas = np.full((len(states), len(states), measurement.size), np.nan)
    satisfied = True
    for j, a in enumerate(measurement.kraus):
        proj = support_projector(a)
        comp = hermitize(proj @ states @ proj)
        traces = np.trace(comp, axis1=1, axis2=2).real
        big = np.flatnonzero(traces > EQSPEC_TOL)
        satisfied &= len(big) in (0, len(states))  # else a pair has exactly one negligible
        comp, traces, norms = comp[big], traces[big], np.linalg.norm(comp[big], axis=(1, 2))
        for lo in range(0, len(big), 256):
            rows = slice(lo, lo + 256)
            ratio = traces[rows, None] / traces
            np.fill_diagonal(ratio[:, lo:], np.nan)
            alphas[big[rows, None], big, j] = ratio
            diff = ratio[:, :, None, None] * comp
            diff = np.subtract(comp[rows, None], diff, out=diff).view(float)
            dist = np.sqrt(np.einsum("ikab,ikab->ik", diff, diff))
            scale = np.maximum(1.0, np.maximum(norms[rows, None], norms))
            satisfied &= not (dist > EQSPEC_TOL * scale).any()  # NaN on the diagonal compares False
            del diff  # before the next block's is allocated
    return bool(satisfied), alphas


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


def _all_commute(ops: np.ndarray) -> np.ndarray:
    """(K,) flags: whether each instance's (N, d, d) operators pass
    ``matrixcore.commutes`` pairwise (squared norms compared). Neighbours
    are checked first, where generic instances fail, then the rest of each
    row, each step only for the instances that still commute; zero
    (padded) operators commute with everything."""
    n_inst, n = ops.shape[:2]
    sq_norms = np.einsum("knx,knx->kn", *(ops.reshape(n_inst, n, -1).view(float),) * 2)
    alive = np.arange(n_inst)
    steps = [(k, k + 1, k + 2) for k in range(n - 1)] + [(k, k + 2, n) for k in range(n - 2)]
    for k, lo, hi in steps:
        x, rest = ops[:, k, None], ops[:, lo:hi]
        comm = x @ rest
        comm -= rest @ x
        flat = comm.reshape(len(alive), hi - lo, -1).view(float)
        limit = HERMITIAN_TOL ** 2 * np.maximum(1.0, sq_norms[:, k, None] * sq_norms[:, lo:hi])
        passed = (np.einsum("kjx,kjx->kj", flat, flat) <= limit).all(axis=-1)
        alive, ops, sq_norms = alive[passed], ops[passed], sq_norms[passed]
        if not alive.size:
            break
    return np.isin(np.arange(n_inst), alive)


def _padded(instances):
    """Zero-padded stacks of K instances on one space: probabilities (K, I),
    states (K, I, d, d), their spectra (K, I, d), Kraus operators
    (K, J, d, d), the masks of the members and outcomes that exist, and the
    member factors (K, I, d, r) of ``qobjects._factors``."""
    dim = instances[0][0].dim
    if any(e.dim != dim or m.dim != dim for e, m in instances):
        raise DimensionMismatchError("ensembles and measurements must share one dimension")
    n_mem = np.array([e.size for e, _ in instances])
    n_out = np.array([m.size for _, m in instances])
    members = np.arange(n_mem.max()) < n_mem[:, None]
    outcomes = np.arange(n_out.max()) < n_out[:, None]
    states = [s for e, _ in instances for s in e.states]
    return (_scatter(members, np.concatenate([e.probs for e, _ in instances])),
            _scatter(members, [s.matrix for s in states]),
            _scatter(members, [s.eigenvalues for s in states]),
            _scatter(outcomes, np.concatenate([m.kraus_stack for _, m in instances])),
            members, outcomes, _scatter(members, _factors(states)))


def _flags(batch) -> list[SaturationFlags]:
    """Saturation flags of a ``_padded`` batch; the ranks come from one
    batched singular-value call over the outcomes that exist."""
    _, states, spectra, kraus, members, outcomes, _ = batch
    s = np.linalg.svd(kraus[outcomes], compute_uv=False)
    rank_one = np.ones(outcomes.shape, dtype=bool)
    rank_one[outcomes] = (s > SUPPORT_TOL * s[:, :1]).sum(axis=-1) == 1
    pure = (spectra[..., -1] >= 1.0 - PURITY_TOL) | ~members
    return [SaturationFlags(*f) for f in zip(
        _all_commute(_povm(kraus)).tolist(),
        _all_commute(np.concatenate([states, kraus], 1)).tolist(),
        pure.all(axis=-1).tolist(), rank_one.all(axis=-1).tolist())]


def saturation_predicates(ensemble: Ensemble, measurement: Measurement) -> SaturationFlags:
    """Structural flags tied to saturation of the bounds.

    Commuting POVM elements are necessary (not sufficient) for the dual
    bound to be tight; mutually commuting states and Kraus operators make
    the instance classical. Tolerances are those of ``matrixcore.commutes``
    and ``matrixcore.operator_rank``.
    """
    return _flags(_padded([(ensemble, measurement)]))[0]


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


def _spectrum_deviation(spectra: np.ndarray, stack: dict) -> np.ndarray:
    live = (stack["outcome_probs"] >= PROB_FLOOR)[..., None]
    right = stack["outcome_probs"][..., None] * stack["post_spectra"]
    return np.where(live, np.abs(spectra - right), 0.0).max(axis=(-2, -1), initial=0.0)


def spectrum_identity_deviation(rho: DensityOperator, measurement: Measurement,
                                analysis: OutcomeAnalysis) -> float:
    """Largest per-outcome deviation between the sorted spectra of
    sqrt(rho) E_j sqrt(rho) and Q_j rho'_j."""
    spectra = _dual_and_spectra(rho.matrix[None], rho.entropy,
                                _povm(measurement.kraus_stack[None]))[1]
    return float(_spectrum_deviation(spectra, analysis._stack)[0])


def _chi_stage(batch):
    """First stage of the stacked kernel over a ``_padded`` batch of K
    instances: rho (K, d, d), S[rho] (K,), member entropies and chi."""
    probs, states, spectra, _, members, _, _ = batch
    rho = _mixtures(probs, states)
    s_rho = entropies(_checked_spectra(rho))
    s_members = entropies(spectra, where=members)
    return rho, s_rho, s_members, s_rho - _dot(probs, s_members)


def _pair_stack(batch) -> dict:
    """The ``_outcome_stack`` of a ``_padded`` batch, its factor products
    formed by one batched product over the pairs that exist only."""
    probs, _, _, kraus, members, outcomes, factors = batch
    exists = outcomes[:, :, None] & members[:, None, :]
    k, j, i = np.nonzero(exists)
    return _outcome_stack(probs, kraus[k, j] @ factors[k, i], exists)


def _coarse_terms(ensemble: Ensemble, kraus: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray]:
    """I_i and I_f of one ensemble under the K inefficient measurements of a
    complete (K, J, d, d) Kraus stack that share one outcome grouping, as (K,)
    arrays from one factor product and one ``_outcome_stack`` of their groups."""
    x = _group_factors(_products(kraus, _factors(ensemble.states)), groups)
    probs = np.broadcast_to(ensemble.probs, x.shape[:1] + ensemble.probs.shape)
    stack = _outcome_stack(probs, x.reshape((-1,) + x.shape[-2:]), np.ones(x.shape[:3], bool))
    return _info_i(probs, stack), _info_f(von_neumann(ensemble_state(ensemble)), stack)


def _corollary_terms(batch):
    """chi, I_i and sum_j Q_j Q[rho'_j] of a ``_padded`` batch, as (K,) arrays."""
    chi = _chi_stage(batch)[-1]
    stack = _pair_stack(batch)
    sub = _subentropies(stack["post_spectra"], stack["outcome_probs"] >= PROB_FLOOR)
    return chi, _info_i(batch[0], stack), _dot(stack["outcome_probs"], sub)


def _chain_terms(batch, stack=None) -> tuple[dict, dict]:
    """The bound chain of a ``_padded`` batch as (K,) columns: the
    quantities of ``BoundReport`` in its field order, and its seven slacks,
    ``purification`` the least S[rho_i] - sum_j Q(j|i) S[rho'_ji] over the
    members above the floor. The outcome stack, unless given, is built
    last, so that the other temporaries never sit on top of it."""
    rho, s_rho, s_members, chi = _chi_stage(batch)
    probs = batch[0]
    dual, spectra_dual = _dual_and_spectra(rho, s_rho, _povm(batch[3]))
    stack = _conditional_stage(_pair_stack(batch) if stack is None else stack)
    gains = _conditional_gains(s_members, stack["cond_probs"], stack["cond_post_entropies"])
    info_i, info_f, sww = _info_i(probs, stack), _info_f(s_rho, stack), _sww_chi_form(stack, chi)
    terms = {"info_i": info_i, "info_f": info_f, "chi": chi, "dual": dual, "sww": sww,
             "sww_alt": _sww_terms_form(stack, chi), "eqx": _eqx(stack, s_rho, probs, gains),
             "spectrum_dev": _spectrum_deviation(spectra_dual, stack)}
    slacks = {"info_i_nonneg": info_i, "info_f_minus_info_i": info_f - info_i,
              "sww_minus_info_i": sww - info_i, "chi_minus_sww": chi - sww,
              "dual_minus_info_i": dual - info_i, "info_f_minus_sww": info_f - sww,
              "purification": np.where(probs >= PROB_FLOOR, gains, np.inf).min(axis=-1)}
    return terms, slacks


def _reports(batch, seeds, stack=None) -> list[BoundReport]:
    """The ``BoundReport`` of each instance of a ``_padded`` batch, built from
    its flags and the columns of ``_chain_terms``."""
    flags = _flags(batch)
    terms, slacks = _chain_terms(batch, stack)
    rows = zip(seeds, flags, zip(*(c.tolist() for c in terms.values())),
               zip(*(c.tolist() for c in slacks.values())))
    return [BoundReport(batch[1].shape[-1], seed, *values, flag, dict(zip(slacks, row)))
            for seed, flag, values, row in rows]


def bound_reports(instances, seeds=None) -> list[BoundReport]:
    """``bound_report`` of every (ensemble, measurement) pair, all on one
    space, evaluated as one stacked batch; ``seeds`` label the reports."""
    instances = list(instances)
    seeds = [None] * len(instances) if seeds is None else list(seeds)
    if len(seeds) != len(instances):
        raise LengthMismatchError("bound_reports needs one seed per instance")
    return _reports(_padded(instances), seeds) if instances else []


def bound_report(ensemble: Ensemble, measurement: Measurement,
                 seed=None, analysis: OutcomeAnalysis | None = None) -> BoundReport:
    """Evaluate the full chain of quantities and bounds for one instance,
    as a batch of one that reuses ``analysis`` of this instance if given."""
    stack = None if analysis is None else analysis._stack
    return _reports(_padded([(ensemble, measurement)]), [seed], stack)[0]
