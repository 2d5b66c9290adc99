"""Lower bounds on the accessible information over rank-one POVMs
Π_k = v_k v_k†, complete when sum_k Π_k = 1, by the iteration of Řeháček,
Englert and Kaszlikowski (PRA 71, 054303, 2005): w_k = v_k + ε R_k v_k with
R_k = sum_i p_i ln(tr ρ_i Π_k / tr ρ Π_k) ρ_i, completed again to
v = G^(-1/2) w with G = sum_k w_k w_k†. All restarts run in lockstep as one
(B, K, dim) stack. The search is deterministic for a fixed seed, and its
output is always a certified lower bound (the value of an explicitly
constructed measurement).

For two equiprobable pure states with overlap s the symmetric projective
measurement is optimal (Levitin, "Optimal quantum measurements for two pure
and mixed states", 1995), so the accessible information is ln 2 - H2(p)
with p = (1 - sqrt(1 - s^2)) / 2. The tests check this closed form against
a brute-force sweep of projective measurements (``tests/two_state_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infomeasures import mutual_information, shannon
from .qobjects import Ensemble, Measurement, apply_measurement

# Multiples of ε scored in a step, and the shrink of ε when none improves.
_STEPS, _SHRINK = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]), 1.0 / 16.0
# Largest counts accepted: a step scores a (restarts, 6, outcomes, dim) stack.
MAX_BUDGET, MAX_RESTARTS, MAX_OUTCOMES = 10 ** 6, 100, 1024


class SearchConfigError(ValueError):
    """Search arguments outside the supported range."""


class BudgetTooSmallError(SearchConfigError):
    """Evaluation budget below the supported minimum."""


@dataclass
class OptResult:
    """Outcome of a search: best value (nats), the measurement achieving it,
    the best-so-far trace (evaluation count, value), evaluations spent and
    the stationarity residual of the measurement (see ``_stationarity``)."""

    best_value: float
    best_measurement: Measurement
    trace: list[tuple[int, float]]
    restarts: int
    seed: int
    evaluations: int
    stationarity: float


def povm_from_vectors(vectors) -> Measurement:
    """Measurement with rank-one Kraus operators induced by K vectors.

    Vectors of negligible norm after the completeness normalization are
    dropped. Raises if the vectors do not span the space (no rank-one
    completion exists on a deficient span).
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise ValueError("expected a (K, dim) array of vectors")
    s = v.T @ v.conj()
    w, u = np.linalg.eigh(s)
    if w[0] <= 1e-12 * w[-1]:
        raise ValueError("vectors do not span the space; POVM cannot be complete")
    inv_root = (u / np.sqrt(w)) @ u.conj().T
    kraus = []
    for row in v @ inv_root.T:
        nrm = np.linalg.norm(row)
        if nrm > 1e-12:
            kraus.append(np.outer(row, row.conj()) / nrm)
    return Measurement(kraus)


def _objective(v: np.ndarray, probs: np.ndarray, states: np.ndarray):
    """Complete each (K, dim) vector stack in v (B, K, dim) to G^(-1/2) v.
    Returns the mutual information of each, or -inf where its rows do not
    span the space, the completed vectors, and the (B, K, I) weights
    p_i ln(tr ρ_i Π_k / tr ρ Π_k) of ρ_i in R_k, with 0 ln 0 = 0."""
    w, u = np.linalg.eigh(v.swapaxes(1, 2) @ v.conj())
    spans = w[:, 0] > 1e-10 * w[:, -1]
    w = np.where(spans[:, None], w, 1.0)
    wv = v @ (u.conj() / np.sqrt(w)[:, None, :]) @ u.swapaxes(1, 2)
    cond = np.maximum(np.einsum("nja,iab,njb->nji", wv.conj(), states, wv).real, 0.0)
    ratio = cond / np.maximum(cond @ probs, np.finfo(float).tiny)[..., None]
    weights = probs * np.log(np.where(cond > 0.0, ratio, 1.0))
    return np.where(spans, (cond * weights).sum(axis=(1, 2)), -np.inf), wv, weights


def _stationarity(v: np.ndarray, weights: np.ndarray, states: np.ndarray) -> float:
    """max(‖Λ − Λ†‖, max_k λ_max(R_k − Λ_h)) for the complete vectors v
    (K, dim) with their ``_objective`` weights, where Λ = sum_k R_k Π_k and
    Λ_h is its Hermitian part. Holevo's conditions (1973) for an optimal
    POVM are Λ = Λ† and Λ − R_k ⪰ 0, so the residual is ~0 at an optimum.
    It is a necessary condition, not a global certificate: the mutual
    information is convex in the POVM, so a stationary point need not be
    a maximum."""
    r = np.einsum("ki,iab->kab", weights, states)
    lam = np.einsum("kab,kb,kc->ac", r, v, v.conj())
    top = np.linalg.eigvalsh(r - (lam + lam.conj().T) / 2.0)[:, -1].max()
    return float(max(np.linalg.norm(lam - lam.conj().T), top))


def maximize_mutual_info(ensemble: Ensemble, n_outcomes: int | None = None,
                         budget: int = 4000, restarts: int = 4,
                         seed: int = 0) -> OptResult:
    """Maximize the index information over rank-one POVMs of ``n_outcomes``
    outcomes (default dim²) by the Řeháček–Englert–Kaszlikowski iteration.
    Each step scores every live restart at
    ε·{1/4, 1/2, 1, 2, 4, 8} in one batched call and keeps its best
    candidate if it improves; if none does, ε shrinks 16-fold. A restart
    stops when a step gains less than 1e-14 or ε falls below 1e-12. Every
    scored candidate is charged to the budget, and a restart takes at most
    (budget // restarts - 1) // 6 steps, so a larger budget extends the same
    trajectories and the best value is monotone in the budget. Raises
    :class:`SearchConfigError` for a budget outside [100, MAX_BUDGET],
    restarts outside [1, min(budget, MAX_RESTARTS)] or outcomes outside
    [dim, MAX_OUTCOMES]."""
    if budget < 100:
        raise BudgetTooSmallError("budget must be at least 100 evaluations")
    if budget > MAX_BUDGET or not 1 <= restarts <= min(budget, MAX_RESTARTS):
        raise SearchConfigError(f"need budget <= {MAX_BUDGET} and restarts in [1, min(budget, "
                                f"{MAX_RESTARTS})], got budget={budget}, restarts={restarts}")
    dim = ensemble.dim
    k = n_outcomes if n_outcomes is not None else dim * dim
    if not dim <= k <= MAX_OUTCOMES:
        raise SearchConfigError(f"outcomes must lie in [dim={dim}, {MAX_OUTCOMES}], got {k}")
    probs = ensemble.probs
    states = np.stack([s.matrix for s in ensemble.states])
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    start = [(g.normal(size=(k, dim)) + 1j * g.normal(size=(k, dim))) / np.sqrt(2) for g in rngs]
    val, v, weights = _objective(np.stack(start), probs, states)
    spent, eps, live = restarts, np.ones(restarts), np.isfinite(val)
    trace = [(spent, float(val.max()))] if live.any() else []
    for _ in range((budget // restarts - 1) // _STEPS.size):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        rv = np.einsum("nki,iab,nkb->nka", weights[idx], states, v[idx])
        steps = eps[idx, None] * _STEPS
        cands = v[idx, None] + steps[:, :, None, None] * rv[:, None]
        c_val, c_v, c_w = _objective(cands.reshape(-1, k, dim), probs, states)
        spent += c_val.size
        rows, pick = np.arange(idx.size), np.argmax(c_val.reshape(-1, _STEPS.size), axis=1)
        flat = rows * _STEPS.size + pick
        gain = c_val[flat] - val[idx]
        up = gain > 0.0
        val[idx[up]], v[idx[up]], weights[idx[up]] = c_val[flat[up]], c_v[flat[up]], c_w[flat[up]]
        eps[idx] = np.where(up, steps[rows, pick], eps[idx] * _SHRINK)
        live[idx] = np.where(up, gain >= 1e-14, eps[idx] >= 1e-12)
        if val.max() > trace[-1][1]:
            trace.append((spent, float(val.max())))
    best = int(np.argmax(val))
    measurement = povm_from_vectors(v[best])
    value = mutual_information(apply_measurement(measurement, ensemble))
    return OptResult(best_value=value, best_measurement=measurement, trace=trace,
                     restarts=restarts, seed=seed, evaluations=spent,
                     stationarity=_stationarity(v[best], weights[best], states))


def two_state_reference(overlap: float) -> float:
    """Accessible information of two equiprobable pure states with overlap
    modulus ``overlap``: ln 2 - H2(p) with p = (1 - sqrt(1 - s^2)) / 2,
    attained by the symmetric projective measurement (Levitin 1995).

    Raises ValueError for an overlap outside [0, 1] or NaN.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    p = (1.0 - np.sqrt((1.0 - overlap) * (1.0 + overlap))) / 2.0
    return float(np.log(2.0) - shannon([p, 1.0 - p]))
