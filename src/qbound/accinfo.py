"""Lower bounds on the accessible information over rank-one POVMs
Π_k = v_k v_k†, complete when sum_k Π_k = 1, by the iteration of Řeháček,
Englert and Kaszlikowski (PRA 71, 054303, 2005) along conjugate directions
(Polak and Ribière, 1969): a step moves v along g_k = (R_k − Λ_h) v_k plus β times
the last direction, with R_k = sum_i p_i ln(tr ρ_i Π_k / tr ρ Π_k) ρ_i and Λ_h the
Hermitian part of Λ = sum_k R_k Π_k, and completes the result w to v = G^(-1/2) w,
G = sum_k w_k w_k†. Members enter as factors B_i (ρ_i = B_i B_i†) stacked in one
(dim, n) matrix F, so tr ρ_i Π_k and R_k v_k are products with F. All restarts run
in lockstep as one (B, K, dim) stack under a mask of live ones. The search is
deterministic for a seed; its output is the value of an explicit measurement.

For two equiprobable pure states with overlap s the symmetric projective measurement
is optimal (Levitin, "Optimal quantum measurements for two pure and mixed states",
1995): the accessible information is ln 2 - H2(p), p = (1 - sqrt(1 - s^2)) / 2,
checked in the tests against a projective sweep (``tests/two_state_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infomeasures import mutual_information, shannon
from .qobjects import Ensemble, Measurement, _factors, apply_measurement

# Multiples of ε scored in a step, the shrink of ε when none improves, the floor of tr ρ Π_k.
_STEPS, _SHRINK, _TINY = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]), 1.0 / 16.0, np.finfo(float).tiny
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


def _check_search(dim: int, n_outcomes: int | None, budget: int, restarts: int) -> int:
    """Outcome count (default dim²); :class:`SearchConfigError` unless 100 <= budget <=
    MAX_BUDGET, 1 <= restarts <= min(budget, MAX_RESTARTS) and dim <= outcomes <= MAX_OUTCOMES."""
    if budget < 100:
        raise BudgetTooSmallError("budget must be at least 100 evaluations")
    if budget > MAX_BUDGET or not 1 <= restarts <= min(budget, MAX_RESTARTS):
        raise SearchConfigError(f"need budget <= {MAX_BUDGET} and restarts in [1, min(budget, "
                                f"{MAX_RESTARTS})], got budget={budget}, restarts={restarts}")
    k = n_outcomes if n_outcomes is not None else dim * dim
    if not dim <= k <= MAX_OUTCOMES:
        raise SearchConfigError(f"outcomes must lie in [dim={dim}, {MAX_OUTCOMES}], got {k}")
    return k


def _objective(v: np.ndarray, probs: np.ndarray, factors: np.ndarray):
    """Complete each (K, dim) vector stack in v (B, K, dim) to G^(-1/2) v.
    Returns the mutual information of each, or -inf where its rows do not
    span the space, the completed vectors, and the (B, K, I) weights
    p_i ln(tr ρ_i Π_k / tr ρ Π_k) of ρ_i in R_k (0 ln 0 = 0), tr ρ_i Π_k being
    |F† v_k|² summed over member i's n / I columns. Bit for bit batch-invariant."""
    w, u = np.linalg.eigh(v.swapaxes(1, 2) @ v.conj())
    spans = w[:, 0] > 1e-10 * w[:, -1]
    wv = v @ (u.conj() / np.sqrt(np.where(spans[:, None], w, 1.0))[:, None, :]) @ u.swapaxes(1, 2)
    amps = (wv @ factors.conj()).view(float).reshape(wv.shape[:2] + (probs.size, -1))
    cond = np.einsum("nkic,nkic->nki", amps, amps)
    ratio = cond / np.maximum(cond @ probs, _TINY)[..., None]
    weights = probs * np.log(np.where(cond > 0.0, ratio, 1.0))
    return np.where(spans, (cond * weights).sum(axis=(1, 2)), -np.inf), wv, weights


def _stationarity(v: np.ndarray, weights: np.ndarray, factors: np.ndarray) -> float:
    """max(‖Λ − Λ†‖, max_k λ_max(R_k − Λ_h)) for the complete vectors v (K, dim) with
    their ``_objective`` weights, where Λ = sum_k R_k Π_k and Λ_h is its Hermitian part:
    ~0 at an optimum, by Holevo's conditions (1973) Λ = Λ† and Λ − R_k ⪰ 0. Necessary
    only: the information is convex in the POVM, so a stationary point need not be a maximum."""
    wide = np.repeat(weights, factors.shape[1] // weights.shape[1], axis=1)
    r = (factors * wide[:, None, :]) @ factors.conj().T
    lam = np.einsum("kab,kb,kc->ac", r, v, v.conj())
    top = np.linalg.eigvalsh(r - (lam + lam.conj().T) / 2.0)[:, -1].max()
    return float(max(np.linalg.norm(lam - lam.conj().T), top))


def maximize_mutual_info(ensemble: Ensemble, n_outcomes: int | None = None,
                         budget: int = 4000, restarts: int = 4,
                         seed: int = 0) -> OptResult:
    """Maximize the index information over rank-one POVMs of ``n_outcomes``
    outcomes (default dim²) by the REK iteration (2005) along d = g + β d_prev,
    d_prev the last accepted direction, with Polak–Ribière+ (1969) β = max(0,
    Re⟨g, g − g_prev⟩ / ‖g_prev‖²), reset to 0 after a step that does not improve
    and where |Re⟨g, g_prev⟩| ≥ 0.2 ‖g‖² (Powell, Math. Program. 12, 241, 1977).
    A step scores v + ε·{1/4, …, 8}·d for every restart in one call, and a mask of live
    restarts decides the rest: a live restart keeps its best candidate if it improves
    (ε becomes that step) or shrinks ε 16-fold, and stops when a step gains less than
    1e-14 or ε falls below 1e-12. Each scored candidate of a live restart is charged to
    the budget, and a restart takes at most (budget // restarts - 1) // 6 steps, so a
    larger budget extends the same trajectories. Raises as ``_check_search``."""
    dim, probs = ensemble.dim, ensemble.probs
    k = _check_search(dim, n_outcomes, budget, restarts)
    factors = _factors(ensemble.states).transpose(1, 0, 2).reshape(dim, -1)
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    start = [(g.normal(size=(k, dim)) + 1j * g.normal(size=(k, dim))) / np.sqrt(2) for g in rngs]
    val, v, weights = _objective(np.stack(start), probs, factors)
    spent, eps, live = restarts, np.ones(restarts), np.isfinite(val)
    trace = [(spent, float(val.max()))] if live.any() else []
    g_prev = d_prev = np.zeros_like(v)
    gg_prev, conj, width = np.zeros(restarts), factors.conj(), factors.shape[1] // probs.size
    for _ in range((budget // restarts - 1) // _STEPS.size):
        if not live.any():
            break
        rv = ((v @ conj) * np.repeat(weights, width, axis=2)) @ factors.T  # R_k v_k
        lam = rv.swapaxes(1, 2) @ v.conj()
        g = rv - v @ ((lam.swapaxes(1, 2) + lam.conj()) / 2.0)
        gf = g.view(float)  # Re⟨x, y⟩ is the dot product of the float views
        gg, gp = (gf * gf).sum(axis=(1, 2)), (gf * g_prev.view(float)).sum(axis=(1, 2))
        beta = np.maximum((gg - gp) / np.where(gg_prev > 0.0, gg_prev, 1.0), 0.0)
        beta = np.where(np.abs(gp) < 0.2 * gg, beta, 0.0)  # Powell's restart test
        d = g + beta[:, None, None] * d_prev
        cands = v[:, None] + (eps[:, None] * _STEPS)[:, :, None, None] * d[:, None]
        c_val, c_v, c_w = _objective(cands.reshape(-1, k, dim), probs, factors)
        spent += _STEPS.size * np.count_nonzero(live)
        pick = np.argmax(c_val.reshape(restarts, -1), axis=1)
        best = np.arange(restarts) * _STEPS.size + pick
        gain = c_val[best] - val
        up = live & (gain > 0.0)
        keep = up[:, None, None]
        val, v, weights = (np.where(up, c_val[best], val), np.where(keep, c_v[best], v),
                           np.where(keep, c_w[best], weights))
        g_prev, gg_prev = np.where(keep, g, g_prev), np.where(up, gg, gg_prev)  # last accepted
        d_prev = np.where(keep, d, 0.0)  # none, so β = 0, after a step that does not improve
        eps = np.where(up, eps * _STEPS[pick], eps * _SHRINK)
        live &= np.where(up, gain >= 1e-14, eps >= 1e-12)
        if val.max() > trace[-1][1]:
            trace.append((spent, float(val.max())))
    best = int(np.argmax(val))
    measurement = povm_from_vectors(v[best])
    value = mutual_information(apply_measurement(measurement, ensemble))
    return OptResult(best_value=value, best_measurement=measurement, trace=trace,
                     restarts=restarts, seed=seed, evaluations=spent,
                     stationarity=_stationarity(v[best], weights[best], factors))


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
