"""Lower bounds on the accessible information by direct search over
rank-one POVMs, plus the closed form for two equiprobable pure states.

The search space is K unnormalized complex vectors v_j; the induced POVM
E_j = S^(-1/2) v_j v_j† S^(-1/2) with S = sum_j v_j v_j† is complete by
construction, so every iterate is feasible. The optimizer is a multistart
coordinate search with shrinking step: derivative-free, deterministic for
a fixed seed, and its output is always a certified lower bound (the value
of an explicitly constructed measurement). Candidates of its fixed
schedule are scored a window at a time by one batched objective call but
charged and accepted one by one, so the schedule is that of a
one-at-a-time search.

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
from .qobjects import Ensemble, Measurement, _neg_xlogx, apply_measurement

# Candidates scored per objective call after an accepted move; the window
# doubles after each window without an improvement, up to WINDOW_MAX.
WINDOW, WINDOW_MAX = 8, 256


class SearchConfigError(ValueError):
    """Search arguments outside the supported range."""


class BudgetTooSmallError(SearchConfigError):
    """Evaluation budget below the supported minimum."""


@dataclass
class OptResult:
    """Outcome of a search: best value (nats), the measurement achieving it,
    the best-so-far trace (evaluation count, value) and evaluations spent."""

    best_value: float
    best_measurement: Measurement
    trace: list[tuple[int, float]]
    restarts: int
    seed: int
    evaluations: int


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


def _objective(v: np.ndarray, probs: np.ndarray, states: np.ndarray,
               h_probs: float) -> np.ndarray:
    """Mutual information of the POVM induced by each (K, dim) vector stack
    in v (B, K, dim), or -inf where its rows do not span the space;
    ``h_probs`` is the Shannon entropy of the prior."""
    s = v.swapaxes(1, 2) @ v.conj()
    w, u = np.linalg.eigh(s)
    spans = w[:, 0] > 1e-10 * w[:, -1]
    w = np.where(spans[:, None], w, 1.0)
    inv_root = (u / np.sqrt(w)[:, None, :]) @ u.conj().swapaxes(1, 2)
    wv = v @ inv_root.swapaxes(1, 2)
    cond = np.einsum("nja,iab,njb->nji", wv.conj(), states, wv).real
    joint = np.maximum(cond, 0.0) * probs
    qj = joint.sum(axis=2)
    info = h_probs - _neg_xlogx(joint.reshape(len(v), -1)) + _neg_xlogx(qj)
    return np.where(spans, info, -np.inf)


def maximize_mutual_info(ensemble: Ensemble, n_outcomes: int | None = None,
                         budget: int = 4000, restarts: int = 4,
                         seed: int = 0) -> OptResult:
    """Maximize the index information over rank-one POVMs.

    Multistart coordinate search: each restart perturbs one real parameter
    at a time by +step, then -step, moving to the first improvement and on
    to the next parameter, and halves the step after a sweep with no
    improvement. The budget counts objective evaluations and is split
    evenly across restarts; for a fixed seed the evaluation schedule of a
    larger budget extends that of a smaller one, so the best value is
    monotone in the budget. Raises :class:`SearchConfigError` for a budget
    below 100, restarts outside [1, budget] or fewer than dim outcomes.
    """
    if budget < 100:
        raise BudgetTooSmallError("budget must be at least 100 evaluations")
    if not 1 <= restarts <= budget:
        raise SearchConfigError(f"restarts must lie in [1, budget={budget}], got {restarts}")
    dim = ensemble.dim
    k = n_outcomes if n_outcomes is not None else dim * dim
    if k < dim:
        raise SearchConfigError("need at least dim outcomes for a complete rank-one POVM")
    probs = ensemble.probs
    states = np.stack([s.matrix for s in ensemble.states])
    h_probs = shannon(probs)
    per_restart = budget // restarts
    n_cand = 4 * k * dim  # +/- step on each real parameter: one sweep

    best_val = -np.inf
    best_v = None
    trace: list[tuple[int, float]] = []
    spent = 0
    for r in range(restarts):
        end = spent + per_restart
        rng = np.random.default_rng([seed, r])
        v = (rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))) / np.sqrt(2)
        val = _objective(v[np.newaxis], probs, states, h_probs)[0]
        spent += 1
        if val > best_val:
            best_val, best_v = val, v
            trace.append((spent, val))
        step, improved, pos, window = 1.0, False, 0, WINDOW
        while spent < end and step > 1e-9:
            idx = pos + np.arange(min(window, end - spent, n_cand - pos))
            cands = np.repeat(v[np.newaxis], len(idx), axis=0)
            cands.view(float).reshape(len(idx), -1)[np.arange(len(idx)), idx // 2] \
                += np.where(idx % 2, -step, step)
            vals = _objective(cands, probs, states, h_probs)
            hits = np.flatnonzero(vals > val)
            if hits.size:  # charge up to the first improvement, move on from it
                t = int(hits[0])
                v, val, spent = cands[t], vals[t], spent + t + 1
                improved, pos, window = True, 2 * (int(idx[t]) // 2 + 1), WINDOW
                if val > best_val:
                    best_val, best_v = val, v
                    trace.append((spent, val))
            else:
                pos, spent, window = pos + len(idx), spent + len(idx), min(2 * window, WINDOW_MAX)
            if pos == n_cand:  # end of a sweep
                if not improved:
                    step *= 0.5
                improved, pos = False, 0

    measurement = povm_from_vectors(best_v)
    value = mutual_information(apply_measurement(measurement, ensemble))
    return OptResult(best_value=value, best_measurement=measurement,
                     trace=trace, restarts=restarts, seed=seed, evaluations=spent)


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
