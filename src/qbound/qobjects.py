"""Ensembles, generalized measurements, and the measurement-application engine.

The objects here are immutable after construction and validate their
defining invariants eagerly (Hermiticity, positivity, unit trace,
completeness, partition structure). :func:`apply_measurement` produces the
full joint outcome statistics — outcome probabilities, likelihoods,
posteriors, post-measurement states, their spectra and von Neumann
entropies — that every information quantity downstream consumes.

JSON wire formats (shared with the command-line layer):

* matrix:      ``{"dim": N, "rows": [[[re, im], ...], ...]}`` row-major
* ensemble:    ``{"probs": [...], "states": [matrix, ...]}``
* measurement: ``{"kraus": [matrix, ...], "groups": [[i, ...], ...]}``
  (``groups`` optional)
"""

from __future__ import annotations

import numpy as np

from .matrixcore import as_square_complex, hermitize

# Outcomes with probability below this are kept in the records but carry
# zero weight: no posterior state is formed and entropy averages skip them.
PROB_FLOOR = 1e-12

PURITY_TOL = 1e-8

# Eigenvalues below this are snapped to exactly zero before renormalizing,
# so pure spectra become exactly {0, ..., 0, 1}.
ZERO_SNAP = 1e-12


class InvalidDistributionError(ValueError):
    """Probability vector is not a distribution within tolerance."""


class DimensionMismatchError(ValueError):
    """Operands act on different Hilbert-space dimensions."""


class EmptyGroupError(ValueError):
    """An outcome group in a coarse-graining is empty."""


def _neg_xlogx(p: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, counting only positive entries."""
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, stacked, by the BLAS dot of ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _clean_spectrum(eigs: np.ndarray) -> np.ndarray:
    """Clip and renormalize density-operator spectra along the last axis.

    Values below ZERO_SNAP, negative roundoff included, become exactly 0
    and the rest are rescaled to sum to one. Drift beyond 1e-8 is an
    error rather than silently fixed.
    """
    lam = np.where(eigs < ZERO_SNAP, 0.0, eigs)
    s = lam.sum(axis=-1, keepdims=True)
    if (abs(s - 1.0) > 1e-8).any():
        raise InvalidDistributionError(f"spectrum sums to {s.ravel()}, expected 1")
    return lam / s


def entropies(spectra, where=None) -> np.ndarray:
    """Von Neumann entropies in nats of a stack of spectra (..., n); entries
    where the boolean ``where`` is false are 0 and go unchecked."""
    spectra = np.asarray(spectra, dtype=float)
    if where is None:
        return _neg_xlogx(_clean_spectrum(spectra))
    out = np.zeros(spectra.shape[:-1])
    out[where] = _neg_xlogx(_clean_spectrum(spectra[where]))
    return out


def _checked_spectra(m: np.ndarray) -> np.ndarray:
    """Spectra (ascending, negative roundoff clipped) of a (n, d, d) stack of
    density operators, each checked to be Hermitian and positive within 1e-8
    of its Frobenius norm (floored at 1) and of unit trace within 1e-8."""
    scale = np.maximum(1.0, np.linalg.norm(m, axis=(1, 2)))
    if not (np.linalg.norm(m - m.conj().swapaxes(1, 2), axis=(1, 2)) <= 1e-8 * scale).all():
        raise ValueError("density operator must be Hermitian")
    trace = np.trace(m, axis1=1, axis2=2)
    if not ((abs(trace.real - 1.0) <= 1e-8) & (abs(trace.imag) <= 1e-8)).all():
        raise ValueError(f"density operator must have unit trace, got {trace}")
    eigenvalues = np.linalg.eigvalsh(m)
    if not (eigenvalues[:, 0] >= -1e-8 * scale).all():
        raise ValueError(f"density operator has eigenvalue {eigenvalues.min():.3e} < -1e-8")
    return np.where(eigenvalues < 0.0, 0.0, eigenvalues)


class DensityOperator:
    """A positive semidefinite, unit-trace operator."""

    __slots__ = ("_matrix", "_eigenvalues", "_entropy")

    def __init__(self, matrix):
        m = as_square_complex(matrix).copy()
        self._eigenvalues = _checked_spectra(m[None])[0]
        self._matrix = _frozen(m)
        self._entropy = None

    @classmethod
    def _derived(cls, matrix: np.ndarray, eigenvalues: np.ndarray) -> "DensityOperator":
        """View a read-only matrix with its clipped spectrum, not checked again."""
        rho = cls.__new__(cls)
        rho._matrix = matrix
        rho._eigenvalues = eigenvalues
        rho._entropy = None
        return rho

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues, ascending, with negative roundoff clipped to zero."""
        return self._eigenvalues

    @property
    def entropy(self) -> float:
        """Von Neumann entropy -Tr rho ln rho in nats, computed once."""
        if self._entropy is None:
            self._entropy = float(entropies(self._eigenvalues))
        return self._entropy

    @property
    def is_pure(self) -> bool:
        return bool(self._eigenvalues[-1] >= 1.0 - PURITY_TOL)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim}, pure={self.is_pure})"


def pure_state(vector) -> DensityOperator:
    """Density operator |v><v| / <v|v> for a state vector."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    nrm2 = float(np.vdot(v, v).real)
    if nrm2 <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return DensityOperator(np.outer(v, v.conj()) / nrm2)


class Ensemble:
    """Probability-weighted collection of density operators on one space."""

    __slots__ = ("_probs", "_states", "_entropies", "_average")

    def __init__(self, probs, states):
        p = np.asarray(probs, dtype=float)
        states = tuple(
            s if isinstance(s, DensityOperator) else DensityOperator(s) for s in states
        )
        if p.ndim != 1 or len(p) != len(states):
            raise ValueError("probs and states must have equal length")
        if len(states) == 0:
            raise ValueError("ensemble must contain at least one state")
        if not np.isfinite(p).all() or np.any(p < -1e-12):
            raise ValueError("ensemble probabilities must be finite and non-negative")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"ensemble probabilities sum to {p.sum()}, expected 1")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise DimensionMismatchError("all ensemble states must share one dimension")
        p = np.where(p < 0.0, 0.0, p)
        p.setflags(write=False)
        self._probs = p
        self._states = states
        self._entropies = None
        self._average = None

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def states(self) -> tuple[DensityOperator, ...]:
        return self._states

    @property
    def member_entropies(self) -> np.ndarray:
        """(I,) von Neumann entropies of the members, computed once."""
        if self._entropies is None:
            self._entropies = _frozen(entropies([s.eigenvalues for s in self._states]))
        return self._entropies

    @property
    def dim(self) -> int:
        return self._states[0].dim

    @property
    def size(self) -> int:
        return len(self._states)

    @property
    def is_pure(self) -> bool:
        return all(s.is_pure for s in self._states)

    def __repr__(self):
        return f"Ensemble(size={self.size}, dim={self.dim}, pure={self.is_pure})"


class Measurement:
    """Generalized measurement given by Kraus operators with sum A†A = I.

    ``groups`` optionally partitions the outcome indices: an observer who
    only learns which group fired holds the group-averaged state (an
    inefficient measurement).
    """

    __slots__ = ("_stack", "_kraus", "_groups")

    def __init__(self, kraus, groups=None):
        stacked = isinstance(kraus, np.ndarray) and kraus.ndim == 3  # checked in one call
        ops = tuple(as_square_complex(kraus, stack=True) if stacked else map(as_square_complex, kraus))
        if not ops:
            raise ValueError("measurement needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(a.shape[0] != dim for a in ops):
            raise DimensionMismatchError("all Kraus operators must share one dimension")
        stack = _frozen(np.stack(ops))
        _check_complete(stack)
        if groups is not None:
            try:
                groups = tuple(map(tuple, groups))
            except TypeError as exc:
                raise ValueError(
                    f"groups must be a list of lists of outcome indices, got {groups!r}") from exc
            if not all(type(i) is int or isinstance(i, np.integer) for g in groups for i in g):
                raise ValueError(f"outcome indices must be integers, got {groups}")
            groups = tuple(tuple(map(int, g)) for g in groups)
            if any(len(g) == 0 for g in groups):
                raise EmptyGroupError("outcome groups must be non-empty")
            flat = sorted(i for g in groups for i in g)
            if flat != list(range(len(ops))):
                raise ValueError("groups must partition the outcome indices exactly")
        self._stack = stack
        self._kraus = tuple(stack)
        self._groups = groups

    @classmethod
    def _derived(cls, stack: np.ndarray) -> "Measurement":
        """View a read-only (J, d, d) stack known to be complete, not checked again."""
        meas = cls.__new__(cls)
        meas._stack, meas._kraus, meas._groups = stack, tuple(stack), None
        return meas

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return self._kraus

    @property
    def kraus_stack(self) -> np.ndarray:
        """Kraus operators stacked as a read-only (J, d, d) array."""
        return self._stack

    @property
    def dim(self) -> int:
        return self._kraus[0].shape[0]

    @property
    def size(self) -> int:
        return len(self._kraus)

    @property
    def groups(self):
        return self._groups

    def __repr__(self):
        g = f", groups={len(self._groups)}" if self._groups else ""
        return f"Measurement(outcomes={self.size}, dim={self.dim}{g})"


# The arrays an OutcomeAnalysis reads from its stack of one instance.
_OUTCOME_FIELDS = ("outcome_probs", "cond_probs", "posteriors", "post_matrices", "post_spectra",
                   "post_entropies", "cond_post_spectra", "cond_post_entropies")


class OutcomeAnalysis:
    """Joint statistics of one measurement applied to one ensemble, as
    read-only stacked arrays over outcomes j and members i.

    The arrays derive from the unnormalized post states of member i under
    outcome j (summed over a group when coarse), whose traces give every
    probability, so Bayes Q_j P(i|j) = P_i Q(j|i) holds by construction:
    ``outcome_probs`` (J,), ``cond_probs`` Q(j|i) and ``posteriors`` (J, I),
    zero rows below the floor. ``post_matrices`` (J, d, d) and
    ``cond_post_matrices`` (J, I, d, d) carry clipped ascending
    ``*_spectra`` and ``*_entropies`` (both 0 below the floor). The arrays
    view a stack of one instance.
    """

    __slots__ = ("ensemble", "measurement", "coarse", "cond_post_matrices", "_stack",
                 *_OUTCOME_FIELDS)

    def __init__(self, ensemble, measurement, pieces, coarse=False):
        self.ensemble = ensemble
        self.measurement = measurement
        self.coarse = coarse
        n_out, n_mem, dim, _ = pieces.shape
        self._stack = _outcome_stack(ensemble.probs[None], hermitize(pieces).reshape(-1, dim, dim),
                                     np.ones((1, n_out, n_mem), bool))
        for name in _OUTCOME_FIELDS:
            setattr(self, name, self._stack[name][0])
        self.cond_post_matrices = self._stack["cond_post_matrices"].reshape(pieces.shape)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_probs)

    def effective_outcomes(self) -> np.ndarray:
        """Indices of outcomes carrying more than the probability floor."""
        return np.flatnonzero(self.outcome_probs >= PROB_FLOOR)

    def posterior_ensemble(self, j: int) -> Ensemble:
        """The ensemble of per-member post states conditioned on outcome j."""
        if self.outcome_probs[j] < PROB_FLOOR:
            raise ValueError(f"outcome {j} has negligible probability")
        keep = (self.posteriors[j] >= PROB_FLOOR) & (self.cond_probs[j] >= PROB_FLOOR)
        p = self.posteriors[j, keep]
        return Ensemble(p / p.sum(), map(DensityOperator._derived,
                                         _frozen(self.cond_post_matrices[j, keep]),
                                         self.cond_post_spectra[j, keep]))

    def __repr__(self):
        kind = "coarse" if self.coarse else "efficient"
        return (f"OutcomeAnalysis({kind}, outcomes={self.n_outcomes}, "
                f"members={self.ensemble.size})")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _mixtures(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Hermitized averages sum_i P_i rho_i of (K, I, d, d) states, member by member."""
    acc = np.zeros(states.shape[:1] + states.shape[2:], dtype=np.complex128)
    for i in range(states.shape[1]):
        acc += probs[:, i, None, None] * states[:, i]
    return hermitize(acc)


def ensemble_state(ensemble: Ensemble) -> DensityOperator:
    """Average state sum_i P_i rho_i of an ensemble, formed once per ensemble."""
    if ensemble._average is None:
        states = np.stack([s.matrix for s in ensemble.states])
        ensemble._average = DensityOperator(_mixtures(ensemble.probs[None], states[None])[0])
    return ensemble._average


def _povm(kraus: np.ndarray) -> np.ndarray:
    """POVM elements E_j = A_j† A_j of a (..., J, d, d) Kraus stack."""
    return kraus.conj().swapaxes(-1, -2) @ kraus


def _check_complete(kraus: np.ndarray) -> None:
    """Raise unless each (..., J, d, d) Kraus set has sum_j A_j† A_j = I within
    1e-8 in Frobenius norm; the norm of all of them at once settles most stacks."""
    dev = _povm(kraus).sum(axis=-3) - np.eye(kraus.shape[-1])
    if not np.linalg.norm(dev) <= 1e-8 and not (np.linalg.norm(dev, axis=(-2, -1)) <= 1e-8).all():
        raise ValueError("Kraus operators do not satisfy completeness")


def _conjugate(kraus: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Every conjugation A_kj rho_ki A_kj† of (..., J, d, d) Kraus operators
    and (..., I, d, d) states as a (..., J, I, d, d) stack, from two batched
    BLAS products over reshaped stacks (a three-operand einsum is ~5x slower)."""
    lead, (n_out, dim), n_mem = kraus.shape[:-3], kraus.shape[-3:-1], states.shape[-3]
    left = (kraus.reshape(lead + (n_out * dim, dim))
            @ states.swapaxes(-3, -2).reshape(lead + (dim, n_mem * dim)))
    both = left.reshape(lead + (n_out, dim * n_mem, dim)) @ kraus.conj().swapaxes(-1, -2)
    return both.reshape(lead + (n_out, dim, n_mem, dim)).swapaxes(-3, -2)


def _conjugations(measurement: Measurement, states: np.ndarray) -> np.ndarray:
    """The (J, I, d, d) Kraus conjugations of one measurement and a (I, d, d)
    stack of states."""
    if measurement.dim != states.shape[-1]:
        raise DimensionMismatchError(
            f"measurement dim {measurement.dim} != ensemble dim {states.shape[-1]}")
    return _conjugate(measurement.kraus_stack, states)


def _member_sums(weights: np.ndarray, pairs: np.ndarray, exists: np.ndarray) -> np.ndarray:
    """sum_i weights[k, j, i] M_kji of flat (L, d, d) pair matrices as a
    (K, J, d, d) stack, summed member by member as einsum sums, same bits;
    ``weights`` broadcasts to the (K, J, I) mask ``exists``."""
    if exists.all():  # no padding: the pairs are a (K, J, I, d, d) stack
        return np.einsum("kji,kjiab->kjab", weights, pairs.reshape(exists.shape + pairs.shape[1:]))
    weights = np.broadcast_to(weights, exists.shape)
    position = np.cumsum(exists).reshape(exists.shape) - 1
    acc = np.zeros(exists.shape[:2] + pairs.shape[1:], dtype=np.complex128)
    for i in range(exists.shape[2]):
        k, j = np.nonzero(exists[:, :, i])
        terms = pairs[position[k, j, i]]
        terms *= weights[k, j, i][:, None, None]
        acc[k, j] += terms
    return acc


def _spectra(matrices: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clipped ascending spectra and entropies of the live matrices of a
    stack (0 elsewhere), from one ``eigvalsh``; a copy only if some are not."""
    if live.all():
        spectra = np.maximum(np.linalg.eigvalsh(matrices), 0.0)
        return spectra, entropies(spectra)
    spectra = np.zeros(matrices.shape[:-1])
    spectra[live] = np.maximum(np.linalg.eigvalsh(matrices[live]), 0.0)
    return spectra, entropies(spectra, where=live)


def _outcome_stack(probs: np.ndarray, pairs: np.ndarray, exists: np.ndarray) -> dict:
    """``OutcomeAnalysis`` arrays of K instances, zero-padded with a leading
    instance axis, from (K, I) member probabilities and the Hermitian pieces
    of the pairs in the (K, J, I) mask ``exists``, flat (L, d, d); these are
    divided in place into ``cond_post_matrices``. Padded members and
    outcomes need no special case: they fall below ``PROB_FLOOR``."""
    cond = np.zeros(exists.shape)
    cond[exists] = np.maximum(np.einsum("laa->l", pairs).real, 0.0)
    outcome_probs = (cond @ probs[..., None])[..., 0]
    live, cond_live = outcome_probs >= PROB_FLOOR, cond >= PROB_FLOOR
    q = np.where(live, outcome_probs, 1.0)[..., None]
    out = {"exists": exists, "cond_probs": cond, "outcome_probs": outcome_probs,
           "posteriors": np.where(live[..., None], probs[:, None] * cond / q, 0.0),
           "post_matrices": _member_sums(probs[:, None], pairs, exists) / q[..., None],
           "cond_post_spectra": np.zeros(exists.shape + pairs.shape[-1:]),
           "cond_post_entropies": np.zeros(exists.shape)}
    pairs /= np.where(cond_live, cond, 1.0)[exists][:, None, None]
    out["cond_post_matrices"] = pairs
    out["post_spectra"], out["post_entropies"] = _spectra(out["post_matrices"], live)
    out["cond_post_spectra"][exists], out["cond_post_entropies"][exists] = _spectra(
        pairs, cond_live[exists])
    for a in out.values():
        _frozen(a)
    return out


def apply_measurement(measurement: Measurement, ensemble: Ensemble) -> OutcomeAnalysis:
    """Apply an efficient measurement: the observer learns the exact outcome."""
    states = np.stack([s.matrix for s in ensemble.states])
    return OutcomeAnalysis(ensemble, measurement, _conjugations(measurement, states))


def coarse_grain(measurement: Measurement, ensemble: Ensemble) -> OutcomeAnalysis:
    """Apply an inefficient measurement: outcomes are known only up to their group.

    Group k carries probability Q_k = sum of its members' Q_l and the
    averaged state (sum over the group of Kraus conjugations) / Q_k.
    """
    if measurement.groups is None:
        raise ValueError("coarse_grain requires a measurement with outcome groups")
    fine = _conjugations(measurement, np.stack([s.matrix for s in ensemble.states]))
    pieces = _group_sums(fine, measurement.groups)
    return OutcomeAnalysis(ensemble, measurement, pieces, coarse=True)


def _group_sums(fine: np.ndarray, groups) -> np.ndarray:
    """The (..., G, I, d, d) pieces of an inefficient measurement: a (..., J, I, d, d)
    stack of Kraus conjugations summed over each outcome group, in group order."""
    return np.stack([fine[..., list(g), :, :, :].sum(axis=-4) for g in groups], axis=-4)


def mix_measurements(m1: Measurement, m2: Measurement, lam: float) -> Measurement:
    """Probabilistic mixture of two measurements, grouped by outcome index.

    The result has Kraus operators sqrt(lam) A_j followed by sqrt(1-lam) B_k;
    a parent of weight 0 (lam exactly 0 or 1) contributes none. Group j
    holds outcome j of each parent that has one: the observer learns the
    outcome index but not which parent ran. ``Measurement(mix.kraus)`` is
    the efficient mixture. Parents with outcome groups are rejected.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    if m1.dim != m2.dim:
        raise DimensionMismatchError("mixed measurements must share one dimension")
    if m1.groups is not None or m2.groups is not None:
        raise ValueError("cannot mix measurements that have outcome groups")
    parts = [np.sqrt(w) * m.kraus_stack for w, m in ((lam, m1), (1.0 - lam, m2)) if w > 0.0]
    starts = (0, len(parts[0]))
    groups = [[start + j for start, part in zip(starts, parts) if j < len(part)]
              for j in range(max(map(len, parts)))]
    return Measurement(np.concatenate(parts), groups=groups)


def random_instance(dim: int, n_states: int, n_outcomes: int, pure: bool,
                    seed) -> tuple[Ensemble, Measurement]:
    """Draw a random ensemble and a random complete measurement.

    States are Haar-random pure states, or trace-normalized Wishart states
    when ``pure`` is false; probabilities come from the uniform simplex via
    sorted uniform spacings. The measurement takes ``n_outcomes`` Ginibre
    factors G_j with random rank <= dim (rows zeroed) and sets
    A_j = G_j S^(-1/2) with S = sum_j G_j† G_j, which is complete up to
    roundoff by construction. Deterministic for a fixed seed. A batch of
    one of :func:`_random_batch`, which draws whole jobs.
    """
    probs, states, spectra, kraus, _, _ = _random_batch(dim, [(seed, n_states, n_outcomes, pure)])
    return (Ensemble(probs[0], map(DensityOperator._derived, _frozen(states[0]), spectra[0])),
            Measurement._derived(_frozen(kraus[0])))


def _rank_draw(rng, dim: int, n_outcomes: int):
    """Ranks and the normal draw of one instance's Ginibre factors."""
    ranks = rng.integers(1, dim + 1, size=n_outcomes)
    while ranks.sum() < dim:  # the factors must jointly span the space
        pick = int(rng.integers(n_outcomes))
        if ranks[pick] < dim:
            ranks[pick] += 1
    return ranks, rng.normal(size=(n_outcomes, 2, dim, dim))


def _random_batch(dim: int, specs):
    """The instances ``random_instance`` draws from ``(seed, n_states,
    n_outcomes, pure)`` specs, as one zero-padded ``bounds._padded`` batch.
    Per instance only its own generator runs, in the one-instance order:
    uniform spacings, states, ranks, factors. The rest is stacked over the
    job (forming and checking the probabilities, the states and the factor
    totals, inverse roots, completeness); an instance whose total is
    ill-conditioned redraws its ranks and factors from its own generator."""
    if dim < 2 or any(n < 1 or j < 1 for _, n, j, _ in specs):
        raise ValueError("need dim >= 2, n_states >= 1, n_outcomes >= 1")
    rngs = [np.random.default_rng(seed) for seed, *_ in specs]
    n_mem, n_out, pure = (np.array(c) for c in list(zip(*specs))[1:])
    members = np.arange(n_mem.max()) < n_mem[:, None]
    outcomes = np.arange(n_out.max()) < n_out[:, None]
    cut = np.ones(members.shape)
    spacings = [r.uniform(size=n - 1) for r, n in zip(rngs, n_mem)]
    cut[:, :-1][members[:, 1:]] = np.concatenate(spacings)
    probs = np.diff(np.sort(cut, axis=1), axis=1, prepend=0.0)  # the padding gets 1 - 1 = 0
    if (probs < -1e-12).any() or (abs(probs.sum(axis=1) - 1.0) > 1e-10).any():
        raise ValueError("ensemble probabilities must be non-negative and sum to 1")

    normals = [r.normal(size=(n, 2, dim) if p else (n, 2, dim, dim))
               for r, n, p in zip(rngs, n_mem, pure)]
    states = np.zeros(probs.shape + (dim, dim), dtype=np.complex128)
    for kind in set(pure.tolist()):
        z = np.concatenate([x for x, p in zip(normals, pure) if p == kind])
        g = z[:, 0] + 1j * z[:, 1]
        if kind:
            m = g[:, :, None] * g.conj()[:, None, :] / (g.conj()[:, None, :] @ g[:, :, None]).real
        else:
            w = g @ g.conj().swapaxes(1, 2)
            m = w / np.trace(w, axis1=1, axis2=2).real[:, None, None]
        states[members & (pure == kind)[:, None]] = m
    spectra = np.zeros(probs.shape + (dim,))
    spectra[members] = _checked_spectra(states[members])

    kraus = np.zeros((len(specs), outcomes.shape[1], dim, dim), dtype=np.complex128)
    draw = np.ones(len(specs), dtype=bool)
    while draw.any():  # redraw rare ill-conditioned totals
        ranks, z = map(np.concatenate, zip(*(_rank_draw(rngs[k], dim, n_out[k])
                                             for k in np.flatnonzero(draw))))
        g = z[:, 0] + 1j * z[:, 1]
        g[np.arange(dim) >= ranks[:, None]] = 0.0
        kraus[outcomes & draw[:, None]] = g
        w, v = np.linalg.eigh(_povm(kraus).sum(axis=1))
        draw = ~(w[:, 0] > 1e-4 * w[:, -1])
    inv_root = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    kraus = np.where(outcomes[..., None, None], kraus @ inv_root[:, None], 0.0)
    _check_complete(kraus)
    return probs, states, spectra, kraus, members, outcomes


# ---------------------------------------------------------------------------
# JSON wire formats

def matrix_to_json(m) -> dict:
    m = as_square_complex(m)
    return {"dim": m.shape[0],
            "rows": [[[float(x.real), float(x.imag)] for x in row] for row in m]}


def matrix_from_json(obj) -> np.ndarray:
    dim = int(obj["dim"])
    rows = obj["rows"]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("matrix JSON has inconsistent dimensions")
    m = np.array([[complex(re, im) for re, im in row] for row in rows],
                 dtype=np.complex128)
    return m


def ensemble_to_json(e: Ensemble) -> dict:
    return {"probs": [float(p) for p in e.probs],
            "states": [matrix_to_json(s.matrix) for s in e.states]}


def ensemble_from_json(obj) -> Ensemble:
    return Ensemble(obj["probs"], [matrix_from_json(s) for s in obj["states"]])


def measurement_to_json(m: Measurement) -> dict:
    out = {"kraus": [matrix_to_json(a) for a in m.kraus]}
    if m.groups is not None:
        out["groups"] = [list(g) for g in m.groups]
    return out


def measurement_from_json(obj) -> Measurement:
    return Measurement([matrix_from_json(a) for a in obj["kraus"]],
                       groups=obj.get("groups"))
