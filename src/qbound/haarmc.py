"""Haar-measure sampling and Monte Carlo checks of the uniform-ensemble
identities.

Reproducibility contract: trial ``t`` of a run seeded with ``seed`` draws
from a counter-based Philox generator keyed by the exact uint64 pair
``(seed mod 2**64, t)``, trials run serially in chunks of ``_CHUNK``, and
reductions accumulate in trial order, chunk by chunk, so results are
bit-identical for a seed. A chunk draws all its trials' normals at once
with ``keyed_normals`` (array Philox and numpy's ziggurat, in ``philox``)
and takes each norm from ``_norms``, one stacked expression that
``haar_state`` shares: row t is ``haar_state(dim, trial_rng(seed, t))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infomeasures import _subentropies, shannon, subentropy
from .matrixcore import sqrt_psd
from .philox import keyed_normals
from .qobjects import PROB_FLOOR, DensityOperator, Measurement, _checked_spectra

_CHUNK = 4096
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error (both in nats)."""

    mean: float
    std_error: float
    trials: int
    seed: int

    def within(self, target: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - target) <= n_sigma * self.std_error


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial, keyed by the exact uint64 pair
    (seed mod 2**64, trial mod 2**64)."""
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalized vector of standard complex Gaussians."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    while True:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        nrm = _norms(v)
        if nrm > 1e-12:
            return v / nrm


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    g = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def _haar_block(dim: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Rows ``haar_state(dim, trial_rng(seed, t))`` for ``t`` in [lo, hi), bit
    for bit: ``keyed_normals`` draws each trial's 2*dim normals from its keyed
    Philox, and ``_unit_rows`` divides by the norm haar_state shares."""
    draws = keyed_normals(seed, lo, hi, 2 * dim)
    return _unit_rows(draws[:, :dim] + 1j * draws[:, dim:], seed, lo)


def _norms(z: np.ndarray) -> np.ndarray:
    """Complex row norms; a row's value does not depend on the stack."""
    return np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=-1))


def _unit_rows(z: np.ndarray, seed: int, lo: int) -> np.ndarray:
    """Divide each row of ``z`` by its norm, the stacked ``_norms`` that
    haar_state shares. Row i of norm <= 1e-12 is trial lo + i's first draw,
    which haar_state rejects and redraws."""
    nrm = _norms(z)
    psi = z / np.where(nrm > 1e-12, nrm, 1.0)[:, None]
    for i in np.flatnonzero(nrm <= 1e-12).tolist():
        psi[i] = haar_state(z.shape[1], trial_rng(seed, lo + i))
    return psi


def _chunks(trials: int):
    return [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]


def uniform_ensemble_info_mc(measurement: Measurement, trials: int, seed: int) -> MCEstimate:
    """Index information extracted from the uniform pure-state ensemble.

    Estimates H[Q_j] - E_psi H[Q(j|psi)] over Haar-random states. The
    outcome distribution of the uniform ensemble is exact, Q_j = Tr[E_j]/N,
    so only the conditional-entropy average is sampled.
    """
    if measurement.groups is not None:
        raise ValueError("uniform-ensemble sampling applies to efficient measurements")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    dim = measurement.dim
    es = measurement.kraus_stack.conj().swapaxes(1, 2) @ measurement.kraus_stack
    q = np.real(np.trace(es, axis1=1, axis2=2)) / dim
    h_prior = shannon(q)

    e_row = es.transpose(1, 0, 2).reshape(dim, -1)  # [d, j * dim + e] = E_j[d, e]

    def run(lo: int, hi: int) -> np.ndarray:
        psi = _haar_block(dim, seed, lo, hi)
        bra_e = (psi.conj() @ e_row).reshape(hi - lo, -1, dim)  # <psi| E_j
        probs = np.einsum("tje,te->tj", bra_e, psi).real
        probs = np.clip(probs, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
        return -terms.sum(axis=1)

    h = np.concatenate([run(lo, hi) for lo, hi in _chunks(trials)])
    return MCEstimate(mean=h_prior - float(h.mean()),
                      std_error=float(h.std(ddof=1) / np.sqrt(trials)),
                      trials=trials, seed=seed)


def uniform_ensemble_info_exact(measurement: Measurement) -> float:
    """Closed form of the same quantity: Q[I/N] - sum_j Q_j Q[rho'_j],
    with rho'_j = A_j A_j† / Tr[E_j], the post states checked and their
    subentropies evaluated as one stack over the outcomes above the floor."""
    dim = measurement.dim
    w = measurement.kraus_stack @ measurement.kraus_stack.conj().swapaxes(1, 2)
    tr = np.trace(w, axis1=1, axis2=2).real
    live = tr / dim >= PROB_FLOOR
    spectra = np.zeros(w.shape[:2])
    spectra[live] = _checked_spectra(w[live] / tr[live, None, None])
    sub = _subentropies(spectra, live)
    return subentropy(DensityOperator(np.eye(dim) / dim)) - float(tr / dim @ sub)


def distorted_sample(rho_prime: DensityOperator, unitary: np.ndarray,
                     rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One member of the distorted uniform ensemble for the state rho'.

    Returns the unnormalized vector sqrt(rho') U |psi> with psi Haar random,
    together with its weight <phi|phi> (the probability density of that
    member relative to the Haar measure).
    """
    root = sqrt_psd(rho_prime.matrix)
    phi = root @ (unitary @ haar_state(rho_prime.dim, rng))
    return phi, float(np.vdot(phi, phi).real)


@dataclass(frozen=True)
class DistortedMoments:
    """Monte Carlo first moments of a distorted uniform ensemble.

    ``mean_state`` estimates N * E[|phi><phi|] (which should equal rho'),
    with entrywise standard errors for the real and imaginary parts;
    ``weight_mean`` estimates N * E[<phi|phi>] (which should equal 1).
    """

    mean_state: np.ndarray
    stderr_real: np.ndarray
    stderr_imag: np.ndarray
    weight_mean: float
    weight_stderr: float
    trials: int
    seed: int


def distorted_moments_mc(rho_prime: DensityOperator, unitary: np.ndarray,
                         trials: int, seed: int) -> DistortedMoments:
    """Sample the distorted ensemble and accumulate its first moments."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    dim = rho_prime.dim
    bmat = sqrt_psd(rho_prime.matrix) @ unitary

    def run(lo: int, hi: int):
        phi = _haar_block(dim, seed, lo, hi) @ bmat.T
        outer = dim * np.einsum("ta,tb->tab", phi, phi.conj())
        w = dim * np.einsum("ta,ta->t", phi, phi.conj()).real
        re, im = outer.real, outer.imag
        return (re.sum(axis=0), im.sum(axis=0),
                (re * re).sum(axis=0), (im * im).sum(axis=0),
                w.sum(), (w * w).sum())

    sum_re, sum_im, sq_re, sq_im, sum_w, sq_w = (
        sum(col) for col in zip(*(run(lo, hi) for lo, hi in _chunks(trials))))

    def stderr(s, sq):
        var = (sq - s * s / trials) / (trials - 1)
        return np.sqrt(np.clip(var, 0.0, None) / trials)

    return DistortedMoments(mean_state=(sum_re + 1j * sum_im) / trials,
                            stderr_real=stderr(sum_re, sq_re),
                            stderr_imag=stderr(sum_im, sq_im),
                            weight_mean=float(sum_w / trials),
                            weight_stderr=float(stderr(sum_w, sq_w)),
                            trials=trials, seed=seed)


def haar_moment_mc(dim: int, trials: int, seed: int) -> DistortedMoments:
    """First moment of the raw uniform ensemble via the identity distortion:
    the estimated mean state should equal I/dim."""
    return distorted_moments_mc(DensityOperator(np.eye(dim) / dim),
                                np.eye(dim, dtype=np.complex128), trials, seed)
