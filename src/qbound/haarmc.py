"""Haar-measure sampling and Monte Carlo checks of the uniform-ensemble
identities.

Reproducibility contract: a run draws its trials serially in chunks of
``_CHUNK``. Chunk c draws its m rows with one
``trial_rng(seed, c).standard_normal((m, 2 * dim))`` call (Philox keyed by
the exact uint64 pair ``(seed mod 2**64, c)``), real parts first, and
redraws a row of norm <= 1e-12 from the same generator after the chunk's
rows, in row order. Reductions accumulate in trial order, so results are
bit-identical for a seed, and a row does not depend on the trials after
it (a redrawn row excepted). Another ``_CHUNK`` keys other streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infomeasures import _subentropies, shannon, subentropy
from .matrixcore import sqrt_psd
from .qobjects import PROB_FLOOR, DensityOperator, Measurement, _checked_spectra

_CHUNK = 4096  # trials per keyed stream; part of the determinism contract
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
    """Counter-based generator keyed by the exact uint64 pair (seed mod 2**64,
    trial mod 2**64); the Monte Carlo estimators key chunk c by (seed, c)."""
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalized vector of standard complex Gaussians."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _haar_rows(dim, rng, 1)[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    g = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def _haar_rows(dim: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random unit rows from one ``standard_normal((n, 2 * dim))``
    call: real parts first, then imaginary parts. A row of norm <= 1e-12 is
    redrawn from ``rng`` after all n rows, in row order."""
    draws = rng.standard_normal((n, 2 * dim))
    z = draws[:, :dim] + 1j * draws[:, dim:]
    nrm = _norms(z)
    psi = z / np.where(nrm > 1e-12, nrm, 1.0)[:, None]
    for i in np.flatnonzero(nrm <= 1e-12).tolist():
        psi[i] = _haar_rows(dim, rng, 1)[0]
    return psi


def _norms(z: np.ndarray) -> np.ndarray:
    """Complex row norms; a row's value does not depend on the stack."""
    return np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=-1))


def _chunk_rows(dim: int, seed: int, trials: int):
    """The Haar rows of each chunk of a run in turn: chunk c from trial_rng(seed, c)."""
    for c, lo in enumerate(range(0, trials, _CHUNK)):
        yield _haar_rows(dim, trial_rng(seed, c), min(_CHUNK, trials - lo))


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

    def run(psi: np.ndarray) -> np.ndarray:
        bra_e = (psi.conj() @ e_row).reshape(len(psi), -1, dim)  # <psi| E_j
        probs = np.clip(np.einsum("tje,te->tj", bra_e, psi).real, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
        return -terms.sum(axis=1)

    h = np.concatenate([run(psi) for psi in _chunk_rows(dim, seed, trials)])
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
    bmat = np.sqrt(dim) * sqrt_psd(rho_prime.matrix) @ unitary

    def run(psi: np.ndarray):
        """A chunk's sums of phi phi† (Re, Im and their squares) and of |phi|²,
        phi = sqrt(dim) B psi = x + iy: Re = xᵀx + yᵀy, Im = yᵀx − xᵀy, and
        the squares from the blocks of [x², y²]ᵀ[x², y²] and from (xy)ᵀ(xy)."""
        phi = psi @ bmat.T
        x, y = phi.real, phi.imag
        yx, sq, xy = y.T @ x, np.hstack([x * x, y * y]), x * y
        quad, cross = sq.T @ sq, xy.T @ xy
        sq_im = quad[:dim, dim:] + quad[dim:, :dim] - 2.0 * cross
        np.fill_diagonal(sq_im, 0.0)  # Im of phi_a conj(phi_a) is 0, not roundoff
        w = sq.sum(axis=1)
        return (x.T @ x + y.T @ y, yx - yx.T, quad[:dim, :dim] + quad[dim:, dim:] + 2.0 * cross,
                sq_im, w.sum(), w @ w)

    sum_re, sum_im, sq_re, sq_im, sum_w, sq_w = (
        sum(col) for col in zip(*map(run, _chunk_rows(dim, seed, trials))))

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
