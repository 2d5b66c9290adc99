"""Dense complex linear algebra primitives.

Everything here operates on square ``numpy`` arrays of ``complex128``.
Tolerances are relative to the Frobenius norm of the input with a floor
of 1, so density-matrix-scale operands are effectively checked against
absolute thresholds.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-8
PSD_TOL = 1e-8
SUPPORT_TOL = 1e-8


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSDError(ValueError):
    """Input matrix has an eigenvalue below the negativity tolerance."""


class ZeroOperatorError(ValueError):
    """Operation is undefined for the zero operator."""


def as_square_complex(a, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex128 array, or with ``stack`` to a
    (..., d, d) stack of them, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2, of each matrix in a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each
    matrix of a (..., d, d) stack.

    Raises :class:`NotHermitianError` if an input deviates from
    Hermiticity by more than ``PSD_TOL`` relative to its Frobenius scale.
    Eigenvalues in ``[-PSD_TOL, 0)`` (same scale) are treated as roundoff
    noise and clipped to zero; anything more negative raises
    :class:`NotPSDError`.
    """
    m = as_square_complex(m, stack=True)
    scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    if not (np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) <= PSD_TOL * scale).all():
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    low = w[..., 0] < -PSD_TOL * scale
    if low.any():
        raise NotPSDError(f"eigenvalue {w[..., 0][low].min():.3e} below PSD tolerance")
    w = np.where(w < 0.0, 0.0, w)
    return hermitize((v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def support_projector(a) -> np.ndarray:
    """Projector onto the support of A (the span of its right-singular
    vectors with singular value above ``SUPPORT_TOL`` times the largest one)."""
    a = as_square_complex(a)
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        raise ZeroOperatorError("support projector of the zero operator is undefined")
    v = vh[s > SUPPORT_TOL * smax].conj().T
    return hermitize(v @ v.conj().T)


def operator_rank(a) -> int:
    """Number of singular values above ``SUPPORT_TOL`` times the largest one."""
    s = np.linalg.svd(as_square_complex(a), compute_uv=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return 0
    return int(np.sum(s > SUPPORT_TOL * smax))


def commutes(a, b) -> bool:
    """True iff ||AB - BA||_F <= HERMITIAN_TOL * max(1, ||A||_F ||B||_F)."""
    a = as_square_complex(a)
    b = as_square_complex(b)
    if a.shape != b.shape:
        raise ValueError("commutes requires matrices of equal dimension")
    scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return float(np.linalg.norm(a @ b - b @ a)) <= HERMITIAN_TOL * scale
