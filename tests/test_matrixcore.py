import numpy as np
import pytest

from qbound.matrixcore import (NotHermitianError, NotPSDError, ZeroOperatorError,
                               commutes, operator_rank, sqrt_psd, support_projector)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
PLUS_PROJ = np.outer(PLUS, PLUS)


def random_psd(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


class TestSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_scaled_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(2) / 2),
                                   np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_projector_is_own_root(self):
        np.testing.assert_allclose(sqrt_psd(PLUS_PROJ), PLUS_PROJ, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_clips_roundoff(self):
        r = sqrt_psd(np.diag([1.0, -5e-9]))
        assert np.linalg.eigvalsh(r)[0] >= 0.0

    def test_exact_zero_eigenvalue_preserved(self):
        r = sqrt_psd(np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(r, np.diag([0.0, 1.0]))

    def test_square_recovers_input(self):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 6):
            for _ in range(20):
                m = random_psd(rng, dim)
                r = sqrt_psd(m)
                scale = max(1.0, np.linalg.norm(m))
                assert np.linalg.norm(r @ r - m) <= 1e-8 * scale
                assert np.linalg.norm(r - r.conj().T) <= 1e-10 * scale


class TestSupportProjector:
    def test_diagonal(self):
        np.testing.assert_allclose(support_projector(np.diag([1.0, 0.0])),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_unitary_full_support(self):
        np.testing.assert_allclose(support_projector(np.eye(3) * 1j), np.eye(3),
                                   atol=1e-12)

    def test_rank_one_map(self):
        # |0><+| has right-singular vector |+>
        a = np.outer([1.0, 0.0], PLUS)
        np.testing.assert_allclose(support_projector(a), PLUS_PROJ, atol=1e-12)

    def test_zero_operator(self):
        with pytest.raises(ZeroOperatorError):
            support_projector(np.zeros((2, 2)))

    def test_projector_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a[:, :2] = 0.0
            p = support_projector(a)
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.conj().T) <= 1e-12
            assert operator_rank(a) == round(np.trace(p).real)


class TestCommutes:
    def test_diagonal_pair(self):
        assert commutes(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))

    def test_anticommuting_pair(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        assert not commutes(x, z)

    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert commutes(a, np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutes(np.eye(2), np.eye(3))


def test_left_right_gram_spectra_agree():
    # spectra of A†A and AA† coincide as multisets
    rng = np.random.default_rng(23)
    for dim in (2, 3, 5, 7):
        for _ in range(20):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            left = np.linalg.eigvalsh(a.conj().T @ a)
            right = np.linalg.eigvalsh(a @ a.conj().T)
            scale = max(1.0, np.abs(left).max())
            assert np.max(np.abs(left - right)) <= 1e-9 * scale
