"""The batched subentropy quadrature against independent oracles: the
300-digit closed form, the confluent mpmath divided-difference table of
``subentropy_oracle``, the Opitz matrix function and the closed form of I/N.
Tolerances were fixed before the quadrature existed."""

import math
import warnings

import mpmath as mp
import numpy as np
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from subentropy_oracle import _subentropy_table

from qbound.infomeasures import _subentropies, subentropy
from qbound.qobjects import DensityOperator, _clean_spectrum

CERTIFIED_TOL = 1e-11


def closed_form_300(lam) -> float:
    """-sum_k prod_(l!=k) lam_k/(lam_k-lam_l) lam_k ln lam_k over the nonzero
    eigenvalues, in 300 digits."""
    with mp.workdps(300):
        pos = [mp.mpf(float(x)) for x in lam if x > 0.0]
        total = mp.mpf(0)
        for k, a in enumerate(pos):
            term = a * mp.ln(a)
            for m, b in enumerate(pos):
                if m != k:
                    term *= a / (a - b)
            total += term
        return float(-total)


@st.composite
def spectra(draw):
    """Stacks of 1-6 spectra of dimension 2-12 with zero eigenvalues,
    eigenvalues down to 1e-12, exact repeats, and clusters of two or more
    eigenvalues with consecutive gaps from 1e-14 to 1e-4 (relative to the sum)."""
    dim = draw(st.integers(2, 12))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, dim))
        lam = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["plain", "tiny", "repeat", "cluster"]))
        if n >= 2 and kind == "tiny":
            lam[1:] = [10.0 ** -draw(st.floats(0.0, 12.0)) * sum(lam) for _ in lam[1:]]
        elif n >= 2 and kind == "repeat":
            lam[1] = lam[0]
        elif n >= 2 and kind == "cluster":
            gap = 10.0 ** -draw(st.floats(4.0, 14.0)) * sum(lam)
            size = draw(st.integers(2, n))
            lam[1:size] = [lam[0] + k * gap for k in range(1, size)]
        row = np.zeros(dim)
        row[draw(st.permutations(range(dim)))[:n]] = lam
        rows.append(row / row.sum())
    live = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return np.array(rows), np.array(live)


@given(spectra())
def test_certified_values_match_the_300_digit_closed_form(batch):
    """Every live value is within CERTIFIED_TOL of the confluent table, and of
    the 300-digit closed form where its nonzero eigenvalues are distinct."""
    spec, live = batch
    for row, alive, value in zip(spec, live, _subentropies(spec, live)):
        lam = np.sort(_clean_spectrum(row))
        pos = lam[lam > 0.0]
        if not alive or len(pos) <= 1:
            assert value == 0.0
            continue
        assert abs(value - _subentropy_table(lam)[0]) <= CERTIFIED_TOL
        if np.all(np.diff(pos) > 0.0):
            assert abs(value - closed_form_300(lam)) <= CERTIFIED_TOL


def test_maximally_mixed_matches_the_harmonic_closed_form():
    for n in [*range(2, 33), 64, 128, 256]:
        q = subentropy(DensityOperator(np.eye(n) / n))
        tol = 1e-12 if n <= 32 else 1e-11
        assert abs(q - (math.log(n) - sum(1.0 / k for k in range(2, n + 1)))) <= tol


def test_opitz_matrix_function_oracle():
    """Q = -[f(J)]_(0, n-1) for f(x) = x^n ln x and J the bidiagonal matrix
    with the spectrum on its diagonal and ones above it (Opitz 1964)."""
    rng = np.random.default_rng(11)
    for t in range(50):
        n = 2 + t % 5
        lam = rng.dirichlet(np.full(n, 0.5 + t % 3))
        jordan = np.diag(lam) + np.diag(np.ones(n - 1), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # logm's accuracy estimate is pessimistic here
            f = np.linalg.matrix_power(jordan, n) @ scipy.linalg.logm(jordan)
        q = subentropy(DensityOperator(np.diag(lam)))
        assert abs(q + f[0, n - 1].real) <= CERTIFIED_TOL


def test_batch_of_one_equals_the_stack():
    rng = np.random.default_rng(4)
    spec = np.sort(rng.dirichlet(np.ones(4), size=30), axis=-1)
    spec[::3, :2] = [0.0, 0.0]
    spec /= spec.sum(axis=-1, keepdims=True)
    values = _subentropies(spec, np.ones(len(spec), bool))
    assert values.tolist() == [subentropy(DensityOperator(np.diag(s))) for s in spec]
