"""The batched subentropy: the float64 closed form where it is certified,
the mpmath divided-difference table elsewhere. Tolerances were fixed
before the float64 path existed."""

import math
import warnings

import mpmath as mp
import numpy as np
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from qbound.infomeasures import _subentropies, _subentropy_table, subentropy
from qbound.qobjects import DensityOperator, _clean_spectrum

CERTIFIED_TOL = 1e-11


def certified(lam) -> bool:
    """Independent statement of the rule: (n-1) max(0, -log10 g) <= 4 over
    the n nonzero eigenvalues of the clean spectrum and their smallest gap g."""
    pos = sorted(x for x in lam if x > 0.0)
    if len(pos) <= 1:
        return True
    g = min(b - a for a, b in zip(pos, pos[1:]))
    return g > 0.0 and (len(pos) - 1) * max(0.0, -math.log10(g)) <= 4


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
    """Stacks of 1-6 spectra of dimension 2-6 with zero eigenvalues, exact
    repeats and a pair whose gap lies within a digit of the certification
    edge 10^(-4/(n-1)), n the number of nonzero eigenvalues."""
    dim = draw(st.integers(2, 6))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, dim))
        lam = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["plain", "repeat", "edge"]))
        if n >= 2 and kind == "repeat":
            lam[1] = lam[0]
        elif n >= 2 and kind == "edge":
            digits = 4.0 / (n - 1) + draw(st.floats(-1.0, 1.0))
            lam[1] = lam[0] + 10.0 ** -digits * sum(lam)
        row = np.zeros(dim)
        row[draw(st.permutations(range(dim)))[:n]] = lam
        rows.append(row / row.sum())
    live = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return np.array(rows), np.array(live)


@given(spectra())
def test_certified_values_match_the_300_digit_closed_form(batch):
    spec, _ = batch
    values, digits = _subentropies(spec, np.ones(len(spec), bool))
    for row, value, dps in zip(spec, values, digits):
        lam = _clean_spectrum(row)
        if dps == 0:
            assert certified(lam)
            if np.count_nonzero(lam) <= 1:
                assert value == 0.0
            assert abs(value - closed_form_300(lam)) <= CERTIFIED_TOL


@given(spectra())
def test_fallback_is_taken_exactly_on_the_uncertified_spectra(batch):
    spec, live = batch
    values, digits = _subentropies(spec, live)
    for row, alive, value, dps in zip(spec, live, values, digits):
        lam = np.sort(_clean_spectrum(row))
        if not alive:
            assert value == 0.0 and dps == 0
        elif certified(lam):
            assert dps == 0
        else:
            assert (value, dps) == _subentropy_table(lam)
            assert dps >= 40


def test_certification_edge_in_both_directions():
    for n, digits in [(2, 4.0), (3, 2.0), (4, 4.0 / 3.0)]:
        for side, expect in [(0.999, False), (1.001, True)]:
            gap = side * 10.0 ** -digits
            lam = (1.0 - gap * n * (n - 1) / 2) / n + gap * np.arange(n)
            _, dps = _subentropies(lam[None], np.ones(1, bool))
            assert (dps[0] == 0) == expect == certified(_clean_spectrum(lam))


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
    values, _ = _subentropies(spec, np.ones(len(spec), bool))
    assert values.tolist() == [subentropy(DensityOperator(np.diag(s))) for s in spec]
