import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from qbound.haarmc import (_CHUNK, MCEstimate, _haar_block, _norms, _unit_rows,
                           distorted_moments_mc, distorted_sample, haar_moment_mc, haar_state,
                           haar_unitary, trial_rng, uniform_ensemble_info_exact,
                           uniform_ensemble_info_mc)
from qbound.infomeasures import shannon, subentropy
from qbound.matrixcore import sqrt_psd
from qbound.qobjects import PROB_FLOOR, DensityOperator, Measurement, pure_state, random_instance
from qbound.scenarios import basis_projectors


class TestHaarState:
    def test_dim_one_is_phase(self):
        v = haar_state(1, trial_rng(0, 0))
        assert abs(abs(v[0]) - 1.0) <= 1e-12

    def test_unit_norm(self):
        for t in range(20):
            v = haar_state(4, trial_rng(1, t))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_deterministic(self):
        a = haar_state(3, trial_rng(42, 17))
        b = haar_state(3, trial_rng(42, 17))
        np.testing.assert_array_equal(a, b)

    def test_first_moment_matches_maximally_mixed(self):
        moments = haar_moment_mc(2, 20000, seed=5)
        target = np.eye(2) / 2
        assert np.all(np.abs(moments.mean_state.real - target.real)
                      <= 3 * moments.stderr_real + 1e-12)
        assert np.all(np.abs(moments.mean_state.imag - target.imag)
                      <= 3 * moments.stderr_imag + 1e-12)

    def test_unitary_invariance_ks(self):
        n = 10000
        v = haar_unitary(3, trial_rng(9, 0))
        base = np.array([abs(haar_state(3, trial_rng(10, t))[0]) ** 2
                         for t in range(n)])
        rotated = np.array([abs((v @ haar_state(3, trial_rng(11, t)))[0]) ** 2
                            for t in range(n)])
        result = stats.ks_2samp(base, rotated)
        assert result.pvalue > 0.01


@pytest.mark.parametrize("seed", [0, 2 ** 62 + 3, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64 + 7])
def test_trial_key_is_the_exact_uint64_pair(seed):
    key = trial_rng(seed, 9).bit_generator.state["state"]["key"]
    assert key.tolist() == [seed % 2 ** 64, 9]


@pytest.mark.parametrize("a, b", [(2 ** 63 + 1, 2 ** 63 + 2), (2 ** 64 - 1, 0)])
def test_seeds_above_2_63_key_distinct_streams(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ma, mb = haar_moment_mc(2, 200, a), haar_moment_mc(2, 200, b)
    assert not np.array_equal(ma.mean_state, mb.mean_state)


@pytest.mark.parametrize("seed", [0, 2 ** 62 + 17, 2 ** 63 + 5])
@pytest.mark.parametrize("dim", range(1, 9))
def test_chunk_drawer_is_bit_identical_to_haar_state(dim, seed):
    for lo, hi in ((0, 7), (_CHUNK - 4, _CHUNK + 3), (2 * _CHUNK - 1, 2 * _CHUNK + 1)):
        ref = np.array([haar_state(dim, trial_rng(seed, t)) for t in range(lo, hi)])
        assert np.array_equal(_haar_block(dim, seed, lo, hi).view(np.uint64),
                              ref.view(np.uint64))


def test_a_row_of_norm_zero_is_redrawn_by_haar_state():
    dim, seed, lo = 3, 2 ** 63 + 5, 40
    z = _haar_block(dim, seed, lo, lo + 4) * 2.5
    z[2] = 0.0
    psi = _unit_rows(z, seed, lo)
    assert np.array_equal(psi[2], haar_state(dim, trial_rng(seed, lo + 2)))
    for i in (0, 1, 3):
        np.testing.assert_array_equal(psi[i], z[i] / np.linalg.norm(z[i]))


def test_live_rows_are_divided_by_the_shared_norm():
    dim, seed, lo = 4, 2 ** 62 + 9, 100
    z = _haar_block(dim, seed, lo, lo + 6) * np.array([1e-3, 0.7, 1.0, 3.0, 1e3, 1.0])[:, None]
    z[5] = 0.0
    psi = _unit_rows(z, seed, lo)
    nrm = _norms(z)
    for i in range(5):
        assert np.array_equal(psi[i].view(np.uint64), (z[i] / nrm[i]).view(np.uint64))
    assert np.array_equal(psi[5], haar_state(dim, trial_rng(seed, lo + 5)))


@given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_the_shared_norm_is_batch_invariant(n, dim, seed):
    """A row's norm does not depend on the rows stacked with it, so the chunk
    drawer and haar_state agree bit for bit."""
    g = np.random.default_rng(seed)
    z = g.normal(size=(n, dim)) + 1j * g.normal(size=(n, dim))
    z *= 10.0 ** g.uniform(-3, 3, size=(n, 1))
    stacked = _norms(z)
    alone = np.array([_norms(row) for row in z])
    assert np.array_equal(stacked.view(np.uint64), alone.view(np.uint64))
    for t in range(4):
        assert abs(np.linalg.norm(haar_state(dim, trial_rng(seed, t))) - 1.0) <= 4e-16


class TestHaarUnitary:
    def test_unitarity(self):
        for t in range(10):
            u = haar_unitary(4, trial_rng(2, t))
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12


class TestUniformEnsembleInfo:
    def test_identity_measurement(self):
        est = uniform_ensemble_info_mc(Measurement([np.eye(2)]), 200, 0)
        assert abs(est.mean) <= 1e-12
        assert est.std_error <= 1e-12

    def test_trivial_povm(self):
        trivial = Measurement([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
        est = uniform_ensemble_info_mc(trivial, 500, 1)
        assert abs(est.mean) <= max(3 * est.std_error, 1e-12)

    def test_qubit_projectors_match_closed_form(self):
        est = uniform_ensemble_info_mc(basis_projectors(2), 100000, 3)
        assert est.within(math.log(2) - 0.5, 3.0)
        assert est.std_error < 1e-3

    @pytest.mark.parametrize("dim, seed", [(3, 303), (4, 404), (5, 505), (6, 606)])
    def test_basis_measurement_matches_harmonic_closed_form(self, dim, seed):
        """Q[I/N] = ln N - sum_{k=2}^N 1/k; the post states are pure."""
        target = math.log(dim) - math.fsum(1.0 / k for k in range(2, dim + 1))
        assert abs(uniform_ensemble_info_exact(basis_projectors(dim)) - target) <= 1e-14
        est = uniform_ensemble_info_mc(basis_projectors(dim), 200_000, seed)
        assert est.within(target, 5.0)

    @pytest.mark.parametrize("dim, seed", [(2, 1202), (3, 1303), (4, 1404), (6, 1606)])
    def test_haar_average_of_y_ln_y_gives_the_subentropy(self, dim, seed):
        """Hermite-Genocchi: Q[rho] = -N E[y ln y] - (H_N - 1), y = <psi|rho|psi>
        for Haar-random psi; it shares no code with the subentropy quadrature.
        By unitary invariance rho may be diagonal."""
        lam = np.random.default_rng(seed).dirichlet(np.ones(dim))
        y = np.abs(_haar_block(dim, seed, 0, 200_000)) ** 2 @ lam
        samples = -dim * y * np.log(y) - math.fsum(1.0 / k for k in range(2, dim + 1))
        est = MCEstimate(samples.mean(), samples.std(ddof=1) / math.sqrt(len(samples)),
                         len(samples), seed)
        assert est.within(subentropy(DensityOperator(np.diag(lam))), 5.0)

    def test_exact_prediction_matches_mc(self):
        for seed in (0, 1):
            _, meas = random_instance(2, 1, 3, True, seed)
            pred = uniform_ensemble_info_exact(meas)
            est = uniform_ensemble_info_mc(meas, 60000, seed + 10)
            assert est.within(pred, 3.5)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_stacked_prediction_matches_one_post_state_at_a_time(self, dim):
        rng = np.random.default_rng(dim)
        for t in range(20):
            _, meas = random_instance(dim, 1, int(rng.integers(1, 7)), True,
                                      int(rng.integers(2 ** 32)))
            if t == 0:  # an outcome of probability 0, skipped by both
                meas = Measurement(list(meas.kraus) + [np.zeros((dim, dim))])
            pred = subentropy(DensityOperator(np.eye(dim) / dim))
            for a in meas.kraus:
                w = a @ a.conj().T
                tr = float(np.trace(w).real)
                if tr / dim >= PROB_FLOOR:
                    pred -= tr / dim * subentropy(DensityOperator(w / tr))
            assert abs(uniform_ensemble_info_exact(meas) - pred) <= 1e-14

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            uniform_ensemble_info_mc(basis_projectors(2), 50, 0)

    def test_deterministic(self):
        meas = basis_projectors(2)
        a = uniform_ensemble_info_mc(meas, 5000, 7)
        b = uniform_ensemble_info_mc(meas, 5000, 7)
        assert a == b
        assert isinstance(a, MCEstimate)


class TestDistorted:
    def test_uniform_weight_is_constant(self):
        rho = DensityOperator(np.eye(3) / 3)
        for t in range(10):
            _, w = distorted_sample(rho, np.eye(3), trial_rng(4, t))
            assert abs(w - 1.0 / 3.0) <= 1e-12

    def test_pure_distortion_is_parallel(self):
        target = pure_state([1.0, 1.0j])
        for t in range(10):
            phi, w = distorted_sample(target, np.eye(2), trial_rng(5, t))
            if w < 1e-12:
                continue
            overlap = abs(np.vdot(phi, np.array([1.0, 1.0j]) / np.sqrt(2))) ** 2
            assert abs(overlap - np.vdot(phi, phi).real) <= 1e-12

    def test_mean_state_recovers_distortion(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w = g @ g.conj().T
        rho = DensityOperator(w / np.trace(w).real)
        u = haar_unitary(2, trial_rng(6, 0))
        moments = distorted_moments_mc(rho, u, 30000, 8)
        assert np.all(np.abs(moments.mean_state.real - rho.matrix.real)
                      <= 3.5 * moments.stderr_real + 1e-12)
        assert np.all(np.abs(moments.mean_state.imag - rho.matrix.imag)
                      <= 3.5 * moments.stderr_imag + 1e-12)

    def test_weights_normalize(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w = g @ g.conj().T
        rho = DensityOperator(w / np.trace(w).real)
        moments = distorted_moments_mc(rho, np.eye(3), 30000, 9)
        assert abs(moments.weight_mean - 1.0) <= 3.5 * moments.weight_stderr + 1e-12

    def test_deterministic(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        a = distorted_moments_mc(rho, np.eye(2), 2000, 3)
        b = distorted_moments_mc(rho, np.eye(2), 2000, 3)
        np.testing.assert_array_equal(a.mean_state, b.mean_state)
        assert a.weight_mean == b.weight_mean


@pytest.mark.parametrize("trials", [_CHUNK + 5, 2 * _CHUNK + 3])
def test_estimators_follow_the_per_trial_streams_across_chunks(trials):
    """Both estimators equal a one-trial-at-a-time port that draws trial t
    from haar_state(dim, trial_rng(seed, t)), over runs that end in a
    partial chunk."""
    dim, seed = 3, 11
    _, meas = random_instance(dim, 1, 4, True, 5)
    es = [a.conj().T @ a for a in meas.kraus]
    h = []
    for t in range(trials):
        psi = haar_state(dim, trial_rng(seed, t))
        probs = [max(np.vdot(psi, e @ psi).real, 0.0) for e in es]
        h.append(-math.fsum(p * math.log(p) for p in probs if p > 0.0))
    mean_h = math.fsum(h) / trials
    stderr = math.sqrt(math.fsum((x - mean_h) ** 2 for x in h) / (trials - 1) / trials)
    est = uniform_ensemble_info_mc(meas, trials, seed)
    assert abs(est.mean - (shannon([np.trace(e).real / dim for e in es]) - mean_h)) <= 1e-14
    assert abs(est.std_error - stderr) <= 1e-14

    g = np.random.default_rng(12)
    w = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    rho = DensityOperator(w @ w.conj().T / np.trace(w @ w.conj().T).real)
    unitary = haar_unitary(dim, g)
    bmat = sqrt_psd(rho.matrix) @ unitary
    outer, weight = [], []
    for t in range(trials):
        phi = bmat @ haar_state(dim, trial_rng(seed, t))
        outer.append(dim * np.outer(phi, phi.conj()))
        weight.append(dim * np.vdot(phi, phi).real)
    entries = np.array(outer).reshape(trials, -1).T
    mean_state = np.array([complex(math.fsum(x.real), math.fsum(x.imag)) for x in entries])
    moments = distorted_moments_mc(rho, unitary, trials, seed)
    assert np.abs(moments.mean_state.ravel() - mean_state / trials).max() <= 1e-14
    assert abs(moments.weight_mean - math.fsum(weight) / trials) <= 1e-14
