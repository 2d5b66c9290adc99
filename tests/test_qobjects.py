import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qbound import qobjects
from qbound.bounds import _reports, bound_reports
from qbound.qobjects import (PROB_FLOOR, PURITY_TOL, DensityOperator, DimensionMismatchError,
                             _checked_spectra, _factors, _random_batch, EmptyGroupError, Ensemble,
                             Measurement, apply_measurement, coarse_grain, ensemble_from_json,
                             ensemble_state, ensemble_to_json, matrix_from_json,
                             matrix_to_json, measurement_from_json,
                             measurement_to_json, mix_measurements, pure_state,
                             random_instance)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def z_measurement():
    return Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def zero_plus_ensemble():
    return Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(PLUS)])


class TestDensityOperator:
    def test_valid(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert rho.dim == 2
        assert not rho.is_pure
        assert pure_state(PLUS).is_pure

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_matrix_readonly(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ensemble([0.7, 0.7], [pure_state(KET0), pure_state(KET1)])
        with pytest.raises(DimensionMismatchError):
            Ensemble([0.5, 0.5], [pure_state(KET0), pure_state([1, 0, 0])])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        # NaN fails both comparisons of the sign and sum checks
        with pytest.raises(ValueError, match="finite"):
            Ensemble([bad, 1.0], [pure_state(KET0), pure_state(KET1)])

    def test_is_pure_flag(self):
        assert zero_plus_ensemble().is_pure
        mixed = Ensemble([1.0], [DensityOperator(np.eye(2) / 2)])
        assert not mixed.is_pure


class TestEnsembleState:
    def test_orthogonal_average(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        np.testing.assert_allclose(ensemble_state(ens).matrix, np.eye(2) / 2,
                                   atol=1e-14)

    def test_single_state(self):
        rho = DensityOperator(np.eye(3) / 3)
        out = ensemble_state(Ensemble([1.0], [rho]))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_zero_plus_average(self):
        out = ensemble_state(zero_plus_ensemble())
        np.testing.assert_allclose(out.matrix,
                                   [[0.75, 0.25], [0.25, 0.25]], atol=1e-14)


class TestApplyMeasurement:
    def test_orthogonal_distinguishable(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        a = apply_measurement(z_measurement(), ens)
        np.testing.assert_allclose(a.outcome_probs, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(a.posteriors, np.eye(2), atol=1e-14)
        assert (a.post_spectra[:, -1] >= 1.0 - PURITY_TOL).all()

    def test_bayes_by_hand(self):
        a = apply_measurement(z_measurement(), zero_plus_ensemble())
        np.testing.assert_allclose(a.outcome_probs, [0.75, 0.25], atol=1e-14)
        np.testing.assert_allclose(a.posteriors[0], [2 / 3, 1 / 3], atol=1e-14)
        np.testing.assert_allclose(a.posteriors[1], [0.0, 1.0], atol=1e-14)

    def test_identity_measurement(self):
        ens = zero_plus_ensemble()
        a = apply_measurement(Measurement([np.eye(2)]), ens)
        np.testing.assert_allclose(a.outcome_probs, [1.0], atol=1e-14)
        np.testing.assert_allclose(a.post_matrices[0],
                                   ensemble_state(ens).matrix, atol=1e-14)
        np.testing.assert_allclose(a.posteriors[0], ens.probs, atol=1e-14)

    def test_dimension_mismatch(self):
        ens = Ensemble([1.0], [DensityOperator(np.eye(3) / 3)])
        with pytest.raises(DimensionMismatchError):
            apply_measurement(z_measurement(), ens)

    def test_consistency_invariants(self):
        for dim in (2, 3, 4, 5, 6):
            for t in range(30):
                ens, meas = random_instance(dim, 3, 4, t % 2 == 0, 1000 * dim + t)
                a = apply_measurement(meas, ens)
                assert abs(a.outcome_probs.sum() - 1.0) <= 1e-9
                np.testing.assert_allclose(a.cond_probs @ ens.probs,
                                           a.outcome_probs, atol=1e-9)
                for j in a.effective_outcomes():
                    # Bayes: Q_j P(i|j) = P_i Q(j|i)
                    np.testing.assert_allclose(
                        a.outcome_probs[j] * a.posteriors[j],
                        ens.probs * a.cond_probs[j], atol=1e-9)
                    # mixture: sum_i P(i|j) rho'_ji = rho'_j
                    acc = np.zeros((dim, dim), dtype=complex)
                    for i in range(ens.size):
                        if a.cond_probs[j, i] >= PROB_FLOOR:
                            acc += a.posteriors[j, i] * a.cond_post_matrices[j, i]
                    np.testing.assert_allclose(acc, a.post_matrices[j],
                                               atol=1e-8)
                # unnormalized post states have unit total trace
                total = sum(
                    k @ ensemble_state(ens).matrix @ k.conj().T for k in meas.kraus)
                assert abs(np.trace(total).real - 1.0) <= 1e-9


class TestCoarseGrain:
    def test_singleton_groups_match_efficient(self):
        ens = zero_plus_ensemble()
        meas = z_measurement()
        grouped = Measurement(meas.kraus, groups=[[0], [1]])
        fine = apply_measurement(meas, ens)
        coarse = coarse_grain(grouped, ens)
        np.testing.assert_allclose(coarse.outcome_probs, fine.outcome_probs,
                                   atol=1e-12)
        for j in range(2):
            np.testing.assert_allclose(coarse.post_matrices[j],
                                       fine.post_matrices[j], atol=1e-12)
            np.testing.assert_allclose(coarse.posteriors[j], fine.posteriors[j],
                                       atol=1e-12)

    def test_full_group_dephases(self):
        ens = zero_plus_ensemble()  # average state [[3/4,1/4],[1/4,1/4]]
        grouped = Measurement(z_measurement().kraus, groups=[[0, 1]])
        a = coarse_grain(grouped, ens)
        np.testing.assert_allclose(a.outcome_probs, [1.0], atol=1e-12)
        np.testing.assert_allclose(a.post_matrices[0],
                                   np.diag([0.75, 0.25]), atol=1e-12)

    def test_full_group_unitary(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        ens = zero_plus_ensemble()
        a = coarse_grain(Measurement([u], groups=[[0]]), ens)
        rho = ensemble_state(ens).matrix
        np.testing.assert_allclose(a.post_matrices[0], u @ rho @ u.conj().T,
                                   atol=1e-12)

    def test_group_validation(self):
        with pytest.raises(EmptyGroupError):
            Measurement(z_measurement().kraus, groups=[[0, 1], []])
        with pytest.raises(ValueError):
            Measurement(z_measurement().kraus, groups=[[0], [0]])
        with pytest.raises(ValueError):
            coarse_grain(z_measurement(), zero_plus_ensemble())

    @pytest.mark.parametrize("groups", [[[0.9], [1.2]], [[True], [False]], [["0"], ["1"]],
                                        [[0.7], [1]], [[np.float64(0.0)], [1]],
                                        [[np.True_], [0]]])
    def test_group_indices_must_be_integers(self, groups):
        with pytest.raises(ValueError, match="integers"):
            Measurement(z_measurement().kraus, groups=groups)

    def test_json_group_indices_must_be_integers(self):
        obj = measurement_to_json(z_measurement())
        obj["groups"] = json.loads("[[0.7], [1]]")
        with pytest.raises(ValueError, match="integers"):
            measurement_from_json(obj)

    @pytest.mark.parametrize("groups", [[0, 1], 5])
    def test_groups_must_be_lists_of_indices(self, groups):
        with pytest.raises(ValueError, match="groups must be a list of lists"):
            Measurement(z_measurement().kraus, groups=groups)

    def test_json_groups_must_be_lists_of_indices(self):
        obj = measurement_to_json(z_measurement())
        obj["groups"] = json.loads("[0, 1]")
        with pytest.raises(ValueError, match=r"groups must be a list of lists.*\[0, 1\]"):
            measurement_from_json(obj)

    def test_numpy_integer_indices_become_python_ints(self):
        m = Measurement(z_measurement().kraus, groups=[np.array([1]), [np.int32(0)]])
        assert m.groups == ((1,), (0,))
        assert all(type(i) is int for g in m.groups for i in g)


def labelled_mixture(m1, m2, lam):
    """Reference mixture: Kraus operators built one at a time, each labelled
    (parent, parent outcome index), and outcomes sharing a parent outcome
    index grouped in label order."""
    kraus, labels = [], []
    if lam > 0.0:
        for j, a in enumerate(m1.kraus):
            kraus.append(np.sqrt(lam) * a)
            labels.append((0, j))
    if lam < 1.0:
        for k, b in enumerate(m2.kraus):
            kraus.append(np.sqrt(1.0 - lam) * b)
            labels.append((1, k))
    buckets = {}
    for idx, (_, parent_idx) in enumerate(labels):
        buckets.setdefault(parent_idx, []).append(idx)
    return np.stack(kraus), tuple(tuple(buckets[k]) for k in sorted(buckets))


class TestMixMeasurements:
    def test_endpoints(self):
        mz, mx = z_measurement(), Measurement(
            [np.outer(PLUS, PLUS), np.eye(2) - np.outer(PLUS, PLUS)])
        m1 = mix_measurements(mz, mx, 1.0)
        assert m1.size == 2
        np.testing.assert_allclose(m1.kraus[0], mz.kraus[0], atol=1e-14)
        assert m1.groups == ((0,), (1,))
        m0 = mix_measurements(mz, mx, 0.0)
        assert m0.size == 2
        np.testing.assert_allclose(m0.kraus[1], mx.kraus[1], atol=1e-14)
        assert m0.groups == ((0,), (1,))

    def test_half_mix_of_z_with_itself(self):
        mz = z_measurement()
        m = mix_measurements(mz, mz, 0.5)
        assert m.size == 4
        for a in m.kraus:
            assert abs(np.linalg.norm(a) - 1.0 / np.sqrt(2.0)) <= 1e-12
        total = sum(a.conj().T @ a for a in m.kraus)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 3), (2, 2)])
    def test_groups_merge_outcome_indices_bit_for_bit(self, sizes):
        m1, m2 = (random_instance(3, 1, n, True, 40 + n)[1] for n in sizes)
        for lam in np.linspace(0.0, 1.0, 101).tolist():
            kraus, groups = labelled_mixture(m1, m2, lam)
            mixed = mix_measurements(m1, m2, lam)
            assert mixed.kraus_stack.tobytes() == kraus.tobytes()
            assert mixed.groups == groups

    def test_rejects_parents_with_groups(self):
        mz = z_measurement()
        grouped = Measurement(mz.kraus, groups=[[0, 1]])
        for m1, m2 in [(grouped, grouped), (grouped, mz), (mz, grouped)]:
            with pytest.raises(ValueError, match="outcome groups"):
                mix_measurements(m1, m2, 0.5)

    def test_completeness_preserved(self):
        rng = np.random.default_rng(9)
        for t in range(100):
            dim = int(rng.integers(2, 5))
            _, m1 = random_instance(dim, 1, int(rng.integers(1, 5)), True,
                                    int(rng.integers(2 ** 63)))
            _, m2 = random_instance(dim, 1, int(rng.integers(1, 5)), True,
                                    int(rng.integers(2 ** 63)))
            lam = float(rng.uniform())
            mixed = mix_measurements(m1, m2, lam)
            total = sum(a.conj().T @ a for a in mixed.kraus)
            assert np.linalg.norm(total - np.eye(dim)) <= 1e-10


class TestRandomInstance:
    def test_deterministic(self):
        e1, m1 = random_instance(3, 4, 5, False, 123)
        e2, m2 = random_instance(3, 4, 5, False, 123)
        np.testing.assert_array_equal(e1.probs, e2.probs)
        for s1, s2 in zip(e1.states, e2.states):
            np.testing.assert_array_equal(s1.matrix, s2.matrix)
        for a1, a2 in zip(m1.kraus, m2.kraus):
            np.testing.assert_array_equal(a1, a2)

    def test_pure_flag(self):
        ens, _ = random_instance(4, 5, 3, True, 7)
        assert ens.is_pure

    def test_completeness_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            _, meas = random_instance(dim, 2, int(rng.integers(1, 10)), False,
                                      int(rng.integers(2 ** 63)))
            total = sum(a.conj().T @ a for a in meas.kraus)
            assert np.linalg.norm(total - np.eye(dim)) <= 1e-10


def one_draw_at_a_time(dim, n_states, n_outcomes, pure, seed):
    """Reference for ``random_instance``: one normal draw per state and per
    factor, each state formed, normalized and diagonalized on its own.
    Returns the probabilities, states, spectra, Kraus operators, the
    number of ill-conditioned redraws and the member factors: the drawn
    vector or matrix over its norm, B B† = rho."""
    rng = np.random.default_rng(seed)
    probs = np.diff(np.concatenate(([0.0], np.sort(rng.uniform(size=n_states - 1)), [1.0])))
    states, members = [], []
    for _ in range(n_states):
        if pure:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            states.append(np.outer(v, v.conj()) / float(np.vdot(v, v).real))
            members.append(v[:, None] / np.sqrt(float(np.vdot(v, v).real)))
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            w = g @ g.conj().T
            states.append(w / np.trace(w).real)
            members.append(g / np.sqrt(np.trace(w).real))
    spectra = [np.where(e < 0.0, 0.0, e) for e in map(np.linalg.eigvalsh, states)]
    redraws = -1
    while True:
        redraws += 1
        ranks = rng.integers(1, dim + 1, size=n_outcomes)
        while ranks.sum() < dim:
            pick = int(rng.integers(n_outcomes))
            if ranks[pick] < dim:
                ranks[pick] += 1
        factors = []
        for rank in ranks:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            g[rank:, :] = 0.0
            factors.append(g)
        w, v = np.linalg.eigh(sum(g.conj().T @ g for g in factors))
        if w[0] > 1e-4 * w[-1]:
            break
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return probs, states, spectra, [g @ inv_root for g in factors], redraws, members


BATCHED_DRAW_CASES = ([(dim, n_states, n_outcomes, pure, 1000 * dim + n_states)
                       for dim in range(2, 7) for n_states, n_outcomes in ((2, 2), (5, 6), (8, 9))
                       for pure in (True, False)]
                      + [(2, 2, 1, True, 37), (4, 2, 2, True, 150)])  # these two redraw


@pytest.mark.parametrize("dim, n_states, n_outcomes, pure, seed", BATCHED_DRAW_CASES)
def test_batched_draws_have_the_bits_of_one_draw_at_a_time(dim, n_states, n_outcomes, pure, seed):
    probs, states, spectra, kraus, redraws, members = one_draw_at_a_time(
        dim, n_states, n_outcomes, pure, seed)
    ens, meas = random_instance(dim, n_states, n_outcomes, pure, seed)
    assert ens.probs.tobytes() == probs.tobytes()
    assert np.stack([s.matrix for s in ens.states]).tobytes() == np.stack(states).tobytes()
    assert np.stack([s.eigenvalues for s in ens.states]).tobytes() == np.stack(spectra).tobytes()
    assert meas.kraus_stack.tobytes() == np.stack(kraus).tobytes()
    assert redraws == (seed in (37, 150))
    assert all(s._factor.tobytes() == b.tobytes() for s, b in zip(ens.states, members))


def mutated_states(kind):
    """A stack of valid states with the second one spoiled as ``kind`` says."""
    ens, _ = random_instance(3, 3, 2, False, 5)
    m = np.stack([s.matrix for s in ens.states])
    if kind == "non-hermitian":
        m[1, 0, 1] += 1e-3
    elif kind == "trace":
        m[1] *= 1.01
    elif kind == "negative":
        m[1] = np.diag([1.2, -0.1, -0.1])
    else:
        m[1, 2, 2] = np.nan
    return m


@pytest.mark.parametrize("kind", ["non-hermitian", "trace", "negative", "nan"])
def test_batched_state_checks_reject_what_the_constructor_rejects(kind):
    m = mutated_states(kind)
    with pytest.raises(ValueError):
        DensityOperator(m[1])
    with pytest.raises(ValueError):
        _checked_spectra(m)
    _checked_spectra(np.delete(m, 1, axis=0))  # the others pass


@st.composite
def jobs(draw):
    """A dimension and 1-6 specs (seed, n_states, n_outcomes, pure) of mixed shapes."""
    spec = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 9),
                     st.booleans())
    return draw(st.integers(2, 6)), draw(st.lists(spec, min_size=1, max_size=6))


def padded_draw(dim, spec, n_mem, n_out, width):
    """``one_draw_at_a_time`` of one spec, zero-padded to ``n_mem`` members,
    ``n_out`` outcomes and factors ``width`` columns wide, with its member
    and outcome masks."""
    seed, n_states, n_outcomes, pure = spec
    *drawn, _, members = one_draw_at_a_time(dim, n_states, n_outcomes, pure, seed)
    padded = (np.zeros(n_mem), np.zeros((n_mem, dim, dim), dtype=complex),
              np.zeros((n_mem, dim)), np.zeros((n_out, dim, dim), dtype=complex))
    for out, arrays in zip(padded, drawn):
        out[:len(arrays)] = arrays
    factors = np.zeros((n_mem, dim, width), dtype=complex)
    for out, b in zip(factors, members):
        out[:, :b.shape[1]] = b
    return padded + (np.arange(n_mem) < n_states, np.arange(n_out) < n_outcomes, factors)


@given(jobs())
@example((2, [(5, 3, 4, False), (37, 2, 1, True), (6, 8, 9, True)]))  # 37 and 150 redraw
@example((4, [(9, 1, 9, True), (10, 5, 1, False), (150, 2, 2, True)]))
def test_whole_job_draws_have_the_bits_of_one_draw_at_a_time(job):
    dim, specs = job
    batch = _random_batch(dim, specs)
    n_mem, n_out, width = batch[0].shape[1], batch[3].shape[1], batch[6].shape[-1]
    assert width == (1 if all(pure for *_, pure in specs) else dim)
    for k, spec in enumerate(specs):
        for got, want in zip((a[k] for a in batch), padded_draw(dim, spec, n_mem, n_out, width),
                             strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(jobs())
def test_whole_job_draws_feed_the_kernel_as_padded_instances_do(job):
    dim, specs = job
    seeds = [seed for seed, *_ in specs]
    instances = [random_instance(dim, n_states, n_outcomes, pure, seed)
                 for seed, n_states, n_outcomes, pure in specs]
    assert bound_reports(instances, seeds) == _reports(_random_batch(dim, specs), seeds)


JOB = [(1, 2, 2, True), (2, 3, 4, False), (3, 2, 3, True)]


@pytest.mark.parametrize("kind", ["non-hermitian", "trace", "negative"])
def test_whole_job_draws_reject_a_spoiled_state_as_the_constructor_does(kind, monkeypatch):
    spoiled = mutated_states(kind)[1]
    with pytest.raises(ValueError) as constructor:
        DensityOperator(spoiled)
    check = qobjects._checked_spectra

    def spoil_one(m):
        m = m.copy()
        m[3] = spoiled
        return check(m)

    monkeypatch.setattr(qobjects, "_checked_spectra", spoil_one)
    with pytest.raises(ValueError, match=re.escape(str(constructor.value).split(",")[0])):
        _random_batch(3, JOB)


def test_whole_job_draws_reject_an_incomplete_factor_set(monkeypatch):
    eigh = np.linalg.eigh

    def off_by_one_percent(totals):  # spoils the inverse root of the second instance
        w, v = eigh(totals)
        return w * np.where(np.arange(len(w)) == 1, 1.01, 1.0)[:, None], v

    monkeypatch.setattr(np.linalg, "eigh", off_by_one_percent)
    with pytest.raises(ValueError, match="completeness"):
        _random_batch(3, JOB)


def test_stacked_completeness_check_rejects_an_incomplete_measurement():
    _, meas = random_instance(3, 2, 4, False, 8)
    with pytest.raises(ValueError, match="completeness"):
        Measurement(meas.kraus_stack * 1.001)
    with pytest.raises(ValueError, match="completeness"):
        Measurement(meas.kraus_stack[:-1])


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    @pytest.mark.parametrize("dim", [2, 2.0])
    def test_matrix_dim_is_an_integral_number(self, dim):
        obj = {**matrix_to_json(np.eye(2)), "dim": dim}
        np.testing.assert_array_equal(matrix_from_json(obj), np.eye(2))

    @pytest.mark.parametrize("dim", [True, 2.7, "2", math.inf, math.nan])
    def test_matrix_dim_that_is_not_an_integral_number_is_rejected(self, dim):
        obj = {**matrix_to_json(np.eye(2)), "dim": dim}
        with pytest.raises(ValueError, match="integral"):
            matrix_from_json(obj)

    def test_ensemble_round_trip(self):
        ens, _ = random_instance(3, 3, 2, False, 77)
        back = ensemble_from_json(ensemble_to_json(ens))
        np.testing.assert_allclose(back.probs, ens.probs, atol=0)
        for s1, s2 in zip(back.states, ens.states):
            np.testing.assert_array_equal(s1.matrix, s2.matrix)

    def test_measurement_round_trip_with_groups(self):
        meas = Measurement(z_measurement().kraus, groups=[[1], [0]])
        back = measurement_from_json(measurement_to_json(meas))
        assert back.groups == ((1,), (0,))
        for a1, a2 in zip(back.kraus, meas.kraus):
            np.testing.assert_array_equal(a1, a2)


@pytest.mark.parametrize("dim", range(2, 33))
def test_a_pure_state_given_as_a_matrix_takes_the_pure_path(dim):
    """Its factor is one column, so an efficient measurement gives it the exact
    conditional spectra {0, ..., 0, 1} of the same state made by ``pure_state``."""
    rng = np.random.default_rng(dim)
    kets = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    given = [DensityOperator(np.outer(k, k.conj())) for k in kets]
    assert _factors(given).shape == (4, dim, 1)
    meas = random_instance(dim, 1, 3, True, dim)[1]
    probs = np.full(4, 0.25)
    ours, exact = (apply_measurement(meas, Ensemble(probs, states))
                   for states in (given, [pure_state(k) for k in kets]))
    assert np.array_equal(ours.cond_post_spectra, exact.cond_post_spectra)
