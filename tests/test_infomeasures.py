import math

import mpmath as mp
import numpy as np
import pytest

from qbound.infomeasures import (InvalidDistributionError, conditional_info_gain,
                                 holevo_chi, info_gain_f, mutual_information,
                                 shannon, subentropy, von_neumann)
from qbound.qobjects import (DensityOperator, Ensemble, Measurement,
                             apply_measurement, coarse_grain, pure_state,
                             random_instance)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)

# closed-form eigenvalues of [[3/4,1/4],[1/4,1/4]] and the entropy they give
LAM = ((1 - 1 / math.sqrt(2)) / 2, (1 + 1 / math.sqrt(2)) / 2)
S_EXAMPLE = -sum(x * math.log(x) for x in LAM)  # 0.41649553069968745


def z_measurement():
    return Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def zero_plus_ensemble():
    return Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(PLUS)])


def uniform_subentropy(n: int) -> float:
    return math.log(n) - sum(1.0 / k for k in range(2, n + 1))


def jrw_nondegenerate(lams, dps=60) -> float:
    """Independent oracle: the plain product-form subentropy sum for
    distinct eigenvalues, evaluated in high precision."""
    with mp.workdps(dps):
        lams = [mp.mpf(x) for x in lams]
        n = len(lams)
        total = mp.mpf(0)
        for k in range(n):
            if lams[k] <= 0:
                continue
            den = mp.mpf(1)
            for l in range(n):
                if l != k:
                    den *= lams[k] - lams[l]
            total += lams[k] ** n * mp.ln(lams[k]) / den
        return float(-total)


class TestShannon:
    def test_deterministic(self):
        assert shannon([1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert abs(shannon([0.5, 0.5]) - math.log(2)) <= 1e-15

    def test_two_thirds(self):
        expected = math.log(3) - (2 / 3) * math.log(2)
        assert abs(shannon([2 / 3, 1 / 3]) - expected) <= 1e-15
        assert abs(expected - 0.636514) <= 1e-6

    def test_invalid(self):
        with pytest.raises(InvalidDistributionError):
            shannon([0.5, 0.6])
        with pytest.raises(InvalidDistributionError):
            shannon([1.5, -0.5])

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            assert -1e-12 <= shannon(p) <= math.log(5) + 1e-12


class TestVonNeumann:
    def test_pure_exactly_zero(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 5):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            assert von_neumann(pure_state(v)) == 0.0

    def test_maximally_mixed(self):
        for n in (2, 3, 4):
            assert abs(von_neumann(DensityOperator(np.eye(n) / n)) - math.log(n)) <= 1e-12

    def test_example_state(self):
        rho = DensityOperator(np.array([[0.75, 0.25], [0.25, 0.25]]))
        assert abs(von_neumann(rho) - S_EXAMPLE) <= 1e-12


class TestSubentropy:
    def test_pure_exactly_zero(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 4, 6):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            assert subentropy(pure_state(v)) == 0.0

    def test_maximally_mixed_qubit(self):
        q = subentropy(DensityOperator(np.eye(2) / 2))
        assert abs(q - (math.log(2) - 0.5)) <= 1e-12

    def test_maximally_mixed_closed_form(self):
        for n in range(2, 7):
            q = subentropy(DensityOperator(np.eye(n) / n))
            assert abs(q - uniform_subentropy(n)) <= 1e-10

    def test_matches_nondegenerate_oracle(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 4, 5):
            for _ in range(10):
                lam = rng.dirichlet(np.ones(dim))
                q = subentropy(DensityOperator(np.diag(lam)))
                assert abs(q - jrw_nondegenerate(np.sort(lam))) <= 1e-9

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_cluster_just_above_merge_gap(self, n):
        # n-1 eigenvalues spaced 1.5e-7 apart, just above the gap at which
        # a divided-difference table merges nodes: each of its orders would
        # cancel ~7 digits
        lam = [0.05 + k * 1.5e-7 for k in range(n - 1)]
        lam.append(1.0 - sum(lam))
        q = subentropy(DensityOperator(np.diag(lam)))
        assert abs(q - jrw_nondegenerate(sorted(lam), dps=300)) <= 1e-10

    def test_embedded_spectrum_unchanged_by_zeros(self):
        # padding with zero eigenvalues does not change the subentropy
        q2 = subentropy(DensityOperator(np.diag([0.4, 0.6])))
        q3 = subentropy(DensityOperator(np.diag([0.4, 0.6, 0.0])))
        assert abs(q2 - q3) <= 1e-10

    def test_continuity_at_degeneracy(self):
        base = np.array([0.2, 0.2, 0.6])
        bumped = base + np.array([-1e-9, 1e-9, 0.0])
        q0 = subentropy(DensityOperator(np.diag(base)))
        q1 = subentropy(DensityOperator(np.diag(bumped)))
        assert abs(q0 - q1) < 1e-6

    def test_between_zero_and_von_neumann(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 4, 5, 6):
            for t in range(30):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                w = g @ g.conj().T
                rho = DensityOperator(w / np.trace(w).real)
                q = subentropy(rho)
                assert q >= -1e-9
                assert q <= von_neumann(rho) + 1e-9


class TestMutualInformation:
    def test_orthogonal_states(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        a = apply_measurement(z_measurement(), ens)
        assert abs(mutual_information(a) - math.log(2)) <= 1e-12

    def test_identity_measurement(self):
        a = apply_measurement(Measurement([np.eye(2)]), zero_plus_ensemble())
        assert abs(mutual_information(a)) <= 1e-12

    def test_zero_plus_value(self):
        a = apply_measurement(z_measurement(), zero_plus_ensemble())
        expected = math.log(2) - 0.75 * shannon([2 / 3, 1 / 3])
        assert abs(mutual_information(a) - expected) <= 1e-12
        assert abs(expected - 0.215761) <= 1e-6

    def test_symmetry_of_directions(self):
        # H[P] - sum_j Q_j H[P(i|j)] == H[Q] - sum_i P_i H[Q(j|i)]
        rng = np.random.default_rng(5)
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            ens, meas = random_instance(dim, int(rng.integers(2, 6)),
                                        int(rng.integers(2, 6)),
                                        bool(rng.integers(2)),
                                        int(rng.integers(2 ** 63)))
            a = apply_measurement(meas, ens)
            lhs = mutual_information(a)
            rhs = shannon(a.outcome_probs, tol=1e-7)
            for i in range(ens.size):
                if ens.probs[i] > 0.0:
                    rhs -= ens.probs[i] * shannon(a.cond_probs[:, i], tol=1e-7)
            assert abs(lhs - rhs) <= 1e-9


class TestInfoGainF:
    def test_rank_one_projective_gives_full_entropy(self):
        ens = zero_plus_ensemble()
        a = apply_measurement(z_measurement(), ens)
        assert abs(info_gain_f(a) - S_EXAMPLE) <= 1e-12

    def test_grouped_unbiased_basis_negative(self):
        ens = Ensemble([0.75, 0.25], [pure_state(KET0), pure_state(KET1)])
        x_proj = Measurement([np.outer(PLUS, PLUS),
                              np.eye(2) - np.outer(PLUS, PLUS)], groups=[[0, 1]])
        a = coarse_grain(x_proj, ens)
        expected = shannon([0.75, 0.25]) - math.log(2)  # -0.130812...
        assert abs(info_gain_f(a) - expected) <= 1e-12
        assert abs(expected + 0.130812) <= 1e-6

    def test_nonnegative_for_efficient(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            ens, meas = random_instance(dim, 3, 4, bool(rng.integers(2)),
                                        int(rng.integers(2 ** 63)))
            a = apply_measurement(meas, ens)
            assert info_gain_f(a) >= -1e-10
            assert mutual_information(a) >= -1e-10


class TestConditionalInfoGain:
    def test_pure_member_zero(self):
        ens = zero_plus_ensemble()
        a = apply_measurement(z_measurement(), ens)
        for i in range(2):
            assert abs(conditional_info_gain(a, i)) <= 1e-12

    def test_identity_measurement_zero(self):
        ens = Ensemble([0.5, 0.5], [DensityOperator(np.eye(2) / 2),
                                    pure_state(PLUS)])
        a = apply_measurement(Measurement([np.eye(2)]), ens)
        for i in range(2):
            assert abs(conditional_info_gain(a, i)) <= 1e-12

    def test_mixed_member_purified(self):
        ens = Ensemble([1.0], [DensityOperator(np.eye(2) / 2)])
        a = apply_measurement(z_measurement(), ens)
        assert abs(conditional_info_gain(a, 0) - math.log(2)) <= 1e-12

    def test_index_error(self):
        a = apply_measurement(z_measurement(), zero_plus_ensemble())
        with pytest.raises(IndexError):
            conditional_info_gain(a, 5)

    def test_nonnegative_and_average_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            ens, meas = random_instance(dim, 3, 3, False, int(rng.integers(2 ** 63)))
            a = apply_measurement(meas, ens)
            avg = 0.0
            for i in range(ens.size):
                gain = conditional_info_gain(a, i)
                assert gain >= -1e-10
                avg += ens.probs[i] * gain
            # recompute the average from the raw tables
            raw = 0.0
            for i in range(ens.size):
                term = von_neumann(ens.states[i])
                for j in range(a.n_outcomes):
                    if a.cond_probs[j, i] >= 1e-12:
                        term -= a.cond_probs[j, i] * von_neumann(
                            DensityOperator(a.cond_post_matrices[j, i]))
                raw += ens.probs[i] * term
            assert abs(avg - raw) <= 1e-10


class TestHolevoChi:
    def test_orthogonal_pair(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        assert abs(holevo_chi(ens) - math.log(2)) <= 1e-12

    def test_identical_states(self):
        ens = Ensemble([0.5, 0.5], [pure_state(PLUS), pure_state(PLUS)])
        assert abs(holevo_chi(ens)) <= 1e-12

    def test_pure_ensemble_equals_average_entropy(self):
        ens = zero_plus_ensemble()
        assert abs(holevo_chi(ens) - S_EXAMPLE) <= 1e-12

    def test_bounded_by_average_entropy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ens, _ = random_instance(3, 4, 2, False, int(rng.integers(2 ** 63)))
            chi = holevo_chi(ens)
            from qbound.qobjects import ensemble_state
            assert -1e-10 <= chi <= von_neumann(ensemble_state(ens)) + 1e-10
