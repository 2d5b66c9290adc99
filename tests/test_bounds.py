import math

import numpy as np
import pytest

from qbound.bounds import (EQSPEC_TOL, LengthMismatchError, NotPureEnsembleError, accb_rhs,
                           bound_report, bound_reports, bsub_rhs, dimension_bound,
                           dual_holevo_rhs, eqspec_check, eqx_rhs,
                           saturation_predicates, spectrum_identity_deviation,
                           sww_rhs)
from qbound.accinfo import povm_from_vectors
from qbound.infomeasures import (holevo_chi, info_gain_f, mutual_information,
                                 shannon, subentropy)
from qbound.matrixcore import hermitize, support_projector
from qbound.qobjects import (DensityOperator, Ensemble, Measurement,
                             apply_measurement, ensemble_state, pure_state,
                             random_instance)
from qbound.scenarios import (basis_projectors, eqspec_counterexample,
                              eqspec_satisfied_family, qubit_x_projectors,
                              random_diagonal_classical)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)

LAM = ((1 - 1 / math.sqrt(2)) / 2, (1 + 1 / math.sqrt(2)) / 2)
S_EXAMPLE = -sum(x * math.log(x) for x in LAM)


def zero_plus_ensemble():
    return Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(PLUS)])


class TestDualHolevo:
    def test_rank_one_povm_gives_full_entropy(self):
        rho = DensityOperator(np.array([[0.75, 0.25], [0.25, 0.25]]))
        assert abs(dual_holevo_rhs(rho, basis_projectors(2)) - S_EXAMPLE) <= 1e-12

    def test_identity_measurement_zero(self):
        rho = DensityOperator(np.eye(3) / 3)
        assert abs(dual_holevo_rhs(rho, Measurement([np.eye(3)]))) <= 1e-12

    def test_equals_info_gain(self):
        ens = zero_plus_ensemble()
        a = apply_measurement(basis_projectors(2), ens)
        dual = dual_holevo_rhs(ensemble_state(ens), basis_projectors(2))
        assert abs(dual - info_gain_f(a)) <= 1e-12


class TestSww:
    def test_pure_ensemble_reduces_to_info_gain(self):
        ens = zero_plus_ensemble()
        a = apply_measurement(basis_projectors(2), ens)
        val = sww_rhs(a)
        assert abs(val - info_gain_f(a)) <= 1e-10
        assert abs(val - S_EXAMPLE) <= 1e-10
        assert mutual_information(a) <= val + 1e-12

    def test_identity_measurement_zero(self):
        a = apply_measurement(Measurement([np.eye(2)]), zero_plus_ensemble())
        assert abs(sww_rhs(a)) <= 1e-10

    def test_forms_agree_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            ens, meas = random_instance(dim, int(rng.integers(2, 6)),
                                        int(rng.integers(2, 6)),
                                        bool(rng.integers(2)),
                                        int(rng.integers(2 ** 63)))
            rep = bound_report(ens, meas)
            assert abs(rep.sww_alt - rep.sww) <= 1e-9


class TestEqx:
    def test_pure_ensemble_equals_info_gain(self):
        ens = zero_plus_ensemble()
        a = apply_measurement(basis_projectors(2), ens)
        assert abs(eqx_rhs(a) - info_gain_f(a)) <= 1e-10

    def test_identity_measurement_zero(self):
        a = apply_measurement(Measurement([np.eye(2)]), zero_plus_ensemble())
        assert abs(eqx_rhs(a)) <= 1e-10

    def test_equals_sww_on_mixed_instance(self):
        ens, meas = random_instance(3, 3, 4, False, 7)
        a = apply_measurement(meas, ens)
        assert abs(eqx_rhs(a) - sww_rhs(a)) <= 1e-9


class TestAccb:
    def test_classical_equality_case(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        a = apply_measurement(basis_projectors(2), ens)
        acc_total = shannon(ens.probs)
        acc_post = [shannon(a.posteriors[j]) for j in range(2)]
        rhs = accb_rhs(acc_total, acc_post, a.outcome_probs)
        assert abs(rhs - mutual_information(a)) <= 1e-12

    def test_zero_posteriors(self):
        assert accb_rhs(1.5, [0.0, 0.0], [0.4, 0.6]) == 1.5

    def test_degenerate_outcome(self):
        assert abs(accb_rhs(1.0, [0.25, 0.75], [0.0, 1.0]) - 0.25) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            accb_rhs(1.0, [0.1], [0.5, 0.5])


class TestBsub:
    def test_pure_posteriors_give_acc_total(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        a = apply_measurement(basis_projectors(2), ens)
        assert abs(bsub_rhs(0.7, a) - 0.7) <= 1e-12

    def test_trivial_povm_cancels(self):
        # ensemble averaging to I/2 with an uninformative POVM
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        trivial = Measurement([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
        a = apply_measurement(trivial, ens)
        q_half = subentropy(DensityOperator(np.eye(2) / 2))
        assert abs(bsub_rhs(q_half, a)) <= 1e-12
        assert abs(mutual_information(a)) <= 1e-12

    def test_projective_on_uniform_average(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        a = apply_measurement(basis_projectors(2), ens)
        q_half = subentropy(DensityOperator(np.eye(2) / 2))
        assert abs(bsub_rhs(q_half, a) - (math.log(2) - 0.5)) <= 1e-12

    def test_requires_pure_ensemble(self):
        ens = Ensemble([1.0], [DensityOperator(np.eye(2) / 2)])
        a = apply_measurement(basis_projectors(2), ens)
        with pytest.raises(NotPureEnsembleError):
            bsub_rhs(0.5, a)


class TestEqspec:
    def test_rank_one_measurement_satisfied(self):
        rng = np.random.default_rng(2)
        from qbound.accinfo import povm_from_vectors
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            ens, _ = random_instance(dim, 3, 2, False, int(rng.integers(2 ** 63)))
            vecs = rng.normal(size=(dim + 2, dim)) + 1j * rng.normal(size=(dim + 2, dim))
            sat, alphas = eqspec_check(ens, povm_from_vectors(vecs))
            assert sat
            assert np.all(alphas[~np.isnan(alphas)] >= 0.0)

    def test_orthogonal_counterexample_rejected(self):
        ens, meas = eqspec_counterexample()
        sat, _ = eqspec_check(ens, meas)
        assert not sat

    def test_identical_states_satisfied_with_unit_alpha(self):
        rho = DensityOperator(np.eye(2) / 2)
        ens = Ensemble([0.5, 0.5], [rho, rho])
        sat, alphas = eqspec_check(ens, basis_projectors(2))
        assert sat
        valid = alphas[~np.isnan(alphas)]
        np.testing.assert_allclose(valid, 1.0, atol=1e-12)

    def test_one_sided_zero_compression_fails(self):
        ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
        sat, _ = eqspec_check(ens, basis_projectors(2))
        assert not sat

    def test_satisfied_family(self):
        ens, meas = eqspec_satisfied_family()
        sat, _ = eqspec_check(ens, meas)
        assert sat

    @pytest.mark.parametrize("n", [444, 1000])
    def test_satisfied_family_compressions_stay_above_the_tolerance(self, n):
        ens, meas = eqspec_satisfied_family(n)
        states = np.stack([s.matrix for s in ens.states])
        traces = np.einsum("kab,iba->ik", meas.kraus_stack, states).real
        assert traces.min() > EQSPEC_TOL

    def test_satisfied_family_holds_at_444_states(self):
        assert eqspec_check(*eqspec_satisfied_family(444))[0]

    @pytest.mark.parametrize("case", ["family-3", "family-50", "family-444", "counterexample",
                                      "one-sided", *[f"random-{seed}" for seed in range(12)]])
    def test_stacked_check_matches_the_pairwise_loop(self, case):
        if case.startswith("family"):
            ens, meas = eqspec_satisfied_family(int(case.split("-")[1]))
        elif case == "counterexample":
            ens, meas = eqspec_counterexample()
        elif case == "one-sided":
            ens, meas = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)]), \
                basis_projectors(2)
        else:  # random pairs, half of them with rank-one outcomes the scenario draws
            seed = int(case.split("-")[1])
            ens, meas = random_instance(2 + seed % 3, 2 + seed % 4, 3, seed % 2 == 0, seed)
            if seed % 4 < 2:
                g = np.random.default_rng(seed).normal(size=(2 * ens.dim, ens.dim, 2))
                meas = povm_from_vectors(g[..., 0] + 1j * g[..., 1])
        sat, alphas = eqspec_check(ens, meas)
        want_sat, want_alphas = pairwise_eqspec(ens, meas)
        assert sat is want_sat
        np.testing.assert_array_equal(alphas, want_alphas)  # NaN equals NaN here


def pairwise_eqspec(ensemble, measurement):
    """Test-side port of ``eqspec_check`` as a Python loop over the ordered
    member pairs of each outcome, one norm a pair."""
    n = ensemble.size
    alphas = np.full((n, n, measurement.size), np.nan)
    satisfied = True
    for j, a in enumerate(measurement.kraus):
        proj = support_projector(a)
        comp = [hermitize(proj @ s.matrix @ proj) for s in ensemble.states]
        traces = [float(np.trace(x).real) for x in comp]
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                ti, tk = traces[i], traces[k]
                if ti <= EQSPEC_TOL and tk <= EQSPEC_TOL:
                    continue
                if ti <= EQSPEC_TOL or tk <= EQSPEC_TOL:
                    satisfied = False
                    continue
                alpha = ti / tk
                alphas[i, k, j] = alpha
                scale = max(1.0, np.linalg.norm(comp[i]), np.linalg.norm(comp[k]))
                if np.linalg.norm(comp[i] - alpha * comp[k]) > EQSPEC_TOL * scale:
                    satisfied = False
    return satisfied, alphas


class TestDimensionBound:
    def test_all_rank_one(self):
        assert abs(dimension_bound(basis_projectors(4), 4) - math.log(4)) <= 1e-12

    def test_full_rank_outcome(self):
        _, meas = random_instance(3, 1, 1, True, 0)
        assert dimension_bound(meas, 3) == 0.0

    def test_rank_two_in_three(self):
        _, meas = eqspec_satisfied_family()
        assert abs(dimension_bound(meas, 3) - math.log(2)) <= 1e-12


class TestSaturationPredicates:
    def test_classical_instance(self):
        ens, meas = random_diagonal_classical(3, 5)
        flags = saturation_predicates(ens, meas)
        assert flags.classical
        assert flags.povm_commuting
        assert flags.pure_ensemble

    def test_mixed_bases_not_commuting(self):
        both = Measurement(
            [a / np.sqrt(2) for a in basis_projectors(2).kraus] +
            [a / np.sqrt(2) for a in qubit_x_projectors().kraus])
        ens = zero_plus_ensemble()
        flags = saturation_predicates(ens, both)
        assert not flags.povm_commuting

    def test_rank_one_projective(self):
        flags = saturation_predicates(zero_plus_ensemble(), basis_projectors(2))
        assert flags.povm_commuting
        assert flags.rank_one_povm

    def test_stacked_rank_one_counts_existing_outcomes_only(self):
        ens, wide = random_instance(2, 3, 9, True, 1)
        zero = Measurement(list(basis_projectors(2).kraus) + [np.zeros((2, 2))])
        reports = bound_reports([(ens, basis_projectors(2)), (ens, wide), (ens, zero)])
        assert [r.flags.rank_one_povm for r in reports] == [True, False, False]
        assert saturation_predicates(ens, zero) == reports[2].flags


class TestBoundReport:
    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            ens, meas = random_instance(dim, int(rng.integers(2, 9)),
                                        int(rng.integers(2, 10)),
                                        bool(rng.integers(2)),
                                        int(rng.integers(2 ** 63)))
            rep = bound_report(ens, meas)
            assert rep.min_slack() >= -1e-8
            assert abs(rep.sww - rep.sww_alt) <= 1e-9
            assert abs(rep.eqx - rep.sww) <= 1e-9
            assert abs(rep.dual - rep.info_f) <= 1e-9
            assert rep.spectrum_identity_dev <= 1e-9
            assert rep.sww <= rep.chi + 1e-9

    def test_classical_saturation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            ens, meas = random_diagonal_classical(dim, int(rng.integers(2 ** 63)))
            a = apply_measurement(meas, ens)
            assert abs(mutual_information(a) - info_gain_f(a)) <= 1e-9

    def test_stacked_reports_need_one_seed_per_instance(self):
        ens, meas = random_instance(2, 2, 2, True, 1)
        assert bound_reports([]) == []
        assert [r.seed for r in bound_reports([(ens, meas)] * 2, [5, 6])] == [5, 6]
        with pytest.raises(LengthMismatchError):
            bound_reports([(ens, meas)] * 2, [5])

    def test_spectrum_identity_direct(self):
        ens, meas = random_instance(4, 3, 5, False, 11)
        a = apply_measurement(meas, ens)
        dev = spectrum_identity_deviation(ensemble_state(ens), meas, a)
        assert dev <= 1e-10


def test_eqspec_satisfied_posteriors_carry_no_information():
    from qbound.accinfo import maximize_mutual_info
    ens, meas = eqspec_satisfied_family()
    a = apply_measurement(meas, ens)
    for j in a.effective_outcomes():
        res = maximize_mutual_info(a.posterior_ensemble(j), budget=300,
                                   restarts=2, seed=5)
        assert res.best_value <= 1e-3


def test_chain_with_analytic_accessible_information():
    # orthogonal encoding measured in its own basis: the accessible
    # information chain is tight and every bound in the chain coincides
    ens = Ensemble([0.5, 0.5], [pure_state(KET0), pure_state(KET1)])
    a = apply_measurement(basis_projectors(2), ens)
    ii = mutual_information(a)
    acc_total = math.log(2)  # perfectly distinguishable states
    rhs = accb_rhs(acc_total, [0.0, 0.0], a.outcome_probs)
    assert abs(ii - rhs) <= 1e-12
    assert abs(holevo_chi(ens) - acc_total) <= 1e-12
