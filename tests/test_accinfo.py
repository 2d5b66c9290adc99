import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbound.accinfo import (BudgetTooSmallError, SearchConfigError, _two_state_mi,
                            maximize_mutual_info, povm_from_vectors,
                            two_state_reference)
from qbound.bounds import dual_holevo_rhs
from qbound.haarmc import haar_state, trial_rng
from qbound.infomeasures import holevo_chi, shannon, subentropy
from qbound.qobjects import (DensityOperator, Ensemble, ensemble_state,
                             pure_state, random_instance)


def two_state_ensemble(overlap: float) -> Ensemble:
    alpha = math.acos(overlap) / 2.0
    return Ensemble([0.5, 0.5],
                    [pure_state([math.cos(alpha), math.sin(alpha)]),
                     pure_state([math.cos(alpha), -math.sin(alpha)])])


class TestPovmFromVectors:
    def test_completeness(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3):
            v = rng.normal(size=(dim * 2, dim)) + 1j * rng.normal(size=(dim * 2, dim))
            meas = povm_from_vectors(v)
            total = sum(a.conj().T @ a for a in meas.kraus)
            assert np.linalg.norm(total - np.eye(dim)) <= 1e-10

    def test_rejects_deficient_span(self):
        v = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            povm_from_vectors(v)


class TestMaximize:
    def test_orthogonal_pair(self):
        ens = two_state_ensemble(0.0)
        res = maximize_mutual_info(ens, budget=8000, restarts=4, seed=3)
        assert res.best_value >= math.log(2) - 1e-4

    def test_identical_states(self):
        ens = Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([1, 0])])
        res = maximize_mutual_info(ens, budget=400, restarts=2, seed=1)
        assert 0.0 <= res.best_value <= 1e-9

    def test_budget_floor(self):
        with pytest.raises(BudgetTooSmallError):
            maximize_mutual_info(two_state_ensemble(0.5), budget=50)

    @pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(restarts=-1),
                                        dict(budget=100, restarts=101),
                                        dict(n_outcomes=1)])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(SearchConfigError):
            maximize_mutual_info(two_state_ensemble(0.5), **kwargs)

    def test_evaluations_within_budget(self):
        for budget, restarts in ((100, 100), (101, 3), (1000, 4)):
            res = maximize_mutual_info(two_state_ensemble(0.5), budget=budget,
                                       restarts=restarts, seed=2)
            assert res.trace[-1][0] <= res.evaluations <= budget
            assert res.evaluations == (budget // restarts) * restarts

    def test_trace_monotone(self):
        res = maximize_mutual_info(two_state_ensemble(0.5), budget=2000,
                                   restarts=2, seed=4)
        values = [v for _, v in res.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_budget_doubling_monotone(self):
        ens = two_state_ensemble(math.cos(math.pi / 8))
        for seed in range(6):
            lo = maximize_mutual_info(ens, budget=300, restarts=2, seed=seed)
            hi = maximize_mutual_info(ens, budget=600, restarts=2, seed=seed)
            assert hi.best_value >= lo.best_value - 1e-12

    def test_upper_bounds_respected(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ens, _ = random_instance(2, 3, 2, bool(rng.integers(2)),
                                     int(rng.integers(2 ** 63)))
            res = maximize_mutual_info(ens, budget=1500, restarts=2,
                                       seed=int(rng.integers(2 ** 31)))
            assert res.best_value <= holevo_chi(ens) + 1e-8
            dual = dual_holevo_rhs(ensemble_state(ens), res.best_measurement)
            assert res.best_value <= dual + 1e-8

    def test_uniform_discretization_meets_subentropy_floor(self):
        # 200 Haar states with equal weights: the optimizer must reach the
        # subentropy of the maximally mixed state up to discretization error
        states = [pure_state(haar_state(2, trial_rng(21, t))) for t in range(200)]
        ens = Ensemble(np.full(200, 1.0 / 200), states)
        res = maximize_mutual_info(ens, budget=3000, restarts=2, seed=2)
        q_half = subentropy(DensityOperator(np.eye(2) / 2))
        assert res.best_value >= q_half - 0.01


class TestTwoStateReference:
    def test_distinguishable(self):
        assert abs(two_state_reference(0.0) - math.log(2)) <= 1e-9

    def test_identical(self):
        assert two_state_reference(1.0) <= 1e-12

    def test_grid_refinement_stable(self):
        coarse = two_state_reference(1 / math.sqrt(2), grid=10000)
        fine = two_state_reference(1 / math.sqrt(2), grid=40000)
        assert abs(coarse - fine) <= 1e-6

    def test_matches_binary_entropy_form(self):
        # cross-check of the sweep against the known optimum expression
        for s in (0.3, 1 / math.sqrt(2), math.cos(math.pi / 8)):
            p = (1 - math.sqrt(1 - s * s)) / 2
            expected = math.log(2) - shannon([p, 1 - p])
            assert abs(two_state_reference(s) - expected) <= 1e-9

    def test_optimizer_matches_oracle(self):
        s = math.cos(math.pi / 8)
        oracle = two_state_reference(s)
        res = maximize_mutual_info(two_state_ensemble(s), budget=16000,
                                   restarts=4, seed=11)
        assert abs(res.best_value - oracle) <= 1e-4


def _reference_search(ensemble, n_outcomes, budget, restarts, seed):
    """The one-candidate-at-a-time coordinate search with a scalar
    objective, kept here as the schedule the batched search must follow."""
    def objective(v):
        s = v.T @ v.conj()
        w, u = np.linalg.eigh(s)
        if w[0] <= 1e-10 * w[-1]:
            return -np.inf
        wv = v @ ((u / np.sqrt(w)) @ u.conj().T).T
        cond = np.einsum("ja,iab,jb->ji", wv.conj(), states, wv).real
        joint = np.clip(cond, 0.0, None) * probs[np.newaxis, :]
        qj = joint.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_joint = np.where(joint > 0.0, joint * np.log(joint), 0.0).sum()
            h_q = np.where(qj > 0.0, qj * np.log(qj), 0.0).sum()
        return shannon(probs) + h_joint - h_q

    probs = ensemble.probs
    states = np.stack([s.matrix for s in ensemble.states])
    dim = ensemble.dim
    best_val, best_v, trace, evals_total = -np.inf, None, [], 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        v = (rng.normal(size=(n_outcomes, dim))
             + 1j * rng.normal(size=(n_outcomes, dim))) / np.sqrt(2)
        val, evals, step = objective(v), 1, 1.0
        evals_total += 1
        if val > best_val:
            best_val, best_v = val, v.copy()
            trace.append((evals_total, val))
        view = v.view(float).reshape(-1)
        per_restart = budget // restarts
        while evals < per_restart and step > 1e-9:
            improved = False
            for c in range(view.size):
                if evals >= per_restart:
                    break
                for delta in (step, -step):
                    old = view[c]
                    view[c] = old + delta
                    cand = objective(v)
                    evals += 1
                    evals_total += 1
                    if cand > val:
                        val, improved = cand, True
                        if val > best_val:
                            best_val, best_v = val, v.copy()
                            trace.append((evals_total, val))
                        break
                    view[c] = old
                    if evals >= per_restart:
                        break
            if not improved:
                step *= 0.5
    return trace, povm_from_vectors(best_v), evals_total


def _schedule_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n in range(36):
        dim = 2 + n % 2
        ens, _ = random_instance(dim, int(rng.integers(2, 4)), 2, bool(n % 4 < 2),
                                 int(rng.integers(2 ** 62)))
        k = dim if n % 3 == 0 else dim * dim
        cases.append((ens, k, (101, 333, 1000)[n % 3], 1 + n % 4, int(rng.integers(1000))))
    same = Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([1, 0])])
    # the last: sweeps of 4 * 40 * 2 candidates, where windows reach WINDOW_MAX
    cases += [(same, 4, 333, 2, 5), (same, 2, 101, 1, 6), (same, 40, 1000, 1, 7)]
    return cases


@pytest.mark.parametrize("case", range(len(_schedule_cases())))
def test_windowed_search_follows_the_one_at_a_time_schedule(case):
    ens, k, budget, restarts, seed = _schedule_cases()[case]
    trace, meas, evals = _reference_search(ens, k, budget, restarts, seed)
    res = maximize_mutual_info(ens, n_outcomes=k, budget=budget,
                               restarts=restarts, seed=seed)
    assert [n for n, _ in res.trace] == [n for n, _ in trace]
    np.testing.assert_allclose([x for _, x in res.trace], [x for _, x in trace],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.best_measurement.kraus_stack, meas.kraus_stack,
                               rtol=0, atol=1e-12)
    assert res.evaluations == evals


@pytest.mark.parametrize("overlap", [0.0, 0.3, math.cos(math.pi / 8), 1.0])
def test_two_state_sweep_vectorized_equals_scalar_loop(overlap):
    alpha = math.acos(overlap) / 2.0
    phis = np.linspace(0.0, np.pi, 10000, endpoint=False)
    swept = _two_state_mi(phis, alpha)
    assert np.array_equal(swept, [_two_state_mi(phi, alpha) for phi in phis])
    # the per-angle formula with Shannon entropies, one angle at a time
    p_plus, p_minus = np.cos(phis - alpha) ** 2, np.cos(phis + alpha) ** 2
    for phi, got, a, b in zip(phis[::97], swept[::97], p_plus[::97], p_minus[::97]):
        h = 0.0
        for pa, pb in ((a, b), (1.0 - a, 1.0 - b)):
            q = 0.5 * (pa + pb)
            if q > 0.0:
                h += q * shannon([0.5 * pa / q, 0.5 * pb / q])
        assert abs(got - (math.log(2.0) - h)) <= 1e-15


def _loaded_by_import_qbound(module: str) -> bool:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = f"import sys, qbound; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_by_import_qbound("scipy.optimize")


def test_import_leaves_mpmath_unloaded():
    """mpmath is a test-only dependency."""
    assert not _loaded_by_import_qbound("mpmath")


# Accessible informations with closed forms, and the tolerance the search
# must reach on them (fixed before the search was run on them).
ORACLE_TOL = 1e-9
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
TRINE = [(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3), 0.0) for k in range(3)]
TETRAHEDRON = [np.array(v) / math.sqrt(3) for v in
               ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]


@pytest.mark.parametrize("bloch, value", [
    (TRINE, math.log(3 / 2)),        # Sasaki et al., PRA 59, 3325 (1999); Shor (2000)
    (TETRAHEDRON, math.log(4 / 3)),  # Davies, IEEE Trans. Inf. Theory 24, 596 (1978)
], ids=["trine", "tetrahedron"])
def test_search_reaches_closed_form_accessible_information(bloch, value):
    states = [(np.eye(2) + np.tensordot(v, PAULIS, axes=1)) / 2 for v in bloch]
    ens = Ensemble(np.full(len(states), 1 / len(states)), states)
    res = maximize_mutual_info(ens, budget=20000, restarts=4, seed=0)
    assert abs(res.best_value - value) <= ORACLE_TOL


@settings(max_examples=40)
@given(st.integers(2, 3), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_search_value_is_at_least_the_subentropy(dim, n_states, seed):
    # Jozsa, Robb and Wootters (PRA 49, 668, 1994): I_acc >= Q[rho] for pure ensembles
    ens, _ = random_instance(dim, n_states, 2, True, seed)
    res = maximize_mutual_info(ens, budget=1000, restarts=2, seed=seed)
    assert res.best_value >= subentropy(ensemble_state(ens))
