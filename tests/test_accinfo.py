import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from two_state_oracle import _two_state_mi, two_state_sweep

from qbound.accinfo import (MAX_BUDGET, MAX_OUTCOMES, MAX_RESTARTS, BudgetTooSmallError,
                            SearchConfigError, _objective, _stationarity, maximize_mutual_info,
                            povm_from_vectors, two_state_reference)
from qbound.bounds import dual_holevo_rhs
from qbound.haarmc import haar_state, trial_rng
from qbound.infomeasures import holevo_chi, shannon, subentropy
from qbound.qobjects import (DensityOperator, Ensemble, _factors, ensemble_state,
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
                                        dict(n_outcomes=1), dict(budget=MAX_BUDGET + 1),
                                        dict(budget=1000, restarts=MAX_RESTARTS + 1),
                                        dict(n_outcomes=MAX_OUTCOMES + 1)])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(SearchConfigError):
            maximize_mutual_info(two_state_ensemble(0.5), **kwargs)

    def test_evaluations_within_budget(self):
        for budget, restarts in ((100, 100), (101, 3), (1000, 4)):
            res = maximize_mutual_info(two_state_ensemble(0.5), budget=budget,
                                       restarts=restarts, seed=2)
            assert res.trace[-1][0] <= res.evaluations <= budget

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
        coarse = two_state_sweep(1 / math.sqrt(2), grid=10000)
        fine = two_state_sweep(1 / math.sqrt(2), grid=40000)
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

    @pytest.mark.parametrize("overlap", [-0.1, 1.1, math.nan])
    def test_rejects_overlap_outside_the_unit_interval(self, overlap):
        with pytest.raises(ValueError):
            two_state_reference(overlap)


# Tolerances of the closed form, fixed before it was first run against them.
SWEEP_TOL = 1e-13      # against the brute-force sweep
MONOTONE_TOL = 1e-15   # a few ulps of ln 2
BRACKET_TOL = 1e-12    # against the subentropy and the Holevo quantity


@settings(max_examples=100)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
@example(1e-8)
@example(1.0 - 1e-12)
def test_closed_form_matches_the_sweep(overlap):
    assert abs(two_state_reference(overlap) - two_state_sweep(overlap)) <= SWEEP_TOL


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_closed_form_decreases_and_lies_in_the_bracket(a, b):
    lo, hi = sorted((a, b))
    assert two_state_reference(hi) <= two_state_reference(lo) + MONOTONE_TOL
    for s in (lo, hi):
        # Jozsa, Robb and Wootters below, Holevo above
        ens = two_state_ensemble(s)
        value = two_state_reference(s)
        assert subentropy(ensemble_state(ens)) <= value + BRACKET_TOL
        assert value <= holevo_chi(ens) + BRACKET_TOL


def _contract_cases():
    """Random dim-2 and dim-3 ensembles with dim or dim² outcomes, budgets of
    101-1000 and 1-4 restarts, plus identical states with 2-40 outcomes."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in range(36):
        dim = 2 + n % 2
        ens, _ = random_instance(dim, int(rng.integers(2, 4)), 2, bool(n % 4 < 2),
                                 int(rng.integers(2 ** 62)))
        k = dim if n % 3 == 0 else dim * dim
        cases.append((ens, k, (101, 333, 1000)[n % 3], 1 + n % 4, int(rng.integers(1000))))
    same = Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([1, 0])])
    cases += [(same, 4, 333, 2, 5), (same, 2, 101, 1, 6), (same, 40, 1000, 1, 7)]
    return cases


@pytest.mark.parametrize("case", range(len(_contract_cases())))
def test_search_keeps_its_contract_on_varied_cases(case):
    ens, k, budget, restarts, seed = _contract_cases()[case]
    res = maximize_mutual_info(ens, n_outcomes=k, budget=budget, restarts=restarts, seed=seed)
    more = maximize_mutual_info(ens, n_outcomes=k, budget=2 * budget, restarts=restarts,
                                seed=seed)
    counts, values = zip(*res.trace)
    assert 0 < counts[0] and all(np.diff(counts) > 0) and all(np.diff(values) > 0)
    assert counts[-1] <= res.evaluations <= budget
    assert res.trace == more.trace[:len(res.trace)]
    assert more.best_value >= res.best_value - 1e-12
    assert len(res.best_measurement.kraus) <= k
    assert -1e-12 <= res.best_value <= holevo_chi(ens) + 1e-12
    assert res.best_value <= dual_holevo_rhs(ensemble_state(ens), res.best_measurement) + 1e-12
    assert abs(res.best_value - res.trace[-1][1]) <= 1e-12


def _reference_search(ensemble, n_outcomes, budget, restarts, seed):
    """The conjugate-direction REK iteration one restart and one step size
    at a time, kept here as the schedule the lockstep search (all restarts,
    and a window of six step sizes each, scored in one call) must follow.
    Each restart keeps its own projected gradient g = (R_k - Λ_h) v_k, its
    Polak–Ribière+ coefficient and its resets: after a step that does not
    improve, and by Powell's test. The restarts' histories are merged step
    by step into the lockstep trace and evaluation count. It scores each
    candidate by the module's objective on a stack of one, since the 1e-14
    stop rule turns on rounding."""
    probs = ensemble.probs
    factors = np.concatenate(list(_factors(ensemble.states)), axis=1)
    dim, width = ensemble.dim, factors.shape[1] // len(probs)

    def objective(v):
        val, wv, weights = _objective(v[np.newaxis], probs, factors)
        return val[0], wv[0], weights[0]

    def gradient(v, weights):
        """(R_k - Λ_h) v_k, with R_k v_k = sum_i w_ki B_i B_i† v_k."""
        rv = ((v @ factors.conj()) * np.repeat(weights, width, axis=1)) @ factors.T
        lam = rv.T @ v.conj()
        return rv - v @ ((lam.T + lam.conj()) / 2.0)

    cap = (budget // restarts - 1) // 6
    finals, histories = [], []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        v = (rng.normal(size=(n_outcomes, dim))
             + 1j * rng.normal(size=(n_outcomes, dim))) / np.sqrt(2)
        val, v, weights = objective(v)
        eps, live, history = 1.0, math.isfinite(val), [val]
        g_prev, d_prev = None, None
        while live and len(history) <= cap:
            g = gradient(v, weights)
            d = g
            gg = np.sum(g.view(float) * g.view(float))
            if d_prev is not None:
                gp = np.sum(g.view(float) * g_prev.view(float))
                beta = (gg - gp) / np.sum(g_prev.view(float) * g_prev.view(float))
                if abs(gp) < 0.2 * gg:  # Powell's restart test, else β = 0
                    d = g + max(beta, 0.0) * d_prev
            best = None
            for m in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                cand = objective(v + (eps * m) * d)
                if best is None or cand[0] > best[0][0]:
                    best = (cand, eps * m)
            (c_val, c_v, c_w), step = best
            gain = c_val - val
            if gain > 0.0:
                val, v, weights, eps = c_val, c_v, c_w, step
                g_prev, d_prev, live = g, d, gain >= 1e-14
            else:
                d_prev = None
                eps /= 16.0
                live = eps >= 1e-12
            history.append(val)
        finals.append((val, v))
        histories.append(history)

    spent = restarts
    trace = [(spent, max(h[0] for h in histories))] if any(
        math.isfinite(h[0]) for h in histories) else []
    for t in range(1, cap + 1):
        alive = sum(len(h) > t for h in histories)
        if not alive:
            break
        spent += 6 * alive
        now = max(h[min(t, len(h) - 1)] for h in histories)
        if now > trace[-1][1]:
            trace.append((spent, now))
    best_v = max(finals, key=lambda f: f[0])[1]
    return trace, povm_from_vectors(best_v), spent


@pytest.mark.parametrize("case", range(len(_contract_cases())))
def test_windowed_search_follows_the_one_at_a_time_schedule(case):
    ens, k, budget, restarts, seed = _contract_cases()[case]
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


def _modules_loaded_by(code: str) -> set[str]:
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code += "\nimport sys; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return set(out.stdout.split())


def _loaded_by_import_qbound(module: str) -> bool:
    return module in _modules_loaded_by("import qbound")


def test_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_by_import_qbound("scipy.optimize")


def test_two_state_run_loads_no_scipy():
    """The runtime needs numpy only: scipy is a test-only dependency."""
    loaded = _modules_loaded_by(
        "from qbound import ScenarioConfig, run_scenario\n"
        "run_scenario(ScenarioConfig('two-state-accinfo', "
        "params={'overlaps': [0.3], 'budget': 400, 'restarts': 1}))")
    assert not [m for m in loaded if m.startswith("scipy")]


def test_import_leaves_mpmath_unloaded():
    """mpmath is a test-only dependency."""
    assert not _loaded_by_import_qbound("mpmath")


# Accessible informations with closed forms, and the tolerances the search
# must reach on them (fixed before the search was run on them).
ORACLE_TOL = 1e-10
TWO_STATE_TOL = 1e-12
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


# Overlaps as the benchmark's two-state jobs draw them, searched with its budget and restarts.
BENCHMARK_OVERLAPS = [0.1, 0.9] + np.round(np.random.default_rng(28).uniform(0.1, 0.9, 18),
                                           6).tolist()


@pytest.mark.parametrize("case", range(len(BENCHMARK_OVERLAPS)))
def test_search_reaches_the_two_state_closed_form(case):
    overlap = BENCHMARK_OVERLAPS[case]
    res = maximize_mutual_info(two_state_ensemble(overlap), budget=2000, restarts=2, seed=case)
    assert abs(res.best_value - two_state_reference(overlap)) <= TWO_STATE_TOL


def test_search_is_deterministic_for_a_seed():
    ens, _ = random_instance(3, 3, 2, False, 11)
    a, b = (maximize_mutual_info(ens, budget=1000, restarts=3, seed=5) for _ in range(2))
    assert (a.best_value, a.trace, a.evaluations, a.stationarity) == \
        (b.best_value, b.trace, b.evaluations, b.stationarity)
    assert np.array_equal(a.best_measurement.kraus_stack, b.best_measurement.kraus_stack)


# The dim-2 pure ensemble of the benchmark's `optimize` job 25 at seed 2, on which the
# plain REK step zig-zagged and stopped 2.2e-5 nats short at budget 2000: at the job's
# restarts and twice its budget the search must reach its value at 40 000 evaluations.
SLOW_ENSEMBLE_SEED = 4906039736883074740
CONVERGED_TOL = 1e-9


def test_search_converges_on_a_slow_benchmark_ensemble():
    ens, _ = random_instance(2, 2, 2, True, SLOW_ENSEMBLE_SEED)
    res, ref = (maximize_mutual_info(ens, budget=budget, restarts=2, seed=SLOW_ENSEMBLE_SEED)
                for budget in (2000, 40000))
    assert ref.best_value - res.best_value <= CONVERGED_TOL


def _holevo_residual(ensemble, measurement):
    """max(|L - L^H|, max_k lambda_max(R_k - (L + L^H)/2)), L = sum_k R_k E_k,
    one outcome at a time from the definitions."""
    povm = [a.conj().T @ a for a in measurement.kraus]
    rs = []
    for e in povm:
        cond = [np.trace(s.matrix @ e).real for s in ensemble.states]
        q = sum(p * c for p, c in zip(ensemble.probs, cond))
        rs.append(sum(p * math.log(c / q) * s.matrix
                      for p, c, s in zip(ensemble.probs, cond, ensemble.states) if c > 0.0))
    lam = sum(r @ e for r, e in zip(rs, povm))
    herm = (lam + lam.conj().T) / 2
    return max(np.linalg.norm(lam - lam.conj().T),
               max(np.linalg.eigvalsh(r - herm)[-1] for r in rs))


@pytest.mark.parametrize("budget", [100, 400, 4000])
@pytest.mark.parametrize("dim, pure", [(2, True), (3, False)])
def test_stationarity_is_the_holevo_residual_of_the_returned_measurement(dim, pure, budget):
    ens, _ = random_instance(dim, 3, 2, pure, 7 * dim)
    res = maximize_mutual_info(ens, budget=budget, restarts=1, seed=budget)
    assert len(res.best_measurement.kraus) == dim * dim
    assert abs(res.stationarity - _holevo_residual(ens, res.best_measurement)) <= 1e-9


def test_stationarity_vanishes_at_the_trine_optimum_only():
    states = [(np.eye(2) + np.tensordot(v, PAULIS, axes=1)) / 2 for v in TRINE]
    ens = Ensemble(np.full(3, 1 / 3), states)
    res = maximize_mutual_info(ens, budget=20000, restarts=4, seed=0)
    rng = np.random.default_rng(3)
    factors = np.concatenate(list(_factors(ens.states)), axis=1)
    _, v, weights = _objective(rng.normal(size=(1, 4, 2)) + 1j * rng.normal(size=(1, 4, 2)),
                               ens.probs, factors)
    assert res.stationarity <= 1e-6 < 1e-3 <= _stationarity(v[0], weights[0], factors)
