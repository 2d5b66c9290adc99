"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete). The heavy randomized chain (criteria 1 and 2) runs
once in a module-scoped fixture and is shared.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from qbound.accinfo import maximize_mutual_info, two_state_reference
from qbound.bounds import bound_report, dimension_bound, eqspec_check
from qbound.infomeasures import subentropy
from qbound.qobjects import (PROB_FLOOR, DensityOperator, Ensemble, apply_measurement,
                             pure_state, random_instance)
from qbound.scenarios import (ScenarioConfig, eqspec_counterexample,
                              eqspec_satisfied_family, run_scenario)

DIMS = (2, 3, 4, 5, 6)
TRIALS_PER_DIM = 1000


def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def chain_results():
    """5000 random efficient instances with the full chain, the spectrum
    identity, and the outcome-table consistency invariants."""
    t0 = time.perf_counter()
    rows = []
    for dim in DIMS:
        rng = np.random.default_rng(1000 + dim)
        for t in range(TRIALS_PER_DIM):
            inst_seed = int(rng.integers(2 ** 63))
            n_states = int(rng.integers(2, 9))
            n_outcomes = int(rng.integers(2, 10))
            ens, meas = random_instance(dim, n_states, n_outcomes, bool(t % 2),
                                        inst_seed)
            analysis = apply_measurement(meas, ens)
            rep = bound_report(ens, meas, seed=inst_seed, analysis=analysis)

            bayes = np.max(np.abs(
                analysis.outcome_probs[:, None] * analysis.posteriors
                - ens.probs[None, :] * analysis.cond_probs))
            mixture = 0.0
            for j in analysis.effective_outcomes():
                acc = np.zeros((dim, dim), dtype=complex)
                for i in range(ens.size):
                    if analysis.cond_probs[j, i] >= PROB_FLOOR:
                        acc += (analysis.posteriors[j, i]
                                * analysis.cond_post_matrices[j, i])
                mixture = max(mixture, float(np.max(np.abs(
                    acc - analysis.post_matrices[j]))))
            rows.append({
                "dim": dim,
                "min_slack": rep.min_slack(),
                "sww_vs_eqx": abs(rep.sww - rep.eqx),
                "sww_forms": abs(rep.sww - rep.sww_alt),
                "dual_vs_info_f": abs(rep.dual - rep.info_f),
                "spectrum_dev": rep.spectrum_identity_dev,
                "prob_sum_dev": abs(float(analysis.outcome_probs.sum()) - 1.0),
                "bayes_dev": float(bayes),
                "mixture_dev": mixture,
            })
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_01_bound_chain(chain_results):
    rows, elapsed = chain_results
    worst_slack = min(r["min_slack"] for r in rows)
    worst_eq = max(max(r["sww_vs_eqx"], r["sww_forms"], r["dual_vs_info_f"])
                   for r in rows)
    worst_bayes = max(r["bayes_dev"] for r in rows)
    worst_mixture = max(r["mixture_dev"] for r in rows)
    worst_prob = max(r["prob_sum_dev"] for r in rows)
    ok = (len(rows) == len(DIMS) * TRIALS_PER_DIM
          and worst_slack >= -1e-8 and worst_eq <= 1e-9
          and worst_prob <= 1e-9 and worst_bayes <= 1e-9
          and worst_mixture <= 1e-8 and elapsed < 60.0)
    _verdict(1, "bound-chain", ok,
             f"(instances={len(rows)}, worst slack={worst_slack:.2e}, "
             f"worst equality dev={worst_eq:.2e}, runtime={elapsed:.1f}s)")


def test_criterion_02_spectrum_identity(chain_results):
    rows, _ = chain_results
    worst = max(r["spectrum_dev"] for r in rows)
    _verdict(2, "spectrum-identity", worst <= 1e-9, f"(max dev={worst:.2e})")


def jrw_nondegenerate_highprec(lams):
    """Independent oracle for criterion 3: the plain nondegenerate
    product-form subentropy sum, evaluated at 60 digits."""
    with mp.workdps(60):
        lams = [mp.mpf(x) for x in lams]
        n = len(lams)
        total = mp.mpf(0)
        for k in range(n):
            den = mp.mpf(1)
            for l in range(n):
                if l != k:
                    den *= lams[k] - lams[l]
            total += lams[k] ** n * mp.ln(lams[k]) / den
        return float(-total)


def test_criterion_03_subentropy_oracles():
    rng = np.random.default_rng(3)
    ok = True
    detail = []
    for dim in (2, 3, 4, 6):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if subentropy(pure_state(v)) != 0.0:
            ok = False
            detail.append(f"pure dim {dim} not exactly 0")
    q2 = subentropy(DensityOperator(np.eye(2) / 2))
    if abs(q2 - (math.log(2) - 0.5)) > 1e-12:
        ok = False
        detail.append(f"I/2 dev {abs(q2 - (math.log(2) - 0.5)):.1e}")
    for n in range(2, 7):
        closed = math.log(n) - sum(1.0 / k for k in range(2, n + 1))
        # confirm via the eps-perturbed nondegenerate oracle, extrapolated
        # in eps^2 from eps = 1e-4 and 1e-5 (1e-3 checks the trend)
        vals = {}
        for eps in (1e-3, 1e-4, 1e-5):
            lam = [1.0 / n + eps * (k - (n - 1) / 2.0) for k in range(n)]
            vals[eps] = jrw_nondegenerate_highprec(lam)
        trend = abs(vals[1e-3] - closed) > abs(vals[1e-4] - closed) > \
            abs(vals[1e-5] - closed)
        extrapolated = (100.0 * vals[1e-5] - vals[1e-4]) / 99.0
        confluent = subentropy(DensityOperator(np.eye(n) / n))
        if not trend or abs(extrapolated - closed) > 1e-10:
            ok = False
            detail.append(f"oracle extrapolation failed at N={n}")
        if abs(confluent - closed) > 1e-10 or abs(confluent - extrapolated) > 1e-9:
            ok = False
            detail.append(f"I/{n} dev {abs(confluent - closed):.1e}")
    _verdict(3, "subentropy-oracles", ok, " ".join(detail) or "(all closed forms hit)")


def test_criterion_04_uniform_ensemble_theorem():
    t0 = time.perf_counter()
    target = math.log(2) - 0.5
    assert abs(target - 0.193147) <= 1e-6
    rz = run_scenario(ScenarioConfig(name="uniform-theorem", dim=2,
                                     trials=1_000_000, seed=40,
                                     params={"povm": "z"}))
    zrec = rz.records[0]
    ok = rz.failures == 0 and abs(zrec["mc_mean"] - target) <= 3 * zrec["mc_stderr"]
    random_recs = []
    for dim, n_random, seed in ((2, 3, 41), (3, 2, 42)):
        rr = run_scenario(ScenarioConfig(name="uniform-theorem", dim=dim,
                                         trials=150_000, seed=seed,
                                         params={"povm": "random",
                                                 "n_random": n_random}))
        ok = ok and rr.failures == 0
        random_recs.extend(rr.records)
    elapsed = time.perf_counter() - t0
    ok = ok and len(random_recs) == 5 and elapsed < 120.0
    _verdict(4, "uniform-ensemble-theorem", ok,
             f"(z: {zrec['mc_mean']:.6f} +- {zrec['mc_stderr']:.1e} vs "
             f"{target:.6f}; {len(random_recs)} random POVMs; "
             f"runtime={elapsed:.1f}s)")


def test_criterion_05_distorted_ensemble():
    report = run_scenario(ScenarioConfig(name="distorted-ensemble", dim=3,
                                         trials=100_000, seed=50))
    rec = report.records[0]
    ok = report.failures == 0
    _verdict(5, "distorted-ensemble", ok,
             f"(max |dev|/sigma={rec['max_sigma_ratio']:.2f}, "
             f"N*E[weight]={rec['weight_mean']:.6f})")


def test_criterion_06_classical_saturation():
    worst = 0.0
    count = 0
    for dim in DIMS:
        report = run_scenario(ScenarioConfig(name="saturation-classical",
                                             dim=dim, trials=40, seed=60 + dim))
        assert report.failures == 0, report.summary
        worst = max(worst, report.summary["max_eq_dev"])
        count += len(report.records)
    ok = count == 200 and worst <= 1e-9
    _verdict(6, "classical-saturation", ok,
             f"(instances={count}, max |info_i - info_f|={worst:.2e})")


def test_criterion_07_inefficient_counterexample():
    report = run_scenario(ScenarioConfig(name="inefficient-violation", dim=2,
                                         trials=1, seed=70))
    sweep = [r for r in report.records if r["kind"] == "sweep"]
    grouped = [r for r in report.records if r["kind"] == "grouped-x"][0]
    violations = [r for r in sweep if r["violation"]]
    target = grouped["target"]
    ok = (report.failures == 0 and len(violations) >= 1
          and abs(grouped["info_f"] - target) <= 1e-9
          and abs(grouped["info_i"]) <= 1e-12)
    example = violations[len(violations) // 2] if violations else None
    _verdict(7, "inefficient-counterexample", ok,
             f"(violations at {len(violations)} lambda points, e.g. "
             f"lam={example['lam']:.2f}: info_i={example['info_i']:.4f} > "
             f"info_f={example['info_f']:.4f}; grouped-x info_f="
             f"{grouped['info_f']:.9f})" if example else "(no violation found)")


def test_criterion_08_eqspec():
    rng = np.random.default_rng(80)
    from qbound.accinfo import povm_from_vectors
    ok = True
    detail = []
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        ens, _ = random_instance(dim, int(rng.integers(2, 5)), 2, False,
                                 int(rng.integers(2 ** 63)))
        vecs = rng.normal(size=(dim + 2, dim)) + 1j * rng.normal(size=(dim + 2, dim))
        sat, _ = eqspec_check(ens, povm_from_vectors(vecs))
        if not sat:
            ok = False
            detail.append("rank-one instance rejected")
    ens_bad, meas_bad = eqspec_counterexample()
    if eqspec_check(ens_bad, meas_bad)[0]:
        ok = False
        detail.append("counter-instance accepted")
    ens_ok, meas_ok = eqspec_satisfied_family()
    sat, _ = eqspec_check(ens_ok, meas_ok)
    analysis = apply_measurement(meas_ok, ens_ok)
    posterior_worst = 0.0
    for j in analysis.effective_outcomes():
        res = maximize_mutual_info(analysis.posterior_ensemble(j), budget=500,
                                   restarts=2, seed=81)
        posterior_worst = max(posterior_worst, res.best_value)
    bound = dimension_bound(meas_ok, 3)
    opt = maximize_mutual_info(ens_ok, budget=4000, restarts=3, seed=82)
    if not (sat and posterior_worst <= 1e-3 and opt.best_value <= bound + 1e-6):
        ok = False
        detail.append(f"family: posterior={posterior_worst:.1e}, "
                      f"opt={opt.best_value:.4f} vs bound={bound:.4f}")
    _verdict(8, "eqspec", ok, " ".join(detail) or
             f"(posterior info={posterior_worst:.1e}, "
             f"opt={opt.best_value:.4f} <= ln2={bound:.4f})")


def test_criterion_09_optimizer():
    orth = Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([0, 1])])
    res_orth = maximize_mutual_info(orth, budget=80_000, restarts=4, seed=3)
    gap = math.log(2) - res_orth.best_value

    same = Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([1, 0])])
    res_same = maximize_mutual_info(same, budget=400, restarts=2, seed=1)

    s = math.cos(math.pi / 8)
    alpha = math.acos(s) / 2
    pair = Ensemble([0.5, 0.5],
                    [pure_state([math.cos(alpha), math.sin(alpha)]),
                     pure_state([math.cos(alpha), -math.sin(alpha)])])
    oracle = two_state_reference(s)
    res_pair = maximize_mutual_info(pair, budget=20_000, restarts=4, seed=7)
    pair_dev = abs(res_pair.best_value - oracle)

    monotone = True
    for seed in range(20):
        lo = maximize_mutual_info(pair, budget=300, restarts=2, seed=seed)
        hi = maximize_mutual_info(pair, budget=600, restarts=2, seed=seed)
        if hi.best_value < lo.best_value - 1e-12:
            monotone = False
    ok = (gap <= 1e-6 and 0.0 <= res_same.best_value <= 1e-9
          and pair_dev <= 1e-4 and monotone)
    _verdict(9, "optimizer", ok,
             f"(orthogonal gap={gap:.1e}, identical={res_same.best_value:.1e}, "
             f"overlap-pair dev={pair_dev:.1e}, monotone={monotone})")


def test_criterion_10_subentropy_corollary():
    worst = np.inf
    count = 0
    for dim, seed in ((2, 100), (3, 101), (4, 102)):
        report = run_scenario(ScenarioConfig(name="subentropy-corollary",
                                             dim=dim, trials=500, seed=seed))
        assert report.failures == 0, report.summary
        worst = min(worst, report.summary["worst_slack"])
        count += len(report.records)
    ok = count == 1500 and worst >= -1e-8
    _verdict(10, "subentropy-corollary", ok,
             f"(instances={count}, worst slack={worst:.2e})")


def test_criterion_11_determinism():
    ok = True
    detail = []
    for name, kwargs in (("bound-chain", dict(dim=3, trials=5)),
                         ("uniform-theorem", dict(dim=2, trials=500)),
                         ("two-state-accinfo",
                          dict(dim=2, trials=1,
                               params={"budget": 2000, "restarts": 2,
                                       "opt_tol": 1e-3}))):
        cfg = ScenarioConfig(name=name, seed=11, **kwargs)
        d1 = run_scenario(cfg).to_dict()
        d2 = run_scenario(cfg).to_dict()
        d1.pop("walltime_ms")
        d2.pop("walltime_ms")
        if json.dumps(d1, sort_keys=True) != json.dumps(d2, sort_keys=True):
            ok = False
            detail.append(f"{name} differs")
    _verdict(11, "determinism", ok, " ".join(detail) or
             "(byte-identical reports modulo wall time)")
