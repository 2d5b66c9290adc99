import json
import math

import numpy as np
import pytest
from subentropy_oracle import _subentropy_table

from qbound import scenarios
from qbound.accinfo import OptResult
from qbound.bounds import (_chi_stage, _pair_stack, _reports, _sww_chi_form, _sww_terms_form,
                           saturation_predicates)
from qbound.cli import main
from qbound.infomeasures import holevo_chi, info_gain_f, mutual_information, subentropy
from qbound.qobjects import (Ensemble, Measurement, _clean_spectrum, _conditional_stage,
                             _random_batch, apply_measurement, coarse_grain, ensemble_state,
                             ensemble_to_json, mix_measurements, pure_state, random_instance)
from qbound.scenarios import (SCENARIOS, InvalidConfigError, Report,
                              ScenarioConfig, UnknownScenarioError, _mc_retry,
                              _retry_seed, emit_report, run_scenario)

SMALL = {
    "bound-chain": dict(dim=2, trials=5),
    "saturation-classical": dict(dim=3, trials=5),
    "uniform-theorem": dict(dim=2, trials=400),
    "distorted-ensemble": dict(dim=2, trials=4000),
    "eqspec-recovery": dict(dim=2, trials=2, params={"opt_budget": 400}),
    "inefficient-violation": dict(dim=2, trials=1, params={"grid": 21}),
    "two-state-accinfo": dict(dim=2, trials=1,
                              params={"budget": 4000, "restarts": 2,
                                      "opt_tol": 1e-3}),
    "subentropy-corollary": dict(dim=2, trials=5),
    "optimize": dict(dim=2, trials=1, params={"budget": 400, "restarts": 2}),
    "haar": dict(dim=2, trials=2000),
}


def small_config(name, seed=0, **over):
    kw = dict(SMALL[name])
    kw.update(over)
    return ScenarioConfig(name=name, seed=seed, **kw)


def test_every_registered_scenario_runs_clean():
    for name in SCENARIOS:
        report = run_scenario(small_config(name))
        assert isinstance(report, Report)
        assert report.summary["failures"] == 0, (name, report.summary)
        assert report.summary["instances"] == len(report.records) > 0


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError):
        run_scenario(ScenarioConfig(name="nope"))


def test_invalid_config():
    with pytest.raises(InvalidConfigError):
        run_scenario(ScenarioConfig(name="bound-chain", trials=0))
    with pytest.raises(InvalidConfigError):
        run_scenario(ScenarioConfig(name="bound-chain", tol=0.0))
    with pytest.raises(InvalidConfigError):
        run_scenario(ScenarioConfig(name="bound-chain", units="decibans"))
    with pytest.raises(InvalidConfigError):
        run_scenario(ScenarioConfig(name="bound-chain", seed=-1))
    with pytest.raises(InvalidConfigError):
        run_scenario(ScenarioConfig(name="bound-chain", tol=math.nan))
    with pytest.raises(InvalidConfigError):
        run_scenario(ScenarioConfig(name="haar", params={"eq_tol": 1e-9}))


def test_json_round_trip(tmp_path):
    report = run_scenario(small_config("saturation-classical"))
    path = tmp_path / "report.json"
    text = emit_report(report, fmt="json", path=path)
    parsed = json.loads(path.read_text())
    assert parsed == json.loads(text) == report.to_dict()
    assert set(parsed) == {"scenario", "config", "records", "summary",
                           "walltime_ms"}


def test_csv_row_count(tmp_path):
    report = run_scenario(small_config("bound-chain"))
    text = emit_report(report, fmt="csv")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == len(report.records) + 1


def test_csv_handles_heterogeneous_records():
    report = run_scenario(small_config("inefficient-violation"))
    text = emit_report(report, fmt="csv")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == len(report.records) + 1
    assert "target_dev" in lines[0]


def test_bits_conversion():
    cfg = small_config("bound-chain", units="bits")
    report = run_scenario(cfg)
    nats = report.records[0]["chi"]
    bits = report.to_dict()["records"][0]["chi"]
    assert abs(bits - nats / math.log(2)) <= 1e-15
    # non-information fields are untouched
    assert report.to_dict()["records"][0]["n_states"] == report.records[0]["n_states"]


def test_reports_are_deterministic():
    for name in ("bound-chain", "uniform-theorem", "two-state-accinfo"):
        r1 = run_scenario(small_config(name, seed=3))
        r2 = run_scenario(small_config(name, seed=3))
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("walltime_ms"), d2.pop("walltime_ms")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_inefficient_violation_content():
    report = run_scenario(small_config("inefficient-violation"))
    assert report.summary["violations"] >= 1
    grouped = [r for r in report.records if r["kind"] == "grouped-x"]
    assert len(grouped) == 1
    assert abs(grouped[0]["info_f"] + 0.130812) <= 1e-6
    assert abs(grouped[0]["info_i"]) <= 1e-12


def test_cli_verify_stdout(capsys):
    code = main(["verify", "--dim", "2", "--trials", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["scenario"] == "bound-chain"
    assert parsed["summary"]["failures"] == 0


def test_cli_scenario_to_file(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = main(["scenario", "saturation-classical", "--dim", "3",
                 "--trials", "4", "--seed", "2", "--out", str(out_path)])
    assert code == 0
    parsed = json.loads(out_path.read_text())
    assert parsed["scenario"] == "saturation-classical"
    capsys.readouterr()


def test_cli_scenario_param_passthrough(capsys):
    code = main(["scenario", "inefficient-violation", "--trials", "1",
                 "--param", "grid=11"])
    parsed = json.loads(capsys.readouterr().out)
    assert code == 0
    assert parsed["config"]["params"]["grid"] == 11
    sweep = [r for r in parsed["records"] if r["kind"] == "sweep"]
    assert len(sweep) == 11


def test_cli_unknown_scenario(capsys):
    code = main(["scenario", "bogus"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_optimize_with_ensemble_file(tmp_path, capsys):
    from qbound.qobjects import Ensemble, ensemble_to_json, pure_state
    ens = Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([0, 1])])
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(ensemble_to_json(ens)))
    code = main(["optimize", "--ensemble", str(path), "--budget", "2000",
                 "--restarts", "2", "--seed", "3"])
    parsed = json.loads(capsys.readouterr().out)
    assert code == 0
    rec = parsed["records"][0]
    assert rec["opt_value"] >= math.log(2) - 1e-3
    assert rec["opt_value"] <= rec["chi"] + 1e-8


def test_cli_haar_and_units(capsys):
    code = main(["haar", "--dim", "2", "--trials", "2000", "--seed", "4",
                 "--units", "bits", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("trials")


def _assert_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_optimize_missing_ensemble_file(tmp_path, capsys):
    code = main(["optimize", "--ensemble", str(tmp_path / "absent.json")])
    _assert_input_error(code, capsys)


def test_cli_optimize_invalid_ensemble_json(tmp_path, capsys):
    path = tmp_path / "ens.json"
    path.write_text("{not json")
    code = main(["optimize", "--ensemble", str(path)])
    _assert_input_error(code, capsys)


def test_cli_optimize_ragged_ensemble(tmp_path, capsys):
    path = tmp_path / "ens.json"
    ragged = {"dim": 2, "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}
    path.write_text(json.dumps({"probs": [1.0], "states": [ragged]}))
    code = main(["optimize", "--ensemble", str(path)])
    _assert_input_error(code, capsys)


def test_cli_optimize_nan_ensemble_probability(tmp_path, capsys):
    from qbound.qobjects import ensemble_to_json, pure_state
    obj = ensemble_to_json(Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([0, 1])]))
    obj["probs"] = [math.nan, 1.0]
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(obj))  # json writes and reads NaN
    code = main(["optimize", "--ensemble", str(path), "--budget", "200", "--restarts", "1"])
    _assert_input_error(code, capsys)


def test_cli_unwritable_out_path(tmp_path, capsys):
    path = tmp_path / "absent" / "x.json"
    code = main(["verify", "--trials", "3", "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write report to {path}")
    assert "Traceback" not in err
    assert not path.exists()


def test_cli_non_numeric_param(capsys):
    code = main(["verify", "--trials", "2", "--param", "eq_tol=abc"])
    _assert_input_error(code, capsys)


def test_cli_haar_single_trial(capsys):
    code = main(["haar", "--trials", "1"])
    _assert_input_error(code, capsys)


@pytest.mark.parametrize("args", [["--budget", "50"], ["--outcomes", "1"],
                                  ["--restarts", "0"],
                                  ["--restarts", "5000", "--budget", "100"],
                                  ["--budget", "1000001"], ["--restarts", "101"],
                                  ["--outcomes", "1025"]])
def test_cli_optimize_bad_search_arguments(args, capsys):
    code = main(["optimize"] + args)
    _assert_input_error(code, capsys)


@pytest.mark.parametrize("name, params", [
    ("two-state-accinfo", {"restarts": 0}),
    ("eqspec-recovery", {"opt_budget": 50}),
    ("eqspec-recovery", {"opt_restarts": 0}),
])
def test_search_scenarios_reject_bad_search_arguments(name, params):
    with pytest.raises(InvalidConfigError):
        run_scenario(small_config(name, params=params))


def test_optimize_record_reports_search_diagnostics():
    report = run_scenario(small_config("optimize"))
    rec = report.records[0]
    assert rec["last_improvement"] <= rec["evaluations"] <= 400
    assert rec["upper"] == rec["chi"]
    assert rec["opt_value"] <= rec["lower"] <= rec["upper"]
    bits = report.to_dict(units="bits")["records"][0]
    assert bits["lower"] == rec["lower"] / math.log(2)
    assert bits["upper"] == rec["upper"] / math.log(2)
    assert bits["evaluations"] == rec["evaluations"]
    assert bits["stationarity"] == rec["stationarity"] / math.log(2) >= 0.0
    assert bits["below_subentropy"] is rec["below_subentropy"] is False


@pytest.mark.parametrize("pure", [True, False])
def test_optimize_lower_bound_is_the_subentropy_only_for_pure_ensembles(pure):
    cfg = small_config("optimize", seed=3, params={"budget": 400, "restarts": 2, "pure": pure})
    rec = run_scenario(cfg).records[0]
    ens, _ = random_instance(cfg.dim, 2, 2, pure, cfg.seed)
    floor = subentropy(ensemble_state(ens)) if pure else rec["opt_value"]
    assert rec["lower"] == max(rec["opt_value"], floor)


def test_optimize_flags_a_search_below_the_subentropy(monkeypatch):
    def trivial_search(ensemble, **_):
        return OptResult(0.0, Measurement([np.eye(ensemble.dim)]), [], 1, 0, 100, 0.0)

    monkeypatch.setattr(scenarios, "maximize_mutual_info", trivial_search)
    rec = run_scenario(small_config("optimize")).records[0]
    assert rec["below_subentropy"] is True
    assert rec["lower"] > rec["opt_value"] == 0.0


def test_monte_carlo_retry_keys_a_stream_disjoint_from_the_first_pass():
    calls = []
    est, ok, retried = _mc_retry(lambda n, s: calls.append((n, s)) or n, 10, 7,
                                 lambda n: n == 40)
    assert (est, ok, retried) == (40, True, True)
    assert calls == [(10, 7), (40, _retry_seed(7))]
    for seed in [0, 7, -1, 2 ** 63 - 1, *range(100, 10_000, 97)]:
        first = {(seed % 2 ** 64, t) for t in range(10)}
        retry = {(_retry_seed(seed) % 2 ** 64, t) for t in range(40)}
        assert not first & retry and _retry_seed(seed) == _retry_seed(seed)


def test_a_retried_monte_carlo_job_reproduces_its_report():
    cfg = ScenarioConfig("haar", dim=2, trials=50, seed=76)  # this seed misses, then retries
    first, again = run_scenario(cfg).to_dict(), run_scenario(cfg).to_dict()
    assert first["records"][0]["retried"] and first["records"][0]["trials"] == 200
    first.pop("walltime_ms"), again.pop("walltime_ms")
    assert first == again


def one_at_a_time_corollary(cfg):
    """Test-only port of the corollary loop as it ran instance by instance,
    every post-state subentropy from the mpmath divided-difference table."""
    rng = np.random.default_rng(cfg.seed)
    out = []
    for _ in range(cfg.trials):
        inst_seed = scenarios._sub_seed(rng)
        n_states = int(rng.integers(2, 9))
        n_outcomes = int(rng.integers(2, 10))
        ens, meas = random_instance(cfg.dim, n_states, n_outcomes, True, inst_seed)
        analysis = apply_measurement(meas, ens)
        lhs = mutual_information(analysis)
        for j in analysis.effective_outcomes():
            lam = _clean_spectrum(analysis.post_spectra[j])
            lhs += analysis.outcome_probs[j] * _subentropy_table(lam)[0]
        chi = holevo_chi(ens)
        out.append((inst_seed, lhs, chi, chi - lhs >= -cfg.tol))
    return out


@pytest.mark.parametrize("dim, seed", [(2, 1), (3, 2), (4, 3), (4, 8)])
def test_stacked_corollary_matches_the_one_at_a_time_loop(dim, seed):
    cfg = small_config("subentropy-corollary", seed=seed, dim=dim, trials=20)
    records = run_scenario(cfg).records
    expected = one_at_a_time_corollary(cfg)
    assert [(r["seed"], r["pass"]) for r in records] == [(s, ok) for s, _, _, ok in expected]
    for r, (_, lhs, chi, _) in zip(records, expected):
        assert abs(r["corollary_lhs"] - lhs) <= 1e-14
        assert abs(r["chi"] - chi) <= 1e-14
        assert r["corollary_slack"] == r["chi"] - r["corollary_lhs"]


def one_at_a_time_saturation(cfg):
    """Test-only port of the classical-saturation loop as it ran instance by instance."""
    rng = np.random.default_rng(cfg.seed)
    out = []
    for _ in range(cfg.trials):
        inst_seed = scenarios._sub_seed(rng)
        ens, meas = scenarios.random_diagonal_classical(cfg.dim, inst_seed)
        analysis = apply_measurement(meas, ens)
        out.append((inst_seed, mutual_information(analysis), info_gain_f(analysis),
                    saturation_predicates(ens, meas).classical))
    return out


@pytest.mark.parametrize("dim, seed", [(2, 1), (3, 2), (5, 3), (6, 4)])
def test_stacked_saturation_matches_the_one_at_a_time_loop(dim, seed):
    cfg = small_config("saturation-classical", seed=seed, dim=dim, trials=30)
    report = run_scenario(cfg)
    expected = one_at_a_time_saturation(cfg)
    assert len(report.records) == len(expected) and report.failures == 0
    for r, (inst_seed, info_i, info_f, classical) in zip(report.records, expected):
        assert (r["seed"], r["classical"], r["pass"]) == (inst_seed, classical, True)
        assert abs(r["info_i"] - info_i) <= 1e-14 and abs(r["info_f"] - info_f) <= 1e-14
        assert r["eq_dev"] == abs(r["info_i"] - r["info_f"])


@pytest.mark.parametrize("grid", [21, 101])
def test_stacked_sweep_is_bit_identical_to_per_point_coarse_grain(grid):
    records = run_scenario(small_config("inefficient-violation", params={"grid": grid})).records
    sweep = [r for r in records if r["kind"] == "sweep"]
    assert [r["lam"] for r in sweep] == np.linspace(0.0, 1.0, grid).tolist()
    ens = scenarios.counterexample_encoding()
    m_z, m_x = scenarios.basis_projectors(2), scenarios.qubit_x_projectors()
    for r in sweep:
        analysis = coarse_grain(mix_measurements(m_x, m_z, r["lam"]), ens)
        assert r["info_i"] == mutual_information(analysis)
        assert r["info_f"] == info_gain_f(analysis)


# A valid ensemble, so that only the parameters beside it are malformed.
_QUBIT_PAIR = ensemble_to_json(Ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([0, 1])]))


@pytest.mark.parametrize("args", [
    ["scenario", "inefficient-violation", "--param", "grid=-1"],
    ["scenario", "inefficient-violation", "--param", "grid=1"],
    ["scenario", "two-state-accinfo", "--param", "overlaps=0.5"],
    ["scenario", "two-state-accinfo", "--param", "overlaps=[2.0]"],
    ["scenario", "two-state-accinfo", "--param", "overlaps=abc"],
    ["scenario", "eqspec-recovery", "--param", "family_states=0"],
    ["scenario", "eqspec-recovery", "--param", "family_states=-1"],
    ["optimize", "--param", "n_states=0"],
    ["scenario", "uniform-theorem", "--param", "povm=random", "--param", "n_random=0"],
    ["scenario", "uniform-theorem", "--param", "povm=random", "--param", "n_random=-2"],
    ["scenario", "uniform-theorem", "--param", "povm=random", "--param", "n_random=true"],
    ["scenario", "inefficient-violation", "--param", "grid=2.5"],
    ["scenario", "inefficient-violation", "--param", "grid=Infinity"],
    ["scenario", "inefficient-violation", "--param", "grid=1000001"],
    ["scenario", "inefficient-violation", "--param", "grid=100000000000"],
    ["verify", "--seed", "-1"],
    ["scenario", "uniform-theorem", "--seed", "-5"],
    ["verify", "--tol", "inf"],
    ["scenario", "two-state-accinfo", "--param", "opt_tol=inf"],
    ["verify", "--param", "eq_tol=-1"],
    ["verify", "--param", "eq_tol=NaN"],
    ["scenario", "two-state-accinfo", "--param", "opt_tol=-1"],
    ["optimize", "--param", "pure=abc"],
    ["optimize", "--param", "pure=0"],
    ["optimize", "--param", f"ensemble={json.dumps(_QUBIT_PAIR)}", "--param", "n_states=7"],
    ["optimize", "--param", f"ensemble={json.dumps(_QUBIT_PAIR)}", "--param", "pure=false"],
    ["verify", "--param", "eqtol=5"],
    ["scenario", "uniform-theorem", "--param", "povm=random", "--param", "n_random=10001"],
    ["scenario", "uniform-theorem", "--param", "povm=random", "--param", "n_random=100000"],
    ["scenario", "eqspec-recovery", "--param", "family_states=1001"],
    ["scenario", "eqspec-recovery", "--param", "family_states=100000"],
    # json reads 1e400 as inf, which is not an integral number
    ["optimize", "--param", 'ensemble={"probs": [1.0], "states": [{"dim": 1e400, "rows": []}]}'],
    # "dim" must be an integral number that is not a bool (int() read these as 1 and 2)
    ["optimize", "--param",
     'ensemble={"probs": [1.0], "states": [{"dim": true, "rows": [[[1, 0]]]}]}'],
    ["optimize", "--param", 'ensemble={"probs": [1.0], "states": '
                            '[{"dim": 2.7, "rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]}'],
    ["scenario", "two-state-accinfo", "--param", "budget=1000001"],
    ["scenario", "two-state-accinfo", "--param", "restarts=101"],
    ["scenario", "eqspec-recovery", "--param", "opt_restarts=101"],
    # checked before the ensemble is drawn (the draw alone would need terabytes)
    ["optimize", "--dim", "1000000"],
    ["optimize", "--param", "n_states=1000000000000000"],
    # the Monte Carlo counts are capped before any draw
    ["haar", "--trials", "8388609"],
    ["haar", "--dim", "65"],
    ["scenario", "uniform-theorem", "--trials", "100000000000"],
    ["scenario", "uniform-theorem", "--dim", "65", "--param", "povm=random"],
    ["scenario", "distorted-ensemble", "--trials", "8388609"],
    ["scenario", "distorted-ensemble", "--dim", "1000000"],
])
def test_cli_rejects_malformed_scenario_params(args, capsys):
    _assert_input_error(main(args), capsys)


@pytest.mark.parametrize("dim, params", [(2, {}), (3, {}), (4, {}), (5, {}), (6, {}),
                                         (4, {"eq_tol": 1e-300})])
def test_bound_chain_records_are_the_bound_reports_of_the_job(dim, params):
    cfg = small_config("bound-chain", seed=dim, dim=dim, trials=10, params=params)
    report = run_scenario(cfg)
    specs = [(r["seed"], r["n_states"], r["n_outcomes"], r["pure"]) for r in report.records]
    batch = _random_batch(dim, specs)
    reps = _reports(batch, [seed for seed, *_ in specs])
    chi, stack = _chi_stage(batch)[-1], _conditional_stage(_pair_stack(batch))
    routes = zip(_sww_chi_form(stack, chi).tolist(), _sww_terms_form(stack, chi).tolist())
    eq_tol = cfg.param("eq_tol", 1e-9, float)
    for r, rep, (sww, sww_alt) in zip(report.records, reps, routes):
        assert r["seed"] == rep.seed
        for key in ("info_i", "info_f", "chi", "dual", "sww", "sww_alt", "eqx"):
            assert r[key] == getattr(rep, key), key
        assert (r["sww"], r["sww_alt"]) == (sww, sww_alt)
        assert r["spectrum_dev"] == rep.spectrum_identity_dev
        assert r["min_slack"] == rep.min_slack()
        assert r["eq_dev"] == max(abs(rep.sww - rep.sww_alt), abs(rep.eqx - rep.sww),
                                  abs(rep.dual - rep.info_f), rep.spectrum_identity_dev)
        assert r["pass"] is (r["min_slack"] >= -cfg.tol and r["eq_dev"] <= eq_tol)
    assert report.summary["worst_slack"] == min(rep.min_slack() for rep in reps)
    assert report.summary["max_eq_dev"] == max(r["eq_dev"] for r in report.records)
    assert report.failures == (10 if params else 0)


@pytest.mark.parametrize("name, over, failing", [
    ("bound-chain", dict(trials=10, params={"eq_tol": 1e-300}), 10),
    ("two-state-accinfo", dict(params={"overlaps": [0.3, 0.8], "budget": 400, "restarts": 1,
                                       "opt_tol": 1e-300}), 2),
    ("inefficient-violation", dict(params={"grid": 2}), 0),
])
def test_the_runner_counts_instances_and_failing_records(name, over, failing):
    report = run_scenario(small_config(name, **over))
    assert report.summary["instances"] == len(report.records)
    assert sum(r.get("pass") is False for r in report.records) == failing
    if name == "inefficient-violation":  # its verdict: no grid point violates
        assert report.summary["violations"] == 0 and report.failures == 1
    else:
        assert report.failures == failing == len(report.records)
