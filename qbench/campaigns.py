"""Workload definitions: the job stream of each campaign, its warm-up job,
how much work a job completes, and the tolerance checks on its report.

A job is one ``run_scenario`` call followed by ``emit_report`` to JSON,
which is what a CLI user waits for. Job configurations are derived from
the run seed alone, so the same seed always gives the same jobs.

Checks read the emitted JSON, not the in-memory report, and are
tolerance-based (never a digest of the report bytes), so a change that
legitimately alters a Monte Carlo stream or the last digits of a sum
still passes. Each check returns a list of problems, each tagged
``"stat"`` or ``"det"``. A ``"stat"`` problem is a Monte Carlo miss of
the scenarios' own 3-sigma check with one retry, which correct code
also shows at a small rate (README.md gives the measured rates). Every
other problem, including a Monte Carlo estimate beyond ``GROSS_SIGMA``,
is ``"det"``: evidence of a wrong result.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qbound import ScenarioConfig

WORKLOADS = ("chain", "haar-mc", "accinfo", "corollary")
MC_SCENARIOS = ("uniform-theorem", "distorted-ensemble", "haar")

# Tolerances of the gate.
SLACK_TOL = 1e-8      # chain slacks and corollary slack
ROUTE_TOL = 1e-9      # equality of independent evaluation routes
ORACLE_TOL = 1e-4     # optimizer against the two-state oracle
GROUPED_TOL = 1e-9    # grouped-x info_f against its closed form
N_SIGMA = 3.0         # Monte Carlo agreement, as the scenarios check it
GROSS_SIGMA = 5.0     # a miss this large is not chance (p < 6e-7 per check)

# Job templates per workload, cycled in order: (scenario, dim, trials, params).
CHAIN_INSTANCES = 20
MC_TRIALS = 10_000
COROLLARY_INSTANCES = 20
SWEEP_GRID = 101
TWO_STATE_BUDGET = 2000  # reaches the oracle within ORACLE_TOL at every overlap tried
OPT_BUDGET = 1000
OPT_RESTARTS = 2

_TEMPLATES = {
    "chain": [("bound-chain", d, CHAIN_INSTANCES, {}) for d in range(2, 7)],
    "haar-mc": [
        ("uniform-theorem", 2, MC_TRIALS, {"povm": "z"}),
        ("uniform-theorem", 2, MC_TRIALS, {"povm": "random", "n_random": 1}),
        ("uniform-theorem", 3, MC_TRIALS, {"povm": "random", "n_random": 1}),
        ("uniform-theorem", 4, MC_TRIALS, {"povm": "random", "n_random": 1}),
        ("distorted-ensemble", 3, MC_TRIALS, {}),
        ("haar", 4, MC_TRIALS, {}),
    ],
    "accinfo": [
        ("two-state-accinfo", 2, 1, {"budget": TWO_STATE_BUDGET, "restarts": OPT_RESTARTS,
                                     "opt_tol": ORACLE_TOL}),
        ("optimize", 2, 1, {"budget": OPT_BUDGET, "restarts": OPT_RESTARTS}),
        ("optimize", 3, 1, {"budget": OPT_BUDGET, "restarts": OPT_RESTARTS}),
    ],
    "corollary": [("subentropy-corollary", d, COROLLARY_INSTANCES, {})
                  for d in range(2, 5)]
                 + [("inefficient-violation", 2, 1, {"grid": SWEEP_GRID})],
}

# One small job per workload, run untimed after import: it pays the lazy
# first-call costs (mpmath, scipy, numpy dispatch) that every CLI call pays.
_WARMUP = {
    "chain": ScenarioConfig("bound-chain", dim=3, trials=2, seed=0),
    "haar-mc": ScenarioConfig("uniform-theorem", dim=2, trials=200, seed=0,
                              params={"povm": "z"}),
    "accinfo": ScenarioConfig("optimize", dim=2, trials=1, seed=0,
                              params={"budget": 100, "restarts": 1}),
    "corollary": ScenarioConfig("subentropy-corollary", dim=3, trials=2, seed=0),
}


def warmup_job(workload: str) -> ScenarioConfig:
    return _WARMUP[workload]


def cycle_length(workload: str) -> int:
    """Jobs in one cycle of the workload's templates."""
    return len(_TEMPLATES[workload])


def job_stream(workload: str, seed: int):
    """Endless stream of job configs for a workload, derived from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    for name, dim, trials, params in itertools.cycle(_TEMPLATES[workload]):
        job_seed = int(rng.integers(0, 2 ** 63 - 1))
        params = dict(params)
        if name == "two-state-accinfo":
            params["overlaps"] = [round(float(rng.uniform(0.1, 0.9)), 6)]
        elif name == "optimize":
            params["n_states"] = int(rng.integers(2, 4))
            params["pure"] = bool(rng.integers(0, 2))
        yield ScenarioConfig(name, dim=dim, trials=trials, seed=job_seed,
                             params=params)


def items(report: dict) -> int:
    """Work a job completed: instances for the bound chain and the
    corollary, Haar trials actually drawn (a 4x retry counts) for the
    Monte Carlo scenarios, solved problems for the optimizer."""
    name = report["scenario"]
    records = report["records"]
    if name in MC_SCENARIOS:
        return sum(r["trials"] + (r["trials"] // 4 if r["retried"] else 0)
                   for r in records)
    return len(records)


def retries(report: dict) -> int:
    return sum(1 for r in report["records"] if r.get("retried"))


def check(cfg: ScenarioConfig, report: dict) -> list[tuple[str, str]]:
    """Problems found in one emitted report; empty when the job passed."""
    problems = []
    if report["summary"].get("failures", 0) > 0:
        kind = "stat" if cfg.name in MC_SCENARIOS else "det"
        problems.append((kind, f"scenario reported failures={report['summary']['failures']}"))
    problems += _CHECKS[cfg.name](cfg, report)
    return problems


def _chain(cfg, report):
    out = []
    records = report["records"]
    if len(records) != cfg.trials:
        out.append(("det", f"{len(records)} records for {cfg.trials} instances"))
    for r in records:
        slacks = (r["info_i"], r["info_f"] - r["info_i"], r["sww"] - r["info_i"],
                  r["chi"] - r["sww"], r["dual"] - r["info_i"])
        routes = (abs(r["sww"] - r["sww_alt"]), abs(r["eqx"] - r["sww"]),
                  abs(r["dual"] - r["info_f"]), r["spectrum_dev"])
        if not r["pass"] or min(slacks) < -SLACK_TOL or max(routes) > ROUTE_TOL:
            out.append(("det", f"instance seed={r['seed']}: slack={min(slacks):.3g} "
                               f"route dev={max(routes):.3g}"))
    return out


def _subentropy_uniform(dim: int) -> float:
    """Q[I/N] = ln N - sum_{k=2}^N 1/k, the closed form the z-basis
    prediction must equal (every post state of the basis measurement is pure)."""
    return math.log(dim) - sum(1.0 / k for k in range(2, dim + 1))


def _uniform_theorem(cfg, report):
    out = []
    for r in report["records"]:
        sigmas = abs(r["mc_mean"] - r["pred"]) / r["mc_stderr"]
        if not r["pass"] or sigmas > N_SIGMA:
            kind = "det" if sigmas > GROSS_SIGMA else "stat"
            out.append((kind, f"{r['label']}: |mc - pred| = {sigmas:.2f} sigma"))
    if cfg.params.get("povm") == "z":
        pred = report["records"][0]["pred"]
        if abs(pred - _subentropy_uniform(cfg.dim)) > ROUTE_TOL:
            out.append(("det", f"z-basis prediction {pred} != Q[I/N]"))
    return out


def _moments(cfg, report):
    r = report["records"][0]
    sigmas = r["max_sigma_ratio"]
    if not r["pass"] or sigmas > N_SIGMA:
        kind = "det" if sigmas > GROSS_SIGMA else "stat"
        return [(kind, f"moment check missed: max sigma ratio {sigmas:.2f}")]
    return []


def _two_state(cfg, report):
    out = []
    for r in report["records"]:
        dev = abs(r["opt_value"] - r["oracle_value"])
        if not r["pass"] or dev > ORACLE_TOL:
            out.append(("det", f"overlap {r['overlap']}: optimizer off the oracle by {dev:.3g}"))
    return out


def _optimize(cfg, report):
    r = report["records"][0]
    tol = cfg.tol
    if (not r["pass"] or r["opt_value"] < -tol or r["opt_value"] > r["chi"] + tol
            or r["opt_value"] > r["dual"] + tol):
        return [("det", f"optimum {r['opt_value']} outside [0, min(chi, dual)]")]
    return []


def _corollary(cfg, report):
    out = []
    if len(report["records"]) != cfg.trials:
        out.append(("det", f"{len(report['records'])} records for {cfg.trials} instances"))
    for r in report["records"]:
        if not r["pass"] or r["corollary_slack"] < -SLACK_TOL:
            out.append(("det", f"instance seed={r['seed']}: slack={r['corollary_slack']:.3g}"))
    return out


def _sweep(cfg, report):
    out = []
    grouped = [r for r in report["records"] if r["kind"] == "grouped-x"]
    if len(grouped) != 1:
        return [("det", "grouped-x record missing")]
    g = grouped[0]
    target = (-0.75 * math.log(0.75) - 0.25 * math.log(0.25)) - math.log(2.0)
    if abs(g["info_f"] - target) > GROUPED_TOL or abs(g["info_i"]) > 1e-12:
        out.append(("det", f"grouped-x info_f={g['info_f']} (target {target})"))
    if report["summary"].get("violations", 0) < 1:
        out.append(("det", "sweep found no info_i > info_f violation"))
    return out


_CHECKS = {
    "bound-chain": _chain,
    "uniform-theorem": _uniform_theorem,
    "distorted-ensemble": _moments,
    "haar": _moments,
    "two-state-accinfo": _two_state,
    "optimize": _optimize,
    "subentropy-corollary": _corollary,
    "inefficient-violation": _sweep,
}
