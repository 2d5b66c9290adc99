"""Scenario registry, verification campaigns, and machine-readable reports.

Every scenario is a deterministic function of its configuration: the same
config (including seed) reproduces the same records byte for byte, apart
from the wall-time field. Reports store nats internally; conversion to
bits happens at emission time only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .accinfo import (SearchConfigError, maximize_mutual_info, povm_from_vectors,
                      two_state_reference)
from .bounds import (_chain_terms, _chi_stage, _coarse_terms, _corollary_terms, _flags,
                     _padded, _pair_stack, dimension_bound, dual_holevo_rhs, eqspec_check)
from .haarmc import (distorted_moments_mc, haar_moment_mc, haar_unitary,
                     uniform_ensemble_info_exact, uniform_ensemble_info_mc)
from .infomeasures import _info_f, _info_i, holevo_chi, shannon, subentropy
from .qobjects import (DensityOperator, Ensemble, Measurement, _check_complete, _random_batch,
                       apply_measurement, ensemble_from_json, ensemble_state,
                       measurement_to_json, pure_state, random_instance)

LN2 = float(np.log(2.0))

# Record/summary keys that carry nats-valued quantities; these and only
# these are rescaled when a report is emitted in bits.
NATS_KEYS = frozenset({
    "info_i", "info_f", "chi", "dual", "sww", "sww_alt", "eqx",
    "min_slack", "eq_dev", "max_eq_dev", "worst_slack",
    "mc_mean", "mc_stderr", "pred", "mc_dev",
    "opt_value", "oracle_value", "opt_dev", "bound", "corollary_lhs",
    "corollary_slack", "posterior_info", "target", "target_dev", "lower", "upper",
})


# Fewest trials the Monte Carlo estimators accept; every scenario needs one.
_MIN_TRIALS = {"uniform-theorem": 100, "distorted-ensemble": 2, "haar": 2}


class UnknownScenarioError(ValueError):
    """Scenario name not present in the registry."""


class InvalidConfigError(ValueError):
    """Scenario configuration violates its invariants."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dim: int = 2
    trials: int = 100
    seed: int = 0
    tol: float = 1e-8
    units: str = "nats"
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.name not in SCENARIOS:
            raise UnknownScenarioError(f"unknown scenario {self.name!r}")
        unknown = sorted(set(self.params) - SCENARIOS[self.name][1])
        if unknown:
            raise InvalidConfigError(f"{self.name} reads no parameter {', '.join(unknown)}")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        if self.dim < 2:
            raise InvalidConfigError("dim must be >= 2")
        min_trials = _MIN_TRIALS.get(self.name, 1)
        if self.trials < min_trials:
            raise InvalidConfigError(f"{self.name} needs trials >= {min_trials}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise InvalidConfigError("tol must be finite and positive")
        if self.units not in ("nats", "bits"):
            raise InvalidConfigError("units must be 'nats' or 'bits'")

    def param(self, key, default, kind=None):
        """Parameter ``key`` (one the registry names for this scenario),
        converted by ``kind`` when given and not None. An ``int`` parameter
        is a count, an integral value >= 1; a ``float`` one is finite and
        > 0; a ``bool`` one is a JSON bool, and no other kind takes one."""
        if key not in SCENARIOS[self.name][1]:
            raise KeyError(f"{self.name} does not declare parameter {key!r}")
        value = self.params.get(key, default)
        if kind is None or value is None:
            return value
        if isinstance(value, bool) != (kind is bool):
            raise InvalidConfigError(f"parameter {key}={value!r} is not a {kind.__name__}")
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfigError(
                f"parameter {key}={value!r} is not a valid {kind.__name__}") from exc
        if kind is int and (out != value or out < 1):
            raise InvalidConfigError(f"parameter {key}={value!r} is not a count >= 1")
        if kind is float and not (math.isfinite(out) and out > 0.0):
            raise InvalidConfigError(f"parameter {key}={value!r} is not finite and > 0")
        return out


@dataclass
class Report:
    scenario: str
    config: dict
    records: list
    summary: dict
    walltime_ms: float

    @property
    def failures(self) -> int:
        return self.summary["failures"]

    def to_dict(self, units: str | None = None) -> dict:
        units = units or self.config.get("units", "nats")
        out = {"scenario": self.scenario, "config": self.config,
               "records": self.records, "summary": self.summary,
               "walltime_ms": self.walltime_ms}
        if units == "bits":
            out = _convert_units(out)
        return out


def _convert_units(obj, inside_nats_key=False):
    if isinstance(obj, dict):
        return {k: _convert_units(v, inside_nats_key or k in NATS_KEYS)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_convert_units(v, inside_nats_key) for v in obj]
    if isinstance(obj, float) and inside_nats_key:
        return obj / LN2
    return obj


def _pyify(obj):
    """Normalize numpy scalars and tuples so reports serialize cleanly."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def run_scenario(cfg: ScenarioConfig) -> Report:
    """Execute one scenario and wrap its records in a Report. The summary
    counts the ``instances`` (records) and the ``failures`` (records that
    do not pass) unless the scenario sets a verdict of its own."""
    cfg.validate()
    t0 = time.perf_counter()
    try:
        records, summary = SCENARIOS[cfg.name][0](cfg)
    except SearchConfigError as exc:  # a search budget, restart or outcome count
        raise InvalidConfigError(str(exc)) from exc
    own = summary.pop("failures", None)
    summary = {"instances": len(records),
               "failures": sum(not r["pass"] for r in records) if own is None else own,
               **summary}
    walltime_ms = (time.perf_counter() - t0) * 1000.0
    return Report(scenario=cfg.name, config=_pyify(asdict(cfg)),
                  records=_pyify(records), summary=_pyify(summary),
                  walltime_ms=walltime_ms)


def emit_report(report: Report, fmt: str = "json", path=None) -> str:
    """Serialize a report; write it to ``path`` when given.

    JSON keys are sorted and stable; CSV flattens the per-instance records
    (one row each plus a header). Bits conversion is applied here when the
    config requests it.
    """
    data = report.to_dict()
    if fmt == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
    elif fmt == "csv":
        out = io.StringIO()
        if data["records"]:
            fields = dict.fromkeys(k for rec in data["records"] for k in rec)
            writer = csv.DictWriter(out, fieldnames=list(fields), restval="")
            writer.writeheader()
            writer.writerows(data["records"])
        text = out.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# Fixed constructions shared by scenarios

def basis_projectors(dim: int) -> Measurement:
    """Von Neumann measurement in the computational basis."""
    eye = np.eye(dim, dtype=np.complex128)
    return Measurement([np.outer(eye[:, k], eye[:, k].conj()) for k in range(dim)])


def qubit_x_projectors() -> Measurement:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return Measurement([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])


def counterexample_encoding() -> Ensemble:
    """Diagonal pure encoding with average state diag(3/4, 1/4)."""
    return Ensemble([0.75, 0.25], [pure_state([1.0, 0.0]), pure_state([0.0, 1.0])])


def eqspec_satisfied_family(n_states: int = 3):
    """A dim-3 instance satisfying the equal-compression condition.

    All states live in the two-dimensional span of u = (e1+e2)/sqrt(2) and
    e3; the measurement projects onto span{e1, e2} and onto e3, so every
    compressed state is proportional to a fixed vector per outcome.
    """
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    e3 = np.array([0.0, 0.0, 1.0])
    thetas = 0.3 + 0.4 * np.arange(n_states)
    states = [pure_state(np.cos(t) * u + np.sin(t) * e3) for t in thetas]
    ens = Ensemble(np.full(n_states, 1.0 / n_states), states)
    p12 = np.diag([1.0, 1.0, 0.0]).astype(np.complex128)
    p3 = np.diag([0.0, 0.0, 1.0]).astype(np.complex128)
    return ens, Measurement([p12, p3])


def eqspec_counterexample():
    """A dim-3 instance violating the condition: two orthogonal states
    compressed by a rank-2 outcome stay orthogonal, not proportional."""
    ens = Ensemble([0.5, 0.5], [pure_state([1.0, 0.0, 0.0]),
                                pure_state([0.0, 1.0, 0.0])])
    p12 = np.diag([1.0, 1.0, 0.0]).astype(np.complex128)
    p3 = np.diag([0.0, 0.0, 1.0]).astype(np.complex128)
    return ens, Measurement([p12, p3])


def random_diagonal_classical(dim: int, seed) -> tuple[Ensemble, Measurement]:
    """Random classical instance: distinct basis states with a diagonal
    Kraus measurement (everything mutually commuting)."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, dim + 1))
    idx = rng.permutation(dim)[:n_states]
    spacings = np.sort(rng.uniform(size=n_states - 1))
    probs = np.diff(np.concatenate(([0.0], spacings, [1.0])))
    eye = np.eye(dim)
    states = [pure_state(eye[:, k]) for k in idx]
    n_outcomes = int(rng.integers(2, 6))
    weights = rng.dirichlet(np.ones(n_outcomes), size=dim).T  # (J, dim), columns sum to 1
    phases = np.exp(2j * np.pi * rng.uniform(size=(n_outcomes, dim)))
    kraus = [np.diag(np.sqrt(weights[j]) * phases[j]) for j in range(n_outcomes)]
    return Ensemble(probs, states), Measurement(kraus)


def _sub_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 63 - 1))


def _records(heads, columns: dict) -> list[dict]:
    """One record per head: its keys, then the instance's entry of each (K,) column."""
    return [{**head, **dict(zip(columns, row))}
            for head, row in zip(heads, zip(*(c.tolist() for c in columns.values())))]


# ---------------------------------------------------------------------------
# Scenarios

def _scn_bound_chain(cfg: ScenarioConfig):
    """The bound chain on random instances, alternately mixed and pure: all
    specs are drawn first, in the one-at-a-time order, then the whole job is
    drawn as one padded batch and evaluated as one stack. An instance passes
    when every slack is >= -tol and the independent routes agree within ``eq_tol``."""
    rng = np.random.default_rng(cfg.seed)
    eq_tol = cfg.param("eq_tol", 1e-9, float)
    specs = [(_sub_seed(rng), int(rng.integers(2, 9)), int(rng.integers(2, 10)), bool(t % 2))
             for t in range(cfg.trials)]
    terms, slacks = _chain_terms(_random_batch(cfg.dim, specs))
    min_slack = np.min(list(slacks.values()), axis=0)
    eq_dev = np.max([np.abs(terms["sww"] - terms["sww_alt"]), np.abs(terms["eqx"] - terms["sww"]),
                     np.abs(terms["dual"] - terms["info_f"]), terms["spectrum_dev"]], axis=0)
    heads = [dict(zip(("seed", "n_states", "n_outcomes", "pure"), spec)) for spec in specs]
    records = _records(heads, {**terms, "min_slack": min_slack, "eq_dev": eq_dev,
                               "pass": (min_slack >= -cfg.tol) & (eq_dev <= eq_tol)})
    return records, {"worst_slack": float(min_slack.min()), "max_eq_dev": float(eq_dev.max())}


def _scn_saturation_classical(cfg: ScenarioConfig):
    """I_i = I_f on random classical instances, drawn first in the
    one-at-a-time order and evaluated as one stack."""
    rng = np.random.default_rng(cfg.seed)
    eq_tol = cfg.param("eq_tol", 1e-9, float)
    seeds = [_sub_seed(rng) for _ in range(cfg.trials)]
    batch = _padded([random_diagonal_classical(cfg.dim, seed) for seed in seeds])
    s_rho, stack = _chi_stage(batch)[1], _pair_stack(batch)
    info_i, info_f = _info_i(batch[0], stack), _info_f(s_rho, stack)
    eq_dev = np.abs(info_i - info_f)
    classical = np.array([f.classical for f in _flags(batch)])
    records = _records([{"seed": seed} for seed in seeds], {
        "info_i": info_i, "info_f": info_f, "eq_dev": eq_dev, "classical": classical,
        "pass": classical & (eq_dev <= eq_tol)})
    return records, {"max_eq_dev": float(eq_dev.max())}


def _retry_seed(seed: int) -> int:
    """Monte Carlo seed of a retry: derived from the first pass's seed, so
    deterministic, but keying an independent stream."""
    return int(np.random.SeedSequence([seed % 2 ** 64, 1]).generate_state(1, np.uint64)[0])


def _mc_retry(run, trials, seed, passes):
    """Spec'd flake damping: on a 3-sigma miss, ``run(trials, seed)`` is
    retried once at 4x trials on the independent stream ``_retry_seed``,
    so the retry does not repeat the draws that missed."""
    est = run(trials, seed)
    ok = passes(est)
    retried = not ok
    if retried:
        est = run(4 * trials, _retry_seed(seed))
        ok = passes(est)
    return est, ok, retried


def _scn_uniform_theorem(cfg: ScenarioConfig):
    povm_kind = cfg.param("povm", "z")
    n_random = cfg.param("n_random", 5, int)
    if n_random > 10 ** 4:  # checked first: each one is a measurement and a Monte Carlo run
        raise InvalidConfigError("n_random must be <= 10000")
    rng = np.random.default_rng(cfg.seed)
    jobs = []
    if povm_kind == "z":
        jobs.append(("z", basis_projectors(cfg.dim)))
    elif povm_kind == "random":
        for r in range(n_random):
            inst_seed = _sub_seed(rng)
            meas = random_instance(cfg.dim, 1, int(rng.integers(2, 6)), True, inst_seed)[1]
            jobs.append((f"random-{r}", meas))
    else:
        raise InvalidConfigError(f"unknown povm kind {povm_kind!r}")

    records = []
    for label, meas in jobs:
        pred = uniform_ensemble_info_exact(meas)
        est, ok, retried = _mc_retry(lambda n, s: uniform_ensemble_info_mc(meas, n, s),
                                     cfg.trials, _sub_seed(rng), lambda e: e.within(pred, 3.0))
        records.append({"label": label, "pred": pred, "mc_mean": est.mean,
                        "mc_stderr": est.std_error, "mc_dev": abs(est.mean - pred),
                        "trials": est.trials, "retried": retried, "pass": ok})
    return records, {}


def _moment_check(moments, target, tol_floor=1e-12):
    """Entrywise 3-sigma agreement of a sampled mean state with its target,
    plus the weight normalization. Returns (ok, max sigma ratio)."""
    dev_re = np.abs(moments.mean_state.real - target.real)
    dev_im = np.abs(moments.mean_state.imag - target.imag)
    lim_re = 3.0 * moments.stderr_real + tol_floor
    lim_im = 3.0 * moments.stderr_imag + tol_floor
    ok = bool(np.all(dev_re <= lim_re) and np.all(dev_im <= lim_im))
    w_dev = abs(moments.weight_mean - 1.0)
    w_lim = 3.0 * moments.weight_stderr + tol_floor
    ok = ok and w_dev <= w_lim
    ratios = [np.max(dev_re / np.maximum(lim_re / 3.0, tol_floor)),
              np.max(dev_im / np.maximum(lim_im / 3.0, tol_floor)),
              w_dev / max(w_lim / 3.0, tol_floor)]
    return ok, float(max(ratios))


def _moments_records(run, trials, seed, target, head: dict, fields):
    """The one record of a Monte Carlo moments check: ``run(trials, seed)``
    against ``target`` by ``_moment_check``, with one retry; ``head`` and
    the ``fields`` of the moments go in as well."""
    moments, ok, retried = _mc_retry(run, trials, seed, lambda m: _moment_check(m, target)[0])
    return [{**head, "trials": moments.trials,
             "max_sigma_ratio": _moment_check(moments, target)[1],
             **{f: getattr(moments, f) for f in fields}, "retried": retried, "pass": ok}]


def _scn_distorted_ensemble(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    inst_seed = _sub_seed(rng)
    g = np.random.default_rng(inst_seed)
    mat = g.normal(size=(cfg.dim, cfg.dim)) + 1j * g.normal(size=(cfg.dim, cfg.dim))
    w = mat @ mat.conj().T
    rho = DensityOperator(w / np.trace(w).real)
    unitary = haar_unitary(cfg.dim, g)
    return _moments_records(lambda n, s: distorted_moments_mc(rho, unitary, n, s), cfg.trials,
                            _sub_seed(rng), rho.matrix, {"seed": inst_seed},
                            ("weight_mean", "weight_stderr")), {}


def _scn_haar(cfg: ScenarioConfig):
    return _moments_records(lambda n, s: haar_moment_mc(cfg.dim, n, s), cfg.trials, cfg.seed,
                            np.eye(cfg.dim) / cfg.dim, {}, ("weight_mean",)), {}


def _scn_eqspec_recovery(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    opt_budget = cfg.param("opt_budget", 2000, int)
    opt_restarts = cfg.param("opt_restarts", 3, int)
    family_states = cfg.param("family_states", 3, int)
    if family_states > 1000:  # checked first: eqspec_check loops over its n**2 pairs
        raise InvalidConfigError("family_states must be <= 1000")
    records = []

    # Rank-one measurements satisfy the condition for generic ensembles.
    for t in range(cfg.trials):
        inst_seed = _sub_seed(rng)
        g = np.random.default_rng(inst_seed)
        ens, _ = random_instance(cfg.dim, int(g.integers(2, 5)), 2, False, inst_seed)
        vecs = g.normal(size=(cfg.dim * 2, cfg.dim)) + \
            1j * g.normal(size=(cfg.dim * 2, cfg.dim))
        meas = povm_from_vectors(vecs)
        sat, _ = eqspec_check(ens, meas)
        records.append({"kind": "rank-one", "seed": inst_seed,
                        "satisfied": sat, "pass": sat})

    # Canonical counter-instance must be rejected.
    sat_bad = eqspec_check(*eqspec_counterexample())[0]
    records.append({"kind": "counterexample", "seed": cfg.seed,
                    "satisfied": sat_bad, "pass": not sat_bad})

    # Satisfied family: posterior ensembles carry no recoverable index
    # information, and the optimizer respects the support-dimension bound.
    ens_ok, meas_ok = eqspec_satisfied_family(family_states)
    sat_ok, _ = eqspec_check(ens_ok, meas_ok)
    analysis = apply_measurement(meas_ok, ens_ok)
    posterior_worst = 0.0
    for j in analysis.effective_outcomes():
        res = maximize_mutual_info(analysis.posterior_ensemble(j),
                                   budget=max(200, opt_budget // 4),
                                   restarts=2, seed=_sub_seed(rng))
        posterior_worst = max(posterior_worst, res.best_value)
    bound = dimension_bound(meas_ok, ens_ok.dim)
    opt = maximize_mutual_info(ens_ok, budget=opt_budget,
                               restarts=opt_restarts, seed=_sub_seed(rng))
    ok = sat_ok and posterior_worst <= 1e-3 and opt.best_value <= bound + 1e-6
    records.append({"kind": "satisfied-family", "seed": cfg.seed,
                    "satisfied": sat_ok, "posterior_info": posterior_worst,
                    "opt_value": opt.best_value, "bound": bound, "pass": ok})
    return records, {}


def _scn_inefficient_violation(cfg: ScenarioConfig):
    """Coarse-grained mixtures of the X and Z measurements: the sweep's grid
    is one (grid, 4, 2, 2) Kraus stack, the Kraus operators of
    ``mix_measurements`` with a zero-weight parent kept as zero operators."""
    grid = cfg.param("grid", 101, int)
    eq_tol = cfg.param("eq_tol", 1e-9, float)
    if not 2 <= grid <= 10 ** 6:  # checked first: its Kraus stack alone is 256 MB at 10**6
        raise InvalidConfigError("grid must be >= 2 and <= 1000000")
    ens = counterexample_encoding()
    m_z = basis_projectors(2)
    m_x = qubit_x_projectors()
    lams = np.linspace(0.0, 1.0, grid)
    kraus = np.concatenate([np.sqrt(lams)[:, None, None, None] * m_x.kraus_stack,
                            np.sqrt(1.0 - lams)[:, None, None, None] * m_z.kraus_stack], axis=1)
    _check_complete(kraus)
    info_i, info_f = _coarse_terms(ens, kraus, ((0, 2), (1, 3)))
    violation = (info_i > info_f + cfg.tol) & (info_i > cfg.tol) & (info_f > cfg.tol)
    n_violations = int(violation.sum())
    records = _records([{"kind": "sweep", "lam": lam} for lam in lams.tolist()],
                       {"info_i": info_i, "info_f": info_f, "violation": violation})

    # Fully grouped unbiased-basis case: information gain about the index
    # is zero while the entropy of the state strictly increases.
    info_i, info_f = (float(x[0]) for x in _coarse_terms(ens, m_x.kraus_stack[None], ((0, 1),)))
    target = shannon([0.75, 0.25]) - LN2
    grouped_ok = bool(abs(info_f - target) <= eq_tol and abs(info_i) <= 1e-12)
    records.append({"kind": "grouped-x", "lam": None, "info_i": info_i,
                    "info_f": info_f, "target": target,
                    "target_dev": abs(info_f - target), "violation": False,
                    "pass": grouped_ok})

    # The verdict is the sweep's as a whole: some grid point must violate.
    return records, {"failures": 0 if n_violations > 0 and grouped_ok else 1,
                     "violations": n_violations, "grouped_x_pass": grouped_ok}


def _scn_two_state_accinfo(cfg: ScenarioConfig):
    overlaps = cfg.param("overlaps", [float(np.cos(np.pi / 8.0))])
    if not (isinstance(overlaps, list) and overlaps
            and all(type(s) in (int, float) and 0.0 <= s <= 1.0 for s in overlaps)):
        raise InvalidConfigError(f"overlaps={overlaps!r} is not a list of numbers in [0, 1]")
    budget = cfg.param("budget", 20000, int)
    restarts = cfg.param("restarts", 4, int)
    opt_tol = cfg.param("opt_tol", 1e-4, float)
    rng = np.random.default_rng(cfg.seed)
    records = []
    for s in overlaps:
        alpha = np.arccos(float(s)) / 2.0
        ens = Ensemble([0.5, 0.5], [pure_state([np.cos(alpha), sign * np.sin(alpha)])
                                    for sign in (1.0, -1.0)])
        oracle = two_state_reference(float(s))
        opt = maximize_mutual_info(ens, budget=budget, restarts=restarts,
                                   seed=_sub_seed(rng))
        dev = abs(opt.best_value - oracle)
        records.append({"overlap": float(s), "opt_value": opt.best_value,
                        "oracle_value": oracle, "opt_dev": dev, "pass": dev <= opt_tol})
    return records, {}


def _scn_subentropy_corollary(cfg: ScenarioConfig):
    """I_i + sum_j Q_j Q[rho'_j] <= chi on random pure-state instances, drawn
    in the one-at-a-time order and evaluated as one stack."""
    rng = np.random.default_rng(cfg.seed)
    specs = [(_sub_seed(rng), int(rng.integers(2, 9)), int(rng.integers(2, 10)), True)
             for _ in range(cfg.trials)]
    chi, info_i, sub = _corollary_terms(_random_batch(cfg.dim, specs))
    lhs = info_i + sub
    slack = chi - lhs
    records = _records([{"seed": seed} for seed, *_ in specs], {
        "corollary_lhs": lhs, "chi": chi, "corollary_slack": slack, "pass": slack >= -cfg.tol})
    return records, {"worst_slack": float(slack.min())}


def _scn_optimize(cfg: ScenarioConfig):
    budget = cfg.param("budget", 4000, int)
    restarts = cfg.param("restarts", 4, int)
    n_outcomes = cfg.param("outcomes", None, int)
    if cfg.param("ensemble", None) is not None:
        unread = sorted({"n_states", "pure"} & cfg.params.keys())
        if unread:
            raise InvalidConfigError(f"optimize reads no {', '.join(unread)} with an ensemble")
        try:
            ens = ensemble_from_json(cfg.params["ensemble"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # "dim": 1e400 is inf
            raise InvalidConfigError(f"invalid ensemble: {exc!r}") from exc
    else:
        n_states = cfg.param("n_states", 2, int)
        pure = cfg.param("pure", True, bool)
        ens, _ = random_instance(cfg.dim, n_states, 2, pure, cfg.seed)
    opt = maximize_mutual_info(ens, n_outcomes=n_outcomes, budget=budget,
                               restarts=restarts, seed=cfg.seed)
    chi = holevo_chi(ens)
    rho = ensemble_state(ens)
    dual = dual_holevo_rhs(rho, opt.best_measurement)
    # I_acc <= chi; for pure ensembles, I_acc >= Q[rho] (Jozsa, Robb and Wootters 1994)
    floor = subentropy(rho) if ens.is_pure else -np.inf
    records = [{"opt_value": opt.best_value, "chi": chi, "dual": dual,
                "lower": max(opt.best_value, floor), "upper": chi,
                "below_subentropy": opt.best_value < floor - cfg.tol,
                "evaluations": opt.evaluations,
                "last_improvement": opt.trace[-1][0] if opt.trace else 0,
                "measurement": measurement_to_json(opt.best_measurement),
                "pass": opt.best_value <= chi + cfg.tol and opt.best_value <= dual + cfg.tol}]
    return records, {}


# name: (scenario, the --param keys it reads; any other key is an input error)
SCENARIOS = {
    "bound-chain": (_scn_bound_chain, {"eq_tol"}),
    "saturation-classical": (_scn_saturation_classical, {"eq_tol"}),
    "uniform-theorem": (_scn_uniform_theorem, {"povm", "n_random"}),
    "distorted-ensemble": (_scn_distorted_ensemble, set()),
    "eqspec-recovery": (_scn_eqspec_recovery, {"opt_budget", "opt_restarts", "family_states"}),
    "inefficient-violation": (_scn_inefficient_violation, {"grid", "eq_tol"}),
    "two-state-accinfo": (_scn_two_state_accinfo, {"overlaps", "budget", "restarts", "opt_tol"}),
    "subentropy-corollary": (_scn_subentropy_corollary, set()),
    "optimize": (_scn_optimize, {"budget", "restarts", "outcomes", "ensemble", "n_states",
                                 "pure"}),
    "haar": (_scn_haar, set()),
}
