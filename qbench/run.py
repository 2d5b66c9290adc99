"""Closed-loop benchmark of qbound's verification campaigns.

Run from the root of a qbound source tree:

    python3 qbench/run.py --workload chain --seed 1 --seconds 24 --trace 0

One client in one process on one thread issues jobs back to back (a
closed loop) for ``--seconds`` seconds, checks every job's report against
the tolerances in ``campaigns.py``, and prints the end-to-end metrics.
``--trace 1`` instead runs a fixed list of the same jobs twice each,
untraced and traced, and prints the per-layer metrics and the tracing
overhead (see ``layertrace.py``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 means the run
was refused (no ``src/qbound`` below the working directory,
``QBOUND_THREADS`` set, or ``qbound`` imported from somewhere else).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
# The reference import: qbound's dependencies, and nothing of qbound, in a
# fresh interpreter. setup_s is given in seconds of a machine on which it
# takes REF_IMPORT_S (see end_to_end).
REF_IMPORT = "import numpy, numpy.linalg, scipy, scipy.linalg, scipy.optimize, mpmath"
REF_IMPORT_S = 1.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Jobs in the traced run's fixed list: whole cycles of each workload,
# a few seconds per pass on a 2-core machine.
TRACE_JOBS = {"chain": 25, "haar-mc": 12, "accinfo": 12, "corollary": 24}
SWW_REPLAY_INSTANCES = 100
THREAD_PROBE_TRIALS = 5 * 4096
# Reference kernel (see make_reference): 400 matrices take 6-10 ms on
# the 2-core VM of README.md.
REF_MATRICES = 400
REF_SEED = 20240917
REF_NEIGHBOURS = 2
SPANS_DIR = ".qbench-out"


class Refused(Exception):
    """The run cannot be made as asked."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("chain", "haar-mc", "accinfo", "corollary"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info() -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QBOUND_THREADS")},
    }


def probe_setup(workload: str, src: str) -> dict:
    """Time one fresh interpreter from start to a finished warm-up job."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                          workload, src], capture_output=True, text=True,
                         timeout=120, check=False)
    if out.returncode != 0:
        raise Refused(f"set-up probe failed:\n{out.stderr}")
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    check_origin(rec.pop("qbound_file"), src)
    rec["setup_s"] = rec.pop("ready") - t0
    return rec


def probe_reference_import() -> float:
    """Time one fresh interpreter from start to the end of REF_IMPORT."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c",
                          f"{REF_IMPORT}; import time; print(time.monotonic())"],
                         capture_output=True, text=True, timeout=120, check=False)
    if out.returncode != 0:
        raise Refused(f"reference import failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1]) - t0


def probe_setups(workload: str, src: str) -> list[dict]:
    """SETUP_PROBES set-up probes, each next to a reference import probe;
    which of the two runs first alternates from pair to pair."""
    setups = []
    for k in range(SETUP_PROBES):
        if k % 2:
            ref = probe_reference_import()
            rec = probe_setup(workload, src)
        else:
            rec = probe_setup(workload, src)
            ref = probe_reference_import()
        rec["ref_import_s"] = ref
        setups.append(rec)
    return setups


def check_origin(qbound_file: str, src: str):
    """Refuse a run whose qbound is not the source tree under test."""
    if os.path.dirname(os.path.abspath(qbound_file)) != os.path.join(src, "qbound"):
        raise Refused(f"imported qbound from {qbound_file}, not from {src}")


def run_job(qb, campaigns, cfg) -> dict:
    """One job: run_scenario plus emit_report to JSON, timed, then checked."""
    t0 = time.perf_counter()
    try:
        text = qb.emit_report(qb.run_scenario(cfg), "json")
    except Exception as exc:  # a raising job is a failed job, not a crash
        latency = time.perf_counter() - t0
        return {"cfg": cfg, "latency": latency, "report": None, "items": 0,
                "problems": [("det", f"raised {type(exc).__name__}: {exc}")]}
    latency = time.perf_counter() - t0
    report = json.loads(text)
    return {"cfg": cfg, "latency": latency, "report": report,
            "items": campaigns.items(report),
            "problems": campaigns.check(cfg, report)}


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    the (n - TAIL_BEYOND)-th order statistic. Returns (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n


def make_reference():
    """The reference kernel: a fixed piece of work made of what qbound's
    inner loops are made of (tiny Hermitian ``eigvalsh`` calls, entropy
    sums, Python arithmetic), with no qbound code in it. Its time moves
    with the shared machine's speed and never with the program's."""
    import numpy as np
    a = np.random.default_rng(REF_SEED).normal(size=(2, REF_MATRICES, 4, 4))
    mats = [m @ m.conj().T for m in a[0] + 1j * a[1]]

    def reference() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for h in mats:
            w = np.linalg.eigvalsh(h)
            w = w / w.sum()
            acc -= float((w * np.log2(w)).sum())
            for x in range(20):
                acc += x * 1e-9
        return time.perf_counter() - t0
    reference()
    return reference


def timed_run(qb, campaigns, workload, seed, seconds):
    """Jobs back to back, each after one run of the reference kernel, until
    ``seconds`` have passed and the last cycle of templates is whole."""
    reference = make_reference()
    results = []
    cycle = campaigns.cycle_length(workload)
    deadline = time.perf_counter() + seconds
    for cfg in campaigns.job_stream(workload, seed):
        ref = reference()
        result = run_job(qb, campaigns, cfg)
        # The report is checked; keeping it would let peak_rss_mb grow
        # with the number of jobs a faster program finishes.
        del result["report"]
        result["ref"] = ref
        results.append(result)
        if time.perf_counter() >= deadline and len(results) % cycle == 0:
            return results


def summarize(results):
    lat = [r["latency"] for r in results]
    return {"items": sum(r["items"] for r in results), "busy_s": sum(lat),
            "latencies": lat}


def gate(results):
    """(correct, failed, problem lines). A job with any problem failed;
    the run is incorrect when some problem is not a Monte Carlo miss."""
    failed = [r for r in results if r["problems"]]
    correct = not any(kind == "det" for r in failed for kind, _ in r["problems"])
    lines = [f"{r['cfg'].name} dim={r['cfg'].dim} seed={r['cfg'].seed}: "
             + "; ".join(f"[{k}] {m}" for k, m in r["problems"]) for r in failed]
    return correct, len(failed), lines


def in_refs(results):
    """Each job's latency in reference-kernel times: divided by the median
    of the reference times measured before it and its REF_NEIGHBOURS
    neighbours on either side, so that one jittered reference run does
    not move it."""
    refs = [r["ref"] for r in results]
    k = REF_NEIGHBOURS
    return [r["latency"] / statistics.median(refs[max(i - k, 0):i + k + 1])
            for i, r in enumerate(results)]


def end_to_end(results, setups):
    """The metrics BENCHMARK.json bounds, and notes printed beside them.
    README.md explains why the bounded ones are scaled by the reference
    kernel and the reference import rather than read off the clock."""
    s = summarize(results)
    units = in_refs(results)
    lat_ms = [x * 1e3 for x in s["latencies"]]
    tail_ref, pct = tail(units)
    _, failed, _ = gate(results)
    n = len(lat_ms)
    metrics = {
        "setup_s": (REF_IMPORT_S * statistics.median(p["setup_s"] for p in setups)
                    / statistics.median(p["ref_import_s"] for p in setups), "s"),
        "items_per_ref": (s["items"] / sum(units), "items/ref"),
        "job_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"items_per_s": s["items"] / s["busy_s"],
             "job_p50_ms": statistics.median(lat_ms), "job_tail_ms": tail(lat_ms)[0],
             "failed_frac": failed / n, "jobs": n, "items": s["items"],
             "job_tail_percentile": round(pct, 2),
             "job_tail_samples_beyond": n - 1 - max(n - TAIL_BEYOND - 1, 0),
             "ref_ms_median": statistics.median(r["ref"] for r in results) * 1e3,
             "setup_samples_s": [round(p["setup_s"], 4) for p in setups],
             "ref_import_samples_s": [round(p["ref_import_s"], 4) for p in setups]}
    return metrics, notes


def threads_probe(qb, seed):
    """trials/s with QBOUND_THREADS=2 over QBOUND_THREADS=1 on the same
    uniform_ensemble_info_mc call. Returns (ratio, note): the note says why
    the ratio is absent, or that the two estimates differ, which breaks
    the package's bit-identical-at-any-worker-count contract."""
    import numpy as np
    mc = getattr(qb, "uniform_ensemble_info_mc", None)
    if mc is None:
        return None, "qbound.uniform_ensemble_info_mc no longer exists"
    meas = qb.Measurement([np.diag([1.0, 0.0]).astype(complex),
                           np.diag([0.0, 1.0]).astype(complex)])
    best = {1: float("inf"), 2: float("inf")}
    means = set()
    for n in (1, 2, 1, 2):
        os.environ["QBOUND_THREADS"] = str(n)
        try:
            t0 = time.perf_counter()
            means.add(mc(meas, THREAD_PROBE_TRIALS, seed).mean)
            best[n] = min(best[n], time.perf_counter() - t0)
        finally:
            del os.environ["QBOUND_THREADS"]
    problem = None if len(means) == 1 else "estimates differ between 1 and 2 threads"
    return best[1] / best[2], problem


def sww_replay(qb, tracer, results):
    """Time the stable entry point sww_rhs on the bound-chain instances of
    the traced jobs, rebuilt from the seeds their reports record."""
    if any(getattr(qb, name, None) is None
           for name in ("sww_rhs", "random_instance", "apply_measurement")):
        return
    recs = [(r["cfg"].dim, rec) for r in results
            if r["cfg"].name == "bound-chain" and r["report"]
            for rec in r["report"]["records"]]
    for dim, rec in recs[:SWW_REPLAY_INSTANCES]:
        ens, meas = qb.random_instance(dim, rec["n_states"], rec["n_outcomes"],
                                       rec["pure"], rec["seed"])
        tracer.span("bounds.sww_rhs", qb.sww_rhs, qb.apply_measurement(meas, ens))


def traced_run(qb, campaigns, workload, seed):
    """Run a fixed list of jobs twice each, untraced and traced. The order
    alternates from job to job, so drift in machine speed and first-call
    costs fall on both sides alike."""
    import layertrace
    jobs = itertools.islice(campaigns.job_stream(workload, seed), TRACE_JOBS[workload])
    tracer = layertrace.Tracer()
    plain, traced = [], []
    for k, cfg in enumerate(jobs):
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if not with_trace:
                plain.append(run_job(qb, campaigns, cfg))
                continue
            tracer.install()
            try:
                traced.append(tracer.span("job", run_job, qb, campaigns, cfg))
            finally:
                tracer.uninstall()
    layer_self = tracer.layer_self()
    sww_replay(qb, tracer, traced)
    probe = (threads_probe(qb, seed) if workload == "haar-mc"
             else (None, "the thread probe runs on haar-mc only"))
    return plain, traced, tracer, layer_self, probe


def per_layer(campaigns, workload, plain, traced, tracer, layer_self, probe, setups):
    """Every per-layer metric, with the reason for each one that is absent."""
    metrics, absent = {}, {}

    def put(name, unit, value, why):
        if value is None:
            absent[name] = why
            value = 0.0
        metrics[name] = (value, unit)

    def called(key):
        s = tracer.stats.get(key)
        return s if s is not None and s.calls > 0 else None

    def why(key):
        return tracer.absent.get(key, f"{key} not called on workload {workload}")

    def per_call(key, scale, unit):
        s = called(key)
        put(f"{key}.{unit}", unit, s.total / s.calls * scale if s else None, why(key))

    def counted(key):
        s = called(key)
        return s if s and s.work and not s.uncounted else None

    def rate(key, name, unit):
        s = counted(key)
        put(name, unit, s.work / s.total if s else None, why(key))

    per_call("qobjects.random_instance", 1e6, "us")
    s = counted("qobjects.apply_measurement")
    put("qobjects.apply_measurement.us_per_piece", "us/piece",
        s.total / s.work * 1e6 if s else None, why("qobjects.apply_measurement"))
    put("qobjects.pieces", "count", s.work if s else None, why("qobjects.apply_measurement"))
    per_call("qobjects.coarse_grain", 1e6, "us")
    for f in ("mutual_information", "info_gain_f", "holevo_chi", "subentropy"):
        per_call(f"infomeasures.{f}", 1e6, "us")
    s = called("infomeasures.subentropy")
    put("infomeasures.subentropy.calls", "count", s.calls if s else None,
        why("infomeasures.subentropy"))
    for f in ("dual_holevo_rhs", "sww_rhs", "eqx_rhs", "spectrum_identity_deviation",
              "saturation_predicates", "bound_report"):
        per_call(f"bounds.{f}", 1e6, "us")
    s = called("bounds.bound_report")
    put("bounds.bound_report.glue_us", "us", s.self_time / s.calls * 1e6 if s else None,
        why("bounds.bound_report"))
    per_call("matrixcore.sqrt_psd", 1e6, "us")

    rng_s, state_s = called("haarmc.trial_rng"), called("haarmc.haar_state")
    put("haarmc.draw.us", "us",
        (rng_s.total + state_s.total) / state_s.calls * 1e6 if rng_s and state_s else None,
        why("haarmc.haar_state" if rng_s else "haarmc.trial_rng"))
    rate("haarmc.uniform_ensemble_info_mc", "haarmc.uniform_ensemble_info_mc.trials_per_s",
         "trials/s")
    rate("haarmc.distorted_moments_mc", "haarmc.distorted_moments_mc.trials_per_s",
         "trials/s")
    per_call("haarmc.uniform_ensemble_info_exact", 1e3, "ms")
    mc_jobs = [r for r in traced if r["cfg"].name in campaigns.MC_SCENARIOS and r["report"]]
    put("haarmc.retries", "count",
        sum(campaigns.retries(r["report"]) for r in mc_jobs) if mc_jobs else None,
        f"no Monte Carlo jobs on workload {workload}")
    put("haarmc.threads2_over_1", "ratio", *probe)
    if probe[0] is not None and probe[1]:
        absent["haarmc.threads2_over_1"] = probe[1]

    rate("accinfo.maximize_mutual_info", "accinfo.maximize_mutual_info.evals_per_s", "evals/s")
    per_call("accinfo.two_state_reference", 1e3, "ms")
    oracle = called("accinfo.two_state_reference")
    two_state_s = sum(r["latency"] for r in traced if r["cfg"].name == "two-state-accinfo")
    put("accinfo.oracle_share", "ratio",
        oracle.total / two_state_s if oracle and two_state_s else None,
        why("accinfo.two_state_reference"))

    s = called("scenarios.emit_report")
    records = sum(len(r["report"]["records"]) for r in traced if r["report"])
    put("scenarios.emit_report.us_per_record", "us/record",
        s.total / records * 1e6 if s and records else None, why("scenarios.emit_report"))

    put("setup.import_s", "s", statistics.median(p["import_s"] for p in setups), None)
    put("setup.warmup_s", "s", statistics.median(p["warmup_s"] for p in setups), None)

    plain_sum, traced_sum = summarize(plain), summarize(traced)
    for layer, secs in layer_self.items():
        put(f"{layer}.self_us_per_item", "us/item",
            secs / traced_sum["items"] * 1e6 if secs > 0 else None,
            f"no {layer} entry point called on workload {workload}")
    u_rate = plain_sum["items"] / plain_sum["busy_s"]
    t_rate = traced_sum["items"] / traced_sum["busy_s"]
    put("trace.untraced_items_per_s", "items/s", u_rate, None)
    put("trace.traced_items_per_s", "items/s", t_rate, None)
    put("trace.overhead_items_per_s", "items/s", u_rate - t_rate, None)
    put("trace.overhead_share", "ratio", (u_rate - t_rate) / u_rate, None)
    return metrics, absent


def write_spans(tracer, workload, seed):
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "columns": ["name", "start_s", "end_s", "parent"],
                   "spans": [s for s in tracer.spans if s is not None]}, fh)
    return path


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread: OpenBLAS would otherwise start a pool that spins on the
    # second core around every tiny eigvalsh. Set before numpy is imported
    # here or in the set-up probes; a value the caller set is kept.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = os.path.abspath("src")
    try:
        if not os.path.isfile(os.path.join(src, "qbound", "__init__.py")):
            raise Refused("no qbound source tree at ./src; run from the repository root")
        if "QBOUND_THREADS" in os.environ:
            raise Refused("QBOUND_THREADS is set; the benchmark measures the default")
        if args.seconds <= 0:
            raise Refused("--seconds must be positive")
        setups = probe_setups(args.workload, src)
    except Refused as exc:
        print(f"qbench: refused: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, src)
    import qbound as qb
    import campaigns
    try:
        check_origin(qb.__file__, src)
    except Refused as exc:
        print(f"qbench: refused: {exc}", file=sys.stderr)
        return 2
    qb.emit_report(qb.run_scenario(campaigns.warmup_job(args.workload)))

    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    if args.trace:
        plain, traced, tracer, layer_self, probe = traced_run(
            qb, campaigns, args.workload, args.seed)
        metrics, absent = per_layer(campaigns, args.workload, plain, traced, tracer,
                                    layer_self, probe, setups)
        print(f"# spans written to {write_spans(tracer, args.workload, args.seed)}")
        results = plain + traced
        for name, reason in sorted(absent.items()):
            print(f"# absent {name}: {reason}")
        # The result line's keys are fixed, so the absent names go on the
        # line before it, as JSON, for comparisons to skip.
        print("# absent-json " + json.dumps(sorted(absent)))
    else:
        results = timed_run(qb, campaigns, args.workload, args.seed, args.seconds)
        metrics, notes = end_to_end(results, setups)
        print("# notes " + json.dumps(notes, sort_keys=True))
    correct, failed, lines = gate(results)
    if args.trace and probe[0] is not None and probe[1]:
        correct = False
        lines.append(f"thread probe: {probe[1]}")
    for line in lines:
        print(f"# failed {line}")
    if not args.trace:
        metrics_shown = {**metrics, "items_per_s": (notes["items_per_s"], "items/s"),
                         "job_p50_ms": (notes["job_p50_ms"], "ms"),
                         "job_tail_ms": (notes["job_tail_ms"], "ms"),
                         "failed_frac": (notes["failed_frac"], "ratio")}
    else:
        metrics_shown = metrics
    for name, (value, unit) in metrics_shown.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    emit(correct, len(results), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
