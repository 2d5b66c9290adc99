"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 qbench/repeat.py --workloads chain,haar-mc --seeds 1-10 \
        --seconds 20 [--trace 1] [--out qbench/results/NAME.json]

For every workload and metric, and every number on the ``# notes`` line,
it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance
between the quartiles as a share of the median, the statistic the
benchmark's bounds in BENCHMARK.json are checked against. Runs are made
one after another from the current directory, which must be the root of
a qbound source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=600, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["comments"] = [ln for ln in lines[:-1] if ln.startswith("#")]
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="chain,haar-mc,accinfo,corollary")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    summary = {"seeds": seed_list(args.seeds), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            res = run_once(workload, seed, args.seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()
                             if not args.trace),
                  flush=True)
        names = list(runs[0]["metrics"])
        stats = {k: dict(spread([r["metrics"][k]["value"] for r in runs]),
                         unit=runs[0]["metrics"][k]["unit"]) for k in names}
        notes = [json.loads(c[len("# notes "):]) for r in runs for c in r["comments"]
                 if c.startswith("# notes ")]
        note_stats = {k: spread([n[k] for n in notes]) for k in (notes[0] if notes else {})
                      if isinstance(notes[0][k], (int, float))}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": stats,
            "notes": note_stats,
            "machine": runs[0]["comments"][0],
            "failures": [c for r in runs for c in r["comments"] if c.startswith("# failed")],
        }
        for k, st in {**stats, **note_stats}.items():
            sp = "n/a" if st["spread"] is None else f"{st['spread']:.4f}"
            print(f"  {workload:<10} {k:<46} median {st['median']:<12.6g} "
                  f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} spread {sp}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
