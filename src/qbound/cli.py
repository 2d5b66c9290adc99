"""Command-line entry point.

Subcommands:

* ``verify``          shortcut for the bound-chain scenario
* ``scenario NAME``   run a named scenario from the registry
* ``optimize``        search for the best measurement on an ensemble
* ``haar``            check the first moment of Haar-state sampling

Reports go to stdout (or ``--out``) as JSON or CSV. The exit code is 0
iff the scenario recorded zero failures; invalid input (scenario name,
a ``--param`` key the scenario does not read or a malformed value, seed,
tolerance, trial count, ``--ensemble`` file, search budget, restarts,
outcome count or an ``--out`` path that cannot be written) prints
``error: ...``, code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scenarios import (InvalidConfigError, ScenarioConfig, UnknownScenarioError,
                        emit_report, run_scenario)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--dim", type=int, default=2, help="Hilbert-space dimension")
    sub.add_argument("--trials", type=int, default=100,
                     help="instances or Monte Carlo draws, per the scenario")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--tol", type=float, default=1e-8, help="slack tolerance")
    sub.add_argument("--units", choices=("nats", "bits"), default="nats",
                     help="unit for information quantities in the report")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     dest="fmt", help="report serialization")
    sub.add_argument("--out", default=None, help="write the report to this path")
    sub.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                     help="scenario parameter (VALUE parsed as JSON when possible)")


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidConfigError(f"--param expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbound",
        description="Verify information bounds for quantum measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the bound-chain scenario")
    _add_common(p_verify)

    p_scn = sub.add_parser("scenario", help="run a named scenario")
    p_scn.add_argument("name", help="scenario name from the registry")
    _add_common(p_scn)

    p_opt = sub.add_parser("optimize", help="maximize the index information")
    _add_common(p_opt)
    p_opt.add_argument("--ensemble", default=None,
                       help="path to an ensemble JSON file")
    p_opt.add_argument("--budget", type=int, default=4000,
                       help="objective evaluation budget")
    p_opt.add_argument("--restarts", type=int, default=4)
    p_opt.add_argument("--outcomes", type=int, default=None,
                       help="POVM outcome count (default dim^2)")

    p_haar = sub.add_parser("haar", help="Haar-state first-moment check")
    _add_common(p_haar)
    return parser


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfigError(f"cannot load {path}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _parse_params(args.param)
        if args.command == "verify":
            name = "bound-chain"
        elif args.command == "scenario":
            name = args.name
        elif args.command == "optimize":
            name = "optimize"
            params.setdefault("budget", args.budget)
            params.setdefault("restarts", args.restarts)
            if args.outcomes is not None:
                params.setdefault("outcomes", args.outcomes)
            if args.ensemble is not None:
                params["ensemble"] = _load_json(args.ensemble)
        else:
            name = "haar"
        cfg = ScenarioConfig(name=name, dim=args.dim, trials=args.trials,
                             seed=args.seed, tol=args.tol, units=args.units,
                             params=params)
        report = run_scenario(cfg)
    except (UnknownScenarioError, InvalidConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        text = emit_report(report, fmt=args.fmt, path=args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        print(text)
    else:
        print(f"{report.scenario}: {report.failures} failures "
              f"({len(report.records)} records) -> {args.out}")
    return 0 if report.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
