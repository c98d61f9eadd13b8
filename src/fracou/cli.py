"""Command-line front end: simulate, estimate, theory, mc subcommands.

Exit codes: 0 success, 1 runtime failure, 2 invalid usage/configuration.
All randomness flows from explicit seeds; nothing is seeded from the clock.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import fou, lse, montecarlo, theory
from .errors import DomainError
from .fbm import RngSeed
from .fou import ModelParams, SamplingScheme

#: Python types of each JSON type an mc config may hold (a bool is no number)
_JSON_TYPES = {
    "a number": (int, float),
    "an integer": int,
    "a string": str,
    "a list": list,
    "an object": dict,
}
#: mc config key -> (JSON type, required); a null value counts as absent
_MC_KEYS = {
    "theta": ("a number", True),
    "hurst": ("a number", True),
    "x0": ("a number", False),
    "replications": ("an integer", True),
    "seed": ("an integer", True),
    "stream": ("an integer", False),
    "ef2_mode": ("a string", False),
    "eta": ("a number", False),
    "dlt": ("a number", False),
    "oversample": ("an integer", False),
    "gamma": ("a number", False),
    "n_list": ("a list", False),
    "schedule": ("a list", False),
    "out_json": ("a string", False),
    "out_csv": ("a string", False),
}
#: keys of one `schedule` entry, all required (null counts as missing)
_SCHEDULE_KEYS = {"n": "an integer", "delta": "a number"}
#: TheoryConstants fields printed by `fracou theory`, next to `budget`
_THEORY_FIELDS = (
    "alpha_n",
    "alpha_limit_rate",
    "a_theta_h",
    "ef2",
    "ef2_source",
    "lambda_n",
    "sigma_h2",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracou",
        description="Fractional Ornstein-Uhlenbeck simulation and LSE verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one observed path to CSV")
    _add_model_flags(sim)
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="LSE from a path CSV, JSON to stdout")
    est.add_argument("--in", dest="infile", required=True, help="path CSV from simulate")
    est.set_defaults(func=cmd_estimate)

    theo = sub.add_parser("theory", help="closed-form constants and bound budget")
    _add_model_flags(theo)
    theo.add_argument("--ef2", choices=theory.EF2_MODES, default="asymptotic")
    theo.add_argument("--eta", type=float)
    theo.add_argument("--dlt", type=float)
    theo.set_defaults(func=cmd_theory)

    mc = sub.add_parser("mc", help="Monte Carlo study from a JSON config")
    mc.add_argument("config", help="JSON run configuration")
    mc.add_argument("--threads", type=int, default=None)
    mc.set_defaults(func=cmd_mc)
    return parser


def _add_model_flags(p):
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--delta", type=float)
    grid.add_argument("--gamma", type=float)


def _scheme_from_args(args) -> SamplingScheme:
    if args.delta is not None:
        return SamplingScheme(n=args.n, delta=args.delta)
    return SamplingScheme.from_gamma(args.n, args.gamma)


def cmd_simulate(args) -> int:
    """Draw one path and write it as CSV to --out ('-' for stdout).  The file
    is opened before the draw and removed if the draw or the write fails."""
    params = ModelParams(theta=args.theta, hurst=args.hurst, x0=args.x0)
    if params.hurst >= 0.75:
        print(
            "warning: H >= 3/4 is outside the Berry-Esseen range; "
            "theory/mc outputs are unavailable for this path",
            file=sys.stderr,
        )
    scheme = _scheme_from_args(args)
    seed = RngSeed(args.seed, args.stream)
    if args.out == "-":
        fou.write_path_csv(fou.simulate_path(params, scheme, seed), sys.stdout)
        return 0
    # opened before the draw, so an unwritable --out fails before it
    fh = fou.open_path_csv(args.out, "w")
    try:
        with fh:
            fou.write_path_csv(fou.simulate_path(params, scheme, seed), fh)
    except BaseException:
        os.remove(args.out)
        raise
    return 0


def cmd_estimate(args) -> int:
    """Print the LSE of a path CSV as JSON.  For a path whose estimator sums
    leave the float range, numerator and denominator are the sums of the
    power-of-two rescaled path (see `lse.estimate_series`): always finite."""
    x, delta = fou.read_path_csv(args.infile)
    result = lse.estimate_series(x, delta)
    print(json.dumps(dataclasses.asdict(result), sort_keys=True))
    return 0


def cmd_theory(args) -> int:
    params = ModelParams(theta=args.theta, hurst=args.hurst)
    theory.check_design(params.hurst, args.gamma, args.eta, args.dlt, args.ef2)
    scheme = _scheme_from_args(args)
    consts = theory.constants(params, scheme, ef2_mode=args.ef2)
    if args.eta is not None:
        budget_obj = theory.bound_budget(scheme, params, args.eta, args.dlt)
        budget = dict(budget_obj.terms(), total=budget_obj.total, constant_c=1,
                      note="rate-only: theorem constant c unknown")
    else:
        budget = None
    doc = {name: getattr(consts, name) for name in _THEORY_FIELDS}
    print(json.dumps(dict(doc, budget=budget), sort_keys=True))
    return 0


def _check_type(what: str, value, kind: str) -> None:
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise DomainError(f"{what} must be {kind}, got {json.dumps(value)}")


def _load_mc_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except IsADirectoryError as exc:
        raise DomainError(f"mc config {path!r} is a directory") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"mc config is not UTF-8 text: {exc.reason}") from exc
    _check_type("mc config", doc, "an object")
    doc = {key: value for key, value in doc.items() if value is not None}
    unknown = set(doc) - set(_MC_KEYS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    missing = {key for key, (_, required) in _MC_KEYS.items() if required} - set(doc)
    if missing:
        raise DomainError(f"missing config keys: {sorted(missing)}")
    for key, value in doc.items():
        _check_type(f"config key {key!r}", value, _MC_KEYS[key][0])
    params = ModelParams(
        theta=doc["theta"], hurst=doc["hurst"], x0=doc.get("x0", 0.0)
    )
    if "oversample" in doc:
        print(
            "note: config key 'oversample' no longer changes paths "
            "(paths are drawn exactly on the observation grid)",
            file=sys.stderr,
        )
    gamma = doc.get("gamma")
    if "schedule" in doc:
        if gamma is not None or "n_list" in doc:
            raise DomainError("give either 'schedule' or ('n_list' and 'gamma'), not both")
        schedule = []
        for entry in doc["schedule"]:
            _check_type("a schedule entry", entry, "an object")
            extra = set(entry) - set(_SCHEDULE_KEYS)
            if extra:
                raise DomainError(f"unknown schedule keys: {sorted(extra)}")
            for key, kind in _SCHEDULE_KEYS.items():
                what = f"{key!r} of schedule entry {json.dumps(entry)}"
                _check_type(what, entry.get(key), kind)
            schedule.append(SamplingScheme(n=entry["n"], delta=entry["delta"]))
    elif "n_list" in doc and gamma is not None:
        for n in doc["n_list"]:
            _check_type("an 'n_list' entry", n, "an integer")
        schedule = [SamplingScheme.from_gamma(n, gamma) for n in doc["n_list"]]
    else:
        raise DomainError("config needs 'schedule' or both 'n_list' and 'gamma'")
    config = montecarlo.McConfig(
        params=params,
        schedule=schedule,
        replications=doc["replications"],
        base_seed=RngSeed(doc["seed"], doc.get("stream", 0)),
        ef2_mode=doc.get("ef2_mode", "asymptotic"),
        eta=doc.get("eta"),
        dlt=doc.get("dlt"),
        gamma=gamma,
    )
    return config, doc.get("out_json"), doc.get("out_csv")


def cmd_mc(args) -> int:
    config, out_json, out_csv = _load_mc_config(args.config)
    report = montecarlo.run(config, threads=args.threads)
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if out_json:
        with open(out_json, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if out_csv:
        with open(out_csv, "w") as fh:
            fh.write(report.to_csv())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other FracouError or unexpected failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
