"""Command-line front end.

Subcommands: generate (synthetic instances), solve (one algorithm on one
instance file), compare (algorithms x seeds, CSV), sweep (ratio-knob scan,
CSV), convert (facility-location JSON in both directions).

All money travels as 6-place decimal strings, never floats. Instance
fingerprints are content hashes of the canonicalized instance JSON (sorted
keys, fixed decimal formatting), so rows from different algorithms on the
same instance carry identical fingerprints. Compare/sweep output is
byte-deterministic for fixed flags; wall-clock timings are therefore left
empty unless --timings is passed (solve always reports real wall time).
The DATUM_BUDGET environment variable, a positive integer, overrides the
exhaustive baselines' support budget.

Errors have one boundary. A refused input or request raises a
DatamarketError, which carries its exit code: main prints its one-line
reason, and compare/sweep put it in the failing row's error column. Outside
input (instance and UFLP files, flags, scenario parameters) is read under
_refusing, which turns what malformed input raises into that base.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

from datamarket.baselines import (
    from_uflp,
    nearest_dc,
    opt_band,
    opt_cost,
    to_uflp,
    uflp_from_json,
    uflp_to_json,
)
from datamarket.datum import DatumConfig, datum_solve
from datamarket.model import (
    DatamarketError,
    MarketInstance,
    Plan,
    distance_table,
    dump_instance,
    evaluate_cost,
    instance_to_json,
    load_instance,
    plan_to_json,
    split_by_provider,
    validate_instance,
)
from datamarket.numeric import format_money, to_rational
from datamarket.scenario import SWEEP_KNOBS, ScenarioParams, generate, sweep_params
from datamarket.single_dc import lower_single_dc_plan, solve_single_dc

EXIT_OK = 0
EXIT_INVALID_INSTANCE = 2

ALGORITHMS = ("datum", "optcost", "optband", "nearestdc", "single-dc")

CSV_HEADER = "seed,algorithm,oper,exec,purch,total,runtime_ms,fingerprint,error"

# What reading missing or malformed outside input raises: an unreadable
# file, a wrong value, a wrong JSON type where a list, dict or number
# belongs, a missing key or row, a number too large for the arithmetic, or
# JSON nested too deeply for the decoder.
MALFORMED = (
    OSError,
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    IndexError,
    ArithmeticError,
    RecursionError,
)


class UnknownAlgorithm(DatamarketError):
    """An algorithm name that is not one of ALGORITHMS."""

    exit_code = 4
    template = "unknown algorithm: {}"


@contextmanager
def _refusing(prefix: str):
    """Refuse missing or malformed outside input read in the block (exit 2),
    with a reason that starts with prefix. A missing key names itself."""
    try:
        yield
    except MALFORMED as exc:
        reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise DatamarketError(f"{prefix}: {reason}") from exc


def fingerprint(instance: MarketInstance) -> str:
    canonical = json.dumps(instance_to_json(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_algorithm(instance: MarketInstance, name: str, config: DatumConfig):
    """Dispatch to a solver; returns (plan, breakdown)."""
    if name == "datum":
        return datum_solve(instance, config)
    if name == "optcost":
        return opt_cost(instance)
    if name == "optband":
        return opt_band(instance)
    if name == "nearestdc":
        return nearest_dc(instance)
    if name == "single-dc":
        if len(instance.data_centers) != 1:
            raise DatamarketError("--algorithm single-dc needs a one-data-center instance")
        distances = distance_table(instance)
        plan = Plan.union(
            lower_single_dc_plan(sub, solve_single_dc(sub))
            for sub in split_by_provider(instance, distances)
            if sub.client_ids
        )
        return plan, evaluate_cost(instance, plan, distances)
    raise UnknownAlgorithm(repr(name))


# Generator options, ScenarioParams field -> (flag, type, help), defaulting to the field's.
SCENARIO_FLAGS = {
    "num_data_centers": ("--data-centers", int, None),
    "num_providers": ("--providers", int, None),
    "num_clients": ("--clients", int, None),
    "levels_per_provider": ("--levels", int, None),
    "avg_providers_per_client": ("--avg-providers-per-client", float, None),
    "zipf_shape": ("--zipf-shape", float, None),
    "pareto_mean": ("--pareto-mean", float, None),
    "pareto_shape": ("--pareto-shape", float, None),
    "rate_per_gigameter": ("--rate", str, "cost per gigameter of distance"),
    "ratio_band_to_fee": ("--ratio-bf", float, "target log10((alpha+beta)/f)"),
    "ratio_internal_to_external": ("--ratio-ie", float, "target log10(alpha/(beta+f))"),
}


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    for field, (flag, kind, text) in SCENARIO_FLAGS.items():
        default = getattr(ScenarioParams, field)
        parser.add_argument(flag, type=kind, default=default, help=text)


def _add_datum_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-replicas", type=int, default=DatumConfig.max_replicas)
    parser.add_argument("--mu1", default=DatumConfig.mu1)
    parser.add_argument("--mu2", default=DatumConfig.mu2)


def _add_table_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", required=True, help="comma-separated seed list")
    parser.add_argument("--algorithms", default="datum,optcost,optband,nearestdc")
    parser.add_argument("--timings", action="store_true", help="fill runtime_ms (breaks byte determinism)")


def _scenario_params(args, seed: int) -> ScenarioParams:
    # argparse keeps --some-flag as args.some_flag.
    dests = {field: flag[2:].replace("-", "_") for field, (flag, _, _) in SCENARIO_FLAGS.items()}
    return ScenarioParams(seed=seed, **{field: getattr(args, d) for field, d in dests.items()})


def _datum_config(args) -> DatumConfig:
    """Datum's options from the flags; a refusal names the bad flag."""
    mu = {}
    for name in ("mu1", "mu2"):
        with _refusing(f"invalid --{name}"):
            mu[name] = to_rational(getattr(args, name))
            if mu[name] < 0:
                raise ValueError("must be nonnegative")
    if args.max_replicas < 1:
        raise DatamarketError("invalid --max-replicas: must be at least 1")
    return DatumConfig(max_replicas=args.max_replicas, **mu)


def _generate(params: ScenarioParams) -> MarketInstance:
    with _refusing("invalid scenario parameters"):
        return generate(params)


def _read_instance(path: str) -> MarketInstance:
    """Load and validate an instance file."""
    with _refusing("cannot read instance"):
        instance = load_instance(path)
    return _validated(instance)


def _validated(instance: MarketInstance) -> MarketInstance:
    """The instance, if it is valid; a refusal lists every violation, one per
    line."""
    report = validate_instance(instance)
    if not report.ok:
        raise DatamarketError("\n".join(report.violations))
    return instance


def cmd_generate(args) -> int:
    instance = _generate(_scenario_params(args, args.seed))
    dump_instance(instance, args.out)
    print(f"wrote {args.out} fingerprint={fingerprint(instance)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    _parse_algorithms(args.algorithm)  # an unknown name ends it before the flags are read
    config = _datum_config(args)
    started = time.perf_counter()
    plan, breakdown = run_algorithm(instance, args.algorithm, config)
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    cap = config.replica_cap(len(instance.data_centers))
    plan_path = args.plan_out or (args.instance.removesuffix(".json") + ".plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_json(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")
    record = {
        "seed": "-",
        "algorithm": args.algorithm,
        "config": f"max_replicas={cap},mu1={config.mu1},mu2={config.mu2}",
        **breakdown.to_json(),
        "runtime_ms": elapsed_ms,
        "fingerprint": fingerprint(instance),
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _write_table(
    header: str, runs, algorithms: list[str], config: DatumConfig, timings: bool
) -> int:
    """Solve each (row prefix, scenario) run with every algorithm; once every
    row exists, print the CSV on stdout and each algorithm's mean total over
    its solved rows on stderr."""
    rows = []
    totals: dict[str, list[Fraction]] = {}
    for prefix, params in runs:
        instance = _generate(params)
        mark = fingerprint(instance)
        for name in sorted(algorithms):
            started = time.perf_counter()
            try:
                _, cost = run_algorithm(instance, name, config)
            except DatamarketError as exc:
                reason = str(exc).replace(",", ";")
                rows.append(f"{prefix}{params.seed},{name},,,,,,{mark},{reason}")
                continue
            elapsed = str(int((time.perf_counter() - started) * 1000)) if timings else ""
            money = ",".join(cost.to_json().values())
            rows.append(f"{prefix}{params.seed},{name},{money},{elapsed},{mark},")
            totals.setdefault(name, []).append(cost.total)
    print(header)
    for row in rows:
        print(row)
    print("algorithm,mean_total,runs", file=sys.stderr)
    for name in sorted(totals):
        mean = sum(totals[name], Fraction(0)) / len(totals[name])
        print(f"{name},{format_money(mean)},{len(totals[name])}", file=sys.stderr)
    return EXIT_OK


def _parse_seeds(raw: str) -> list[int]:
    with _refusing("invalid --seeds"):
        return sorted(int(s) for s in raw.split(",") if s != "")


def _parse_algorithms(raw: str) -> list[str]:
    names = [a for a in raw.split(",") if a != ""]
    for name in names:
        if name not in ALGORITHMS:
            raise UnknownAlgorithm(repr(name))
    return names


def cmd_compare(args) -> int:
    algorithms = _parse_algorithms(args.algorithms)
    config = _datum_config(args)
    runs = [("", _scenario_params(args, seed)) for seed in _parse_seeds(args.seeds)]
    return _write_table(CSV_HEADER, runs, algorithms, config, args.timings)


def cmd_sweep(args) -> int:
    algorithms = _parse_algorithms(args.algorithms)
    config = _datum_config(args)
    with _refusing("invalid sweep"):
        points = sweep_params(
            _scenario_params(args, 0), args.knob, args.start, args.stop, args.steps
        )
    seeds = _parse_seeds(args.seeds)
    runs = [
        (f"{args.knob},{getattr(point, SWEEP_KNOBS[args.knob]):g},", replace(point, seed=seed))
        for point in points
        for seed in seeds
    ]
    return _write_table("knob,target," + CSV_HEADER, runs, algorithms, config, args.timings)


def cmd_convert(args) -> int:
    if args.to_uflp:
        if not args.instance:
            raise DatamarketError("--to-uflp needs --instance")
        instance = _read_instance(args.instance)
        doc = {
            "instances": [
                {"provider": sub.provider_id, **uflp_to_json(to_uflp(sub), dense=args.dense)}
                for sub in split_by_provider(instance)
            ]
        }
        with open(args.to_uflp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.to_uflp}")
        return EXIT_OK
    if not args.out:
        raise DatamarketError("--from-uflp needs --out")
    with _refusing("cannot read UFLP file"), open(args.from_uflp, encoding="utf-8") as fh:
        uflp = uflp_from_json(json.load(fh))
    dump_instance(_validated(from_uflp(uflp)), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datamarket",
        description="Cost optimization for geo-distributed cloud data markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic instance JSON")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    _add_scenario_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--algorithm", required=True)
    p_solve.add_argument("--plan-out", default=None)
    _add_datum_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="algorithms x seeds on generated instances, CSV")
    _add_table_flags(p_cmp)
    _add_datum_flags(p_cmp)
    _add_scenario_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="scan one ratio knob, CSV")
    p_sweep.add_argument("--knob", choices=tuple(SWEEP_KNOBS), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    _add_table_flags(p_sweep)
    _add_datum_flags(p_sweep)
    _add_scenario_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("convert", help="facility-location JSON conversion")
    group = p_conv.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-uflp", metavar="OUT")
    group.add_argument("--from-uflp", metavar="IN")
    p_conv.add_argument("--instance", help="market instance input for --to-uflp")
    p_conv.add_argument("--out", help="market instance output for --from-uflp")
    p_conv.add_argument("--dense", action="store_true", help="materialize forbidden edges as big-M")
    p_conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    """Run one command; a refused input or request, or an output path that
    cannot be written, ends it with its exit code and a reason on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DatamarketError as exc:
        print(exc.template.format(exc, algorithm=getattr(args, "algorithm", "")), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
