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
The DATUM_BUDGET environment variable overrides the exhaustive baselines'
support budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from datamarket.baselines import (
    OversizeInstance,
    from_uflp,
    nearest_dc,
    opt_band,
    opt_cost,
    to_uflp,
    uflp_from_json,
    uflp_to_json,
)
from datamarket.datum import (
    CatalogTooLarge,
    DatumConfig,
    LevelDependentCosts,
    datum_solve,
    datum_solve_bulk,
)
from datamarket.model import (
    MarketInstance,
    Plan,
    dump_instance,
    evaluate_cost,
    instance_to_json,
    load_instance,
    plan_to_json,
    split_by_provider,
    validate_instance,
)
from datamarket.numeric import format_money, quantize, to_rational
from datamarket.scenario import InvalidRatioTargets, ScenarioParams, generate, sweep_params
from datamarket.single_dc import (
    LevelDependentExecCost,
    lower_single_dc_plan,
    solve_single_dc,
    solve_single_dc_bulk,
)

EXIT_OK = 0
EXIT_INVALID_INSTANCE = 2
EXIT_OVERSIZE = 3
EXIT_UNKNOWN_ALGORITHM = 4

ALGORITHMS = ("datum", "optcost", "optband", "nearestdc", "single-dc")

CSV_HEADER = "seed,algorithm,oper,exec,purch,total,runtime_ms,fingerprint,error"
SWEEP_HEADER = "knob,target," + CSV_HEADER

# Solver errors: `solve` ends with an exit code for each, and a compare/sweep
# row carries its message in the error column.
SOLVER_ERRORS = (
    OversizeInstance, CatalogTooLarge, LevelDependentCosts, LevelDependentExecCost, ValueError
)


@dataclass(frozen=True)
class RunRecord:
    seed: str
    algorithm: str
    config: str
    oper: str
    exec: str
    purch: str
    total: str
    runtime_ms: int
    fingerprint: str

    def json_line(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def fingerprint(instance: MarketInstance) -> str:
    canonical = json.dumps(instance_to_json(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_algorithm(instance: MarketInstance, name: str, config: DatumConfig):
    """Dispatch to a solver; returns (plan, breakdown)."""
    if name == "datum":
        if instance.contracting == "bulk":
            return datum_solve_bulk(instance, config)
        return datum_solve(instance, config)
    if name == "optcost":
        return opt_cost(instance)
    if name == "optband":
        return opt_band(instance)
    if name == "nearestdc":
        return nearest_dc(instance)
    if name == "single-dc":
        if len(instance.data_centers) != 1:
            raise ValueError("--algorithm single-dc needs a one-data-center instance")
        solver = solve_single_dc_bulk if instance.contracting == "bulk" else solve_single_dc
        plan = Plan.union(
            lower_single_dc_plan(sub, solver(sub))
            for sub in split_by_provider(instance)
            if sub.client_ids
        )
        return plan, evaluate_cost(instance, plan)
    raise KeyError(name)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-centers", type=int, default=10)
    parser.add_argument("--providers", type=int, default=20)
    parser.add_argument("--clients", type=int, default=40)
    parser.add_argument("--levels", type=int, default=8)
    parser.add_argument("--avg-providers-per-client", type=float, default=None)
    parser.add_argument("--zipf-shape", type=float, default=30.0)
    parser.add_argument("--pareto-mean", type=float, default=10.0)
    parser.add_argument("--pareto-shape", type=float, default=2.0)
    parser.add_argument("--rate", default="1", help="cost per gigameter of distance")
    parser.add_argument("--ratio-bf", type=float, default=-0.5, help="target log10((alpha+beta)/f)")
    parser.add_argument("--ratio-ie", type=float, default=-1.0, help="target log10(alpha/(beta+f))")
    parser.add_argument("--max-replicas", type=int, default=2)


def _scenario_params(args, seed: int) -> ScenarioParams:
    return ScenarioParams(
        seed=seed,
        num_data_centers=args.data_centers,
        num_providers=args.providers,
        num_clients=args.clients,
        levels_per_provider=args.levels,
        avg_providers_per_client=args.avg_providers_per_client,
        zipf_shape=args.zipf_shape,
        pareto_mean=args.pareto_mean,
        pareto_shape=args.pareto_shape,
        rate_per_gigameter=args.rate,
        ratio_band_to_fee=args.ratio_bf,
        ratio_internal_to_external=args.ratio_ie,
        max_replicas=args.max_replicas,
    )


def _datum_config(args) -> DatumConfig:
    return DatumConfig(
        max_replicas=getattr(args, "max_replicas", 2),
        mu1=to_rational(getattr(args, "mu1", "0")),
        mu2=to_rational(getattr(args, "mu2", "0")),
    )


def cmd_generate(args) -> int:
    try:
        instance = generate(_scenario_params(args, args.seed))
    except (InvalidRatioTargets, ValueError) as exc:
        print(f"invalid scenario parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    dump_instance(instance, args.out)
    print(f"wrote {args.out} fingerprint={fingerprint(instance)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        instance = load_instance(args.instance)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot read instance: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    report = validate_instance(instance)
    if not report.ok:
        for violation in report.violations:
            print(violation, file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    if args.algorithm not in ALGORITHMS:
        print(f"unknown algorithm: {args.algorithm}", file=sys.stderr)
        return EXIT_UNKNOWN_ALGORITHM
    config = _datum_config(args)
    started = time.perf_counter()
    try:
        plan, breakdown = run_algorithm(instance, args.algorithm, config)
    except OversizeInstance as exc:
        print(f"instance too large for exhaustive search: {exc}", file=sys.stderr)
        return EXIT_OVERSIZE
    except CatalogTooLarge as exc:
        print(f"replica catalog too large: {exc} (lower --max-replicas)", file=sys.stderr)
        return EXIT_OVERSIZE
    except (LevelDependentCosts, LevelDependentExecCost) as exc:
        print(f"{args.algorithm} needs level-independent costs: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    plan_path = args.plan_out or (args.instance.removesuffix(".json") + ".plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_json(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")
    record = RunRecord(
        seed="-",
        algorithm=args.algorithm,
        config=f"max_replicas={config.max_replicas},mu1={config.mu1},mu2={config.mu2}",
        oper=format_money(breakdown.oper),
        exec=format_money(breakdown.exec),
        purch=format_money(breakdown.purch),
        total=format_money(breakdown.total),
        runtime_ms=elapsed_ms,
        fingerprint=fingerprint(instance),
    )
    print(record.json_line())
    return EXIT_OK


def _csv_rows_for_instance(instance, seeds_label, algorithms, config, timings):
    mark = fingerprint(instance)
    rows = []
    for name in sorted(algorithms):
        started = time.perf_counter()
        try:
            _, breakdown = run_algorithm(instance, name, config)
            elapsed = str(int((time.perf_counter() - started) * 1000)) if timings else ""
            rows.append(
                (
                    seeds_label,
                    name,
                    format_money(breakdown.oper),
                    format_money(breakdown.exec),
                    format_money(breakdown.purch),
                    format_money(breakdown.total),
                    elapsed,
                    mark,
                    "",
                    breakdown.total,
                )
            )
        except SOLVER_ERRORS as exc:
            rows.append((seeds_label, name, "", "", "", "", "", mark, str(exc).replace(",", ";"), None))
    return rows


def _parse_seeds(raw: str) -> list[int]:
    return [int(s) for s in raw.split(",") if s != ""]


def _parse_algorithms(raw: str) -> list[str]:
    names = [a for a in raw.split(",") if a != ""]
    for name in names:
        if name not in ALGORITHMS:
            raise KeyError(name)
    return names


def cmd_compare(args) -> int:
    try:
        algorithms = _parse_algorithms(args.algorithms)
    except KeyError as exc:
        print(f"unknown algorithm: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ALGORITHM
    config = _datum_config(args)
    rows = []
    for seed in sorted(_parse_seeds(args.seeds)):
        try:
            instance = generate(_scenario_params(args, seed))
        except (InvalidRatioTargets, ValueError) as exc:
            print(f"invalid scenario parameters: {exc}", file=sys.stderr)
            return EXIT_INVALID_INSTANCE
        rows.extend(
            _csv_rows_for_instance(instance, str(seed), algorithms, config, args.timings)
        )
    print(CSV_HEADER)
    for row in rows:
        print(",".join(row[:-1]))
    _print_summary(rows, file=sys.stderr)
    return EXIT_OK


def _print_summary(rows, file) -> None:
    by_algorithm: dict[str, list[Fraction]] = {}
    for row in rows:
        if row[-1] is not None:
            by_algorithm.setdefault(row[1], []).append(row[-1])
    print("algorithm,mean_total,runs", file=file)
    for name in sorted(by_algorithm):
        totals = by_algorithm[name]
        mean = sum(totals, Fraction(0)) / len(totals)
        print(f"{name},{format_money(quantize(mean))},{len(totals)}", file=file)


def cmd_sweep(args) -> int:
    try:
        algorithms = _parse_algorithms(args.algorithms)
    except KeyError as exc:
        print(f"unknown algorithm: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ALGORITHM
    config = _datum_config(args)
    base = _scenario_params(args, 0)
    try:
        points = sweep_params(base, args.knob, args.start, args.stop, args.steps)
    except (InvalidRatioTargets, ValueError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    rows = []
    for point in points:
        target = (
            point.ratio_band_to_fee
            if args.knob == "band_to_fee"
            else point.ratio_internal_to_external
        )
        for seed in sorted(_parse_seeds(args.seeds)):
            instance = generate(replace(point, seed=seed))
            for row in _csv_rows_for_instance(
                instance, str(seed), algorithms, config, args.timings
            ):
                rows.append((args.knob, f"{target:g}") + row)
    print(SWEEP_HEADER)
    for row in rows:
        print(",".join(row[:-1]))
    _print_summary([row[2:] for row in rows], file=sys.stderr)
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.to_uflp:
        try:
            instance = load_instance(args.instance)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"cannot read instance: {exc}", file=sys.stderr)
            return EXIT_INVALID_INSTANCE
        report = validate_instance(instance)
        if not report.ok:
            for violation in report.violations:
                print(violation, file=sys.stderr)
            return EXIT_INVALID_INSTANCE
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
    try:
        with open(args.from_uflp, encoding="utf-8") as fh:
            uflp = uflp_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot read UFLP file: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    dump_instance(from_uflp(uflp), args.out)
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
    p_solve.add_argument("--max-replicas", type=int, default=2)
    p_solve.add_argument("--mu1", default="0")
    p_solve.add_argument("--mu2", default="0")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="algorithms x seeds on generated instances, CSV")
    p_cmp.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_cmp.add_argument("--algorithms", default="datum,optcost,optband,nearestdc")
    p_cmp.add_argument("--mu1", default="0")
    p_cmp.add_argument("--mu2", default="0")
    p_cmp.add_argument("--timings", action="store_true", help="fill runtime_ms (breaks byte determinism)")
    _add_scenario_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="scan one ratio knob, CSV")
    p_sweep.add_argument("--knob", choices=("band_to_fee", "internal_to_external"), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--seeds", required=True)
    p_sweep.add_argument("--algorithms", default="datum,optcost,optband,nearestdc")
    p_sweep.add_argument("--mu1", default="0")
    p_sweep.add_argument("--mu2", default="0")
    p_sweep.add_argument("--timings", action="store_true")
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
    args = build_parser().parse_args(argv)
    if args.command == "convert":
        if args.to_uflp and not args.instance:
            print("--to-uflp needs --instance", file=sys.stderr)
            return EXIT_INVALID_INSTANCE
        if args.from_uflp and not args.out:
            print("--from-uflp needs --out", file=sys.stderr)
            return EXIT_INVALID_INSTANCE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
