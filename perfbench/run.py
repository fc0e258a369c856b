"""Benchmark of the datamarket solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--heldout]

Run from the root of a checkout. The run builds its workload's instances
from `--seed` (see workloads.py), then solves each of them with every
algorithm of the workload through `datamarket.cli.run_algorithm`, round after
round, for at most `--seconds` (but at least one round). Every answer is
checked against the committed exact totals in goldens.json and against the
workload's invariants; a wrong answer or an exception is a failed operation.

`--trace 0` reports the end-to-end metrics. `--trace 1` solves every
instance twice per round, untraced and traced, alternating which pass goes
first from one instance to the next. It reports the per-layer metrics and
the tracing overhead, and writes the spans and counts to perfbench/out/.
`--heldout` runs the held-out instance seed instead of the default pool.

Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if not (SOURCE / "datamarket" / "__init__.py").is_file():
    sys.exit(f"perfbench: no datamarket source under {SOURCE}; run from a checkout")
sys.path.insert(0, str(SOURCE))

from datamarket.cli import run_algorithm  # noqa: E402
from datamarket.datum import DatumConfig  # noqa: E402

from layers import PER_LAYER, SOLVE_LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    InputDrift,
    build_instance,
    check_fingerprints,
    load_goldens,
    run_seeds,
)

# The Datum configuration `datamarket compare` uses at its default flags.
CONFIG = DatumConfig()
TRACE_DIR = Path(__file__).resolve().parent / "out"

# Bounded metrics of the untraced run; every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("datum_s", "s"),
    ("nearestdc_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Metrics of the traced run.
TRACED = PER_LAYER + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.layers_share", "ratio"),
    ("failed_ratio", "ratio"),
)


def no_span(name):
    return nullcontext()


class Tally:
    """Operations attempted and failed, with the reasons for the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)


def solve_instance(workload, seed, instance, expected, tally, tracer=None):
    """Run the workload's algorithms on one instance and check the answers.

    Returns the wall seconds of the whole set and of each algorithm that
    answered.
    """
    totals = {}
    times = {}
    wrong = {}
    for name in workload.algorithms:
        if tracer is not None:
            tracer.run_id += 1
            tracer.runs.append({"run_id": tracer.run_id, "seed": seed, "algorithm": name})
        span = tracer.span(f"run_algorithm:{name}") if tracer is not None else nullcontext()
        # Each solve starts from the same collector state, so a collection of
        # garbage left by an earlier solve does not land in this one's time.
        gc.collect()
        t0 = perf_counter()
        try:
            with span:
                _, breakdown = run_algorithm(instance, name, CONFIG)
        except Exception as exc:  # a crash fails this operation, not the run
            wrong[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        times[name] = perf_counter() - t0
        got = breakdown.to_json()
        if got != expected[name]:
            wrong[name] = f"answered {got}, expected {expected[name]}"
        totals[name] = breakdown.total
    for relation, a, b in workload.invariants:
        if a in totals and b in totals:
            holds = totals[a] <= totals[b] if relation == "le" else totals[a] == totals[b]
            if not holds:
                for name in (a, b):
                    wrong.setdefault(name, f"breaks {a} {relation} {b}")
    tally.attempted += len(workload.algorithms)
    for name, reason in wrong.items():
        tally.fail(f"{workload.name} seed {seed} {name}: {reason}")
    return sum(times.values()), times


def run(workload, goldens, seed, seconds, trace, heldout=False):
    """One benchmark run; returns (report, tracer or None).

    The report maps every metric it measured to (value, unit) and carries
    the operation counts.
    """
    seeds = run_seeds(workload, seed, heldout)
    expected = {s: goldens[workload.name][str(s)]["totals"] for s in seeds}
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else workload.setup_repeats):
        t0 = perf_counter()
        instances = [(s, build_instance(workload, s, tracer.span if trace else no_span)) for s in seeds]
        setup_times.append(perf_counter() - t0)
    check_fingerprints(workload, instances, goldens)

    tally = Tally()
    round_means = {name: [] for name in workload.algorithms}
    round_rates = []
    untraced_total = traced_total = 0.0
    started = perf_counter()
    # Rounds go on while one more, as long as the last, still ends in time.
    while not round_rates or perf_counter() - started + round_wall <= seconds:
        round_start = perf_counter()
        round_time = 0.0
        samples = {name: [] for name in workload.algorithms}
        for i, (s, instance) in enumerate(instances):
            passes = [None] if tracer is None else [None, tracer]
            if (len(round_rates) * len(instances) + i) % 2:
                passes.reverse()
            for pass_tracer in passes:
                with pass_tracer.installed() if pass_tracer else nullcontext():
                    elapsed, times = solve_instance(
                        workload, s, instance, expected[s], tally, pass_tracer
                    )
                if pass_tracer is None:
                    round_time += elapsed
                    untraced_total += elapsed
                    for name, t in times.items():
                        samples[name].append(t)
                else:
                    traced_total += elapsed
        round_rates.append(len(instances) / round_time if round_time else 0.0)
        for name, values in samples.items():
            if values:
                round_means[name].append(statistics.fmean(values))
        round_wall = perf_counter() - round_start

    report = {
        "instances_per_s": (statistics.median(round_rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
    }
    if not trace:
        report["setup_s"] = (statistics.median(setup_times), "s")
    for name, means in round_means.items():
        report[name.replace("-", "_") + "_s"] = (statistics.median(means) if means else 0.0, "s")
    if tracer is not None:
        solve_runs = set(range(1, tracer.run_id + 1))
        solved = len(round_rates) * len(instances)
        layers = layer_metrics(tracer, {0}, solve_runs, len(instances), solved)
        units = dict(PER_LAYER)
        for name, value in layers.items():
            report[name] = (value, units.get(name, "s"))
        layer_self = sum(tracer.self_times(solve_runs)[name] for name in SOLVE_LAYERS)
        report["trace.overhead_ratio"] = ((traced_total - untraced_total) / untraced_total, "ratio")
        report["trace.layers_share"] = (layer_self / untraced_total, "ratio")
        report["trace.untraced_solve_s"] = (untraced_total, "s")
        report["trace.traced_solve_s"] = (traced_total, "s")
    return {"metrics": report, "attempted": tally.attempted, "failed": tally.failed,
            "reasons": tally.reasons, "rounds": len(round_rates), "seeds": seeds}, tracer


def result_line(report, trace: bool) -> dict:
    """The contract's last line: the end-to-end or the traced metric set."""
    names = TRACED if trace else END_TO_END
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name][0], "unit": unit} for name, unit in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true", help="run the held-out instance seed")
    args = parser.parse_args(argv)
    # An inherited budget would change how much the exhaustive search may do.
    os.environ.pop("DATUM_BUDGET", None)

    workload = WORKLOADS[args.workload]
    try:
        report, tracer = run(
            workload, load_goldens(), args.seed, args.seconds, bool(args.trace), args.heldout
        )
    except InputDrift as exc:
        print(f"perfbench: workload input drift: {exc}", file=sys.stderr)
        return 3
    for reason in report["reasons"][:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {workload.name}  instance seeds {report['seeds']}  rounds {report['rounds']}")
    for name, (value, unit) in sorted(report["metrics"].items()):
        print(f"  {name:34s} {value:14.6f} {unit}")
    if tracer is not None:
        path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": workload.name, "seed": args.seed, "runs": tracer.runs,
                            "metrics": {k: v[0] for k, v in report["metrics"].items()}})
        print(f"  trace written to {path.relative_to(ROOT)}")
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
