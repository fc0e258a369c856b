"""Per-layer tracing from outside the program.

The traced pass replaces public functions of `datamarket` with wrappers, at
the module attribute each caller looks them up under (`from x import f`
binds `f` in the importing module, so each importer is patched separately).
A wrapper records a span (name, start, end, parent, run id) in memory and
adds counts taken from the call's arguments and result. Nothing under
`src/` changes; the originals are restored when the pass ends.

A layer's self time is the time its spans cover minus the time their child
spans cover.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = 0  # 0 marks set-up spans; each solve gets its own id
        self.runs: list[dict] = []  # what each solve's run id stands for
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._open[-1] if self._open else -1, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every hooked call through a span while the block runs."""
        saved = []
        try:
            for module_name, attr, name, count in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, run_ids=None) -> Counter:
        """Self seconds per span name, over the given run ids (all by default)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run_ids is None or run in run_ids:
                totals[name] += end - start - child_time[i]
        return totals

    def write(self, path, header: dict) -> None:
        doc = {
            **header,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_times().items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


# --- counts taken at the hooked boundaries ---------------------------------


def _count_split(counts, args, subs):
    counts["model.split_by_provider.calls"] += 1
    counts["model.alpha_cells"] += sum(s.num_dcs * len(s.client_ids) * s.num_levels for s in subs)


def _count_evaluate(counts, args, breakdown):
    counts["model.evaluate_cost.calls"] += 1
    counts["model.assignments_priced"] += len(args[1].assignments)


def _count_catalog(counts, args, catalog):
    counts["datum.catalog_subsets"] += len(catalog.subsets)


def _count_step1(counts, args, s1):
    counts["datum.levels_bought"] += len(s1.open_levels)


def _count_program(counts, args, plan):
    counts["single_dc.programs"] += 1
    counts["single_dc.categories"] += sum(1 for n in args[2] if n > 0)


def _count_fractional(counts, args, plan):
    counts["single_dc.fractional"] += 1


def _count_lp(counts, args, solution):
    lp = args[0]
    counts["lp.calls"] += 1
    counts["lp.vars"] += len(lp.objective)
    counts["lp.rows"] += len(lp.rows)


def _count_search(counts, args, result):
    instance = args[0]
    demanded = {pid for c in instance.clients for pid, _ in c.demands}
    counts["baselines.supports_log2"] += sum(
        len(instance.data_centers) * p.num_levels for p in instance.providers if p.id in demanded
    )


# (module, attribute, span name, count). Each function is hooked under every
# name its callers use on the benchmark's paths.
HOOKS = (
    ("datamarket.cli", "split_by_provider", "model.split_by_provider", _count_split),
    ("datamarket.datum", "split_by_provider", "model.split_by_provider", _count_split),
    ("datamarket.baselines", "split_by_provider", "model.split_by_provider", _count_split),
    ("datamarket.cli", "evaluate_cost", "model.evaluate_cost", _count_evaluate),
    ("datamarket.datum", "evaluate_cost", "model.evaluate_cost", _count_evaluate),
    ("datamarket.baselines", "evaluate_cost", "model.evaluate_cost", _count_evaluate),
    ("datamarket.datum", "build_subset_catalog_capped", "datum.catalog", _count_catalog),
    ("datamarket.datum", "transformed_costs", "datum.transformed_costs", None),
    ("datamarket.datum", "datum_step1", "datum.step1", _count_step1),
    ("datamarket.datum", "datum_step2", "datum.step2", None),
    ("datamarket.datum", "lower_joint_plan", "datum.lower", None),
    ("datamarket.datum", "_solve_categories", "single_dc.solve", _count_program),
    ("datamarket.cli", "solve_single_dc", "single_dc.solve", None),
    ("datamarket.single_dc", "_solve_categories", "single_dc.solve", _count_program),
    ("datamarket.single_dc", "solve_from_fractional", "single_dc.solve", _count_fractional),
    ("datamarket.single_dc", "lp_solve", "lp.solve", _count_lp),
    ("datamarket.cli", "opt_cost", "baselines.search", _count_search),
    ("datamarket.cli", "opt_band", "baselines.search", _count_search),
    ("datamarket.cli", "nearest_dc", "baselines.nearest_dc", None),
)

# Span names of the setup layers; their times are per instance built.
SETUP_LAYERS = ("scenario.generate", "model.instance_from_json", "model.validate_instance")
# Span names of the solve layers; their times are per instance solved.
SOLVE_LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in HOOKS))

# Per-layer metrics, each per instance solved (set-up layers: per instance
# built), with their units.
PER_LAYER = (
    ("scenario.generate_s", "s"),
    ("model.instance_from_json_s", "s"),
    ("model.validate_instance_s", "s"),
    ("model.split_by_provider_s", "s"),
    ("model.split_by_provider.calls", "count"),
    ("model.alpha_cells", "count"),
    ("model.evaluate_cost_s", "s"),
    ("model.evaluate_cost.calls", "count"),
    ("model.assignments_priced", "count"),
    ("datum.catalog_s", "s"),
    ("datum.catalog_subsets", "count"),
    ("datum.transformed_costs_s", "s"),
    ("datum.step1_s", "s"),
    ("datum.levels_bought", "count"),
    ("datum.step2_s", "s"),
    ("datum.lower_s", "s"),
    ("single_dc.solve_s", "s"),
    ("single_dc.categories", "count"),
    ("single_dc.fractional_ratio", "ratio"),
    ("lp.solve_s", "s"),
    ("lp.calls", "count"),
    ("lp.vars", "count"),
    ("lp.rows", "count"),
    ("baselines.self_s", "s"),
    ("baselines.nearest_dc_self_s", "s"),
    ("baselines.supports_log2", "count"),
)


def layer_metrics(tracer: Tracer, setup_runs, solve_runs, built: int, solved: int) -> dict:
    """Per-instance layer metrics from a traced pass.

    `setup_runs` and `solve_runs` are the run ids of the set-up and solve
    spans; `built` and `solved` the instances each covered.
    """
    setup = tracer.self_times(setup_runs)
    solve = tracer.self_times(solve_runs)
    counts = tracer.counts
    values = {f"{name}_s": setup[name] / built for name in SETUP_LAYERS}
    values.update({f"{name}_s": solve[name] / solved for name in SOLVE_LAYERS})
    values["baselines.nearest_dc_self_s"] = values.pop("baselines.nearest_dc_s")
    values["baselines.self_s"] = values["baselines.search_s"] + values["baselines.nearest_dc_self_s"]
    for name, unit in PER_LAYER:
        if unit == "count":
            values[name] = counts[name] / solved
    programs = counts["single_dc.programs"]
    values["single_dc.fractional_ratio"] = counts["single_dc.fractional"] / programs if programs else 0.0
    return values
