"""The benchmark's workloads, how their instances are built, and their goldens.

Each workload is a family of generated markets (a scenario plus a pool of
instance seeds) and the algorithm set that runs on every instance of it.
Instances go through the same path a user's file takes through
`datamarket solve`: generate, serialize to instance JSON, load with
`instance_from_json`, check with `validate_instance`. The `explicit`
workload rewrites the generator's distance model as explicit execution-cost
tensors before serializing, so loading and cost lookups take the explicit
path of `model`.

NOTES.md says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from datamarket.cli import fingerprint
from datamarket.model import exec_cost_value, instance_from_json, instance_to_json, validate_instance
from datamarket.numeric import format_money
from datamarket.scenario import ScenarioParams, generate

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# `datamarket compare` flag for each ScenarioParams field a workload sets.
FLAGS = {
    "num_data_centers": "--data-centers",
    "num_providers": "--providers",
    "num_clients": "--clients",
    "levels_per_provider": "--levels",
    "zipf_shape": "--zipf-shape",
}


class InputDrift(Exception):
    """A built instance differs from the one its fingerprint pins."""


@dataclass(frozen=True)
class Workload:
    name: str
    params: tuple[tuple[str, object], ...]  # ScenarioParams fields besides the seed
    explicit: bool  # materialize execution costs as explicit tensors
    algorithms: tuple[str, ...]
    pool: tuple[int, ...]  # default instance seeds
    heldout: int  # instance seed kept out of the default pool
    per_run: int  # instances one run draws from the pool
    setup_repeats: int  # set-ups per run; setup_s is their median
    # (relation, a, b): total(a) <= total(b) or total(a) == total(b)
    invariants: tuple[tuple[str, str, str], ...] = ()

    def compare_flags(self) -> list[str]:
        flags = []
        for field, value in self.params:
            flags += [FLAGS[field], str(value)]
        return flags

    def seeds(self) -> tuple[int, ...]:
        return self.pool + (self.heldout,)


PAPER_DEFAULT = (("num_data_centers", 10), ("num_providers", 20), ("levels_per_provider", 8))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="geo_scaleout",
            params=PAPER_DEFAULT + (("num_clients", 400),),
            explicit=False,
            algorithms=("datum", "nearestdc"),
            pool=(1, 2, 3, 4, 5, 6),
            heldout=7,
            per_run=1,
            setup_repeats=10,
        ),
        Workload(
            name="case_study_exact",
            params=(
                ("num_data_centers", 4),
                ("num_providers", 6),
                ("num_clients", 40),
                ("levels_per_provider", 4),
            ),
            explicit=False,
            algorithms=("optcost", "optband", "datum", "nearestdc"),
            pool=(1, 2, 3, 4, 5),
            heldout=6,
            per_run=5,
            setup_repeats=20,
            invariants=(
                ("le", "optcost", "datum"),
                ("le", "optcost", "optband"),
                ("le", "optcost", "nearestdc"),
            ),
        ),
        Workload(
            name="single_dc_levels",
            params=(
                ("num_data_centers", 1),
                ("num_providers", 20),
                ("num_clients", 400),
                ("levels_per_provider", 16),
                ("zipf_shape", 2.0),
            ),
            explicit=True,
            algorithms=("single-dc", "datum", "nearestdc"),
            pool=(1, 2),
            heldout=3,
            per_run=2,
            setup_repeats=3,
            invariants=(("eq", "single-dc", "datum"), ("le", "single-dc", "nearestdc")),
        ),
    )
}


def run_seeds(workload: Workload, seed: int, heldout: bool) -> list[int]:
    """The instance seeds one run uses, in the order it solves them.

    The run seed picks `per_run` instances from the default pool (all of
    them when `per_run` covers the pool) and fixes their order.
    """
    if heldout:
        return [workload.heldout]
    order = list(workload.pool)
    random.Random(seed).shuffle(order)
    return order[: workload.per_run]


def instance_document(workload: Workload, seed: int, span) -> str:
    """The instance JSON text for one seed, as `datamarket generate` would write it."""
    with span("scenario.generate"):
        instance = generate(ScenarioParams(seed=seed, **dict(workload.params)))
    doc = instance_to_json(instance)
    if workload.explicit:
        doc["exec_cost"] = {
            "mode": "explicit",
            "level_independent": True,
            "alpha": {
                p.id: [
                    [
                        [format_money(exec_cost_value(instance, p.id, d, c, 1))] * p.num_levels
                        for c in range(len(instance.clients))
                    ]
                    for d in range(len(instance.data_centers))
                ]
                for p in instance.providers
            },
        }
    return json.dumps(doc)


def load_document(text: str, span):
    """Load and validate instance JSON the way `datamarket solve` does."""
    doc = json.loads(text)
    with span("model.instance_from_json"):
        instance = instance_from_json(doc)
    with span("model.validate_instance"):
        report = validate_instance(instance)
    if not report.ok:
        raise InputDrift(f"generated instance fails validation: {report.violations[0]}")
    return instance


def build_instance(workload: Workload, seed: int, span):
    return load_document(instance_document(workload, seed, span), span)


def check_fingerprints(workload: Workload, instances, goldens: dict) -> None:
    """Fail loudly when an instance is not the one its seed pins."""
    for seed, instance in instances:
        mark = fingerprint(instance)
        pinned = goldens[workload.name][str(seed)]["fingerprint"]
        if mark != pinned:
            raise InputDrift(
                f"{workload.name} seed {seed}: instance fingerprint {mark} != pinned {pinned}"
            )


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
