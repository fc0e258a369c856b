"""Metamorphic tests: relabelling or rescaling a market must move every
algorithm's total in the predictable way.

- Reordering providers or clients changes no total.
- Reordering data centers changes neither the optimum nor Datum's total
  (the baselines that break ties by data-center order may differ).
- Multiplying every fee, operation cost and execution cost by an integer k
  multiplies every total by k.
- Adding a data center never raises the optimum, and raising one level's
  fee (a per-query fee kept strictly below the next level's) never lowers
  it.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from datamarket.cli import ALGORITHMS, run_algorithm
from datamarket.datum import DatumConfig
from datamarket.model import DataCenter, MarketInstance, QualityLevel, validate_instance
from oracles import random_market

CONFIG = DatumConfig()


def markets(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        yield random_market(rng, max_providers=3, max_dcs=3, max_levels=3, max_clients=5,
                            bulk=k % 4 == 3, level_independent_beta=True)


def totals(instance: MarketInstance, algorithms=ALGORITHMS) -> dict[str, Fraction]:
    usable = [a for a in algorithms if a != "single-dc" or len(instance.data_centers) == 1]
    return {a: run_algorithm(instance, a, CONFIG)[1].total for a in usable}


def permute_providers(instance, order):
    alpha = dict(instance.exec_cost.alpha)
    providers = tuple(instance.providers[i] for i in order)
    exec_cost = replace(instance.exec_cost, alpha=tuple((p.id, alpha[p.id]) for p in providers))
    return replace(instance, providers=providers, exec_cost=exec_cost)


def permute_clients(instance, order):
    alpha = tuple(
        (pid, tuple(tuple(per_dc[c] for c in order) for per_dc in tensor))
        for pid, tensor in instance.exec_cost.alpha
    )
    return replace(
        instance,
        clients=tuple(instance.clients[c] for c in order),
        exec_cost=replace(instance.exec_cost, alpha=alpha),
    )


def permute_data_centers(instance, order):
    providers = tuple(
        replace(p, oper_cost=tuple(p.oper_cost[d] for d in order)) for p in instance.providers
    )
    alpha = tuple(
        (pid, tuple(tensor[d] for d in order)) for pid, tensor in instance.exec_cost.alpha
    )
    return replace(
        instance,
        providers=providers,
        data_centers=tuple(instance.data_centers[d] for d in order),
        exec_cost=replace(instance.exec_cost, alpha=alpha),
    )


def scale_money(instance, k):
    def level(q: QualityLevel) -> QualityLevel:
        bulk = None if q.bulk_fee is None else q.bulk_fee * k
        return replace(q, per_query_fee=q.per_query_fee * k, bulk_fee=bulk)

    providers = tuple(
        replace(
            p,
            levels=tuple(map(level, p.levels)),
            oper_cost=tuple(tuple(v * k for v in row) for row in p.oper_cost),
        )
        for p in instance.providers
    )
    alpha = tuple(
        (pid, tuple(tuple(tuple(v * k for v in cell) for cell in per_dc) for per_dc in tensor))
        for pid, tensor in instance.exec_cost.alpha
    )
    return replace(
        instance, providers=providers, exec_cost=replace(instance.exec_cost, alpha=alpha)
    )


def add_data_center(instance, rng):
    """One more data center, with random operation and execution costs that
    do not vary by level, like the rest of the market."""
    providers = tuple(
        replace(p, oper_cost=p.oper_cost + ((Fraction(rng.randint(0, 12)),) * p.num_levels,))
        for p in instance.providers
    )
    levels = {p.id: p.num_levels for p in instance.providers}
    alpha = tuple(
        (pid, tensor + (tuple((Fraction(rng.randint(0, 9)),) * levels[pid] for _ in instance.clients),))
        for pid, tensor in instance.exec_cost.alpha
    )
    data_center = DataCenter(id=f"dc{len(instance.data_centers) + 1}")
    return replace(
        instance,
        providers=providers,
        data_centers=instance.data_centers + (data_center,),
        exec_cost=replace(instance.exec_cost, alpha=alpha),
    )


def raise_fee(instance, rng):
    """One level's contracted fee raised: a per-query fee to a point strictly
    between it and the next level's fee (the top level's by up to 5), a bulk
    fee by 1 to 5."""
    pi = rng.randrange(len(instance.providers))
    p = instance.providers[pi]
    k = rng.randrange(p.num_levels)
    q = p.levels[k]
    if instance.contracting == "bulk":
        q = replace(q, bulk_fee=q.bulk_fee + rng.randint(1, 5))
    else:
        ceiling = p.levels[k + 1].per_query_fee if k + 1 < p.num_levels else q.per_query_fee + 5
        step = (ceiling - q.per_query_fee) * Fraction(rng.randint(1, 9), 10)
        q = replace(q, per_query_fee=q.per_query_fee + step)
    levels = p.levels[:k] + (q,) + p.levels[k + 1:]
    providers = list(instance.providers)
    providers[pi] = replace(p, levels=levels)
    return replace(instance, providers=tuple(providers))


def shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


@pytest.mark.parametrize(
    "permute, size",
    [
        (permute_providers, lambda inst: len(inst.providers)),
        (permute_clients, lambda inst: len(inst.clients)),
    ],
    ids=["providers", "clients"],
)
def test_reordering_providers_or_clients_keeps_every_total(permute, size):
    rng = random.Random(41)
    for instance in markets(7, 40):
        order = shuffled(rng, size(instance))
        assert totals(permute(instance, order)) == totals(instance), order


def test_reordering_data_centers_keeps_optimum_and_datum():
    rng = random.Random(43)
    for instance in markets(9, 40):
        order = shuffled(rng, len(instance.data_centers))
        permuted = permute_data_centers(instance, order)
        assert totals(permuted, ("optcost", "datum")) == totals(instance, ("optcost", "datum"))


@pytest.mark.parametrize("k", [2, 7])
def test_scaling_money_by_k_scales_every_total(k):
    for instance in markets(11, 30):
        want = {a: k * total for a, total in totals(instance).items()}
        assert totals(scale_money(instance, k)) == want


def test_adding_a_data_center_never_raises_the_optimum():
    rng = random.Random(47)
    for instance in markets(13, 40):
        grown = add_data_center(instance, rng)
        assert validate_instance(grown).ok
        assert totals(grown, ("optcost",))["optcost"] <= totals(instance, ("optcost",))["optcost"]


def test_raising_a_fee_never_lowers_the_optimum():
    rng = random.Random(53)
    for instance in markets(17, 40):
        dearer = raise_fee(instance, rng)
        assert validate_instance(dearer).ok
        assert totals(dearer, ("optcost",))["optcost"] >= totals(instance, ("optcost",))["optcost"]
