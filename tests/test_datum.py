from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import build_instance
from datamarket.baselines import opt_cost
from datamarket.datum import (
    CATALOG_CEILING,
    CatalogTooLarge,
    DatumConfig,
    LevelDependentCosts,
    StepOneResult,
    build_subset_catalog_capped,
    datum_solve,
    datum_solve_bulk,
    datum_step1,
    datum_step2,
    step1_objective,
    transformed_costs,
)
from datamarket.model import split_by_provider
from datamarket.single_dc import solve_single_dc
from oracles import market_enumeration

F = Fraction


def test_catalog_two_dcs(instance_g):
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    assert catalog.subsets == ((0,), (1,), (0, 1))
    assert [row[0] for row in catalog.beta_v] == [5, 7, 12]
    assert [row[0][0] for row in catalog.alpha_vc] == [4, 1, 1]


def test_catalog_singletons_only():
    inst = build_instance(beta=[[1], [2], [3]], fees=[1], demands=[1], alpha=[[0], [0], [0]])
    (sub,) = split_by_provider(inst)
    catalog = build_subset_catalog_capped(sub, max_replicas=1)
    assert len(catalog.subsets) == 3


def test_catalog_ceiling():
    # Thirteen data centers have 2^13 - 1 = 8191 nonempty subsets.
    inst = build_instance(
        beta=[[1]] * 13, fees=[1], demands=[1], alpha=[[0]] * 13
    )
    (sub,) = split_by_provider(inst)
    assert CATALOG_CEILING < 2**13 - 1
    with pytest.raises(CatalogTooLarge):
        build_subset_catalog_capped(sub, max_replicas=13)


def test_transformed_costs_conservative(instance_g):
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    tc = transformed_costs(catalog, sub)
    assert tc.beta_star == (F(5),)


def test_transformed_costs_mu1_counts_delivery(instance_g):
    # A subset's score adds its delivery costs: min(5+4, 7+1, 12+1) = 8.
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    tc = transformed_costs(catalog, sub, mu1=F(1), mu2=F(0))
    assert tc.beta_star == (F(8),)


def test_transformed_costs_mu1_zero_is_singleton_min():
    rng = random.Random(3)
    for _ in range(50):
        num_dcs = rng.randint(1, 4)
        beta = [[F(rng.randint(0, 30))] for _ in range(num_dcs)]
        inst = build_instance(beta=beta, fees=[1], demands=[1], alpha=[[0]] * num_dcs)
        (sub,) = split_by_provider(inst)
        catalog = build_subset_catalog_capped(sub, max_replicas=num_dcs)
        tc = transformed_costs(catalog, sub)
        assert tc.beta_star[0] == min(row[0] for row in beta)


def test_step1_single_level(instance_g):
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    s1 = datum_step1(sub, transformed_costs(catalog, sub))
    assert s1.open_levels == frozenset({1})
    assert s1.client_levels == (1,)
    assert s1.level_group(1) == (0,)


def test_step1_matches_single_dc_on_one_dc(instance_a, instance_b):
    for inst, opens in ((instance_a, {2}), (instance_b, {1, 2})):
        (sub,) = split_by_provider(inst)
        catalog = build_subset_catalog_capped(sub, max_replicas=1)
        s1 = datum_step1(sub, transformed_costs(catalog, sub))
        assert s1.open_levels == frozenset(opens)
        assert s1.open_levels == solve_single_dc(sub).open_levels


def test_step2_places_at_argmin(instance_g):
    # Scores: {dc1}: 5+4=9, {dc2}: 7+1=8, {dc1,dc2}: 12+1=13.
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    s1 = datum_step1(sub, transformed_costs(catalog, sub))
    jp = datum_step2(sub, catalog, s1)
    assert jp.placements == ((1, (1,)),)


def test_step2_empty_group_uses_cheapest_subset(instance_g):
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    jp = datum_step2(sub, catalog, StepOneResult(frozenset({1}), ()))
    assert jp.placements == ((1, (0,)),)


def test_datum_solve_instance_g(instance_g):
    plan, breakdown = datum_solve(instance_g)
    assert breakdown.total == 10
    assert breakdown.oper == 7 and breakdown.exec == 1 and breakdown.purch == 2
    assert market_enumeration(instance_g) == 10


def test_datum_single_dc_equals_exact_plus_exec(instance_a, instance_b):
    for inst, optimum in ((instance_a, 24), (instance_b, 19)):
        plan, breakdown = datum_solve(inst)
        # Execution costs are zero in these instances.
        assert breakdown.total == optimum


def test_datum_feasible_and_upper_bounds_optimum():
    rng = random.Random(88)
    for _ in range(60):
        num_dcs = rng.randint(1, 3)
        levels = rng.randint(1, 3)
        clients = rng.randint(1, 5)
        fees = []
        acc = F(0)
        for _ in range(levels):
            acc += F(rng.randint(1, 9))
            fees.append(acc)
        inst = build_instance(
            beta=[[F(rng.randint(0, 20)) for _ in range(levels)] for _ in range(num_dcs)],
            fees=fees,
            demands=[rng.randint(1, levels) for _ in range(clients)],
            alpha=[[F(rng.randint(0, 12)) for _ in range(clients)] for _ in range(num_dcs)],
        )
        plan, breakdown = datum_solve(inst, DatumConfig(max_replicas=min(2, num_dcs)))
        exact = market_enumeration(inst)
        assert breakdown.total >= exact
        # Step-1 objective with mu1=0 lower-bounds oper+purch of the optimum.
        opt_plan, opt_breakdown = opt_cost(inst)
        assert step1_objective(inst) <= opt_breakdown.oper + opt_breakdown.purch
        assert opt_breakdown.total == exact


def test_datum_skips_providers_without_clients(instance_g):
    # Add a second provider nobody demands: the plan must not touch it and
    # the total must match the one-provider instance.
    from datamarket.model import ExecCostModel, MarketInstance, Provider, QualityLevel

    idle = Provider(
        id="p2",
        levels=(QualityLevel(index=1, quality=F(1), per_query_fee=F(9)),),
        oper_cost=((F(1),), (F(1),)),
    )
    alpha = dict(instance_g.exec_cost.alpha)
    alpha["p2"] = tuple(tuple((F(0),) for _ in instance_g.clients) for _ in range(2))
    inst = MarketInstance(
        providers=instance_g.providers + (idle,),
        data_centers=instance_g.data_centers,
        clients=instance_g.clients,
        exec_cost=ExecCostModel(mode="explicit", level_independent=True, alpha=tuple(alpha.items())),
        contracting="per_query",
    )
    plan, breakdown = datum_solve(inst)
    assert breakdown.total == 10
    assert all(pid == "p1" for pid, *_ in plan.purchases)


def test_step2_is_optimal_given_step1():
    # For the fixed step-1 groups, the closed-form argmin must match the
    # best placement found by enumerating the catalog per level.
    rng = random.Random(17)
    for _ in range(40):
        num_dcs = rng.randint(1, 3)
        levels = rng.randint(1, 3)
        clients = rng.randint(1, 4)
        fees = []
        acc = F(0)
        for _ in range(levels):
            acc += F(rng.randint(1, 5))
            fees.append(acc)
        inst = build_instance(
            beta=[[F(rng.randint(0, 15)) for _ in range(levels)] for _ in range(num_dcs)],
            fees=fees,
            demands=[rng.randint(1, levels) for _ in range(clients)],
            alpha=[[F(rng.randint(0, 9)) for _ in range(clients)] for _ in range(num_dcs)],
        )
        (sub,) = split_by_provider(inst)
        catalog = build_subset_catalog_capped(sub, max_replicas=num_dcs)
        s1 = datum_step1(sub, transformed_costs(catalog, sub))
        jp = datum_step2(sub, catalog, s1)
        chosen = dict(jp.placements)
        for level in s1.open_levels:
            group = s1.level_group(level)
            scores = []
            for k, subset in enumerate(catalog.subsets):
                score = catalog.beta_v[k][level - 1]
                for c in group:
                    score += catalog.alpha_vc[k][c][level - 1]
                scores.append(score)
            k_chosen = catalog.subsets.index(chosen[level])
            assert scores[k_chosen] == min(scores)


def test_bulk_geo_buys_top_level():
    inst = build_instance(
        beta=[[3, 3], [5, 5]],
        fees=[1, 2],
        bulk_fees=[1, 2],
        demands=[1, 2],
        alpha=[[2, 2], [1, 1]],
        contracting="bulk",
    )
    plan, breakdown = datum_solve_bulk(inst)
    assert plan.purchases == frozenset({("p1", 2)})


def test_bulk_instance_g():
    inst = build_instance(
        beta=[[5], [7]], fees=[2], bulk_fees=[2], demands=[1], alpha=[[4], [1]],
        contracting="bulk",
    )
    plan, breakdown = datum_solve_bulk(inst)
    assert breakdown.total == 10
    assert ("p1", "dc2", 1) in plan.placements


def test_bulk_rejects_level_dependent_beta():
    inst = build_instance(
        beta=[[3, 9]], fees=[1, 2], bulk_fees=[1, 2], demands=[1], alpha=[[0, 0]],
        contracting="bulk",
    )
    with pytest.raises(LevelDependentCosts):
        datum_solve_bulk(inst)


def test_bulk_matches_exhaustive_when_top_level_demanded():
    # Level-independent costs and a top-level demander: the bulk shortcut is
    # exactly optimal when the catalog spans all subsets.
    rng = random.Random(31)
    for _ in range(40):
        num_dcs = rng.randint(1, 3)
        levels = rng.randint(1, 3)
        clients = rng.randint(1, 4)
        fees, bulk_fees, acc = [], [], F(0)
        for _ in range(levels):
            acc += F(rng.randint(1, 6))
            fees.append(acc)
            bulk_fees.append(F(rng.randint(0, 9)))
        beta_col = [F(rng.randint(0, 12)) for _ in range(num_dcs)]
        demands = [rng.randint(1, levels) for _ in range(clients)]
        demands[0] = levels
        inst = build_instance(
            beta=[[beta_col[d]] * levels for d in range(num_dcs)],
            fees=fees,
            bulk_fees=bulk_fees,
            demands=demands,
            alpha=[[F(rng.randint(0, 8)) for _ in range(clients)] for _ in range(num_dcs)],
            contracting="bulk",
        )
        plan, breakdown = datum_solve_bulk(inst, DatumConfig(max_replicas=num_dcs))
        assert breakdown.total == market_enumeration(inst)
