from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_instance
from datamarket.baselines import opt_cost
from datamarket.cli import run_algorithm
from datamarket.datum import (
    CATALOG_CEILING,
    CatalogTooLarge,
    DatumConfig,
    LevelDependentCosts,
    _subset_delivery,
    build_subset_catalog_capped,
    datum_solve,
    datum_step1,
    datum_step2,
    lower_joint_plan,
    transformed_costs,
)
from datamarket.model import ProviderSubproblem, split_by_provider
from datamarket.numeric import MICROS
from datamarket.single_dc import SingleDcPlan, solve_single_dc
from oracles import alpha_vc_datum_solve, market_enumeration, random_market, step1_objective

F = Fraction


def test_catalog_two_dcs(instance_g):
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    assert catalog.subsets == ((0,), (1,), (0, 1))
    assert [F(row[0], MICROS) for row in catalog.beta_v] == [5, 7, 12]
    assert [F(cost, MICROS) for cost in _subset_delivery(sub, catalog, [0])] == [4, 1, 1]


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
    assert transformed_costs(catalog, sub) == (5 * MICROS,)


def test_transformed_costs_mu1_counts_delivery(instance_g):
    # A subset's score adds its delivery costs: min(5+4, 7+1, 12+1) = 8.
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    assert transformed_costs(catalog, sub, mu1=F(1), mu2=F(0)) == (8 * MICROS,)


def test_transformed_costs_mu1_zero_is_singleton_min():
    rng = random.Random(3)
    for _ in range(50):
        num_dcs = rng.randint(1, 4)
        beta = [[F(rng.randint(0, 30))] for _ in range(num_dcs)]
        inst = build_instance(beta=beta, fees=[1], demands=[1], alpha=[[0]] * num_dcs)
        (sub,) = split_by_provider(inst)
        catalog = build_subset_catalog_capped(sub, max_replicas=num_dcs)
        assert transformed_costs(catalog, sub)[0] == min(row[0] for row in beta) * MICROS


def test_step1_single_level(instance_g):
    (sub,) = split_by_provider(instance_g)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    s1 = datum_step1(sub, transformed_costs(catalog, sub))
    assert s1.open_levels == frozenset({1})
    assert s1.client_levels(sub) == (1,)
    assert [c for c, l in enumerate(s1.client_levels(sub)) if l == 1] == [0]


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
    assert datum_step2(sub, catalog, s1) == ((1, (1,)),)


def test_step2_empty_group_uses_cheapest_subset():
    # Level 1 is open but serves nobody: it goes to the cheapest subset,
    # {dc1}, while the only client's level 2 goes to {dc2} (7+1 < 5+4).
    inst = build_instance(beta=[[5, 5], [7, 7]], fees=[2, 3], demands=[2], alpha=[[4], [1]])
    (sub,) = split_by_provider(inst)
    catalog = build_subset_catalog_capped(sub, max_replicas=2)
    s1 = SingleDcPlan(frozenset({1, 2}), F(0))
    assert datum_step2(sub, catalog, s1) == ((1, (0,)), (2, (1,)))


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
        levels=(QualityLevel(quality=F(1), per_query_fee=F(9)),),
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
        chosen = dict(datum_step2(sub, catalog, s1))
        for level in s1.open_levels:
            group = [c for c, l in enumerate(s1.client_levels(sub)) if l == level]
            scores = []
            for k, subset in enumerate(catalog.subsets):
                score = catalog.beta_v[k][level - 1]
                for c in group:
                    score += min(sub.alpha[0][d][c] for d in subset)
                scores.append(score)
            k_chosen = catalog.subsets.index(chosen[level])
            assert scores[k_chosen] == min(scores)


# Execution costs with many ties, and values past 2^63.
_COSTS = st.integers(0, 3) | st.integers(2**63 - 2, 2**63 + 2) | st.just(2**70)


@st.composite
def _priced_groups(draw):
    """A level-independent subproblem, a replica cap and a client group:
    empty, every client, or a random part."""
    num_dcs = draw(st.integers(1, 5))
    num_clients = draw(st.integers(0, 6))
    rows = tuple(
        tuple(draw(_COSTS) for _ in range(num_clients)) for _ in range(num_dcs)
    )
    sub = ProviderSubproblem(
        provider_id="p",
        fees=(0,),
        dc_ids=tuple(f"dc{d}" for d in range(num_dcs)),
        beta=((0,),) * num_dcs,
        client_ids=tuple(f"c{c}" for c in range(num_clients)),
        min_levels=(1,) * num_clients,
        alpha=(rows,),
        contracting="per_query",
    )
    kind = draw(st.sampled_from(["empty", "every", "part"]))
    if kind == "empty":
        group = []
    elif kind == "every":
        group = list(range(num_clients))
    else:
        group = [c for c in range(num_clients) if draw(st.booleans())]
    return sub, draw(st.integers(1, num_dcs)), group


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_priced_groups())
def test_subset_delivery_matches_brute_force(case):
    sub, max_replicas, group = case
    catalog = build_subset_catalog_capped(sub, max_replicas)
    rows = sub.alpha[0]
    expected = [sum(min(rows[d][c] for d in v) for c in group) for v in catalog.subsets]
    assert _subset_delivery(sub, catalog, group) == expected


def test_datum_matches_the_per_client_catalog():
    # Same plans and exact breakdowns as Step 2, the mu1 transform and the
    # lowering priced from a per-client subset table.
    rng = random.Random(19)
    configs = [
        DatumConfig(max_replicas=k, mu1=mu1, mu2=F(1))
        for k in (1, 2, 3, 4)
        for mu1 in (F(0), F(1, 2))
    ]
    for i in range(400):
        bulk = i % 2 == 1
        inst = random_market(
            rng,
            max_dcs=4,
            bulk=bulk,
            level_independent_beta=bulk,
            force_top_demand=bulk,
        )
        for config in configs:
            if config.max_replicas > len(inst.data_centers):
                continue
            assert datum_solve(inst, config) == alpha_vc_datum_solve(inst, config)


def test_lowering_breaks_ties_to_the_lowest_index():
    inst = build_instance(
        beta=[[1], [1], [1]], fees=[1], demands=[1, 1], alpha=[[5, 2], [5, 2], [5, 2]]
    )
    (sub,) = split_by_provider(inst)
    s1 = SingleDcPlan(frozenset({1}), F(0))
    for subset in ((0, 2), (2, 0), (2, 1, 0), (1, 2)):
        plan = lower_joint_plan(sub, ((1, subset),), s1)
        dc = sub.dc_ids[min(subset)]
        assert {(c, d) for _, c, d, _ in plan.assignments} == {("c1", dc), ("c2", dc)}


def test_bulk_geo_buys_top_level():
    inst = build_instance(
        beta=[[3, 3], [5, 5]],
        fees=[1, 2],
        bulk_fees=[1, 2],
        demands=[1, 2],
        alpha=[[2, 2], [1, 1]],
        contracting="bulk",
    )
    plan, breakdown = datum_solve(inst)
    assert plan.purchases == frozenset({("p1", 2)})


def test_bulk_instance_g():
    inst = build_instance(
        beta=[[5], [7]], fees=[2], bulk_fees=[2], demands=[1], alpha=[[4], [1]],
        contracting="bulk",
    )
    plan, breakdown = datum_solve(inst)
    assert breakdown.total == 10
    assert ("p1", "dc2", 1) in plan.placements


def test_bulk_rejects_level_dependent_beta():
    inst = build_instance(
        beta=[[3, 9]], fees=[1, 2], bulk_fees=[1, 2], demands=[1], alpha=[[0, 0]],
        contracting="bulk",
    )
    with pytest.raises(LevelDependentCosts):
        datum_solve(inst)


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
        plan, breakdown = datum_solve(inst, DatumConfig(max_replicas=num_dcs))
        assert breakdown.total == market_enumeration(inst)


@pytest.mark.parametrize("bulk", [False, True], ids=["per-query", "bulk"])
def test_one_data_center_datum_plan_is_single_dc_plan(bulk):
    # On one data center Datum's Step 1 is the single-data-center solver and
    # Step 2 has one place to put each level, so the plans are the same.
    rng = random.Random(0x1DC + bulk)
    for _ in range(150):
        inst = random_market(
            rng,
            max_providers=3,
            max_dcs=1,
            max_levels=5,
            max_clients=10,
            bulk=bulk,
            level_independent_beta=bulk,
            force_top_demand=bulk,
        )
        assert run_algorithm(inst, "datum", DatumConfig()) == run_algorithm(
            inst, "single-dc", DatumConfig()
        )
