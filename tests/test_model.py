from __future__ import annotations

import json
import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_instance
from datamarket import model
from datamarket.cli import ALGORITHMS, run_algorithm
from datamarket.datum import DatumConfig
from datamarket.model import (
    Client,
    DataCenter,
    ExecCostModel,
    InfeasiblePlan,
    MarketInstance,
    Plan,
    Provider,
    QualityLevel,
    UnsatisfiableDemand,
    check_plan,
    distance_table,
    evaluate_cost,
    exec_cost_value,
    instance_from_json,
    instance_to_json,
    min_level_index,
    plan_to_json,
    split_by_provider,
    validate_instance,
)
from datamarket.numeric import (
    MAX_INTEGER_DIGITS,
    MICROS,
    distance_grid,
    format_money,
    quantize,
    to_micros,
    to_rational,
)
from datamarket.scenario import InvalidRatioTargets, ScenarioParams, generate
from oracles import (
    check_plan_oracle,
    distance_cost,
    distance_cost_oracle,
    distance_micros,
    empty_plan,
    evaluate_cost_oracle,
    haversine_gigameters,
    market_enumeration,
    min_level_scan,
    plan_from_json,
    random_market,
    served_level,
)

F = Fraction


def test_validate_well_formed(instance_a, instance_b, instance_g):
    for inst in (instance_a, instance_b, instance_g):
        assert validate_instance(inst).ok


def test_validate_unsatisfiable_demand():
    inst = build_instance(beta=[[1]], fees=[1], demands=[5], alpha=[[0]])
    report = validate_instance(inst)
    assert not report.ok
    assert any("unsatisfiable demand" in v for v in report.violations)


def test_validate_fee_monotonicity():
    inst = build_instance(beta=[[1, 1]], fees=[3, 1], demands=[1], alpha=[[0, 0]])
    report = validate_instance(inst)
    assert any("fees not strictly increasing" in v for v in report.violations)


def test_validate_dimension_mismatch():
    inst = build_instance(beta=[[1, 2], [3, 4]], fees=[1, 2], demands=[1], alpha=[[0], [0]])
    # Drop a data center from the exec tensor only.
    broken = type(inst)(
        providers=inst.providers,
        data_centers=inst.data_centers[:1],
        clients=inst.clients,
        exec_cost=inst.exec_cost,
        contracting=inst.contracting,
    )
    report = validate_instance(broken)
    assert not report.ok


def test_validate_refuses_a_tensor_for_an_unknown_provider():
    inst = build_instance(beta=[[3, 4]], fees=[1, 2], demands=[1], alpha=[[[4, 4]]])
    extra = (("p9", (((F(1), F(1)),),)),)
    inst = replace(inst, exec_cost=replace(inst.exec_cost, alpha=inst.exec_cost.alpha + extra))
    assert validate_instance(inst).violations == (
        "exec model: alpha tensor for unknown provider p9",
    )


def _with_levels(inst, *levels):
    (p1,) = inst.providers
    return replace(inst, providers=(replace(p1, levels=levels),))


def _geo(inst, rate=F(1), dc_location=(0.0, 0.0)):
    """inst with distance execution costs at the given rate, its data
    centers at dc_location and its clients at (1, 1)."""
    return replace(
        inst,
        data_centers=tuple(replace(d, location=dc_location) for d in inst.data_centers),
        clients=tuple(replace(c, location=(1.0, 1.0)) for c in inst.clients),
        exec_cost=ExecCostModel(mode="distance", rate_per_gigameter=rate),
    )


TWO_LEVELS = dict(beta=[[1, 1]], fees=[1, 2], demands=[1], alpha=[[[0, 0]]])

REFUSED = [
    pytest.param(
        lambda inst: _with_levels(inst), "provider p1: empty level menu", id="empty-menu"
    ),
    pytest.param(
        lambda inst: _with_levels(
            inst, replace(inst.providers[0].levels[0], index=2), inst.providers[0].levels[1]
        ),
        "provider p1: level index 2 at position 1",
        id="level-index",
    ),
    pytest.param(
        lambda inst: build_instance(**{**TWO_LEVELS, "fees": [-1, 2]}),
        "provider p1 level 1: negative fee",
        id="negative-fee",
    ),
    pytest.param(
        lambda inst: build_instance(**TWO_LEVELS, bulk_fees=[1, -2]),
        "provider p1 level 2: negative bulk fee",
        id="negative-bulk-fee",
    ),
    pytest.param(
        lambda inst: replace(inst, contracting="bulk"),
        "provider p1: bulk contracting but missing bulk fees",
        id="bulk-without-bulk-fees",
    ),
    pytest.param(
        lambda inst: _geo(inst, rate=None),
        "distance exec model: missing rate_per_gigameter",
        id="missing-rate",
    ),
    pytest.param(
        lambda inst: _geo(inst, rate=F(-1)),
        "distance exec model: negative rate",
        id="negative-rate",
    ),
    pytest.param(
        lambda inst: _geo(inst, dc_location=None),
        "distance exec model: data center dc1 has no location",
        id="data-center-without-location",
    ),
    pytest.param(
        lambda inst: replace(inst, exec_cost=replace(inst.exec_cost, mode="table")),
        "unknown exec cost mode: table",
        id="unknown-exec-mode",
    ),
]


@pytest.mark.parametrize("mutate, violation", REFUSED)
def test_validate_names_each_refusal(mutate, violation):
    inst = build_instance(**TWO_LEVELS)
    assert validate_instance(inst).ok
    assert violation in validate_instance(mutate(inst)).violations


@pytest.mark.parametrize(
    "ceiling, mutate, violation",
    [
        (
            "MAX_CLIENT_PROVIDER_PAIRS",
            lambda inst: inst,
            "clients * providers is 2, more than 1",
        ),
        (
            "MAX_DISTANCE_CELLS",
            _geo,
            "distance exec model: data_centers * clients is 2, more than 1",
        ),
        ("MAX_LEVELS", lambda inst: inst, "provider p1: 2 levels, more than 1"),
    ],
    ids=["client-provider-pairs", "distance-cells", "levels"],
)
def test_validate_refuses_sizes_past_the_ceilings(monkeypatch, ceiling, mutate, violation):
    # Two clients of one provider on one data center, two levels; each
    # ceiling is lowered so that no test builds an instance at the real one.
    inst = mutate(build_instance(beta=[[1, 1]], fees=[1, 2], demands=[1, 2], alpha=[[0, 0]]))
    assert validate_instance(inst).ok
    monkeypatch.setattr(model, ceiling, 1)
    assert validate_instance(inst).violations == (violation,)


def test_split_decides_level_independence_per_provider():
    # Unflagged tensors: p1's costs do not vary with the level, p2's do at
    # its second client.
    flagged = build_instance(beta=[[3, 4]], fees=[1, 2], demands=[1, 2], alpha=[[[4, 4], [1, 1]]])
    ((_, uniform),) = flagged.exec_cost.alpha
    varying = (((F(4), F(4)), (F(1), F(2))),)
    inst = replace(
        flagged,
        providers=flagged.providers + (replace(flagged.providers[0], id="p2"),),
        clients=tuple(
            replace(c, demands=c.demands + (("p2", c.demands[0][1]),)) for c in flagged.clients
        ),
        exec_cost=ExecCostModel(
            mode="explicit", level_independent=False, alpha=(("p1", uniform), ("p2", varying))
        ),
    )
    assert validate_instance(inst).ok
    p1, p2 = split_by_provider(inst)
    assert p1 == split_by_provider(flagged)[0]
    assert p1.level_independent and p1.alpha[1] is p1.alpha[0]
    assert not p2.level_independent
    assert p2.alpha == (((4_000_000, 1_000_000),), ((4_000_000, 2_000_000),))


def test_split_reads_level_independence_from_the_members_cells():
    # Unflagged, three levels: p1's costs vary only at c0, who demands p2
    # alone, so p1 is as level-independent as the flagged uniform tensor.
    uniform = build_instance(
        beta=[[3, 4, 5]], fees=[1, 2, 3], demands=[1, 2], alpha=[[[7, 7, 7], [1, 1, 1]]]
    )
    ((_, cells),) = uniform.exec_cost.alpha
    varying = (((F(9), F(8), F(7)),) + cells[0],)
    c0 = Client(id="c0", demands=(("p2", F(1)),))
    p2 = replace(uniform.providers[0], id="p2")
    inst = replace(
        uniform,
        providers=uniform.providers + (p2,),
        clients=(c0,) + uniform.clients,
        exec_cost=ExecCostModel(
            mode="explicit", level_independent=False, alpha=(("p1", varying), ("p2", varying))
        ),
    )
    assert validate_instance(inst).ok
    p1, p2 = split_by_provider(inst)
    assert p1 == split_by_provider(uniform)[0]
    assert p1.level_independent and all(table is p1.alpha[0] for table in p1.alpha)
    assert not p2.level_independent
    assert p2.alpha == tuple(((micros,),) for micros in (9_000_000, 8_000_000, 7_000_000))


def test_split_resolves_min_levels():
    inst = build_instance(
        beta=[[1, 1]], fees=[1, 2], qualities=["1", "2"], demands=["1.5"], alpha=[[0, 0]]
    )
    (sub,) = split_by_provider(inst)
    assert sub.min_levels == (2,)


def test_split_unsatisfiable():
    provider = build_instance(beta=[[1]], fees=[1], demands=[1], alpha=[[0]]).providers[0]
    with pytest.raises(UnsatisfiableDemand):
        min_level_index(provider, F(2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    qualities=st.lists(
        st.fractions(min_value=F(1, 1000), max_value=100, max_denominator=1000),
        min_size=1, max_size=10, unique=True,
    ).map(sorted)
)
def test_min_level_index_matches_linear_scan(qualities):
    provider = Provider(
        id="p1",
        levels=tuple(
            QualityLevel(index=k + 1, quality=q, per_query_fee=F(k)) for k, q in enumerate(qualities)
        ),
        oper_cost=((F(0),) * len(qualities),),
    )
    below = [F(0), *qualities[:-1]]
    between = [(a + b) / 2 for a, b in zip(below, qualities)]
    for demand in (*qualities, *between):
        assert min_level_index(provider, demand) == min_level_scan(provider, demand)
    above = qualities[-1] + F(1, 1000)
    with pytest.raises(UnsatisfiableDemand) as fast:
        min_level_index(provider, above)
    with pytest.raises(UnsatisfiableDemand) as scan:
        min_level_scan(provider, above)
    assert str(fast.value) == str(scan.value)


def test_split_empty_provider(instance_g):
    (sub,) = split_by_provider(instance_g)
    assert sub.client_ids == ("c1",)
    assert sub.min_levels == (1,)


def test_split_preserves_optimum():
    # Sum of per-provider exhaustive optima equals the joint exhaustive
    # optimum on random two-provider instances.
    from datamarket.model import Client, ExecCostModel, MarketInstance, Provider, QualityLevel

    rng = random.Random(42)
    for _ in range(30):
        num_dcs = rng.randint(1, 2)
        providers = []
        alpha_entries = []
        for pid in ("p1", "p2"):
            levels = rng.randint(1, 2)
            fees, acc = [], F(0)
            for _ in range(levels):
                acc += F(rng.randint(1, 5))
                fees.append(acc)
            providers.append(
                Provider(
                    id=pid,
                    levels=tuple(
                        QualityLevel(index=k + 1, quality=F(k + 1), per_query_fee=fees[k])
                        for k in range(levels)
                    ),
                    oper_cost=tuple(
                        tuple(F(rng.randint(0, 9)) for _ in range(levels))
                        for _ in range(num_dcs)
                    ),
                )
            )
        clients = []
        for ci in range(rng.randint(1, 4)):
            demands = []
            for p in providers:
                if rng.random() < 0.7:
                    demands.append((p.id, F(rng.randint(1, p.num_levels))))
            if not demands:
                demands.append(("p1", F(1)))
            clients.append(Client(id=f"c{ci}", demands=tuple(demands)))
        alpha_entries = tuple(
            (
                p.id,
                tuple(
                    tuple(
                        tuple(F(rng.randint(0, 6)) for _ in range(p.num_levels))
                        for _ in clients
                    )
                    for _ in range(num_dcs)
                ),
            )
            for p in providers
        )
        # Decoupling holds regardless of level dependence in alpha.
        inst = MarketInstance(
            providers=tuple(providers),
            data_centers=build_instance(
                beta=[[0]] * num_dcs, fees=[1], demands=[1], alpha=[[0]] * num_dcs
            ).data_centers,
            clients=tuple(clients),
            exec_cost=ExecCostModel(mode="explicit", level_independent=False, alpha=alpha_entries),
            contracting="per_query",
        )
        joint = market_enumeration(inst)
        per_provider = F(0)
        for sub in split_by_provider(inst):
            single = MarketInstance(
                providers=tuple(p for p in inst.providers if p.id == sub.provider_id),
                data_centers=inst.data_centers,
                clients=tuple(
                    type(c)(id=c.id, demands=tuple((pid, w) for pid, w in c.demands if pid == sub.provider_id))
                    for c in inst.clients
                    if any(pid == sub.provider_id for pid, _ in c.demands)
                ),
                exec_cost=ExecCostModel(
                    mode="explicit",
                    level_independent=False,
                    alpha=tuple(
                        (pid, _restrict_clients(tensor, inst, sub))
                        for pid, tensor in alpha_entries
                        if pid == sub.provider_id
                    ),
                ),
                contracting="per_query",
            )
            value = market_enumeration(single)
            per_provider += value if value is not None else F(0)
        assert joint == per_provider


def _restrict_clients(tensor, inst, sub):
    keep = [i for i, c in enumerate(inst.clients) if c.id in set(sub.client_ids)]
    return tuple(tuple(per_dc[i] for i in keep) for per_dc in tensor)


def test_evaluate_instance_g(instance_g):
    plan = Plan(
        purchases=frozenset({("p1", 1)}),
        placements=frozenset({("p1", "dc2", 1)}),
        assignments=frozenset({("p1", "c1", "dc2", 1)}),
    )
    breakdown = evaluate_cost(instance_g, plan)
    assert (breakdown.oper, breakdown.exec, breakdown.purch) == (7, 1, 2)
    assert breakdown.total == 10


def test_evaluate_empty():
    inst = build_instance(beta=[[1]], fees=[1], demands=[], alpha=[[]])
    breakdown = evaluate_cost(inst, empty_plan())
    assert breakdown.total == 0


def test_evaluate_instance_a_buy_top(instance_a):
    plan = Plan(
        purchases=frozenset({("p1", 2)}),
        placements=frozenset({("p1", "dc1", 2)}),
        assignments=frozenset(
            {("p1", c, "dc1", 2) for c in ("c1", "c2", "c3", "c4")}
        ),
    )
    breakdown = evaluate_cost(instance_a, plan)
    assert breakdown.total == 24
    assert market_enumeration(instance_a) == 24


def test_evaluate_rejects_unplaced_assignment(instance_g):
    plan = Plan(
        purchases=frozenset({("p1", 1)}),
        placements=frozenset({("p1", "dc1", 1)}),
        assignments=frozenset({("p1", "c1", "dc2", 1)}),
    )
    with pytest.raises(InfeasiblePlan):
        evaluate_cost(instance_g, plan)


def test_evaluate_rejects_below_demand_level(instance_a):
    plan = Plan(
        purchases=frozenset({("p1", 1)}),
        placements=frozenset({("p1", "dc1", 1)}),
        assignments=frozenset({("p1", c, "dc1", 1) for c in ("c1", "c2", "c3", "c4")}),
    )
    with pytest.raises(InfeasiblePlan):
        evaluate_cost(instance_a, plan)


def test_evaluate_rejects_unserved_client(instance_a):
    plan = Plan(
        purchases=frozenset({("p1", 2)}),
        placements=frozenset({("p1", "dc1", 2)}),
        assignments=frozenset({("p1", "c1", "dc1", 2)}),
    )
    with pytest.raises(InfeasiblePlan):
        evaluate_cost(instance_a, plan)


def test_evaluate_matches_triple_sums():
    # Recompute each cost term as the full triple sum over index ranges with
    # binary indicators, mirroring the objective definition term by term.
    rng = random.Random(11)
    inst = build_instance(
        beta=[[F(rng.randint(0, 9)) for _ in range(2)] for _ in range(2)],
        fees=[1, 3],
        demands=[1, 2, 1],
        alpha=[[F(rng.randint(0, 5)) for _ in range(3)] for _ in range(2)],
    )
    from datamarket.baselines import opt_cost

    plan, breakdown = opt_cost(inst)
    p = inst.providers[0]
    oper = sum(
        p.oper_cost[d][l - 1]
        for d in range(2)
        for l in (1, 2)
        if ("p1", f"dc{d + 1}", l) in plan.placements
    )
    exec_ = F(0)
    purch = F(0)
    from datamarket.model import exec_cost_value

    for ci, c in enumerate(inst.clients):
        for d in range(2):
            for l in (1, 2):
                if ("p1", c.id, f"dc{d + 1}", l) in plan.assignments:
                    exec_ += exec_cost_value(inst, "p1", d, ci, l)
                    purch += p.fee(l)
    assert (breakdown.oper, breakdown.exec, breakdown.purch) == (oper, exec_, purch)


def test_bulk_charges_fee_once():
    inst = build_instance(
        beta=[[1]], fees=[1], bulk_fees=[7], demands=[1, 1, 1], alpha=[[0, 0, 0]],
        contracting="bulk",
    )
    plan = Plan(
        purchases=frozenset({("p1", 1)}),
        placements=frozenset({("p1", "dc1", 1)}),
        assignments=frozenset({("p1", c, "dc1", 1) for c in ("c1", "c2", "c3")}),
    )
    breakdown = evaluate_cost(inst, plan)
    assert breakdown.purch == 7
    assert breakdown.total == 8


def test_bulk_requires_purchase_before_placement():
    inst = build_instance(
        beta=[[1]], fees=[1], bulk_fees=[7], demands=[1], alpha=[[0]], contracting="bulk",
    )
    plan = Plan(
        purchases=frozenset(),
        placements=frozenset({("p1", "dc1", 1)}),
        assignments=frozenset({("p1", "c1", "dc1", 1)}),
    )
    with pytest.raises(InfeasiblePlan):
        evaluate_cost(inst, plan)


# --- InfeasiblePlan messages, one per kind -----------------------------------


def test_infeasible_message_unplaced(instance_g):
    with pytest.raises(
        InfeasiblePlan, match=re.escape("assignment (p1, c1) served from unplaced (dc2, level 1)")
    ):
        check_plan(
            instance_g,
            Plan(
                frozenset({("p1", 1)}),
                frozenset({("p1", "dc1", 1)}),
                frozenset({("p1", "c1", "dc2", 1)}),
            ),
        )


def test_infeasible_message_assigned_twice(instance_g):
    with pytest.raises(InfeasiblePlan, match="^client c1 assigned twice for provider p1$"):
        check_plan(
            instance_g,
            Plan(
                frozenset({("p1", 1)}),
                frozenset({("p1", "dc1", 1), ("p1", "dc2", 1)}),
                frozenset({("p1", "c1", "dc1", 1), ("p1", "c1", "dc2", 1)}),
            ),
        )


def test_infeasible_message_not_served(instance_a):
    with pytest.raises(InfeasiblePlan, match="^client c2 not served for provider p1$"):
        check_plan(
            instance_a,
            Plan(
                frozenset({("p1", 2)}),
                frozenset({("p1", "dc1", 2)}),
                frozenset({("p1", "c1", "dc1", 2)}),
            ),
        )


def test_infeasible_message_below_demand(instance_a):
    with pytest.raises(
        InfeasiblePlan, match="^client c4 served level 1 below demand on provider p1$"
    ):
        check_plan(
            instance_a,
            Plan(
                frozenset({("p1", 1)}),
                frozenset({("p1", "dc1", 1)}),
                frozenset({("p1", c, "dc1", 1) for c in ("c1", "c2", "c3", "c4")}),
            ),
        )


def test_infeasible_message_undemanded(instance_g):
    (p1,) = instance_g.providers
    inst = replace(instance_g, providers=(p1, replace(p1, id="p2")))
    with pytest.raises(
        InfeasiblePlan, match="^client c1 assigned for provider p2 it does not demand$"
    ):
        check_plan(
            inst,
            Plan(
                frozenset({("p1", 1), ("p2", 1)}),
                frozenset({("p1", "dc1", 1), ("p2", "dc1", 1)}),
                frozenset({("p1", "c1", "dc1", 1), ("p2", "c1", "dc1", 1)}),
            ),
        )


def test_infeasible_message_bulk_placement_without_purchase():
    inst = build_instance(
        beta=[[1]], fees=[1], bulk_fees=[7], demands=[1], alpha=[[0]], contracting="bulk",
    )
    with pytest.raises(
        InfeasiblePlan, match=re.escape("placement (p1, dc1, 1) without bulk purchase")
    ):
        check_plan(
            inst,
            Plan(
                frozenset(),
                frozenset({("p1", "dc1", 1)}),
                frozenset({("p1", "c1", "dc1", 1)}),
            ),
        )


# --- check_plan against the per-demand Fraction oracle ------------------------
#
# Each mutation takes a feasible plan to one that breaks a single constraint,
# or returns None where the market leaves it no room.


def _drop_assignment(inst, plan, rng):
    gone = rng.choice(sorted(plan.assignments))
    return replace(plan, assignments=plan.assignments - {gone})


def _lower_below_demand(inst, plan, rng):
    providers = {p.id: p for p in inst.providers}
    demand = {(c.id, pid): w for c in inst.clients for pid, w in c.demands}
    options = [
        (a, min_level_scan(providers[a[0]], demand[a[1], a[0]]))
        for a in sorted(plan.assignments)
    ]
    options = [(a, least) for a, least in options if least > 1]
    if not options:
        return None
    (pid, cid, dc_id, level), least = rng.choice(options)
    low = rng.randint(1, least - 1)
    return Plan(
        plan.purchases | {(pid, low)},
        plan.placements | {(pid, dc_id, low)},
        plan.assignments - {(pid, cid, dc_id, level)} | {(pid, cid, dc_id, low)},
    )


def _remove_used_placement(inst, plan, rng):
    used = sorted({(pid, dc_id, level) for pid, _, dc_id, level in plan.assignments})
    return replace(plan, placements=plan.placements - {rng.choice(used)})


def _serve_twice(inst, plan, rng):
    pid, cid, dc_id, level = rng.choice(sorted(plan.assignments))
    (provider,) = (p for p in inst.providers if p.id == pid)
    others = [
        (d.id, l)
        for d in inst.data_centers
        for l in range(1, provider.num_levels + 1)
        if (d.id, l) != (dc_id, level)
    ]
    if not others:
        return None
    dc2, level2 = rng.choice(others)
    return Plan(
        plan.purchases | {(pid, level2)},
        plan.placements | {(pid, dc2, level2)},
        plan.assignments | {(pid, cid, dc2, level2)},
    )


def _serve_undemanded(inst, plan, rng):
    options = [
        (c.id, p) for c in inst.clients for p in inst.providers if p.id not in dict(c.demands)
    ]
    if not options:
        return None
    cid, p = rng.choice(options)
    dc_id = rng.choice(inst.data_centers).id
    level = rng.randint(1, p.num_levels)
    return Plan(
        plan.purchases | {(p.id, level)},
        plan.placements | {(p.id, dc_id, level)},
        plan.assignments | {(p.id, cid, dc_id, level)},
    )


def _buy_unknown(inst, plan, rng):
    p = rng.choice(inst.providers)
    unknown = rng.choice([(p.id, p.num_levels + 1), (p.id, 0), ("nobody", 1)])
    return replace(plan, purchases=plan.purchases | {unknown})


def _place_unknown(inst, plan, rng):
    p = rng.choice(inst.providers)
    dc_id = rng.choice(inst.data_centers).id
    unknown = rng.choice(
        [(p.id, dc_id, p.num_levels + 1), (p.id, "nowhere", 1), ("nobody", dc_id, 1)]
    )
    return replace(plan, placements=plan.placements | {unknown})


MUTATIONS = {
    "unknown-purchase": _buy_unknown,
    "unknown-placement": _place_unknown,
    "drop-assignment": _drop_assignment,
    "below-demand": _lower_below_demand,
    "unplaced": _remove_used_placement,
    "served-twice": _serve_twice,
    "undemanded": _serve_undemanded,
}


def _verdict(check, instance, plan):
    """check's InfeasiblePlan message for the plan, or None if it passes."""
    try:
        check(instance, plan)
    except InfeasiblePlan as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bulk=st.booleans(),
    algorithm=st.sampled_from(["nearestdc", "datum"]),
    mutation=st.sampled_from(sorted(MUTATIONS)),
)
def test_check_plan_agrees_with_the_oracle(seed, bulk, algorithm, mutation):
    rng = random.Random(seed)
    inst = random_market(
        rng, max_providers=3, max_dcs=3, max_levels=4, max_clients=6, bulk=bulk,
        level_independent_beta=bulk, force_top_demand=bulk,
    )
    plan, _ = run_algorithm(inst, algorithm, DatumConfig())
    assert _verdict(check_plan, inst, plan) is None
    assert _verdict(check_plan_oracle, inst, plan) is None
    broken = MUTATIONS[mutation](inst, plan, rng)
    assume(broken is not None)
    # The two checks test the constraints in the same order, so they name
    # the same first violation.
    expected = _verdict(check_plan_oracle, inst, broken)
    assert expected is not None
    assert _verdict(check_plan, inst, broken) == expected


def test_json_round_trip(instance_g):
    doc = instance_to_json(instance_g)
    text = json.dumps(doc, sort_keys=True)
    again = instance_from_json(json.loads(text))
    assert again == instance_g


def test_plan_json_round_trip(instance_g):
    plan = Plan(
        purchases=frozenset({("p1", 1)}),
        placements=frozenset({("p1", "dc2", 1)}),
        assignments=frozenset({("p1", "c1", "dc2", 1)}),
    )
    assert plan_from_json(plan_to_json(plan)) == plan
    assert served_level(plan) == {("c1", "p1"): ("dc2", 1)}


def test_money_quantization():
    assert to_rational("10.0000004") == F(10)
    assert to_rational("10.0000015") == F(10_000_002, 10**6)  # half-even
    assert format_money(F(1, 2)) == "0.500000"
    assert format_money(F(-3, 2)) == "-1.500000"
    assert quantize(F(1, 3)) == F(333333, 10**6)


def test_haversine_known_distance():
    # Los Angeles to New York is about 3.94 Mm over the great circle.
    gm = haversine_gigameters(34.0522, -118.2437, 40.7128, -74.0060)
    assert 0.0038 < gm < 0.0040


@pytest.mark.parametrize("raw", ["inf", "Infinity", "-inf", "nan", float("inf")])
def test_to_rational_rejects_non_finite(raw):
    with pytest.raises(ValueError, match="not a finite decimal number"):
        to_rational(raw)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1e22", F(10**22)),
        ("-1e22", F(-(10**22))),
        ("1.5e30", F(15 * 10**29)),
        (1e22, F(10**22)),
        ("123456789012345678901234567890.0000005", F(123456789012345678901234567890)),
        ("123456789012345678901234567890.0000015", F(123456789012345678901234567890_000002, MICROS)),
        ("9" * 30 + ".9999999", F(10**30)),
        ("9" * MAX_INTEGER_DIGITS, F(10**MAX_INTEGER_DIGITS - 1)),
    ],
)
def test_to_rational_quantizes_values_past_28_digits(raw, expected):
    assert to_rational(raw) == expected


@pytest.mark.parametrize("raw", ["1e309", "-1e309", "1e400", "1e999999"])
def test_to_rational_refuses_values_past_the_digit_cap(raw):
    with pytest.raises(ValueError) as refused:
        to_rational(raw)
    assert str(refused.value) == (
        f"decimal number too large: {raw!r} has more than {MAX_INTEGER_DIGITS} integer digits"
    )


HALF_QUANTUM = F(1, 2 * MICROS)

# Fractions, among them exact ties between two multiples of 1e-6, and finite
# floats, huge and tiny ones included.
exact_money = st.one_of(
    st.fractions(), st.integers(-(10**30), 10**30).map(lambda k: F(2 * k + 1, 2 * MICROS))
)
money_values = st.one_of(exact_money, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(money_values)
def test_quantize_rounds_to_the_nearest_quantum_ties_to_even(x):
    q = quantize(x)
    units = q * MICROS
    assert units.denominator == 1
    assert abs(F(x) - q) <= HALF_QUANTUM
    if abs(F(x) - q) == HALF_QUANTUM:
        assert units.numerator % 2 == 0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(exact_money)
def test_format_money_renders_the_quantized_value(x):
    text = format_money(x)
    assert re.fullmatch(r"-?(0|[1-9][0-9]*)\.[0-9]{6}", text)
    assert F(Decimal(text)) == quantize(x)
    assert text.startswith("-") == (quantize(x) < 0)


@st.composite
def wide_decimal_strings(draw):
    """Decimal strings with 29 to MAX_INTEGER_DIGITS integer digits, in
    plain or scientific notation, with ties and carries among them."""
    digits = draw(st.integers(29, MAX_INTEGER_DIGITS))
    whole = str(
        draw(st.one_of(st.integers(10 ** (digits - 1), 10**digits - 1), st.just(10**digits - 1)))
    )
    places = draw(
        st.one_of(
            st.text("0123456789", max_size=12),
            st.from_regex(r"[0-9]{6}5", fullmatch=True),
            st.just("9999995"),
        )
    )
    sign = draw(st.sampled_from(["", "-", "+"]))
    if draw(st.booleans()):
        return f"{sign}{whole[0]}.{whole[1:]}{places}e{digits - 1}"
    return f"{sign}{whole}.{places}" if places else f"{sign}{whole}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wide_decimal_strings())
def test_to_rational_quantizes_wide_decimals_exactly(raw):
    assert to_rational(raw) == quantize(F(Decimal(raw)))


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("0e500", F(0)),
        ("-0e999999", F(0)),
        ("1e30", F(10**30)),
        ("9" * MAX_INTEGER_DIGITS + ".9999995", F(10**MAX_INTEGER_DIGITS)),
        ("-" + "9" * MAX_INTEGER_DIGITS + ".9999995", F(-(10**MAX_INTEGER_DIGITS))),
        ("1e-999999999", F(0)),
        ("-0.0000005", F(0)),
        ("0.0000015", F(2, MICROS)),
    ],
)
def test_to_rational_edge_values(raw, expected):
    assert to_rational(raw) == expected


@pytest.mark.parametrize("raw", ["1e309", "9" * (MAX_INTEGER_DIGITS + 1) + ".5", "-0.1e310"])
def test_to_rational_refuses_nonzero_values_past_the_cap(raw):
    with pytest.raises(ValueError) as refused:
        to_rational(raw)
    assert str(refused.value) == (
        f"decimal number too large: {raw!r} has more than {MAX_INTEGER_DIGITS} integer digits"
    )


def test_to_micros_is_exact():
    assert to_micros(F(3, 2)) == 1_500_000
    assert to_micros(F(-1, MICROS)) == -1
    assert to_micros(7) == 7 * MICROS
    with pytest.raises(ValueError):
        to_micros(F(1, 3))
    with pytest.raises(ValueError):
        to_micros(F(1, 10 * MICROS))


def _with_level_dependent_alpha(instance, rng):
    tensors = tuple(
        (
            p.id,
            tuple(
                tuple(
                    tuple(F(rng.randint(0, 9_999_999), MICROS) for _ in range(p.num_levels))
                    for _ in instance.clients
                )
                for _ in instance.data_centers
            ),
        )
        for p in instance.providers
    )
    return replace(
        instance,
        exec_cost=ExecCostModel(mode="explicit", level_independent=False, alpha=tensors),
    )


def _assert_tables_exact(instance):
    client_index = instance.client_index()
    providers = {p.id: p for p in instance.providers}
    for sub in split_by_provider(instance):
        provider = providers[sub.provider_id]
        oper = provider.oper_cost
        fee = provider.bulk_fee if instance.contracting == "bulk" else provider.fee
        assert sub.fees == tuple(to_micros(fee(l)) for l in range(1, provider.num_levels + 1))
        assert all(type(f) is int for f in sub.fees)
        assert len(sub.alpha) == sub.num_levels
        for table in sub.alpha:
            assert len(table) == sub.num_dcs
            assert all(len(row) == len(sub.client_ids) for row in table)
        if instance.exec_cost.level_independent:
            # One table object serves every level.
            assert all(table is sub.alpha[0] for table in sub.alpha)
        for d in range(sub.num_dcs):
            for l in range(1, sub.num_levels + 1):
                assert sub.beta[d][l - 1] == to_micros(oper[d][l - 1])
                for c, client_id in enumerate(sub.client_ids):
                    expected = exec_cost_value(
                        instance, sub.provider_id, d, client_index[client_id], l
                    )
                    cell = sub.alpha[l - 1][d][c]
                    assert type(cell) is int and cell == to_micros(expected)


def test_split_tables_are_exact_micro_units():
    rng = random.Random(41)
    for seed in range(1, 4):
        _assert_tables_exact(
            generate(
                ScenarioParams(
                    seed=seed, num_data_centers=3, num_providers=3, num_clients=12,
                    levels_per_provider=3,
                )
            )
        )
    for k in range(20):
        inst = random_market(rng, max_providers=3, max_levels=4, bulk=k % 2 == 1)
        _assert_tables_exact(inst)
        _assert_tables_exact(_with_level_dependent_alpha(inst, rng))


def count_pair_kernel(monkeypatch) -> list[int]:
    """Count evaluations of numeric.pair_micros, the per-pair step of every
    distance cost; the returned one-element list holds the running count."""
    import datamarket.numeric as numeric

    calls = [0]
    original = numeric.pair_micros

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(numeric, "pair_micros", counting)
    return calls


def test_split_computes_each_distance_once(monkeypatch):
    inst = generate(
        ScenarioParams(
            seed=2, num_data_centers=4, num_providers=5, num_clients=30, levels_per_provider=4
        )
    )
    calls = count_pair_kernel(monkeypatch)
    split_by_provider(inst)
    assert 0 < calls[0] <= len(inst.data_centers) * len(inst.clients)


def test_split_resolves_each_distinct_quality_once(monkeypatch):
    import datamarket.model as model

    inst = generate(
        ScenarioParams(
            seed=1, num_data_centers=4, num_providers=6, num_clients=40, levels_per_provider=4
        )
    )
    calls = 0
    original = model.min_level_index

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(model, "min_level_index", counting)
    subs = split_by_provider(inst)
    distinct = {(pid, w) for c in inst.clients for pid, w in c.demands}
    assert 0 < calls <= len(distinct) < sum(len(sub.client_ids) for sub in subs)


def test_split_keeps_client_order_and_first_demand():
    inst = build_instance(
        beta=[[1, 2]], fees=[1, 2], demands=[2, 1, 1], alpha=[[0, 0, 0]]
    )
    first, *rest = inst.clients
    twice = replace(first, demands=first.demands + ((first.demands[0][0], F(1)),))
    inst = replace(inst, clients=(twice, *rest))
    (sub,) = split_by_provider(inst)
    assert sub.client_ids == tuple(c.id for c in inst.clients)
    assert sub.min_levels == (2, 1, 1)
    # The solvers would leave the second demand unserved: validation refuses it.
    assert validate_instance(inst).violations == ("client c1: duplicate demand on provider p1",)


def test_evaluate_computes_each_distance_once(monkeypatch):
    from datamarket.baselines import nearest_dc

    inst = generate(
        ScenarioParams(
            seed=2, num_data_centers=4, num_providers=5, num_clients=30, levels_per_provider=4
        )
    )
    plan, expected = nearest_dc(inst)
    calls = count_pair_kernel(monkeypatch)
    assert evaluate_cost(inst, plan) == expected
    assert 0 < calls[0] <= len(inst.data_centers) * len(inst.clients)


# --- int pricing against the per-assignment Fraction formulas --------------

COORDINATES = st.tuples(
    st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=COORDINATES,
    b=COORDINATES,
    rate_micros=st.integers(0, 10**12),
    tie=st.none() | st.integers(0, 10**9),
    same_point=st.booleans(),
)
def test_distance_micros_matches_fraction_formula(a, b, rate_micros, tie, same_point):
    if same_point:
        b = a
    rate = F(rate_micros, MICROS)
    dist = F(haversine_gigameters(*a, *b))
    if tie is not None and dist:
        # An exact half-quantum product; odd and even ties both occur.
        rate = F(2 * tie + 1, 2) / (dist * MICROS)
        assert (dist * rate * MICROS).denominator == 2
    expected = distance_cost_oracle(*a, *b, rate)
    assert distance_micros(*a, *b, rate) == expected * MICROS
    assert distance_cost(*a, *b, rate) == expected


# Poles, the antimeridian from both sides, and the origin.
EDGE_POINTS = st.sampled_from(
    [(90.0, 0.0), (-90.0, 0.0), (90.0, 180.0), (-90.0, -180.0), (0.0, 180.0),
     (0.0, -180.0), (45.0, 180.0), (45.0, -180.0), (0.0, 0.0)]
)
POINTS = EDGE_POINTS | COORDINATES


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    dcs=st.lists(POINTS, min_size=1, max_size=4),
    clients=st.lists(POINTS, min_size=1, max_size=6),
    rate_micros=st.sampled_from([0]) | st.integers(0, 10**12),
    tie=st.none() | st.integers(0, 10**9),
    coincident=st.booleans(),
)
def test_distance_table_matches_per_cell_formulas(dcs, clients, rate_micros, tie, coincident):
    if coincident:
        clients = [dcs[-1], *clients]
    rate = F(rate_micros, MICROS)
    dist = F(haversine_gigameters(*dcs[0], *clients[0]))
    if tie is not None and dist:
        # Cell [0][0] is an exact half-quantum product; odd and even ties both occur.
        rate = F(2 * tie + 1, 2) / (dist * MICROS)
    inst = MarketInstance(
        providers=(),
        data_centers=tuple(DataCenter(f"d{i}", loc) for i, loc in enumerate(dcs)),
        clients=tuple(Client(f"c{i}", (), loc) for i, loc in enumerate(clients)),
        exec_cost=ExecCostModel(mode="distance", rate_per_gigameter=rate),
    )
    table = distance_table(inst)
    assert table == [[distance_micros(*d, *c, rate) for c in clients] for d in dcs]
    assert table == [[distance_cost_oracle(*d, *c, rate) * MICROS for c in clients] for d in dcs]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=POINTS,
    b=COORDINATES,
    half=st.integers(0, 10**13),
    ulps=st.integers(-6, 6),
    shift=st.integers(0, 12),
    negative=st.booleans(),
)
def test_distance_micros_near_half_micro_ties(a, b, half, ulps, shift, negative):
    # The exact product is a half-micro plus or minus ulps * 2**shift units in
    # the last place of that half-micro: exact ties, then products inside and
    # just outside the float route's error allowance, on both sides. An
    # in-code rate may be negative.
    dist = F(haversine_gigameters(*a, *b))
    assume(dist)
    target = F(2 * half + 1, 2)
    product = target + F(math.ulp(float(target))) * ulps * 2**shift
    if negative:
        product = -product
    rate = product / (dist * MICROS)
    assert dist * rate * MICROS == product
    assert distance_micros(*a, *b, rate) == distance_cost_oracle(*a, *b, rate) * MICROS


@pytest.mark.parametrize(
    "a, b, twice_product",
    [
        ((41.6131, -33.0656), (-57.2264, 132.2853), 816709),
        ((83.0245, -49.6014), (-83.4569, 177.5056), 450637),
        ((70.688, -89.6782), (-6.687, 32.3148), -1637849),
        ((-69.7391, 115.9398), (5.7153, -115.4174), -1965335),
    ],
)
def test_distance_micros_exact_tie_the_float_product_misses(a, b, twice_product):
    # The exact product is the half-micro twice_product / 2, but the float
    # product lands just past it, so rounding the float would pick the
    # wrong neighbour; the exact route must decide.
    rate = F(twice_product, 2) / (F(haversine_gigameters(*a, *b)) * MICROS)
    assert distance_micros(*a, *b, rate) == distance_cost_oracle(*a, *b, rate) * MICROS


EXTREME_RATES = st.one_of(
    # Numerators up to 1e30: products of 2**52 micro-units and beyond.
    st.builds(F, st.integers(0, 10**30), st.sampled_from([1, MICROS]) | st.integers(1, 10**6)),
    # A zero rate, rates whose scale is subnormal or underflows a float, and
    # rates whose scale overflows one.
    st.sampled_from(
        [F(0), F(1, 10**312), F(3, 2**1074), F(1, 2**1080), F(10**400), F(10**400, 3)]
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=POINTS, b=POINTS, coincident=st.booleans(), rate=EXTREME_RATES)
def test_distance_micros_extreme_rates(a, b, coincident, rate):
    if coincident:
        b = a
    assert distance_micros(*a, *b, rate) == distance_cost_oracle(*a, *b, rate) * MICROS


def test_distance_grid_equals_per_cell_distance_micros():
    inst = _case_study(1)
    rate = inst.exec_cost.rate_per_gigameter
    dcs = [d.location for d in inst.data_centers]
    clients = [c.location for c in inst.clients]
    assert distance_grid(dcs, clients, rate) == [
        [distance_micros(*d, *c, rate) for c in clients] for d in dcs
    ]


def test_distance_table_is_none_for_explicit_costs(instance_g):
    assert distance_table(instance_g) is None


def _case_study(seed: int, num_dcs: int = 4) -> MarketInstance:
    return generate(
        ScenarioParams(
            seed=seed, num_data_centers=num_dcs, num_providers=6, num_clients=40,
            levels_per_provider=4,
        )
    )


@pytest.mark.parametrize(
    "algorithm, num_dcs",
    [("datum", 4), ("nearestdc", 4), ("optcost", 4), ("optband", 4), ("single-dc", 1)],
)
def test_one_solve_prices_each_distance_once(monkeypatch, algorithm, num_dcs):
    inst = _case_study(1, num_dcs)
    calls = count_pair_kernel(monkeypatch)
    run_algorithm(inst, algorithm, DatumConfig())
    assert 0 < calls[0] <= num_dcs * len(inst.clients)


@pytest.mark.parametrize("seed, num_dcs", [(1, 4), (2, 4), (3, 4), (1, 1)])
def test_evaluate_with_the_shared_table_equals_the_oracle(seed, num_dcs):
    inst = _case_study(seed, num_dcs)
    distances = distance_table(inst)
    for algorithm in ALGORITHMS:
        if algorithm == "single-dc" and num_dcs > 1:
            continue
        plan, breakdown = run_algorithm(inst, algorithm, DatumConfig())
        assert (
            breakdown
            == evaluate_cost(inst, plan, distances)
            == evaluate_cost(inst, plan)
            == evaluate_cost_oracle(inst, plan)
        )


def _with_bulk_fees(instance, rng):
    providers = tuple(
        replace(
            p,
            levels=tuple(
                replace(l, bulk_fee=F(rng.randint(0, 9_999_999), MICROS)) for l in p.levels
            ),
        )
        for p in instance.providers
    )
    return replace(instance, providers=providers, contracting="bulk")


def _random_feasible_plan(instance, rng):
    """Each demand served at a random level it accepts from a random data
    center, plus a few copies that serve nobody."""
    providers = {p.id: p for p in instance.providers}
    dc_ids = [d.id for d in instance.data_centers]
    assignments = set()
    for c in instance.clients:
        for pid, w in c.demands:
            p = providers[pid]
            level = rng.randint(min_level_index(p, w), p.num_levels)
            assignments.add((pid, c.id, rng.choice(dc_ids), level))
    placements = {(pid, dc, level) for pid, _, dc, level in assignments}
    for p in instance.providers:
        if rng.random() < 0.5:
            placements.add((p.id, rng.choice(dc_ids), rng.randint(1, p.num_levels)))
    purchases = {(pid, level) for pid, _, level in placements}
    return Plan(frozenset(purchases), frozenset(placements), frozenset(assignments))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    mode=st.sampled_from(("distance", "explicit", "level-dependent")),
    bulk=st.booleans(),
)
def test_evaluate_cost_matches_per_assignment_oracle(seed, mode, bulk):
    rng = random.Random(seed)
    if mode == "distance":
        params = ScenarioParams(
            seed=seed, num_data_centers=rng.randint(1, 4), num_providers=rng.randint(1, 4),
            num_clients=rng.randint(1, 12), levels_per_provider=rng.randint(1, 4),
        )
        try:
            inst = generate(params)
        except InvalidRatioTargets:  # every client sits at its data center
            assume(False)
    else:
        inst = random_market(rng, max_providers=3, max_levels=4)
        if mode == "level-dependent":
            inst = _with_level_dependent_alpha(inst, rng)
    if bulk:
        inst = _with_bulk_fees(inst, rng)
    plan = _random_feasible_plan(inst, rng)
    assert evaluate_cost(inst, plan) == evaluate_cost_oracle(inst, plan)


# Strings and numbers that convert to the same few values, and to different
# values where an int and a float compare equal.
COST_CELLS = (
    "0.5", "0.500000", "0.5", "1", "1.0000004", "1.0000005", "1.0000015", "3.25", "3.25",
    1, 1.0, 2.5, 2**70, float(2**70), "1180591620717411303424",
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loader_equals_cell_by_cell_conversion(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    doc = instance_to_json(random_market(rng, max_providers=2, max_levels=3))
    cell = st.sampled_from(COST_CELLS)
    for p in doc["providers"]:
        p["oper_cost"] = [[data.draw(cell) for _ in row] for row in p["oper_cost"]]
    alpha = doc["exec_cost"]["alpha"]
    for pid, tensor in alpha.items():
        alpha[pid] = [[[data.draw(cell) for _ in lv] for lv in pc] for pc in tensor]
    doc["exec_cost"]["level_independent"] = False

    loaded = instance_from_json(doc)
    assert tuple(p.oper_cost for p in loaded.providers) == tuple(
        tuple(tuple(map(to_rational, row)) for row in p["oper_cost"]) for p in doc["providers"]
    )
    assert loaded.exec_cost.alpha == tuple(
        (pid, tuple(tuple(tuple(map(to_rational, lv)) for lv in pc) for pc in tensor))
        for pid, tensor in alpha.items()
    )
    # Equal strings share one Fraction.
    by_string = {}
    for (_, tensor), (_, raw) in zip(loaded.exec_cost.alpha, alpha.items()):
        for pc, raw_pc in zip(tensor, raw):
            for lv, raw_lv in zip(pc, raw_pc):
                for value, text in zip(lv, raw_lv):
                    if isinstance(text, str):
                        assert by_string.setdefault(text, value) is value


@pytest.mark.parametrize("cell", [True, None, [1], {"v": 1}], ids=["bool", "null", "list", "object"])
def test_loader_names_a_mistyped_tensor_cell(cell):
    doc = instance_to_json(build_instance(beta=[[1, 2]], fees=[1, 2], demands=[1], alpha=[[3]]))
    doc["exec_cost"]["alpha"]["p1"][0][0][1] = cell
    with pytest.raises(TypeError) as refused:
        instance_from_json(doc)
    assert str(refused.value) == (
        f"exec_cost.alpha.p1[0][0][1]: expected a number or decimal string,"
        f" got {type(cell).__name__}"
    )


def test_to_rational_refuses_a_bool():
    with pytest.raises(TypeError, match="bool"):
        to_rational(True)


def test_validate_negative_cost_above_the_first_level():
    inst = build_instance(beta=[[1, 1]], fees=[1, 2], demands=[1, 1], alpha=[[[1, -1], [-2, -2]]])
    assert validate_instance(inst).violations == (
        "exec model p1: negative cost at dc 0 client 0",
        "exec model p1: marked level-independent but varies with level at dc 0 client 0",
        "exec model p1: negative cost at dc 0 client 1",
    )
