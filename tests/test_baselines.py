from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_instance
from datamarket.baselines import (
    OversizeInstance,
    dual_ascent,
    from_uflp,
    nearest_dc,
    opt_band,
    opt_cost,
    to_uflp,
    uflp_from_json,
    uflp_to_json,
)
from datamarket.model import exec_cost_value, split_by_provider
from datamarket.numeric import MICROS
from datamarket.scenario import ScenarioParams, generate
from oracles import (
    empty_plan,
    market_enumeration,
    random_market,
    reference_exhaustive,
    served_level,
    uflp_brute_force,
)

F = Fraction


def random_instance(rng, max_dcs=2, max_levels=2, max_clients=4, bulk=False):
    num_dcs = rng.randint(1, max_dcs)
    levels = rng.randint(1, max_levels)
    clients = rng.randint(1, max_clients)
    fees, bulk_fees, acc = [], [], F(0)
    for _ in range(levels):
        acc += F(rng.randint(1, 7), rng.choice([1, 2]))
        fees.append(acc)
        bulk_fees.append(F(rng.randint(0, 8)))
    return build_instance(
        beta=[[F(rng.randint(0, 15)) for _ in range(levels)] for _ in range(num_dcs)],
        fees=fees,
        bulk_fees=bulk_fees if bulk else None,
        demands=[rng.randint(1, levels) for _ in range(clients)],
        alpha=[[F(rng.randint(0, 9)) for _ in range(clients)] for _ in range(num_dcs)],
        contracting="bulk" if bulk else "per_query",
    )


def test_opt_cost_instance_g(instance_g):
    plan, breakdown = opt_cost(instance_g)
    assert breakdown.total == 10
    assert plan.placements == frozenset({("p1", "dc2", 1)})


def test_opt_cost_instance_b(instance_b):
    plan, breakdown = opt_cost(instance_b)
    assert breakdown.total == 19


def test_opt_cost_empty_clients():
    inst = build_instance(beta=[[1]], fees=[1], demands=[], alpha=[[]])
    plan, breakdown = opt_cost(inst)
    assert plan == empty_plan()
    assert breakdown.total == 0


def test_opt_cost_matches_enumeration_oracle():
    rng = random.Random(2718)
    for _ in range(120):
        inst = random_instance(rng)
        plan, breakdown = opt_cost(inst)
        assert breakdown.total == market_enumeration(inst)


def test_opt_cost_bulk_matches_enumeration_oracle():
    rng = random.Random(314)
    for _ in range(80):
        inst = random_instance(rng, bulk=True)
        plan, breakdown = opt_cost(inst)
        assert breakdown.total == market_enumeration(inst)


def test_opt_cost_no_client_can_improve():
    rng = random.Random(99)
    for _ in range(40):
        inst = random_instance(rng)
        plan, _ = opt_cost(inst)
        (sub,) = split_by_provider(inst)
        open_pairs = [(dc, l) for pid, dc, l in plan.placements]
        served = served_level(plan)
        dc_idx = inst.dc_index()
        for ci, c in enumerate(inst.clients):
            dc_id, level = served[(c.id, "p1")]
            cost = exec_cost_value(inst, "p1", dc_idx[dc_id], ci, level) + inst.providers[
                0
            ].fee(level)
            for other_dc, other_level in open_pairs:
                if inst.providers[0].quality(other_level) < dict(c.demands)["p1"]:
                    continue
                other = exec_cost_value(
                    inst, "p1", dc_idx[other_dc], ci, other_level
                ) + inst.providers[0].fee(other_level)
                assert cost <= other


def test_opt_band_reports_full_cost(instance_b):
    # Bandwidth-only objective picks the single placement {level 2}
    # (beta 12 < 13); the reported total still includes fees: 12 + 4*3 = 24.
    plan, breakdown = opt_band(instance_b)
    assert plan.placements == frozenset({("p1", "dc1", 2)})
    assert breakdown.total == 24


def test_opt_band_instance_g(instance_g):
    plan, breakdown = opt_band(instance_g)
    assert breakdown.total == 10


def test_opt_band_minimizes_band_cost():
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng)
        plan, breakdown = opt_band(inst)
        # No feasible plan has strictly smaller oper+exec: check against the
        # band-only enumeration computed by brute force.
        best_band = None
        (sub,) = split_by_provider(inst)
        items = [(d, l) for d in range(sub.num_dcs) for l in range(1, sub.num_levels + 1)]
        for mask in range(1, 1 << len(items)):
            chosen = [items[k] for k in range(len(items)) if mask >> k & 1]
            total = sum((sub.beta[d][l - 1] for d, l in chosen), F(0))
            ok = True
            for c in range(len(sub.client_ids)):
                options = [
                    sub.alpha[l - 1][d][c] for d, l in chosen if l >= sub.min_levels[c]
                ]
                if not options:
                    ok = False
                    break
                total += min(options)
            if ok and (best_band is None or total < best_band):
                best_band = total
        assert breakdown.oper + breakdown.exec == F(best_band, MICROS)


def test_one_level_one_dc_optband_equals_optcost():
    rng = random.Random(8)
    for _ in range(20):
        inst = random_instance(rng, max_dcs=1, max_levels=1)
        _, cost_breakdown = opt_cost(inst)
        _, band_breakdown = opt_band(inst)
        assert cost_breakdown.total == band_breakdown.total


def test_nearest_dc_instance_g(instance_g):
    plan, breakdown = nearest_dc(instance_g)
    assert plan.placements == frozenset({("p1", "dc1", 1)})
    assert breakdown.total == 11


def test_nearest_dc_instance_a(instance_a):
    plan, breakdown = nearest_dc(instance_a)
    assert plan.purchases == frozenset({("p1", 1), ("p1", 2)})
    assert breakdown.total == 28  # 10 + 12 + 3*1 + 3


def test_nearest_dc_no_clients():
    inst = build_instance(beta=[[1]], fees=[1], demands=[], alpha=[[]])
    plan, breakdown = nearest_dc(inst)
    assert plan == empty_plan()
    assert breakdown.total == 0


def test_nearest_dc_never_beats_opt_cost():
    rng = random.Random(6)
    for _ in range(60):
        inst = random_instance(rng)
        _, near = nearest_dc(inst)
        _, best = opt_cost(inst)
        assert near.total >= best.total


def test_oversize_budget(monkeypatch):
    inst = build_instance(
        beta=[[1, 1]] * 3, fees=[1, 2], demands=[1], alpha=[[0, 0]] * 3
    )
    monkeypatch.setenv("DATUM_BUDGET", str(2**5))
    with pytest.raises(OversizeInstance):
        opt_cost(inst)


@pytest.mark.parametrize("bulk", [False, True], ids=["per-query", "bulk"])
def test_bounded_search_keeps_the_reference_plans(bulk):
    # Level-independent beta gives opt_band ties between levels, so a
    # bound that moved the search to another optimal leaf would show here.
    rng = random.Random(4242 + bulk)
    for _ in range(150):
        inst = random_market(
            rng, max_dcs=3, max_levels=3, max_clients=8, bulk=bulk, level_independent_beta=True
        )
        assert opt_cost(inst)[0] == reference_exhaustive(inst, minimize_band_only=False)
        assert opt_band(inst)[0] == reference_exhaustive(inst, minimize_band_only=True)


@pytest.mark.parametrize("seed", range(1, 7))
def test_bounded_search_keeps_the_case_study_plans(seed):
    inst = generate(
        ScenarioParams(
            seed=seed, num_data_centers=4, num_providers=6, num_clients=40, levels_per_provider=4
        )
    )
    assert opt_cost(inst)[0] == reference_exhaustive(inst, minimize_band_only=False)
    assert opt_band(inst)[0] == reference_exhaustive(inst, minimize_band_only=True)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), charged=st.booleans(), data=st.data())
def test_dual_ascent_never_exceeds_the_residual_optimum(seed, charged, data):
    # A search node's residual problem: forced-open items cost nothing to
    # open, excluded ones are gone, undecided ones open at beta.
    inst = random_market(random.Random(seed), max_providers=1, max_dcs=3, max_levels=3)
    (sub,) = split_by_provider(inst)
    items = [(d, l) for d in range(sub.num_dcs) for l in range(1, sub.num_levels + 1)]
    state = data.draw(st.lists(st.sampled_from("fxu"), min_size=len(items), max_size=len(items)))
    kept = [k for k, s in enumerate(state) if s != "x"]
    open_costs = [0 if state[k] == "f" else sub.beta[d][l - 1] for k, (d, l) in enumerate(items)]

    def connection(k, c):
        d, l = items[k]
        fee = sub.fees[l - 1] if charged else 0
        return sub.alpha[l - 1][d][c] + fee if l >= sub.min_levels[c] else None

    rows = [
        sorted(
            ((k, connection(k, c)) for k in kept if connection(k, c) is not None),
            key=lambda kc: kc[1],
        )
        for c in range(len(sub.client_ids))
    ]
    optimum = None
    if kept:
        optimum = uflp_brute_force(
            [open_costs[k] for k in kept],
            [[connection(k, c) for c in range(len(sub.client_ids))] for k in kept],
        )
    if not all(rows):
        assert optimum is None
        return
    bound = dual_ascent(open_costs, rows)
    assert bound <= optimum
    if "u" not in state:
        # Nothing left to open: the bound is the exact assignment cost.
        assert bound == optimum
    stop = data.draw(st.integers(0, optimum + 1))
    assert min(stop, bound) <= dual_ascent(open_costs, rows, stop) <= bound


def test_to_uflp_instance_a(instance_a):
    (sub,) = split_by_provider(instance_a)
    uflp = to_uflp(sub)
    assert uflp.open_costs == (F(10), F(12))
    # The level-2 client cannot use the level-1 facility.
    assert uflp.connection[0][3] is None
    assert uflp.connection[1][3] == F(3)
    assert uflp_brute_force(uflp.open_costs, uflp.connection) == 24


def test_to_uflp_instance_g(instance_g):
    (sub,) = split_by_provider(instance_g)
    uflp = to_uflp(sub)
    assert len(uflp.facility_ids) == 2
    assert uflp_brute_force(uflp.open_costs, uflp.connection) == 10


def test_to_uflp_single_facility():
    inst = build_instance(beta=[[4]], fees=[2], demands=[1, 1, 1], alpha=[[1, 1, 1]])
    (sub,) = split_by_provider(inst)
    uflp = to_uflp(sub)
    assert uflp_brute_force(uflp.open_costs, uflp.connection) == 4 + 3 * (2 + 1)


def test_to_uflp_preserves_optimum():
    rng = random.Random(777)
    for _ in range(80):
        inst = random_instance(rng, max_dcs=3, max_levels=3, max_clients=4)
        (sub,) = split_by_provider(inst)
        if sub.num_dcs * sub.num_levels > 10:
            continue
        uflp = to_uflp(sub)
        _, breakdown = opt_cost(inst)
        assert uflp_brute_force(uflp.open_costs, uflp.connection) == breakdown.total


def test_from_uflp_example():
    doc = {
        "facilities": [
            {"id": "f1", "open_cost": "5.000000"},
            {"id": "f2", "open_cost": "7.000000"},
        ],
        "clients": ["c1"],
        "connection": [["4.000000"], ["1.000000"]],
    }
    uflp = uflp_from_json(doc)
    inst = from_uflp(uflp)
    _, breakdown = opt_cost(inst)
    assert breakdown.total == 8
    assert uflp_brute_force(uflp.open_costs, uflp.connection) == 8


def test_from_uflp_single_facility():
    uflp = uflp_from_json(
        {
            "facilities": [{"id": "f1", "open_cost": "2.000000"}],
            "clients": ["c1", "c2"],
            "connection": [["1.000000", "3.000000"]],
        }
    )
    inst = from_uflp(uflp)
    _, breakdown = opt_cost(inst)
    assert breakdown.total == 6


def test_uflp_round_trip_preserves_optimum():
    rng = random.Random(2024)
    for _ in range(40):
        num_fac = rng.randint(1, 3)
        num_clients = rng.randint(1, 4)
        doc = {
            "facilities": [
                {"id": f"f{j}", "open_cost": str(rng.randint(0, 9))} for j in range(num_fac)
            ],
            "clients": [f"c{i}" for i in range(num_clients)],
            "connection": [
                [str(rng.randint(0, 9)) for _ in range(num_clients)] for _ in range(num_fac)
            ],
        }
        uflp = uflp_from_json(doc)
        optimum = uflp_brute_force(uflp.open_costs, uflp.connection)
        inst = from_uflp(uflp)
        _, breakdown = opt_cost(inst)
        assert breakdown.total == optimum
        (sub,) = split_by_provider(inst)
        again = to_uflp(sub)
        assert uflp_brute_force(again.open_costs, again.connection) == optimum


def test_uflp_json_round_trip(instance_a):
    (sub,) = split_by_provider(instance_a)
    uflp = to_uflp(sub)
    assert uflp_from_json(uflp_to_json(uflp)) == uflp
    dense = uflp_to_json(uflp, dense=True)
    assert all(v is not None for row in dense["connection"] for v in row)
    # Big-M: 1 + sum of opening costs + each client's worst allowed cost,
    # here 3 (fee 3 + alpha 0) for all four clients.
    assert uflp.big_m() == 1 + 22 + 4 * 3
