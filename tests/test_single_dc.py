from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from datamarket import single_dc
from datamarket.lp import LpSolution, lp_solve
from datamarket.model import evaluate_cost, split_by_provider
from datamarket.numeric import MICROS, to_micros
from datamarket.single_dc import (
    LevelDependentCosts,
    NoBreakpoint,
    SingleDcPlan,
    _solve_categories,
    categorize,
    lower_single_dc_plan,
    solve_from_fractional,
    solve_single_dc,
)
from oracles import breakpoints, make_subproblem, reconstruct_choices, single_dc_brute_force

F = Fraction
HALF = F(1, 2)


def test_categorize_instance_a(instance_a):
    (sub,) = split_by_provider(instance_a)
    assert categorize(sub) == (3, 1)


def test_categorize_empty():
    sub = make_subproblem([F(10)], [F(1)], [0])
    assert categorize(sub) == (0,)


def test_categorize_all_top():
    sub = make_subproblem([F(1), F(2), F(3)], [F(1), F(2), F(3)], [0, 0, 5])
    assert categorize(sub) == (0, 0, 5)


def test_categorize_rejects_level_dependent_costs():
    sub = make_subproblem([F(1), F(2)], [F(1), F(2)], [1, 0])
    assert sub.level_independent
    bad = replace(sub, alpha=(((0,),), ((1,),)))
    assert not bad.level_independent
    with pytest.raises(LevelDependentCosts):
        categorize(bad)


def test_solve_instance_a(instance_a):
    # Brute force oracle: open {1} infeasible, {2} = 12+4*3 = 24,
    # {1,2} = 22+3+3 = 28. Optimal buys only level 2.
    (sub,) = split_by_provider(instance_a)
    plan = solve_single_dc(sub)
    assert plan.objective == 24
    assert plan.open_levels == frozenset({2})
    assert [plan.serving_level(i) for i in (1, 2)] == [2, 2]


def test_solve_instance_b(instance_b):
    # {1,2} = 1+12+3*1+3 = 19 beats {2} = 24.
    (sub,) = split_by_provider(instance_b)
    plan = solve_single_dc(sub)
    assert plan.objective == 19
    assert plan.open_levels == frozenset({1, 2})
    assert [plan.serving_level(i) for i in (1, 2)] == [1, 2]


def test_solve_single_level():
    sub = make_subproblem([F(10)], [F(1)], [1])
    plan = solve_single_dc(sub)
    assert plan.objective == 11
    assert plan.open_levels == frozenset({1})


def test_serving_level_is_the_smallest_open_level_at_or_above():
    plan = SingleDcPlan(frozenset({1, 3}), F(0))
    assert [plan.serving_level(i) for i in (1, 2, 3)] == [1, 3, 3]
    # No open level serves a category above the top one: a solver bug.
    with pytest.raises(AssertionError, match="^category 4 has no open level at or above it$"):
        plan.serving_level(4)


def test_lowered_plan_costs_match(instance_b):
    (sub,) = split_by_provider(instance_b)
    plan = solve_single_dc(sub)
    lowered = lower_single_dc_plan(sub, plan)
    breakdown = evaluate_cost(instance_b, lowered)
    # Execution costs are all zero here, so the totals coincide.
    assert breakdown.total == plan.objective


def test_breakpoints_examples():
    y = (HALF, HALF, F(1))
    bps = breakpoints(y)
    assert bps.m == (2, 3, 3)
    chi = reconstruct_choices(y, bps)
    assert (chi[(1, 1)], chi[(1, 2)], chi[(1, 3)]) == (HALF, HALF, F(0))
    assert (chi[(2, 2)], chi[(2, 3)]) == (HALF, HALF)
    assert chi[(3, 3)] == 1


def test_breakpoints_top_category():
    bps = breakpoints((F(0), F(1, 4), F(1)))
    assert bps.m[-1] == 3


def test_breakpoints_require_full_top_opening():
    with pytest.raises(NoBreakpoint):
        breakpoints((HALF, HALF))


def test_reconstruction_is_feasible():
    rng = random.Random(7)
    for _ in range(200):
        levels = rng.randint(1, 7)
        y = [F(rng.randint(0, 4), 4) for _ in range(levels - 1)] + [F(1)]
        bps = breakpoints(y)
        chi = reconstruct_choices(y, bps)
        for i in range(1, levels + 1):
            assert i <= bps.m[i - 1] <= levels
            total = sum(chi[(i, level)] for level in range(i, levels + 1))
            assert total == 1
            for level in range(i, levels + 1):
                assert 0 <= chi[(i, level)] <= y[level - 1]


def random_category_problem(rng, max_levels=6, max_clients=30):
    levels = rng.randint(1, max_levels)
    beta = [F(rng.randint(0, 400), rng.choice([1, 2, 5, 10])) for _ in range(levels)]
    fees = []
    acc = F(0)
    for _ in range(levels):
        acc += F(rng.randint(1, 60), rng.choice([1, 2, 4]))
        fees.append(acc)
    counts = [0] * levels
    for _ in range(rng.randint(0, max_clients)):
        counts[rng.randrange(levels)] += 1
    return beta, fees, counts


def test_micro_unit_costs_give_the_money_plans():
    # Datum and single-dc hand the category program int micro-units. Scaling
    # every cost by MICROS keeps the sign of each reduced cost, which is all
    # Bland's rule reads, and the ratio test reads no cost: same pivots, same
    # plan, objective scaled. solve_from_fractional's reduced interval LP is
    # reached from hand-built fractional openings y.
    rng = random.Random(2016)
    sizes = set()
    for _ in range(300):
        beta, fees, counts = random_category_problem(rng, max_levels=16)
        sizes.add(len(beta))
        y = [F(rng.randint(0, 4), 4) for _ in range(len(beta) - 1)] + [F(1)]
        micro_beta, micro_fees = [to_micros(b) for b in beta], [to_micros(f) for f in fees]
        for money, micros in (
            (_solve_categories(beta, fees, counts),
             _solve_categories(micro_beta, micro_fees, counts)),
            (solve_from_fractional(beta, fees, counts, y),
             solve_from_fractional(micro_beta, micro_fees, counts, y)),
        ):
            assert micros.open_levels == money.open_levels
            assert micros.objective == money.objective * MICROS
    assert 16 in sizes


def test_random_problems_match_brute_force():
    rng = random.Random(1234)
    for _ in range(300):
        beta, fees, counts = random_category_problem(rng)
        sub = make_subproblem(beta, fees, counts)
        plan = solve_single_dc(sub)
        assert plan.objective == single_dc_brute_force(beta, fees, counts)
        populated = [i for i in range(1, len(counts) + 1) if counts[i - 1] > 0]
        # Binary output plus feasibility of every serving level.
        for i in populated:
            assert i <= plan.serving_level(i) and plan.serving_level(i) in plan.open_levels
        # Top category, when populated, is served at the top level.
        if counts[-1] > 0:
            assert plan.serving_level(len(counts)) == len(counts)
        # Monotone assignment: each category takes the cheapest open level
        # at or above its index.
        for i in populated:
            cheapest = min(fees[l - 1] for l in plan.open_levels if l >= i)
            assert fees[plan.serving_level(i) - 1] == cheapest


@pytest.mark.parametrize("fees", [[2, 2], [3, 2]])
def test_fees_that_do_not_strictly_increase_are_refused(fees):
    sub = make_subproblem([3, 4], fees, [1, 1])
    with pytest.raises(ValueError, match="^provider p: fees must strictly increase$"):
        solve_single_dc(sub)


def test_fractional_recovery_path():
    # Mixing two cost-tied binary optima yields a genuinely fractional
    # optimal opening vector; the breakpoint substitution must recover an
    # optimal open set, and its objective (the reduced LP's optimum plus the
    # substitution's constant) must be the brute-force optimum.
    rng = random.Random(4242)
    exercised = 0
    for _ in range(400):
        levels = rng.randint(2, 6)
        beta = [F(rng.randint(0, 6)) for _ in range(levels)]
        fees = []
        acc = F(0)
        for _ in range(levels):
            acc += F(rng.randint(1, 4))
            fees.append(acc)
        counts = [rng.randint(0, 2) for _ in range(levels)]
        counts[-1] = max(counts[-1], 1)  # keep y(L) = 1 so mixtures qualify
        best = single_dc_brute_force(beta, fees, counts)

        optimal_supports = []
        for mask in range(1 << levels):
            opens = [l for l in range(1, levels + 1) if mask >> (l - 1) & 1]
            total = sum((beta[l - 1] for l in opens), F(0))
            ok = True
            for i in range(1, levels + 1):
                if counts[i - 1] == 0:
                    continue
                usable = [l for l in opens if l >= i]
                if not usable:
                    ok = False
                    break
                total += counts[i - 1] * min(fees[l - 1] for l in usable)
            if ok and total == best:
                optimal_supports.append(set(opens))
        if len(optimal_supports) < 2:
            continue
        s1, s2 = rng.sample(optimal_supports, 2)
        y_frac = [
            (F(int(l in s1)) + F(int(l in s2))) / 2 for l in range(1, levels + 1)
        ]
        plan = solve_from_fractional(beta, fees, counts, y_frac)
        assert plan.objective == best
        assert set(plan.open_levels) in optimal_supports
        exercised += 1
    assert exercised > 20


def test_a_fractional_relaxation_goes_to_the_reduced_lp(monkeypatch):
    # beta (1, 1), fees (1, 2), one client per level: opening {2} and
    # opening {1, 2} both cost 5, so their half-half mixture is an optimal
    # relaxation point. The relaxation is made to return that mixture; the
    # reduced LP must still give a binary plan of the same cost.
    beta, fees, counts = [F(1), F(1)], [F(1), F(2)], [1, 1]
    # y(1), y(2), chi_1(1), chi_1(2), chi_2(2)
    mixture = (HALF, F(1), HALF, HALF, F(1))
    calls = []

    def relaxation_then_real(lp):
        calls.append(lp)
        if len(calls) == 1:
            assert len(lp.objective) == len(mixture)
            return LpSolution("optimal", mixture, F(5))
        return lp_solve(lp)

    monkeypatch.setattr(single_dc, "lp_solve", relaxation_then_real)
    plan = _solve_categories(beta, fees, counts)
    assert len(calls) == 2  # the relaxation, then the reduced interval LP
    assert plan.objective == 5 == single_dc_brute_force(beta, fees, counts)
    assert plan.open_levels in (frozenset({2}), frozenset({1, 2}))
    assert plan == solve_from_fractional(beta, fees, counts, mixture[:2])


def test_bulk_buys_top_level_only(instance_a):
    sub = make_subproblem(
        [F(10), F(12)], [F(1), F(3)], [3, 1], bulk_fees=[F(1), F(3)], contracting="bulk"
    )
    plan = solve_single_dc(sub)
    assert plan.open_levels == frozenset({2})
    assert plan.objective == 15  # beta(2) + bulk_fee(2) = 12 + 3
    assert [plan.serving_level(i) for i in (1, 2)] == [2, 2]


def test_bulk_single_level():
    sub = make_subproblem([F(10)], [F(1)], [2], bulk_fees=[F(4)], contracting="bulk")
    plan = solve_single_dc(sub)
    assert plan.open_levels == frozenset({1})
    assert plan.objective == 14


def test_bulk_empty():
    sub = make_subproblem([F(10)], [F(1)], [0], bulk_fees=[F(4)], contracting="bulk")
    plan = solve_single_dc(sub)
    assert plan.open_levels == frozenset()
    assert plan.objective == 0
