"""Exact polynomial-time purchasing for a one-data-center market.

With level-independent execution costs, the delivery cost is a constant and
the per-provider problem reduces to choosing which quality levels to open
(paying beta once per level) and which open level serves each client
category (paying the per-query fee per client). Clients sharing a minimum
level index form a category; an optimal solution treats a category
uniformly, so only the category counts matter.

The solve pipeline: build the category LP relaxation, with int
coefficients, and solve it to an extreme point. If the extreme point is
binary, its open levels are the plan and the LP's optimum is its value.
Otherwise compute, for each category, the breakpoint level where the
fractional openings first accumulate to one, substitute the category choices
away as a function of the opening variables, and solve the reduced
interval-constrained LP. That constraint matrix is an interval matrix, hence
totally unimodular, so the reduced LP's extreme points are all binary and
the mapped-back solution is an exact integer optimum; its value is the
reduced optimum plus the constant the substitution took out.

Bulk contracting on a single data center degenerates: top_level_plan buys
the top level alone, optimal only when some client demands that level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from datamarket.lp import EQ, GE, LE, LinearProgram, lp_solve
from datamarket.model import DatamarketError, Plan, ProviderSubproblem
from datamarket.numeric import MICROS

# The programs' costs: int micro-units, or exact Fractions of micro-units
# under Datum's mu1 > 0.
Costs = Sequence[int | Fraction]


class LevelDependentCosts(DatamarketError):
    """A solver that needs costs that do not vary with the level got costs
    that do: the single-data-center reduction (execution costs), Datum's
    subset catalog (execution costs) and bulk Datum (operation costs too)."""

    template = "{algorithm} needs level-independent costs: {}"


class InternalNonBinary(Exception):
    """The reduced LP returned a fractional extreme point; impossible if the
    interval structure (total unimodularity) holds, so it indicates a bug."""


class NoBreakpoint(Exception):
    """Breakpoints are defined only for fractional openings with y(L) = 1."""


@dataclass(frozen=True)
class SingleDcPlan:
    """Binary open-level decisions and the objective, in the units of the
    costs the plan was solved on."""

    open_levels: frozenset[int]
    objective: int | Fraction

    def serving_level(self, min_level: int) -> int:
        """The open level serving clients whose minimum level is min_level:
        the smallest open level at or above it. Fees strictly increase, so
        no other choice is optimal."""
        level = min((level for level in self.open_levels if level >= min_level), default=None)
        if level is None:
            raise AssertionError(f"category {min_level} has no open level at or above it")
        return level

    def client_levels(self, sub: ProviderSubproblem) -> tuple[int, ...]:
        """The level serving each client, parallel to sub.client_ids."""
        serve = {i: self.serving_level(i) for i in set(sub.min_levels)}
        return tuple(map(serve.__getitem__, sub.min_levels))


def categorize(sub: ProviderSubproblem) -> tuple[int, ...]:
    """counts[i-1] = number of clients whose minimum level index is i. Empty
    categories are allowed."""
    if not sub.level_independent:
        raise LevelDependentCosts(f"provider {sub.provider_id}: execution costs vary with level")
    counts = [0] * sub.num_levels
    for lvl in sub.min_levels:
        counts[lvl - 1] += 1
    return tuple(counts)


def _first_reach(y_frac: Sequence[Fraction], i: int) -> int:
    """The breakpoint m_i of category i: cum(y, i..m_i-1) < 1 <= cum(y, i..m_i)."""
    total = 0
    for level in range(i, len(y_frac) + 1):
        total += y_frac[level - 1]
        if total >= 1:
            return level
    raise NoBreakpoint(f"cumulative openings from level {i} never reach 1")


def category_relaxation_lp(beta: Costs, fees: Costs, counts: Sequence[int]) -> LinearProgram:
    """LP relaxation of the category program.

    Variables: y(l) for l = 1..L at indices 0..L-1, then chi_i(l) for each
    nonempty category i and level l >= i.
    """
    levels = len(beta)
    chi_index: dict[tuple[int, int], int] = {}
    at = levels
    for i in range(1, levels + 1):
        if counts[i - 1] == 0:
            continue
        for level in range(i, levels + 1):
            chi_index[(i, level)] = at
            at += 1
    objective = [0] * at
    for level in range(1, levels + 1):
        objective[level - 1] = beta[level - 1]
    for (i, level), j in chi_index.items():
        objective[j] = counts[i - 1] * fees[level - 1]

    rows = []
    for (i, level), j in chi_index.items():
        rows.append(({j: 1, level - 1: -1}, LE, 0))
    for i in range(1, levels + 1):
        if counts[i - 1] == 0:
            continue
        rows.append(({chi_index[(i, level)]: 1 for level in range(i, levels + 1)}, EQ, 1))
    return LinearProgram(tuple(objective), tuple(rows))


def reduced_open_levels_lp(
    beta: Costs, fees: Costs, counts: Sequence[int], m: Sequence[int]
) -> LinearProgram:
    """The opening-variables-only LP obtained by substituting the breakpoint
    expression for the category choices.

    Rows are interval sums (consecutive ones), so the constraint matrix is
    totally unimodular and every extreme point is binary.
    """
    levels = len(beta)
    objective = list(beta)
    rows = []
    for i in range(1, levels + 1):
        if counts[i - 1] == 0:
            continue
        m_i = m[i - 1]
        for level in range(i, m_i):
            objective[level - 1] += counts[i - 1] * (fees[level - 1] - fees[m_i - 1])
        if m_i > i:
            rows.append(({level - 1: 1 for level in range(i, m_i)}, LE, 1))
        rows.append(({level - 1: 1 for level in range(i, m_i + 1)}, GE, 1))
    if counts[levels - 1] > 0:
        rows.append(({levels - 1: 1}, EQ, 1))
    return LinearProgram(tuple(objective), tuple(rows))


def _solve_categories(beta: Costs, fees: Costs, counts: Sequence[int]) -> SingleDcPlan:
    """Exact optimum of the category program for one provider. A binary
    extreme point's value is the plan's: fees strictly increase, so an
    optimal chi serves each category at its smallest open level at or above
    it, which is the serving rule."""
    levels = len(beta)
    sol = lp_solve(category_relaxation_lp(beta, fees, counts))
    if sol.status != "optimal":
        raise AssertionError(f"category relaxation is never {sol.status}")

    if all(v == 0 or v == 1 for v in sol.values):
        return SingleDcPlan(_open_levels(sol.values[:levels]), sol.objective_value)

    # Fractional extreme point: substitute choices away and re-solve over
    # openings only; total unimodularity makes the result binary.
    return solve_from_fractional(beta, fees, counts, sol.values[:levels])


def solve_from_fractional(
    beta: Costs, fees: Costs, counts: Sequence[int], y_frac: Sequence[Fraction]
) -> SingleDcPlan:
    """Recover a binary optimum from any fractional optimal opening vector.

    Computes the per-category breakpoints of y_frac, substitutes the category
    choices away, and solves the reduced interval LP, whose extreme points
    are binary; its open levels are the plan. The substitution serves
    category i at the one open level in [i, m_i), or else at m_i, so the
    reduced objective is the plan's value less the constant
    sum(count_i * fee(m_i)), which is added back.
    """
    m = [_first_reach(y_frac, i) if count else 0 for i, count in enumerate(counts, start=1)]
    reduced = lp_solve(reduced_open_levels_lp(beta, fees, counts, m))
    if reduced.status != "optimal":
        raise AssertionError(f"reduced opening LP is never {reduced.status}")
    if any(v != 0 and v != 1 for v in reduced.values):
        raise InternalNonBinary(f"fractional extreme point in reduced LP: {reduced.values}")
    constant = sum(count * fees[m_i - 1] for count, m_i in zip(counts, m) if count)
    return SingleDcPlan(_open_levels(reduced.values), reduced.objective_value + constant)


def _open_levels(y: Sequence[Fraction]) -> frozenset[int]:
    return frozenset(level for level, v in enumerate(y, start=1) if v == 1)


def _fee_vector(sub: ProviderSubproblem) -> tuple[int, ...]:
    fees = sub.fees
    for a, b in zip(fees, fees[1:]):
        if b <= a:
            raise ValueError(f"provider {sub.provider_id}: fees must strictly increase")
    return fees


def solve_single_dc(sub: ProviderSubproblem) -> SingleDcPlan:
    """Purchasing for a subproblem with one data center: exactly optimal
    under per-query contracting, top_level_plan under bulk contracting.
    Solved on micro-units; the objective is reported as money."""
    if sub.num_dcs != 1:
        raise ValueError("solve_single_dc needs exactly one data center")
    beta = sub.beta[0]
    if sub.contracting == "bulk":
        plan = top_level_plan(sub, beta)
    else:
        plan = _solve_categories(beta, _fee_vector(sub), categorize(sub))
    return replace(plan, objective=Fraction(plan.objective, MICROS))


def top_level_plan(sub: ProviderSubproblem, beta: Sequence[int]) -> SingleDcPlan:
    """Bulk contracting: buy the top level L only and serve every category
    from it, at cost beta(L) + fees(L), in micro-units. On one data center
    this is exactly optimal when some client demands level L."""
    if not any(categorize(sub)):
        return SingleDcPlan(frozenset(), 0)
    top = sub.num_levels
    return SingleDcPlan(frozenset([top]), beta[top - 1] + sub.fees[top - 1])


def lower_single_dc_plan(sub: ProviderSubproblem, plan: SingleDcPlan) -> Plan:
    """Expand a category-level plan into purchase/placement/assignment sets
    for the (single) data center of the subproblem."""
    if sub.num_dcs != 1:
        raise ValueError("lowering needs exactly one data center")
    return sub.lower(
        ((0, level) for level in plan.open_levels),
        ((0, level) for level in plan.client_levels(sub)),
    )
