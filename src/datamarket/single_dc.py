"""Exact polynomial-time purchasing for a one-data-center market.

With level-independent execution costs, the delivery cost is a constant and
the per-provider problem reduces to choosing which quality levels to open
(paying beta once per level) and which open level serves each client
category (paying the per-query fee per client). Clients sharing a minimum
level index form a category; an optimal solution treats a category
uniformly, so only the category counts matter.

The solve pipeline: build the category LP relaxation and solve it to an
extreme point. If the extreme point is binary, done. Otherwise compute, for
each category, the breakpoint level where the fractional openings first
accumulate to one, substitute the category choices away as a function of the
opening variables, and solve the reduced interval-constrained LP. That
constraint matrix is an interval matrix, hence totally unimodular, so the
reduced LP's extreme points are all binary and the mapped-back solution is
an exact integer optimum.

Bulk contracting on a single data center degenerates: the top level alone is
purchased and serves every client.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from datamarket.lp import EQ, GE, LE, LinearProgram, lp_solve
from datamarket.model import Plan, ProviderSubproblem

ZERO = Fraction(0)
ONE = Fraction(1)


class LevelDependentExecCost(Exception):
    """The single-data-center reduction needs level-independent execution costs."""


class InternalNonBinary(Exception):
    """The reduced LP returned a fractional extreme point; impossible if the
    interval structure (total unimodularity) holds, so it indicates a bug."""


class NoBreakpoint(Exception):
    """Breakpoints are defined only for fractional openings with y(L) = 1."""


@dataclass(frozen=True)
class CategoryProfile:
    """counts[i-1] = number of clients whose minimum level index is i."""

    counts: tuple[int, ...]

    @property
    def num_levels(self) -> int:
        return len(self.counts)

    @property
    def num_clients(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class SingleDcPlan:
    """Binary open-level decisions plus each category's chosen level."""

    open_levels: frozenset[int]
    choices: tuple[tuple[int, int], ...]  # (category index, chosen level)
    objective: Fraction

    def choice_map(self) -> dict[int, int]:
        return dict(self.choices)


@dataclass(frozen=True)
class Breakpoints:
    """m[i-1] = first level at which cumulative openings from i reach one."""

    m: tuple[int, ...]


def categorize(sub: ProviderSubproblem) -> CategoryProfile:
    """Count clients per minimum level index. Empty categories are allowed."""
    if not sub.level_independent:
        raise LevelDependentExecCost(
            f"provider {sub.provider_id}: execution costs vary with level"
        )
    counts = [0] * sub.num_levels
    for lvl in sub.min_levels:
        counts[lvl - 1] += 1
    return CategoryProfile(tuple(counts))


def breakpoints(y_frac: Sequence[Fraction]) -> Breakpoints:
    """For each category i, the level m_i with cum(y, i..m_i-1) < 1 <= cum(y, i..m_i)."""
    levels = len(y_frac)
    if levels == 0 or y_frac[-1] != 1:
        raise NoBreakpoint("breakpoints need y(L) = 1")
    return Breakpoints(tuple(_first_reach(y_frac, i) for i in range(1, levels + 1)))


def _first_reach(y_frac: Sequence[Fraction], i: int) -> int:
    total = ZERO
    for level in range(i, len(y_frac) + 1):
        total += y_frac[level - 1]
        if total >= 1:
            return level
    raise NoBreakpoint(f"cumulative openings from level {i} never reach 1")


def reconstruct_choices(
    y_frac: Sequence[Fraction], bps: Breakpoints
) -> dict[tuple[int, int], Fraction]:
    """Category choices as a function of the openings: chi_i(l) = y(l) below
    the breakpoint, the leftover mass exactly at it, zero beyond."""
    chi: dict[tuple[int, int], Fraction] = {}
    for i, m_i in enumerate(bps.m, start=1):
        used = ZERO
        for level in range(i, len(y_frac) + 1):
            if level < m_i:
                chi[(i, level)] = y_frac[level - 1]
                used += y_frac[level - 1]
            elif level == m_i:
                chi[(i, level)] = ONE - used
            else:
                chi[(i, level)] = ZERO
    return chi


def category_relaxation_lp(
    beta: Sequence[Fraction], fees: Sequence[Fraction], counts: Sequence[int]
) -> tuple[LinearProgram, dict[tuple[int, int], int]]:
    """LP relaxation of the category program.

    Variables: y(l) for l = 1..L at indices 0..L-1, then chi_i(l) for each
    nonempty category i and level l >= i. Returns the LP and the chi index map.
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
    objective = [ZERO] * at
    for level in range(1, levels + 1):
        objective[level - 1] = beta[level - 1]
    for (i, level), j in chi_index.items():
        objective[j] = counts[i - 1] * fees[level - 1]

    rows = []
    for (i, level), j in chi_index.items():
        row = [ZERO] * at
        row[j] = ONE
        row[level - 1] = -ONE
        rows.append((tuple(row), LE, ZERO))
    for i in range(1, levels + 1):
        if counts[i - 1] == 0:
            continue
        row = [ZERO] * at
        for level in range(i, levels + 1):
            row[chi_index[(i, level)]] = ONE
        rows.append((tuple(row), EQ, ONE))
    return LinearProgram(tuple(objective), tuple(rows)), chi_index


def reduced_open_levels_lp(
    beta: Sequence[Fraction],
    fees: Sequence[Fraction],
    counts: Sequence[int],
    m: Sequence[int],
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
            row = [ZERO] * levels
            for level in range(i, m_i):
                row[level - 1] = ONE
            rows.append((tuple(row), LE, ONE))
        row = [ZERO] * levels
        for level in range(i, m_i + 1):
            row[level - 1] = ONE
        rows.append((tuple(row), GE, ONE))
    if counts[levels - 1] > 0:
        row = [ZERO] * levels
        row[levels - 1] = ONE
        rows.append((tuple(row), EQ, ONE))
    return LinearProgram(tuple(objective), tuple(rows))


def _solve_categories(
    beta: Sequence[Fraction], fees: Sequence[Fraction], counts: Sequence[int]
) -> SingleDcPlan:
    """Exact optimum of the category program for one provider."""
    levels = len(beta)
    nonempty = [i for i in range(1, levels + 1) if counts[i - 1] > 0]
    if not nonempty:
        return SingleDcPlan(frozenset(), (), ZERO)

    relaxation, chi_index = category_relaxation_lp(beta, fees, counts)
    sol = lp_solve(relaxation)
    if sol.status != "optimal":
        raise AssertionError(f"category relaxation is never {sol.status}")

    if all(v == 0 or v == 1 for v in sol.values):
        open_levels = frozenset(
            level for level in range(1, levels + 1) if sol.values[level - 1] == 1
        )
        choices = tuple(
            (i, next(level for level in range(i, levels + 1) if sol.values[chi_index[(i, level)]] == 1))
            for i in nonempty
        )
        return _finish(beta, fees, counts, open_levels, choices)

    # Fractional extreme point: substitute choices away and re-solve over
    # openings only; total unimodularity makes the result binary.
    return solve_from_fractional(beta, fees, counts, sol.values[:levels])


def solve_from_fractional(
    beta: Sequence[Fraction],
    fees: Sequence[Fraction],
    counts: Sequence[int],
    y_frac: Sequence[Fraction],
) -> SingleDcPlan:
    """Recover a binary optimum from any fractional optimal opening vector.

    Computes the per-category breakpoints of y_frac, substitutes the category
    choices away, and solves the reduced interval LP, whose extreme points
    are binary; maps the result back to open levels and category choices.
    """
    levels = len(beta)
    nonempty = [i for i in range(1, levels + 1) if counts[i - 1] > 0]
    m = [0] * levels
    for i in nonempty:
        m[i - 1] = _first_reach(y_frac, i)
    reduced = lp_solve(reduced_open_levels_lp(beta, fees, counts, m))
    if reduced.status != "optimal":
        raise AssertionError(f"reduced opening LP is never {reduced.status}")
    if any(v != 0 and v != 1 for v in reduced.values):
        raise InternalNonBinary(f"fractional extreme point in reduced LP: {reduced.values}")
    open_levels = frozenset(
        level for level in range(1, levels + 1) if reduced.values[level - 1] == 1
    )
    choices = []
    for i in nonempty:
        below = next((level for level in range(i, m[i - 1]) if level in open_levels), None)
        choices.append((i, below if below is not None else m[i - 1]))
    return _finish(beta, fees, counts, open_levels, tuple(choices))


def _finish(
    beta: Sequence[Fraction],
    fees: Sequence[Fraction],
    counts: Sequence[int],
    open_levels: frozenset[int],
    choices: tuple[tuple[int, int], ...],
) -> SingleDcPlan:
    objective = sum((beta[level - 1] for level in open_levels), ZERO)
    for i, level in choices:
        if level not in open_levels or level < i:
            raise AssertionError(f"category {i} mapped to unusable level {level}")
        objective += counts[i - 1] * fees[level - 1]
    return SingleDcPlan(open_levels, choices, objective)


def _fee_vector(sub: ProviderSubproblem) -> list[Fraction]:
    fees = [lvl.per_query_fee for lvl in sub.levels]
    for a, b in zip(fees, fees[1:]):
        if b <= a:
            raise ValueError(f"provider {sub.provider_id}: fees must strictly increase")
    return fees


def solve_single_dc(sub: ProviderSubproblem) -> SingleDcPlan:
    """Exactly optimal purchasing for a subproblem with one data center."""
    if sub.num_dcs != 1:
        raise ValueError("solve_single_dc needs exactly one data center")
    profile = categorize(sub)
    return _solve_categories(sub.beta[0], _fee_vector(sub), profile.counts)


def solve_single_dc_bulk(sub: ProviderSubproblem) -> SingleDcPlan:
    """Bulk contracting on one data center: buy the top level only.

    With some client demanding the top level this is exactly optimal; the
    plan serves every category from level L at cost beta(L) + bulk_fee(L).
    """
    if sub.num_dcs != 1:
        raise ValueError("solve_single_dc_bulk needs exactly one data center")
    profile = categorize(sub)
    if profile.num_clients == 0:
        return SingleDcPlan(frozenset(), (), ZERO)
    top = sub.num_levels
    objective = sub.beta[0][top - 1] + sub.bulk_fee(top)
    choices = tuple((i, top) for i in range(1, top + 1) if profile.counts[i - 1] > 0)
    return SingleDcPlan(frozenset([top]), choices, objective)


def lower_single_dc_plan(sub: ProviderSubproblem, plan: SingleDcPlan) -> Plan:
    """Expand a category-level plan into purchase/placement/assignment sets
    for the (single) data center of the subproblem."""
    if sub.num_dcs != 1:
        raise ValueError("lowering needs exactly one data center")
    choice = plan.choice_map()
    return sub.lower(
        ((0, level) for level in plan.open_levels),
        ((0, choice[min_level]) for min_level in sub.min_levels),
    )
