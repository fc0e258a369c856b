"""Two-step purchasing and placement for a geo-distributed data cloud.

The joint problem is NP-hard, but it decomposes well in practice: Step 1
fixes the purchasing decisions by treating the whole cloud as one data
center with transformed operation costs beta*(l), solved exactly by the
single-data-center algorithm. Step 2 then places each purchased level on
the replica set (a subset of data centers, capped at max_replicas members)
minimizing placement plus delivery cost for the clients that level serves;
given Step 1 this placement is a closed-form argmin per level.

The conservative transform beta*(l) = min over subsets of beta_v(l) makes
Step 1's objective a lower bound on the operation-plus-purchasing cost of
the true optimum. The parametric transform adds a decay-weighted share of
delivery costs (mu1, mu2 knobs); the default mu1 = mu2 = 0 keeps the
conservative choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from datamarket.model import (
    CostBreakdown,
    MarketInstance,
    Plan,
    ProviderSubproblem,
    evaluate_cost,
    split_by_provider,
)
from datamarket.numeric import quantize
from datamarket.single_dc import _solve_categories, categorize

ZERO = Fraction(0)


class CatalogTooLarge(Exception):
    """The replica-subset family exceeds CATALOG_CEILING."""


class LevelDependentCosts(Exception):
    """Bulk placement needs level-independent operation and execution costs."""


# Largest replica-subset family a catalog may hold.
CATALOG_CEILING = 4096


@dataclass(frozen=True)
class DatumConfig:
    max_replicas: int = 2
    mu1: Fraction = ZERO
    mu2: Fraction = ZERO


@dataclass(frozen=True)
class SubsetCatalog:
    """Candidate replica sets with aggregated costs.

    beta_v[k][l]: total placement cost of storing level l+1 on every member
    of subset k. alpha_vc[k][c][l]: cheapest delivery of level l+1 from any
    member of subset k to local client c.
    """

    subsets: tuple[tuple[int, ...], ...]
    beta_v: tuple[tuple[Fraction, ...], ...]
    alpha_vc: tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class TransformedCosts:
    beta_star: tuple[Fraction, ...]


@dataclass(frozen=True)
class StepOneResult:
    """Aggregated purchasing decisions: which levels are bought, which level
    serves each client, and the category program's objective (None when
    Step 1 is skipped, as under bulk contracting)."""

    open_levels: frozenset[int]
    client_levels: tuple[int, ...]  # parallel to the subproblem's client_ids
    objective: Fraction | None = None

    def level_group(self, level: int) -> tuple[int, ...]:
        return tuple(c for c, l in enumerate(self.client_levels) if l == level)


@dataclass(frozen=True)
class JointPlan:
    """Per-level replica choice: at most one subset carries each level."""

    placements: tuple[tuple[int, tuple[int, ...]], ...]  # (level, dc indices)
    client_levels: tuple[int, ...]


def build_subset_catalog_capped(sub: ProviderSubproblem, max_replicas: int) -> SubsetCatalog:
    """All nonempty data-center subsets of size <= max_replicas with exact
    aggregate costs: beta_v sums members, alpha_vc takes the member minimum.
    Refuses families larger than CATALOG_CEILING."""
    num_dcs = sub.num_dcs
    if not 1 <= max_replicas <= num_dcs:
        raise ValueError(f"max_replicas must be in 1..{num_dcs}")
    count = sum(math.comb(num_dcs, k) for k in range(1, max_replicas + 1))
    if count > CATALOG_CEILING:
        raise CatalogTooLarge(f"{count} subsets exceeds the ceiling of {CATALOG_CEILING}")

    subsets: list[tuple[int, ...]] = []
    for size in range(1, max_replicas + 1):
        subsets.extend(combinations(range(num_dcs), size))

    levels = range(sub.num_levels)
    clients = range(len(sub.client_ids))
    beta_v = tuple(
        tuple(sum((sub.beta[d][l] for d in v), ZERO) for l in levels) for v in subsets
    )
    alpha_vc = tuple(
        tuple(tuple(min(sub.alpha[d][c][l] for d in v) for l in levels) for c in clients)
        for v in subsets
    )
    return SubsetCatalog(tuple(subsets), beta_v, alpha_vc)


def transformed_costs(
    catalog: SubsetCatalog,
    sub: ProviderSubproblem,
    mu1: Fraction = ZERO,
    mu2: Fraction = ZERO,
) -> TransformedCosts:
    """beta*(l): cheapest subset cost, optionally anticipating delivery.

    With mu1 > 0 each subset's score adds, for every client whose minimum
    level l' is at or below l, its delivery cost from the subset weighted by
    exp(-mu2 (l - l')). The exponential weight is the only non-rational
    quantity; it is evaluated in floating point and quantized to 1e-6 before
    entering exact arithmetic. mu1 = 0 stays fully rational.
    """
    if mu1 < 0 or mu2 < 0:
        raise ValueError("mu1 and mu2 must be nonnegative")
    beta_star = []
    for l in range(1, sub.num_levels + 1):
        best = None
        for k in range(len(catalog.subsets)):
            score = catalog.beta_v[k][l - 1]
            if mu1 > 0:
                anticipation = ZERO
                for c, min_level in enumerate(sub.min_levels):
                    if min_level <= l:
                        weight = quantize(math.exp(-float(mu2) * (l - min_level)))
                        anticipation += catalog.alpha_vc[k][c][min_level - 1] * weight
                score += mu1 * anticipation
            if best is None or score < best:
                best = score
        beta_star.append(best if best is not None else ZERO)
    return TransformedCosts(tuple(beta_star))


def datum_step1(sub: ProviderSubproblem, tc: TransformedCosts) -> StepOneResult:
    """Solve purchasing as a single data center under the transformed costs."""
    profile = categorize(sub)
    fees = [lvl.per_query_fee for lvl in sub.levels]
    plan = _solve_categories(tc.beta_star, fees, profile.counts)
    choice = plan.choice_map()
    client_levels = tuple(choice[ml] for ml in sub.min_levels)
    return StepOneResult(plan.open_levels, client_levels, plan.objective)


def datum_step2(
    sub: ProviderSubproblem, catalog: SubsetCatalog, s1: StepOneResult
) -> JointPlan:
    """Closed-form placement: each purchased level goes to the subset
    minimizing beta_v(l) plus the delivery costs of its client group.

    Ties break toward the smallest subset, then lexicographic member order.
    """
    placements = []
    for level in sorted(s1.open_levels):
        group = s1.level_group(level)
        best_k = None
        best_score = None
        for k, subset in enumerate(catalog.subsets):
            score = catalog.beta_v[k][level - 1]
            for c in group:
                score += catalog.alpha_vc[k][c][level - 1]
            if (
                best_score is None
                or score < best_score
                or (
                    score == best_score
                    and (len(subset), subset) < (len(catalog.subsets[best_k]), catalog.subsets[best_k])
                )
            ):
                best_k, best_score = k, score
        placements.append((level, catalog.subsets[best_k]))
    return JointPlan(tuple(placements), s1.client_levels)


def lower_joint_plan(sub: ProviderSubproblem, jp: JointPlan) -> Plan:
    """Expand subset placements to per-data-center decisions; each client is
    served from the subset member with the cheapest delivery (lowest index
    on ties)."""
    subset_of = dict(jp.placements)
    served = [
        (min(subset_of[level], key=lambda d: (sub.alpha[d][c][level - 1], d)), level)
        for c, level in enumerate(jp.client_levels)
    ]
    placed = ((d, level) for level, subset in jp.placements for d in subset)
    return sub.lower(placed, served)


def _catalog(sub: ProviderSubproblem, config: DatumConfig) -> SubsetCatalog:
    return build_subset_catalog_capped(sub, min(config.max_replicas, sub.num_dcs))


def _step1(sub: ProviderSubproblem, catalog: SubsetCatalog, config: DatumConfig) -> StepOneResult:
    return datum_step1(sub, transformed_costs(catalog, sub, config.mu1, config.mu2))


def _solve_provider(sub: ProviderSubproblem, config: DatumConfig) -> Plan:
    """Datum on one provider. Under bulk contracting Step 1 is replaced by
    buying the top level for every client, which needs level-independent
    costs."""
    if sub.contracting == "bulk":
        _require_level_independent(sub)
        top = sub.num_levels
        s1 = StepOneResult(frozenset([top]), (top,) * len(sub.client_ids))
        catalog = _catalog(sub, config)
    else:
        catalog = _catalog(sub, config)
        s1 = _step1(sub, catalog, config)
    return lower_joint_plan(sub, datum_step2(sub, catalog, s1))


def datum_solve(
    instance: MarketInstance, config: DatumConfig | None = None
) -> tuple[Plan, CostBreakdown]:
    """Run the per-provider pipeline and price the merged plan."""
    config = config or DatumConfig()
    if instance.contracting != "per_query":
        raise ValueError("datum_solve handles per-query contracting; use datum_solve_bulk")
    plan = Plan.union(
        _solve_provider(sub, config) for sub in split_by_provider(instance) if sub.client_ids
    )
    return plan, evaluate_cost(instance, plan)


def step1_objective(
    instance: MarketInstance, config: DatumConfig | None = None
) -> Fraction:
    """Total Step-1 objective across providers: transformed operation cost of
    the purchased levels plus per-query fees. With mu1 = 0 this lower-bounds
    the operation-plus-purchasing cost of any feasible solution."""
    config = config or DatumConfig()
    subs = [sub for sub in split_by_provider(instance) if sub.client_ids]
    return sum((_step1(sub, _catalog(sub, config), config).objective for sub in subs), ZERO)


def datum_solve_bulk(
    instance: MarketInstance, config: DatumConfig | None = None
) -> tuple[Plan, CostBreakdown]:
    """Bulk contracting: buy only each provider's top level, then place it
    with the Step-2 argmin. Exact when operation and execution costs are
    level-independent and the top level is demanded."""
    config = config or DatumConfig()
    if instance.contracting != "bulk":
        raise ValueError("datum_solve_bulk needs a bulk-contracting instance")
    plan = Plan.union(
        _solve_provider(sub, config) for sub in split_by_provider(instance) if sub.client_ids
    )
    return plan, evaluate_cost(instance, plan)


def _require_level_independent(sub: ProviderSubproblem) -> None:
    if not sub.level_independent:
        raise LevelDependentCosts(f"provider {sub.provider_id}: execution costs vary with level")
    for row in sub.beta:
        if any(v != row[0] for v in row):
            raise LevelDependentCosts(
                f"provider {sub.provider_id}: operation costs vary with level"
            )
