"""Two-step purchasing and placement for a geo-distributed data cloud.

The joint problem is NP-hard, but it decomposes well in practice: Step 1
fixes the purchasing decisions by treating the whole cloud as one data
center with transformed operation costs beta*(l): it is the
single-data-center solver run on beta*, bulk rule included. Step 2 then
places each purchased level on the replica set (a subset of data centers,
capped at max_replicas members) minimizing placement plus delivery cost for
the clients that level serves; given Step 1 this is a closed-form argmin.
The catalog holds each subset's placement cost only: a subset's delivery
cost for a client group is priced from the provider's D x C execution-cost
rows, restricted to the group, when Step 2 (or the parametric transform)
asks for it.

The conservative transform beta*(l) = min over subsets of beta_v(l) makes
Step 1's per-query objective a lower bound on the operation-plus-purchasing
cost of the true optimum. The parametric transform adds a decay-weighted
share of delivery costs (mu1, mu2 knobs, ignored under bulk contracting);
the default mu1 = mu2 = 0 keeps the conservative choice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from datamarket.model import (
    CostBreakdown,
    DatamarketError,
    MarketInstance,
    Plan,
    ProviderSubproblem,
    distance_table,
    evaluate_cost,
    gather,
    split_by_provider,
)
from datamarket.numeric import quantize
from datamarket.single_dc import (
    LevelDependentCosts,
    SingleDcPlan,
    _solve_categories,
    categorize,
    top_level_plan,
)

ZERO = Fraction(0)


class CatalogTooLarge(DatamarketError):
    """The replica-subset family exceeds CATALOG_CEILING."""

    exit_code = 3
    template = "replica catalog too large: {} (lower --max-replicas)"


# Largest replica-subset family a catalog may hold.
CATALOG_CEILING = 4096


@dataclass(frozen=True)
class DatumConfig:
    max_replicas: int = 2
    mu1: Fraction = ZERO
    mu2: Fraction = ZERO

    def replica_cap(self, num_dcs: int) -> int:
        """The replica cap Datum uses on num_dcs data centers: a max_replicas
        above num_dcs means all of them."""
        return min(self.max_replicas, num_dcs)


Placements = tuple[tuple[int, tuple[int, ...]], ...]  # (level, subset) per level bought


@dataclass(frozen=True)
class SubsetCatalog:
    """Candidate replica sets with their placement costs, in int micro-units.

    beta_v[k][l]: total placement cost of storing level l+1 on every member
    of subset k. Delivery costs are not tabled per subset: _subset_delivery
    prices them per client group from the provider's D x C rows.
    """

    subsets: tuple[tuple[int, ...], ...]
    beta_v: tuple[tuple[int, ...], ...]


def build_subset_catalog_capped(sub: ProviderSubproblem, max_replicas: int) -> SubsetCatalog:
    """All nonempty data-center subsets of size <= max_replicas with their
    exact placement costs (beta_v sums the members). Refuses families larger
    than CATALOG_CEILING, and execution costs that vary with the level."""
    num_dcs = sub.num_dcs
    if not 1 <= max_replicas <= num_dcs:
        raise DatamarketError(f"max_replicas must be in 1..{num_dcs}")
    count = sum(math.comb(num_dcs, k) for k in range(1, max_replicas + 1))
    if count > CATALOG_CEILING:
        raise CatalogTooLarge(f"{count} subsets exceeds the ceiling of {CATALOG_CEILING}")
    if not sub.level_independent:
        raise LevelDependentCosts(f"provider {sub.provider_id}: execution costs vary with level")

    subsets: list[tuple[int, ...]] = []
    for size in range(1, max_replicas + 1):
        subsets.extend(combinations(range(num_dcs), size))

    beta_v = tuple(tuple(map(sum, zip(*(sub.beta[d] for d in v)))) for v in subsets)
    return SubsetCatalog(tuple(subsets), beta_v)


def _client_groups(client_levels: Sequence[int]) -> dict[int, list[int]]:
    """Level -> the clients at that level, in client order."""
    groups: dict[int, list[int]] = {}
    for c, level in enumerate(client_levels):
        groups.setdefault(level, []).append(c)
    return groups


def _group_rows(sub: ProviderSubproblem, group: Sequence[int]) -> Sequence[Sequence[int]]:
    """Each data center's execution costs to the clients of group, in order
    (level-independent costs, so level 1's table)."""
    rows = sub.alpha[0]
    if len(group) == len(sub.client_ids):
        return rows
    return list(map(gather(group), rows))


def _subset_delivery(
    sub: ProviderSubproblem, catalog: SubsetCatalog, group: Sequence[int]
) -> list[int]:
    """Per subset, in catalog order: the cost of serving each client of group
    from its cheapest member. A pair uses min(x, y) = (x + y - |x - y|) / 2,
    exact on ints (the sum is even), so the whole row runs in C."""
    rows = _group_rows(sub, group)
    sums = list(map(sum, rows))
    delivery = []
    for v in catalog.subsets:
        if len(v) == 1:
            delivery.append(sums[v[0]])
        elif len(v) == 2:
            i, j = v
            gap = sum(map(abs, map(operator.sub, rows[i], rows[j])))
            delivery.append((sums[i] + sums[j] - gap) // 2)
        else:
            delivery.append(sum(map(min, *(rows[d] for d in v))))
    return delivery


def transformed_costs(
    catalog: SubsetCatalog,
    sub: ProviderSubproblem,
    mu1: Fraction = ZERO,
    mu2: Fraction = ZERO,
) -> tuple[int | Fraction, ...]:
    """beta*(l): cheapest subset cost, optionally anticipating delivery.

    With mu1 > 0 each subset's score adds, for every client whose minimum
    level l' is at or below l, its delivery cost from the subset weighted by
    exp(-mu2 (l - l')). The exponential weight is the only non-rational
    quantity; it is evaluated in floating point and quantized to 1e-6 before
    entering exact arithmetic, so the anticipation term is a Fraction. With
    mu1 = 0 the scores are the catalog's int micro-units. Either way
    beta*(l) is returned in micro-units: an int, or an exact Fraction when
    mu1 > 0.
    """
    if mu1 < 0 or mu2 < 0:
        raise DatamarketError("mu1 and mu2 must be nonnegative")
    if mu1 > 0:
        # Per minimum level, each subset's delivery cost to that level's clients.
        deliveries = {
            m: _subset_delivery(sub, catalog, group)
            for m, group in _client_groups(sub.min_levels).items()
        }
    beta_star = []
    for l in range(1, sub.num_levels + 1):
        scores = [row[l - 1] for row in catalog.beta_v]
        if mu1 > 0:
            weights = {
                m: quantize(math.exp(-float(mu2) * (l - m))) for m in deliveries if m <= l
            }
            scores = [
                score + mu1 * sum((w * deliveries[m][k] for m, w in weights.items()), ZERO)
                for k, score in enumerate(scores)
            ]
        beta_star.append(min(scores, default=0))
    return tuple(beta_star)


def datum_step1(sub: ProviderSubproblem, beta_star: Sequence[int | Fraction]) -> SingleDcPlan:
    """Solve purchasing as a single data center under the transformed costs,
    in micro-units."""
    return _solve_categories(beta_star, sub.fees, categorize(sub))


def datum_step2(sub: ProviderSubproblem, catalog: SubsetCatalog, s1: SingleDcPlan) -> Placements:
    """Closed-form placement: each purchased level goes to the subset
    minimizing beta_v(l) plus the delivery costs of its client group.

    Ties break toward the smallest subset, then lexicographic member order.
    """
    groups = _client_groups(s1.client_levels(sub))
    placements = []
    for level in sorted(s1.open_levels):
        delivery = _subset_delivery(sub, catalog, groups.get(level, ()))
        scores = [beta[level - 1] + cost for beta, cost in zip(catalog.beta_v, delivery)]
        _, _, best = min(zip(scores, map(len, catalog.subsets), catalog.subsets))
        placements.append((level, best))
    return tuple(placements)


def lower_joint_plan(sub: ProviderSubproblem, placements: Placements, s1: SingleDcPlan) -> Plan:
    """Expand subset placements to per-data-center decisions; each client is
    served at its Step-1 level from the subset member with the cheapest
    delivery (lowest index on ties)."""
    groups = _client_groups(s1.client_levels(sub))
    served: list[tuple[int, int] | None] = [None] * len(sub.client_ids)
    for level, subset in placements:
        group = groups.get(level, ())
        members = sorted(subset)
        if len(members) == 1:
            choices = members * len(group)
        else:
            rows = _group_rows(sub, group)
            # The first minimum of each client's ascending member costs.
            choices = [
                members[costs.index(min(costs))]
                for costs in zip(*(rows[d] for d in members))
            ]
        for c, d in zip(group, choices):
            served[c] = (d, level)
    placed = ((d, level) for level, subset in placements for d in subset)
    return sub.lower(placed, served)


def _solve_provider(sub: ProviderSubproblem, config: DatumConfig) -> Plan:
    """Datum on one provider. Under bulk contracting Step 1 buys only the
    top level, for every client, and Step 2 places it: exact when operation
    and execution costs are level-independent (required), some client
    demands the top level and the catalog holds every subset."""
    catalog = build_subset_catalog_capped(sub, config.replica_cap(sub.num_dcs))
    if sub.contracting == "bulk":
        _require_level_independent(sub)
        s1 = top_level_plan(sub, transformed_costs(catalog, sub))
    else:
        s1 = datum_step1(sub, transformed_costs(catalog, sub, config.mu1, config.mu2))
    return lower_joint_plan(sub, datum_step2(sub, catalog, s1), s1)


def datum_solve(
    instance: MarketInstance, config: DatumConfig | None = None
) -> tuple[Plan, CostBreakdown]:
    """Run the per-provider pipeline, under either contracting mode, and
    price the merged plan."""
    config = config or DatumConfig()
    distances = distance_table(instance)
    plan = Plan.union(
        _solve_provider(sub, config)
        for sub in split_by_provider(instance, distances)
        if sub.client_ids
    )
    return plan, evaluate_cost(instance, plan, distances)


def _require_level_independent(sub: ProviderSubproblem) -> None:
    """Bulk Datum's operation-cost check; the catalog refuses execution
    costs that vary with the level."""
    for row in sub.beta:
        if any(v != row[0] for v in row):
            raise LevelDependentCosts(
                f"provider {sub.provider_id}: operation costs vary with level"
            )
