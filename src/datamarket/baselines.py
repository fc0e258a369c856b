"""Exact and greedy baselines, plus facility-location conversions.

opt_cost enumerates binary placement supports per provider (providers are
independent) with branch-and-bound pruning and returns the exact optimum.
opt_band minimizes operation plus execution cost only, the usual objective
of geo-distributed analytics systems, and reports the full cost of the plan
it picks. nearest_dc is the greedy rule used in practice: buy exactly what
each client asks for and store it at the data center closest to the
provider.

The problem is interconvertible with non-metric uncapacitated facility
location: to_uflp maps (data center, level) pairs to facilities with
forbidden edges for below-demand levels; from_uflp embeds any UFLP as a
one-provider, one-level market. Forbidden edges stay first-class here;
big-M values materialize only when exporting to dense formats, since M
contaminates exact comparisons.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from datamarket.model import (
    Client,
    CostBreakdown,
    DataCenter,
    ExecCostModel,
    MarketInstance,
    Plan,
    Provider,
    ProviderSubproblem,
    QualityLevel,
    evaluate_cost,
    split_by_provider,
)
from datamarket.numeric import format_money, to_rational

ZERO = Fraction(0)

BUDGET_ENV = "DATUM_BUDGET"


class OversizeInstance(Exception):
    """A provider's support space exceeds the enumeration budget."""


@dataclass(frozen=True)
class ExhaustiveBudget:
    max_supports: int = 2**20

    @staticmethod
    def from_env() -> "ExhaustiveBudget":
        raw = os.environ.get(BUDGET_ENV)
        return ExhaustiveBudget(int(raw)) if raw else ExhaustiveBudget()


@dataclass(frozen=True)
class UflpInstance:
    """Uncapacitated facility location with optional forbidden edges.

    connection[j][i]: cost of serving client i from facility j, None if the
    edge is forbidden.
    """

    facility_ids: tuple[str, ...]
    open_costs: tuple[Fraction, ...]
    client_ids: tuple[str, ...]
    connection: tuple[tuple[Fraction | None, ...], ...]

    def big_m(self) -> Fraction:
        """1 + total opening cost + each client's worst allowed connection."""
        m = Fraction(1) + sum(self.open_costs, ZERO)
        for i in range(len(self.client_ids)):
            allowed = [row[i] for row in self.connection if row[i] is not None]
            if allowed:
                m += max(allowed)
        return m

    def dense_connection(self) -> tuple[tuple[Fraction, ...], ...]:
        m = self.big_m()
        return tuple(tuple(m if v is None else v for v in row) for row in self.connection)


def _search_provider(
    sub: ProviderSubproblem, minimize_band_only: bool, budget: ExhaustiveBudget
) -> Plan:
    """Exact per-provider support search.

    Enumerates subsets of (data center, level) items depth-first, pruning any
    branch whose placement cost (plus bulk fees and a constant per-client
    assignment floor) cannot beat the incumbent. Seeded with the greedy
    closest-placement plan, so the prune is active from the first node.
    """
    num_items = sub.num_dcs * sub.num_levels
    if 2**num_items > budget.max_supports:
        raise OversizeInstance(
            f"provider {sub.provider_id}: needs 2^{num_items} supports,"
            f" budget allows {budget.max_supports} (set {BUDGET_ENV} to raise)"
        )
    items = [(d, l) for d in range(sub.num_dcs) for l in range(1, sub.num_levels + 1)]
    beta_of = [sub.beta[d][l - 1] for d, l in items]
    bulk = sub.contracting == "bulk"

    def assign_cost(k: int, c: int) -> Fraction:
        d, l = items[k]
        cost = sub.alpha[d][c][l - 1]
        if not minimize_band_only and not bulk:
            cost += sub.fee(l)
        return cost

    clients = range(len(sub.client_ids))
    allowed = [
        [k for k, (d, l) in enumerate(items) if l >= sub.min_levels[c]] for c in clients
    ]
    floor = sum((min(assign_cost(k, c) for k in allowed[c]) for c in clients), ZERO)

    def bulk_fees(levels: set[int]) -> Fraction:
        if not bulk or minimize_band_only:
            return ZERO
        return sum((sub.bulk_fee(l) for l in levels), ZERO)

    def evaluate(open_items: list[int]):
        open_set = set(open_items)
        total = sum((beta_of[k] for k in open_items), ZERO)
        total += bulk_fees({items[k][1] for k in open_items})
        assignment = []
        for c in clients:
            usable = [k for k in allowed[c] if k in open_set]
            if not usable:
                return None, None
            best = min(usable, key=lambda k: (assign_cost(k, c), items[k][1], items[k][0]))
            assignment.append(best)
            total += assign_cost(best, c)
        return total, assignment

    # Greedy seed: each demanded level at its cheapest data center.
    seed_items = sorted(items.index((d, l)) for l, d in _cheapest_homes(sub).items())
    incumbent, best_sol = evaluate(seed_items)
    assert incumbent is not None, "validated instances always admit the greedy plan"
    best_sol = (seed_items, best_sol)

    chosen: list[int] = []

    def dfs(k: int, beta_sum: Fraction, level_set: set[int]) -> None:
        nonlocal incumbent, best_sol
        if beta_sum + bulk_fees(level_set) + floor >= incumbent:
            return
        if k == num_items:
            total, assignment = evaluate(chosen)
            if total is not None and total < incumbent:
                incumbent = total
                best_sol = (list(chosen), assignment)
            return
        d, l = items[k]
        chosen.append(k)
        added = l not in level_set
        dfs(k + 1, beta_sum + beta_of[k], level_set | {l} if added else level_set)
        chosen.pop()
        dfs(k + 1, beta_sum, level_set)

    dfs(0, ZERO, set())
    open_items, assignment = best_sol
    return sub.lower((items[k] for k in open_items), (items[k] for k in assignment))


def _cheapest_homes(sub: ProviderSubproblem) -> dict[int, int]:
    """Each demanded level's data center with the cheapest provider transfer
    (lowest index on ties)."""
    return {
        l: min(range(sub.num_dcs), key=lambda d: (sub.beta[d][l - 1], d))
        for l in set(sub.min_levels)
    }


def _exhaustive(instance: MarketInstance, minimize_band_only: bool, budget: ExhaustiveBudget | None):
    budget = budget or ExhaustiveBudget.from_env()
    plan = Plan.union(
        _search_provider(sub, minimize_band_only, budget)
        for sub in split_by_provider(instance)
        if sub.client_ids
    )
    return plan, evaluate_cost(instance, plan)


def opt_cost(
    instance: MarketInstance, budget: ExhaustiveBudget | None = None
) -> tuple[Plan, CostBreakdown]:
    """Exact total-cost optimum by pruned support enumeration per provider."""
    return _exhaustive(instance, minimize_band_only=False, budget=budget)


def opt_band(
    instance: MarketInstance, budget: ExhaustiveBudget | None = None
) -> tuple[Plan, CostBreakdown]:
    """Exact bandwidth-only optimum (operation + execution cost); the
    returned breakdown still prices the chosen plan in full, purchasing
    included. Assignment ties go to the lowest feasible level, then the
    lowest data-center id."""
    return _exhaustive(instance, minimize_band_only=True, budget=budget)


def nearest_dc(instance: MarketInstance) -> tuple[Plan, CostBreakdown]:
    """Greedy: serve clients exactly what they ask for, storing each demanded
    level at the data center with the cheapest provider transfer (lowest id
    on ties)."""
    plan = Plan.union(
        _nearest_dc_provider(sub) for sub in split_by_provider(instance) if sub.client_ids
    )
    return plan, evaluate_cost(instance, plan)


def _nearest_dc_provider(sub: ProviderSubproblem) -> Plan:
    home = _cheapest_homes(sub)
    return sub.lower(((d, l) for l, d in home.items()), ((home[l], l) for l in sub.min_levels))


# --- facility location conversions ------------------------------------------


def to_uflp(sub: ProviderSubproblem) -> UflpInstance:
    """Map one provider's subproblem to facility location: a facility per
    (data center, level) pair opening at beta, connecting at fee + alpha,
    with below-demand levels forbidden."""
    if sub.contracting != "per_query":
        raise ValueError("to_uflp is defined for per-query contracting")
    facility_ids = []
    open_costs = []
    connection = []
    for d in range(sub.num_dcs):
        for l in range(1, sub.num_levels + 1):
            facility_ids.append(f"{sub.dc_ids[d]}:l{l}")
            open_costs.append(sub.beta[d][l - 1])
            connection.append(
                tuple(
                    sub.fee(l) + sub.alpha[d][c][l - 1] if l >= sub.min_levels[c] else None
                    for c in range(len(sub.client_ids))
                )
            )
    return UflpInstance(
        tuple(facility_ids), tuple(open_costs), sub.client_ids, tuple(connection)
    )


def from_uflp(uflp: UflpInstance) -> MarketInstance:
    """Embed facility location as a market: one provider, one level, zero
    fee, a data center per facility, connection costs as execution costs.
    Forbidden edges materialize as big-M in the dense execution tensor."""
    dense = uflp.dense_connection()
    provider = Provider(
        id="p1",
        levels=(QualityLevel(index=1, quality=Fraction(1), per_query_fee=ZERO),),
        oper_cost=tuple((cost,) for cost in uflp.open_costs),
    )
    alpha = tuple(tuple((dense[j][i],) for i in range(len(uflp.client_ids))) for j in range(len(uflp.facility_ids)))
    return MarketInstance(
        providers=(provider,),
        data_centers=tuple(DataCenter(id=f) for f in uflp.facility_ids),
        clients=tuple(
            Client(id=c, demands=(("p1", ZERO),)) for c in uflp.client_ids
        ),
        exec_cost=ExecCostModel(mode="explicit", level_independent=True, alpha=(("p1", alpha),)),
        contracting="per_query",
    )


def uflp_to_json(uflp: UflpInstance, dense: bool = False) -> dict:
    connection = uflp.dense_connection() if dense else uflp.connection
    return {
        "facilities": [
            {"id": f, "open_cost": format_money(c)}
            for f, c in zip(uflp.facility_ids, uflp.open_costs)
        ],
        "clients": list(uflp.client_ids),
        "connection": [
            [None if v is None else format_money(v) for v in row] for row in connection
        ],
    }


def uflp_from_json(doc: dict) -> UflpInstance:
    return UflpInstance(
        facility_ids=tuple(f["id"] for f in doc["facilities"]),
        open_costs=tuple(to_rational(f["open_cost"]) for f in doc["facilities"]),
        client_ids=tuple(doc["clients"]),
        connection=tuple(
            tuple(None if v is None else to_rational(v) for v in row)
            for row in doc["connection"]
        ),
    )
