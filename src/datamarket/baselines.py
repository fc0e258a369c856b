"""Exact and greedy baselines, plus facility-location conversions.

opt_cost enumerates binary placement supports per provider (providers are
independent) with branch-and-bound pruning and returns the exact optimum.
Its prune uses dual_ascent, Erlenkotter's (1978) lower bound on the facility
location problem that a search node leaves open, in int micro-units.
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
from typing import Sequence

from datamarket.model import (
    Client,
    CostBreakdown,
    DataCenter,
    DatamarketError,
    ExecCostModel,
    MarketInstance,
    Plan,
    Provider,
    ProviderSubproblem,
    QualityLevel,
    _entries,
    _expect,
    distance_table,
    evaluate_cost,
    split_by_provider,
)
from datamarket.numeric import MICROS, format_money, to_rational

ZERO = Fraction(0)

BUDGET_ENV = "DATUM_BUDGET"
# Candidate supports a provider's search may enumerate, unless BUDGET_ENV is set.
DEFAULT_BUDGET = 2**20


class OversizeInstance(DatamarketError):
    """A provider's support space exceeds the enumeration budget."""

    exit_code = 3
    template = "instance too large for exhaustive search: {}"


def _support_budget() -> int:
    """BUDGET_ENV if it is set, else DEFAULT_BUDGET; a value that is not a
    positive integer is refused (exit 2)."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    budget = int(raw) if raw.isascii() and raw.isdigit() else 0
    if budget < 1:
        raise DatamarketError(f"invalid {BUDGET_ENV}: {raw!r} is not a positive integer")
    return budget


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


def dual_ascent(
    open_costs: Sequence[int],
    rows: Sequence[Sequence[tuple[int, int]]],
    stop_at: int | None = None,
) -> int:
    """Erlenkotter's (1978) dual-ascent lower bound on a UFLP optimum.

    open_costs[j] is facility j's opening cost. rows[i] lists client i's
    allowed (facility, connection cost) pairs, cheapest first; every row is
    non-empty. Each client's dual value v_i starts at its cheapest connection
    and rises by at most one breakpoint per pass, while every facility keeps
    sum_i max(0, v_i - c_ij) <= open_costs[j]; sum(v) is then a lower bound
    on the optimum. All ints. The ascent stops early once the bound reaches
    stop_at.
    """
    slack = list(open_costs)
    value = [row[0][1] for row in rows]
    reach = []  # how many of each row's entries cost at most its value
    for row, v in zip(rows, value):
        r = 1
        while r < len(row) and row[r][1] <= v:
            r += 1
        reach.append(r)
    bound = sum(value)
    active = list(range(len(rows)))
    while active and (stop_at is None or bound < stop_at):
        rising = []
        for i in active:
            row, r = rows[i], reach[i]
            step = min(slack[j] for j, _ in row[:r])
            if not step:
                continue  # a facility it reaches is paid for: v_i is final
            v = value[i]
            if r < len(row):
                step = min(step, row[r][1] - v)
            for j, _ in row[:r]:
                slack[j] -= step
            v += step
            while r < len(row) and row[r][1] <= v:
                r += 1
            value[i], reach[i] = v, r
            bound += step
            rising.append(i)
            if stop_at is not None and bound >= stop_at:
                return bound
        active = rising
    return bound


def _facilities(sub: ProviderSubproblem, fees: Sequence[int]):
    """One provider's facility-location form, in int micro-units: the
    (data center, level) items, data-center-major; their opening costs beta;
    and each client's row of allowed (item index, fees[l - 1] + alpha) pairs,
    items below its demanded level left out, ranked by (cost, level, data
    center)."""
    items = [(d, l) for d in range(sub.num_dcs) for l in range(1, sub.num_levels + 1)]
    open_costs = [sub.beta[d][l - 1] for d, l in items]
    rows = []
    for c, need in enumerate(sub.min_levels):
        ranked = sorted(
            (sub.alpha[l - 1][d][c] + fees[l - 1], l, d, k)
            for k, (d, l) in enumerate(items)
            if l >= need
        )
        rows.append([(k, cost) for cost, _, _, k in ranked])
    return items, open_costs, rows


def _search_provider(sub: ProviderSubproblem, minimize_band_only: bool, budget: int) -> Plan:
    """Exact per-provider support search.

    Enumerates subsets of the _facilities items depth-first, include before
    exclude, seeded with the greedy closest-placement plan; a leaf replaces
    the incumbent only when strictly cheaper. A node keeps the client rows
    without its excluded items, so at a leaf each row starts with its
    client's assignment. A node is pruned when a row is empty, or when its
    fixed cost (chosen items' opening costs and bulk fees) plus dual_ascent
    on the residual facility location problem (chosen items open at 0,
    undecided ones at beta) cannot beat the incumbent. Any valid bound keeps
    the first optimal leaf, so it changes the time, not the plan.
    """
    num_items = sub.num_dcs * sub.num_levels
    if 2**num_items > budget:
        raise OversizeInstance(
            f"provider {sub.provider_id}: needs 2^{num_items} supports,"
            f" budget allows {budget} (set {BUDGET_ENV} to raise)"
        )
    charged = not minimize_band_only
    bulk = sub.contracting == "bulk"
    # Per-level fee added to each assignment, and per-level one-time fee.
    zeros = (0,) * sub.num_levels
    fee_of = sub.fees if charged and not bulk else zeros
    bulk_fee_of = sub.fees if charged and bulk else zeros
    items, beta_of, prefs = _facilities(sub, fee_of)

    def bulk_fees(level_set: set[int]) -> int:
        return sum(bulk_fee_of[l - 1] for l in level_set)

    # Greedy seed: each demanded level at its cheapest data center.
    seed_items = sorted(items.index((d, l)) for l, d in _cheapest_homes(sub).items())
    seed_rows = [[kc for kc in row if kc[0] in seed_items] for row in prefs]
    incumbent = sum(beta_of[k] for k in seed_items) + bulk_fees({items[k][1] for k in seed_items})
    incumbent += sum(row[0][1] for row in seed_rows)
    best_sol = (seed_items, [row[0][0] for row in seed_rows])

    chosen: list[int] = []
    # Residual opening costs: a chosen item is already paid for.
    open_cost = list(beta_of)

    def dfs(k: int, beta_sum: int, level_set: set[int], rows: list) -> None:
        """rows: prefs without the excluded items."""
        nonlocal incumbent, best_sol
        fixed = beta_sum + bulk_fees(level_set)
        if k == num_items:
            total = fixed + sum(row[0][1] for row in rows)
            if total < incumbent:
                incumbent = total
                best_sol = (list(chosen), [row[0][0] for row in rows])
            return
        if fixed + dual_ascent(open_cost, rows, incumbent - fixed) >= incumbent:
            return
        l = items[k][1]
        chosen.append(k)
        open_cost[k] = 0
        dfs(k + 1, beta_sum + beta_of[k], level_set if l in level_set else level_set | {l}, rows)
        open_cost[k] = beta_of[k]
        chosen.pop()
        rows = [[kc for kc in row if kc[0] != k] for row in rows]
        if all(rows):
            dfs(k + 1, beta_sum, level_set, rows)

    dfs(0, 0, set(), prefs)
    open_items, assignment = best_sol
    return sub.lower((items[k] for k in open_items), (items[k] for k in assignment))


def _cheapest_homes(sub: ProviderSubproblem) -> dict[int, int]:
    """Each demanded level's data center with the cheapest provider transfer
    (lowest index on ties)."""
    return {
        l: min(range(sub.num_dcs), key=lambda d: (sub.beta[d][l - 1], d))
        for l in set(sub.min_levels)
    }


def _per_provider(instance: MarketInstance, solve) -> tuple[Plan, CostBreakdown]:
    """The union of solve(sub) over the providers with clients, and its cost."""
    distances = distance_table(instance)
    plan = Plan.union(
        solve(sub) for sub in split_by_provider(instance, distances) if sub.client_ids
    )
    return plan, evaluate_cost(instance, plan, distances)


def _exhaustive(instance: MarketInstance, minimize_band_only: bool):
    budget = _support_budget()
    return _per_provider(instance, lambda sub: _search_provider(sub, minimize_band_only, budget))


def opt_cost(instance: MarketInstance) -> tuple[Plan, CostBreakdown]:
    """Exact total-cost optimum by pruned support enumeration per provider."""
    return _exhaustive(instance, minimize_band_only=False)


def opt_band(instance: MarketInstance) -> tuple[Plan, CostBreakdown]:
    """Exact bandwidth-only optimum (operation + execution cost); the
    returned breakdown still prices the chosen plan in full, purchasing
    included. Assignment ties go to the lowest feasible level, then the
    lowest data-center id."""
    return _exhaustive(instance, minimize_band_only=True)


def nearest_dc(instance: MarketInstance) -> tuple[Plan, CostBreakdown]:
    """Greedy: serve clients exactly what they ask for, storing each demanded
    level at the data center with the cheapest provider transfer (lowest id
    on ties)."""
    return _per_provider(instance, _nearest_dc_provider)


def _nearest_dc_provider(sub: ProviderSubproblem) -> Plan:
    home = _cheapest_homes(sub)
    return sub.lower(((d, l) for l, d in home.items()), ((home[l], l) for l in sub.min_levels))


# --- facility location conversions ------------------------------------------


def to_uflp(sub: ProviderSubproblem) -> UflpInstance:
    """Map one provider's subproblem to facility location: a facility per
    (data center, level) item of _facilities, opening at beta, connecting at
    fee + alpha, with below-demand levels forbidden."""
    if sub.contracting != "per_query":
        raise DatamarketError("to_uflp is defined for per-query contracting")
    items, open_costs, rows = _facilities(sub, sub.fees)
    connection = [[None] * len(sub.client_ids) for _ in items]
    for c, row in enumerate(rows):
        for k, cost in row:
            connection[k][c] = Fraction(cost, MICROS)
    return UflpInstance(
        tuple(f"{sub.dc_ids[d]}:l{l}" for d, l in items),
        tuple(Fraction(b, MICROS) for b in open_costs),
        sub.client_ids,
        tuple(map(tuple, connection)),
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
    """Read a UFLP document. A list or object node of the wrong JSON type is
    refused with TypeError naming its path, and a connection matrix that is
    not facilities by clients with ValueError."""
    facilities = _entries(dict, _expect(dict, doc)["facilities"], "facilities")
    rows = _entries(list, doc["connection"], "connection")
    uflp = UflpInstance(
        facility_ids=tuple(f["id"] for f in facilities),
        open_costs=tuple(to_rational(f["open_cost"]) for f in facilities),
        client_ids=tuple(_expect(list, doc["clients"], "clients")),
        connection=tuple(tuple(None if v is None else to_rational(v) for v in row) for row in rows),
    )
    shape = (len(uflp.facility_ids), len(uflp.client_ids))
    if len(uflp.connection) != shape[0] or any(len(row) != shape[1] for row in uflp.connection):
        raise ValueError(f"connection must be {shape[0]} facility rows of {shape[1]} clients")
    return uflp
