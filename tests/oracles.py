"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb and shares no code with the library
paths it checks: exhaustive subset enumeration for market optima and UFLP,
the exhaustive support search with no bound but the per-client floor (the
plan the library's bounded search must keep), vertex enumeration for small
LPs, direct evaluation of category programs, the per-assignment
Fraction price with its Fraction distance formula, and the feasibility
check with a Fraction comparison per demand.
The exceptions are `DenseTableau`, the library's simplex tableau with its
pivot swapped for the dense loop, which checks that the sparse pivot takes
the same steps; `breakpoints`, which builds the `Breakpoints` that
`reconstruct_choices` takes with the solver's `single_dc._first_reach`;
`step1_objective`, which sums Datum's public Step 1 over the providers;
`distance_micros` and `distance_cost`, the library's `pair_micros` kernel on
one pair of (latitude, longitude) points, which tests hold against the
Fraction distance formula; `zipf_level`, one level draw from the
generator's `scenario.zipf_table`; and `alpha_vc_datum_solve`, Datum with
its Step 2 priced from a per-client subset table (`alpha_vc_catalog`)
around the library's Step 1, split and price. The plan helpers at the top,
`haversine_gigameters`, `instance_log_ratios`, `breakpoints`,
`reconstruct_choices`, `step1_objective`, `distance_micros`,
`distance_cost` and `zipf_level` are used only by tests. Test-only; never a
runtime dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from datamarket.datum import (
    CATALOG_CEILING,
    CatalogTooLarge,
    DatumConfig,
    build_subset_catalog_capped,
    datum_step1,
    transformed_costs,
)
from datamarket.lp import _Tableau
from datamarket.model import (
    CostBreakdown,
    DatamarketError,
    MarketInstance,
    Plan,
    Provider,
    ProviderSubproblem,
    InfeasiblePlan,
    QualityLevel,
    UnsatisfiableDemand,
    evaluate_cost,
    exec_cost_value,
    gather,
    split_by_provider,
)
from datamarket.numeric import (
    MICROS,
    geo_point,
    pair_micros,
    point_gigameters,
    quantize,
    to_micros,
)
from datamarket.rng import SplitMix64
from datamarket.scenario import zipf_table
from datamarket.single_dc import LevelDependentCosts, NoBreakpoint, _first_reach, top_level_plan

ZERO = Fraction(0)
ONE = Fraction(1)


def empty_plan() -> Plan:
    return Plan(frozenset(), frozenset(), frozenset())


def served_level(plan: Plan) -> dict[tuple[str, str], tuple[str, int]]:
    """(client, provider) -> (data center, level), recomputed from x."""
    return {
        (client_id, provider_id): (dc_id, level)
        for provider_id, client_id, dc_id, level in plan.assignments
    }


def plan_from_json(doc: dict) -> Plan:
    return Plan(
        purchases=frozenset((pid, int(lvl)) for pid, lvl in doc["purchases"]),
        placements=frozenset((pid, dc, int(lvl)) for pid, dc, lvl in doc["placements"]),
        assignments=frozenset(
            (pid, cid, dc, int(lvl)) for pid, cid, dc, lvl in doc["assignments"]
        ),
    )


def min_level_scan(provider: Provider, required_quality: Fraction) -> int:
    """Smallest level index whose quality meets the requirement, by a scan
    from the lowest level."""
    for level, lvl in enumerate(provider.levels, start=1):
        if lvl.quality >= required_quality:
            return level
    raise UnsatisfiableDemand(
        f"provider {provider.id}: no level reaches quality {required_quality}"
    )


def haversine_gigameters(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, in gigameters (1e6 km)."""
    return point_gigameters(geo_point(lat1, lon1), geo_point(lat2, lon2))


def distance_cost_oracle(lat1, lon1, lat2, lon2, rate) -> Fraction:
    """Haversine gigameters times the rate, quantized as a Fraction."""
    return quantize(Fraction(haversine_gigameters(lat1, lon1, lat2, lon2)) * rate)


def distance_micros(
    lat1: float, lon1: float, lat2: float, lon2: float, rate_per_gigameter: Fraction
) -> int:
    """pair_micros of two (latitude, longitude) points."""
    return pair_micros(
        geo_point(lat1, lon1),
        geo_point(lat2, lon2),
        rate_per_gigameter.numerator,
        rate_per_gigameter.denominator,
    )


def distance_cost(
    lat1: float, lon1: float, lat2: float, lon2: float, rate_per_gigameter: Fraction
) -> Fraction:
    """distance_micros as money."""
    return Fraction(distance_micros(lat1, lon1, lat2, lon2, rate_per_gigameter), MICROS)


def zipf_level(rng: SplitMix64, num_levels: int, shape: float) -> int:
    """One level draw from the generator's Zipf table."""
    ranked, weights = zipf_table(num_levels, shape)
    return ranked[rng.weighted_index(weights)]


def exec_cost_oracle(instance: MarketInstance, provider_id, dc_idx, client_idx, level) -> Fraction:
    """One execution cost, recomputed from the instance on every call."""
    model = instance.exec_cost
    if model.mode == "distance":
        dc = instance.data_centers[dc_idx]
        client = instance.clients[client_idx]
        return distance_cost_oracle(*dc.location, *client.location, model.rate_per_gigameter)
    return dict(model.alpha)[provider_id][dc_idx][client_idx][level - 1]


def check_plan_oracle(instance: MarketInstance, plan: Plan) -> None:
    """Raise InfeasiblePlan naming the first violated feasibility constraint:
    one membership test per placement and assignment, and a Fraction
    comparison per demand."""
    providers = {p.id: p for p in instance.providers}
    dc_ids = {d.id for d in instance.data_centers}

    for provider_id, level in plan.purchases:
        p = providers.get(provider_id)
        if p is None or not 1 <= level <= p.num_levels:
            raise InfeasiblePlan(f"purchase of unknown provider/level ({provider_id}, {level})")
    for provider_id, dc_id, level in plan.placements:
        p = providers.get(provider_id)
        if p is None or dc_id not in dc_ids or not 1 <= level <= p.num_levels:
            raise InfeasiblePlan(
                f"placement of unknown provider/dc/level ({provider_id}, {dc_id}, {level})"
            )
        if instance.contracting == "bulk" and (provider_id, level) not in plan.purchases:
            raise InfeasiblePlan(
                f"placement ({provider_id}, {dc_id}, {level}) without bulk purchase"
            )

    seen: dict[tuple[str, str], tuple[str, int]] = {}
    for provider_id, client_id, dc_id, level in plan.assignments:
        if (provider_id, dc_id, level) not in plan.placements:
            raise InfeasiblePlan(
                f"assignment ({provider_id}, {client_id}) served from unplaced"
                f" ({dc_id}, level {level})"
            )
        key = (client_id, provider_id)
        if key in seen:
            raise InfeasiblePlan(f"client {client_id} assigned twice for provider {provider_id}")
        seen[key] = (dc_id, level)

    for c in instance.clients:
        for provider_id, w in c.demands:
            assigned = seen.pop((c.id, provider_id), None)
            if assigned is None:
                raise InfeasiblePlan(f"client {c.id} not served for provider {provider_id}")
            _, level = assigned
            if providers[provider_id].quality(level) < w:
                raise InfeasiblePlan(
                    f"client {c.id} served level {level} below demand on provider {provider_id}"
                )
    if seen:
        (client_id, provider_id), _ = next(iter(seen.items()))
        raise InfeasiblePlan(
            f"client {client_id} assigned for provider {provider_id} it does not demand"
        )


def evaluate_cost_oracle(instance: MarketInstance, plan: Plan) -> CostBreakdown:
    """Price a feasible plan one Fraction at a time: beta per placement,
    alpha and the per-query fee per assignment, the bulk fee per purchase."""
    check_plan_oracle(instance, plan)
    providers = {p.id: p for p in instance.providers}
    dc_index = instance.dc_index()
    client_index = instance.client_index()
    oper = exec_total = purch = ZERO
    for provider_id, dc_id, level in plan.placements:
        oper += providers[provider_id].oper_cost[dc_index[dc_id]][level - 1]
    for provider_id, client_id, dc_id, level in plan.assignments:
        exec_total += exec_cost_oracle(
            instance, provider_id, dc_index[dc_id], client_index[client_id], level
        )
        if instance.contracting == "per_query":
            purch += providers[provider_id].fee(level)
    if instance.contracting == "bulk":
        for provider_id, level in plan.purchases:
            purch += providers[provider_id].bulk_fee(level)
    return CostBreakdown(oper=oper, exec=exec_total, purch=purch)


def instance_log_ratios(instance: MarketInstance) -> tuple[float, float]:
    """Realized (log10((alpha+beta)/f), log10(alpha/(beta+f))) of an instance,
    using the same aggregates calibration targets: alpha summed over all
    (data center, client) pairs, beta over (provider, data center) pairs at
    level one, fees over all (provider, level) pairs."""
    alpha_sum = ZERO
    for d in range(len(instance.data_centers)):
        for c in range(len(instance.clients)):
            alpha_sum += exec_cost_value(instance, instance.providers[0].id, d, c, 1)
    beta_sum = sum(
        (p.oper_cost[d][0] for p in instance.providers for d in range(len(instance.data_centers))),
        ZERO,
    )
    fee_sum = sum((l.per_query_fee for p in instance.providers for l in p.levels), ZERO)
    return (
        math.log10(float((alpha_sum + beta_sum) / fee_sum)),
        math.log10(float(alpha_sum / (beta_sum + fee_sum))),
    )


@dataclass(frozen=True)
class Breakpoints:
    """m[i-1] = first level at which cumulative openings from i reach one."""

    m: tuple[int, ...]


def breakpoints(y_frac: Sequence[Fraction]) -> Breakpoints:
    """For each category i, the level m_i with cum(y, i..m_i-1) < 1 <= cum(y, i..m_i)."""
    levels = len(y_frac)
    if levels == 0 or y_frac[-1] != 1:
        raise NoBreakpoint("breakpoints need y(L) = 1")
    return Breakpoints(tuple(_first_reach(y_frac, i) for i in range(1, levels + 1)))


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


def single_dc_brute_force(beta, fees, counts) -> Fraction | None:
    """Minimum of the category program by enumerating all 2^L open sets and
    greedily assigning each category the cheapest open level at or above it."""
    levels = len(beta)
    best = None
    for mask in range(1 << levels):
        open_levels = [l for l in range(1, levels + 1) if mask >> (l - 1) & 1]
        total = sum((beta[l - 1] for l in open_levels), ZERO)
        feasible = True
        for i in range(1, levels + 1):
            if counts[i - 1] == 0:
                continue
            usable = [l for l in open_levels if l >= i]
            if not usable:
                feasible = False
                break
            total += counts[i - 1] * min(fees[l - 1] for l in usable)
        if feasible and (best is None or total < best):
            best = total
    return best


def make_subproblem(beta_vec, fees, counts, bulk_fees=None, contracting="per_query"):
    """Synthetic one-data-center subproblem realizing the given category counts."""
    charged = bulk_fees if contracting == "bulk" else fees
    client_ids = []
    min_levels = []
    for i, count in enumerate(counts, start=1):
        for k in range(count):
            client_ids.append(f"c{i}_{k}")
            min_levels.append(i)
    alpha = ((tuple(to_micros(ZERO) for _ in client_ids),),) * len(fees)
    return ProviderSubproblem(
        provider_id="p",
        fees=tuple(map(to_micros, charged)),
        dc_ids=("dc",),
        beta=(tuple(map(to_micros, beta_vec)),),
        client_ids=tuple(client_ids),
        min_levels=tuple(min_levels),
        alpha=alpha,
        contracting=contracting,
    )


def step1_objective(instance: MarketInstance, config: DatumConfig | None = None) -> Fraction:
    """Total Step-1 objective across providers, as money: transformed
    operation cost of the purchased levels plus per-query fees. With mu1 = 0
    this lower-bounds the operation-plus-purchasing cost of any feasible
    solution under per-query contracting only: it charges per-query fees,
    not bulk fees."""
    config = config or DatumConfig()
    total = ZERO
    for sub in split_by_provider(instance):
        if sub.client_ids:
            catalog = build_subset_catalog_capped(sub, min(config.max_replicas, sub.num_dcs))
            beta_star = transformed_costs(catalog, sub, config.mu1, config.mu2)
            total += datum_step1(sub, beta_star).objective
    return total / MICROS


@dataclass(frozen=True)
class AlphaVcCatalog:
    """The subset catalog as it was with a per-client table: alpha_vc[k][c]
    is the cheapest delivery from any member of subset k to client c."""

    subsets: tuple[tuple[int, ...], ...]
    beta_v: tuple[tuple[int, ...], ...]
    alpha_vc: tuple[tuple[int, ...], ...]


def alpha_vc_catalog(sub: ProviderSubproblem, max_replicas: int) -> AlphaVcCatalog:
    """All nonempty data-center subsets of size <= max_replicas with exact
    aggregate costs: beta_v sums members, alpha_vc takes the member minimum.
    Refuses families larger than CATALOG_CEILING, and execution costs that
    vary with the level."""
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
    rows = sub.alpha[0]
    alpha_vc = tuple(
        rows[v[0]] if len(v) == 1 else tuple(map(min, *(rows[d] for d in v))) for v in subsets
    )
    return AlphaVcCatalog(tuple(subsets), beta_v, alpha_vc)


def alpha_vc_transformed_costs(
    catalog: AlphaVcCatalog,
    sub: ProviderSubproblem,
    mu1: Fraction = ZERO,
    mu2: Fraction = ZERO,
) -> tuple[int | Fraction, ...]:
    """beta*(l) summed from the per-client table."""
    if mu1 < 0 or mu2 < 0:
        raise DatamarketError("mu1 and mu2 must be nonnegative")
    if mu1 > 0:
        by_min_level: dict[int, list[int]] = {}
        for c, min_level in enumerate(sub.min_levels):
            by_min_level.setdefault(min_level, []).append(c)
        # Per subset, the delivery cost summed over each minimum level's clients.
        group_sums = [
            {m: sum(alpha[c] for c in group) for m, group in by_min_level.items()}
            for alpha in catalog.alpha_vc
        ]
    beta_star = []
    for l in range(1, sub.num_levels + 1):
        scores = [row[l - 1] for row in catalog.beta_v]
        if mu1 > 0:
            weights = {
                m: quantize(math.exp(-float(mu2) * (l - m))) for m in by_min_level if m <= l
            }
            scores = [
                score + mu1 * sum((w * sums[m] for m, w in weights.items()), ZERO)
                for score, sums in zip(scores, group_sums)
            ]
        beta_star.append(min(scores, default=0))
    return tuple(beta_star)


def alpha_vc_step2(sub: ProviderSubproblem, catalog: AlphaVcCatalog, s1):
    """Step 2 scored from the per-client table."""
    client_levels = s1.client_levels(sub)
    placements = []
    for level in sorted(s1.open_levels):
        group = [c for c, l in enumerate(client_levels) if l == level]
        rows = catalog.alpha_vc
        if len(group) < len(client_levels):
            rows = map(gather(group), rows)
        scores = [beta[level - 1] + sum(alpha) for beta, alpha in zip(catalog.beta_v, rows)]
        _, _, best = min(zip(scores, map(len, catalog.subsets), catalog.subsets))
        placements.append((level, best))
    return tuple(placements)


def alpha_vc_lower(sub: ProviderSubproblem, placements, s1) -> Plan:
    """Lowering with a per-client (cost, index) key over the subset."""
    subset_of = dict(placements)
    served = [
        (min(subset_of[level], key=lambda d: (sub.alpha[level - 1][d][c], d)), level)
        for c, level in enumerate(s1.client_levels(sub))
    ]
    placed = ((d, level) for level, subset in placements for d in subset)
    return sub.lower(placed, served)


def alpha_vc_datum_solve(
    instance: MarketInstance, config: DatumConfig | None = None
) -> tuple[Plan, CostBreakdown]:
    """datum_solve with Step 2, the mu1 transform and the lowering run on
    the per-client catalog: the reference the table-free pricing must
    match plan for plan and total for total."""
    config = config or DatumConfig()
    plans = []
    for sub in split_by_provider(instance):
        if not sub.client_ids:
            continue
        catalog = alpha_vc_catalog(sub, min(config.max_replicas, sub.num_dcs))
        if sub.contracting == "bulk":
            s1 = top_level_plan(sub, alpha_vc_transformed_costs(catalog, sub))
        else:
            beta_star = alpha_vc_transformed_costs(catalog, sub, config.mu1, config.mu2)
            s1 = datum_step1(sub, beta_star)
        plans.append(alpha_vc_lower(sub, alpha_vc_step2(sub, catalog, s1), s1))
    plan = Plan.union(plans)
    return plan, evaluate_cost(instance, plan)


def random_market(
    rng,
    max_providers=2,
    max_dcs=3,
    max_levels=3,
    max_clients=6,
    bulk=False,
    level_independent_beta=False,
    force_top_demand=False,
):
    """Random multi-provider instance with level-independent execution costs."""
    from datamarket.model import (
        Client,
        DataCenter,
        ExecCostModel,
        MarketInstance,
        Provider,
    )

    num_providers = rng.randint(1, max_providers)
    num_dcs = rng.randint(1, max_dcs)
    num_clients = rng.randint(1, max_clients)
    providers = []
    for p in range(num_providers):
        levels = rng.randint(1, max_levels)
        fees, acc = [], Fraction(0)
        for _ in range(levels):
            acc += Fraction(rng.randint(1, 9), rng.choice([1, 2]))
            fees.append(acc)
        if level_independent_beta:
            col = [Fraction(rng.randint(0, 12)) for _ in range(num_dcs)]
            oper = tuple(tuple(col[d] for _ in range(levels)) for d in range(num_dcs))
        else:
            oper = tuple(
                tuple(Fraction(rng.randint(0, 12)) for _ in range(levels))
                for _ in range(num_dcs)
            )
        providers.append(
            Provider(
                id=f"p{p + 1}",
                levels=tuple(
                    QualityLevel(
                        quality=Fraction(k + 1),
                        per_query_fee=fees[k],
                        bulk_fee=Fraction(rng.randint(0, 9)) if bulk else None,
                    )
                    for k in range(levels)
                ),
                oper_cost=oper,
            )
        )
    clients = []
    for c in range(num_clients):
        demands = [
            (p.id, Fraction(rng.randint(1, p.num_levels)))
            for p in providers
            if rng.random() < 0.7
        ]
        if not demands:
            p = providers[rng.randrange(num_providers)]
            demands = [(p.id, Fraction(rng.randint(1, p.num_levels)))]
        clients.append(Client(id=f"c{c + 1}", demands=tuple(demands)))
    if force_top_demand:
        for p in providers:
            top = Fraction(p.num_levels)
            first = clients[0]
            others = tuple((pid, w) for pid, w in first.demands if pid != p.id)
            clients[0] = Client(id=first.id, demands=others + ((p.id, top),))
            first = clients[0]
    alpha = tuple(
        (
            p.id,
            tuple(
                tuple(
                    (lambda v: tuple(v for _ in range(p.num_levels)))(
                        Fraction(rng.randint(0, 9))
                    )
                    for _ in clients
                )
                for _ in range(num_dcs)
            ),
        )
        for p in providers
    )
    return MarketInstance(
        providers=tuple(providers),
        data_centers=tuple(DataCenter(id=f"dc{d + 1}") for d in range(num_dcs)),
        clients=tuple(clients),
        exec_cost=ExecCostModel(mode="explicit", level_independent=True, alpha=alpha),
        contracting="bulk" if bulk else "per_query",
    )


def market_enumeration(instance: MarketInstance) -> Fraction | None:
    """Joint optimum by full per-provider support enumeration, no pruning.

    Enumerates every subset of (data center, level) placements per provider,
    assigns each client its cheapest feasible open pair, and sums the exact
    provider optima. Returns None if any provider cannot be served.
    """
    from datamarket.model import exec_cost_value

    total = ZERO
    for p in instance.providers:
        members = []
        for ci, c in enumerate(instance.clients):
            for pid, w in c.demands:
                if pid == p.id:
                    members.append((ci, min_level_scan(p, w)))
        items = [
            (d, l)
            for d in range(len(instance.data_centers))
            for l in range(1, p.num_levels + 1)
        ]
        if not members:
            continue
        best = None
        for mask in range(1, 1 << len(items)):
            chosen = [items[k] for k in range(len(items)) if mask >> k & 1]
            cost = sum((p.oper_cost[d][l - 1] for d, l in chosen), ZERO)
            if instance.contracting == "bulk":
                for level in {l for _, l in chosen}:
                    cost += p.bulk_fee(level)
            feasible = True
            for ci, wlvl in members:
                options = []
                for d, l in chosen:
                    if l < wlvl:
                        continue
                    alpha = exec_cost_value(instance, p.id, d, ci, l)
                    fee = p.fee(l) if instance.contracting == "per_query" else ZERO
                    options.append(alpha + fee)
                if not options:
                    feasible = False
                    break
                cost += min(options)
            if feasible and (best is None or cost < best):
                best = cost
        if best is None:
            return None
        total += best
    return total


def reference_search(sub: ProviderSubproblem, minimize_band_only: bool) -> Plan:
    """One provider's exact support search with no bound but the floor.

    The same depth-first order as the library search: items (data center,
    level) d-major, include before exclude, the greedy plan (each demanded
    level at its cheapest data center, lowest index on ties) as the first
    incumbent, a strict `<` update, and each client served by its cheapest
    open item (then lowest level, then lowest data-center index). The only
    prune is the fixed cost plus the sum of each client's cheapest
    assignment, so its plan is the one any valid lower bound must keep.
    """
    items = [(d, l) for d in range(sub.num_dcs) for l in range(1, sub.num_levels + 1)]
    bulk = sub.contracting == "bulk"

    def fee(l):
        return 0 if minimize_band_only or bulk else sub.fees[l - 1]

    def bulk_fees(level_set):
        if minimize_band_only or not bulk:
            return 0
        return sum(sub.fees[l - 1] for l in level_set)

    prefs = []
    for c, need in enumerate(sub.min_levels):
        usable = [
            (sub.alpha[l - 1][d][c] + fee(l), l, d, k)
            for k, (d, l) in enumerate(items)
            if l >= need
        ]
        prefs.append(sorted(usable))
    floor = sum(ranked[0][0] for ranked in prefs)

    def evaluate(open_items):
        total = sum(sub.beta[d][l - 1] for d, l in (items[k] for k in open_items))
        total += bulk_fees({items[k][1] for k in open_items})
        assignment = []
        for ranked in prefs:
            best = next((entry for entry in ranked if entry[3] in open_items), None)
            if best is None:
                return None, None
            assignment.append(best[3])
            total += best[0]
        return total, assignment

    homes = {
        l: min(range(sub.num_dcs), key=lambda d: (sub.beta[d][l - 1], d))
        for l in set(sub.min_levels)
    }
    seed = sorted(items.index((d, l)) for l, d in homes.items())
    incumbent, assignment = evaluate(seed)
    best = (seed, assignment)

    def dfs(k, chosen, beta_sum, level_set):
        nonlocal incumbent, best
        if beta_sum + bulk_fees(level_set) + floor >= incumbent:
            return
        if k == len(items):
            total, assignment = evaluate(chosen)
            if total is not None and total < incumbent:
                incumbent, best = total, (chosen, assignment)
            return
        d, l = items[k]
        dfs(k + 1, chosen + [k], beta_sum + sub.beta[d][l - 1], level_set | {l})
        dfs(k + 1, chosen, beta_sum, level_set)

    dfs(0, [], 0, frozenset())
    open_items, assignment = best
    return sub.lower((items[k] for k in open_items), (items[k] for k in assignment))


def reference_exhaustive(instance: MarketInstance, minimize_band_only: bool) -> Plan:
    """The plan of opt_cost (or, band only, opt_band) by reference_search."""
    return Plan.union(
        reference_search(sub, minimize_band_only)
        for sub in split_by_provider(instance)
        if sub.client_ids
    )


def uflp_brute_force(open_costs, connection) -> Fraction | None:
    """Uncapacitated facility location optimum by open-set enumeration.

    connection[j][i] is the cost of serving client i from facility j, or
    None for a forbidden edge.
    """
    num_fac = len(open_costs)
    num_clients = len(connection[0]) if num_fac else 0
    best = None
    for mask in range(1, 1 << num_fac):
        opened = [j for j in range(num_fac) if mask >> j & 1]
        cost = sum((open_costs[j] for j in opened), ZERO)
        feasible = True
        for i in range(num_clients):
            options = [connection[j][i] for j in opened if connection[j][i] is not None]
            if not options:
                feasible = False
                break
            cost += min(options)
        if feasible and (best is None or cost < best):
            best = cost
    if num_clients == 0:
        return ZERO
    return best


class DenseTableau(_Tableau):
    """The simplex tableau with a dense fraction-free pivot: every entry of
    every other row is recomputed, zero pivot-row cells included."""

    def _pivot(self, r: int, c: int) -> None:
        T, prow, piv, den = self.T, self.T[r], self.T[r][c], self.den
        for row in (*T, self.cost1, self.cost2):
            if row is not prow:
                f = row[c]
                for j in range(self.width + 1):
                    row[j] = (row[j] * piv - f * prow[j]) // den
        self.basis[r] = c
        self.den = abs(piv)
        if piv < 0:
            for row in (*T, self.cost1, self.cost2):
                for j in range(self.width + 1):
                    row[j] = -row[j]


def lp_vertex_enumeration(objective, rows) -> tuple[str, Fraction | None]:
    """Reference optimum for tiny LPs (min c.x, x >= 0) by enumerating basic
    solutions: every n-subset of {constraint hyperplanes + coordinate planes}.

    Rows are sparse ({column: coefficient}, relation, rhs), as the solver
    takes them; they are expanded to dense lists here. Returns (status,
    value) with status "optimal" or "infeasible_or_no_vertex": vertex
    enumeration alone cannot separate an infeasible program from one without
    a vertex, so callers pair it with boundedness knowledge.
    """
    n = len(objective)
    rows = [([coeffs.get(j, ZERO) for j in range(n)], rel, rhs) for coeffs, rel, rhs in rows]
    planes = [(coeffs, rhs) for coeffs, _rel, rhs in rows]
    for j in range(n):
        unit = [ZERO] * n
        unit[j] = Fraction(1)
        planes.append((unit, ZERO))

    best = None
    for subset in combinations(range(len(planes)), n):
        mat = [list(planes[k][0]) for k in subset]
        rhs = [planes[k][1] for k in subset]
        point = _solve_square(mat, rhs)
        if point is None:
            continue
        if any(v < 0 for v in point):
            continue
        ok = True
        for coeffs, rel, b in rows:
            lhs = sum((a * v for a, v in zip(coeffs, point)), ZERO)
            if rel == "<=" and lhs > b or rel == ">=" and lhs < b or rel == "=" and lhs != b:
                ok = False
                break
        if not ok:
            continue
        value = sum((c * v for c, v in zip(objective, point)), ZERO)
        if best is None or value < best:
            best = value
    if best is None:
        return "infeasible_or_no_vertex", None
    return "optimal", best


def _solve_square(mat, rhs):
    """Exact Gaussian elimination; None if the system is singular."""
    n = len(mat)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
