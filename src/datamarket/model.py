"""Market data model: instances, plans, validation, and exact cost evaluation.

A MarketInstance describes providers (quality-level menus with fees and
provider-to-data-center transfer costs), data centers, clients (minimum
quality demands), and an execution-cost model for data-center-to-client
transfers, under per-query or bulk contracting. A Plan fixes the binary
purchase / placement / assignment decisions; evaluate_cost prices it exactly.

All types are immutable after construction and all operations are pure
functions, so instances, plans, and subproblems can be shared freely across
threads.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from datamarket.numeric import (
    MICROS,
    distance_grid,
    format_money,
    geo_point,
    pair_micros,
    to_micros,
    to_rational,
)


# Size ceilings on an instance, which the generator shares: the level menu
# of a provider, the (client, provider) pairs, and in distance mode the
# data-center-by-client cells of the distance table (the generator's
# largest, 10 data centers by 1,000,000 clients).
MAX_LEVELS = 1024
MAX_CLIENT_PROVIDER_PAIRS = 1_000_000
MAX_DISTANCE_CELLS = 10_000_000


class DatamarketError(ValueError):
    """An input or a request `datamarket` refuses with a one-line reason.

    exit_code is the status the command line ends with. template frames the
    message on stderr: {} is the message and {algorithm} the algorithm the
    command ran. Errors that signal a bug in a solver are not of this kind,
    so they keep their traceback.
    """

    exit_code = 2
    template = "{}"


class UnsatisfiableDemand(Exception):
    """A client requires a quality no level of the demanded provider reaches."""


class InfeasiblePlan(Exception):
    """A plan violates a feasibility constraint; message names the first one."""


class MissingBulkFees(Exception):
    """Bulk contracting was requested but a level carries no bulk fee."""


@dataclass(frozen=True)
class QualityLevel:
    """One entry of a provider's menu: quality value, per-query fee, and
    optional one-time bulk fee. A level's number is its 1-based position in
    the menu."""

    quality: Fraction
    per_query_fee: Fraction
    bulk_fee: Fraction | None = None


@dataclass(frozen=True)
class Provider:
    id: str
    levels: tuple[QualityLevel, ...]
    # oper_cost[d][l]: transfer cost from this provider to data center d for
    # quality level l+1. One row per data center, one column per level.
    oper_cost: tuple[tuple[Fraction, ...], ...]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def fee(self, level: int) -> Fraction:
        return self.levels[level - 1].per_query_fee

    def bulk_fee(self, level: int) -> Fraction:
        fee = self.levels[level - 1].bulk_fee
        if fee is None:
            raise MissingBulkFees(f"provider {self.id} level {level} has no bulk fee")
        return fee

    def quality(self, level: int) -> Fraction:
        return self.levels[level - 1].quality


@dataclass(frozen=True)
class DataCenter:
    id: str
    location: tuple[float, float] | None = None


@dataclass(frozen=True)
class Client:
    id: str
    # demands[provider_id] = minimum acceptable quality value
    demands: tuple[tuple[str, Fraction], ...]
    location: tuple[float, float] | None = None


@dataclass(frozen=True)
class ExecCostModel:
    """Execution (data-center-to-client) transfer costs.

    mode "explicit": alpha[provider_id][d][c][l] materialized tensors.
    mode "distance": cost = haversine(dc, client) in gigameters times
    rate_per_gigameter, quantized; level- and provider-independent.
    """

    mode: str  # "explicit" | "distance"
    # Explicit mode: an assertion, checked by validate_instance, that every
    # tensor row is equal across levels. False when absent, in code as in
    # files; distance mode neither reads nor writes it.
    level_independent: bool = False
    alpha: tuple[tuple[str, tuple[tuple[tuple[Fraction, ...], ...], ...]], ...] = ()
    rate_per_gigameter: Fraction | None = None

    def alpha_map(self) -> dict[str, tuple[tuple[tuple[Fraction, ...], ...], ...]]:
        return dict(self.alpha)


@dataclass(frozen=True)
class MarketInstance:
    providers: tuple[Provider, ...]
    data_centers: tuple[DataCenter, ...]
    clients: tuple[Client, ...]
    exec_cost: ExecCostModel
    contracting: str = "per_query"  # "per_query" | "bulk"

    def dc_index(self) -> dict[str, int]:
        return {d.id: i for i, d in enumerate(self.data_centers)}

    def client_index(self) -> dict[str, int]:
        return {c.id: i for i, c in enumerate(self.clients)}


@dataclass(frozen=True)
class Plan:
    """Binary purchase/placement/assignment decisions.

    purchases: (provider_id, level) pairs bought (the z variables).
    placements: (provider_id, dc_id, level) copies stored (the y variables).
    assignments: (provider_id, client_id, dc_id, level) deliveries (the x
    variables).
    """

    purchases: frozenset[tuple[str, int]]
    placements: frozenset[tuple[str, str, int]]
    assignments: frozenset[tuple[str, str, str, int]]

    @staticmethod
    def union(parts: Iterable["Plan"]) -> "Plan":
        """Merge per-provider plans; providers never share a decision."""
        parts = list(parts)
        return Plan(
            frozenset().union(*(p.purchases for p in parts)),
            frozenset().union(*(p.placements for p in parts)),
            frozenset().union(*(p.assignments for p in parts)),
        )


@dataclass(frozen=True)
class CostBreakdown:
    oper: Fraction
    exec: Fraction
    purch: Fraction

    @property
    def total(self) -> Fraction:
        return self.oper + self.exec + self.purch

    def to_json(self) -> dict[str, str]:
        return {
            "oper": format_money(self.oper),
            "exec": format_money(self.exec),
            "purch": format_money(self.purch),
            "total": format_money(self.total),
        }


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ProviderSubproblem:
    """The per-provider decoupled view of an instance.

    Purchasing/placement decisions do not interact across providers, so each
    provider is solved on its own: beta[d][l], fees[l], alpha[l][d][c] for
    only the clients demanding this provider, and each client's demand
    resolved to the smallest feasible level index.

    Every cost here is an int micro-unit (numeric.MICROS per unit of
    money), so the solvers add and compare them as plain ints. fees[l - 1]
    is level l's fee under the contracting mode: the per-query fee of each
    assignment, or the bulk fee of each purchase. alpha is level-major:
    alpha[l - 1] is the data-center-by-client table of level l. The costs
    alone say whether they depend on the level: level_independent is true
    when every level's table is equal. split_by_provider gives every level
    the same table object where the members' costs do not vary (distance
    costs, and explicit tensors whose member cells are equal across levels,
    flagged or not).
    """

    provider_id: str
    fees: tuple[int, ...]  # [l], micro-units
    dc_ids: tuple[str, ...]
    beta: tuple[tuple[int, ...], ...]  # [d][l], micro-units
    client_ids: tuple[str, ...]
    min_levels: tuple[int, ...]  # parallel to client_ids, 1-based
    alpha: tuple[tuple[tuple[int, ...], ...], ...]  # [l][d][c], micro-units
    contracting: str

    @property
    def num_levels(self) -> int:
        return len(self.fees)

    @property
    def level_independent(self) -> bool:
        """Every level's execution-cost table is equal (true for no level).
        count() compares identity first, so a shared table costs O(L)."""
        return not self.alpha or self.alpha.count(self.alpha[0]) == len(self.alpha)

    @property
    def num_dcs(self) -> int:
        return len(self.dc_ids)

    def lower(
        self, placed: Iterable[tuple[int, int]], served: Iterable[tuple[int, int]]
    ) -> Plan:
        """The id-space Plan of index-space decisions.

        placed: the (data center index, level) copies stored; their levels
        are the purchases. served: each client's (data center index, level),
        parallel to client_ids.
        """
        pid = self.provider_id
        placed = set(placed)
        return Plan(
            purchases=frozenset((pid, level) for _, level in placed),
            placements=frozenset((pid, self.dc_ids[d], level) for d, level in placed),
            assignments=frozenset(
                (pid, client_id, self.dc_ids[d], level)
                for client_id, (d, level) in zip(self.client_ids, served, strict=True)
            ),
        )


def exec_cost_value(
    instance: MarketInstance, provider_id: str, dc_idx: int, client_idx: int, level: int
) -> Fraction:
    """alpha_{d,c}(l, p) resolved from the instance's execution-cost model."""
    model = instance.exec_cost
    if model.mode == "distance":
        dc = instance.data_centers[dc_idx]
        client = instance.clients[client_idx]
        if dc.location is None or client.location is None:
            raise ValueError("distance-based execution costs require coordinates")
        rate = model.rate_per_gigameter
        assert rate is not None
        p, q = geo_point(*dc.location), geo_point(*client.location)
        return Fraction(pair_micros(p, q, rate.numerator, rate.denominator), MICROS)
    tensor = model.alpha_map()[provider_id]
    return tensor[dc_idx][client_idx][level - 1]


def min_level_index(provider: Provider, required_quality: Fraction) -> int:
    """Smallest level index whose quality meets the requirement, by binary
    search over the strictly increasing qualities validate_instance checks."""
    k = bisect_left(provider.levels, required_quality, key=lambda lvl: lvl.quality)
    if k == len(provider.levels):
        raise UnsatisfiableDemand(
            f"provider {provider.id}: no level reaches quality {required_quality}"
        )
    return k + 1


def validate_instance(instance: MarketInstance) -> ValidationReport:
    """Check every structural invariant; returns the full violation list."""
    nodes = {
        "provider": instance.providers,
        "data center": instance.data_centers,
        "client": instance.clients,
    }
    problems = [
        f"{kind} id {node.id!r} is not a string"
        for kind, group in nodes.items()
        for node in group
        if not isinstance(node.id, str)
    ]
    if problems:  # the checks below key on ids
        return ValidationReport(tuple(problems))
    for kind, group in nodes.items():
        seen: set[str] = set()
        for node in group:
            if node.id in seen:
                problems.append(f"duplicate {kind} id: {node.id}")
            seen.add(node.id)
            if kind != "provider" and not _on_the_globe(node.location):
                problems.append(
                    f"{kind} {node.id}: location is not a [latitude, longitude] pair in range"
                )
    if instance.clients and not instance.data_centers:
        problems.append("no data center to serve the clients")

    if instance.contracting not in ("per_query", "bulk"):
        problems.append(f"unknown contracting mode: {instance.contracting}")
    pairs = len(instance.clients) * len(instance.providers)
    if pairs > MAX_CLIENT_PROVIDER_PAIRS:
        problems.append(
            f"clients * providers is {pairs:,}, more than {MAX_CLIENT_PROVIDER_PAIRS:,}"
        )

    num_dcs = len(instance.data_centers)
    for p in instance.providers:
        if not p.levels:
            problems.append(f"provider {p.id}: empty level menu")
            continue
        if len(p.levels) > MAX_LEVELS:
            problems.append(
                f"provider {p.id}: {len(p.levels):,} levels, more than {MAX_LEVELS:,}"
            )
        for level, lvl in enumerate(p.levels, start=1):
            if lvl.quality <= 0:
                problems.append(f"provider {p.id} level {level}: quality not positive")
            if lvl.per_query_fee < 0:
                problems.append(f"provider {p.id} level {level}: negative fee")
            if lvl.bulk_fee is not None and lvl.bulk_fee < 0:
                problems.append(f"provider {p.id} level {level}: negative bulk fee")
        for a, b in zip(p.levels, p.levels[1:]):
            if b.quality <= a.quality:
                problems.append(f"provider {p.id}: qualities not strictly increasing")
                break
        for a, b in zip(p.levels, p.levels[1:]):
            if b.per_query_fee <= a.per_query_fee:
                problems.append(f"provider {p.id}: fees not strictly increasing")
                break
        if instance.contracting == "bulk" and any(l.bulk_fee is None for l in p.levels):
            problems.append(f"provider {p.id}: bulk contracting but missing bulk fees")
        if len(p.oper_cost) != num_dcs:
            problems.append(
                f"provider {p.id}: oper_cost has {len(p.oper_cost)} rows, expected {num_dcs}"
            )
        for d, row in enumerate(p.oper_cost):
            if len(row) != len(p.levels):
                problems.append(
                    f"provider {p.id}: oper_cost row {d} has {len(row)} columns,"
                    f" expected {len(p.levels)}"
                )
            if any(v < 0 for v in row):
                problems.append(f"provider {p.id}: negative cost in oper_cost row {d}")

    provider_map = {p.id: p for p in instance.providers}
    for c in instance.clients:
        if not c.demands:
            problems.append(f"client {c.id}: no demands")
        demanded: set[str] = set()
        for provider_id, w in c.demands:
            if provider_id in demanded:
                problems.append(f"client {c.id}: duplicate demand on provider {provider_id}")
                continue
            demanded.add(provider_id)
            p = provider_map.get(provider_id)
            if p is None:
                problems.append(f"client {c.id}: unknown provider {provider_id}")
                continue
            if p.levels and w > p.levels[-1].quality:
                problems.append(
                    f"client {c.id}: unsatisfiable demand on provider {provider_id}"
                    f" (wants {w}, best is {p.levels[-1].quality})"
                )

    problems.extend(_validate_exec_model(instance))
    return ValidationReport(tuple(problems))


def _on_the_globe(location) -> bool:
    """True for no location, or a real latitude in [-90, 90] and longitude in
    [-180, 180]; NaN and the infinities compare outside the ranges."""
    if location is None:
        return True
    reals = len(location) == 2 and all(type(v) in (int, float) for v in location)
    return reals and -90 <= location[0] <= 90 and -180 <= location[1] <= 180


def _validate_exec_model(instance: MarketInstance) -> list[str]:
    model = instance.exec_cost
    problems: list[str] = []
    if model.mode == "distance":
        cells = len(instance.data_centers) * len(instance.clients)
        if cells > MAX_DISTANCE_CELLS:
            problems.append(
                f"distance exec model: data_centers * clients is {cells:,},"
                f" more than {MAX_DISTANCE_CELLS:,}"
            )
        if model.rate_per_gigameter is None:
            problems.append("distance exec model: missing rate_per_gigameter")
        elif model.rate_per_gigameter < 0:
            problems.append("distance exec model: negative rate")
        for d in instance.data_centers:
            if d.location is None:
                problems.append(f"distance exec model: data center {d.id} has no location")
        for c in instance.clients:
            if c.location is None:
                problems.append(f"distance exec model: client {c.id} has no location")
        return problems
    if model.mode != "explicit":
        return [f"unknown exec cost mode: {model.mode}"]
    tensors = model.alpha_map()
    num_dcs = len(instance.data_centers)
    num_clients = len(instance.clients)
    for p in instance.providers:
        tensor = tensors.get(p.id)
        if tensor is None:
            problems.append(f"exec model: no alpha tensor for provider {p.id}")
            continue
        if len(tensor) != num_dcs:
            problems.append(f"exec model {p.id}: {len(tensor)} dc rows, expected {num_dcs}")
            continue
        for d, per_client in enumerate(tensor):
            if len(per_client) != num_clients:
                problems.append(
                    f"exec model {p.id}: dc {d} has {len(per_client)} client rows,"
                    f" expected {num_clients}"
                )
                continue
            for ci, per_level in enumerate(per_client):
                if len(per_level) != p.num_levels:
                    problems.append(
                        f"exec model {p.id}: dc {d} client {ci} has {len(per_level)}"
                        f" levels, expected {p.num_levels}"
                    )
                    continue
                if not per_level:
                    continue
                # A row whose levels all equal its first needs only that one
                # sign test; count() compares in C.
                uniform = per_level.count(per_level[0]) == len(per_level)
                if per_level[0] < 0 if uniform else any(v < 0 for v in per_level):
                    problems.append(f"exec model {p.id}: negative cost at dc {d} client {ci}")
                if model.level_independent and not uniform:
                    problems.append(
                        f"exec model {p.id}: marked level-independent but varies with level"
                        f" at dc {d} client {ci}"
                    )
    listed = {p.id for p in instance.providers}
    problems.extend(
        f"exec model: alpha tensor for unknown provider {pid}" for pid in tensors if pid not in listed
    )
    return problems


def split_by_provider(
    instance: MarketInstance, distances: list[list[int]] | None = None
) -> list[ProviderSubproblem]:
    """Decouple the instance into one independent subproblem per provider.

    Each subproblem carries only the clients demanding that provider, in
    instance order, with demands resolved to minimum level indices once per
    distinct quality. Solving the subproblems independently and summing
    costs solves the joint problem.

    Each distinct execution cost is converted once. Distance costs form one
    data-center-by-client table over all clients (distances, the solve's
    distance_table, or one built here when it is not given). An explicit
    tensor is read at the members' cells only, and the costs alone decide:
    when every member cell is equal across its levels, one level is converted
    and every level holds that table; otherwise every level is converted. The
    file's level_independent flag is never read here; validate_instance
    checks it as an assertion about every cell.
    """
    providers = {p.id: p for p in instance.providers}
    members: dict[str, list[int]] = {pid: [] for pid in providers}
    min_levels: dict[str, list[int]] = {pid: [] for pid in providers}
    # Keyed on the demand's (numerator, denominator), which hashes in C.
    level_of: dict[str, dict[tuple[int, int], int]] = {pid: {} for pid in providers}
    for ci, c in enumerate(instance.clients):
        for provider_id, w in c.demands:
            member_idx = members.get(provider_id)
            if member_idx is None or (member_idx and member_idx[-1] == ci):
                continue  # not a provider here, or a second demand on it
            ratio = w.as_integer_ratio()
            level = level_of[provider_id].get(ratio)
            if level is None:
                level = level_of[provider_id][ratio] = min_level_index(providers[provider_id], w)
            member_idx.append(ci)
            min_levels[provider_id].append(level)

    model = instance.exec_cost
    if model.mode == "distance":
        shared = distances if distances is not None else distance_table(instance)
    else:
        tensors = model.alpha_map()
    dc_ids = tuple(d.id for d in instance.data_centers)
    subproblems = []
    for p in instance.providers:
        member_idx = members[p.id]
        if model.mode == "distance":
            alpha = (tuple(map(gather(member_idx), shared)),) * p.num_levels
        else:
            # cells[d][c]: member c's costs at data center d, one per level.
            cells = tuple(map(gather(member_idx), tensors[p.id]))
            uniform = all(cell.count(cell[0]) == len(cell) for row in cells for cell in row)
            alpha = tuple(
                tuple(tuple(to_micros(cell[l]) for cell in row) for row in cells)
                for l in range(1 if uniform else p.num_levels)
            )
            if uniform:
                alpha *= p.num_levels
        fee = p.bulk_fee if instance.contracting == "bulk" else p.fee
        subproblems.append(
            ProviderSubproblem(
                provider_id=p.id,
                fees=tuple(to_micros(fee(l)) for l in range(1, p.num_levels + 1)),
                dc_ids=dc_ids,
                beta=tuple(tuple(map(to_micros, row)) for row in p.oper_cost),
                client_ids=tuple(instance.clients[ci].id for ci in member_idx),
                min_levels=tuple(min_levels[p.id]),
                alpha=alpha,
                contracting=instance.contracting,
            )
        )
    return subproblems


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function taking a row to the tuple of its entries at indices, in
    order; the gather runs in C (operator.itemgetter)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda row: (row[only],)
    return lambda row: ()


def distance_table(instance: MarketInstance) -> list[list[int]] | None:
    """Distance execution costs in micro-units, [d][c] over all clients, or
    None when execution costs are explicit.

    A solver builds it once per solve and hands it to both split_by_provider
    and evaluate_cost.
    """
    model = instance.exec_cost
    if model.mode != "distance":
        return None
    assert model.rate_per_gigameter is not None
    locations = [c.location for c in instance.clients]
    dc_locations = [dc.location for dc in instance.data_centers]
    if None in locations or None in dc_locations:
        raise ValueError("distance-based execution costs require coordinates")
    return distance_grid(dc_locations, locations, model.rate_per_gigameter)


# Projections of a (provider, client, data center, level) assignment.
_CLIENT_PROVIDER = itemgetter(1, 0)
_LEVEL = itemgetter(3)
_PLACEMENT = itemgetter(0, 2, 3)


def _raise_first_bad_assignment(plan: Plan) -> None:
    """Raise InfeasiblePlan for the first assignment, in iteration order,
    that is served from an unplaced copy or repeats a (client, provider)."""
    seen: set[tuple[str, str]] = set()
    for provider_id, client_id, dc_id, level in plan.assignments:
        if (provider_id, dc_id, level) not in plan.placements:
            raise InfeasiblePlan(
                f"assignment ({provider_id}, {client_id}) served from unplaced"
                f" ({dc_id}, level {level})"
            )
        key = (client_id, provider_id)
        if key in seen:
            raise InfeasiblePlan(f"client {client_id} assigned twice for provider {provider_id}")
        seen.add(key)


def check_plan(instance: MarketInstance, plan: Plan) -> None:
    """Raise InfeasiblePlan naming the first violated feasibility constraint.

    The constraints are checked in a fixed order: purchases, placements,
    assignments, each client's demands in instance order, then assignments
    no client demands. Demands are checked against the plan's levels with
    the instance's qualities, never through a ProviderSubproblem, so the
    check stays independent of split_by_provider.
    """
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

    # Every assignment served from a placement, each (client, provider) once:
    # whole-set checks in C, then a walk naming the first offender.
    assignments = plan.assignments
    served = dict(zip(map(_CLIENT_PROVIDER, assignments), map(_LEVEL, assignments)))
    if len(served) != len(assignments) or not plan.placements.issuperset(
        map(_PLACEMENT, assignments)
    ):
        _raise_first_bad_assignment(plan)

    # quality(level) < w once per distinct (provider, level, demand ratio).
    below: dict[tuple[str, int, tuple[int, int]], bool] = {}
    for c in instance.clients:
        for provider_id, w in c.demands:
            level = served.pop((c.id, provider_id), None)
            if level is None:
                raise InfeasiblePlan(f"client {c.id} not served for provider {provider_id}")
            key = (provider_id, level, w.as_integer_ratio())
            short = below.get(key)
            if short is None:
                short = below[key] = providers[provider_id].quality(level) < w
            if short:
                raise InfeasiblePlan(
                    f"client {c.id} served level {level} below demand on provider {provider_id}"
                )
    if served:
        client_id, provider_id = next(iter(served))
        raise InfeasiblePlan(
            f"client {client_id} assigned for provider {provider_id} it does not demand"
        )


def evaluate_cost(
    instance: MarketInstance, plan: Plan, distances: list[list[int]] | None = None
) -> CostBreakdown:
    """Price a feasible plan exactly.

    Operation cost sums beta over placements; execution cost sums alpha over
    assignments; purchasing cost charges the per-query fee once per
    assignment, or the bulk fee once per purchased (provider, level).

    Execution costs are read from one table per call and summed in
    micro-units: the explicit tensors, or the distance table (distances, the
    solve's distance_table, or one built here when it is not given). The
    price never reads a ProviderSubproblem and check_plan checks the plan
    against the instance, so it stays a check on the solvers when it shares
    their distance table; the tests' oracle prices from the Fraction
    distance formula instead.
    """
    check_plan(instance, plan)
    providers = {p.id: p for p in instance.providers}
    dc_index = instance.dc_index()
    client_index = instance.client_index()

    oper = Fraction(0)
    for provider_id, dc_id, level in plan.placements:
        oper += providers[provider_id].oper_cost[dc_index[dc_id]][level - 1]

    if instance.exec_cost.mode == "distance":
        table = distances if distances is not None else distance_table(instance)
        exec_micros = sum(
            table[dc_index[dc_id]][client_index[client_id]]
            for _, client_id, dc_id, _ in plan.assignments
        )
    else:
        tensors = instance.exec_cost.alpha_map()
        exec_micros = sum(
            to_micros(tensors[provider_id][dc_index[dc_id]][client_index[client_id]][level - 1])
            for provider_id, client_id, dc_id, level in plan.assignments
        )

    purch = Fraction(0)
    if instance.contracting == "per_query":
        served = Counter((provider_id, level) for provider_id, _, _, level in plan.assignments)
        for (provider_id, level), count in served.items():
            purch += count * providers[provider_id].fee(level)
    elif instance.contracting == "bulk":
        for provider_id, level in plan.purchases:
            purch += providers[provider_id].bulk_fee(level)

    return CostBreakdown(oper=oper, exec=Fraction(exec_micros, MICROS), purch=purch)


# --- JSON serialization ----------------------------------------------------
#
# Instance files are JSON documents with top-level keys providers,
# data_centers, clients, exec_cost, contracting. All rationals are decimal
# strings quantized at 1e-6. See README for the full schema.


def instance_to_json(instance: MarketInstance) -> dict:
    doc: dict = {
        "contracting": instance.contracting,
        "data_centers": [
            {"id": d.id, **({"location": list(d.location)} if d.location else {})}
            for d in instance.data_centers
        ],
        "providers": [
            {
                "id": p.id,
                "levels": [
                    {
                        "quality": format_money(l.quality),
                        "per_query_fee": format_money(l.per_query_fee),
                        **(
                            {"bulk_fee": format_money(l.bulk_fee)}
                            if l.bulk_fee is not None
                            else {}
                        ),
                    }
                    for l in p.levels
                ],
                "oper_cost": [[format_money(v) for v in row] for row in p.oper_cost],
            }
            for p in instance.providers
        ],
        "clients": [
            {
                "id": c.id,
                "demands": {pid: format_money(w) for pid, w in c.demands},
                **({"location": list(c.location)} if c.location else {}),
            }
            for c in instance.clients
        ],
    }
    model = instance.exec_cost
    if model.mode == "distance":
        doc["exec_cost"] = {
            "mode": "distance",
            "rate_per_gigameter": format_money(model.rate_per_gigameter or Fraction(0)),
        }
    else:
        doc["exec_cost"] = {
            "mode": "explicit",
            "level_independent": model.level_independent,
            "alpha": {
                pid: [
                    [[format_money(v) for v in per_level] for per_level in per_client]
                    for per_client in tensor
                ]
                for pid, tensor in model.alpha
            },
        }
    return doc


_JSON_KINDS = {list: "a list", dict: "an object"}


def _mistyped(path: tuple, expected: str, value) -> TypeError:
    """The TypeError for a JSON node at path that is not what the schema expects."""
    where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).lstrip(".")
    return TypeError(f"{where or 'document'}: expected {expected}, got {type(value).__name__}")


def _expect(kind: type, value, *path):
    """value, if it is the JSON list or object (kind list or dict) the schema
    puts at path; else a TypeError naming the path and the type found."""
    if not isinstance(value, kind):
        raise _mistyped(path, _JSON_KINDS[kind], value)
    return value


def _entries(kind: type, value, *path) -> list:
    """The elements of the JSON list at path, each checked to be of kind."""
    return [_expect(kind, v, *path, i) for i, v in enumerate(_expect(list, value, *path))]


def instance_from_json(doc: dict) -> MarketInstance:
    seen: dict[str, Fraction] = {}

    def rational(value, *path):
        """to_rational of the number cell at path, once per distinct decimal
        string in this document (equal strings share one immutable
        Fraction). A cell that is not a JSON number or string, a boolean
        included, is a TypeError naming the path."""
        if type(value) is str:
            if value not in seen:
                seen[value] = to_rational(value)
            return seen[value]
        if type(value) is int or type(value) is float:
            return to_rational(value)
        raise _mistyped(path, "a number or decimal string", value)

    def cells(values: list, *path) -> tuple[Fraction, ...]:
        """rational of each cell of the JSON list at path; the cells' paths
        are spelled out only to name a refused one."""
        try:
            return tuple(map(rational, values))
        except TypeError:
            return tuple(rational(v, *path, k) for k, v in enumerate(values))

    def location(node: dict, *path):
        if "location" not in node:
            return None
        return tuple(_expect(list, node["location"], *path, "location"))

    def tensor(pid: str, rows):
        path = ("exec_cost", "alpha", pid)
        return tuple(
            tuple(
                cells(per_level, *path, d, c)
                for c, per_level in enumerate(_entries(list, row, *path, d))
            )
            for d, row in enumerate(_entries(list, rows, *path))
        )

    _expect(dict, doc)
    providers = tuple(
        Provider(
            id=p["id"],
            levels=tuple(
                QualityLevel(
                    quality=rational(l["quality"], "providers", i, "levels", k, "quality"),
                    per_query_fee=rational(
                        l["per_query_fee"], "providers", i, "levels", k, "per_query_fee"
                    ),
                    bulk_fee=(
                        rational(l["bulk_fee"], "providers", i, "levels", k, "bulk_fee")
                        if "bulk_fee" in l
                        else None
                    ),
                )
                for k, l in enumerate(_entries(dict, p["levels"], "providers", i, "levels"))
            ),
            oper_cost=tuple(
                cells(row, "providers", i, "oper_cost", d)
                for d, row in enumerate(
                    _entries(list, p["oper_cost"], "providers", i, "oper_cost")
                )
            ),
        )
        for i, p in enumerate(_entries(dict, doc["providers"], "providers"))
    )
    data_centers = tuple(
        DataCenter(id=d["id"], location=location(d, "data_centers", i))
        for i, d in enumerate(_entries(dict, doc["data_centers"], "data_centers"))
    )
    clients = tuple(
        Client(
            id=c["id"],
            demands=tuple(
                (pid, rational(w, "clients", i, "demands", pid))
                for pid, w in _expect(dict, c["demands"], "clients", i, "demands").items()
            ),
            location=location(c, "clients", i),
        )
        for i, c in enumerate(_entries(dict, doc["clients"], "clients"))
    )
    ec = _expect(dict, doc["exec_cost"], "exec_cost")
    if ec["mode"] == "distance":
        exec_cost = ExecCostModel(
            mode="distance",
            rate_per_gigameter=rational(
                ec["rate_per_gigameter"], "exec_cost", "rate_per_gigameter"
            ),
        )
    elif ec["mode"] == "explicit":
        tensors = _expect(dict, ec["alpha"], "exec_cost", "alpha")
        flag = ec.get("level_independent", False)
        if type(flag) is not bool:
            raise _mistyped(("exec_cost", "level_independent"), "a boolean", flag)
        exec_cost = ExecCostModel(
            mode="explicit",
            level_independent=flag,
            alpha=tuple((pid, tensor(pid, rows)) for pid, rows in tensors.items()),
        )
    else:
        raise ValueError(f"exec_cost.mode: expected 'distance' or 'explicit', got {ec['mode']!r}")
    return MarketInstance(
        providers=providers,
        data_centers=data_centers,
        clients=clients,
        exec_cost=exec_cost,
        contracting=doc["contracting"],
    )


def load_instance(path: str) -> MarketInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


def dump_instance(instance: MarketInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def plan_to_json(plan: Plan) -> dict:
    return {
        "purchases": sorted([pid, lvl] for pid, lvl in plan.purchases),
        "placements": sorted([pid, dc, lvl] for pid, dc, lvl in plan.placements),
        "assignments": sorted([pid, cid, dc, lvl] for pid, cid, dc, lvl in plan.assignments),
    }
