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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from datamarket.numeric import distance_cost, format_money, to_rational


class UnsatisfiableDemand(Exception):
    """A client requires a quality no level of the demanded provider reaches."""


class InfeasiblePlan(Exception):
    """A plan violates a feasibility constraint; message names the first one."""


class MissingBulkFees(Exception):
    """Bulk contracting was requested but a level carries no bulk fee."""


@dataclass(frozen=True)
class QualityLevel:
    """One entry of a provider's menu: 1-based ordinal, quality value,
    per-query fee, and optional one-time bulk fee."""

    index: int
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
    level_independent: bool = True
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
    variables). Assignments are authoritative; served_level is derived.
    """

    purchases: frozenset[tuple[str, int]]
    placements: frozenset[tuple[str, str, int]]
    assignments: frozenset[tuple[str, str, str, int]]

    @staticmethod
    def empty() -> "Plan":
        return Plan(frozenset(), frozenset(), frozenset())

    @staticmethod
    def union(parts: Iterable["Plan"]) -> "Plan":
        """Merge per-provider plans; providers never share a decision."""
        parts = list(parts)
        return Plan(
            frozenset().union(*(p.purchases for p in parts)),
            frozenset().union(*(p.placements for p in parts)),
            frozenset().union(*(p.assignments for p in parts)),
        )

    def served_level(self) -> dict[tuple[str, str], tuple[str, int]]:
        """(client, provider) -> (data center, level), recomputed from x."""
        served: dict[tuple[str, str], tuple[str, int]] = {}
        for provider_id, client_id, dc_id, level in self.assignments:
            served[(client_id, provider_id)] = (dc_id, level)
        return served


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
    provider is solved on its own: beta[d][l], fees f(l), alpha[d][c][l] for
    only the clients demanding this provider, and each client's demand
    resolved to the smallest feasible level index.
    """

    provider_id: str
    levels: tuple[QualityLevel, ...]
    dc_ids: tuple[str, ...]
    beta: tuple[tuple[Fraction, ...], ...]  # [d][l]
    client_ids: tuple[str, ...]
    min_levels: tuple[int, ...]  # parallel to client_ids, 1-based
    alpha: tuple[tuple[tuple[Fraction, ...], ...], ...]  # [d][c][l]
    level_independent: bool
    contracting: str

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_dcs(self) -> int:
        return len(self.dc_ids)

    def fee(self, level: int) -> Fraction:
        return self.levels[level - 1].per_query_fee

    def bulk_fee(self, level: int) -> Fraction:
        fee = self.levels[level - 1].bulk_fee
        if fee is None:
            raise MissingBulkFees(f"provider {self.provider_id} level {level} has no bulk fee")
        return fee

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
        assert model.rate_per_gigameter is not None
        return distance_cost(*dc.location, *client.location, model.rate_per_gigameter)
    tensor = model.alpha_map()[provider_id]
    return tensor[dc_idx][client_idx][level - 1]


def min_level_index(provider: Provider, required_quality: Fraction) -> int:
    """Smallest level index whose quality meets the requirement."""
    for lvl in provider.levels:
        if lvl.quality >= required_quality:
            return lvl.index
    raise UnsatisfiableDemand(
        f"provider {provider.id}: no level reaches quality {required_quality}"
    )


def validate_instance(instance: MarketInstance) -> ValidationReport:
    """Check every structural invariant; returns the full violation list."""
    problems: list[str] = []

    def dup(ids: Iterable[str], kind: str) -> None:
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                problems.append(f"duplicate {kind} id: {i}")
            seen.add(i)

    dup((p.id for p in instance.providers), "provider")
    dup((d.id for d in instance.data_centers), "data center")
    dup((c.id for c in instance.clients), "client")

    if instance.contracting not in ("per_query", "bulk"):
        problems.append(f"unknown contracting mode: {instance.contracting}")

    num_dcs = len(instance.data_centers)
    for p in instance.providers:
        if not p.levels:
            problems.append(f"provider {p.id}: empty level menu")
            continue
        for k, lvl in enumerate(p.levels):
            if lvl.index != k + 1:
                problems.append(f"provider {p.id}: level index {lvl.index} at position {k + 1}")
            if lvl.quality <= 0:
                problems.append(f"provider {p.id} level {lvl.index}: quality not positive")
            if lvl.per_query_fee < 0:
                problems.append(f"provider {p.id} level {lvl.index}: negative fee")
            if lvl.bulk_fee is not None and lvl.bulk_fee < 0:
                problems.append(f"provider {p.id} level {lvl.index}: negative bulk fee")
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
        for provider_id, w in c.demands:
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


def _validate_exec_model(instance: MarketInstance) -> list[str]:
    model = instance.exec_cost
    problems: list[str] = []
    if model.mode == "distance":
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
                if any(v < 0 for v in per_level):
                    problems.append(f"exec model {p.id}: negative cost at dc {d} client {ci}")
                if model.level_independent and any(v != per_level[0] for v in per_level):
                    problems.append(
                        f"exec model {p.id}: marked level-independent but varies with level"
                        f" at dc {d} client {ci}"
                    )
    return problems


def split_by_provider(instance: MarketInstance) -> list[ProviderSubproblem]:
    """Decouple the instance into one independent subproblem per provider.

    Each subproblem carries only the clients demanding that provider, with
    demands resolved to minimum level indices. Solving the subproblems
    independently and summing costs solves the joint problem.
    """
    subproblems = []
    for p in instance.providers:
        client_ids: list[str] = []
        min_levels: list[int] = []
        member_idx: list[int] = []
        for ci, c in enumerate(instance.clients):
            for provider_id, w in c.demands:
                if provider_id == p.id:
                    client_ids.append(c.id)
                    min_levels.append(min_level_index(p, w))
                    member_idx.append(ci)
                    break
        alpha = tuple(
            tuple(
                tuple(
                    exec_cost_value(instance, p.id, d, ci, level)
                    for level in range(1, p.num_levels + 1)
                )
                for ci in member_idx
            )
            for d in range(len(instance.data_centers))
        )
        subproblems.append(
            ProviderSubproblem(
                provider_id=p.id,
                levels=p.levels,
                dc_ids=tuple(d.id for d in instance.data_centers),
                beta=p.oper_cost,
                client_ids=tuple(client_ids),
                min_levels=tuple(min_levels),
                alpha=alpha,
                level_independent=instance.exec_cost.level_independent,
                contracting=instance.contracting,
            )
        )
    return subproblems


def check_plan(instance: MarketInstance, plan: Plan) -> None:
    """Raise InfeasiblePlan naming the first violated feasibility constraint."""
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


def evaluate_cost(instance: MarketInstance, plan: Plan) -> CostBreakdown:
    """Price a feasible plan exactly.

    Operation cost sums beta over placements; execution cost sums alpha over
    assignments; purchasing cost charges the per-query fee once per
    assignment, or the bulk fee once per purchased (provider, level).
    """
    check_plan(instance, plan)
    providers = {p.id: p for p in instance.providers}
    dc_index = instance.dc_index()
    client_index = instance.client_index()

    oper = Fraction(0)
    for provider_id, dc_id, level in plan.placements:
        oper += providers[provider_id].oper_cost[dc_index[dc_id]][level - 1]

    exec_total = Fraction(0)
    purch = Fraction(0)
    for provider_id, client_id, dc_id, level in plan.assignments:
        exec_total += exec_cost_value(
            instance, provider_id, dc_index[dc_id], client_index[client_id], level
        )
        if instance.contracting == "per_query":
            purch += providers[provider_id].fee(level)
    if instance.contracting == "bulk":
        for provider_id, level in plan.purchases:
            purch += providers[provider_id].bulk_fee(level)

    return CostBreakdown(oper=oper, exec=exec_total, purch=purch)


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


def instance_from_json(doc: dict) -> MarketInstance:
    providers = tuple(
        Provider(
            id=p["id"],
            levels=tuple(
                QualityLevel(
                    index=k + 1,
                    quality=to_rational(l["quality"]),
                    per_query_fee=to_rational(l["per_query_fee"]),
                    bulk_fee=to_rational(l["bulk_fee"]) if "bulk_fee" in l else None,
                )
                for k, l in enumerate(p["levels"])
            ),
            oper_cost=tuple(tuple(to_rational(v) for v in row) for row in p["oper_cost"]),
        )
        for p in doc["providers"]
    )
    data_centers = tuple(
        DataCenter(id=d["id"], location=tuple(d["location"]) if "location" in d else None)
        for d in doc["data_centers"]
    )
    clients = tuple(
        Client(
            id=c["id"],
            demands=tuple((pid, to_rational(w)) for pid, w in c["demands"].items()),
            location=tuple(c["location"]) if "location" in c else None,
        )
        for c in doc["clients"]
    )
    ec = doc["exec_cost"]
    if ec["mode"] == "distance":
        exec_cost = ExecCostModel(
            mode="distance",
            level_independent=True,
            rate_per_gigameter=to_rational(ec["rate_per_gigameter"]),
        )
    else:
        exec_cost = ExecCostModel(
            mode="explicit",
            level_independent=bool(ec.get("level_independent", False)),
            alpha=tuple(
                (
                    pid,
                    tuple(
                        tuple(tuple(to_rational(v) for v in per_level) for per_level in per_client)
                        for per_client in tensor
                    ),
                )
                for pid, tensor in ec["alpha"].items()
            ),
        )
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


def plan_from_json(doc: dict) -> Plan:
    return Plan(
        purchases=frozenset((pid, int(lvl)) for pid, lvl in doc["purchases"]),
        placements=frozenset((pid, dc, int(lvl)) for pid, dc, lvl in doc["placements"]),
        assignments=frozenset(
            (pid, cid, dc, int(lvl)) for pid, cid, dc, lvl in doc["assignments"]
        ),
    )
