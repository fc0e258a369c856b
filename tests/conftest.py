from __future__ import annotations

from fractions import Fraction

import pytest

from datamarket.model import (
    Client,
    DataCenter,
    ExecCostModel,
    MarketInstance,
    Provider,
    QualityLevel,
)

F = Fraction


def build_instance(
    *,
    beta,
    fees,
    demands,
    alpha,
    qualities=None,
    bulk_fees=None,
    contracting="per_query",
    level_independent=True,
    provider_id="p1",
):
    """Single-provider instance from plain numbers.

    beta: [d][l] rows per data center. fees: per level. demands: list of
    minimum quality per client. alpha: [d][c] (level-independent) or
    [d][c][l] lists.
    """
    num_levels = len(fees)
    qualities = qualities or list(range(1, num_levels + 1))
    levels = tuple(
        QualityLevel(
            quality=F(qualities[k]),
            per_query_fee=F(fees[k]),
            bulk_fee=None if bulk_fees is None else F(bulk_fees[k]),
        )
        for k in range(num_levels)
    )
    provider = Provider(
        id=provider_id,
        levels=levels,
        oper_cost=tuple(tuple(F(v) for v in row) for row in beta),
    )
    dcs = tuple(DataCenter(id=f"dc{d + 1}") for d in range(len(beta)))
    clients = tuple(
        Client(id=f"c{i + 1}", demands=((provider_id, F(w)),)) for i, w in enumerate(demands)
    )
    tensor = tuple(
        tuple(
            tuple(F(cell) for cell in row_c) if isinstance(row_c, (list, tuple)) else
            tuple(F(row_c) for _ in range(num_levels))
            for row_c in per_dc
        )
        for per_dc in alpha
    )
    return MarketInstance(
        providers=(provider,),
        data_centers=dcs,
        clients=clients,
        exec_cost=ExecCostModel(mode="explicit", level_independent=level_independent, alpha=((provider_id, tensor),)),
        contracting=contracting,
    )


@pytest.fixture
def instance_a():
    """One data center, two levels, fees (1, 3), beta (10, 12), three clients
    needing level 1 and one needing level 2, zero execution costs."""
    return build_instance(
        beta=[[10, 12]],
        fees=[1, 3],
        demands=[1, 1, 1, 2],
        alpha=[[0, 0, 0, 0]],
    )


@pytest.fixture
def instance_b():
    """Like instance A but with beta (1, 12): splitting the purchase wins."""
    return build_instance(
        beta=[[1, 12]],
        fees=[1, 3],
        demands=[1, 1, 1, 2],
        alpha=[[0, 0, 0, 0]],
    )


@pytest.fixture
def instance_g():
    """Two data centers, one level with fee 2, beta (5, 7), one client with
    execution costs (4, 1): placing remotely at dc2 wins."""
    return build_instance(
        beta=[[5], [7]],
        fees=[2],
        demands=[1],
        alpha=[[4], [1]],
    )
