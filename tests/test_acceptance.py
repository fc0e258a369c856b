"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities. Run with `pytest tests/test_acceptance.py -v -s`
to see the report lines; tolerances are pinned in the assertions.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from statistics import median

from datamarket.baselines import nearest_dc, opt_band, opt_cost, to_uflp, uflp_from_json
from datamarket.cli import main
from datamarket.datum import DatumConfig, datum_solve
from datamarket.lp import lp_solve
from datamarket.model import split_by_provider
from datamarket.scenario import ScenarioParams, generate
from datamarket.single_dc import reduced_open_levels_lp, solve_single_dc
from datamarket.baselines import from_uflp
from oracles import (
    make_subproblem,
    market_enumeration,
    random_market,
    single_dc_brute_force,
    step1_objective,
    uflp_brute_force,
)

F = Fraction


def _random_category_problem(rng, max_levels=6, max_clients=30):
    levels = rng.randint(1, max_levels)
    beta = [F(rng.randint(0, 400), rng.choice([1, 2, 5, 10])) for _ in range(levels)]
    fees, acc = [], F(0)
    for _ in range(levels):
        acc += F(rng.randint(1, 60), rng.choice([1, 2, 4]))
        fees.append(acc)
    counts = [0] * levels
    for _ in range(rng.randint(0, max_clients)):
        counts[rng.randrange(levels)] += 1
    return beta, fees, counts


def test_criterion_1_single_dc_exactness():
    # >= 1000 seeded random subproblems, L <= 6, C <= 30: the solver's
    # objective equals the 2^L brute-force oracle with zero tolerance.
    rng = random.Random(0xD1)
    started = time.perf_counter()
    for _ in range(1000):
        beta, fees, counts = _random_category_problem(rng)
        plan = solve_single_dc(make_subproblem(beta, fees, counts))
        assert plan.objective == single_dc_brute_force(beta, fees, counts)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"\nPASS criterion 1: 1000/1000 exact single-DC optima in {elapsed:.1f}s")


def test_criterion_2_tu_integrality():
    # >= 1000 random breakpoint profiles: every extreme point of the reduced
    # opening LP is exactly 0/1 in every coordinate.
    rng = random.Random(0xD2)
    for _ in range(1000):
        levels = rng.randint(2, 9)
        y = [F(rng.randint(0, 4), 4) for _ in range(levels - 1)] + [F(1)]
        beta = [F(rng.randint(0, 300), 10) for _ in range(levels)]
        fees, acc = [], F(0)
        for _ in range(levels):
            acc += F(rng.randint(1, 20), 10)
            fees.append(acc)
        counts = [rng.randint(0, 9) for _ in range(levels)]
        if sum(counts) == 0:
            counts[rng.randrange(levels)] = 1
        m = [0] * levels
        for i in range(1, levels + 1):
            total = F(0)
            for level in range(i, levels + 1):
                total += y[level - 1]
                if total >= 1:
                    m[i - 1] = level
                    break
        sol = lp_solve(reduced_open_levels_lp(beta, fees, counts, m))
        assert sol.status == "optimal"
        assert all(v == 0 or v == 1 for v in sol.values)
    print("\nPASS criterion 2: 1000/1000 interval-LP extreme points binary")


def test_criterion_3_uflp_equivalence():
    # Market -> UFLP: enumeration optimum equals opt_cost exactly.
    rng = random.Random(0xD3)
    forward = 0
    while forward < 200:
        inst = random_market(rng, max_providers=1, max_dcs=3, max_levels=3, max_clients=5)
        (sub,) = split_by_provider(inst)
        if sub.num_dcs * sub.num_levels > 10:
            continue
        uflp = to_uflp(sub)
        _, breakdown = opt_cost(inst)
        assert uflp_brute_force(uflp.open_costs, uflp.connection) == breakdown.total
        forward += 1
    # UFLP -> market: opt_cost equals the UFLP enumeration optimum.
    backward = 0
    for _ in range(200):
        num_fac = rng.randint(1, 4)
        num_clients = rng.randint(1, 5)
        doc = {
            "facilities": [
                {"id": f"f{j}", "open_cost": str(rng.randint(0, 9))} for j in range(num_fac)
            ],
            "clients": [f"c{i}" for i in range(num_clients)],
            "connection": [
                [str(rng.randint(0, 9)) for _ in range(num_clients)] for _ in range(num_fac)
            ],
        }
        uflp = uflp_from_json(doc)
        _, breakdown = opt_cost(from_uflp(uflp))
        assert breakdown.total == uflp_brute_force(uflp.open_costs, uflp.connection)
        backward += 1
    print(f"\nPASS criterion 3: {forward} forward and {backward} backward conversions exact")


def test_criterion_4_lower_bound():
    # Step-1 objective with mu1 = 0 never exceeds the operation plus
    # purchasing cost of the exact optimum, exactly, on every instance.
    rng = random.Random(0xD4)
    for _ in range(200):
        inst = random_market(rng, max_providers=2, max_dcs=3, max_levels=3, max_clients=6)
        _, breakdown = opt_cost(inst)
        bound = step1_objective(inst, DatumConfig(max_replicas=len(inst.data_centers)))
        assert bound <= breakdown.oper + breakdown.purch
    print("\nPASS criterion 4: step-1 lower bound held on 200/200 instances")


CASE_STUDY = dict(num_data_centers=4, num_providers=6, num_clients=40, levels_per_provider=4)


def test_criterion_5_case_study():
    # Reduced case study (the full-scale setting is intractable for an exact
    # baseline): D=4, P=6, L=4, C=40, default ratio targets, 20 seeds.
    started = time.perf_counter()
    gaps = []
    beat_both = 0
    savings_band = []
    savings_near = []
    for seed in range(1, 21):
        inst = generate(ScenarioParams(seed=seed, **CASE_STUDY))
        _, d = datum_solve(inst, DatumConfig(max_replicas=2))
        _, c = opt_cost(inst)
        _, b = opt_band(inst)
        _, n = nearest_dc(inst)
        gaps.append(float((d.total - c.total) / c.total))
        if d.total <= b.total and d.total <= n.total:
            beat_both += 1
        savings_band.append(float(1 - d.total / b.total))
        savings_near.append(float(1 - d.total / n.total))
    elapsed = time.perf_counter() - started
    med_gap = median(gaps)
    assert med_gap <= 0.05, f"median datum gap {med_gap:.2%} exceeds 5%"
    assert beat_both >= 18, f"datum at or below both baselines on only {beat_both}/20 seeds"
    assert elapsed < 600
    mean = lambda xs: sum(xs) / len(xs)
    print(
        f"\nPASS criterion 5: median gap {med_gap:.3%} (<=5%);"
        f" datum <= both baselines on {beat_both}/20 seeds (>=18);"
        f" ran in {elapsed:.0f}s (<600s)"
    )
    print(
        "  reported savings at desk scale:"
        f" vs optband mean {mean(savings_band):.4%},"
        f" vs nearestdc mean {mean(savings_near):.4%}"
        " (full-scale reference points: >45% vs optband, >51% vs nearestdc,"
        " gap within 1.6%)"
    )


def test_criterion_6_regime_sweep(capsys):
    # Purchasing-dominant end (log-ratio -2): datum strictly beats optband
    # on every seed. The bandwidth-dominant end (+2) is recorded in the same
    # CSV with no ordering asserted. Demand levels are diversified
    # (zipf-shape 2); the default shape 30 collapses every demand onto the
    # middle level, which removes the purchasing dimension entirely.
    code = main(
        [
            "sweep",
            "--knob", "band_to_fee", "--from", "-2", "--to", "2", "--steps", "5",
            "--seeds", "1,2,3,4,5",
            "--algorithms", "datum,optband",
            "--data-centers", "3", "--providers", "4", "--clients", "20",
            "--levels", "4", "--zipf-shape", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    from datamarket.numeric import to_rational

    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_key = {(r[1], r[2], r[3]): to_rational(r[7]) for r in rows}

    def total(target, seed, algorithm):
        return by_key[(target, seed, algorithm)]

    for seed in "12345":
        assert total("-2", seed, "datum") < total("-2", seed, "optband")
        assert ("2", seed, "optband") in by_key  # recorded, not ordered
    print("\nPASS criterion 6: datum beat optband on 5/5 seeds at log-ratio -2;"
          " bandwidth-dominant end recorded")


def test_criterion_7_bulk():
    # Single data center: the bulk plan opens exactly the top level and its
    # objective matches direct evaluation, on every random subproblem.
    rng = random.Random(0xD7)
    for _ in range(200):
        beta, fees, counts = _random_category_problem(rng, max_levels=5, max_clients=12)
        if sum(counts) == 0:
            counts[-1] = 1
        bulk_fees = [F(rng.randint(0, 9)) for _ in fees]
        sub = make_subproblem(beta, fees, counts, bulk_fees=bulk_fees, contracting="bulk")
        plan = solve_single_dc(sub)
        top = len(fees)
        assert plan.open_levels == frozenset({top})
        assert plan.objective == beta[top - 1] + bulk_fees[top - 1]
    # Geo special case: with level-independent costs and a top-level
    # demander per provider, the bulk shortcut equals the exact bulk optimum.
    geo = 0
    while geo < 60:
        inst = random_market(
            rng,
            max_providers=2,
            max_dcs=3,
            max_levels=3,
            max_clients=5,
            bulk=True,
            level_independent_beta=True,
            force_top_demand=True,
        )
        _, shortcut = datum_solve(inst, DatumConfig(max_replicas=len(inst.data_centers)))
        _, exact = opt_cost(inst)
        assert shortcut.total == exact.total
        assert exact.total == market_enumeration(inst)
        geo += 1
    print("\nPASS criterion 7: 200 bulk single-DC plans exact; 60 geo bulk optima matched")


def test_criterion_8_determinism(capsys):
    flags = [
        "compare",
        "--seeds", "1,2,3",
        "--algorithms", "datum,nearestdc,optband",
        "--data-centers", "3", "--providers", "3", "--clients", "8", "--levels", "3",
    ]
    assert main(list(flags)) == 0
    first = capsys.readouterr().out
    assert main(list(flags)) == 0
    second = capsys.readouterr().out
    assert first == second
    print("\nPASS criterion 8: compare output byte-identical across runs")
