from __future__ import annotations

import random
from fractions import Fraction

import pytest

from datamarket import lp as lp_module
from datamarket.lp import EQ, GE, LE, LinearProgram, _Tableau, lp_solve
from datamarket.single_dc import category_relaxation_lp, reduced_open_levels_lp
from oracles import DenseTableau, lp_vertex_enumeration

F = Fraction
ONE = F(1)
ZERO = F(0)


def lp(objective, rows):
    """A LinearProgram from dense literals: each row keeps its nonzeros."""
    return LinearProgram(
        tuple(F(c) for c in objective),
        tuple(({j: F(a) for j, a in enumerate(coeffs) if a}, rel, F(b)) for coeffs, rel, b in rows),
    )


def upper_bound_rows(upper):
    """x_j <= u for each bounded column, as dense literals."""
    n = len(upper)
    return [([int(k == j) for k in range(n)], LE, u) for j, u in enumerate(upper) if u is not None]


def test_minimize_with_lower_constraint():
    sol = lp_solve(lp([1], [([1], GE, 1)]))
    assert sol.status == "optimal"
    assert sol.values == (ONE,)
    assert sol.objective_value == 1


def test_maximize_via_negation():
    sol = lp_solve(lp([-1], [([1], LE, 1)]))
    assert sol.status == "optimal"
    assert sol.values == (ONE,)


def test_equality_row():
    sol = lp_solve(lp([2, 3], [([1, 1], EQ, 4), ([1, 0], LE, 1)]))
    assert sol.status == "optimal"
    assert sol.values == (ONE, F(3))
    assert sol.objective_value == 11


def test_infeasible():
    sol = lp_solve(lp([1], [([1], LE, 1), ([1], GE, 2)]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = lp_solve(lp([-1], [([1], GE, 1)]))
    assert sol.status == "unbounded"


def test_zero_rows_dropped_and_constant_infeasibility():
    sol = lp_solve(lp([1], [([0], LE, 3), ([1], GE, 1)]))
    assert sol.objective_value == 1
    sol = lp_solve(lp([1], [([0], GE, 3)]))
    assert sol.status == "infeasible"


def test_upper_bounds():
    sol = lp_solve(lp([-1, -1], [([1, 2], LE, 10)] + upper_bound_rows([2, None])))
    assert sol.status == "optimal"
    assert sol.values == (F(2), F(4))


def test_out_of_range_column_is_refused():
    for column in (2, -1):
        with pytest.raises(ValueError, match="column index outside 0..1"):
            lp_solve(LinearProgram((ONE, F(2)), (({0: ONE, column: ONE}, LE, ONE),)))


def test_fractional_data_exactness():
    sol = lp_solve(
        lp(
            [F(1, 3), F(1, 7)],
            [([F(2, 5), ONE], GE, F(13, 10)), ([ONE, ZERO], LE, F(1, 2))],
        )
    )
    assert sol.status == "optimal"
    # Exact: plugging values back reproduces the bound with zero slack or a
    # verifiable strict inequality, never a float approximation.
    x, y = sol.values
    assert F(2, 5) * x + y >= F(13, 10)
    assert x <= F(1, 2)


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        objective = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [F(rng.randint(-3, 6)) for _ in range(n)]
            rel = rng.choice([LE, GE, EQ])
            rows.append((coeffs, rel, F(rng.randint(0, 12), rng.randint(1, 2))))
        problem = lp(objective, rows)
        sol = lp_solve(problem)
        # Positive costs keep the minimum bounded whenever feasible.
        assert sol.status in ("optimal", "infeasible")
        status, value = lp_vertex_enumeration(problem.objective, problem.rows)
        if sol.status == "optimal":
            assert status == "optimal"
            assert sol.objective_value == value
            checked += 1
        else:
            # Pointed feasible region + positive costs: feasible iff some
            # vertex exists, so the oracle must agree on infeasibility.
            assert status == "infeasible_or_no_vertex"
    assert checked > 100


def test_random_boxed_lps_with_mixed_signs():
    # Mixed-sign objectives and coefficients, boxed so every feasible
    # problem is bounded; the optimum must match vertex enumeration exactly.
    rng = random.Random(31337)
    checked = 0
    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        objective = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(n)]
            rel = rng.choice([LE, GE, EQ])
            rows.append((coeffs, rel, F(rng.randint(-6, 10))))
        box = [([F(1) if j == k else F(0) for k in range(n)], LE, F(rng.randint(1, 10))) for j in range(n)]
        problem = lp(objective, rows + box)
        sol = lp_solve(problem)
        assert sol.status in ("optimal", "infeasible")
        status, value = lp_vertex_enumeration(problem.objective, problem.rows)
        if sol.status == "optimal":
            assert sol.objective_value == value
            checked += 1
        else:
            assert status == "infeasible_or_no_vertex"
    assert checked > 80


def test_category_relaxation_of_instance_a_is_binary_at_24():
    # The category-program relaxation for beta=(10,12), fees=(1,3),
    # counts=(3,1) solves to the integer optimum 24 at a binary vertex.
    from datamarket.single_dc import category_relaxation_lp

    relaxation = category_relaxation_lp(
        [F(10), F(12)], [F(1), F(3)], [3, 1]
    )
    sol = lp_solve(relaxation)
    assert sol.status == "optimal"
    assert sol.objective_value == 24
    assert all(v == 0 or v == 1 for v in sol.values)


def random_profile(rng, levels):
    """Fractional openings with y(L) = 1, plus costs shaped like the
    reduced opening LP's data."""
    y = [F(rng.randint(0, 4), 4) for _ in range(levels - 1)] + [ONE]
    fees = []
    acc = ZERO
    for _ in range(levels):
        acc += F(rng.randint(1, 20), 10)
        fees.append(acc)
    beta = [F(rng.randint(0, 300), 10) for _ in range(levels)]
    counts = [rng.randint(0, 9) for _ in range(levels)]
    if sum(counts) == 0:
        counts[rng.randrange(levels)] = 1
    return y, beta, fees, counts


def test_interval_lp_extreme_points_are_binary():
    # The opening-variable LPs have interval constraint matrices (totally
    # unimodular), so extreme points must be exactly 0/1 in every coordinate.
    rng = random.Random(555)
    for _ in range(250):
        levels = rng.randint(2, 8)
        y, beta, fees, counts = random_profile(rng, levels)
        m = [0] * levels
        for i in range(1, levels + 1):
            total = ZERO
            for level in range(i, levels + 1):
                total += y[level - 1]
                if total >= 1:
                    m[i - 1] = level
                    break
        problem = reduced_open_levels_lp(beta, fees, counts, m)
        sol = lp_solve(problem)
        assert sol.status == "optimal"
        assert all(v == 0 or v == 1 for v in sol.values), sol.values


def solve_recording(monkeypatch, tableau, problem):
    """lp_solve through the given tableau class, with every pivot recorded
    as (row, column, pivot entry, den before the pivot)."""
    pivots = []

    class Recording(tableau):
        def _pivot(self, r, c):
            pivots.append((r, c, self.T[r][c], self.den))
            super()._pivot(r, c)

    monkeypatch.setattr(lp_module, "_Tableau", Recording)
    return lp_solve(problem), pivots


def random_sparse_lp(rng):
    """A feasible-by-construction LP with zero-heavy rows, fractional data,
    mixed relations, some upper bounds and a redundant equality row (whose
    artificial stays basic after phase 1 and is driven out by any nonzero,
    possibly negative, pivot)."""
    n = rng.randint(2, 10)
    point = [F(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(n)]

    def coeff(zero_share):
        if rng.random() < zero_share:
            return ZERO
        return F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.choice([1, 1, 2, 3, 5]))

    rows = []
    for _ in range(rng.randint(1, 10)):
        coeffs = [coeff(0.7) for _ in range(n)]
        lhs = sum((a * x for a, x in zip(coeffs, point)), ZERO)
        rel = rng.choice([LE, EQ, GE])
        slack = F(rng.randint(0, 3))
        rows.append((coeffs, rel, lhs + slack if rel == LE else lhs - slack if rel == GE else lhs))
    eq_rows = [row for row in rows if row[1] == EQ]
    if eq_rows and rng.random() < 0.5:
        coeffs, _, rhs = rng.choice(eq_rows)
        scale = F(rng.choice([-3, -2, -1, 2]))
        rows.append(([a * scale for a in coeffs], EQ, rhs * scale))
    objective = [coeff(0.3) for _ in range(n)]
    upper = [None if rng.random() < 0.4 else F(rng.randint(4, 9)) for _ in range(n)]
    return lp(objective, rows + upper_bound_rows(upper))


def random_category_lp(rng, levels=16):
    fees, acc = [], ZERO
    for _ in range(levels):
        acc += F(rng.randint(1, 9))
        fees.append(acc)
    beta = [F(rng.randint(0, 60)) for _ in range(levels)]
    counts = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(levels)]
    counts[-1] = max(counts[-1], 1)
    return category_relaxation_lp(beta, fees, counts)


def test_sparse_pivot_takes_the_dense_pivots(monkeypatch):
    # The production pivot skips zero cells; the oracle recomputes every
    # cell. Same status, extreme point, objective and pivot sequence.
    rng = random.Random(8)
    problems = [random_sparse_lp(rng) for _ in range(400)]
    problems += [random_category_lp(rng) for _ in range(4)]
    seen = []
    for problem in problems:
        sol, pivots = solve_recording(monkeypatch, _Tableau, problem)
        want, want_pivots = solve_recording(monkeypatch, DenseTableau, problem)
        assert (sol.status, sol.values, sol.objective_value) == (
            want.status, want.values, want.objective_value
        )
        assert pivots == want_pivots
        seen += pivots
    # Both pivot paths ran: entries equal to den, other positive entries,
    # and negative ones (den changes sign).
    assert any(piv == den for _, _, piv, den in seen)
    assert any(piv > 0 and piv != den for _, _, piv, den in seen)
    assert any(piv < 0 for _, _, piv, _ in seen)
