"""Minimal exact-arithmetic linear programming.

Primal simplex over exact rationals with Bland's pivoting rule and a
two-phase start (artificial variables certify feasibility). Returns an
optimal basic feasible solution, i.e. an extreme point, with exact Fraction
values: plugging the solution back into the constraints gives exact
equality/inequality with zero tolerance.

Internally the tableau is kept integral (fraction-free pivoting: every
update divides by the previous pivot, which is exact), which is an order of
magnitude faster than a Fraction tableau at the problem sizes used here.

Constraint rows are sparse: each is ({column: coefficient}, relation, rhs),
and a column absent from the dict has coefficient zero. The programs this
package builds have a handful of nonzeros per row, so the builders, the
tableau set-up and the final exact check touch only those. A pivot whose
entry equals the previous pivot (the common case on 0/±1 data) updates only
the columns where the pivot row is nonzero; any other pivot rescales the
whole tableau. Skipping zeros changes no pivot. A row with no nonzero
needs no special case: phase 1 leaves an unsatisfiable one's artificial
positive, the drive-out deletes 0 = 0, and a satisfiable inequality ends
with its slack basic. No dual simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

LE, EQ, GE = "<=", "=", ">="

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x  subject to rows, x >= 0.

    Each row is ({column: coefficient}, relation, rhs) over the columns
    0..len(objective)-1; absent columns are zero.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[dict[int, Fraction], str, Fraction], ...]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...]
    objective_value: Fraction | None


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve to optimality, returning an optimal extreme point exactly."""
    n = len(lp.objective)
    for coeffs, rel, rhs in lp.rows:
        if rel not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {rel!r}")
        if any(not 0 <= j < n for j in coeffs):
            raise ValueError(f"column index outside 0..{n - 1}: {sorted(coeffs)}")

    tab = _Tableau(n, lp.rows, lp.objective)
    status = tab.solve()
    if status != "optimal":
        return LpSolution(status, (), None)
    values = tab.extract_values()
    _verify(lp, values)
    obj = sum((c * v for c, v in zip(lp.objective, values) if c and v), Fraction(0))
    return LpSolution("optimal", values, obj)


def _verify(lp: LinearProgram, values: tuple[Fraction, ...]) -> None:
    for coeffs, rel, rhs in lp.rows:
        lhs = sum((a * values[j] for j, a in coeffs.items() if values[j]), Fraction(0))
        ok = (rel == LE and lhs <= rhs) or (rel == GE and lhs >= rhs) or (rel == EQ and lhs == rhs)
        if not ok:
            raise AssertionError(f"solver bug: constraint violated ({lhs} {rel} {rhs})")
    if any(v < 0 for v in values):
        raise AssertionError("solver bug: negative variable value")


class _Tableau:
    """Integer simplex tableau. True values are entry/den with den > 0."""

    def __init__(self, n, rows, objective):
        self.n = n
        normalized = []
        for coeffs, rel, rhs in rows:
            if rhs < 0:
                coeffs = {j: -a for j, a in coeffs.items()}
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            normalized.append((coeffs, rel, rhs))
        num_slack = sum(1 for _, rel, _ in normalized if rel != EQ)
        num_art = sum(1 for _, rel, _ in normalized if rel != LE)
        self.slack0 = n
        self.art0 = n + num_slack
        self.width = n + num_slack + num_art
        self.den = 1
        self.basis: list[int] = []
        self.T: list[list[int]] = []

        slack_at = self.slack0
        art_at = self.art0
        art_rows = []
        for coeffs, rel, rhs in normalized:
            mult = lcm(rhs.denominator, *(a.denominator for a in coeffs.values()))
            row = [0] * (self.width + 1)
            for j, a in coeffs.items():
                row[j] = a.numerator * (mult // a.denominator)
            row[-1] = rhs.numerator * (mult // rhs.denominator)
            if rel == LE:
                row[slack_at] = 1
                self.basis.append(slack_at)
                slack_at += 1
            elif rel == GE:
                row[slack_at] = -1
                slack_at += 1
                row[art_at] = 1
                self.basis.append(art_at)
                art_rows.append(len(self.T))
                art_at += 1
            else:
                row[art_at] = 1
                self.basis.append(art_at)
                art_rows.append(len(self.T))
                art_at += 1
            self.T.append(row)

        # Phase-2 reduced costs: initial basis has zero objective weight.
        nonzero = [(j, c) for j, c in enumerate(objective) if c]
        mult = lcm(1, *(c.denominator for _, c in nonzero))
        self.cost2 = [0] * (self.width + 1)
        for j, c in nonzero:
            self.cost2[j] = c.numerator * (mult // c.denominator)
        # Phase-1 reduced costs: minimize the artificial sum, priced out
        # against the artificial rows of the initial basis.
        self.cost1 = [0] * (self.width + 1)
        for j in range(self.art0, self.width):
            self.cost1[j] = 1
        for i in art_rows:
            for j in range(self.width + 1):
                self.cost1[j] -= self.T[i][j]

    def solve(self) -> str:
        if self.art0 < self.width:
            status = self._iterate(self.cost1)
            if status != "optimal":
                raise AssertionError("solver bug: phase 1 cannot be unbounded")
            if any(
                self.basis[i] >= self.art0 and self.T[i][-1] != 0 for i in range(len(self.T))
            ):
                return "infeasible"
            self._drive_out_artificials()
        return self._iterate(self.cost2)

    def _iterate(self, cost: list[int]) -> str:
        basic = set(self.basis)
        for _ in range(_MAX_PIVOTS):
            enter = -1
            for j in range(self.art0):  # artificial columns never enter
                if cost[j] < 0 and j not in basic:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = self._ratio_test(enter)
            if leave < 0:
                return "unbounded"
            basic.discard(self.basis[leave])
            basic.add(enter)
            self._pivot(leave, enter)
        raise RuntimeError("simplex pivot limit exceeded (anti-cycling rule engaged?)")

    def _ratio_test(self, col: int) -> int:
        # min of rhs_i / T[i][col] over positive column entries; Bland tie-break
        # on the smallest basic variable index.
        best = -1
        best_num = best_den = 0
        for i, row in enumerate(self.T):
            a = row[col]
            if a <= 0:
                continue
            num, den = row[-1], a
            if best < 0:
                better = True
            else:
                diff = num * best_den - best_num * den
                better = diff < 0 or (diff == 0 and self.basis[i] < self.basis[best])
            if better:
                best, best_num, best_den = i, num, den
        return best

    def _pivot(self, r: int, c: int) -> None:
        T = self.T
        piv = T[r][c]
        prow = T[r]
        den = self.den
        # With piv == den a row changes only on the pivot row's support, by
        # f * prow[j] // den (exact: den divides row[j]*den - f*prow[j]);
        # otherwise every row takes the dense fraction-free update.
        support = [j for j in range(self.width + 1) if prow[j]] if piv == den else None
        for row in (*T, self.cost1, self.cost2):
            if row is prow:
                continue
            f = row[c]
            if support is not None:
                if f:
                    for j in support:
                        row[j] -= f * prow[j] // den
                continue
            for j in range(self.width + 1):
                row[j] = (row[j] * piv - f * prow[j]) // den
        self.basis[r] = c
        self.den = piv
        if self.den < 0:
            self.den = -self.den
            for row in (*T, self.cost1, self.cost2):
                for j in range(self.width + 1):
                    row[j] = -row[j]

    def _drive_out_artificials(self) -> None:
        # Basic artificials sit at value zero after a feasible phase 1: swap
        # them for any structural column, or drop the row as redundant.
        i = 0
        while i < len(self.T):
            if self.basis[i] < self.art0:
                i += 1
                continue
            row = self.T[i]
            col = next((j for j in range(self.art0) if row[j] != 0), -1)
            if col < 0:
                del self.T[i]
                del self.basis[i]
                continue
            self._pivot(i, col)
            i += 1

    def extract_values(self) -> tuple[Fraction, ...]:
        values = [Fraction(0)] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                values[b] = Fraction(self.T[i][-1], self.den)
        return tuple(values)
