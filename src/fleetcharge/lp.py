"""A small dense linear-program solver (two-phase primal simplex).

Solves

    minimize    c . x
    subject to  A_ub x <= b_ub,  x >= 0

which is the only LP shape the charge planner needs. The implementation is
a plain dense tableau of Python lists with Bland's pivoting rule, so it
cannot cycle and is easy to audit; the problems it sees are tiny (tens of
variables and rows), so asymptotics are irrelevant and per-call overhead
is what counts.

All arithmetic is elementwise IEEE double operations in a fixed order, so
results do not depend on the machine's BLAS. Row operations divide the
pivot row by the pivot, then replace every other row with
``row - f * pivot_row``, ``f`` read before the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["LPResult", "solve_lp"]

_TOL = 1e-9
_MAX_PIVOTS = 20000


@dataclass(frozen=True, slots=True)
class LPResult:
    """status is one of 'optimal', 'infeasible', 'unbounded'; x and
    objective are populated only when status is 'optimal'."""

    status: str
    x: tuple[float, ...] | None
    objective: float | None


def _pivot(tableau: list[list[float]], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    pivot_row = [v / pivot for v in tableau[row]]
    tableau[row] = pivot_row
    for r, other in enumerate(tableau):
        if r != row:
            f = other[col]
            if f != 0.0:
                tableau[r] = [a - f * b for a, b in zip(other, pivot_row)]
    basis[row] = col


def _run_simplex(tableau: list[list[float]], basis: list[int], cost: list[float]) -> str:
    """Iterate Bland-rule pivots to optimality. Returns 'optimal' or 'unbounded'."""
    n_cols = len(cost)
    for _ in range(_MAX_PIVOTS):
        # Bland: the first column whose reduced cost c_j - c_B . column_j is
        # negative enters. Basic columns are exact unit vectors (reduced
        # cost exactly 0) and rows with a zero basic cost add nothing, so
        # both are skipped.
        weighted = [(cost[b], row) for b, row in zip(basis, tableau) if cost[b] != 0.0]
        basic = set(basis)
        entering = -1
        for j in range(n_cols):
            if j in basic:
                continue
            dot = 0.0
            for cb, row in weighted:
                dot += cb * row[j]
            if cost[j] - dot < -_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test; ties broken by smallest basis variable index (Bland)
        leaving = -1
        best_ratio = math.inf
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > _TOL:
                ratio = row[-1] / coeff
                if leaving < 0 or ratio < best_ratio - _TOL:
                    best_ratio = ratio
                    leaving = i
                elif ratio < best_ratio + _TOL and basis[i] < basis[leaving]:
                    best_ratio = min(best_ratio, ratio)
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
    raise RuntimeError("simplex did not terminate within the pivot budget")


def solve_lp(
    c: Sequence[float], a_ub: Sequence[Sequence[float]], b_ub: Sequence[float]
) -> LPResult:
    """Minimize ``c . x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``."""
    c = [float(v) for v in c]
    b_ub = [float(v) for v in b_ub]
    n = len(c)
    m = len(a_ub)
    if len(b_ub) != m or any(len(row) != n for row in a_ub):
        raise ValueError(
            f"inconsistent shapes: c ({n},), a_ub rows of lengths "
            f"{sorted({len(row) for row in a_ub})}, b_ub ({len(b_ub)},)"
        )

    # Equality form: a_ub x + s = b_ub with s >= 0. Rows with negative
    # right-hand side are negated (their slack then enters with -1), and
    # each such row gets an artificial variable to seed a feasible basis.
    n_slack = m
    n_art = sum(1 for b in b_ub if b < 0)
    tableau: list[list[float]] = []
    basis: list[int] = []
    art_col = n + n_slack
    for i, (a, b) in enumerate(zip(a_ub, b_ub)):
        rest = [0.0] * (n_slack + n_art + 1)
        if b < 0:
            row = [-1.0 * v for v in a]
            rest[i] = -1.0
            rest[art_col - n] = 1.0
            rest[-1] = -1.0 * b
            basis.append(art_col)
            art_col += 1
        else:
            row = [float(v) for v in a]
            rest[i] = 1.0
            rest[-1] = b
            basis.append(n + i)
        row += rest
        tableau.append(row)

    if n_art:
        phase1_cost = [0.0] * (n + n_slack) + [1.0] * n_art
        status = _run_simplex(tableau, basis, phase1_cost)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        infeasibility = 0.0
        for b, row in zip(basis, tableau):
            if b >= n + n_slack:
                infeasibility += row[-1]
        if infeasibility > 1e-7:
            return LPResult(status="infeasible", x=None, objective=None)
        # Drive any artificial still in the basis out of it (it sits at
        # value zero); a row with no real column to pivot on is redundant.
        keep = [True] * m
        for i in range(m):
            if basis[i] >= n + n_slack:
                pivot_col = -1
                for j in range(n + n_slack):
                    if abs(tableau[i][j]) > _TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, i, pivot_col)
                else:
                    keep[i] = False
        tableau = [row[: n + n_slack] + row[-1:] for row, k in zip(tableau, keep) if k]
        basis = [b for b, k in zip(basis, keep) if k]

    status = _run_simplex(tableau, basis, c + [0.0] * n_slack)
    if status != "optimal":
        return LPResult(status="unbounded", x=None, objective=None)

    values = [0.0] * (n + n_slack)
    for b, row in zip(basis, tableau):
        values[b] = row[-1]
    # basic values can pick up harmless -1e-15 noise from elimination;
    # -0.0 becomes 0.0 and NaN is left alone
    x = tuple(0.0 if v <= 0.0 else v for v in values[:n])
    objective = 0.0
    for cj, xj in zip(c, x):
        objective += cj * xj
    return LPResult(status="optimal", x=x, objective=objective)
