"""Reference LP solver: the numpy dense-tableau simplex the package used
before its plain-Python rewrite (Bland's rule, a 1e-7 phase-1 test), kept
verbatim, and `duration_lp`, the dense duration LP of one stop pattern the
planner built for it before the package solved those LPs without a
simplex.

Tests check the package's direct solvers (`_RouteTail.solve`, its closed
forms for at most one stop and the planner's `solve_lp` for more) against
this simplex on that LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fleetcharge.model import ordered_sum

__all__ = ["LPResult", "duration_lp", "solve_lp"]

_TOL = 1e-9
_MAX_PIVOTS = 20000


@dataclass(frozen=True, slots=True)
class LPResult:
    """status is one of 'optimal', 'infeasible', 'unbounded'; x and
    objective are populated only when status is 'optimal'."""

    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> str:
    """Iterate Bland-rule pivots to optimality. Returns 'optimal' or 'unbounded'."""
    m = tableau.shape[0]
    for _ in range(_MAX_PIVOTS):
        # reduced costs r_j = c_j - c_B . column_j
        cost_b = cost[basis]
        reduced = cost - cost_b @ tableau[:, :-1]
        entering = -1
        for j in range(reduced.shape[0]):
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test; ties broken by smallest basis variable index (Bland)
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coeff = tableau[i, entering]
            if coeff > _TOL:
                ratio = tableau[i, -1] / coeff
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


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Minimize ``c . x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``."""
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.shape[0]
    if a_ub.size == 0:
        a_ub = a_ub.reshape(0, n)
    m = a_ub.shape[0]
    if a_ub.shape != (m, n) or b_ub.shape != (m,):
        raise ValueError(
            f"inconsistent shapes: c {c.shape}, a_ub {a_ub.shape}, b_ub {b_ub.shape}"
        )

    # Equality form: a_ub x + s = b_ub with s >= 0. Rows with negative
    # right-hand side are negated (their slack then enters with -1), and
    # each such row gets an artificial variable to seed a feasible basis.
    neg = b_ub < 0
    n_art = int(neg.sum())
    n_slack = m
    width = n + n_slack + n_art + 1
    tableau = np.zeros((m, width), dtype=float)
    basis: list[int] = [0] * m
    art_col = n + n_slack
    for i in range(m):
        sign = -1.0 if neg[i] else 1.0
        tableau[i, :n] = sign * a_ub[i]
        tableau[i, n + i] = sign
        tableau[i, -1] = sign * b_ub[i]
        if neg[i]:
            tableau[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = n + i

    if n_art:
        phase1_cost = np.zeros(width - 1)
        phase1_cost[n + n_slack :] = 1.0
        status = _run_simplex(tableau, basis, phase1_cost)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        cost_b = phase1_cost[basis]
        if cost_b @ tableau[:, -1] > 1e-7:
            return LPResult(status="infeasible", x=None, objective=None)
        # Drive any artificial still in the basis out of it (it sits at
        # value zero); a row with no real column to pivot on is redundant.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + n_slack:
                pivot_col = -1
                for j in range(n + n_slack):
                    if abs(tableau[i, j]) > _TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, i, pivot_col)
                else:
                    keep[i] = False
        tableau = tableau[keep]
        basis = [b for b, k in zip(basis, keep) if k]

    tableau = np.hstack([tableau[:, : n + n_slack], tableau[:, -1:]])
    phase2_cost = np.concatenate([c, np.zeros(n_slack)])
    status = _run_simplex(tableau, basis, phase2_cost)
    if status != "optimal":
        return LPResult(status="unbounded", x=None, objective=None)

    x = np.zeros(n + n_slack)
    for i, b in enumerate(basis):
        x[b] = tableau[i, -1]
    x = x[:n]
    # basic values can pick up harmless -1e-15 noise from elimination
    np.clip(x, 0.0, None, out=x)
    return LPResult(status="optimal", x=x, objective=float(c @ x))


def duration_lp(tail, selected, **options) -> LPResult:
    """The duration LP of one stop pattern of a planner `_RouteTail`,
    solved by the simplex; ``options`` are `duration_program`'s."""
    return solve_lp(*duration_program(tail, selected, **options))


def duration_program(
    tail,
    selected,
    *,
    with_overtime: bool = True,
    cost_cap: float | None = None,
    minimize_total_time: bool = False,
) -> tuple[list[float], list[list[float]], list[float]]:
    """The dense duration LP of one stop pattern of a planner `_RouteTail`,
    as ``(c, a_ub, b_ub)`` for ``min c.x, a_ub x <= b_ub, x >= 0``.

    Variables are the charging durations of the selected stations (in
    pattern order) plus, when ``with_overtime``, an epigraph variable for
    the hinge max(rho * overtime, 0). ``cost_cap`` adds a row bounding the
    variable part of the objective; ``minimize_total_time`` swaps the
    objective for the sum of durations. With both, the LP is the canonical
    one: the least total time among durations within the cap of the
    optimum. Without the hinge and with the least time, it is the rescue
    charge's LP.
    """
    p = tail.route.params
    battery = tail.battery
    rates = tail.rates
    picked = set(selected)
    # cumulative driving consumption reaching each ramp (and the
    # destination): entry l covers all segments and planned detours
    # strictly before ramp l
    drain = [0.0]
    total = 0.0
    for l, (_, drive, stop, _) in enumerate(tail.ramps):
        total += stop if l in picked else drive
        drain.append(total)
    m = len(rates)
    hinge_col = [0.0] if with_overtime else []

    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    # reserve-plus-detour bound at ramps
    for l in range(m):
        if tail.route.strict or l in picked:
            a_ub.append([-rates[k] if k < l else 0.0 for k in selected] + hinge_col)
            b_ub.append(battery - drain[l] - tail.ramps[l][0])
    # reserve bound at the destination
    a_ub.append([-rates[k] for k in selected] + hinge_col)
    b_ub.append(battery - drain[m] - p.e_safe)
    # capacity bound at each planned stop
    headroom = p.e_full - battery
    for l in selected:
        a_ub.append([rates[k] if k <= l else 0.0 for k in selected] + hinge_col)
        b_ub.append(headroom + drain[l] + tail.detour_drain[l])

    if with_overtime:
        # z >= rho * (fixed_minutes + sum of durations - budget)
        fixed_minutes = tail.seg_total + ordered_sum(tail.labor[l] for l in selected)
        a_ub.append([p.rho] * len(selected) + [-1.0])
        b_ub.append(p.rho * (tail.remaining_time - fixed_minutes))

    cost_row = [tail.minute_cost[l] for l in selected] + ([1.0] if with_overtime else [])
    if cost_cap is not None:
        a_ub.append(cost_row)
        b_ub.append(cost_cap)
    if minimize_total_time:
        objective = [1.0] * len(selected) + hinge_col
    else:
        objective = cost_row
    return objective, a_ub, b_ub
