"""Grid oracle: an independent, exhaustive check on the LP-based planner.

It searches stop patterns and a grid of charging durations with numpy
arrays, and judges its winner with the tests' plan checker
(`reference_planner.check_feasibility`). It shares only the cost
evaluation, `_RouteTail.cost`, with the package. Tests compare the
planner's plans with it on small route tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fleetcharge.model import ChargeDecision
from fleetcharge.planner import PlannerInput, _tail_of

from conftest import prices_of, rates_of, waits_of
from reference_planner import check_feasibility, stop_patterns


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Best grid plan found by exhaustive search: durations per remaining
    station, the stop pattern, and the exact cost of that plan."""

    cost: float
    durations: tuple[float, ...]
    selected: tuple[int, ...]


def brute_force_oracle(
    inp: PlannerInput, step: float = 0.1
) -> OracleResult | None:
    """Exhaustive grid search over stop patterns and charging durations.

    An independent check on the LP-based planner for small inputs (at most
    three remaining stations). Durations of all but the last planned stop
    range over multiples of ``step`` up to a full-battery charge; the last
    planned stop's duration is resolved directly to the smallest feasible
    grid multiple, which is optimal for that coordinate because every
    objective term is nondecreasing in it. The winner is re-verified
    against the plan checker, including that one grid step less on the
    resolved coordinate is infeasible (or not cheaper).

    Returns None when no pattern has feasible durations.
    """
    m = inp.station_count
    if m > 3:
        raise ValueError(f"oracle supports at most 3 remaining stations, got {m}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    p = inp.params
    rates = rates_of(inp)
    prices = prices_of(inp)
    waits = waits_of(inp)
    seg_total = sum(inp.segment_times)

    best_cost = math.inf
    best_durs: tuple[float, ...] | None = None
    best_selected: tuple[int, ...] | None = None

    for selected in stop_patterns(m):
        sel_set = frozenset(selected)
        const_cost = p.kappa * sum(2.0 * inp.detour_times[l] + waits[l] for l in selected)
        fixed_minutes = seg_total + sum(
            2.0 * inp.detour_times[l] + waits[l] for l in selected
        )

        if not selected:
            decisions = tuple(ChargeDecision(False, 0.0) for _ in range(m))
            if check_feasibility(inp, decisions, slack=0.0):
                continue
            overtime = fixed_minutes - inp.remaining_time
            cost = const_cost + max(p.rho * overtime, 0.0)
            if cost < best_cost - 1e-12:
                best_cost, best_durs, best_selected = cost, (0.0,) * m, selected
            continue

        inner = selected[-1]
        outer = selected[:-1]
        grids = []
        for l in outer:
            n_steps = math.ceil((p.e_full / rates[l]) / step)
            grids.append(np.arange(n_steps + 1) * step)
        if outer:
            mesh = np.meshgrid(*grids, indexing="ij")
        else:
            mesh = []
        shape = mesh[0].shape if mesh else ()
        outer_t = {l: mesh[i] for i, l in enumerate(outer)}

        feasible = np.ones(shape, dtype=bool)
        e = np.full(shape, inp.battery) if shape else np.float64(inp.battery)

        # forward pass to the last planned stop
        for l in range(inner):
            planned = l in sel_set
            if inp.require_detour_margin_everywhere or planned:
                feasible &= e >= p.e_safe + p.p_bar * inp.detour_times[l]
            if planned:
                at_station = e - p.p_bar * inp.detour_times[l]
                charge = rates[l] * outer_t[l]
                feasible &= charge <= p.e_full - at_station
                e = at_station + charge - p.p_bar * (
                    inp.detour_times[l] + inp.segment_times[l]
                )
            else:
                e = e - p.p_bar * inp.segment_times[l]
        feasible &= e >= p.e_safe + p.p_bar * inp.detour_times[inner]
        at_station = e - p.p_bar * inp.detour_times[inner]

        # smallest charge at the last stop meeting every downstream bound:
        # propagate the requirements backward to the level at the next ramp
        req = p.e_safe  # requirement on the destination level
        for l in range(m - 1, inner, -1):
            req += p.p_bar * inp.segment_times[l]
            if inp.require_detour_margin_everywhere:
                req = max(req, p.e_safe + p.p_bar * inp.detour_times[l])
        # leaving the last stop still burns the return leg and one segment
        needed = req + p.p_bar * (
            inp.detour_times[inner] + inp.segment_times[inner]
        ) - at_station
        t_min = np.maximum(needed / rates[inner], 0.0)
        t_inner = np.maximum(np.ceil(t_min / step - 1e-9) * step, 0.0)
        feasible &= rates[inner] * t_inner <= p.e_full - at_station + 1e-12

        total_t_cost = (p.kappa + prices[inner]) * t_inner
        total_minutes = t_inner.copy() if shape else t_inner
        for l in outer:
            total_t_cost = total_t_cost + (p.kappa + prices[l]) * outer_t[l]
            total_minutes = total_minutes + outer_t[l]
        overtime = fixed_minutes + total_minutes - inp.remaining_time
        cost = const_cost + total_t_cost + np.maximum(p.rho * overtime, 0.0)

        cost = np.where(feasible, cost, np.inf)
        if shape:
            flat_idx = int(np.argmin(cost))
            pattern_best = float(cost.reshape(-1)[flat_idx])
        else:
            flat_idx = 0
            pattern_best = float(cost)
        if not math.isfinite(pattern_best) or pattern_best >= best_cost - 1e-12:
            continue
        durs = [0.0] * m
        if shape:
            multi = np.unravel_index(flat_idx, shape)
            for i, l in enumerate(outer):
                durs[l] = float(grids[i][multi[i]])
            durs[inner] = float(t_inner[multi])
        else:
            durs[inner] = float(t_inner)
        best_cost, best_durs, best_selected = pattern_best, tuple(durs), selected

    if best_selected is None:
        return None

    decisions = tuple(
        ChargeDecision(charge=l in best_selected, duration=best_durs[l])
        for l in range(m)
    )
    violations = check_feasibility(inp, decisions, slack=1e-6)
    if violations:
        raise RuntimeError(f"oracle winner fails the plan checker: {violations}")
    tail = _tail_of(inp)
    exact_cost, _ = tail.cost(decisions)
    if best_selected:
        inner = best_selected[-1]
        if best_durs[inner] >= step - 1e-12:
            down = list(best_durs)
            down[inner] = down[inner] - step
            down_dec = tuple(
                ChargeDecision(charge=l in best_selected, duration=down[l])
                for l in range(m)
            )
            if not check_feasibility(inp, down_dec, slack=0.0):
                down_cost, _ = tail.cost(down_dec)
                if down_cost < exact_cost - 1e-12:
                    raise RuntimeError(
                        "oracle winner is not grid-minimal on its last stop"
                    )
    return OracleResult(cost=exact_cost, durations=best_durs, selected=best_selected)
