"""Reference planner: every stop pattern that can be feasible gets its LP;
and the plan checkers.

The reference is the enumerate-everything loop the package planner
replaced with lower-bound pruning. It keeps only the charge-to-full
feasibility test and the fixed-cost prune, so it solves many more
duration LPs; tests require the package planner to return exactly the
same plans. Each pattern is solved through the planner's own per-pattern
entry point, so the two differ only in pruning; the direct solvers are
checked against the simplex elsewhere. ``lp_solves`` counts `solve_lp`
calls, as the planner does.

It visits every pattern in the bit-string order of `stop_patterns`, which
the planner's lazy per-level order must reproduce, and records the best
cost found before each level starts, from which the tests derive how many
patterns the planner's level cutoff lets it visit.

The plan checkers, `compute_energy_trajectory` and `check_feasibility`,
state the model's battery dynamics and bounds for one plan directly, and
share nothing with the planner's walk; tests and the grid oracle judge
plans with them.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

from fleetcharge.model import ChargeDecision, ChargingPlan, charging_rate
from fleetcharge.planner import _COST_TIE_TOL, PlannerInput, PlannerSolution, _tail_of

from conftest import waits_of


def compute_energy_trajectory(
    inp: PlannerInput, decisions: Sequence[ChargeDecision]
) -> tuple[float, ...]:
    """Battery level at each remaining ramp and at the destination.

    Entry ``l`` is the level reaching ramp ``l``; the final entry is the
    level reaching the destination. Levels are the model's affine dynamics,
    uncapped, so a plan that would overfill shows up as a level above
    capacity rather than being silently clipped.
    """
    m = inp.station_count
    if len(decisions) != m:
        raise ValueError(f"expected {m} decisions, got {len(decisions)}")
    p = inp.params
    levels = [inp.battery]
    e = inp.battery
    for l in range(m):
        dec = decisions[l]
        charged = charging_rate(inp.stations[l], p) * dec.duration if dec.charge else 0.0
        detour = 2.0 * inp.detour_times[l] if dec.charge else 0.0
        e = e + charged - p.p_bar * (detour + inp.segment_times[l])
        levels.append(e)
    return tuple(levels)


def check_feasibility(
    inp: PlannerInput, decisions: Sequence[ChargeDecision], slack: float = 1e-6
) -> list[str]:
    """Check a plan's decisions against every battery and duration
    constraint.

    Returns one message per violation beyond ``slack``; empty means the plan
    is feasible. Checked: nonnegative durations, zero duration on skipped
    stations, the reserve-plus-detour bound at ramps (every ramp, or only
    planned stops, per the input's flag), the reserve bound at the
    destination, and the capacity bound on each planned charge.
    """
    m = inp.station_count
    p = inp.params
    out: list[str] = []
    levels = compute_energy_trajectory(inp, decisions)
    for l in range(m):
        dec = decisions[l]
        if dec.duration < -slack:
            out.append(f"station {l}: negative duration {dec.duration}")
        if not dec.charge and dec.duration != 0.0:
            out.append(f"station {l}: skipped but duration {dec.duration} != 0")
        bound_applies = inp.require_detour_margin_everywhere or dec.charge
        if bound_applies:
            need = p.e_safe + p.p_bar * inp.detour_times[l]
            if levels[l] < need - slack:
                out.append(
                    f"station {l}: level {levels[l]:.6f} below reserve-plus-detour "
                    f"bound {need:.6f}"
                )
        if dec.charge:
            at_station = levels[l] - p.p_bar * inp.detour_times[l]
            headroom = p.e_full - at_station
            charged = charging_rate(inp.stations[l], p) * dec.duration
            if charged > headroom + slack:
                out.append(
                    f"station {l}: charge {charged:.6f} kWh exceeds "
                    f"headroom {headroom:.6f} kWh"
                )
    if levels[m] < p.e_safe - slack:
        out.append(
            f"destination: level {levels[m]:.6f} below reserve {p.e_safe:.6f}"
        )
    return out


def stop_patterns(m: int) -> list[tuple[int, ...]]:
    """All stop patterns as index tuples, fewest stops first, then by the
    pattern's bit string (bit i set when station i is a stop): for m = 3,
    (), (2,), (1,), (0,), (1, 2), (0, 2), (0, 1), (0, 1, 2)."""
    bit_tuples = sorted(product((0, 1), repeat=m), key=lambda b: (sum(b), b))
    return [tuple(i for i, b in enumerate(bits) if b) for bits in bit_tuples]


def _pattern_constant_cost(inp: PlannerInput, selected: tuple[int, ...]) -> float:
    waits = waits_of(inp)
    fixed = 0.0
    for l in selected:
        fixed += 2.0 * inp.detour_times[l] + waits[l]
    return inp.params.kappa * fixed


def max_charge_feasible(inp: PlannerInput, selected: frozenset[int]) -> bool:
    """Charging to full at every planned stop is pointwise the highest
    trajectory any durations can achieve; a small margin keeps borderline
    patterns alive for the LP to judge."""
    p = inp.params
    eps = 1e-7
    e = inp.battery
    for l in range(inp.station_count):
        planned = l in selected
        if inp.require_detour_margin_everywhere or planned:
            if e < p.e_safe + p.p_bar * inp.detour_times[l] - eps:
                return False
        if planned:
            e = p.e_full - p.p_bar * (inp.detour_times[l] + inp.segment_times[l])
        else:
            e = e - p.p_bar * inp.segment_times[l]
    return e >= p.e_safe - eps


def reference_solve_charging_problem(inp: PlannerInput) -> PlannerSolution:
    return reference_search(inp)[0]


def reference_search(inp: PlannerInput) -> tuple[PlannerSolution, list[float]]:
    """The reference solution, and the best cost found before each level
    k = 0..m starts (infinite until some pattern is solved)."""
    m = inp.station_count
    tail = _tail_of(inp)
    best_cost = math.inf
    best_selected: tuple[int, ...] | None = None
    best_x: tuple[float, ...] = ()
    lp_solves = 0
    considered = 0
    level_best = []
    for selected in stop_patterns(m):
        if len(selected) == len(level_best):
            level_best.append(best_cost)
        considered += 1
        if _pattern_constant_cost(inp, selected) > best_cost + _COST_TIE_TOL:
            continue
        if not max_charge_feasible(inp, frozenset(selected)):
            continue
        result = tail.solve(selected)
        if result.status != "optimal":
            continue
        if len(selected) > 1:
            lp_solves += 1
        cost = float(result.objective) + _pattern_constant_cost(inp, selected)
        if best_selected is None or cost < best_cost - _COST_TIE_TOL:
            best_cost = cost if cost == cost else math.inf
            best_selected = selected
            best_x = result.x

    if best_selected is None:
        solution = PlannerSolution(
            status="infeasible", plan=None, patterns_considered=considered, lp_solves=lp_solves
        )
        return solution, level_best

    durations = [0.0] * m
    for i, l in enumerate(best_selected):
        durations[l] = best_x[i]
    decisions = tuple(
        ChargeDecision(
            charge=l in best_selected,
            duration=durations[l] if l in best_selected else 0.0,
        )
        for l in range(m)
    )
    cost, overtime = tail.cost(decisions)
    plan = ChargingPlan(decisions=decisions, anticipated_cost=cost, anticipated_overtime=overtime)
    solution = PlannerSolution(
        status="optimal", plan=plan, patterns_considered=considered, lp_solves=lp_solves
    )
    return solution, level_best
