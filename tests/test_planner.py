"""Charging planner: dynamics, objective, exact solver, oracle agreement."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from fleetcharge.model import ChargeDecision, replace
from fleetcharge.planner import (
    MAX_ENUMERATED_STATIONS,
    PlannerInput,
    _tail_of,
    minimal_rescue_charge,
    planner_input_from_dict,
    solution_to_dict,
    solve_charging_problem,
)

from conftest import (
    assignment_lp,
    make_params,
    make_planner_input,
    make_station,
    planner_inputs,
    prices_of,
    rates_of,
)
from grid_oracle import brute_force_oracle
from reference_planner import check_feasibility, compute_energy_trajectory


def _skip(n):
    return tuple(ChargeDecision(False, 0.0) for _ in range(n))


def solve_fixed_assignment(
    inp: PlannerInput, selected: tuple[int, ...]
) -> tuple[tuple[float, ...], float] | None:
    """Best durations for one stop pattern, or None if none are feasible.

    Returns (durations, cost) where durations has one entry per remaining
    station (zero on skipped ones) and cost is the exact objective value.
    """
    result = assignment_lp(inp, selected)
    if result.status != "optimal":
        return None
    durations = [0.0] * inp.station_count
    for i, l in enumerate(selected):
        durations[l] = result.x[i]
    decisions = tuple(
        ChargeDecision(charge=l in selected, duration=durations[l] if l in selected else 0.0)
        for l in range(inp.station_count)
    )
    cost, _ = _tail_of(inp).cost(decisions)
    return tuple(durations), cost


# -- dynamics -----------------------------------------------------------------


def test_driving_drains_at_fixed_rate():
    inp = make_planner_input(segment_times=(60.0,), detour_times=(5.0,), battery=514.2)
    levels = compute_energy_trajectory(inp, _skip(1))
    assert levels[0] == 514.2
    assert levels[1] == pytest.approx(514.2 - 1.83 * 60.0, abs=1e-9)
    assert levels[1] == pytest.approx(404.4, abs=1e-9)


def test_charging_at_port_limit_for_an_hour():
    # 300 kW port, 375 kW vehicle limit: 60 min adds exactly 300 kWh
    inp = make_planner_input(
        segment_times=(60.0,), detour_times=(0.0,), battery=200.0
    )
    plan = (ChargeDecision(True, 60.0),)
    levels = compute_energy_trajectory(inp, plan)
    gained = levels[1] - (200.0 - 1.83 * 60.0)
    assert gained == pytest.approx(60.0 * min(300.0, 375.0) / 60.0, abs=1e-9)
    assert gained == pytest.approx(300.0, abs=1e-9)


def test_zero_duration_stop_still_burns_the_detour():
    inp = make_planner_input(segment_times=(60.0,), detour_times=(7.0,), battery=500.0)
    skipped = compute_energy_trajectory(inp, _skip(1))
    stopped = compute_energy_trajectory(inp, (ChargeDecision(True, 0.0),))
    assert stopped[1] == pytest.approx(
        skipped[1] - 2.0 * 1.83 * 7.0, abs=1e-12
    )


def test_overtime_worked_example():
    # one stop: two 10-minute detour legs, 30 min charging, 20 min waiting,
    # 100 min of driving against a 160 min budget leaves 10 min of overtime
    inp = make_planner_input(
        segment_times=(100.0,),
        detour_times=(10.0,),
        battery=500.0,
        quoted_wait=20.0,
        remaining_time=160.0,
    )
    plan = (ChargeDecision(True, 30.0),)
    assert _tail_of(inp).cost(plan)[1] == pytest.approx(10.0, abs=1e-9)
    # skipping the stop leaves only the driving time
    assert _tail_of(inp).cost(_skip(1))[1] == pytest.approx(-60.0, abs=1e-9)


def test_cost_components_add_up():
    inp = make_planner_input(
        segment_times=(100.0,),
        detour_times=(10.0,),
        battery=500.0,
        quoted_wait=20.0,
        remaining_time=160.0,
    )
    cost, overtime = _tail_of(inp).cost((ChargeDecision(True, 30.0),))
    assert overtime == pytest.approx(10.0, abs=1e-9)
    expected = 0.4 * (2 * 10.0 + 30.0 + 20.0) + 1.8 * 30.0 + 10.0 * 10.0
    assert cost == pytest.approx(expected, abs=1e-9)
    # no hinge contribution when the plan fits the budget
    cost2, overtime2 = _tail_of(inp).cost(_skip(1))
    assert overtime2 < 0
    assert cost2 == 0.0


def test_feasibility_flags_each_bound():
    # driving both segments costs 219.6 kWh, so 300 kWh cannot finish
    # without charging (reserve 156) but clears every ramp bound
    inp = make_planner_input(
        segment_times=(60.0, 60.0),
        detour_times=(5.0, 5.0),
        battery=300.0,
        assumed_waits=(12.0,),
    )
    assert any("destination" in v for v in check_feasibility(inp, _skip(2)))
    ok = (ChargeDecision(True, 20.0), ChargeDecision(False, 0.0))
    assert check_feasibility(inp, ok) == []
    overfull = (ChargeDecision(True, 120.0), ChargeDecision(False, 0.0))
    assert any("headroom" in v for v in check_feasibility(inp, overfull))
    negative = (ChargeDecision(True, -1.0), ChargeDecision(False, 0.0))
    assert any("negative" in v for v in check_feasibility(inp, negative))
    stray = (ChargeDecision(False, 3.0), ChargeDecision(True, 20.0))
    assert any("skipped" in v for v in check_feasibility(inp, stray))


def test_detour_margin_applies_to_skipped_ramps_only_in_strict_mode():
    # enough to finish, but too low at the second ramp to cover its long
    # detour; the bound only matters there if the truck would pull in
    params = make_params()
    inp = make_planner_input(
        segment_times=(60.0, 10.0),
        detour_times=(0.0, 30.0),
        battery=300.0,
        assumed_waits=(12.0,),
        params=params,
    )
    plan = _skip(2)
    levels = compute_energy_trajectory(inp, plan)
    assert levels[1] < params.e_safe + params.p_bar * 30.0
    assert levels[2] > params.e_safe
    assert check_feasibility(inp, plan) != []
    relaxed = replace(inp, require_detour_margin_everywhere=False)
    assert check_feasibility(relaxed, plan) == []


# -- solver basics ------------------------------------------------------------


def test_no_need_to_charge_means_no_stop():
    inp = make_planner_input(segment_times=(60.0,), detour_times=(5.0,), battery=500.0)
    sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    assert sol.plan.decisions == _skip(1)
    assert sol.plan.anticipated_cost == 0.0


def test_forced_single_stop_charges_to_reserve_exactly():
    # start low: the only feasible plans stop at the single station
    params = make_params()
    inp = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=230.0
    )
    sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    (dec,) = sol.plan.decisions
    assert dec.charge
    levels = compute_energy_trajectory(inp, sol.plan.decisions)
    # minimal charging leaves exactly the reserve at the destination
    assert levels[-1] == pytest.approx(params.e_safe, abs=1e-7)
    assert check_feasibility(inp, sol.plan.decisions) == []


def test_infeasible_when_even_full_charging_cannot_finish():
    params = make_params(e_full=200.0)
    inp = make_planner_input(
        segment_times=(60.0, 60.0),
        detour_times=(1.0, 1.0),
        battery=190.0,
        assumed_waits=(12.0,),
        params=params,
    )
    sol = solve_charging_problem(inp)
    assert sol.status == "infeasible"
    assert sol.plan is None


def test_an_overtime_cost_of_inf_minus_inf_does_not_block_a_finite_plan():
    # rho = 1e308 overflows both rho * minutes and rho * slack for the
    # 4-minute charge at station 1, so the hinge is priced as
    # rho * (minutes - slack), which is 0 under a positive slack; the
    # 0.4-minute charge at station 0, which needs no detour, still wins
    p = make_params(rho=1e308)
    inp = make_planner_input(
        segment_times=(10.0, (400.0 - p.e_safe + 2.0) / p.p_bar - 10.0),
        detour_times=(0.0, 5.0),
        battery=400.0,
        assumed_waits=(0.0,),
        remaining_time=10_000.0,
        params=p,
        require_detour_margin_everywhere=False,
    )
    sol = solve_charging_problem(inp)
    assert [d.charge for d in sol.plan.decisions] == [True, False]
    assert math.isfinite(sol.plan.anticipated_cost)
    only_station_1 = _tail_of(inp).solve((1,))
    assert math.isfinite(only_station_1.objective)
    assert only_station_1.x[1] == 0.0


def test_empty_route_is_trivially_optimal():
    inp = make_planner_input(
        stations=(),
        segment_times=(),
        detour_times=(),
        battery=400.0,
        assumed_waits=(),
        remaining_time=100.0,
    )
    sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    assert sol.plan.decisions == ()
    assert sol.plan.anticipated_cost == 0.0


def test_route_length_cap():
    n = MAX_ENUMERATED_STATIONS + 1
    with pytest.raises(ValueError, match="exact-enumeration cap"):
        make_planner_input(
            segment_times=(30.0,) * n,
            detour_times=(5.0,) * n,
            assumed_waits=(12.0,) * (n - 1),
        )


def test_solver_is_deterministic():
    inp = make_planner_input(
        segment_times=(45.0, 55.0, 65.0),
        detour_times=(4.0, 9.0, 6.0),
        battery=280.0,
        quoted_wait=7.0,
        assumed_waits=(12.0, 12.0),
        remaining_time=230.0,
    )
    a = solve_charging_problem(inp)
    b = solve_charging_problem(inp)
    assert a == b


def test_ties_prefer_fewer_stops_then_lexicographic_pattern():
    # two interchangeable stations; a single stop at either suffices and
    # costs the same, so the solver must keep the lexicographically
    # smallest stop vector, which stops at the later station
    inp = make_planner_input(
        stations=(make_station("s01"), make_station("s02")),
        segment_times=(50.0, 50.0),
        detour_times=(5.0, 5.0),
        battery=300.0,
        quoted_wait=12.0,
        assumed_waits=(12.0,),
        remaining_time=500.0,
    )
    sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    first, second = sol.plan.decisions
    assert not first.charge
    assert second.charge


def test_fixed_assignment_matches_exact_evaluation():
    inp = make_planner_input(
        segment_times=(45.0, 55.0),
        detour_times=(4.0, 9.0),
        battery=280.0,
        quoted_wait=7.0,
        assumed_waits=(12.0,),
        remaining_time=160.0,
    )
    for selected in [(0,), (1,), (0, 1)]:
        result = solve_fixed_assignment(inp, selected)
        if result is None:
            continue
        durations, cost = result
        decisions = tuple(
            ChargeDecision(l in selected, durations[l] if l in selected else 0.0)
            for l in range(2)
        )
        exact_cost, _ = _tail_of(inp).cost(decisions)
        assert cost == pytest.approx(exact_cost, abs=1e-9)
        assert check_feasibility(inp, decisions) == []


def test_reported_cost_is_exact_objective_of_reported_plan():
    rng = random.Random(7)
    for _ in range(40):
        inp = _random_input(rng)
        sol = solve_charging_problem(inp)
        if sol.status != "optimal":
            continue
        cost, overtime = _tail_of(inp).cost(sol.plan.decisions)
        assert sol.plan.anticipated_cost == cost
        assert sol.plan.anticipated_overtime == overtime


# -- randomized invariants ----------------------------------------------------


def _random_input(rng: random.Random, max_m: int = 4) -> PlannerInput:
    m = rng.randint(1, max_m)
    stations = tuple(
        make_station(
            f"s{l + 1:02d}",
            port_power=rng.choice([150.0, 250.0, 300.0, 400.0]),
            price=round(rng.uniform(0.2, 0.6), 2),
        )
        for l in range(m)
    )
    segs = tuple(round(rng.uniform(20.0, 90.0), 1) for _ in range(m))
    detours = tuple(round(rng.uniform(1.0, 14.0), 1) for _ in range(m))
    battery = round(rng.uniform(200.0, 600.0), 1)
    return make_planner_input(
        stations=stations,
        segment_times=segs,
        detour_times=detours,
        battery=battery,
        quoted_wait=round(rng.uniform(0.0, 40.0), 1),
        assumed_waits=tuple(round(rng.uniform(0.0, 40.0), 1) for _ in range(m - 1)),
        remaining_time=round(rng.uniform(0.5, 1.3) * (sum(segs) + 60.0), 1),
    )


def test_optimal_plans_are_feasible_and_gated():
    rng = random.Random(11)
    seen_optimal = 0
    for _ in range(60):
        inp = _random_input(rng)
        sol = solve_charging_problem(inp)
        if sol.status != "optimal":
            continue
        seen_optimal += 1
        assert check_feasibility(inp, sol.plan.decisions) == []
        for dec in sol.plan.decisions:
            if not dec.charge:
                assert dec.duration == 0.0
            else:
                assert dec.duration >= 0.0
    assert seen_optimal >= 40


def test_candidate_plans_never_beat_the_solver():
    # any feasible plan the solver did not pick costs at least as much
    rng = random.Random(13)
    checked = 0
    for _ in range(30):
        inp = _random_input(rng, max_m=3)
        sol = solve_charging_problem(inp)
        if sol.status != "optimal":
            continue
        m = inp.station_count
        rates = rates_of(inp)
        for pattern in itertools.product((0, 1), repeat=m):
            for trial in range(4):
                decisions = []
                for l in range(m):
                    if pattern[l]:
                        decisions.append(
                            ChargeDecision(True, round(rng.uniform(0.0, 120.0), 1))
                        )
                    else:
                        decisions.append(ChargeDecision(False, 0.0))
                if check_feasibility(inp, decisions, slack=0.0) != []:
                    continue
                cost, _ = _tail_of(inp).cost(decisions)
                assert sol.plan.anticipated_cost <= cost + 1e-9
                checked += 1
    assert checked >= 50


def test_more_time_never_costs_more():
    rng = random.Random(17)
    compared = 0
    for _ in range(30):
        inp = _random_input(rng, max_m=3)
        sol = solve_charging_problem(inp)
        relaxed = solve_charging_problem(
            replace(inp, remaining_time=inp.remaining_time + 60.0)
        )
        if sol.status != "optimal":
            assert relaxed.status == sol.status  # feasibility ignores time
            continue
        assert relaxed.plan.anticipated_cost <= sol.plan.anticipated_cost + 1e-9
        compared += 1
    assert compared >= 20


def test_cheaper_energy_never_costs_more():
    rng = random.Random(19)
    compared = 0
    for _ in range(30):
        inp = _random_input(rng, max_m=3)
        cheaper = replace(
            inp,
            stations=tuple(
                replace(s, electricity_price_energy=s.electricity_price_energy / 2)
                for s in inp.stations
            ),
        )
        sol = solve_charging_problem(inp)
        if sol.status != "optimal":
            continue
        sol2 = solve_charging_problem(cheaper)
        assert sol2.status == "optimal"
        assert sol2.plan.anticipated_cost <= sol.plan.anticipated_cost + 1e-9
        compared += 1
    assert compared >= 20


# -- oracle agreement ---------------------------------------------------------


def _naive_grid_oracle(inp: PlannerInput, step: float):
    """Reference for the reference: every duration coordinate on the grid,
    no shortcuts. Only viable for tiny capacities."""
    m = inp.station_count
    rates = rates_of(inp)
    best = None
    for pattern in itertools.product((0, 1), repeat=m):
        selected = [l for l in range(m) if pattern[l]]
        grids = []
        for l in selected:
            hi = int(math.ceil(inp.params.e_full / rates[l] / step)) + 1
            grids.append([k * step for k in range(hi)])
        for combo in itertools.product(*grids):
            decisions = []
            it = iter(combo)
            for l in range(m):
                if pattern[l]:
                    decisions.append(ChargeDecision(True, next(it)))
                else:
                    decisions.append(ChargeDecision(False, 0.0))
            if check_feasibility(inp, decisions, slack=0.0) != []:
                continue
            cost, _ = _tail_of(inp).cost(decisions)
            if best is None or cost < best - 1e-12:
                best = cost
    return best


def test_oracle_matches_naive_grid_search():
    params = make_params(e_full=80.0, e_safe=20.0)
    rng = random.Random(23)
    agreed = 0
    for _ in range(12):
        m = rng.randint(1, 2)
        inp = make_planner_input(
            stations=tuple(
                make_station(f"s{l + 1:02d}", port_power=300.0, price=0.36)
                for l in range(m)
            ),
            segment_times=tuple(round(rng.uniform(2.0, 6.0), 1) for _ in range(m)),
            detour_times=tuple(round(rng.uniform(0.0, 2.0), 1) for _ in range(m)),
            battery=round(rng.uniform(30.0, 75.0), 1),
            quoted_wait=round(rng.uniform(0.0, 10.0), 1),
            assumed_waits=tuple(round(rng.uniform(0.0, 10.0), 1) for _ in range(m - 1)),
            remaining_time=round(rng.uniform(10.0, 40.0), 1),
            params=params,
        )
        naive = _naive_grid_oracle(inp, step=1.0)
        fast = brute_force_oracle(inp, step=1.0)
        if naive is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.cost == pytest.approx(naive, abs=1e-9)
            agreed += 1
    assert agreed >= 6


def test_solver_agrees_with_grid_oracle():
    rng = random.Random(29)
    compared = 0
    for _ in range(25):
        inp = _random_input(rng, max_m=3)
        sol = solve_charging_problem(inp)
        oracle = brute_force_oracle(inp, step=0.1)
        if sol.status != "optimal":
            assert oracle is None
            continue
        assert oracle is not None
        # the grid contains no plan cheaper than the LP optimum, and the
        # LP optimum is within one grid step per station of the best grid plan
        assert sol.plan.anticipated_cost <= oracle.cost + 1e-9
        eps_prime = max(prices_of(inp))
        bound = (inp.params.kappa + eps_prime + inp.params.rho) * inp.station_count * 0.1
        assert oracle.cost - sol.plan.anticipated_cost <= bound
        compared += 1
    assert compared >= 18


# -- rescue charging ----------------------------------------------------------


def test_rescue_charge_reaches_reserve_exactly():
    inp = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=200.0
    )
    t = minimal_rescue_charge(inp)
    needed = (156.0 + 1.83 * (2 * 5.0 + 60.0) - 200.0) / 5.0
    assert t == pytest.approx(needed, abs=1e-9)
    levels = compute_energy_trajectory(inp, (ChargeDecision(True, t),))
    assert levels[-1] == pytest.approx(156.0, abs=1e-7)


def test_rescue_ignores_the_deadline():
    inp = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=200.0, remaining_time=0.0
    )
    assert minimal_rescue_charge(inp) is not None


def test_rescue_is_none_when_no_charge_suffices():
    params = make_params(e_full=200.0)
    inp = make_planner_input(
        segment_times=(60.0, 60.0),
        detour_times=(1.0, 1.0),
        battery=190.0,
        assumed_waits=(12.0,),
        params=params,
    )
    assert minimal_rescue_charge(inp) is None
    inp0 = make_planner_input(
        stations=(), segment_times=(), detour_times=(), assumed_waits=(), battery=100.0
    )
    assert minimal_rescue_charge(inp0) is None


# The deadline the rescue ignores is already soft in the regular problem, so
# a rescue never exists where the regular problem is infeasible; the rescue
# path in `run_ramp_exchange` is then never taken.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(planner_inputs(1, 6))
def test_an_infeasible_problem_has_no_rescue(inp):
    if solve_charging_problem(inp).status == "infeasible":
        assert minimal_rescue_charge(inp) is None


# -- dict bridges -------------------------------------------------------------


def test_planner_input_round_trips_through_dicts():
    inp = make_planner_input(
        segment_times=(45.0, 55.0),
        detour_times=(4.0, 9.0),
        battery=280.0,
        quoted_wait=7.0,
        assumed_waits=(12.0,),
        remaining_time=160.0,
    )
    doc = {
        "params": {
            "p_bar": inp.params.p_bar,
            "e_full": inp.params.e_full,
            "e_safe": inp.params.e_safe,
            "p_max": inp.params.p_max,
            "kappa": inp.params.kappa,
            "rho": inp.params.rho,
        },
        "stations": [
            {
                "id": s.id,
                "port_count": s.port_count,
                "port_power": s.port_power,
                "electricity_price_energy": s.electricity_price_energy,
            }
            for s in inp.stations
        ],
        "segment_times": list(inp.segment_times),
        "detour_times": list(inp.detour_times),
        "battery": inp.battery,
        "quoted_wait": inp.quoted_wait,
        "assumed_waits": list(inp.assumed_waits),
        "remaining_time": inp.remaining_time,
    }
    rebuilt = planner_input_from_dict(doc)
    assert rebuilt == inp
    sol = solve_charging_problem(rebuilt)
    out = solution_to_dict(sol)
    assert out["status"] == "optimal"
    assert len(out["decisions"]) == 2


def test_planner_input_from_dict_reports_missing_fields():
    with pytest.raises(ValueError, match="battery"):
        planner_input_from_dict(
            {
                "params": {
                    "p_bar": 1.83,
                    "e_full": 624.0,
                    "e_safe": 156.0,
                    "p_max": 375.0,
                    "kappa": 0.4,
                    "rho": 10.0,
                },
                "stations": [],
                "segment_times": [],
                "detour_times": [],
                "remaining_time": 100.0,
            }
        )
