"""Lower-bound pruning and the level cutoff: the planner agrees with the
enumerate-everything reference plan for plan, no bound exceeds a pattern's
optimum, and the one-pass feasibility test agrees with full enumeration."""

from math import comb

import pytest
from hypothesis import given, settings

from fleetcharge import protocol, simulation
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import _feasible, ordered_sum
from fleetcharge.planner import (
    _COST_TIE_TOL,
    _level_patterns,
    _tail_of,
    solve_charging_problem,
)
from fleetcharge.reports import write_run_outputs

from conftest import (
    assignment_lp,
    make_params,
    make_planner_input,
    planner_input_of,
    planner_inputs,
    prices_of,
    rates_of,
    waits_of,
)
from reference_planner import (
    check_feasibility,
    max_charge_feasible,
    reference_search,
    reference_solve_charging_problem,
    stop_patterns,
)


def level_bound(inp, k):
    """The cost that no pattern with k or more stops beats, from the input
    alone: the k smallest stop labors, the destination shortfall of the
    no-charge trajectory with the k shortest detours, the cheapest per-kWh
    cost and the fastest rate."""
    p = inp.params
    labor = sorted(2.0 * d + w for d, w in zip(inp.detour_times, waits_of(inp)))
    detours = sorted(2.0 * (p.p_bar * d) for d in inp.detour_times)
    drive = ordered_sum(p.p_bar * s for s in inp.segment_times)
    fixed = ordered_sum(labor[:k])
    need = max(p.e_safe - inp.battery + drive + ordered_sum(detours[:k]) - 1e-7, 0.0)
    cheapest = min(
        (p.kappa + price) / rate for price, rate in zip(prices_of(inp), rates_of(inp))
    )
    overtime = ordered_sum(inp.segment_times) - inp.remaining_time + fixed + need / max(rates_of(inp))
    return p.kappa * fixed + cheapest * need + max(p.rho * overtime, 0.0)


def expected_patterns_considered(inp, level_best):
    """Patterns the planner visits: none when no pattern passes the
    charge-to-full test, else every level before the first level k < m
    whose bound exceeds the reference's best cost over the lower levels."""
    m = inp.station_count
    if not any(max_charge_feasible(inp, frozenset(p)) for p in stop_patterns(m)):
        return 0
    count = 0
    for k in range(m + 1):
        if k < m and level_bound(inp, k) > level_best[k] + _COST_TIE_TOL:
            break
        count += comb(m, k)
    return count


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planner_inputs())
def test_pruned_planner_matches_reference(inp):
    pruned = solve_charging_problem(inp)
    reference, level_best = reference_search(inp)
    assert pruned.status == reference.status
    assert pruned.plan == reference.plan
    assert pruned.patterns_considered == expected_patterns_considered(inp, level_best)
    assert pruned.lp_solves <= reference.lp_solves


@settings(max_examples=25, deadline=None, derandomize=True)
@given(planner_inputs(min_stations=9, max_stations=12))
def test_planner_matches_the_uncut_reference_up_to_twelve_stations(inp):
    pruned = solve_charging_problem(inp)
    reference = reference_solve_charging_problem(inp)
    assert pruned.status == reference.status
    assert pruned.plan == reference.plan


def _one_pass_feasible(inp):
    """The planner's charge-to-full pass, `_feasible`, over the rows of the
    input's tail."""
    tail = _tail_of(inp)
    return _feasible(tail.route.strict, tail.battery, tail.route.params.e_safe, tail.ramps)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(planner_inputs(min_stations=13, max_stations=16))
def test_long_tails_get_feasible_plans_at_their_own_cost(inp):
    solution = solve_charging_problem(inp)
    assert solution.status == ("optimal" if _one_pass_feasible(inp) else "infeasible")
    if solution.plan is not None:
        assert check_feasibility(inp, solution.plan.decisions) == []
        assert _tail_of(inp).cost(solution.plan.decisions)[0] == solution.plan.anticipated_cost


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planner_inputs())
def test_one_pass_feasibility_matches_full_enumeration(inp):
    patterns = stop_patterns(inp.station_count)
    expected = any(max_charge_feasible(inp, frozenset(p)) for p in patterns)
    assert _one_pass_feasible(inp) == expected


@pytest.mark.parametrize(
    "segments, detours, battery, strict, feasible",
    [
        # 200 kWh is below the first ramp's bound of 156 + 1.83 * 30, but a
        # truck that drives past it can stop at the second, which has no
        # detour; in strict margin mode it cannot drive past either
        ((5.0, 200.0), (30.0, 0.0), 200.0, False, True),
        ((5.0, 200.0), (30.0, 0.0), 200.0, True, False),
        # a refill after a 120-minute detour leaves less than driving past
        ((150.0,), (120.0,), 620.0, True, True),
    ],
)
def test_one_pass_feasibility_on_routes_with_long_detours(
    segments, detours, battery, strict, feasible
):
    inp = make_planner_input(
        segment_times=segments,
        detour_times=detours,
        battery=battery,
        require_detour_margin_everywhere=strict,
    )
    patterns = stop_patterns(inp.station_count)
    assert any(max_charge_feasible(inp, frozenset(p)) for p in patterns) is feasible
    assert _one_pass_feasible(inp) is feasible
    assert solve_charging_problem(inp).status == ("optimal" if feasible else "infeasible")


@pytest.mark.parametrize("m", range(13))
def test_level_order_is_the_bit_string_order(m):
    assert [p for k in range(m + 1) for p in _level_patterns(m, k)] == stop_patterns(m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planner_inputs())
def test_pattern_bound_never_exceeds_the_lp_optimum(inp):
    tail = _tail_of(inp)
    for selected in stop_patterns(inp.station_count):
        result = assignment_lp(inp, selected)
        if result.status != "optimal":
            continue
        walked = tail.walk(selected)
        assert walked is not None, f"pattern {selected} has an optimum but no bound"
        *_, lower, const = walked
        optimum = float(result.objective) + const
        assert lower <= optimum + 1e-9
        # the level bound is nondecreasing in k, so its own level suffices
        if selected:
            assert tail.level_bound(len(selected)) <= optimum + 1e-9
            assert level_bound(inp, len(selected)) == tail.level_bound(len(selected))


def test_pattern_bound_never_exceeds_a_fill_that_stops_within_the_tolerance():
    # a full charge at the one stop leaves the truck 5e-8 kWh short at the
    # destination, inside the 1e-7 tolerance: the solve buys the stop's cap,
    # less than the walk's need, and the bound counts at most that energy
    inp = make_planner_input(
        segment_times=(500.00000005,),
        detour_times=(0.0,),
        battery=300.0,
        remaining_time=1000.0,
        params=make_params(p_bar=1.0, e_full=600.0, e_safe=100.0),
    )
    tail = _tail_of(inp)
    need, caps, slack, lower, const = tail.walk((0,))
    assert caps[0] < need[0] < caps[0] + 1e-7
    x, objective = tail.finish((0,), need, caps, slack)
    assert x[0] == caps[0] / tail.rates[0]
    assert lower <= objective + const + 1e-9


def test_whole_run_outputs_match_the_reference_planner(tmp_path, monkeypatch):
    template = ScenarioTemplate(
        label="pruning",
        truck_count=8,
        station_count=5,
        port_count_range=(1, 1),
        port_power_range=(150.0, 400.0),
        price_range=(0.2, 0.6),
        stations_per_route_range=(3, 5),
        e_initial_range=(220.0, 320.0),
        depart_window=(480.0, 520.0),
    )
    scenario = generate_scenario(template, 1)
    lp_solves = {}

    def run_all(name, planner):
        def counted(inp):
            solution = planner(inp)
            lp_solves[name] = lp_solves.get(name, 0) + solution.lp_solves
            return solution

        monkeypatch.setattr(simulation, "solve_charging_problem", counted)
        monkeypatch.setattr(protocol, "solve_charging_problem", counted)
        for runner in (simulation.run_offline_baseline, simulation.run_proposed):
            write_run_outputs(runner(scenario), tmp_path / name / runner.__name__)
        return {
            p.relative_to(tmp_path / name): p.read_bytes()
            for p in sorted((tmp_path / name).rglob("*"))
            if p.is_file()
        }

    pruned = run_all("pruned", solve_charging_problem)
    # the engine plans over route tails; the reference takes their inputs
    reference = run_all("reference", lambda tail: reference_solve_charging_problem(planner_input_of(tail)))
    assert len(pruned) == 10
    assert pruned == reference
    assert lp_solves["pruned"] < lp_solves["reference"]
