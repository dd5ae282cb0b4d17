"""The no-stop pattern is solved without the simplex: its closed form
returns exactly what the simplex returns on that pattern's LP, and
`lp_solves` still counts every `solve_lp` call the planner makes. When
it is feasible no pattern costs less, in floats too, so its plan ends the
search."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fleetcharge.model import charging_rate, replace
from fleetcharge.planner import _tail_of, solve_charging_problem

from conftest import (
    assignment_lp,
    counting_solve_lp,
    make_params,
    make_planner_input,
    planner_inputs,
)
from reference_planner import reference_solve_charging_problem, stop_patterns


def _assert_same_result(inp):
    direct = _tail_of(inp).solve(())
    simplex = assignment_lp(inp, ())
    assert direct.status == simplex.status
    if simplex.status == "optimal":
        assert direct.objective.hex() == simplex.objective.hex()
        assert [v.hex() for v in direct.x] == [v.hex() for v in simplex.x]
    return direct


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planner_inputs())
def test_no_stop_solver_matches_the_simplex(inp):
    _assert_same_result(inp)


def test_no_stop_without_overtime_price_costs_nothing():
    # the deadline is missed, but rho = 0 puts no price on it
    inp = make_planner_input(
        segment_times=(60.0, 60.0),
        detour_times=(5.0, 5.0),
        battery=500.0,
        remaining_time=100.0,
        params=make_params(rho=0.0),
    )
    assert _assert_same_result(inp).objective == 0.0


def test_no_stop_prices_the_overtime_hinge():
    inp = make_planner_input(
        segment_times=(60.0, 60.0),
        detour_times=(5.0, 5.0),
        battery=500.0,
        remaining_time=100.0,
        params=make_params(rho=10.0),
    )
    result = _assert_same_result(inp)
    assert result.objective == pytest.approx(200.0)
    assert result.x == (result.objective,)


def _shortfall_input(rows: int, short: float, strict: bool):
    # Every ramp after the first and the destination sit ``short`` kWh
    # below their bound on the no-charge trajectory, so strict mode has
    # ``rows`` short rows and relaxed mode only the destination's.
    p = make_params()
    return make_planner_input(
        segment_times=(30.0,) + (0.0,) * (rows - 1),
        detour_times=(0.0,) * rows,
        battery=p.e_safe + p.p_bar * 30.0 - short,
        params=p,
        require_detour_margin_everywhere=strict,
    )


# each row is within the 1e-7 phase-1 tolerance; the rows' sum is not
SUMMED_SHORTFALLS = [(2, 7e-8), (3, 4e-8)]


@pytest.mark.parametrize("rows, short", SUMMED_SHORTFALLS)
def test_summed_shortfall_makes_the_strict_no_stop_pattern_infeasible(rows, short):
    inp = _shortfall_input(rows, short, strict=True)
    assert _assert_same_result(inp).status == "infeasible"
    sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    first, *rest = sol.plan.decisions
    assert first.charge and not any(d.charge for d in rest)
    rate = charging_rate(inp.stations[0], inp.params)
    assert first.duration == pytest.approx(short / rate, rel=1e-4)


@pytest.mark.parametrize("rows, short", SUMMED_SHORTFALLS)
def test_one_short_row_stays_within_the_tolerance_in_relaxed_mode(rows, short):
    inp = _shortfall_input(rows, short, strict=False)
    assert _assert_same_result(inp).status == "optimal"
    sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    assert not any(d.charge for d in sol.plan.decisions)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planner_inputs())
def test_lp_solves_counts_every_solve_lp_call(inp):
    calls, patch = counting_solve_lp()
    with patch:
        sol = solve_charging_problem(inp)
    assert sol.lp_solves == len(calls)


def test_a_winning_no_stop_plan_solves_no_lp():
    inp = make_planner_input(segment_times=(30.0, 30.0), detour_times=(5.0, 5.0), battery=500.0)
    calls, patch = counting_solve_lp()
    with patch:
        sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    assert not any(d.charge for d in sol.plan.decisions)
    assert sol.lp_solves == 0
    assert calls == []


# penalty prices from none to the float maximum, where costs overflow
_PRICES = st.sampled_from([0.0, 0.4, 1.0, 100.0, 1e10, 1e100, 1e300, 1e308]) | st.floats(0.0, 1e308)


@st.composite
def _priced_inputs(draw):
    """Planner inputs whose kappa and rho reach 1e308."""
    inp = draw(planner_inputs())
    params = replace(inp.params, kappa=draw(_PRICES), rho=draw(_PRICES))
    return replace(inp, params=params)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_priced_inputs())
def test_no_feasible_pattern_costs_less_than_a_feasible_no_stop_pattern(inp):
    tail = _tail_of(inp)
    walked = tail.walk(())
    assume(walked is not None)
    need, caps, slack, _, const = walked
    no_stop = tail.finish((), need, caps, slack)[1] + const
    for selected in stop_patterns(inp.station_count):
        walked = tail.walk(selected)
        if walked is not None:
            need, caps, slack, _, const = walked
            cost = tail.finish(selected, need, caps, slack)[1] + const
            # the planner counts a NaN cost as inf
            assert cost != cost or cost >= no_stop, selected


def test_a_zero_length_stop_that_ties_the_no_stop_plan_loses():
    # no detour, no quote and no charge needed: stopping at station 0 adds
    # nothing, and the overtime hinge is the same 10 * 20 for both plans
    inp = make_planner_input(
        segment_times=(60.0,),
        detour_times=(0.0,),
        battery=500.0,
        quoted_wait=0.0,
        remaining_time=40.0,
        params=make_params(rho=10.0),
    )
    tail = _tail_of(inp)

    def solved(selected):
        need, caps, slack, _, const = tail.walk(selected)
        x, objective = tail.finish(selected, need, caps, slack)
        return x, objective + const

    (_, no_stop), (x, stop) = solved(()), solved((0,))
    assert x[0] == 0.0
    assert stop == no_stop == 200.0
    solution = solve_charging_problem(inp)
    assert solution.patterns_considered == 1
    assert solution.lp_solves == 0
    assert solution.plan.decisions[0].charge is False
    assert solution.plan.anticipated_cost == 200.0
    assert solution.plan == reference_solve_charging_problem(inp).plan
