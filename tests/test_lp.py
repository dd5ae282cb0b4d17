"""The gas-station solver of multi-stop duration LPs, checked against the
simplex of `reference_lp` on the dense LP the planner used to build, and
against scipy's HiGHS on objectives. scipy serves here purely as a
reference answer, never as the production path."""

import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from fleetcharge.planner import _COST_TIE_TOL, _tail_of, solve_lp

import reference_lp
from conftest import make_params, make_planner_input, make_station, planner_inputs
from reference_planner import stop_patterns


def _cost(tail, selected, x) -> tuple[float, float]:
    """The LP objective and the charging minutes of durations ``x``
    followed by the hinge."""
    k = len(selected)
    cost = sum(tail.minute_cost[l] * t for l, t in zip(selected, x)) + x[k]
    return cost, sum(x[:k])


def _assert_matches_the_simplex(tail, selected):
    mine = tail.solve(selected)
    c, a_ub, b_ub = reference_lp.duration_program(tail, selected)
    search = reference_lp.solve_lp(c, a_ub, b_ub)
    assert mine.status == search.status, selected
    if search.status != "optimal":
        return mine
    ref = search.objective
    assert abs(mine.objective - ref) <= 1e-9 * max(abs(ref), 1.0), selected
    highs = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert highs.status == 0
    assert mine.objective == pytest.approx(highs.fun, rel=1e-7, abs=1e-7)
    cost, minutes = _cost(tail, selected, mine.x)
    assert cost == pytest.approx(mine.objective, rel=1e-12, abs=1e-12)
    canonical = reference_lp.duration_lp(
        tail, selected, cost_cap=ref + _COST_TIE_TOL, minimize_total_time=True
    )
    assert canonical.status == "optimal"
    k = len(selected)
    if not all(
        abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1.0)
        for a, b in zip(mine.x[:k], canonical.x[:k])
    ):
        # the simplex spent the cap's slack on fewer minutes
        ref_cost, ref_minutes = _cost(tail, selected, canonical.x)
        assert ref_cost <= cost + _COST_TIE_TOL + 1e-12 * abs(cost), selected
        assert ref_minutes <= minutes * (1 + 1e-12), selected
    return mine


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planner_inputs(min_stations=2, max_stations=8))
def test_multi_stop_lps_match_the_simplex(inp):
    tail = _tail_of(inp)
    for selected in stop_patterns(inp.station_count):
        if len(selected) > 1:
            _assert_matches_the_simplex(tail, selected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planner_inputs())
def test_the_solver_covers_patterns_with_at_most_one_stop(inp):
    # the closed forms return what the fill returns on the same walk
    tail = _tail_of(inp)
    for selected in stop_patterns(inp.station_count):
        if len(selected) > 1:
            break
        walked = tail.walk(selected)
        direct = tail.solve(selected)
        assert (direct.status == "infeasible") == (walked is None), selected
        if direct.status == "optimal":
            need, caps, slack, _, _ = walked
            rates = [tail.rates[l] for l in selected]
            costs = [tail.minute_cost[l] for l in selected]
            assert solve_lp(need, caps, rates, costs, inp.params.rho, slack) == direct, selected


# -- hand cases ---------------------------------------------------------------


def _two_stops(stations, battery=300.0, remaining_time=300.0, **params):
    return _tail_of(
        make_planner_input(
            stations=stations,
            segment_times=(60.0, 60.0),
            detour_times=(0.0, 0.0),
            battery=battery,
            assumed_waits=(0.0,),
            remaining_time=remaining_time,
            params=make_params(**params),
        )
    )


def test_equal_costs_per_kwh_within_rounding_go_to_the_faster_stop():
    # 0.4 EUR/min of labor at 160 kW and 0.20 EUR/kWh costs
    # 0.35000000000000003 EUR/kWh, at 150 kW and 0.19 EUR/kWh 0.35: equal in
    # the reals, so the energy goes to the faster first stop
    tail = _two_stops(
        (make_station("s01", port_power=160.0, price=0.20), make_station("s02", port_power=150.0, price=0.19)),
        kappa=0.4,
        rho=0.0,
    )
    keys = [c / r for c, r in zip(tail.minute_cost, tail.rates)]
    assert keys[0] != keys[1] and keys[0] == pytest.approx(keys[1], rel=1e-15)
    result = _assert_matches_the_simplex(tail, (0, 1))
    assert result.x[0] > 0.0 and result.x[1] == 0.0


def test_the_overtime_price_moves_energy_to_the_faster_stop():
    # station 0 is cheaper per kWh but slower; with no slack to spare the
    # hinge's price per minute makes the faster station 1 the better buy
    stations = (make_station("s01", port_power=150.0, price=0.20), make_station("s02", port_power=400.0, price=0.30))
    slack = _assert_matches_the_simplex(_two_stops(stations, remaining_time=1000.0, rho=10.0), (0, 1))
    assert slack.x[1] == 0.0 and slack.x[-1] == 0.0
    tight = _assert_matches_the_simplex(_two_stops(stations, remaining_time=120.0, rho=10.0), (0, 1))
    assert tight.x[1] > 0.0 and tight.x[-1] > 0.0


def test_the_slack_is_used_exactly_between_two_fills():
    # a budget between the minutes of the cheapest fill and the fastest
    # one: the durations mix the two and the hinge stays at zero
    stations = (make_station("s01", port_power=150.0, price=0.20), make_station("s02", port_power=400.0, price=0.30))
    loose = _two_stops(stations, remaining_time=1000.0, rho=10.0).solve((0, 1))
    tight = _two_stops(stations, remaining_time=120.0, rho=10.0).solve((0, 1))
    budget = 120.0 + (sum(loose.x[:2]) + sum(tight.x[:2])) / 2
    tail = _two_stops(stations, remaining_time=budget, rho=10.0)
    result = _assert_matches_the_simplex(tail, (0, 1))
    assert result.x[0] > 0.0 and result.x[1] > 0.0
    assert result.x[-1] == pytest.approx(0.0, abs=1e-9)
    assert sum(result.x[:2]) == pytest.approx(budget - 120.0, rel=1e-12)


def test_the_slack_splits_the_energy_at_the_second_breakpoint():
    # only the destination needs energy, and each stop can hold all of it.
    # Per kWh, the slowest stop is cheapest at lam = 0, the middle one from
    # the first breakpoint and the fastest from the second; a budget
    # between the middle and the fastest fill's minutes mixes those two
    stations = (
        make_station("s01", port_power=150.0, price=0.20),
        make_station("s02", port_power=250.0, price=0.30),
        make_station("s03", port_power=375.0, price=0.40),
    )
    inp = make_planner_input(
        stations=stations,
        segment_times=(60.0, 60.0, 60.0),
        detour_times=(0.0, 0.0, 0.0),
        battery=400.0,
        assumed_waits=(0.0, 0.0),
        remaining_time=197.0,
    )
    tail = _tail_of(inp)
    result = _assert_matches_the_simplex(tail, (0, 1, 2))
    assert result.x[0] == 0.0 and result.x[1] > 0.0 and result.x[2] > 0.0
    assert sum(result.x[:3]) == pytest.approx(197.0 - 180.0, rel=1e-12)


@pytest.mark.parametrize("excess, status", [(5e-8, "optimal"), (2e-7, "infeasible")])
def test_a_need_past_the_last_cap_is_judged_by_the_tolerance(excess, status):
    # the destination is ``excess`` kWh further away than a full charge at
    # the last stop covers. Within the tolerance the fill stops at the cap,
    # where the simplex lets the capacity row give
    p = make_params()
    inp = make_planner_input(
        segment_times=(30.0, (p.e_full - p.e_safe + excess) / p.p_bar),
        detour_times=(0.0, 0.0),
        battery=300.0,
        params=p,
    )
    tail = _tail_of(inp)
    result = tail.solve((0, 1))
    reference = reference_lp.duration_lp(tail, (0, 1))
    assert result.status == reference.status == status
    if status == "optimal":
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)
        caps, rates = tail.walk((0, 1))[1], tail.rates
        assert result.x[0] * rates[0] + result.x[1] * rates[1] <= caps[1]
        assert reference.x[0] * rates[0] + reference.x[1] * rates[1] > caps[1]


def test_a_need_beyond_every_cap_is_infeasible():
    p = make_params()
    tail = _two_stops((make_station("s01"), make_station("s02")), battery=p.e_safe + 1.0)
    far = _tail_of(
        make_planner_input(
            segment_times=(10.0, 2 * (p.e_full - p.e_safe) / p.p_bar),
            detour_times=(0.0, 0.0),
            battery=p.e_safe + 1.0,
            params=p,
        )
    )
    assert _assert_matches_the_simplex(tail, (0, 1)).status == "optimal"
    assert _assert_matches_the_simplex(far, (0, 1)).status == "infeasible"
