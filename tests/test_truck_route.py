"""Per-truck route constants: the tail the engine plans over at each ramp
is the planner input it would state there, and plans exactly like it."""


import pytest

from fleetcharge import planner, protocol, simulation
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import replace
from fleetcharge.planner import PlannerInput, TruckRoute, _RouteTail, _tail_of

from conftest import make_params, make_planner_input, make_truck, planner_input_of

TEMPLATE = ScenarioTemplate(
    label="routes",
    truck_count=24,
    station_count=5,
    port_count_range=(1, 2),
    port_power_range=(150.0, 400.0),
    price_range=(0.2, 0.6),
    stations_per_route_range=(1, 5),
    e_initial_range=(220.0, 320.0),
    depart_window=(480.0, 540.0),
)


def _scenario(seed: int):
    """A generated fleet plus one truck that strands on the road: a 200 kWh
    pack cannot bank enough at either of its stations to finish."""
    scenario = generate_scenario(TEMPLATE, seed)
    doomed = make_truck(
        "t999",
        station_ids=tuple(s.id for s in scenario.stations[:2]),
        segment_times=(5.0, 60.0, 60.0),
        detour_times=(1.0, 1.0),
        e_initial=190.0,
        depart_time=500.0,
        params=make_params(e_full=200.0),
    )
    return replace(scenario, trucks=scenario.trucks + (doomed,))


def _stated_input(spec, stations, i, battery, quoted_wait, assumed_wait, clock, strict):
    """The planner input of truck ``spec`` at ramp i + 1, field by field as
    the engine stated it before it kept a route per truck."""
    route = spec.route
    return PlannerInput(
        params=spec.params,
        stations=tuple(stations[sid] for sid in route.station_ids[i:]),
        segment_times=tuple(route.segment_times[i + 1 :]),
        detour_times=tuple(route.detour_times[i:]),
        battery=battery,
        quoted_wait=quoted_wait,
        assumed_waits=(assumed_wait,) * (route.ramp_count - 1 - i),
        remaining_time=spec.deadline - clock,
        require_detour_margin_everywhere=strict,
    )


def _assert_tail_of(tail, i, expected):
    """``tail`` starts at ramp i, states ``expected``, and every slot the
    planner reads is that slot of the planner input's own tail. A level
    table is built by the first level bound, so when the engine's tail
    has one the stated tail builds its own."""
    assert tail.start == i
    assert planner_input_of(tail) == expected
    stated = _tail_of(expected)
    if tail.level_table is not None:
        stated.level_bound(0)
    for slot in _RouteTail.__slots__:
        if slot not in ("route", "start"):
            assert getattr(tail, slot) == getattr(stated, slot), slot


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "relaxed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_planning_point_equals_its_planner_input(monkeypatch, seed, strict):
    scenario = _scenario(seed)
    specs = {t.id: t for t in scenario.trucks}
    stations = scenario.station_by_id()
    tails = []
    exchanges = []
    solve = planner.solve_charging_problem
    exchange = simulation.run_ramp_exchange

    def recording_solve(tail):
        solution = solve(tail)
        assert solution == solve(planner_input_of(tail))
        tails.append(tail)
        return solution

    def recording_exchange(seq, ledger, truck_id, station_id, clock, route, i, battery, remaining):
        outcome = exchange(seq, ledger, truck_id, station_id, clock, route, i, battery, remaining)
        exchanges.append((truck_id, clock, i, battery, outcome.quote.wait))
        return outcome

    monkeypatch.setattr(simulation, "solve_charging_problem", recording_solve)
    monkeypatch.setattr(protocol, "solve_charging_problem", recording_solve)
    monkeypatch.setattr(simulation, "run_ramp_exchange", recording_exchange)

    offline = simulation.run_offline_baseline(scenario, require_detour_margin_everywhere=strict)
    planned = [t for t in scenario.trucks if t.route.ramp_count > 0]
    assert len(tails) == len(planned)
    for tail, spec in zip(tails, planned):
        tau0 = spec.route.segment_times[0]
        battery = spec.e_initial - spec.params.p_bar * tau0
        clock = spec.depart_time + tau0
        expected = _stated_input(spec, stations, 0, battery, 0.0, 0.0, clock, strict)
        _assert_tail_of(tail, 0, expected)

    tails.clear()
    proposed = simulation.run_proposed(scenario, require_detour_margin_everywhere=strict)
    assert len(tails) == len(exchanges) == proposed.ramp_arrivals
    for tail, (truck_id, clock, i, battery, quoted) in zip(tails, exchanges):
        spec = specs[truck_id]
        expected = _stated_input(spec, stations, i, battery, quoted, spec.w_hat_default, clock, strict)
        _assert_tail_of(tail, i, expected)
    # some trucks stop on the way and replan past their first ramp, and
    # the doomed truck strands in both runs
    assert any(i > 0 for _, _, i, _, _ in exchanges)
    assert offline.metrics.totals.stranded >= 1
    assert proposed.metrics.totals.stranded >= 1


def test_route_checks_the_per_ramp_values_as_the_planner_input_does():
    inp = make_planner_input(segment_times=(30.0, 60.0), detour_times=(3.0, 5.0))
    route = TruckRoute.of_input(inp)
    for field, value in [
        ("battery", float("nan")),
        ("quoted_wait", -1.0),
        ("quoted_wait", float("inf")),
        ("remaining_time", float("inf")),
    ]:
        with pytest.raises(ValueError) as stated:
            replace(inp, **{field: value})
        values = {"battery": 300.0, "quoted_wait": 0.0, "remaining_time": 240.0, field: value}
        with pytest.raises(ValueError) as sliced:
            route.at(1, values["battery"], values["quoted_wait"], values["remaining_time"])
        assert str(sliced.value) == str(stated.value)
