"""Seeded scenario generation: reproducibility, grids, completability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge import generator
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import (
    MAX_ENUMERATED_STATIONS,
    ordered_sum,
    scenario_to_json,
    validate_scenario,
)
from fleetcharge.planner import PlannerInput
from fleetcharge.simulation import audit_run, run_offline_baseline, run_proposed

from reference_planner import max_charge_feasible, stop_patterns


def _on_tenth_grid(x: float) -> bool:
    return round(x * 10) == pytest.approx(x * 10, abs=1e-9)


def test_same_seed_same_bytes():
    t = ScenarioTemplate()
    assert scenario_to_json(generate_scenario(t, 7)) == scenario_to_json(
        generate_scenario(t, 7)
    )


def test_different_seeds_differ():
    t = ScenarioTemplate()
    assert scenario_to_json(generate_scenario(t, 0)) != scenario_to_json(
        generate_scenario(t, 1)
    )


@pytest.mark.parametrize("seed", range(6))
def test_generated_scenarios_validate(seed):
    sc = generate_scenario(ScenarioTemplate(), seed)
    assert validate_scenario(sc) == []


def test_values_respect_template_ranges():
    t = ScenarioTemplate(
        truck_count=15,
        station_count=4,
        port_count_range=(2, 5),
        depart_window=(480.0, 600.0),
        e_initial_range=(220.0, 500.0),
        segment_time_range=(20.0, 60.0),
        detour_time_range=(3.0, 12.0),
        stations_per_route_range=(2, 4),
    )
    sc = generate_scenario(t, 11)
    assert len(sc.stations) == 4
    assert len(sc.trucks) == 15
    for s in sc.stations:
        assert 2 <= s.port_count <= 5
    ids = [s.id for s in sc.stations]
    for truck in sc.trucks:
        assert 480.0 <= truck.depart_time <= 600.0
        assert truck.e_initial <= 500.0
        assert 2 <= truck.route.ramp_count <= 4
        # stops appear in travel order with no repeats
        positions = [ids.index(s) for s in truck.route.station_ids]
        assert positions == sorted(set(positions))
        for x in truck.route.segment_times:
            assert 20.0 <= x <= 60.0
        for x in truck.route.detour_times:
            assert 3.0 <= x <= 12.0


def test_times_and_energies_sit_on_tenth_grid():
    sc = generate_scenario(ScenarioTemplate(), 3)
    for truck in sc.trucks:
        assert _on_tenth_grid(truck.depart_time)
        assert _on_tenth_grid(truck.e_initial)
        for x in truck.route.segment_times + truck.route.detour_times:
            assert _on_tenth_grid(x)


def test_initial_battery_clears_the_first_stop():
    # enough energy to reach the first station and still hold the reserve
    sc = generate_scenario(ScenarioTemplate(), 5)
    for truck in sc.trucks:
        p = truck.params
        floor = p.e_safe + p.p_bar * (
            truck.route.segment_times[0] + truck.route.detour_times[0]
        )
        assert truck.e_initial >= floor - 1e-9


@pytest.mark.parametrize("seed", (0, 4))
def test_generated_fleets_complete_their_trips(seed):
    sc = generate_scenario(ScenarioTemplate(truck_count=10), seed)
    for runner in (run_proposed, run_offline_baseline):
        result = runner(sc)
        assert result.metrics.totals.stranded == 0
        assert audit_run(sc, result) == []


# completable means by charging: most trucks of the reference template
# cannot reach their destination on their initial battery
def test_generated_fleets_need_charging():
    sc = generate_scenario(ScenarioTemplate(), 0)
    short = [
        t
        for t in sc.trucks
        if t.e_initial - t.params.p_bar * ordered_sum(t.route.segment_times) < t.params.e_safe
    ]
    assert len(short) > len(sc.trucks) // 2


def test_template_from_dict_round_trip():
    t = ScenarioTemplate.from_dict(
        {"truck_count": 8, "port_count_range": [1, 2], "label": "x"}
    )
    assert t.truck_count == 8
    assert t.port_count_range == (1, 2)
    assert t.label == "x"


def test_template_rejects_unknown_keys():
    with pytest.raises(ValueError, match="^template: unexpected field 'trucks'$"):
        ScenarioTemplate.from_dict({"trucks": 8})


def test_template_rejects_bad_ranges():
    with pytest.raises(ValueError, match="invalid template ranges"):
        ScenarioTemplate(segment_time_range=(60.0, 20.0))
    with pytest.raises(ValueError, match="invalid template ranges"):
        ScenarioTemplate(truck_count=0)
    # the longest route a truck draw can give, the range's end or every
    # station, must be at least its start and at most the planner's cap
    with pytest.raises(ValueError, match="stations_per_route_range exceeds station_count$"):
        ScenarioTemplate(station_count=3, stations_per_route_range=(4, 5))
    with pytest.raises(ValueError, match="allows routes of 17 stations, past .* cap of 16$"):
        ScenarioTemplate(station_count=20, stations_per_route_range=(12, 17))
    ScenarioTemplate(station_count=20, stations_per_route_range=(12, 16))
    ScenarioTemplate(station_count=16, stations_per_route_range=(12, 40))


def test_generation_fails_loudly_when_nothing_completable():
    # batteries capped barely above the reserve cannot reach any station
    t = ScenarioTemplate(
        e_initial_range=(157.0, 158.0),
        segment_time_range=(50.0, 60.0),
    )
    with pytest.raises(ValueError, match="completable"):
        generate_scenario(t, 0)


def test_labels_carry_through():
    sc = generate_scenario(ScenarioTemplate(label="rush-hour"), 2)
    assert sc.label == "rush-hour"
    assert sc.rng_seed == 2


def _planner_completable(params, stations, segs, detours, e_initial, remaining_time):
    """The oracle of `generator._route_completable`: whether charging to
    full at some stop pattern completes the planning problem at the first
    ramp, with every wait 0, by trying every pattern. Building the problem
    refuses what the planner refuses."""
    inp = PlannerInput(
        params=params,
        stations=stations,
        segment_times=segs[1:],
        detour_times=detours,
        battery=e_initial - params.p_bar * segs[0],
        quoted_wait=0.0,
        assumed_waits=(0.0,) * (len(stations) - 1),
        remaining_time=remaining_time,
    )
    return any(max_charge_feasible(inp, frozenset(p)) for p in stop_patterns(len(stations)))


def _outcome(test, *args):
    """What ``test`` returns, or the type and message of the ValueError it
    raises."""
    try:
        return test(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _ranges(lo, hi):
    """Inclusive (lo, hi) pairs of floats in [lo, hi]."""
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(lambda r: tuple(sorted(r)))


@st.composite
def _templates(draw):
    """Templates of up to 20 stations whose routes run from one station to
    the planner's cap of 16, with batteries from far below to far above
    what a route needs."""
    station_count = draw(st.integers(1, 20))
    longest = min(station_count, MAX_ENUMERATED_STATIONS)
    lo = draw(st.integers(1, longest))
    return ScenarioTemplate(
        truck_count=draw(st.integers(1, 6)),
        station_count=station_count,
        stations_per_route_range=(lo, draw(st.integers(lo, longest))),
        segment_time_range=draw(_ranges(0.1, 150.0)),
        detour_time_range=draw(_ranges(0.0, 40.0)),
        e_initial_range=draw(_ranges(0.0, 800.0)),
        extra_time_budget=draw(st.sampled_from([0.0, 160.0, 1.7e308])),
        p_bar=draw(st.floats(0.5, 4.0)),
        e_full=draw(st.floats(300.0, 800.0)),
        e_safe=draw(st.floats(50.0, 250.0)),
    )


# every truck draw's test, over random templates, gives the answer of trying
# every stop pattern, or the planner input's refusal
@settings(max_examples=200, deadline=None, derandomize=True)
@given(template=_templates(), seed=st.integers(0, 2**32 - 1))
def test_route_completable_is_the_planners_test(template, seed):
    route_completable = generator._route_completable

    def checked(*args):
        outcome = _outcome(route_completable, *args)
        assert outcome == _outcome(_planner_completable, *args), args
        if isinstance(outcome, str):
            raise ValueError(outcome)
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "_route_completable", checked)
        try:
            generate_scenario(template, seed)
        except ValueError:
            pass
