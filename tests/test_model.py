"""Data model: unit conversions, validation, canonical serialization."""

import json

import pytest

from fleetcharge import model
from fleetcharge.model import (
    Route,
    Scenario,
    ScenarioFormatError,
    charging_rate,
    electricity_price_per_minute,
    replace,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)

from conftest import DEFAULTS, make_params, make_scenario, make_station, make_truck


def test_reserve_is_quarter_of_capacity():
    assert DEFAULTS.e_safe == 156.0
    assert DEFAULTS.e_full == 624.0
    assert DEFAULTS.e_safe == 0.25 * DEFAULTS.e_full


def test_charging_rate_is_capped_by_vehicle_limit(params):
    assert charging_rate(make_station(port_power=300.0), params) == 5.0
    # a port stronger than the vehicle limit charges at the vehicle limit
    assert charging_rate(make_station(port_power=600.0), params) == 375.0 / 60.0


def test_price_per_minute_follows_effective_rate(params):
    assert electricity_price_per_minute(make_station(port_power=300.0), params) == pytest.approx(
        1.8, abs=1e-12
    )
    assert electricity_price_per_minute(make_station(port_power=600.0), params) == pytest.approx(
        0.36 * 375.0 / 60.0, abs=1e-12
    )


def test_deadline_is_depart_plus_drive_plus_budget():
    truck = make_truck(segment_times=(30.0, 60.0), depart_time=480.0, budget=160.0)
    assert truck.deadline == 480.0 + 90.0 + 160.0


def test_valid_scenario_has_no_violations():
    assert validate_scenario(make_scenario()) == []


def test_validation_flags_duplicate_ids():
    sc = make_scenario(stations=(make_station("s01"), make_station("s01")))
    assert any("duplicate station id" in msg for msg in validate_scenario(sc))
    sc = make_scenario(trucks=(make_truck("t001"), make_truck("t001")))
    assert any("duplicate truck id" in msg for msg in validate_scenario(sc))


def test_validation_flags_bad_port_count():
    sc = make_scenario(stations=(make_station(port_count=0),))
    assert any("port_count" in msg for msg in validate_scenario(sc))


def test_validation_flags_route_shape_mismatch():
    truck = make_truck()
    bad = replace(
        truck,
        route=Route(
            ramp_count=1,
            segment_times=(30.0,),
            detour_times=(5.0,),
            station_ids=("s01",),
        ),
    )
    sc = make_scenario(trucks=(bad,))
    assert any("segment_times" in msg for msg in validate_scenario(sc))


def test_validation_flags_unknown_station_reference():
    sc = make_scenario(trucks=(make_truck(station_ids=("nope",)),))
    assert any("nope" in msg for msg in validate_scenario(sc))


def test_validation_flags_overfull_battery():
    sc = make_scenario(trucks=(make_truck(e_initial=700.0),))
    assert any("exceeds battery capacity" in msg for msg in validate_scenario(sc))


def test_validation_flags_battery_too_low_for_first_detour():
    # just below reserve plus the energy of the first detour leg
    sc = make_scenario(trucks=(make_truck(e_initial=156.0),))
    msgs = validate_scenario(sc)
    assert any("initial battery insufficient for first detour" in msg for msg in msgs)


def test_validation_reports_every_truck_with_non_finite_fields():
    sc = make_scenario(
        trucks=(
            make_truck("t001", e_initial=float("nan")),
            make_truck("t002", depart_time=float("inf")),
            make_truck("t003", e_initial=700.0),
            make_truck("t004", params=make_params(p_bar=float("nan"))),
        )
    )
    msgs = validate_scenario(sc)
    assert "truck t001: e_initial is not a finite number" in msgs
    assert "truck t002: depart_time is not a finite number" in msgs
    assert "truck t004: p_bar is not a finite number" in msgs
    assert any("t003" in msg and "exceeds battery capacity" in msg for msg in msgs)


def test_validation_flags_route_totals_that_are_not_finite():
    sc = make_scenario(
        trucks=(
            make_truck("t001", segment_times=(1e308, 1e308)),
            make_truck("t002", params=make_params(p_max=1e-320)),
        )
    )
    assert validate_scenario(sc) == [
        "truck t001: deadline is not a finite number",
        "truck t001: the energy drained over the route is not a finite number",
        "truck t002: a full charge at station s01 does not take a finite time",
    ]
    # a station's own fault is reported once, not again for each truck
    sc = make_scenario(stations=(make_station(port_power=0.0),))
    assert validate_scenario(sc) == ["station s01: port_power must be positive, got 0.0"]


def test_validation_is_pure():
    sc = make_scenario(trucks=(make_truck(e_initial=156.0),))
    assert validate_scenario(sc) == validate_scenario(sc)


def _counting_truck_checks(monkeypatch) -> list[str]:
    """The prefixes of the per-truck checks validation makes from now on."""
    checked: list[str] = []
    check_params = model._check_params

    def counted(prefix, params, out):
        checked.append(prefix)
        return check_params(prefix, params, out)

    monkeypatch.setattr(model, "_check_params", counted)
    return checked


def test_a_scenario_object_is_checked_once(monkeypatch):
    sc = make_scenario(trucks=(make_truck("t001"), make_truck("t002", e_initial=700.0)))
    checked = _counting_truck_checks(monkeypatch)
    first = validate_scenario(sc)
    assert checked == ["truck t001", "truck t002"]
    second = validate_scenario(sc)
    assert second == first == ["truck t002: e_initial 700.0 exceeds battery capacity 624.0"]
    assert second is not first
    assert checked == ["truck t001", "truck t002"]
    # the caller owns the list it is given
    second.clear()
    assert validate_scenario(sc) == first
    assert checked == ["truck t001", "truck t002"]


def test_an_equal_scenario_object_is_checked_again(monkeypatch):
    sc = make_scenario(stations=(make_station(port_count=1),))
    assert validate_scenario(sc) == []
    checked = _counting_truck_checks(monkeypatch)
    assert validate_scenario(make_scenario(stations=(make_station(port_count=1),))) == []
    assert checked == ["truck t001"]
    # True == 1, so the two scenarios are equal, but a bool is no port count
    odd = make_scenario(stations=(make_station(port_count=True),))
    assert odd == sc
    assert validate_scenario(odd) == ["station s01: port_count must be an integer >= 1, got True"]


def test_a_scenario_holding_a_list_is_checked_on_every_call(monkeypatch):
    trucks = [make_truck("t001")]
    sc = make_scenario(trucks=trucks)
    assert validate_scenario(sc) == []
    trucks.append(make_truck("t001"))
    assert validate_scenario(sc) == ["truck t001: duplicate truck id"]

    segments = [30.0, 60.0]
    sc = make_scenario(trucks=(make_truck("t001"), make_truck("t002", segment_times=segments)))
    checked = _counting_truck_checks(monkeypatch)
    assert validate_scenario(sc) == []
    segments[1] = -1.0
    assert validate_scenario(sc) == [
        "truck t002: segment_times[1] must be a nonnegative number, got -1.0"
    ]
    assert checked == ["truck t001", "truck t002"] * 2


def test_scenario_round_trips_byte_exactly():
    sc = make_scenario(
        stations=(make_station("s01"), make_station("s02", port_count=1)),
        trucks=(
            make_truck("t001"),
            make_truck(
                "t002",
                station_ids=("s01", "s02"),
                segment_times=(25.5, 40.1, 33.3),
                detour_times=(4.2, 7.9),
            ),
        ),
    )
    text = scenario_to_json(sc)
    again = scenario_to_json(scenario_from_json(text))
    assert text == again
    assert text.endswith("\n")


def test_parsing_preserves_integer_literals():
    sc = make_scenario()
    text = scenario_to_json(sc)
    doc = json.loads(text)
    assert isinstance(doc["stations"][0]["port_count"], int)
    parsed = scenario_from_json(text)
    assert isinstance(parsed.stations[0].port_count, int)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("label"), "label"),
        (lambda d: d["stations"][0].pop("port_power"), "port_power"),
        (lambda d: d["stations"][0].update(port_count="three"), "port_count"),
        (lambda d: d["stations"][0].update(ports=3), r"^stations\[0\]: unexpected field 'ports'$"),
        (lambda d: d["trucks"][0].update(e_initial="full"), "e_initial"),
        (lambda d: d["trucks"][0]["route"].update(ramp_count=1.5), "ramp_count"),
        (lambda d: d["trucks"][0]["params"].update(p_bar=True), "p_bar"),
        (lambda d: d["trucks"][0].update(e_initial=10**400), "e_initial"),
        (
            lambda d: d["trucks"][0]["route"]["station_ids"].__setitem__(0, 7),
            r"trucks\[0\]\.route: station_ids\[0\] must be a string",
        ),
        (
            lambda d: d["trucks"][0]["route"]["detour_times"].__setitem__(0, float("nan")),
            r"trucks\[0\]\.route: detour_times\[0\] must be a finite number",
        ),
    ],
)
def test_parser_rejects_malformed_documents(mutate, fragment):
    doc = json.loads(scenario_to_json(make_scenario()))
    mutate(doc)
    with pytest.raises(ScenarioFormatError, match=fragment):
        scenario_from_json(json.dumps(doc))


def test_parser_rejects_non_finite_numbers():
    doc = json.loads(scenario_to_json(make_scenario()))
    doc["trucks"][0]["e_initial"] = float("nan")
    with pytest.raises(ScenarioFormatError, match="e_initial"):
        scenario_from_json(json.dumps(doc))


def test_parser_rejects_invalid_json():
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        scenario_from_json("{not json")
    with pytest.raises(ScenarioFormatError, match="object"):
        scenario_from_json("[1, 2]")
