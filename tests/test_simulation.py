"""Discrete-event engine: contention, conservation, determinism."""

import json
from pathlib import Path

import pytest

from fleetcharge import model, simulation
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import (
    Scenario,
    _record_fields,
    encode_record,
    load_scenario,
    ordered_sum,
    replace,
    validate_scenario,
)
from fleetcharge.reports import StationTotals
from fleetcharge.simulation import (
    RunMetrics,
    RunOverflowError,
    audit_run,
    compare,
    metrics_from_dict,
    run_offline_baseline,
    run_proposed,
)

from conftest import make_params, make_scenario, make_station, make_truck, planner_input_of

GOLDEN_SCENARIO = Path(__file__).parent / "goldens" / "scenario.json"


def _contention_scenario() -> Scenario:
    # one single-port station, two identical trucks five minutes apart,
    # batteries low enough that both must charge there
    station = make_station("s01", port_count=1)
    t1 = make_truck(
        "t001",
        station_ids=("s01",),
        segment_times=(30.0, 60.0),
        detour_times=(2.0,),
        e_initial=230.0,
        depart_time=0.0,
    )
    t2 = replace(t1, id="t002", depart_time=5.0)
    return make_scenario(stations=(station,), trucks=(t1, t2), label="contention")


def test_second_truck_waits_exactly_the_overlap():
    result = run_proposed(_contention_scenario())
    assert audit_run(_contention_scenario(), result) == []
    first, second = result.metrics.per_truck
    (v1,) = first.visits
    (v2,) = second.visits
    assert v1.t_arrival == 32.0  # ramp at 30, detour 2
    assert v2.t_arrival == 37.0
    assert v1.realized_wait == 0.0
    # the port frees at (32 + 0) + charge time; the second truck arrives at 37
    expected = max((32.0 + v1.charge_time) - 37.0, 0.0)
    assert v2.quoted_wait == expected
    assert v2.realized_wait == v2.quoted_wait
    assert v2.realized_wait > 0.0
    # both charge the same duration: equal state, wait does not change energy
    assert v1.charge_time == pytest.approx(v2.charge_time, abs=1e-9)
    # arrival chains through start + charge + detour + segment
    assert first.arrival_time == pytest.approx(
        32.0 + v1.charge_time + 2.0 + 60.0, abs=1e-9
    )
    assert second.arrival_time == pytest.approx(
        37.0 + v2.realized_wait + v2.charge_time + 2.0 + 60.0, abs=1e-9
    )


# the public runners check the scenario themselves, once per scenario object
@pytest.mark.parametrize("runner", [run_proposed, run_offline_baseline])
def test_runners_refuse_an_invalid_scenario(runner):
    sc = make_scenario(trucks=(make_truck(params=make_params(e_safe=0.0)),))
    with pytest.raises(ValueError, match=r"^invalid scenario: .*requires 0 < e_safe < e_full"):
        runner(sc)


@pytest.mark.parametrize("runner", [run_proposed, run_offline_baseline])
def test_runners_do_not_check_a_validated_scenario_again(monkeypatch, runner):
    sc = _contention_scenario()
    assert validate_scenario(sc) == []
    checked = []
    check_params = model._check_params

    def counted(prefix, params, out):
        checked.append(prefix)
        return check_params(prefix, params, out)

    monkeypatch.setattr(model, "_check_params", counted)
    assert audit_run(sc, runner(sc)) == []
    assert checked == []
    # an invalid scenario is refused by every call, its check made once
    bad = make_scenario(trucks=(make_truck(e_initial=700.0),))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^invalid scenario: truck t001: e_initial 700.0 exceeds"):
            runner(bad)
    assert checked == ["truck t001"]


def _late_departure() -> Scenario:
    # departs near the float maximum; the first detour carries it past
    params = make_params(p_bar=1e-308)
    return make_scenario(trucks=(make_truck(depart_time=1.5e308, detour_times=(7e307,), params=params),))


# a charge at 1e-306 kWh per minute: 150 kWh take 1.5e308 minutes
_CRAWL = {"e_full": 150.0, "e_safe": 10.0, "p_max": 6e-305, "rho": 0.0, "kappa": 0.0}


def _long_charge_then_long_drive() -> Scenario:
    # charges about 8e307 minutes for a 1e308-minute last segment
    params = make_params(p_bar=1e-306, **_CRAWL)
    return make_scenario(trucks=(make_truck(segment_times=(30.0, 1e308), e_initial=30.0, params=params),))


def _four_trucks_queueing() -> Scenario:
    # each charges about 4e307 minutes at one port: the last leaves before
    # 1.7e308, but the waits 0, 4e307, 8e307 and 1.2e308 add up to inf
    params = make_params(p_bar=1.0, **_CRAWL)
    trucks = tuple(make_truck(f"t00{k}", e_initial=70.0, params=params) for k in range(1, 5))
    return make_scenario(stations=(make_station(port_count=1),), trucks=trucks)


# every input of these scenarios is valid and finite, but a scenario fixes
# neither how long its trucks charge nor how long they queue
@pytest.mark.parametrize(
    "scenario, overflows",
    [
        (_late_departure, "arrival time of truck t001 at ramp 1"),
        (_long_charge_then_long_drive, "arrival time of truck t001 at its destination"),
        (_four_trucks_queueing, "total_waiting_minutes"),
    ],
)
@pytest.mark.parametrize("runner, strategy", [(run_proposed, "proposed"), (run_offline_baseline, "offline")])
def test_runs_refuse_times_that_overflow(runner, strategy, scenario, overflows):
    with pytest.raises(RunOverflowError) as info:
        runner(scenario())
    assert str(info.value) == f"the {strategy} run's {overflows} is not a finite number"


# (time, truck id) orders simultaneous events, whatever the scenario order
@pytest.mark.parametrize("order", [("t002", "t001"), ("t001", "t002")], ids="-".join)
@pytest.mark.parametrize("runner", [run_proposed, run_offline_baseline])
def test_simultaneous_arrivals_are_served_in_truck_id_order(runner, order):
    (t1, _) = _contention_scenario().trucks
    twins = {"t001": t1, "t002": replace(t1, id="t002")}
    sc = make_scenario(
        stations=(make_station("s01", port_count=1),),
        trucks=tuple(twins[tid] for tid in order),
        label="twins",
    )
    result = runner(sc)
    trips = {t.truck_id: t for t in result.metrics.per_truck}
    assert [t.truck_id for t in result.metrics.per_truck] == list(order)
    assert trips["t001"].visits[0].realized_wait == 0.0
    assert trips["t002"].visits[0].realized_wait > 0.0
    assert trips["t001"].visits[0].t_arrival == trips["t002"].visits[0].t_arrival
    assert audit_run(sc, result) == []


def test_audit_reports_a_battery_off_by_a_hundred_thousandth_of_a_kwh():
    sc = load_scenario(GOLDEN_SCENARIO)
    result = run_proposed(sc)
    assert audit_run(sc, result) == []
    i, trip = next((i, t) for i, t in enumerate(result.metrics.per_truck) if t.visits)
    nudged = replace(trip.visits[0], battery_before=trip.visits[0].battery_before + 1e-5)
    per_truck = list(result.metrics.per_truck)
    per_truck[i] = replace(trip, visits=(nudged,) + trip.visits[1:])
    tampered = replace(result, metrics=replace(result.metrics, per_truck=tuple(per_truck)))
    # the charged energy moves with battery_before, so the balance is off too
    replay, balance = audit_run(sc, tampered)
    assert replay.startswith(f"truck {trip.truck_id} at {nudged.station}: recorded battery_before")
    assert balance.startswith(f"truck {trip.truck_id}: energy balance off by 0.0000100")


def test_charge_tops_up_to_reserve_at_destination():
    sc = _contention_scenario()
    for result in (run_proposed(sc), run_offline_baseline(sc)):
        for trip in result.metrics.per_truck:
            assert trip.residual_battery == pytest.approx(156.0, abs=1e-7)
            assert not trip.stranded


def test_truck_without_stations_just_drives():
    truck = make_truck(
        "t001",
        station_ids=(),
        segment_times=(90.0,),
        detour_times=(),
        e_initial=400.0,
        depart_time=100.0,
    )
    sc = make_scenario(trucks=(truck,), label="no-stops")
    for runner in (run_proposed, run_offline_baseline):
        result = runner(sc)
        (trip,) = result.metrics.per_truck
        assert trip.visits == ()
        assert trip.arrival_time == 190.0
        assert trip.residual_battery == pytest.approx(400.0 - 1.83 * 90.0, abs=1e-9)
        assert result.transcripts == ()
        assert audit_run(sc, result) == []


def test_private_stations_make_strategies_coincide():
    # no contention: each truck has its own station and a single stop, so
    # planning with a live quote of zero equals planning blind with zero
    stations = tuple(make_station(f"s{i + 1:02d}", port_count=1) for i in range(3))
    trucks = tuple(
        make_truck(
            f"t{i + 1:03d}",
            station_ids=(stations[i].id,),
            segment_times=(30.0, 60.0),
            detour_times=(2.0,),
            e_initial=230.0,
            depart_time=10.0 * i,
        )
        for i in range(3)
    )
    sc = make_scenario(stations=stations, trucks=trucks, label="private")
    base = run_offline_baseline(sc)
    prop = run_proposed(sc)
    for m in (base.metrics, prop.metrics):
        assert m.totals.total_waiting_minutes == 0.0
        assert all(v.realized_wait == 0.0 for t in m.per_truck for v in t.visits)
    b, p = encode_record(base.metrics), encode_record(prop.metrics)
    assert b["per_truck"] == p["per_truck"]
    assert b["per_station"] == p["per_station"]
    assert b["totals"] == p["totals"]
    report = compare(base.metrics, prop.metrics)
    assert report.wait_reduction_pct == 0.0


def test_comparing_a_run_with_itself_reduces_nothing():
    sc = _contention_scenario()
    m = run_offline_baseline(sc).metrics
    assert m.totals.total_waiting_minutes > 0.0
    report = compare(m, m)
    assert report.wait_reduction_pct == 0.0
    assert all(t.wait_delta == 0.0 for t in report.trucks)
    assert all(s.wait_baseline == s.wait_proposed for s in report.stations)


def test_compare_rejects_mismatched_scenarios():
    a = run_offline_baseline(_contention_scenario()).metrics
    b = run_offline_baseline(
        make_scenario(label="something-else", trucks=(make_truck(e_initial=230.0),))
    ).metrics
    with pytest.raises(ValueError, match="different scenarios"):
        compare(a, b)


def _congested_scenario(seed: int = 3) -> Scenario:
    template = ScenarioTemplate(
        label=f"congested-{seed}",
        truck_count=20,
        station_count=4,
        port_count_range=(1, 1),
        stations_per_route_range=(3, 4),
        segment_time_range=(20.0, 40.0),
        depart_window=(480.0, 540.0),
        e_initial_range=(220.0, 320.0),
    )
    return generate_scenario(template, seed)


def test_realized_waits_equal_quotes_exactly():
    sc = _congested_scenario()
    result = run_proposed(sc)
    waits = [v.realized_wait for t in result.metrics.per_truck for v in t.visits]
    assert any(w > 0 for w in waits)
    for trip in result.metrics.per_truck:
        for v in trip.visits:
            assert v.realized_wait == v.quoted_wait


def test_energy_balances_and_aggregates_are_sums():
    sc = _congested_scenario()
    routes = {t.id: t.route for t in sc.trucks}
    for runner in (run_proposed, run_offline_baseline):
        result = runner(sc)
        assert audit_run(sc, result) == []
        m = result.metrics
        assert m.totals.stranded == 0
        for trip, spec in zip(m.per_truck, sc.trucks):
            route = routes[trip.truck_id]
            detours = sum(
                2.0 * route.detour_times[v.ramp - 1] for v in trip.visits
            )
            expected = (
                spec.e_initial
                + trip.total_energy
                - spec.params.p_bar * (sum(route.segment_times) + detours)
            )
            assert trip.residual_battery == pytest.approx(expected, abs=1e-9)
            assert trip.residual_battery >= spec.params.e_safe - 1e-7
        # totals are the documented left-to-right fold, bit for bit; the
        # builtin sum of floats rounds differently from Python 3.12 on
        assert m.totals.total_waiting_minutes == ordered_sum(t.total_wait for t in m.per_truck)
        assert m.totals.total_charging_minutes == ordered_sum(t.total_charge_time for t in m.per_truck)
        assert m.totals.total_energy_delivered_kwh == ordered_sum(t.total_energy for t in m.per_truck)
        assert m.totals.total_waiting_hours == m.totals.total_waiting_minutes / 60.0
        for s in m.per_station:
            visits = [
                v for t in m.per_truck for v in t.visits if v.station == s.station
            ]
            assert s.visits == len(visits)
            assert s.waiting_minutes == ordered_sum(v.realized_wait for v in visits)


@pytest.mark.parametrize("runner", [run_proposed, run_offline_baseline])
def test_station_totals_are_per_station_filters_of_the_trips(runner):
    sc = generate_scenario(
        ScenarioTemplate(
            label="many-stations",
            truck_count=60,
            station_count=8,
            port_count_range=(1, 2),
            stations_per_route_range=(2, 5),
            segment_time_range=(20.0, 40.0),
            depart_window=(480.0, 540.0),
            e_initial_range=(200.0, 320.0),
        ),
        11,
    )
    m = runner(sc).metrics
    expected = []
    for s in sc.stations:
        visits = [v for t in m.per_truck for v in t.visits if v.station == s.id]
        waiting = ordered_sum(v.realized_wait for v in visits)
        expected.append(
            StationTotals(
                station=s.id,
                visits=len(visits),
                waiting_minutes=waiting,
                charging_minutes=ordered_sum(v.charge_time for v in visits),
                mean_wait=waiting / len(visits) if visits else 0.0,
                energy_delivered_kwh=ordered_sum(v.energy for v in visits),
            )
        )
    assert sum(1 for row in expected if row.visits > 1) >= 4
    assert any(row.waiting_minutes > 0 for row in expected)
    assert m.per_station == tuple(expected)


def test_one_exchange_per_ramp_arrival(monkeypatch):
    sc = _congested_scenario()
    result = run_proposed(sc)
    total_ramps = sum(t.route.ramp_count for t in sc.trucks)
    assert result.ramp_arrivals == total_ramps
    assert len(result.transcripts) == total_ramps
    assert [tr.sequence_no for tr in result.transcripts] == list(
        range(1, total_ramps + 1)
    )
    for tr in result.transcripts:
        assert len(tr.messages) == 4

    # the offline baseline exchanges nothing and plans once per truck with
    # ramps, at its origin, in scenario order
    plans = []
    solve = simulation.solve_charging_problem

    def counting_solve(tail):
        plans.append(planner_input_of(tail))
        return solve(tail)

    monkeypatch.setattr(simulation, "solve_charging_problem", counting_solve)
    offline = run_offline_baseline(sc)
    assert offline.ramp_arrivals == 0
    assert offline.transcripts == ()
    assert [tuple(s.id for s in inp.stations) for inp in plans] == [
        tuple(t.route.station_ids) for t in sc.trucks if t.route.ramp_count > 0
    ]


def test_runs_are_deterministic():
    sc = _congested_scenario()
    a = run_proposed(sc)
    b = run_proposed(sc)
    assert encode_record(a.metrics) == encode_record(b.metrics)
    assert [l for t in a.transcripts for l in t.wire_lines()] == [
        l for t in b.transcripts for l in t.wire_lines()
    ]
    assert {s: encode_record(l.state()) for s, l in a.ledgers.items()} == {
        s: encode_record(l.state()) for s, l in b.ledgers.items()
    }


def _doomed_truck(tid: str = "t001"):
    # a 200 kWh pack cannot bank enough at either station to finish
    params = make_params(e_full=200.0)
    return make_truck(
        tid,
        station_ids=("s01", "s02"),
        segment_times=(5.0, 60.0, 60.0),
        detour_times=(1.0, 1.0),
        e_initial=190.0,
        depart_time=0.0,
        params=params,
    )


def _doomed_scenario():
    return make_scenario(
        stations=(make_station("s01"), make_station("s02")),
        trucks=(_doomed_truck(),),
        label="doomed",
    )


def test_stranded_trucks_park_and_are_counted():
    sc = _doomed_scenario()
    base = run_offline_baseline(sc)
    (trip,) = base.metrics.per_truck
    assert trip.stranded
    assert trip.stranded_at_ramp == 0  # never left the origin
    assert trip.arrival_time is None
    assert trip.deadline_violation is None
    assert base.metrics.totals.stranded == 1
    assert audit_run(sc, base) == []

    prop = run_proposed(sc)
    (trip,) = prop.metrics.per_truck
    assert trip.stranded
    assert trip.stranded_at_ramp == 1  # parked at the first ramp
    assert prop.ramp_arrivals == 1
    assert len(prop.transcripts) == 1
    assert prop.transcripts[0].messages[2].charge_time == 0.0
    assert audit_run(sc, prop) == []
    report = compare(base.metrics, prop.metrics)
    assert report.stranded_baseline == 1
    assert report.stranded_proposed == 1


# the doomed scenario strands its truck, so its trip has None fields and a
# stranded_at_ramp value
@pytest.mark.parametrize(
    "scenario, runner",
    [
        pytest.param(_congested_scenario, run_proposed, id="congested-proposed"),
        pytest.param(_doomed_scenario, run_proposed, id="doomed-proposed"),
        pytest.param(_doomed_scenario, run_offline_baseline, id="doomed-offline"),
    ],
)
def test_metrics_round_trip_through_json(scenario, runner):
    m = runner(scenario()).metrics
    doc = json.loads(json.dumps(encode_record(m)))
    assert metrics_from_dict(doc) == m


def test_metrics_fields_are_the_file_keys():
    m = run_proposed(_congested_scenario()).metrics
    assert [name for name, _, _, _ in _record_fields(RunMetrics)] == list(encode_record(m))
    t = m.totals
    assert (m.total_waiting_minutes, m.deadline_violation_count, m.stranded_count) == (
        t.total_waiting_minutes,
        t.deadline_violations,
        t.stranded,
    )


# a stranded trip has no arrival fields and any other trip has all three
@pytest.mark.parametrize("field", ["arrival_time", "deadline_violation", "residual_battery"])
@pytest.mark.parametrize("scenario, value", [(_congested_scenario, None), (_doomed_scenario, 0.0)])
def test_metrics_reader_rejects_a_trip_that_contradicts_its_stranded_flag(scenario, value, field):
    doc = encode_record(run_proposed(scenario()).metrics)
    doc["per_truck"][-1][field] = value
    i = len(doc["per_truck"]) - 1
    with pytest.raises(ValueError, match=rf"^per_truck\[{i}\]: {field} must be null exactly when stranded$"):
        metrics_from_dict(doc)


# a truck or a station listed twice would be counted twice by every report
@pytest.mark.parametrize("key, field", [("per_truck", "truck_id"), ("per_station", "station")])
def test_metrics_reader_rejects_a_truck_or_station_listed_twice(key, field):
    doc = encode_record(run_proposed(_congested_scenario()).metrics)
    rows = doc[key]
    rows.append(rows[0])
    i, name = len(rows) - 1, rows[0][field]
    with pytest.raises(ValueError, match=rf"^{key}\[{i}\]: duplicate {field} '{name}'$"):
        metrics_from_dict(doc)


# every total and station field that the trips add up to; the rescue count
# and the station names are not derived from the trips
_FOLDED = [
    *(("totals", name, "count") for name in ("trucks", "stranded", "deadline_violations")),
    *(
        ("totals", name, "sum")
        for name in (
            "total_waiting_minutes",
            "total_waiting_hours",
            "total_charging_minutes",
            "total_energy_delivered_kwh",
        )
    ),
    ("per_station", "visits", "count"),
    *(
        ("per_station", name, "sum")
        for name in ("waiting_minutes", "charging_minutes", "mean_wait", "energy_delivered_kwh")
    ),
]


@pytest.mark.parametrize("key, name, what", _FOLDED, ids=[f"{k}.{n}" for k, n, _ in _FOLDED])
def test_metrics_reader_rejects_a_total_that_its_trips_contradict(key, name, what):
    doc = encode_record(run_proposed(_congested_scenario()).metrics)
    row = doc["totals"] if key == "totals" else doc["per_station"][0]
    row[name] += 1
    where = "totals" if key == "totals" else r"per_station\[0\]"
    with pytest.raises(ValueError, match=rf"^{where}: {name} is not the {what} of per_truck$"):
        metrics_from_dict(doc)


def test_metrics_reader_reads_the_rescue_count_and_station_names():
    m = run_proposed(_congested_scenario()).metrics
    doc = encode_record(m)
    doc["totals"]["rescue_charges"] += 5
    assert metrics_from_dict(doc).totals.rescue_charges == m.totals.rescue_charges + 5
    # a station renamed leaves its visits under a name per_station lacks
    station = doc["per_station"][0]["station"]
    doc["per_station"][0]["station"] = "elsewhere"
    i = next(i for i, t in enumerate(m.per_truck) if any(v.station == station for v in t.visits))
    with pytest.raises(
        ValueError, match=rf"^per_truck\[{i}\]: a visit to station '{station}', which per_station does not list$"
    ):
        metrics_from_dict(doc)


def test_metrics_reader_does_not_coerce_strings():
    doc = encode_record(run_proposed(_congested_scenario()).metrics)
    doc["per_truck"][0]["visits"][0]["t_arrival"] = "1.5"
    with pytest.raises(ValueError, match=r"^per_truck\[0\]\.visits\[0\]: t_arrival must be a finite"):
        metrics_from_dict(doc)


def test_deadline_violations_are_clamped_overshoot():
    # shrink the budget so the trip cannot fit it
    sc = _contention_scenario()
    tight = replace(
        sc,
        trucks=tuple(replace(t, extra_time_budget=10.0) for t in sc.trucks),
        label="tight",
    )
    result = run_proposed(tight)
    for trip in result.metrics.per_truck:
        assert trip.deadline_violation is not None
        assert trip.deadline_violation == pytest.approx(
            max(trip.arrival_time - trip.deadline, 0.0), abs=1e-12
        )
    assert result.metrics.totals.deadline_violations == sum(
        1 for t in result.metrics.per_truck if t.deadline_violation > 0
    )
    # time over budget is penalized, not forbidden: the plans stay optimal
    # and no minimum-to-finish fallback fires
    assert result.metrics.totals.rescue_charges == 0
    assert result.metrics.totals.stranded == 0
    assert audit_run(tight, result) == []
