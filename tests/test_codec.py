"""The record codec: a record is written as json's compact text and reads
back as itself, and each decode error names its path."""

import json
import math
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import (
    Scenario,
    _record_fields,
    decode_record,
    encode_record,
    record_json,
    replace,
    scenario_from_json,
    scenario_to_json,
)
from fleetcharge.planner import planner_input_from_dict
from fleetcharge.protocol import decode_message
from fleetcharge.simulation import (
    RunMetrics,
    metrics_from_dict,
    run_offline_baseline,
    run_proposed,
)
from fleetcharge.station import Assignment, PortLedger, _LedgerState

from conftest import make_scenario, make_station, make_truck

GOLDENS = Path(__file__).resolve().parent / "goldens"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _golden(name):
    return json.loads((GOLDENS / name).read_text())


def _scenario(mutate):
    doc = _golden("scenario.json")
    mutate(doc)
    return lambda: scenario_from_json(json.dumps(doc))


def _metrics(mutate):
    doc = _golden("run/proposed/metrics.json")
    mutate(doc)
    return lambda: metrics_from_dict(doc)


def _plan_input():
    return json.loads((FIXTURES / "plan_input.json").read_text())


def _ledger(mutate, name=""):
    doc = _golden("run/proposed/ledgers.json")["s01"]
    mutate(doc)
    return lambda: PortLedger.from_export(doc, name)


# (decode, the exact message it raises)
_ERRORS = {
    "root-scalar": (_metrics(lambda d: d.update(label=7)), "metrics: label must be a string"),
    "root-scalar-named": (
        _ledger(lambda d: d.update(version="1"), "s01"),
        "s01: version must be an integer",
    ),
    "root-scalar-unnamed": (
        _ledger(lambda d: d.update(version=1.5)),
        "ledger: version must be an integer",
    ),
    "root-not-an-object": (lambda: scenario_from_json("[1, 2]"), "scenario: must be an object"),
    "root-missing-field": (_scenario(lambda d: d.pop("label")), "scenario: missing field 'label'"),
    "nested-not-an-object": (
        _scenario(lambda d: d["trucks"][0].update(route=5)),
        "trucks[0].route: must be an object",
    ),
    "nested-missing-field": (
        _scenario(lambda d: d["trucks"][2]["params"].pop("p_bar")),
        "trucks[2].params: missing field 'p_bar'",
    ),
    "nested-unexpected-field": (
        _metrics(lambda d: d["totals"].update(late=0)),
        "totals: unexpected field 'late'",
    ),
    "tuple-item-scalar": (
        _scenario(lambda d: d["trucks"][1]["route"]["segment_times"].__setitem__(2, "9")),
        "trucks[1].route: segment_times[2] must be a finite number",
    ),
    "tuple-not-a-list": (
        _scenario(lambda d: d["trucks"][1]["route"].update(station_ids="s01")),
        "trucks[1].route: station_ids must be a list",
    ),
    "tuple-item-record-scalar": (
        _metrics(lambda d: d["per_truck"][3]["visits"][0].update(t_arrival=None)),
        "per_truck[3].visits[0]: t_arrival must be a finite number",
    ),
    "tuple-item-record-not-an-object": (
        _metrics(lambda d: d["per_truck"][3]["visits"].__setitem__(0, [])),
        "per_truck[3].visits[0]: must be an object",
    ),
    "tuple-item-record-unexpected-field": (
        _ledger(lambda d: d["assignments"][0].update(note=""), "s01"),
        "s01.assignments[0]: unexpected field 'note'",
    ),
    "optional-scalar": (
        _metrics(lambda d: d["per_truck"][0].update(arrival_time="late")),
        "per_truck[0]: arrival_time must be a finite number",
    ),
    "fixed-size-tuple": (
        lambda: ScenarioTemplate.from_dict({"port_count_range": [1, 2, 3]}),
        "template: port_count_range must be a list of 2",
    ),
    "fixed-size-tuple-item": (
        lambda: ScenarioTemplate.from_dict({"price_range": [0.3, True]}),
        "template: price_range[1] must be a finite number",
    ),
    "message-field": (
        lambda: decode_message('{"type":"arrival","truck":7,"station":"s","t_arrival":1}'),
        "arrival: truck must be a string",
    ),
    "message-missing-field": (
        lambda: decode_message('{"type":"ack","station":"s"}'),
        "ack: missing field 'truck'",
    ),
    "message-unexpected-field": (
        lambda: decode_message('{"type":"estimate","station":"s","truck":"t","wait":1,"x":2}'),
        "estimate: unexpected field 'x'",
    ),
    "message-value": (
        lambda: decode_message('{"type":"commit","truck":"t","station":"s","charge_time":-1}'),
        "commit: charge_time must be finite and nonnegative, got -1",
    ),
    # of two keys that are not fields, the first in the document is named,
    # whatever the field order and whichever defaulted fields are absent
    "two-unexpected-fields": (
        lambda: ScenarioTemplate.from_dict({"label": "x", "zeta": 1, "alpha": 2}),
        "template: unexpected field 'zeta'",
    ),
    "two-unexpected-fields-nested": (
        _metrics(lambda d: d["totals"].update(zeta=0, alpha=0)),
        "totals: unexpected field 'zeta'",
    ),
    "two-unexpected-fields-planner-input": (
        lambda: planner_input_from_dict({**_plan_input(), "zeta": 1, "alpha": 2}),
        "planner input: unexpected field 'zeta'",
    ),
    "planner-input-missing-field": (
        lambda: planner_input_from_dict(
            {k: v for k, v in _plan_input().items() if k != "remaining_time"}
        ),
        "planner input: missing field 'remaining_time'",
    ),
}


@pytest.mark.parametrize("decode, message", _ERRORS.values(), ids=_ERRORS.keys())
def test_decode_errors_name_their_path(decode, message):
    with pytest.raises(ValueError) as info:
        decode()
    assert str(info.value) == message


def test_absent_defaulted_fields_take_their_defaults():
    assert ScenarioTemplate.from_dict({}) == ScenarioTemplate()
    # a field after the absent ones still lands in its own place
    assert ScenarioTemplate.from_dict({"rho": 3.0, "label": "x"}) == ScenarioTemplate(
        label="x", rho=3.0
    )
    doc = _plan_input()
    assert "require_detour_margin_everywhere" not in doc
    assert planner_input_from_dict(doc).require_detour_margin_everywhere is True
    relaxed = planner_input_from_dict({**doc, "require_detour_margin_everywhere": False})
    assert relaxed.require_detour_margin_everywhere is False
    # the planner input's own defaults: no live quote and no assumed waits
    bare = planner_input_from_dict({k: v for k, v in doc.items() if "wait" not in k})
    assert (bare.quoted_wait, bare.assumed_waits) == (0.0, ())


# -- the writer ----------------------------------------------------------------


def _ledgers(result) -> dict[str, _LedgerState]:
    return {sid: ledger.state() for sid, ledger in result.ledgers.items()}


def _compact(text: str) -> str:
    """json's own compact text of what ``text`` holds."""
    return json.dumps(json.loads(text), separators=(",", ":")) + "\n"


def _assert_written_compact(record) -> None:
    """The record's text is json's compact text and reads back as it."""
    text = record_json(record)
    assert text == _compact(text)
    assert decode_record(type(record), json.loads(text), "x") == record


def _assert_ledgers_written_compact(states: dict[str, _LedgerState]) -> None:
    text = record_json(states, dict[str, _LedgerState])
    assert text == _compact(text)
    doc = json.loads(text)
    assert list(doc) == list(states)
    assert {sid: decode_record(_LedgerState, v, sid) for sid, v in doc.items()} == states


def _non_finite(doc) -> bool:
    """Whether an encoded record holds NaN or an infinity."""
    if isinstance(doc, float):
        return not math.isfinite(doc)
    items = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return any(map(_non_finite, items))


# generated fleets, from one truck to a congested dozen, through both strategies
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    truck_count=st.integers(1, 12),
    station_count=st.integers(1, 4),
    port_count_range=st.sampled_from([(1, 1), (1, 3)]),
)
def test_generated_runs_are_written_compact_and_read_back(
    seed, truck_count, station_count, port_count_range
):
    template = ScenarioTemplate(
        truck_count=truck_count,
        station_count=station_count,
        port_count_range=port_count_range,
        stations_per_route_range=(1, station_count),
    )
    scenario = generate_scenario(template, seed)
    assert scenario_from_json(scenario_to_json(scenario)) == scenario
    _assert_written_compact(scenario)
    for result in (run_offline_baseline(scenario), run_proposed(scenario)):
        _assert_written_compact(result.metrics)
        states = _ledgers(result)
        for state in states.values():
            _assert_written_compact(state)
        _assert_ledgers_written_compact(states)


def _values(tp):
    """Any value of a record field's type, with floats from the whole
    double range, NaN and infinities included, and ints in float fields."""
    if tp is float:
        return st.floats() | st.integers(-(2**70), 2**70) | st.sampled_from([-0.0, 5e-324, 1.7e308])
    if tp is int:
        return st.integers(-(2**70), 2**70)
    if tp is str:
        return st.text(max_size=6)
    if tp is bool:
        return st.booleans()
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            return st.lists(_values(args[0]), max_size=2).map(tuple)
        return st.tuples(*map(_values, args))
    if typing.get_origin(tp) is not None:  # X | None
        return st.none() | _values(typing.get_args(tp)[0])
    return st.builds(tp, **{name: _values(ftp) for name, ftp, _, _ in _record_fields(tp)})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(record=st.one_of(map(_values, (Scenario, RunMetrics, _LedgerState))))
def test_any_record_is_written_compact_and_read_back(record):
    if _non_finite(encode_record(record)):
        with pytest.raises(ValueError):
            record_json(record)
    else:
        _assert_written_compact(record)


_ODD_ID = 'é"\\\x00\x1f\n\u2028😀'
_GOLDEN_METRICS = metrics_from_dict(_golden("run/proposed/metrics.json"))
_STRANDED_TRIP = replace(
    _GOLDEN_METRICS.per_truck[1],
    stranded=True,
    stranded_at_ramp=None,
    arrival_time=None,
    deadline_violation=None,
    residual_battery=None,
)
_EDGES = {
    "empty-tuples": make_scenario(stations=(), trucks=()),
    "empty-route": make_scenario(
        trucks=(make_truck(station_ids=(), segment_times=(), detour_times=()),)
    ),
    "none-optionals": replace(_GOLDEN_METRICS, per_truck=(_STRANDED_TRIP,), per_station=()),
    "ints-in-float-fields": make_scenario(
        stations=(make_station(port_power=300, price=0),),
        trucks=(make_truck(segment_times=(30, 60), detour_times=(0,), e_initial=400),),
    ),
    "extreme-floats": make_scenario(
        trucks=(make_truck(segment_times=(-0.0, 5e-324), detour_times=(1.7e308,)),)
    ),
    "odd-ids": make_scenario(
        stations=(make_station(_ODD_ID),),
        trucks=(make_truck(_ODD_ID, station_ids=(_ODD_ID,)),),
        label=_ODD_ID,
    ),
    "empty-ledger": _LedgerState(port_count=2, available_times=(0, -0.0), version=0, assignments=()),
    "ledger-with-odd-truck": _LedgerState(
        port_count=1,
        available_times=(7.5,),
        version=1,
        assignments=(Assignment(_ODD_ID, 0, 1, 0.5, 1.5, 6),),
    ),
}


@pytest.mark.parametrize("record", _EDGES.values(), ids=_EDGES.keys())
def test_edge_records_are_written_compact_and_read_back(record):
    _assert_written_compact(record)


def test_a_dict_of_ledgers_is_written_compact_and_reads_back():
    state = _EDGES["ledger-with-odd-truck"]
    for states in ({}, {_ODD_ID: state}, {"s01": state, "s02": _EDGES["empty-ledger"]}):
        _assert_ledgers_written_compact(states)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_are_refused(value):
    scenario = make_scenario(trucks=(make_truck(segment_times=(30.0, value)),))
    with pytest.raises(ValueError):
        record_json(scenario)
