"""Every record keeps the semantics of a frozen slotted dataclass: no
assignment or deletion of any name after construction, no instance
dict, equal records whether built by position or by keyword, equality
only with its own class, the field tuple's hash, and the stock repr,
replace and ``__post_init__`` checks."""

import importlib
import math
import pkgutil
import typing

import pytest

import fleetcharge
from fleetcharge.generator import ScenarioTemplate
from fleetcharge.model import (
    MAX_ENUMERATED_STATIONS,
    MISSING,
    FrozenInstanceError,
    _record_fields,
    is_record,
    record,
    replace,
)
from fleetcharge.planner import PlannerInput
from fleetcharge.protocol import (
    ArrivalAnnouncement,
    ChargingCommitment,
    MessageDecodeError,
    WaitingEstimate,
    decode_message,
    encode_message,
)
from fleetcharge.station import PortLedger

from conftest import make_params, make_planner_input, make_station

# every record the package defines, found by scanning its modules, so
# a new record is covered as soon as it exists
RECORDS = sorted(
    {
        value
        for info in pkgutil.iter_modules(fleetcharge.__path__)
        for value in vars(importlib.import_module(f"fleetcharge.{info.name}")).values()
        if isinstance(value, type)
        and is_record(value)
        and value.__module__ == f"fleetcharge.{info.name}"
    },
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
IDS = [f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}" for cls in RECORDS]

# a record whose __post_init__ ties its fields together
SAMPLES = {PlannerInput: make_planner_input(segment_times=(60.0, 30.0), detour_times=(5.0, 4.0))}


def _value(tp):
    """A value of a field's type that every record's checks accept."""
    if tp in (int, float):
        return tp(1)
    if tp is str:
        return "s"
    if tp is bool:
        return True
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        return (_value(args[0]),) if args[-1] is Ellipsis else tuple(map(_value, args))
    if origin is dict:
        return {"s": PortLedger(1)} if args[1] is PortLedger else {}
    if origin is not None:  # X | None
        return _value(args[0])
    return _sample(tp)


def _sample(cls):
    if cls in SAMPLES:
        return SAMPLES[cls]
    return cls(**{name: _value(tp) for name, tp, _, _ in _record_fields(cls)})


def _names(cls):
    return [name for name, _, _, _ in _record_fields(cls)]


def _args(obj):
    return [getattr(obj, name) for name in _names(type(obj))]


def _is_hashable(obj):
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def test_the_scan_finds_the_records():
    assert {ScenarioTemplate, PlannerInput, ArrivalAnnouncement} <= set(RECORDS)
    assert len(RECORDS) >= 29


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_every_record_is_made_by_the_record_decorator(cls):
    # the marker maps the annotated names, in order, to their defaults
    assert tuple(cls.__record__) == tuple(vars(cls)["__annotations__"])
    assert vars(cls)["__slots__"] == tuple(_names(cls))
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__match_args__ == tuple(_names(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_a_record_cannot_be_changed_after_construction(cls):
    obj = _sample(cls)
    assert not hasattr(obj, "__dict__")
    assert issubclass(FrozenInstanceError, AttributeError)
    for name in _names(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    # a name that is not a field is refused the same way on every Python
    with pytest.raises(FrozenInstanceError):
        obj.not_a_field = 1
    with pytest.raises(FrozenInstanceError):
        del obj.not_a_field


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    obj = _sample(cls)
    args = _args(obj)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(_names(cls), args)))
    assert by_position == by_keyword == obj
    assert _args(by_position) == args
    if _is_hashable(obj):
        assert hash(by_position) == hash(by_keyword) == hash(obj)
    # a defaulted field left out takes its default
    required = sum(1 for _, _, default, _ in _record_fields(cls) if default is MISSING)
    assert _args(cls(*args[:required])) == [
        arg if default is MISSING else default
        for arg, (_, _, default, _) in zip(args, _record_fields(cls))
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_replace_and_repr_are_the_dataclass_ones(cls):
    obj = _sample(cls)
    assert replace(obj) == obj
    first = _names(cls)[0]
    assert replace(obj, **{first: getattr(obj, first)}) == obj
    expected = f"{cls.__qualname__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(_names(cls), _args(obj))
    ) + ")"
    assert repr(obj) == expected


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_replace_refuses_a_name_that_is_not_a_field(cls):
    with pytest.raises(TypeError):
        replace(_sample(cls), not_a_field=None)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_a_record_is_unequal_to_another_records_equal_fields(cls):
    obj = _sample(cls)
    twin = record(type(cls.__name__, (), {"__annotations__": dict(vars(cls)["__annotations__"])}))
    other = twin(*_args(obj))
    assert [getattr(other, name) for name in _names(cls)] == _args(obj)
    assert obj != other and other != obj
    assert not obj == other


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_a_record_hashes_as_its_field_tuple(cls):
    obj = _sample(cls)
    values = tuple(_args(obj))
    if _is_hashable(values):
        assert hash(obj) == hash(values)
    else:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_a_missing_or_extra_argument_raises_type_error(cls):
    args = _args(_sample(cls))
    required = sum(1 for _, _, default, _ in _record_fields(cls) if default is MISSING)
    if required:
        with pytest.raises(TypeError):
            cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=None)


# a message record checks no time when it is built: the engine builds it
# from values its exchange has checked, so the wire decoder is the check
@pytest.mark.parametrize(
    "literal, text",
    [
        ("-1.5", "must be finite and nonnegative, got -1.5"),
        ("NaN", "must be a finite number"),
        ("Infinity", "must be a finite number"),
    ],
    ids=["negative", "nan", "inf"],
)
@pytest.mark.parametrize(
    "tag, cls", [("arrival", ArrivalAnnouncement), ("estimate", WaitingEstimate), ("commit", ChargingCommitment)]
)
def test_message_times_are_checked_where_a_line_is_decoded(tag, cls, literal, text):
    time = _names(cls)[2]
    line = encode_message(cls("t", "s", 1.0)).replace(f'"{time}":1}}', f'"{time}":{literal}}}')
    with pytest.raises(MessageDecodeError) as info:
        decode_message(line)
    assert str(info.value) == f"{tag}: {time} {text}"


def test_planner_input_is_checked_at_construction():
    inp = SAMPLES[PlannerInput]
    args = _args(inp)
    args[2] = (60.0,)  # segment_times, one short
    with pytest.raises(ValueError, match="expected 2 segment_times"):
        PlannerInput(*args)
    with pytest.raises(ValueError, match="battery must be a finite number"):
        replace(inp, battery=math.nan)
    with pytest.raises(ValueError, match="remaining_time must be a finite number"):
        replace(inp, remaining_time=math.inf)


_PAST_THE_CAP = MAX_ENUMERATED_STATIONS + 1


# the input of `plan` and of `solve_charging_problem` alike: the truck
# parameters, the stations and the tail's length
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"stations": (make_station(port_power=0),)}, "station s01: port_power must be positive, got 0"),
        # the charging rate underflows to 0 kWh/min
        ({"params": make_params(p_max=5e-324)}, "station s01: a full charge does not take a finite time"),
        ({"params": make_params(p_bar=-1.0)}, "params: p_bar must be positive, got -1.0"),
        ({"params": make_params(p_bar=math.nan)}, "params: p_bar is not a finite number"),
        (
            {"segment_times": (30.0,) * _PAST_THE_CAP, "detour_times": (5.0,) * _PAST_THE_CAP},
            f"{_PAST_THE_CAP} remaining stations exceeds the exact-enumeration cap "
            f"of {MAX_ENUMERATED_STATIONS}",
        ),
    ],
    ids=["port_power-zero", "p_max-subnormal", "p_bar-negative", "p_bar-nan", "past-the-cap"],
)
def test_planner_input_refuses_its_params_stations_and_length(edit, message):
    with pytest.raises(ValueError) as info:
        make_planner_input(**edit)
    assert str(info.value) == message


def test_scenario_template_is_checked_at_construction():
    with pytest.raises(ValueError, match="segment_time_range has lo > hi"):
        ScenarioTemplate("x", 1, 1, (1, 3), (300.0, 300.0), (0.36, 0.36), (1, 2), (60.0, 20.0))
    with pytest.raises(ValueError, match="truck_count must be at least 1"):
        replace(ScenarioTemplate(), truck_count=0)


@pytest.mark.parametrize("default", [[], {}, set()], ids=["list", "dict", "set"])
def test_a_record_refuses_an_unhashable_default(default):
    with pytest.raises(ValueError, match=f"mutable default {type(default)} for field items"):

        @record
        class Bad:
            items: list = default

