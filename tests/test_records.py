"""Every record keeps the semantics of a frozen slotted dataclass: no
assignment or deletion of any name after construction, no instance
dict, equal records whether built by position or by keyword, and the
stock repr, replace and ``__post_init__`` checks."""

import dataclasses
import importlib
import math
import pkgutil
import typing
from dataclasses import MISSING, FrozenInstanceError, field, fields, replace

import pytest

import fleetcharge
from fleetcharge.generator import ScenarioTemplate
from fleetcharge.model import _record_fields, record
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

from conftest import make_planner_input

# every dataclass the package defines, found by scanning its modules, so
# a new record is covered as soon as it exists
RECORDS = sorted(
    {
        value
        for info in pkgutil.iter_modules(fleetcharge.__path__)
        for value in vars(importlib.import_module(f"fleetcharge.{info.name}")).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
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


def _args(obj):
    return [getattr(obj, f.name) for f in fields(obj)]


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
    params = cls.__dataclass_params__
    assert params.frozen and params.eq and not params.init
    assert "__slots__" in vars(cls)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__match_args__ == tuple(f.name for f in fields(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_a_record_cannot_be_changed_after_construction(cls):
    obj = _sample(cls)
    assert not hasattr(obj, "__dict__")
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
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
    by_keyword = cls(**{f.name: getattr(obj, f.name) for f in fields(cls)})
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
    first = fields(cls)[0].name
    assert replace(obj, **{first: getattr(obj, first)}) == obj
    expected = f"{cls.__qualname__}(" + ", ".join(
        f"{f.name}={getattr(obj, f.name)!r}" for f in fields(cls)
    ) + ")"
    assert repr(obj) == expected


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
    time = fields(cls)[2].name
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


def test_scenario_template_is_checked_at_construction():
    with pytest.raises(ValueError, match="segment_time_range has lo > hi"):
        ScenarioTemplate("x", 1, 1, (1, 3), (300.0, 300.0), (0.36, 0.36), (1, 2), (60.0, 20.0))
    with pytest.raises(ValueError, match="truck_count must be at least 1"):
        replace(ScenarioTemplate(), truck_count=0)


def test_a_record_refuses_a_default_factory():
    with pytest.raises(TypeError, match="default_factory"):

        @record
        class Bad:
            items: list = field(default_factory=list)

