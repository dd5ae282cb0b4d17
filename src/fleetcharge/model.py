"""Domain types, unit conventions, and scenario validation.

Unit conventions used everywhere in this package:

* time    -- minutes (real-valued; simulation epoch 0 = scenario start of day)
* energy  -- kWh
* power   -- kW (a port delivering P kW for t minutes adds P * t / 60 kWh)
* money   -- euro

No field anywhere mixes units. Scenario files persist exactly these units.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import typing
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "MAX_ENUMERATED_STATIONS",
    "MAX_PORT_COUNT",
    "TruckParams",
    "StationSpec",
    "Route",
    "TruckSpec",
    "ChargeDecision",
    "ChargingPlan",
    "Scenario",
    "ScenarioFormatError",
    "validate_scenario",
    "charging_rate",
    "electricity_price_per_minute",
    "encode_record",
    "decode_record",
    "record_json",
    "scenario_to_json",
    "scenario_from_json",
    "load_scenario",
    "dump_scenario",
]


# The planner enumerates stop patterns exhaustively, so the plannable route
# tail is capped; 2^16 patterns is still exact and fast, beyond that the
# caller is holding the model wrong. Routes are validated against it here
# because the offline baseline plans a whole route at once.
MAX_ENUMERATED_STATIONS = 16

# A station's ledger holds one availability time per port and every wait
# quote scans them all. Real sites have tens of ports; a count far beyond
# that is a typo, and one near 1e9 would not fit in memory.
MAX_PORT_COUNT = 10_000


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right sum starting from the integer 0, as the builtin `sum`
    adds floats before Python 3.12 (which compensates rounding). Outputs
    then carry the same bits on every Python version."""
    total = 0
    for v in values:
        total += v
    return total


class ScenarioFormatError(ValueError):
    """A scenario document is structurally unreadable (bad JSON shape or types)."""


# the default of a required record field
MISSING: Any = object()


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def record(cls: type) -> type:
    """Make ``cls`` a record: an immutable slotted value type.

    The fields are the names annotated in the class body, in order. A
    value the body gives a field is its default; it must be hashable, and
    the fields with defaults come last. The class is remade once with one
    slot per field, the field names as ``__match_args__``, and
    ``__record__``, which maps each field name to its default or to
    ``MISSING``: `is_record` tells a record by it. Two records are equal
    when they are of the same class and their field tuples are equal; a
    record hashes as its field tuple, reprs as ``Cls(name=value, ...)``,
    and `replace` makes a changed copy. Assigning or deleting any
    attribute after construction raises FrozenInstanceError.

    ``__init__`` and ``__eq__`` are compiled per class. ``__init__`` takes
    the fields in order, writes each one through its slot's descriptor and
    then calls ``__post_init__`` when the class has one. One ramp exchange
    builds about a dozen records, so their ``__init__`` is a large share of
    what an exchange costs.
    """
    body = dict(vars(cls))
    fields = {name: body.pop(name, MISSING) for name in body.get("__annotations__", {})}
    for name, default in fields.items():
        if type(default).__hash__ is None:
            raise ValueError(f"mutable default {type(default)} for field {name} is not allowed")
    names = tuple(fields)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(
        __qualname__=cls.__qualname__,
        __slots__=names,
        __match_args__=names,
        __record__=fields,
        __setattr__=_frozen_setattr,
        __delattr__=_frozen_delattr,
        __hash__=_record_hash,
        __repr__=_record_repr,
    )
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    # each slot's member descriptor writes past the frozen __setattr__
    scope: dict[str, Any] = {}
    params = ["self"]
    writes = []
    for i, (name, default) in enumerate(fields.items()):
        scope[f"_s{i}"] = getattr(cls, name).__set__
        scope[f"_d{i}"] = default
        params.append(name if default is MISSING else f"{name}=_d{i}")
        writes.append(f"\n    _s{i}(self, {name})")
    if hasattr(cls, "__post_init__"):
        writes.append("\n    self.__post_init__()")
    exec(
        f"def __init__({', '.join(params)}):{''.join(writes)}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({''.join(f'self.{n},' for n in names)})"
        f" == ({''.join(f'other.{n},' for n in names)})\n"
        "    return NotImplemented",
        scope,
    )
    for method in ("__init__", "__eq__"):
        fn = scope[method]
        fn.__module__ = cls.__module__
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    return cls


def is_record(obj: Any) -> bool:
    """Whether ``obj`` is a record class or an instance of one."""
    return hasattr(obj, "__record__")


def replace(obj: Any, /, **changes: Any) -> Any:
    """A copy of the record ``obj`` with the fields named in ``changes``
    set to their values, built and checked by its ``__init__``; a name
    that is not a field raises TypeError."""
    if not is_record(type(obj)):
        raise TypeError("replace() should be called on record instances")
    for name in obj.__record__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def _record_hash(self: Any) -> int:
    return hash(tuple(getattr(self, name) for name in self.__match_args__))


def _record_repr(self: Any) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@record
class TruckParams:
    """Physical and economic parameters of one truck.

    Attributes:
        p_bar: energy drawn per minute of driving (kWh/min).
        e_full: battery capacity (kWh).
        e_safe: battery level the truck must never plan to cross (kWh).
        p_max: highest charging power the battery accepts (kW).
        kappa: driver labor cost per minute spent detouring, waiting,
            or charging (euro/min).
        rho: penalty rate applied per minute of anticipated delivery
            overtime (euro/min).
    """

    p_bar: float
    e_full: float
    e_safe: float
    p_max: float
    kappa: float
    rho: float


@record
class StationSpec:
    """A charging site: identical ports, one electricity tariff.

    port_power is the power of a single port in kW;
    electricity_price_energy is the tariff in euro/kWh.
    """

    id: str
    port_count: int
    port_power: float
    electricity_price_energy: float


@record
class Route:
    """A truck's fixed route: ramps splitting the main road into segments.

    The route passes ``ramp_count`` ramps; ramp k (1-based) is the start of
    the shortest detour to the station bound at that ramp.

    Attributes:
        ramp_count: number of ramps N (equals the number of reachable stations).
        segment_times: N+1 driving times in minutes; entry k is the main-road
            segment from ramp k to ramp k+1, with entry 0 leaving the origin
            and the last entry reaching the destination.
        detour_times: N one-way ramp-to-station detour times in minutes.
        station_ids: N station references, one per ramp.
    """

    ramp_count: int
    segment_times: tuple[float, ...]
    detour_times: tuple[float, ...]
    station_ids: tuple[str, ...]


@record
class TruckSpec:
    """One truck's mission: parameters, route, initial conditions.

    The delivery deadline is derived, never stored:
    ``depart_time + sum(route.segment_times) + extra_time_budget``.
    ``w_hat_default`` is the waiting time, in minutes, the truck assumes
    for stations beyond the one it is currently negotiating with.
    """

    id: str
    params: TruckParams
    route: Route
    e_initial: float
    depart_time: float
    extra_time_budget: float
    w_hat_default: float

    @property
    def deadline(self) -> float:
        return self.depart_time + ordered_sum(self.route.segment_times) + self.extra_time_budget


@record
class ChargeDecision:
    """Whether and for how long to charge at one station (minutes)."""

    charge: bool
    duration: float


@record
class ChargingPlan:
    """A plan over the remaining stations of a route.

    ``anticipated_overtime`` may be negative (slack before the deadline).
    A decision with ``charge == False`` always carries duration 0.
    """

    decisions: tuple[ChargeDecision, ...]
    anticipated_cost: float
    anticipated_overtime: float


@record
class Scenario:
    """A complete simulation input: stations, trucks, and provenance."""

    stations: tuple[StationSpec, ...]
    trucks: tuple[TruckSpec, ...]
    rng_seed: int
    label: str

    def station_by_id(self) -> dict[str, StationSpec]:
        return {s.id: s for s in self.stations}


def charging_rate(station: StationSpec, truck: TruckParams) -> float:
    """Effective charging rate in kWh per minute.

    The battery accepts at most ``truck.p_max`` kW, so the usable power is
    the smaller of the port power and that cap.
    """
    return min(station.port_power, truck.p_max) / 60.0


def electricity_price_per_minute(station: StationSpec, truck: TruckParams) -> float:
    """Electricity cost of one charging minute at this station, in euro/min.

    Tariffs are configured per kWh; one minute of charging delivers
    ``min(port_power, p_max) / 60`` kWh, so the per-minute rate is the
    tariff times that quantity.
    """
    return _price_per_minute_at(station, charging_rate(station, truck))


def _price_per_minute_at(station: StationSpec, rate: float) -> float:
    """`electricity_price_per_minute` for a rate the caller already has."""
    return station.electricity_price_energy * rate


def _is_finite_number(x: Any) -> bool:
    """A finite float, or an int (not a bool) small enough to be one."""
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check_params(prefix: str, p: TruckParams, out: list[str]) -> None:
    for name in ("p_bar", "e_full", "e_safe", "p_max", "kappa", "rho"):
        if not _is_finite_number(getattr(p, name)):
            out.append(f"{prefix}: {name} is not a finite number")
            return
    if not 0 < p.e_safe < p.e_full:
        out.append(f"{prefix}: requires 0 < e_safe < e_full, got e_safe={p.e_safe}, e_full={p.e_full}")
    if p.p_bar <= 0:
        out.append(f"{prefix}: p_bar must be positive, got {p.p_bar}")
    if p.p_max <= 0:
        out.append(f"{prefix}: p_max must be positive, got {p.p_max}")
    if p.kappa < 0:
        out.append(f"{prefix}: kappa must be nonnegative, got {p.kappa}")
    if p.rho < 0:
        out.append(f"{prefix}: rho must be nonnegative, got {p.rho}")


def _check_station(prefix: str, s: StationSpec, out: list[str]) -> None:
    if not isinstance(s.port_count, int) or isinstance(s.port_count, bool) or s.port_count < 1:
        out.append(f"{prefix}: port_count must be an integer >= 1, got {s.port_count!r}")
    elif s.port_count > MAX_PORT_COUNT:
        out.append(f"{prefix}: port_count {s.port_count} exceeds the limit of {MAX_PORT_COUNT}")
    if not _is_finite_number(s.port_power) or s.port_power <= 0:
        out.append(f"{prefix}: port_power must be positive, got {s.port_power!r}")
    if not _is_finite_number(s.electricity_price_energy) or s.electricity_price_energy < 0:
        out.append(f"{prefix}: electricity_price_energy must be nonnegative, got {s.electricity_price_energy!r}")


def _check_route(prefix: str, r: Route, station_ids: set[str], out: list[str]) -> None:
    n = r.ramp_count
    if n < 0:
        out.append(f"{prefix}: ramp_count must be nonnegative, got {n}")
        return
    if n > MAX_ENUMERATED_STATIONS:
        out.append(
            f"{prefix}: {n} ramps exceeds the planner's limit of "
            f"{MAX_ENUMERATED_STATIONS} stations per route"
        )
    if len(r.segment_times) != n + 1:
        out.append(f"{prefix}: expected {n + 1} segment_times, got {len(r.segment_times)}")
    if len(r.detour_times) != n:
        out.append(f"{prefix}: expected {n} detour_times, got {len(r.detour_times)}")
    if len(r.station_ids) != n:
        out.append(f"{prefix}: expected {n} station_ids, got {len(r.station_ids)}")
    for i, tau in enumerate(r.segment_times):
        if not _is_finite_number(tau) or tau < 0:
            out.append(f"{prefix}: segment_times[{i}] must be a nonnegative number, got {tau!r}")
    for i, d in enumerate(r.detour_times):
        if not _is_finite_number(d) or d < 0:
            out.append(f"{prefix}: detour_times[{i}] must be a nonnegative number, got {d!r}")
    for i, sid in enumerate(r.station_ids):
        if sid not in station_ids:
            out.append(f"{prefix}: route references unknown station '{sid}' at ramp {i + 1}")


# the last scenario `validate_scenario` stored and its problems, replaced
# whole by every check
_last_checked: tuple[Scenario | None, tuple[str, ...]] = (None, ())


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every structural invariant of a scenario.

    Returns one message per violation (empty list means the scenario is
    well formed). Violations are data, not exceptions: a scenario that
    fails validation is still a value that can be inspected and reported.

    A scenario is checked once per object. Each check stores the scenario
    and its problems when the scenario is deeply immutable: its stations,
    its trucks and every route's segment times, detour times and station
    ids are tuples. A later call on that same object returns a new list
    of the stored problems without checking again. The match is by
    identity, not equality: an equal scenario may hold ``True`` where this
    one holds ``1``. Any other scenario is checked on every call and
    clears the store. The store holds one scenario, which it keeps alive
    until another one is validated.
    """
    global _last_checked
    last, problems = _last_checked
    if scenario is last:
        return list(problems)
    out: list[str] = []
    frozen = type(scenario.stations) is type(scenario.trucks) is tuple

    seen_stations: set[str] = set()
    for s in scenario.stations:
        prefix = f"station {s.id}"
        if s.id in seen_stations:
            out.append(f"{prefix}: duplicate station id")
        seen_stations.add(s.id)
        _check_station(prefix, s, out)

    station_ids = {s.id for s in scenario.stations}
    # the stations with a usable port power, and the slowest of them
    powered = {s.id: s for s in scenario.stations if _is_finite_number(s.port_power) and s.port_power > 0}
    slowest = min(powered.values(), key=lambda s: s.port_power, default=None)
    seen_trucks: set[str] = set()
    for t in scenario.trucks:
        prefix = f"truck {t.id}"
        r = t.route
        frozen = frozen and type(r.segment_times) is type(r.detour_times) is type(r.station_ids) is tuple
        before = len(out)
        if t.id in seen_trucks:
            out.append(f"{prefix}: duplicate truck id")
        seen_trucks.add(t.id)
        _check_params(prefix, t.params, out)
        _check_route(prefix, r, station_ids, out)
        non_finite = [
            name
            for name in ("e_initial", "depart_time", "extra_time_budget", "w_hat_default")
            if not _is_finite_number(getattr(t, name))
        ]
        for name in non_finite:
            out.append(f"{prefix}: {name} is not a finite number")
        if non_finite:
            continue
        if t.depart_time < 0:
            out.append(f"{prefix}: depart_time must be nonnegative, got {t.depart_time}")
        if t.extra_time_budget < 0:
            out.append(f"{prefix}: extra_time_budget must be nonnegative, got {t.extra_time_budget}")
        if t.w_hat_default < 0:
            out.append(f"{prefix}: w_hat_default must be nonnegative, got {t.w_hat_default}")
        if t.e_initial > t.params.e_full:
            out.append(f"{prefix}: e_initial {t.e_initial} exceeds battery capacity {t.params.e_full}")
        first_detour = r.detour_times[0] if r.detour_times else 0.0
        if t.e_initial < t.params.e_safe + t.params.p_bar * first_detour:
            out.append(f"{prefix}: initial battery insufficient for first detour")
        if len(out) > before:
            continue
        # totals over the route that overflow or underflow although every
        # input is finite; a full charge takes longest at the slowest station
        p = t.params
        if not math.isfinite(t.deadline):
            out.append(f"{prefix}: deadline is not a finite number")
        if not math.isfinite(p.p_bar * (ordered_sum(r.segment_times) + 2.0 * ordered_sum(r.detour_times))):
            out.append(f"{prefix}: the energy drained over the route is not a finite number")
        if slowest is None or _full_charge_is_finite(slowest, p):
            continue
        for sid in dict.fromkeys(r.station_ids):
            if sid in powered and not _full_charge_is_finite(powered[sid], p):
                out.append(f"{prefix}: a full charge at station {sid} does not take a finite time")

    _last_checked = (scenario, tuple(out)) if frozen else (None, ())
    return out


def _full_charge_is_finite(s: StationSpec, p: TruckParams) -> bool:
    rate = charging_rate(s, p)
    return rate > 0 and math.isfinite(p.e_full / rate)


# -- the charge-to-full pass -------------------------------------------------
#
# Whether some choice of charging stops completes a route tail. The planner
# runs it before enumerating any stop pattern, and the generator runs it on
# every sampled truck; it lives here so that generating a scenario loads
# neither the planner nor the LP solver.

# the planner's phase-1 tolerance: a stop pattern is infeasible when its
# rows' summed excess over what its stops may buy is larger. The same
# margin bounds how far `_feasible`'s highest level may dip below a bound,
# and lowers the energy needs of the planner's cost bounds
_FEASIBILITY_TOL = 1e-7

_Ramp = tuple[float, float, float, float]


def _check_ramp_values(
    has_station: bool, battery: float, e_full: float, quoted_wait: float, remaining_time: float
) -> None:
    """The checks of the values that change per ramp, shared by the
    planner's `PlannerInput` and `TruckRoute.at` and by the generator; only
    a ramp with a station ahead has a quote. A battery above capacity is
    refused like a scenario's ``e_initial``."""
    if has_station and (not math.isfinite(quoted_wait) or quoted_wait < 0):
        raise ValueError("quoted_wait must be a finite nonnegative number")
    if not math.isfinite(battery):
        raise ValueError("battery must be a finite number")
    if battery > e_full:
        raise ValueError(f"battery {battery} exceeds battery capacity {e_full}")
    if not math.isfinite(remaining_time):
        raise ValueError("remaining_time must be a finite number")


def _ramp_row(p: TruckParams, d: float, s: float) -> _Ramp:
    """The battery bound at a ramp with detour ``d`` and segment ``s``, the
    drain of driving past, the drain of stopping (detour both ways plus the
    segment), and the level after leaving a full charge."""
    p_bar = p.p_bar
    return (p.e_safe + p_bar * d, p_bar * s, p_bar * (2.0 * d + s), p.e_full - p_bar * (d + s))


def _feasible(strict: bool, battery: float, e_safe: float, ramps: Sequence[_Ramp]) -> bool:
    """Whether some stop pattern over the ramp rows ``ramps``, reached with
    ``battery``, may have feasible durations: whether charging to full at
    some choice of stops keeps every bound within the 1e-7 margin.
    Charging to full is pointwise the highest trajectory any durations of
    those stops achieve.

    Float subtraction is monotone, so a higher battery at a ramp is never
    worse than a lower one: it can drive past wherever the lower one can,
    and stopping refills both to the same level. The pass therefore keeps
    only the highest level any pattern reaches. At each ramp the truck
    drives past or, when the level meets the bound there, stops and
    refills; in strict margin mode driving past needs the bound too.
    """
    eps = _FEASIBILITY_TOL
    high = battery
    for floor, drive, _, refilled in ramps:
        if high >= floor - eps:
            high = max(high - drive, refilled)
        elif strict:
            return False
        else:
            high -= drive
    return high >= e_safe - eps


# -- JSON codec ----------------------------------------------------------------
#
# Every record's JSON form is its field list: an object with one key per
# record field in declaration order, tuples as lists and nested records
# as objects. Every file and wire format is such a record, so this is the
# only place a layout is written down; every file is written as compact as
# a wire line. Decoding checks types, and reports a record's own
# __post_init__ refusal at the record's path; scenario invariants are
# validation's job. A float field takes any finite JSON number and keeps an
# integer literal an int, so round-trips do not rewrite "160" as "160.0". A
# field with a default may be absent, and a key that is not a field is an
# error, so a misspelt optional field is not silently replaced by its
# default.


class _Bad(Exception):
    """A decode failure. ``text`` is said of the failing value's key, or of
    the value itself when ``of_object`` (a record that is not an object,
    lacks or has a wrong key, or fails its own ``__post_init__`` check).
    ``steps`` are the value's keys and list indices, innermost first,
    gathered while the failure unwinds, so that a successful decode builds
    no path."""

    def __init__(self, text: str, of_object: bool = False) -> None:
        self.text = text
        self.of_object = of_object
        self.steps: list[str | int] = []

    def message(self, root: str, name: str) -> str:
        """``<path>: <text>``: the path of the failing value's object, or
        ``root`` when that is the document, and for a failing key the key
        with its indices before ``text``."""
        names = [name]  # each key with the indices that follow it
        for step in reversed(self.steps):
            if type(step) is int:
                names[-1] += f"[{step}]"
            else:
                names.append(step)
        key = "" if self.of_object else names.pop() + " "
        # only the document's own name may be empty
        return f"{'.'.join(filter(None, names)) or root}: {key}{self.text}"


_SCALARS = {
    str: (lambda x: isinstance(x, str), "a string"),
    int: (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    float: (_is_finite_number, "a finite number"),
    bool: (lambda x: isinstance(x, bool), "true or false"),
}


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Any, Any, bool], ...]:
    """``(name, type, default, holds records)`` per field of a record,
    resolved once per class; the default of a required field is
    ``MISSING``."""
    hints = typing.get_type_hints(cls)
    plan = []
    for name, default in cls.__record__.items():
        tp = hints[name]
        plan.append((name, tp, default, any(map(is_record, (tp, *typing.get_args(tp))))))
    return tuple(plan)


def encode_record(obj: Any) -> dict[str, Any]:
    """A record's JSON form, tuples as lists, which `decode_record` reads
    back."""
    doc = {}
    for name, _, _, nested in _record_fields(type(obj)):
        value = getattr(obj, name)
        if type(value) is tuple:
            value = [encode_record(x) for x in value] if nested else list(value)
        elif nested and value is not None:
            value = encode_record(value)
        doc[name] = value
    return doc


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The function that checks a JSON value against ``tp`` (a scalar, a
    record, ``tuple[X, ...]``, ``tuple[X, X]`` or ``X | None``) and builds
    it, or raises `_Bad`."""
    if tp in _SCALARS:
        check, expected = _SCALARS[tp]
        text = f"must be {expected}"
        isfinite = math.isfinite

        def scalar(value: Any) -> Any:
            # json.loads makes values of the exact types, which pass at once
            if type(value) is tp and (tp is not float or isfinite(value)) or check(value):
                return value
            raise _Bad(text)

        return scalar
    if is_record(tp):
        plan = [(name, _decoder(ftp), default) for name, ftp, default, _ in _record_fields(tp)]

        def record(doc: Any) -> Any:
            if not isinstance(doc, dict):
                raise _Bad("must be an object", True)
            args = []
            found = 0
            for key, dec, default in plan:
                if key in doc:
                    try:
                        args.append(dec(doc[key]))
                    except _Bad as exc:
                        exc.steps.append(key)
                        raise
                    found += 1
                elif default is MISSING:
                    raise _Bad(f"missing field '{key}'", True)
                else:
                    args.append(default)
            if len(doc) > found:  # some key is not a field
                names = {key for key, _, _ in plan}
                extra = next(key for key in doc if key not in names)
                raise _Bad(f"unexpected field '{extra}'", True)
            try:
                return tp(*args)
            except ValueError as exc:  # the record's own __post_init__ check
                raise _Bad(str(exc), True) from None

        return record
    args = typing.get_args(tp)
    item = _decoder(args[0])
    if typing.get_origin(tp) is not tuple:  # X | None
        return lambda value: None if value is None else item(value)
    size = None if args[-1] is Ellipsis else len(args)
    text = "must be a list" + (f" of {size}" if size else "")

    def items(value: Any) -> tuple[Any, ...]:
        if not isinstance(value, list) or size not in (None, len(value)):
            raise _Bad(text)
        out = []
        try:
            for x in value:
                out.append(item(x))
        except _Bad as exc:
            exc.steps.append(len(out))
            raise
        return tuple(out)

    return items


def decode_record(
    tp: Any, value: Any, root: str, name: str = "", error: type[ValueError] = ValueError
) -> Any:
    """Check a parsed JSON value against ``tp`` and build it. ``name`` is the
    value's key in the enclosing document, which ``root`` names. Raises
    ``error`` with a message ``<path>: ...`` that names the field."""
    try:
        return _decoder(tp)(value)
    except _Bad as exc:
        raise error(exc.message(root, name)) from None


def record_json(value: Any, tp: Any = None) -> str:
    """The JSON text of a record ``value``, compact as the wire transcript,
    with a trailing newline; `decode_record` reads it back. ``tp`` is the
    value's type, by default its class; a ``dict[str, X]`` of records is
    written as the dict of their encodings."""
    if typing.get_origin(tp) is dict:
        doc = {k: encode_record(v) for k, v in value.items()}
    else:
        doc = encode_record(value)
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario to its canonical JSON document (compact, field
    order, trailing newline), so serialize -> parse -> serialize is
    byte-identical."""
    return record_json(scenario)


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario document. Raises ScenarioFormatError on bad structure.

    Parsing checks structure and types only; invariant checking is the
    separate job of validate_scenario.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    return decode_record(Scenario, doc, "scenario", error=ScenarioFormatError)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def dump_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_json(scenario))
