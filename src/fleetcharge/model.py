"""Domain types, unit conventions, and scenario validation.

Unit conventions used everywhere in this package:

* time    -- minutes (real-valued; simulation epoch 0 = scenario start of day)
* energy  -- kWh
* power   -- kW (a port delivering P kW for t minutes adds P * t / 60 kWh)
* money   -- euro

No field anywhere mixes units. Scenario files persist exactly these units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "MAX_ENUMERATED_STATIONS",
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class StationSpec:
    """A charging site: identical ports, one electricity tariff.

    port_power is the power of a single port in kW;
    electricity_price_energy is the tariff in euro/kWh.
    """

    id: str
    port_count: int
    port_power: float
    electricity_price_energy: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ChargeDecision:
    """Whether and for how long to charge at one station (minutes)."""

    charge: bool
    duration: float


@dataclass(frozen=True, slots=True)
class ChargingPlan:
    """A plan over the remaining stations of a route.

    ``anticipated_overtime`` may be negative (slack before the deadline).
    A decision with ``charge == False`` always carries duration 0.
    """

    decisions: tuple[ChargeDecision, ...]
    anticipated_cost: float
    anticipated_overtime: float


@dataclass(frozen=True, slots=True)
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
    return station.electricity_price_energy * charging_rate(station, truck)


def _is_finite_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_params(prefix: str, p: TruckParams, out: list[str]) -> None:
    for name in ("p_bar", "e_full", "e_safe", "p_max", "kappa", "rho"):
        if not _is_finite_number(getattr(p, name)):
            out.append(f"{prefix}: params.{name} is not a finite number")
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


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every structural invariant of a scenario.

    Returns one message per violation (empty list means the scenario is
    well formed). Violations are data, not exceptions: a scenario that
    fails validation is still a value that can be inspected and reported.
    """
    out: list[str] = []

    seen_stations: set[str] = set()
    for s in scenario.stations:
        prefix = f"station {s.id}"
        if s.id in seen_stations:
            out.append(f"{prefix}: duplicate station id")
        seen_stations.add(s.id)
        _check_station(prefix, s, out)

    station_ids = {s.id for s in scenario.stations}
    seen_trucks: set[str] = set()
    for t in scenario.trucks:
        prefix = f"truck {t.id}"
        if t.id in seen_trucks:
            out.append(f"{prefix}: duplicate truck id")
        seen_trucks.add(t.id)
        _check_params(prefix, t.params, out)
        _check_route(prefix, t.route, station_ids, out)
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
        first_detour = t.route.detour_times[0] if t.route.detour_times else 0.0
        if t.e_initial < t.params.e_safe + t.params.p_bar * first_detour:
            out.append(f"{prefix}: initial battery insufficient for first detour")

    return out


# -- Scenario file format ----------------------------------------------------
#
# A scenario is a single JSON document:
#
#   {"stations": [...], "trucks": [...], "rng_seed": <int>, "label": <str>}
#
# with field names exactly matching the dataclasses above. Serialization is
# canonical (2-space indent, fixed key order, trailing newline), so
# serialize -> parse -> serialize is byte-identical. Numeric JSON types are
# preserved as parsed: an integer literal stays an int, so round-trips do
# not rewrite "160" as "160.0".


def _station_to_dict(s: StationSpec) -> dict[str, Any]:
    return {
        "id": s.id,
        "port_count": s.port_count,
        "port_power": s.port_power,
        "electricity_price_energy": s.electricity_price_energy,
    }


def _truck_to_dict(t: TruckSpec) -> dict[str, Any]:
    return {
        "id": t.id,
        "params": {
            "p_bar": t.params.p_bar,
            "e_full": t.params.e_full,
            "e_safe": t.params.e_safe,
            "p_max": t.params.p_max,
            "kappa": t.params.kappa,
            "rho": t.params.rho,
        },
        "route": {
            "ramp_count": t.route.ramp_count,
            "segment_times": list(t.route.segment_times),
            "detour_times": list(t.route.detour_times),
            "station_ids": list(t.route.station_ids),
        },
        "e_initial": t.e_initial,
        "depart_time": t.depart_time,
        "extra_time_budget": t.extra_time_budget,
        "w_hat_default": t.w_hat_default,
    }


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario to its canonical JSON document."""
    doc = {
        "stations": [_station_to_dict(s) for s in scenario.stations],
        "trucks": [_truck_to_dict(t) for t in scenario.trucks],
        "rng_seed": scenario.rng_seed,
        "label": scenario.label,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _require(doc: dict[str, Any], key: str, kind: type | tuple[type, ...], where: str) -> Any:
    if key not in doc:
        raise ScenarioFormatError(f"{where}: missing field '{key}'")
    value = doc[key]
    if kind is float:
        if not _is_finite_number(value):
            raise ScenarioFormatError(f"{where}: field '{key}' must be a finite number")
        return value
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioFormatError(f"{where}: field '{key}' has wrong type")
    return value


def _number_list(doc: dict[str, Any], key: str, where: str) -> tuple[float, ...]:
    value = _require(doc, key, list, where)
    for i, x in enumerate(value):
        if not _is_finite_number(x):
            raise ScenarioFormatError(f"{where}: {key}[{i}] must be a finite number")
    return tuple(value)


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario document. Raises ScenarioFormatError on bad structure.

    Parsing checks structure and types only; invariant checking is the
    separate job of validate_scenario.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")

    stations = []
    for i, sd in enumerate(_require(doc, "stations", list, "scenario")):
        where = f"stations[{i}]"
        if not isinstance(sd, dict):
            raise ScenarioFormatError(f"{where}: must be an object")
        stations.append(
            StationSpec(
                id=_require(sd, "id", str, where),
                port_count=_require(sd, "port_count", int, where),
                port_power=_require(sd, "port_power", float, where),
                electricity_price_energy=_require(sd, "electricity_price_energy", float, where),
            )
        )

    trucks = []
    for i, td in enumerate(_require(doc, "trucks", list, "scenario")):
        where = f"trucks[{i}]"
        if not isinstance(td, dict):
            raise ScenarioFormatError(f"{where}: must be an object")
        pd = _require(td, "params", dict, where)
        rd = _require(td, "route", dict, where)
        station_ids = _require(rd, "station_ids", list, f"{where}.route")
        for j, sid in enumerate(station_ids):
            if not isinstance(sid, str):
                raise ScenarioFormatError(f"{where}.route: station_ids[{j}] must be a string")
        trucks.append(
            TruckSpec(
                id=_require(td, "id", str, where),
                params=TruckParams(
                    p_bar=_require(pd, "p_bar", float, f"{where}.params"),
                    e_full=_require(pd, "e_full", float, f"{where}.params"),
                    e_safe=_require(pd, "e_safe", float, f"{where}.params"),
                    p_max=_require(pd, "p_max", float, f"{where}.params"),
                    kappa=_require(pd, "kappa", float, f"{where}.params"),
                    rho=_require(pd, "rho", float, f"{where}.params"),
                ),
                route=Route(
                    ramp_count=_require(rd, "ramp_count", int, f"{where}.route"),
                    segment_times=_number_list(rd, "segment_times", f"{where}.route"),
                    detour_times=_number_list(rd, "detour_times", f"{where}.route"),
                    station_ids=tuple(station_ids),
                ),
                e_initial=_require(td, "e_initial", float, where),
                depart_time=_require(td, "depart_time", float, where),
                extra_time_budget=_require(td, "extra_time_budget", float, where),
                w_hat_default=_require(td, "w_hat_default", float, where),
            )
        )

    return Scenario(
        stations=tuple(stations),
        trucks=tuple(trucks),
        rng_seed=_require(doc, "rng_seed", int, "scenario"),
        label=_require(doc, "label", str, "scenario"),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def dump_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_json(scenario))
