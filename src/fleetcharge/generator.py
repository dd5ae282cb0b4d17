"""Seeded random scenario generation.

A template gives the ranges; a seed pins every draw. Trucks are resampled
until their route is completable (some choice of charging stops keeps the
battery above the reserve bounds all the way to the destination), so a
generated scenario never strands a truck under either strategy.

All sampled times and energies are snapped to a 0.1 grid so that scenario
files and message encodings round-trip without precision loss.
"""

from __future__ import annotations

import math
import random
from typing import Any, get_origin

from .model import (
    MAX_ENUMERATED_STATIONS,
    Route,
    Scenario,
    StationSpec,
    TruckParams,
    TruckSpec,
    _check_ramp_values,
    _feasible,
    _ramp_row,
    _record_fields,
    decode_record,
    ordered_sum,
    record,
)

__all__ = ["ScenarioTemplate", "generate_scenario"]

# draws of one truck before generation gives up on a template
MAX_RESAMPLE_ATTEMPTS = 200


def _snap01(x: float) -> float:
    return round(x, 1)


def _tenths(x: float) -> float:
    if not math.isfinite(x * 10.0):
        raise ValueError(f"{x!r} is too large to snap to the 0.1 grid")
    return x * 10.0


def _ceil01(x: float) -> float:
    return math.ceil(_tenths(x) - 1e-9) / 10.0


def _floor01(x: float) -> float:
    return math.floor(_tenths(x) + 1e-9) / 10.0


@record
class ScenarioTemplate:
    """Ranges and fixed parameters for scenario sampling. Ranges are
    inclusive (lo, hi) pairs; integer ranges use integer endpoints. The
    field defaults are the reference heavy-truck, station and mission
    values."""

    label: str = "generated"
    truck_count: int = 20
    station_count: int = 5
    port_count_range: tuple[int, int] = (1, 3)
    port_power_range: tuple[float, float] = (300.0, 300.0)  # kW
    price_range: tuple[float, float] = (0.36, 0.36)  # euro per kWh
    stations_per_route_range: tuple[int, int] = (2, 4)
    segment_time_range: tuple[float, float] = (20.0, 60.0)  # min
    detour_time_range: tuple[float, float] = (3.0, 12.0)  # min
    depart_window: tuple[float, float] = (480.0, 600.0)  # min, 08:00-10:00
    e_initial_range: tuple[float, float] = (220.0, 500.0)  # kWh
    extra_time_budget: float = 160.0  # min of slack over pure driving time
    w_hat: float = 12.0  # min assumed at stations not yet negotiated
    p_max: float = 375.0  # kW, highest power the battery accepts
    p_bar: float = 1.83  # kWh per min of driving
    e_full: float = 624.0  # kWh, battery capacity
    e_safe: float = 156.0  # kWh, reserve (25% of capacity) plans never cross
    kappa: float = 0.4  # euro per min of driver labor
    rho: float = 10.0  # euro per min of overtime

    def __post_init__(self) -> None:
        problems = []
        if self.truck_count < 1:
            problems.append("truck_count must be at least 1")
        if self.station_count < 1:
            problems.append("station_count must be at least 1")
        for name, tp, _, _ in _record_fields(ScenarioTemplate):
            if get_origin(tp) is tuple:  # an inclusive (lo, hi) range
                lo, hi = getattr(self, name)
                if not (lo <= hi):
                    problems.append(f"{name} has lo > hi")
        if self.port_count_range[0] < 1:
            problems.append("port_count_range must start at 1 or more")
        lo, hi = self.stations_per_route_range
        if lo < 1:
            problems.append("stations_per_route_range must start at 1 or more")
        longest = min(hi, self.station_count)  # the longest route a draw gives
        if longest < lo <= hi:
            problems.append("stations_per_route_range exceeds station_count")
        if longest > MAX_ENUMERATED_STATIONS:
            problems.append(
                f"stations_per_route_range allows routes of {longest} stations, "
                f"past the planner's exact-enumeration cap of {MAX_ENUMERATED_STATIONS}"
            )
        if self.segment_time_range[0] <= 0:
            problems.append("segment times must be positive")
        if self.detour_time_range[0] < 0:
            problems.append("detour times must be nonnegative")
        if problems:
            raise ValueError("invalid template ranges: " + "; ".join(problems))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ScenarioTemplate":
        """A template from its JSON form: fields absent from ``doc`` keep
        their defaults, unknown keys and mistyped values raise ValueError."""
        return decode_record(cls, doc, "template")


def _truck_params(template: ScenarioTemplate) -> TruckParams:
    return TruckParams(
        p_bar=template.p_bar,
        e_full=template.e_full,
        e_safe=template.e_safe,
        p_max=template.p_max,
        kappa=template.kappa,
        rho=template.rho,
    )


def _sample_stations(
    template: ScenarioTemplate, rng: random.Random
) -> tuple[StationSpec, ...]:
    out = []
    for i in range(template.station_count):
        out.append(
            StationSpec(
                id=f"s{i + 1:02d}",
                port_count=rng.randint(*template.port_count_range),
                port_power=float(round(rng.uniform(*template.port_power_range))),
                electricity_price_energy=round(rng.uniform(*template.price_range), 2),
            )
        )
    return tuple(out)


def _route_completable(
    params: TruckParams,
    stations: tuple[StationSpec, ...],
    segs: tuple[float, ...],
    detours: tuple[float, ...],
    e_initial: float,
    remaining_time: float,
) -> bool:
    """Whether the planner, standing at the first ramp with no waits, finds
    some stop pattern that may complete the route: its charge-to-full pass,
    run here without loading the planner. A value it refuses raises its
    error; the template already refuses a route it cannot enumerate."""
    battery = e_initial - params.p_bar * segs[0]
    _check_ramp_values(bool(stations), battery, params.e_full, 0.0, remaining_time)
    rows = [_ramp_row(params, d, s) for d, s in zip(detours, segs[1:])]
    return _feasible(True, battery, params.e_safe, rows)


def generate_scenario(template: ScenarioTemplate, seed: int) -> Scenario:
    """Sample a scenario from ``template`` with every draw pinned by
    ``seed``. Raises ValueError if a completable truck cannot be sampled
    within ``MAX_RESAMPLE_ATTEMPTS`` draws."""
    rng = random.Random(seed)
    stations = _sample_stations(template, rng)
    params = _truck_params(template)

    lo_stops, hi_stops = template.stations_per_route_range
    hi_stops = min(hi_stops, template.station_count)

    trucks = []
    for i in range(template.truck_count):
        accepted = None
        for _ in range(MAX_RESAMPLE_ATTEMPTS):
            n_stops = rng.randint(lo_stops, hi_stops)
            idxs = sorted(rng.sample(range(template.station_count), n_stops))
            route_stations = tuple(stations[j] for j in idxs)
            segs = tuple(
                _snap01(rng.uniform(*template.segment_time_range))
                for _ in range(n_stops + 1)
            )
            detours = tuple(
                _snap01(rng.uniform(*template.detour_time_range))
                for _ in range(n_stops)
            )
            depart = _snap01(rng.uniform(*template.depart_window))
            # enough charge to reach the first ramp with detour margin
            e_floor = _ceil01(
                params.e_safe + params.p_bar * (segs[0] + detours[0])
            )
            e_lo = max(_ceil01(template.e_initial_range[0]), e_floor)
            e_hi = min(_floor01(template.e_initial_range[1]), params.e_full)
            if e_lo > e_hi:
                continue
            e_initial = min(max(_snap01(rng.uniform(e_lo, e_hi)), e_lo), e_hi)
            remaining_time = ordered_sum(segs[1:]) + template.extra_time_budget
            if not _route_completable(
                params, route_stations, segs, detours, e_initial, remaining_time
            ):
                continue
            accepted = TruckSpec(
                id=f"t{i + 1:03d}",
                params=params,
                route=Route(
                    ramp_count=n_stops,
                    segment_times=segs,
                    detour_times=detours,
                    station_ids=tuple(s.id for s in route_stations),
                ),
                e_initial=e_initial,
                depart_time=depart,
                extra_time_budget=template.extra_time_budget,
                w_hat_default=template.w_hat,
            )
            break
        if accepted is None:
            raise ValueError(
                f"could not sample a completable truck after "
                f"{MAX_RESAMPLE_ATTEMPTS} attempts"
            )
        trucks.append(accepted)

    return Scenario(
        stations=stations,
        trucks=tuple(trucks),
        rng_seed=seed,
        label=template.label,
    )
