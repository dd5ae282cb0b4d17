"""Shared builders for test scenarios and planner inputs."""

from __future__ import annotations

from typing import Sequence
from unittest import mock

import pytest
from hypothesis import strategies as st

from fleetcharge import planner, simulation
from fleetcharge.generator import ScenarioTemplate, _truck_params
from fleetcharge.model import (
    Route,
    Scenario,
    StationSpec,
    TruckParams,
    TruckSpec,
    charging_rate,
    electricity_price_per_minute,
    replace,
)
from fleetcharge.planner import (
    _DETOUR,
    _FIELDS,
    _SEGMENT,
    _WAIT,
    PlannerInput,
    TruckRoute,
    _RouteTail,
    _tail_of,
    solve_lp,
)

import reference_lp

# the reference truck, station and mission values
DEFAULTS = ScenarioTemplate()


def make_params(**overrides) -> TruckParams:
    return replace(_truck_params(DEFAULTS), **overrides)


def make_station(
    sid: str = "s01",
    port_count: int = 3,
    port_power: float = DEFAULTS.port_power_range[0],
    price: float = DEFAULTS.price_range[0],
) -> StationSpec:
    return StationSpec(
        id=sid,
        port_count=port_count,
        port_power=port_power,
        electricity_price_energy=price,
    )


def make_truck(
    tid: str = "t001",
    station_ids: tuple[str, ...] = ("s01",),
    segment_times: tuple[float, ...] = (30.0, 60.0),
    detour_times: tuple[float, ...] = (5.0,),
    e_initial: float = 400.0,
    depart_time: float = 480.0,
    budget: float = DEFAULTS.extra_time_budget,
    w_hat: float = DEFAULTS.w_hat,
    params: TruckParams | None = None,
) -> TruckSpec:
    return TruckSpec(
        id=tid,
        params=params if params is not None else make_params(),
        route=Route(
            ramp_count=len(station_ids),
            segment_times=segment_times,
            detour_times=detour_times,
            station_ids=station_ids,
        ),
        e_initial=e_initial,
        depart_time=depart_time,
        extra_time_budget=budget,
        w_hat_default=w_hat,
    )


def make_scenario(
    stations: tuple[StationSpec, ...] | None = None,
    trucks: tuple[TruckSpec, ...] | None = None,
    label: str = "test",
    seed: int = 0,
) -> Scenario:
    if stations is None:
        stations = (make_station(),)
    if trucks is None:
        trucks = (make_truck(),)
    return Scenario(stations=stations, trucks=trucks, rng_seed=seed, label=label)


def make_planner_input(
    stations: tuple[StationSpec, ...] | None = None,
    segment_times: tuple[float, ...] = (60.0,),
    detour_times: tuple[float, ...] = (5.0,),
    battery: float = 400.0,
    quoted_wait: float = 0.0,
    assumed_waits: tuple[float, ...] | None = None,
    remaining_time: float = 240.0,
    params: TruckParams | None = None,
    **kw,
) -> PlannerInput:
    if stations is None:
        stations = tuple(
            make_station(f"s{i + 1:02d}") for i in range(len(segment_times))
        )
    if assumed_waits is None:
        assumed_waits = (DEFAULTS.w_hat,) * max(len(stations) - 1, 0)
    return PlannerInput(
        params=params if params is not None else make_params(),
        stations=stations,
        segment_times=segment_times,
        detour_times=detour_times,
        battery=battery,
        quoted_wait=quoted_wait,
        assumed_waits=assumed_waits,
        remaining_time=remaining_time,
        **kw,
    )


def planner_input_of(tail: _RouteTail, stations: Sequence[StationSpec]) -> PlannerInput:
    """The planner input of a route tail, as a truck at its ramp would
    state it: the remaining stations, segments and detours, the live
    quote, and the assumed waits of the stations after it. A route keeps
    only its stations' constants, so ``stations`` are the specs of the
    tail's whole route, from its first ramp."""
    r, i = tail.route, tail.start

    def column(field: int, start: int) -> tuple:
        """One field of every station from ramp ``start`` on."""
        return r.columns[_FIELDS * start + field :: _FIELDS]

    return PlannerInput(
        params=r.params,
        stations=tuple(stations[i:]),
        segment_times=column(_SEGMENT, i),
        detour_times=column(_DETOUR, i),
        battery=tail.battery,
        quoted_wait=tail.quoted_wait,
        assumed_waits=column(_WAIT, i + 1),
        remaining_time=tail.remaining_time,
        require_detour_margin_everywhere=r.strict,
    )


@pytest.fixture
def route_stations(monkeypatch) -> dict[TruckRoute, tuple[StationSpec, ...]]:
    """The stations of every route the engine builds during the test, by
    route, for `planner_input_of`."""
    stations = {}

    def recording(params, specs, *rest):
        route = TruckRoute(params, specs, *rest)
        stations[route] = tuple(specs)
        return route

    monkeypatch.setattr(simulation, "TruckRoute", recording)
    return stations


def rates_of(inp: PlannerInput) -> tuple[float, ...]:
    """Charging rate at each remaining station, kWh per minute."""
    return tuple(charging_rate(s, inp.params) for s in inp.stations)


def prices_of(inp: PlannerInput) -> tuple[float, ...]:
    """Electricity cost of one charging minute at each remaining station."""
    return tuple(electricity_price_per_minute(s, inp.params) for s in inp.stations)


def waits_of(inp: PlannerInput) -> tuple[float, ...]:
    """Wait assumed at each remaining station: the quote, then the defaults."""
    return (inp.quoted_wait,) + inp.assumed_waits if inp.stations else ()


def assignment_lp(inp: PlannerInput, selected, **options):
    """The duration LP of one stop pattern, solved by the simplex: the
    reference for the planner's solvers. ``options`` are those of
    `reference_lp.duration_program`."""
    return reference_lp.duration_lp(_tail_of(inp), selected, **options)


def counting_solve_lp():
    """``(calls, patch)``: while ``patch`` is active, the planner's
    `solve_lp` calls are recorded in ``calls``, each as its pattern's
    number of stops."""
    calls = []

    def counting(need, caps, *rest):
        calls.append(len(caps))
        return solve_lp(need, caps, *rest)

    return calls, mock.patch.object(planner, "solve_lp", counting)


@pytest.fixture
def params() -> TruckParams:
    return make_params()


def _tenths(lo: float, hi: float):
    return st.integers(round(lo * 10), round(hi * 10)).map(lambda k: k / 10)


@st.composite
def planner_inputs(draw, min_stations: int = 0, max_stations: int = 8) -> PlannerInput:
    """Hypothesis inputs with ``min_stations`` to ``max_stations`` remaining
    stations, non-uniform port power and prices, rho in {0, 1, 10, 100},
    kappa in {0, 0.4}, and both margin modes."""
    m = draw(st.integers(min_stations, max_stations))
    stations = tuple(
        make_station(
            f"s{l + 1:02d}",
            port_power=float(draw(st.integers(150, 400))),
            price=draw(st.integers(20, 60)) / 100,
        )
        for l in range(m)
    )
    e_full = draw(st.sampled_from([624.0, 312.0]))
    params = make_params(
        e_full=e_full,
        e_safe=e_full / 4,
        rho=draw(st.sampled_from([0.0, 1.0, 10.0, 100.0])),
        kappa=draw(st.sampled_from([0.0, 0.4])),
    )
    segs = tuple(draw(_tenths(20.0, 90.0)) for _ in range(m))
    return PlannerInput(
        params=params,
        stations=stations,
        segment_times=segs,
        detour_times=tuple(draw(_tenths(0.0, 14.0)) for _ in range(m)),
        # mostly enough to reach the first station, so few inputs are hopeless
        battery=draw(_tenths(params.e_safe + 10.0, params.e_full)),
        quoted_wait=draw(_tenths(0.0, 40.0)),
        assumed_waits=tuple(draw(_tenths(0.0, 40.0)) for _ in range(max(m - 1, 0))),
        remaining_time=round(draw(st.floats(0.3, 1.3)) * (sum(segs) + 60.0), 1),
        require_detour_margin_everywhere=draw(st.booleans()),
    )
