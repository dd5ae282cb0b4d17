"""Deterministic discrete-event simulation of a charging-coordinated fleet.

Two strategies run through one event loop over the same scenario and the
same first-come-first-served station ledgers. Each truck's trip is one
generator that drives its route ramp by ramp and pauses, yielding the
time, before each step that touches a ledger. The strategies differ only
in when a truck plans and when it books a port:

* ``run_proposed``: every ramp arrival is an event that runs the
  four-message exchange; the truck replans its whole remaining route
  against the live wait quote and executes only the current-station
  decision. Commitments pre-book a slot for the anticipated station
  arrival time (now plus detour).
* ``run_offline_baseline``: each truck solves the same planning problem
  once at its origin assuming zero waits everywhere and never replans.
  It drives past every ramp without a planned stop; its events are its
  arrivals at the planned stations, where it queues behind whoever booked
  first, so waits emerge from contention it did not plan for.

After a visit or a skip both strategies share the same code: the visit
record, the detour and the next segment. The loop resumes trips in
(time, truck id) order, which is total because a truck has at most one
pending event, so a scenario replays byte-identically. A trip that ends
stores its own record. All clocks are continuous minutes; no rounding
happens inside the engine.

The public runners raise ValueError on an invalid scenario, and the event
loop trusts its input. `validate_scenario` checks a scenario object once,
so ``run``, which validates first to print every problem, then reaches the
loop through the runners without a second check.
A valid scenario can still make a run's times overflow: a scenario fixes
neither how long its trucks charge nor how long they queue. The loop raises
RunOverflowError before a time that is not a finite number reaches a ledger
or a message, and `_build_metrics` before such a total reaches a run file.

The run records the engine fills in, and `compare`, live in
:mod:`fleetcharge.reports`, which imports no engine code; they are
re-exported here.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator

from .model import (
    Scenario,
    TruckSpec,
    charging_rate,
    ordered_sum,
    record,
    validate_scenario,
)
from .planner import TruckRoute, solve_charging_problem
from .protocol import ExchangeTranscript, run_ramp_exchange
from .reports import (
    ComparisonReport,
    RunMetrics,
    RunTotals,
    StationDelta,
    StationTotals,
    TripRecord,
    TruckDelta,
    VisitRecord,
    compare,
    metrics_from_dict,
    run_totals,
)
from .station import PortLedger

__all__ = [
    "VisitRecord",
    "TripRecord",
    "StationTotals",
    "RunTotals",
    "RunMetrics",
    "RunResult",
    "RunOverflowError",
    "TruckDelta",
    "StationDelta",
    "ComparisonReport",
    "run_proposed",
    "run_offline_baseline",
    "compare",
    "audit_run",
    "metrics_from_dict",
]


class RunOverflowError(ValueError):
    """A run of a valid scenario reaches a time or a total that is not a
    finite number; the text names it."""


@record
class RunResult:
    """A completed run: metrics, the exchange transcripts (empty for the
    baseline, whose planning is local), the final ledgers, and the count of
    ramp arrivals the engine processed (one exchange each under the
    proposed strategy)."""

    metrics: RunMetrics
    transcripts: tuple[ExchangeTranscript, ...]
    ledgers: dict[str, PortLedger]
    ramp_arrivals: int
    require_detour_margin_everywhere: bool


def _trip(
    spec: TruckSpec,
    deadline: float,
    visits: list[VisitRecord],
    arrival_time: float | None,
    residual: float | None,
    stranded_at_ramp: int | None = None,
) -> TripRecord:
    """The record of a finished trip; no arrival time means stranded.
    ``deadline`` is ``spec.deadline``, which sums the whole route."""
    stranded = arrival_time is None
    return TripRecord(
        spec.id,
        stranded,
        stranded_at_ramp,
        spec.depart_time,
        deadline,
        spec.params.e_safe,
        arrival_time,
        None if stranded else max(arrival_time - deadline, 0.0),  # deadline_violation
        residual,
        tuple(visits),
    )


def _build_metrics(
    scenario: Scenario, strategy: str, trips: tuple[TripRecord, ...], rescue_count: int
) -> RunMetrics:
    totals, per_station = run_totals(trips, [s.id for s in scenario.stations], rescue_count)
    # a run's clocks are finite, but a sum over its trucks can still overflow
    for name in ("total_waiting_minutes", "total_charging_minutes", "total_energy_delivered_kwh"):
        if not math.isfinite(getattr(totals, name)):
            raise RunOverflowError(f"the {strategy} run's {name} is not a finite number")
    return RunMetrics(scenario.label, strategy, totals, trips, per_station)


def _require_valid(scenario: Scenario) -> None:
    problems = validate_scenario(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))


def _simulate(scenario: Scenario, strategy: str, strict: bool) -> RunResult:
    """The event loop of both strategies ("proposed" or "offline") over a
    valid scenario; ``strict`` is ``require_detour_margin_everywhere``."""
    proposed = strategy == "proposed"
    station_specs = scenario.station_by_id()
    ledgers = {s.id: PortLedger(s.port_count) for s in scenario.stations}
    trips: dict[str, TripRecord] = {}
    transcripts: list[ExchangeTranscript] = []
    rescue_count = 0
    ramp_arrivals = 0

    def build_route(spec: TruckSpec, wait: float) -> TruckRoute:
        """The planner's constants of a truck's route, each station after
        the negotiated one assumed to make it wait ``wait`` minutes."""
        route = spec.route
        return TruckRoute(
            spec.params,
            [station_specs[sid] for sid in route.station_ids],
            route.segment_times[1:],
            route.detour_times,
            (wait,) * route.ramp_count,
            strict,
        )

    def trip(spec: TruckSpec) -> Iterator[float]:
        """Drive one truck from its origin to its destination, yielding
        before each step that touches a ledger the time it happens at: a
        proposed truck's ramp arrival, an offline truck's arrival at a
        planned station. Stores the truck's `TripRecord` when it ends."""
        nonlocal rescue_count, ramp_arrivals
        route = spec.route
        params = spec.params
        p_bar = params.p_bar
        deadline = spec.deadline
        tau0 = route.segment_times[0]
        clock = spec.depart_time + tau0
        battery = spec.e_initial - p_bar * tau0
        visits: list[VisitRecord] = []
        truck_route: TruckRoute | None = None  # built at a proposed truck's first exchange
        if not proposed and route.ramp_count:
            # planned once, at the origin, assuming no wait anywhere
            solution = solve_charging_problem(
                build_route(spec, 0.0).at(0, battery, 0.0, deadline - clock)
            )
            if solution.status != "optimal":
                trips[spec.id] = _trip(spec, deadline, visits, None, None, 0)
                return
            # zero-duration stops in a plan change nothing at the station,
            # so the truck does not take their detours
            plan = [
                dec.duration if dec.charge and dec.duration > 0.0 else 0.0
                for dec in solution.plan.decisions
            ]
            del solution  # the trip keeps only the durations
        for i, station_id in enumerate(route.station_ids):
            d = route.detour_times[i]
            # the clock only grows, and a booking ends by the clock the truck
            # leaves with, which the next check reads before the truck yields
            if not math.isfinite(clock + d):
                raise RunOverflowError(
                    f"the {strategy} run's arrival time of truck {spec.id} at ramp {i + 1} is not a finite number"
                )
            if proposed:
                yield clock
                ramp_arrivals += 1
                if truck_route is None:
                    truck_route = build_route(spec, spec.w_hat_default)
                outcome = run_ramp_exchange(
                    len(transcripts) + 1,
                    ledgers[station_id],
                    spec.id,
                    station_id,
                    clock,
                    truck_route,
                    i,
                    battery,
                    deadline - clock,
                )
                transcripts.append(outcome.transcript)
                if outcome.rescue_charge is not None:
                    rescue_count += 1
                if outcome.solution.status != "optimal" and outcome.assignment is None:
                    trips[spec.id] = _trip(spec, deadline, visits, None, None, i + 1)
                    return
                quote, a = outcome.quote, outcome.assignment
                del outcome  # its plan is not kept until the next exchange
            elif plan[i] == 0.0:
                a = None  # drives past
            else:
                # queue on arrival behind whoever booked first
                yield clock + d
                ledger = ledgers[station_id]
                quote = ledger.estimate_wait(clock + d)
                a = ledger.commit(quote, spec.id, plan[i])
            if a is not None:
                rate = charging_rate(station_specs[station_id], params)
                battery_before = battery - p_bar * d
                battery_after = min(battery_before + rate * a.duration, params.e_full)
                visits.append(
                    VisitRecord(
                        station_id,
                        i + 1,  # ramp
                        a.arrival,
                        quote.wait,
                        a.wait,  # realized
                        a.duration,
                        battery_before,
                        battery_after,
                    )
                )
                clock = a.start + a.duration + d
                battery = battery_after - p_bar * d
            seg = route.segment_times[i + 1]
            clock += seg
            battery -= p_bar * seg
        if not math.isfinite(clock):
            raise RunOverflowError(
                f"the {strategy} run's arrival time of truck {spec.id} at its destination is not a finite number"
            )
        trips[spec.id] = _trip(spec, deadline, visits, clock, battery)

    # (time, truck id, trip) of each truck's next event; a truck has at most
    # one, so (time, truck id) orders the heap totally
    heap: list[tuple[float, str, Iterator[float]]] = []
    for spec in scenario.trucks:
        run = trip(spec)
        time = next(run, None)
        if time is not None:
            heapq.heappush(heap, (time, spec.id, run))
    while heap:
        _, truck_id, run = heapq.heappop(heap)
        time = next(run, None)
        if time is not None:
            heapq.heappush(heap, (time, truck_id, run))

    return RunResult(
        metrics=_build_metrics(
            scenario, strategy, tuple(trips[t.id] for t in scenario.trucks), rescue_count
        ),
        transcripts=tuple(transcripts),
        ledgers=ledgers,
        ramp_arrivals=ramp_arrivals,
        require_detour_margin_everywhere=strict,
    )


def run_proposed(
    scenario: Scenario, *, require_detour_margin_everywhere: bool = True
) -> RunResult:
    """Simulate the fleet with en-route planning and ramp exchanges.

    At every ramp arrival the truck runs one exchange (quote, replan,
    commit) and executes only the resulting current-station decision. A
    truck whose planning problem is infeasible and that cannot rescue
    itself by charging at the current station parks there and leaves the
    simulation, which the metrics record as stranded. An invalid scenario
    raises ValueError naming every problem.
    """
    _require_valid(scenario)
    return _simulate(scenario, "proposed", require_detour_margin_everywhere)


def run_offline_baseline(
    scenario: Scenario, *, require_detour_margin_everywhere: bool = True
) -> RunResult:
    """Simulate the fleet with plan-once-at-origin charging.

    Each truck solves the planning problem a single time before departing,
    assuming zero waits everywhere, then executes exactly the planned
    charging durations. Stations are still shared: a truck queues on
    physical arrival behind whoever booked first. A truck whose problem is
    infeasible at the origin never departs and is recorded as stranded at
    ramp 0. An invalid scenario raises ValueError naming every problem.
    """
    _require_valid(scenario)
    return _simulate(scenario, "offline", require_detour_margin_everywhere)


# -- post-run auditing --------------------------------------------------------


def audit_run(scenario: Scenario, result: RunResult) -> list[str]:
    """Check every cross-cutting invariant of a finished run.

    Replays each non-stranded truck's battery from the scenario and its
    visit records, checking the reserve bounds at every ramp, the reserve
    at the destination, energy conservation, and agreement with the
    recorded batteries; checks every ledger's internal consistency; checks
    that realized waits equal quoted waits; and, for the proposed strategy,
    that there is exactly one four-message exchange per ramp arrival.
    Battery checks allow a truck 1e-6 kWh, or 1e-12 of the largest energy
    its trip handles (its capacity, or the drain of driving every segment
    and every detour both ways) when that is more. Returns one message per
    violation; empty means the run is sound.
    """
    out: list[str] = []
    trucks = {t.id: t for t in scenario.trucks}

    for station_id, ledger in result.ledgers.items():
        for msg in ledger.audit():
            out.append(f"ledger {station_id}: {msg}")

    for trip in result.metrics.per_truck:
        spec = trucks[trip.truck_id]
        for v in trip.visits:
            if v.realized_wait != v.quoted_wait:
                out.append(
                    f"truck {trip.truck_id} at {v.station}: realized wait "
                    f"{v.realized_wait} != quoted wait {v.quoted_wait}"
                )
        if trip.stranded:
            continue
        p = spec.params
        route = spec.route
        driving = ordered_sum(route.segment_times)
        scale = max(p.e_full, p.p_bar * (driving + 2.0 * ordered_sum(route.detour_times)))
        tol = max(1e-6, 1e-12 * scale)
        by_ramp = {v.ramp: v for v in trip.visits}
        e = spec.e_initial - p.p_bar * route.segment_times[0]
        detour_minutes = 0.0
        for ramp in range(1, route.ramp_count + 1):
            d = route.detour_times[ramp - 1]
            visit = by_ramp.get(ramp)
            if result.require_detour_margin_everywhere or visit is not None:
                if e < p.e_safe + p.p_bar * d - tol:
                    out.append(
                        f"truck {trip.truck_id}: battery {e:.6f} at ramp {ramp} "
                        f"below reserve-plus-detour bound"
                    )
            if visit is not None:
                before = e - p.p_bar * d
                if abs(before - visit.battery_before) > tol:
                    out.append(
                        f"truck {trip.truck_id} at {visit.station}: recorded "
                        f"battery_before {visit.battery_before:.6f} != replay {before:.6f}"
                    )
                e = visit.battery_after - p.p_bar * d
                detour_minutes += 2.0 * d
            e -= p.p_bar * route.segment_times[ramp]
        if abs(e - trip.residual_battery) > tol:
            out.append(
                f"truck {trip.truck_id}: recorded residual "
                f"{trip.residual_battery:.6f} != replay {e:.6f}"
            )
        if trip.residual_battery < p.e_safe - tol:
            out.append(
                f"truck {trip.truck_id}: residual {trip.residual_battery:.6f} "
                f"below reserve {p.e_safe}"
            )
        conserved = (
            spec.e_initial
            + trip.total_energy
            - p.p_bar * (driving + detour_minutes)
        )
        if abs(conserved - trip.residual_battery) > tol:
            out.append(
                f"truck {trip.truck_id}: energy balance off by "
                f"{abs(conserved - trip.residual_battery):.9f} kWh"
            )

    if result.metrics.strategy == "proposed":
        if len(result.transcripts) != result.ramp_arrivals:
            out.append(
                f"{len(result.transcripts)} transcripts for "
                f"{result.ramp_arrivals} ramp arrivals"
            )
        for tr in result.transcripts:
            if len(tr.messages) != 4:
                out.append(f"exchange {tr.sequence_no}: {len(tr.messages)} messages")
    return out
