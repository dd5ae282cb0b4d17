"""Every message of `audit_run` and `PortLedger.audit` can fire: each case
tampers with a clean proposed run of the golden scenario, or with the
scenario the audit replays it against, and the audit must return exactly
one message, the expected one."""

import re
from pathlib import Path

import pytest

from fleetcharge.model import load_scenario, replace
from fleetcharge.simulation import audit_run, run_proposed

GOLDEN_SCENARIO = Path(__file__).parent / "goldens" / "scenario.json"

# t001 never stops; t002 stops once, at ramp 1, and ends on its reserve.
# Both trips handle little enough energy that the audit's battery
# tolerance is 1e-6 kWh
PASSING, STOPPING = 0, 1
TOL = 1e-6


def _booking(change):
    """Station s02's last booking (port 1, after four others) changed, and
    every port's availability set to the end of its last booking, so that
    only the booking itself is wrong."""

    def tamper(scenario, result):
        ledger = result.ledgers["s02"]
        ledger.assignments[-1] = change(ledger.assignments[-1])
        ends = [0.0] * ledger.port_count
        for a in ledger.assignments:
            ends[a.port] = a.start + a.duration
        ledger.available_times = ends
        return scenario, result

    return tamper


def _ledger(change):
    def tamper(scenario, result):
        change(result.ledgers["s02"])
        return scenario, result

    return tamper


def _stop(residual_shift=0.0, **shifts):
    """t002's visit with each named field moved by its shift, and the
    trip's recorded residual moved by ``residual_shift``."""

    def tamper(scenario, result):
        trips = list(result.metrics.per_truck)
        trip = trips[STOPPING]
        visit = trip.visits[0]
        visit = replace(visit, **{k: getattr(visit, k) + v for k, v in shifts.items()})
        residual = trip.residual_battery + residual_shift
        trips[STOPPING] = replace(trip, visits=(visit,), residual_battery=residual)
        return scenario, replace(result, metrics=replace(result.metrics, per_truck=tuple(trips)))

    return tamper


def _truck(i, change):
    def tamper(scenario, result):
        trucks = list(scenario.trucks)
        trucks[i] = change(trucks[i])
        return replace(scenario, trucks=tuple(trucks)), result

    return tamper


def _longer_first_detour(spec):
    route = spec.route
    detours = (route.detour_times[0] + 100.0, *route.detour_times[1:])
    return replace(spec, route=replace(route, detour_times=detours))


def _higher_reserve(spec):
    return replace(spec, params=replace(spec.params, e_safe=spec.params.e_safe + 1.0))


def _drop_a_message(scenario, result):
    transcripts = list(result.transcripts)
    transcripts[3] = replace(transcripts[3], messages=transcripts[3].messages[:3])
    return scenario, replace(result, transcripts=tuple(transcripts))


def _one_more_arrival(scenario, result):
    return scenario, replace(result, ramp_arrivals=result.ramp_arrivals + 1)


def _bump_version(ledger):
    ledger.version += 1


def _bump_port_0(ledger):
    ledger.available_times[0] += 1.0


NUMBER = r"-?[0-9.]+"
CASES = {
    # PortLedger.audit, each message under audit_run's ledger prefix
    "ledger-nonpositive-duration": (
        _booking(lambda a: replace(a, duration=0.0)),
        "ledger s02: assignment 4: nonpositive duration 0.0",
    ),
    "ledger-wrong-port": (
        _booking(lambda a: replace(a, port=0)),
        "ledger s02: assignment 4: booked port 0, policy picks port 1",
    ),
    "ledger-wrong-wait": (
        _booking(lambda a: replace(a, wait=a.wait + 1.0, start=a.start + 1.0)),
        f"ledger s02: assignment 4: wait {NUMBER}, policy gives {NUMBER}",
    ),
    "ledger-start-not-arrival-plus-wait": (
        _booking(lambda a: replace(a, start=a.start + 1.0)),
        f"ledger s02: assignment 4: start {NUMBER} is not arrival \\+ wait {NUMBER}",
    ),
    "ledger-available-times": (
        _ledger(_bump_port_0),
        r"ledger s02: available_times \[.*\] do not match replay \[.*\]",
    ),
    "ledger-version": (
        _ledger(_bump_version),
        "ledger s02: version 6 does not match assignment count 5",
    ),
    # the rest of audit_run
    "realized-wait": (
        _stop(realized_wait=1.0),
        f"truck t002 at s01: realized wait {NUMBER} != quoted wait {NUMBER}",
    ),
    # t001 passes ramp 1 114 kWh above its bound; a detour 100 minutes
    # longer drains 183 kWh more
    "battery-below-bound": (
        _truck(PASSING, _longer_first_detour),
        f"truck t001: battery {NUMBER} at ramp 1 below reserve-plus-detour bound",
    ),
    # The energy balance misses by the sum of the replay's misses at
    # battery_before and at the residual. So one miss beyond the tolerance
    # and one within it, of the other sign, keep the balance within it,
    # and two misses within it, of one sign, put the balance beyond it
    "battery-before": (
        _stop(battery_before=-1.5 * TOL, residual_shift=0.9 * TOL),
        f"truck t002 at s01: recorded battery_before {NUMBER} != replay {NUMBER}",
    ),
    "residual-replay": (
        _stop(battery_before=-0.9 * TOL, residual_shift=1.5 * TOL),
        f"truck t002: recorded residual {NUMBER} != replay {NUMBER}",
    ),
    "energy-balance": (
        _stop(battery_before=-0.7 * TOL, residual_shift=-0.7 * TOL),
        "truck t002: energy balance off by 0.000001400 kWh",
    ),
    # every ramp of t002 clears its bound by 7.9 kWh or more
    "residual-below-reserve": (
        _truck(STOPPING, _higher_reserve),
        f"truck t002: residual {NUMBER} below reserve 157.0",
    ),
    "transcript-count": (_one_more_arrival, "27 transcripts for 28 ramp arrivals"),
    "message-count": (_drop_a_message, "exchange 4: 3 messages"),
}


@pytest.fixture
def golden_run():
    scenario = load_scenario(str(GOLDEN_SCENARIO))
    result = run_proposed(scenario)
    assert audit_run(scenario, result) == []
    trips = result.metrics.per_truck
    assert [t.truck_id for t in trips[:2]] == ["t001", "t002"]
    assert not trips[PASSING].visits and [v.ramp for v in trips[STOPPING].visits] == [1]
    assert [a.port for a in result.ledgers["s02"].assignments] == [0, 1, 1, 0, 1]
    return scenario, result


@pytest.mark.parametrize("case", CASES)
def test_each_audit_message_fires_alone(golden_run, case):
    tamper, expected = CASES[case]
    messages = audit_run(*tamper(*golden_run))
    assert len(messages) == 1, messages
    assert re.fullmatch(expected, messages[0]), messages[0]
