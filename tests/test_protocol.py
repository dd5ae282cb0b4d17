"""Wire format, strict decoding, and the four-step ramp exchange."""

import json

import pytest

from fleetcharge.protocol import (
    Ack,
    ArrivalAnnouncement,
    ChargingCommitment,
    MessageDecodeError,
    WaitingEstimate,
    decode_message,
    encode_message,
    run_ramp_exchange,
)
from fleetcharge.planner import TruckRoute, solve_charging_problem
from fleetcharge.station import PortLedger, StaleQuoteError

from conftest import make_planner_input


def test_wire_forms_are_exact():
    assert (
        encode_message(ArrivalAnnouncement("t001", "s01", 482.5))
        == '{"type":"arrival","truck":"t001","station":"s01","t_arrival":482.5}'
    )
    assert (
        encode_message(WaitingEstimate("s01", "t001", 0.0))
        == '{"type":"estimate","station":"s01","truck":"t001","wait":0}'
    )
    assert (
        encode_message(ChargingCommitment("t001", "s01", 30.25))
        == '{"type":"commit","truck":"t001","station":"s01","charge_time":30.25}'
    )
    assert (
        encode_message(Ack("s01", "t001"))
        == '{"type":"ack","station":"s01","truck":"t001"}'
    )


def test_numbers_use_at_most_six_decimals():
    line = encode_message(ArrivalAnnouncement("t", "s", 1.0 / 3.0))
    assert '"t_arrival":0.333333' in line
    line = encode_message(ArrivalAnnouncement("t", "s", 12.0))
    assert '"t_arrival":12}' in line
    line = encode_message(WaitingEstimate("s", "t", 1e-9))
    assert '"wait":0}' in line  # rounds to zero, never "-0"


def test_field_order_is_fixed():
    line = encode_message(ArrivalAnnouncement("t001", "s01", 5.0))
    pairs = json.loads(line, object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["type", "truck", "station", "t_arrival"]
    line = encode_message(WaitingEstimate("s01", "t001", 5.0))
    pairs = json.loads(line, object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["type", "station", "truck", "wait"]


@pytest.mark.parametrize(
    "message",
    [
        ArrivalAnnouncement("t001", "s01", 482.5),
        WaitingEstimate("s01", "t001", 17.25),
        ChargingCommitment("t001", "s01", 0.0),
        Ack("s01", "t001"),
    ],
)
def test_messages_round_trip(message):
    assert decode_message(encode_message(message)) == message


def test_grid_times_survive_the_wire_exactly():
    for value in [0.0, 0.1, 12.3, 482.5, 599.9, 1234.5]:
        decoded = decode_message(
            encode_message(ArrivalAnnouncement("t", "s", value))
        )
        assert decoded.t_arrival == value


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("not json", "invalid JSON"),
        ("[1]", "object"),
        ('{"truck":"t","station":"s","t_arrival":1}', "type"),
        ('{"type":"teleport","truck":"t","station":"s"}', "type"),
        ('{"type":["arrival"],"truck":"t","station":"s","t_arrival":1}', "type"),
        ('{"type":"arrival","truck":"t","station":"s"}', "t_arrival"),
        (
            '{"type":"arrival","truck":"t","station":"s","t_arrival":1,"x":2}',
            "x",
        ),
        ('{"type":"arrival","truck":7,"station":"s","t_arrival":1}', "truck"),
        ('{"type":"arrival","truck":"t","station":"s","t_arrival":"soon"}', "t_arrival"),
        ('{"type":"arrival","truck":"t","station":"s","t_arrival":-1}', "t_arrival"),
        ('{"type":"arrival","truck":"t","station":"s","t_arrival":true}', "t_arrival"),
        ('{"type":"estimate","station":"s","truck":"t","wait":NaN}', "wait"),
        ('{"type":"estimate","station":"s","truck":"t","wait":-0.5}', "wait"),
        ('{"type":"commit","truck":"t","station":"s","charge_time":-2}', "charge_time"),
        ('{"type":"commit","truck":"t","station":"s","charge_time":1%s}' % ("0" * 400), "charge_time"),
        ('{"type":"ack","station":"s"}', "truck"),
    ],
)
def test_decoder_rejects_malformed_lines(line, fragment):
    with pytest.raises(MessageDecodeError, match=fragment):
        decode_message(line)


@pytest.mark.parametrize(
    "literal",
    ["1" + "0" * 400, "Infinity", "NaN", "-1.0", "true", '"10"'],
    ids=["huge-int", "inf", "nan", "negative", "bool", "string"],
)
def test_decoder_rejects_times_that_are_not_finite_and_nonnegative(literal):
    for time, line in (
        ("t_arrival", '{"type":"arrival","truck":"t","station":"s","t_arrival":%s}'),
        ("wait", '{"type":"estimate","station":"s","truck":"t","wait":%s}'),
        ("charge_time", '{"type":"commit","truck":"t","station":"s","charge_time":%s}'),
    ):
        with pytest.raises(MessageDecodeError, match=rf": {time} must be (a finite number|finite and nonnegative)"):
            decode_message(line % literal)


def test_exchange_commits_when_the_plan_charges():
    ledger = PortLedger(1)
    base = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=230.0, quoted_wait=0.0
    )
    outcome = run_ramp_exchange(
        1, ledger, "t001", "s01", 100.0, TruckRoute.of_input(base), 0, base.battery, base.remaining_time
    )
    tr = outcome.transcript
    assert tr.sequence_no == 1
    assert len(tr.messages) == 4
    arrival, estimate, commit, ack = tr.messages
    assert arrival.t_arrival == 105.0  # clock plus detour
    assert estimate.wait == 0.0
    assert commit.charge_time > 0.0
    assert ack == tr.messages[3]
    assert ledger.version == 1
    assert outcome.assignment is not None
    assert outcome.assignment.duration == commit.charge_time
    assert outcome.rescue_charge is None
    assert ledger.audit() == []


def test_exchange_still_has_four_messages_when_skipping():
    ledger = PortLedger(1)
    base = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=500.0, quoted_wait=0.0
    )
    outcome = run_ramp_exchange(
        1, ledger, "t001", "s01", 100.0, TruckRoute.of_input(base), 0, base.battery, base.remaining_time
    )
    tr = outcome.transcript
    assert len(tr.messages) == 4
    assert tr.messages[2].charge_time == 0.0
    assert ledger.version == 0  # no booking, no version bump
    assert outcome.assignment is None
    assert ledger.assignments == []


def test_exchange_uses_the_live_quote_not_the_assumed_wait():
    ledger = PortLedger(1)
    # occupy the single port so the next quote is positive
    ledger.commit(ledger.estimate_wait(100.0), "t000", 60.0)
    base = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=230.0, quoted_wait=0.0
    )
    outcome = run_ramp_exchange(
        2, ledger, "t001", "s01", 100.0, TruckRoute.of_input(base), 0, base.battery, base.remaining_time
    )
    quoted = outcome.transcript.messages[1].wait
    assert quoted > 0.0
    assert outcome.quote.wait == quoted
    assert outcome.assignment.wait == quoted


def test_exchange_without_any_feasible_plan_books_nothing():
    # energy-infeasible remaining route: the commit degrades to zero and
    # the ledger stays untouched, but the exchange still runs its four steps
    from conftest import make_params

    params = make_params(e_full=200.0)
    ledger = PortLedger(1)
    base = make_planner_input(
        segment_times=(60.0, 60.0),
        detour_times=(1.0, 1.0),
        battery=190.0,
        assumed_waits=(12.0,),
        params=params,
    )
    outcome = run_ramp_exchange(
        1, ledger, "t001", "s01", 0.0, TruckRoute.of_input(base), 0, base.battery, base.remaining_time
    )
    assert outcome.solution.status == "infeasible"
    assert outcome.rescue_charge is None
    assert outcome.assignment is None
    assert len(outcome.transcript.messages) == 4
    assert outcome.transcript.messages[2].charge_time == 0.0


def test_exchange_at_a_later_ramp_plans_the_tail_from_that_ramp():
    # the second ramp of a two-station route: the announced arrival uses
    # that ramp's detour, and the plan is the one of the route's suffix
    # with the live quote in place of the assumed wait
    ledger = PortLedger(1)
    ledger.commit(ledger.estimate_wait(100.0), "t000", 20.0)
    base = make_planner_input(
        segment_times=(30.0, 60.0),
        detour_times=(3.0, 5.0),
        battery=400.0,
        assumed_waits=(12.0,),
    )
    outcome = run_ramp_exchange(
        1, ledger, "t001", "s02", 100.0, TruckRoute.of_input(base), 1, 230.0, 150.0
    )
    assert outcome.transcript.messages[0].t_arrival == 105.0
    quoted = outcome.quote.wait
    assert quoted > 0.0
    suffix = make_planner_input(
        stations=base.stations[1:],
        segment_times=(60.0,),
        detour_times=(5.0,),
        battery=230.0,
        quoted_wait=quoted,
        remaining_time=150.0,
    )
    assert outcome.solution == solve_charging_problem(suffix)
    assert outcome.transcript.messages[2].charge_time > 0.0


def test_wire_lines_replay_as_a_transcript():
    ledger = PortLedger(1)
    base = make_planner_input(
        segment_times=(60.0,), detour_times=(5.0,), battery=230.0, quoted_wait=0.0
    )
    outcome = run_ramp_exchange(
        1, ledger, "t001", "s01", 100.0, TruckRoute.of_input(base), 0, base.battery, base.remaining_time
    )
    lines = outcome.transcript.wire_lines()
    assert len(lines) == 4
    decoded = [decode_message(line) for line in lines]
    assert decoded[0] == outcome.transcript.messages[0]
    assert decoded[3] == outcome.transcript.messages[3]


def test_stale_quotes_fail_loudly():
    ledger = PortLedger(1)
    old = ledger.estimate_wait(10.0)
    ledger.commit(ledger.estimate_wait(10.0), "t001", 30.0)
    with pytest.raises(StaleQuoteError):
        ledger.commit(old, "t002", 10.0)
