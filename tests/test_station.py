"""Port ledger: FCFS quoting, commit atomicity, audit, replay."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge.model import encode_record
from fleetcharge.station import PortLedger, StaleQuoteError


def test_empty_ledger_quotes_zero_wait():
    ledger = PortLedger(2)
    quote = ledger.estimate_wait(100.0)
    assert quote.wait == 0.0
    assert quote.port == 0
    assert quote.arrival == 100.0
    assert quote.ledger_version == 0


def test_commit_books_a_slot_and_bumps_version():
    ledger = PortLedger(1)
    quote = ledger.estimate_wait(10.0)
    a = ledger.commit(quote, "t001", 30.0)
    assert a is not None
    assert a.truck == "t001"
    assert a.port == 0
    assert a.start == 10.0
    assert a.wait == 0.0
    assert ledger.version == 1
    assert ledger.available_times[0] == 40.0


def test_zero_duration_commit_changes_nothing():
    ledger = PortLedger(1)
    quote = ledger.estimate_wait(10.0)
    assert ledger.commit(quote, "t001", 0.0) is None
    assert ledger.version == 0
    assert ledger.available_times == [0.0]
    assert ledger.assignments == []


@pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_a_duration_that_is_not_finite_and_nonnegative_is_rejected(duration):
    ledger = PortLedger(1)
    quote = ledger.estimate_wait(10.0)
    with pytest.raises(ValueError, match="charge_time must be finite and nonnegative"):
        ledger.commit(quote, "t001", duration)
    # the refused commit must not have touched anything
    assert ledger.version == 0
    assert ledger.available_times == [0.0]
    assert ledger.assignments == []
    assert ledger.audit() == []


def test_stale_quote_is_rejected():
    ledger = PortLedger(1)
    old = ledger.estimate_wait(10.0)
    fresh = ledger.estimate_wait(12.0)
    ledger.commit(fresh, "t001", 20.0)
    with pytest.raises(StaleQuoteError):
        ledger.commit(old, "t002", 5.0)
    # the failed commit must not have touched anything
    assert ledger.version == 1
    assert len(ledger.assignments) == 1


def test_second_truck_waits_for_the_first():
    # one port, two identical trucks: the second's wait is the first's
    # charge time minus the arrival gap, clamped at zero
    ledger = PortLedger(1)
    first = ledger.commit(ledger.estimate_wait(10.0), "t001", 30.0)
    second = ledger.commit(ledger.estimate_wait(15.0), "t002", 30.0)
    assert first.wait == 0.0
    assert second.wait == 30.0 - (15.0 - 10.0)
    late = ledger.commit(ledger.estimate_wait(200.0), "t003", 30.0)
    assert late.wait == 0.0


def test_lowest_index_port_wins_ties():
    ledger = PortLedger(3)
    a = ledger.commit(ledger.estimate_wait(0.0), "t001", 10.0)
    b = ledger.commit(ledger.estimate_wait(0.0), "t002", 10.0)
    c = ledger.commit(ledger.estimate_wait(0.0), "t003", 10.0)
    assert (a.port, b.port, c.port) == (0, 1, 2)
    # port 1 frees first after these bookings
    ledger.commit(ledger.estimate_wait(10.0), "t004", 50.0)  # port 0 until 60
    d = ledger.commit(ledger.estimate_wait(10.0), "t005", 5.0)
    assert d.port == 1


def test_audit_accepts_honest_history():
    ledger = PortLedger(2)
    for i, (arrival, duration) in enumerate(
        [(0.0, 30.0), (5.0, 45.0), (10.0, 20.0), (11.0, 0.0), (60.0, 15.0)]
    ):
        quote = ledger.estimate_wait(arrival)
        ledger.commit(quote, f"t{i:03d}", duration)
    assert ledger.audit() == []


def test_audit_catches_tampering():
    ledger = PortLedger(1)
    ledger.commit(ledger.estimate_wait(0.0), "t001", 30.0)
    ledger.commit(ledger.estimate_wait(5.0), "t002", 30.0)
    assert ledger.audit() == []
    ledger.available_times[0] += 1.0
    assert ledger.audit() != []


def test_export_rebuilds_identical_schedule():
    ledger = PortLedger(2)
    for i, (arrival, duration) in enumerate([(0.0, 30.0), (2.0, 10.0), (4.0, 25.0)]):
        ledger.commit(ledger.estimate_wait(arrival), f"t{i:03d}", duration)
    clone = PortLedger.from_export(encode_record(ledger.state()))
    assert clone.audit() == []
    assert clone.available_times == ledger.available_times
    assert clone.version == ledger.version
    assert clone.assignments == ledger.assignments
    assert clone.schedule_by_port() == ledger.schedule_by_port()


def test_import_rejects_a_mistyped_assignment():
    ledger = PortLedger(1)
    ledger.commit(ledger.estimate_wait(0.0), "t001", 30.0)
    doc = encode_record(ledger.state())
    doc["assignments"][0]["port"] = "0"
    with pytest.raises(ValueError, match=r"^assignments\[0\]: port must be an integer$"):
        PortLedger.from_export(doc)


def test_import_names_the_station_of_an_out_of_range_port_count():
    doc = {"port_count": 10**30, "available_times": [], "version": 0, "assignments": []}
    with pytest.raises(ValueError, match=r"^s01: port_count"):
        PortLedger.from_export(doc, "s01")


_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.125, max_value=120.0, allow_nan=False, width=32),
        ),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(port_count=st.integers(min_value=1, max_value=4), events=_events)
def test_random_histories_stay_consistent(port_count, events):
    ledger = PortLedger(port_count)
    committed = []
    for i, (arrival, duration) in enumerate(events):
        quote = ledger.estimate_wait(arrival)
        assert quote.wait >= 0.0
        a = ledger.commit(quote, f"t{i:03d}", duration)
        if duration > 0.0:
            assert a is not None
            assert a.wait == quote.wait
            assert a.start == a.arrival + a.wait
            committed.append(a)
        else:
            assert a is None
    assert ledger.audit() == []
    assert ledger.version == len(committed)
    # per-port starts never move backwards and bookings never overlap
    # (beyond the one-ulp slack of computing arrival + (avail - arrival))
    for assignments in ledger.schedule_by_port():
        for earlier, later in zip(assignments, assignments[1:]):
            assert later.start >= earlier.start
            assert later.start >= earlier.start + earlier.duration - 1e-9


@settings(max_examples=50, deadline=None)
@given(port_count=st.integers(min_value=1, max_value=4), events=_events)
def test_random_histories_replay_from_export(port_count, events):
    ledger = PortLedger(port_count)
    for i, (arrival, duration) in enumerate(events):
        ledger.commit(ledger.estimate_wait(arrival), f"t{i:03d}", duration)
    clone = PortLedger.from_export(encode_record(ledger.state()))
    assert clone.audit() == []
    assert clone.available_times == ledger.available_times
