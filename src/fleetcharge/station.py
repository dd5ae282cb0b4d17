"""Station-side port scheduling: first-come-first-served reservation ledgers.

A station owns one :class:`PortLedger` per site. The ledger tracks, for each
port, the time it next becomes available. Trucks interact in two steps:

1. :meth:`PortLedger.estimate_wait` answers "if I arrive at time ``t_arrival``,
   how long until a port is free?" without changing any state. The answer
   carries the ledger version it was computed against.
2. :meth:`PortLedger.commit` books the quoted slot. A commit with a positive
   charging duration appends to the assignment log and advances the chosen
   port's availability; a zero-duration commit (the truck decided to skip
   this station) changes nothing.

Service is first-come-first-served in *communication* order: whoever commits
first holds the earlier slot, even if their physical arrival is later. A
commit against a quote whose version is no longer current raises
:class:`StaleQuoteError`; the caller must re-estimate.
"""

from __future__ import annotations

import math
from typing import Any

from .model import MAX_PORT_COUNT, decode_record, record

__all__ = [
    "Assignment",
    "PortLedger",
    "StaleQuoteError",
    "WaitQuote",
]


class StaleQuoteError(RuntimeError):
    """The ledger changed between quote and commit; the quote is void."""


@record
class WaitQuote:
    """A wait estimate bound to the ledger state it was computed against.

    Attributes:
        wait: minutes between ``arrival`` and the earliest port being free.
        port: index of the port that would serve this arrival.
        arrival: the arrival time the estimate was computed for.
        ledger_version: ledger version at estimation time; a commit is only
            valid while this is still the current version.
    """

    wait: float
    port: int
    arrival: float
    ledger_version: int


@record
class Assignment:
    """One booked charging slot, ending at ``start + duration``.

    ``wait`` is the quoted wait the slot was committed under and ``start``
    is the stored sum ``arrival + wait``; the wait is kept as its own field
    so the waiting duration is exactly the quoted value rather than a
    round-tripped float difference."""

    truck: str
    port: int
    arrival: float
    wait: float
    start: float
    duration: float


class PortLedger:
    """Reservation state of one station's identical ports.

    State is three pieces: per-port next-available times (all 0.0 at the
    start of the day), an append-only assignment log, and a version counter
    that increments exactly once per booked assignment.
    """

    __slots__ = ("available_times", "assignments", "version")

    def __init__(self, port_count: int) -> None:
        if not 1 <= port_count <= MAX_PORT_COUNT:
            raise ValueError(f"port_count must be in 1..{MAX_PORT_COUNT}, got {port_count}")
        self.available_times: list[float] = [0.0] * port_count
        self.assignments: list[Assignment] = []
        self.version: int = 0

    @property
    def port_count(self) -> int:
        return len(self.available_times)

    def estimate_wait(self, t_arrival: float) -> WaitQuote:
        """Quote the wait for an arrival at ``t_arrival``. Read-only.

        The wait is how far the earliest port availability lies beyond the
        arrival, floored at zero; ties between equally early ports go to the
        lowest port index.
        """
        times = self.available_times
        best = min(times)
        # wait, port, arrival, ledger_version
        return WaitQuote(max(best - t_arrival, 0.0), times.index(best), t_arrival, self.version)

    def commit(self, quote: WaitQuote, truck: str, charge_time: float) -> Assignment | None:
        """Book the quoted slot for ``charge_time`` minutes.

        A positive duration appends an assignment starting at
        ``quote.arrival + quote.wait`` on the quoted port, advances that
        port's availability to the assignment's end, and bumps the version.
        A zero duration leaves the ledger untouched and returns None; a
        negative, infinite or NaN one raises ValueError.
        """
        if not 0 <= charge_time < math.inf:
            raise ValueError(f"charge_time must be finite and nonnegative, got {charge_time}")
        if quote.ledger_version != self.version:
            raise StaleQuoteError(
                f"quote computed at ledger version {quote.ledger_version}, "
                f"ledger is now at version {self.version}"
            )
        if charge_time == 0:
            return None
        # truck, port, arrival, wait, start, duration
        assignment = Assignment(
            truck, quote.port, quote.arrival, quote.wait, quote.arrival + quote.wait, charge_time
        )
        self.assignments.append(assignment)
        self.available_times[quote.port] = assignment.start + assignment.duration
        self.version += 1
        return assignment

    def schedule_by_port(self) -> list[list[Assignment]]:
        """Assignments grouped per port, each in booking (hence start) order."""
        out: list[list[Assignment]] = [[] for _ in self.available_times]
        for a in self.assignments:
            out[a.port].append(a)
        return out

    def audit(self) -> list[str]:
        """Replay the assignment log and check every ledger invariant.

        Each assignment must be exactly what the quoting policy would have
        produced on the ledger state left by its predecessors: lowest-index
        earliest-free port, start at max(arrival, port availability). The
        final per-port availabilities and the version counter must match the
        log. Returns one message per violation; empty means clean.
        """
        out: list[str] = []
        avail = [0.0] * len(self.available_times)
        for i, a in enumerate(self.assignments):
            if a.duration <= 0:
                out.append(f"assignment {i}: nonpositive duration {a.duration}")
            best_port = min(range(len(avail)), key=lambda c: (avail[c], c))
            if a.port != best_port:
                out.append(
                    f"assignment {i}: booked port {a.port}, policy picks port {best_port}"
                )
            expected_wait = max(avail[best_port] - a.arrival, 0.0)
            if a.wait != expected_wait:
                out.append(
                    f"assignment {i}: wait {a.wait}, policy gives {expected_wait}"
                )
            if a.start != a.arrival + a.wait:
                out.append(
                    f"assignment {i}: start {a.start} is not arrival + wait "
                    f"{a.arrival + a.wait}"
                )
            avail[a.port] = a.start + a.duration
        if avail != self.available_times:
            out.append(
                f"available_times {self.available_times} do not match replay {avail}"
            )
        if self.version != len(self.assignments):
            out.append(
                f"version {self.version} does not match assignment count {len(self.assignments)}"
            )
        return out

    def state(self) -> "_LedgerState":
        """The ledger as its JSON record, one object of ledgers.json."""
        return _LedgerState(
            port_count=len(self.available_times),
            available_times=tuple(self.available_times),
            version=self.version,
            assignments=tuple(self.assignments),
        )

    @classmethod
    def from_export(cls, doc: Any, name: str = "") -> "PortLedger":
        """A ledger from its JSON record, the inverse of
        ``encode_record(ledger.state())``. A malformed ``doc``, or a ledger
        that disagrees with its own assignment log, raises ValueError naming
        the field, under ``name`` when the caller gives one."""
        state = decode_record(_LedgerState, doc, "ledger", name)
        # the shape first: `audit` indexes the port list by each booked port
        n = state.port_count
        if not 1 <= n <= MAX_PORT_COUNT:
            problems = [f"port_count must be in 1..{MAX_PORT_COUNT}, got {n}"]
        elif len(state.available_times) != n:
            problems = [f"available_times has {len(state.available_times)} entries, port_count is {n}"]
        else:
            problems = [
                f"assignment {i}: port {a.port} is not in 0..{n - 1}"
                for i, a in enumerate(state.assignments)
                if not 0 <= a.port < n
            ]
        if not problems:
            ledger = cls(n)
            ledger.available_times = list(state.available_times)
            ledger.version = state.version
            ledger.assignments = list(state.assignments)
            problems = ledger.audit()
        if problems:
            raise ValueError(f"{name or 'ledger'}: " + "; ".join(problems))
        return ledger


@record
class _LedgerState:
    """The JSON form of a `PortLedger`, one object per station in
    ledgers.json."""

    port_count: int
    available_times: tuple[float, ...]
    version: int
    assignments: tuple[Assignment, ...]
