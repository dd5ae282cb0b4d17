"""The four-step ramp exchange between a truck and one station.

Reaching a ramp triggers exactly one exchange with the station bound to it:

1. the truck announces its anticipated station arrival time (now plus the
   detour time);
2. the station answers with a wait estimate from its port ledger;
3. the truck plans its remaining route using that quote and commits a
   charging time (zero means it will skip this station);
4. the station acknowledges, having booked the slot if the time was
   positive.

Trucks never talk to each other and stations never talk to each other.
Each exchange is atomic with respect to the station's ledger: the engine
serializes exchanges, so a stale quote at commit time means a bug, and the
resulting error propagates instead of being retried.

Messages have a canonical single-line JSON wire form so transcripts are
replayable and diffable; numbers are written with at most six decimal
places. A message time is checked only where a wire line is decoded: the
engine builds each message from values its exchange, or for the arrival
time its event loop, has already checked.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from typing import Any, Callable, Union

from .model import _record_fields, decode_record, record
from .planner import (
    PlannerSolution,
    TruckRoute,
    minimal_rescue_charge,
    solve_charging_problem,
)
from .station import Assignment, PortLedger, WaitQuote

__all__ = [
    "ArrivalAnnouncement",
    "WaitingEstimate",
    "ChargingCommitment",
    "Ack",
    "Message",
    "MessageDecodeError",
    "encode_message",
    "decode_message",
    "ExchangeTranscript",
    "ExchangeOutcome",
    "run_ramp_exchange",
]


class MessageDecodeError(ValueError):
    """A wire line is not a well-formed message; the text names the field."""


@record
class ArrivalAnnouncement:
    """Truck to station: anticipated station arrival time, minutes."""

    truck: str
    station: str
    t_arrival: float


@record
class WaitingEstimate:
    """Station to truck: anticipated wait at the announced arrival, minutes."""

    station: str
    truck: str
    wait: float


@record
class ChargingCommitment:
    """Truck to station: planned charging time in minutes (0 = skip)."""

    truck: str
    station: str
    charge_time: float


@record
class Ack:
    """Station to truck: the commitment is recorded."""

    station: str
    truck: str


Message = Union[ArrivalAnnouncement, WaitingEstimate, ChargingCommitment, Ack]


def _fmt_minutes(x: float) -> str:
    """Canonical wire form of a time value: at most 6 decimal places,
    no trailing zeros, no trailing dot."""
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


# The wire format: a message is its type tag followed by its fields in
# declaration order; float fields are times, which _fmt_minutes writes
# and decode_message checks. _FIELDS pairs each field with whether it is.
_MESSAGE_TYPES: dict[str, type] = {
    "arrival": ArrivalAnnouncement,
    "estimate": WaitingEstimate,
    "commit": ChargingCommitment,
    "ack": Ack,
}
_FIELDS = {
    cls: [(name, tp is float) for name, tp, _, _ in _record_fields(cls)] for cls in _MESSAGE_TYPES.values()
}


def _wire_writer(tag: str, cls: type) -> Callable[[Message], str]:
    """The function that writes a ``cls`` message as its wire line. It is
    compiled once per class, so a line costs one ``%`` format: the type
    tag and every key are constants of its template, and each field is
    written by `_fmt_minutes` when it is a time and quoted as json quotes
    a string otherwise."""
    plan = _FIELDS[cls]
    line = f'{{"type":"{tag}"' + "".join(f',"{name}":%s' for name, _ in plan) + "}"
    values = "".join(f"{'_minutes' if is_time else '_quote'}(m.{name}), " for name, is_time in plan)
    namespace: dict[str, Any] = {}
    exec(
        f"def write(m): return _line % ({values})",
        {"_line": line, "_minutes": _fmt_minutes, "_quote": _quote},
        namespace,
    )
    return namespace["write"]


_WIRE = {cls: _wire_writer(tag, cls) for tag, cls in _MESSAGE_TYPES.items()}


def encode_message(message: Message) -> str:
    """One canonical JSON line (no trailing newline)."""
    try:
        write = _WIRE[type(message)]
    except KeyError:
        raise TypeError(f"not a message: {message!r}") from None
    return write(message)


def decode_message(line: str) -> Message:
    """Parse one wire line back into a message.

    Raises MessageDecodeError naming the offending field on anything
    malformed: bad JSON, unknown type, missing, extra or mistyped fields,
    or a negative time. No other code checks a message time.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MessageDecodeError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MessageDecodeError("message must be a JSON object")
    kind = doc.pop("type", None)
    if kind is None:
        raise MessageDecodeError("missing field 'type'")
    cls = _MESSAGE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise MessageDecodeError(f"unknown message type {kind!r}")
    message = decode_record(cls, doc, kind, error=MessageDecodeError)
    for name, is_time in _FIELDS[cls]:  # decode_record refused a time that is not a finite number
        if is_time and doc[name] < 0:
            raise MessageDecodeError(f"{kind}: {name} must be finite and nonnegative, got {doc[name]!r}")
    return message


@record
class ExchangeTranscript:
    """A completed exchange: its four messages in protocol order."""

    sequence_no: int
    messages: tuple[ArrivalAnnouncement, WaitingEstimate, ChargingCommitment, Ack]

    def wire_lines(self) -> list[str]:
        return [encode_message(m) for m in self.messages]


@record
class ExchangeOutcome:
    """Everything the engine needs after an exchange: the transcript, the
    planner's full solution for the route tail planned against the live
    quote, that quote, the booked slot (None when the commitment was zero),
    and the rescue charge if the regular problem was infeasible and a
    minimal safe charge existed."""

    transcript: ExchangeTranscript
    solution: PlannerSolution
    quote: WaitQuote
    assignment: Assignment | None
    rescue_charge: float | None


def run_ramp_exchange(
    sequence_no: int,
    ledger: PortLedger,
    truck_id: str,
    station_id: str,
    clock: float,
    route: TruckRoute,
    index: int,
    battery: float,
    remaining_time: float,
) -> ExchangeOutcome:
    """Execute one complete exchange at a ramp.

    ``route`` is the truck's route and ``index`` the position on it of
    this ramp's station (0 at the first ramp); ``battery`` is the level
    reaching the ramp and ``remaining_time`` the minutes left until the
    delivery deadline. The truck plans the route's tail from this ramp,
    ``route.at(index, ...)``, against the station's live quote and commits
    the planned duration at this station (zero when the plan skips it). If
    the planner finds no feasible plan, the truck falls back to the
    smallest charge here that keeps the rest of the route above the battery
    bounds, deadline ignored; if even that does not exist the commitment is
    zero and the caller decides what stranding means.

    A StaleQuoteError from the ledger propagates: exchanges are serialized
    by the engine, so staleness indicates a sequencing bug, not a condition
    to retry.
    """
    t_arrival = clock + route.detour_time(index)
    # records are built positionally, in field order, on this hot path
    arrival = ArrivalAnnouncement(truck_id, station_id, t_arrival)
    quote = ledger.estimate_wait(t_arrival)
    estimate = WaitingEstimate(station_id, truck_id, quote.wait)
    tail = route.at(index, battery, quote.wait, remaining_time)
    solution = solve_charging_problem(tail)
    rescue_charge: float | None = None
    if solution.status == "optimal":
        first = solution.plan.decisions[0]
        charge_time = first.duration if first.charge else 0.0
    else:
        rescue_charge = minimal_rescue_charge(tail)
        charge_time = rescue_charge if rescue_charge is not None else 0.0
    commitment = ChargingCommitment(truck_id, station_id, charge_time)
    assignment = ledger.commit(quote, truck_id, charge_time)
    ack = Ack(station_id, truck_id)
    transcript = ExchangeTranscript(sequence_no, (arrival, estimate, commitment, ack))
    return ExchangeOutcome(transcript, solution, quote, assignment, rescue_charge)
