"""What a finished run is: its records, their comparison, and its files.

The records (`VisitRecord`, `TripRecord`, `StationTotals`, `RunTotals`,
`RunMetrics`) are what the engine in :mod:`fleetcharge.simulation` fills
in; `compare` diffs two of them. This module imports no engine code, so
the ``report`` and ``compare`` commands load neither the planner nor the
simulation.

A run directory holds machine-precision records (metrics.json,
transcript.jsonl, ledgers.json) next to human-oriented CSVs rounded to
0.01. The JSON files are the source of truth; every report CSV can be
regenerated from them with ``write_report_csvs``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .model import _record_fields, decode_record, ordered_sum, record, record_json
from .station import PortLedger, _LedgerState

if TYPE_CHECKING:
    from .simulation import RunResult

__all__ = [
    "VisitRecord",
    "TripRecord",
    "StationTotals",
    "RunTotals",
    "RunMetrics",
    "TruckDelta",
    "StationDelta",
    "ComparisonReport",
    "compare",
    "metrics_from_dict",
    "run_totals",
    "write_run_outputs",
    "write_comparison_csv",
    "write_report_csvs",
]


@record
class VisitRecord:
    """One executed charging stop. ``t_arrival`` is the time the slot was
    booked for: the anticipated station arrival under the proposed strategy
    (which equals the physical arrival, travel being deterministic), the
    physical arrival under the baseline. Batteries are kWh at the station,
    before and after charging."""

    station: str
    ramp: int
    t_arrival: float
    quoted_wait: float
    realized_wait: float
    charge_time: float
    battery_before: float
    battery_after: float

    @property
    def energy(self) -> float:
        return self.battery_after - self.battery_before


@record
class TripRecord:
    """One truck's whole trip. ``arrival_time``, ``residual_battery`` and
    ``deadline_violation`` are None exactly when the truck stranded;
    ``stranded_at_ramp`` is 0 for a truck that could not even leave its
    origin (offline baseline with an infeasible plan)."""

    truck_id: str
    stranded: bool
    stranded_at_ramp: int | None
    depart_time: float
    deadline: float
    reserve_battery: float
    arrival_time: float | None
    deadline_violation: float | None
    residual_battery: float | None
    visits: tuple[VisitRecord, ...]

    @property
    def total_wait(self) -> float:
        return ordered_sum(v.realized_wait for v in self.visits)

    @property
    def total_charge_time(self) -> float:
        return ordered_sum(v.charge_time for v in self.visits)

    @property
    def total_energy(self) -> float:
        return ordered_sum(v.energy for v in self.visits)


@record
class StationTotals:
    """One station's sums over a run's visits, in trip then visit order."""

    station: str
    visits: int
    waiting_minutes: float
    charging_minutes: float
    mean_wait: float
    energy_delivered_kwh: float


@record
class RunTotals:
    """Fleet aggregates, computed from the trip records they summarize, so
    the sums match their constituents exactly."""

    trucks: int
    stranded: int
    deadline_violations: int
    rescue_charges: int
    total_waiting_minutes: float
    total_waiting_hours: float
    total_charging_minutes: float
    total_energy_delivered_kwh: float


@record
class RunMetrics:
    """What a run measured; its fields are the keys of metrics.json."""

    label: str
    strategy: str
    totals: RunTotals
    per_truck: tuple[TripRecord, ...]
    per_station: tuple[StationTotals, ...]

    # the three totals perfbench/run.py reports by these names
    @property
    def total_waiting_minutes(self) -> float:
        return self.totals.total_waiting_minutes

    @property
    def deadline_violation_count(self) -> int:
        return self.totals.deadline_violations

    @property
    def stranded_count(self) -> int:
        return self.totals.stranded


def run_totals(
    trips: tuple[TripRecord, ...], stations: Iterable[str], rescue_charges: int
) -> tuple[RunTotals, tuple[StationTotals, ...]]:
    """The fleet totals and the per-station rows, in the order of
    ``stations``, that a run's trips add up to, in one pass over them.

    Each station's sums take its visits in trip order, then visit order,
    from 0.0. Each fleet total adds every trip's own total, which adds
    its visits left to right, both from the integer 0 as `ordered_sum`
    does, so a total carries the bits of the `TripRecord` totals it sums.
    A visit to a station not in ``stations`` raises ValueError naming it.
    """
    sums = {station: [0, 0.0, 0.0, 0.0] for station in stations}
    stranded = late = 0
    total_wait = total_charging = total_energy = 0
    for i, trip in enumerate(trips):
        wait = charging = energy = 0
        for v in trip.visits:
            try:
                row = sums[v.station]
            except KeyError:
                raise ValueError(
                    f"per_truck[{i}]: a visit to station {v.station!r}, which per_station does not list"
                ) from None
            kwh = v.energy
            row[0] += 1
            row[1] += v.realized_wait
            row[2] += v.charge_time
            row[3] += kwh
            wait += v.realized_wait
            charging += v.charge_time
            energy += kwh
        total_wait += wait
        total_charging += charging
        total_energy += energy
        stranded += trip.stranded
        late += trip.deadline_violation is not None and trip.deadline_violation > 0
    totals = RunTotals(
        len(trips),
        stranded,
        late,
        rescue_charges,
        total_wait,
        total_wait / 60.0,
        total_charging,
        total_energy,
    )
    per_station = tuple(
        StationTotals(station, count, waiting, charging, waiting / count if count else 0.0, kwh)
        for station, (count, waiting, charging, kwh) in sums.items()
    )
    return totals, per_station


def metrics_from_dict(doc: Any) -> RunMetrics:
    """Rebuild run metrics from their dictionary form (inverse of
    ``encode_record``). A malformed ``doc``, a trip whose arrival fields
    disagree with its ``stranded`` flag, a truck or station listed twice,
    or a total or station row that is not what `run_totals` adds up from
    the trips raises ValueError naming the field."""
    metrics = decode_record(RunMetrics, doc, "metrics")
    for i, trip in enumerate(metrics.per_truck):
        for name in ("arrival_time", "deadline_violation", "residual_battery"):
            if (getattr(trip, name) is None) != trip.stranded:
                raise ValueError(f"per_truck[{i}]: {name} must be null exactly when stranded")
    for key, field in (("per_truck", "truck_id"), ("per_station", "station")):
        seen: set[str] = set()
        for i, row in enumerate(getattr(metrics, key)):
            name = getattr(row, field)
            if name in seen:
                raise ValueError(f"{key}[{i}]: duplicate {field} {name!r}")
            seen.add(name)
    # the rescue count and the station names are read, not derived
    totals, per_station = run_totals(
        metrics.per_truck, [s.station for s in metrics.per_station], metrics.totals.rescue_charges
    )
    rows = [("totals", metrics.totals, totals)]
    rows += ((f"per_station[{i}]", *pair) for i, pair in enumerate(zip(metrics.per_station, per_station)))
    for where, read, folded in rows:
        for name, tp, _, _ in _record_fields(type(read)):
            if getattr(read, name) != getattr(folded, name):
                what = "count" if tp is int else "sum"
                raise ValueError(f"{where}: {name} is not the {what} of per_truck")
    return metrics


# -- comparison ---------------------------------------------------------------


@record
class TruckDelta:
    """One truck's wait and charging minutes in both runs of a comparison."""

    truck_id: str
    wait_baseline: float
    wait_proposed: float
    wait_delta: float
    charge_baseline: float
    charge_proposed: float
    violation_baseline: float | None
    violation_proposed: float | None


@record
class StationDelta:
    """One station's wait and charging minutes in both runs of a comparison."""

    station: str
    wait_baseline: float
    wait_proposed: float
    wait_delta: float
    charge_baseline: float
    charge_proposed: float


@record
class ComparisonReport:
    """Two runs of one scenario compared: per truck, per station and in
    total."""

    label: str
    trucks: tuple[TruckDelta, ...]
    stations: tuple[StationDelta, ...]
    wait_baseline: float
    wait_proposed: float
    wait_reduction_pct: float
    violations_baseline: int
    violations_proposed: int
    stranded_baseline: int
    stranded_proposed: int


def compare(baseline: RunMetrics, proposed: RunMetrics) -> ComparisonReport:
    """Per-truck and per-station waiting deltas between two runs of the
    same scenario, plus the total-wait reduction percentage."""
    if baseline.label != proposed.label:
        raise ValueError(
            f"cannot compare runs of different scenarios: "
            f"{baseline.label!r} vs {proposed.label!r}"
        )
    prop_by_truck = {t.truck_id: t for t in proposed.per_truck}
    base_ids = [t.truck_id for t in baseline.per_truck]
    if set(base_ids) != set(prop_by_truck):
        raise ValueError("cannot compare runs with different truck sets")
    truck_rows = []
    for bt in baseline.per_truck:
        pt = prop_by_truck[bt.truck_id]
        truck_rows.append(
            TruckDelta(
                truck_id=bt.truck_id,
                wait_baseline=bt.total_wait,
                wait_proposed=pt.total_wait,
                wait_delta=pt.total_wait - bt.total_wait,
                charge_baseline=bt.total_charge_time,
                charge_proposed=pt.total_charge_time,
                violation_baseline=bt.deadline_violation,
                violation_proposed=pt.deadline_violation,
            )
        )
    prop_by_station = {s.station: s for s in proposed.per_station}
    if {s.station for s in baseline.per_station} != set(prop_by_station):
        raise ValueError("cannot compare runs with different station sets")
    station_rows = []
    for bs in baseline.per_station:
        ps = prop_by_station[bs.station]
        station_rows.append(
            StationDelta(
                station=bs.station,
                wait_baseline=bs.waiting_minutes,
                wait_proposed=ps.waiting_minutes,
                wait_delta=ps.waiting_minutes - bs.waiting_minutes,
                charge_baseline=bs.charging_minutes,
                charge_proposed=ps.charging_minutes,
            )
        )
    wait_base = baseline.totals.total_waiting_minutes
    wait_prop = proposed.totals.total_waiting_minutes
    # divided before it is scaled, so that totals near the float maximum
    # do not overflow
    reduction = 100.0 * ((wait_base - wait_prop) / wait_base) if wait_base > 0 else 0.0
    if not math.isfinite(reduction):
        raise ValueError(
            f"cannot compare runs whose wait reduction ({wait_base:.6g} -> {wait_prop:.6g} min) "
            "is not a finite percentage"
        )
    return ComparisonReport(
        label=baseline.label,
        trucks=tuple(truck_rows),
        stations=tuple(station_rows),
        wait_baseline=wait_base,
        wait_proposed=wait_prop,
        wait_reduction_pct=reduction,
        violations_baseline=baseline.totals.deadline_violations,
        violations_proposed=proposed.totals.deadline_violations,
        stranded_baseline=baseline.totals.stranded,
        stranded_proposed=proposed.totals.stranded,
    )


# -- run files ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@functools.cache
def _cell_rule(cls: type) -> tuple[tuple[str, Callable[[Any], str]], ...]:
    """``(field, format)`` per field of a record, in declaration order: a
    field declared ``float`` or ``float | None`` is written with two
    decimals and anything else with ``str``."""
    return tuple(
        (name, _fmt if tp in (float, float | None) else str)
        for name, tp, _, _ in _record_fields(cls)
    )


def _cells(record: Any) -> list[str]:
    """A record's CSV cells by `_cell_rule`; None is an empty cell."""
    return [
        "" if (value := getattr(record, name)) is None else fmt(value)
        for name, fmt in _cell_rule(type(record))
    ]


def _header(cls: type) -> list[str]:
    return [name for name, _ in _cell_rule(cls)]


def _write_station_totals(path: Path, totals: tuple[StationTotals, ...]) -> Path:
    _write_csv(path, _header(StationTotals), [_cells(s) for s in totals])
    return path


def write_run_outputs(result: RunResult, out_dir: str | Path) -> list[Path]:
    """Write metrics.json, trips.csv, stations.csv, transcript.jsonl and
    ledgers.json into ``out_dir`` and return the paths. The transcript file
    is always written; a baseline run leaves it empty."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = out / "metrics.json"
    metrics_path.write_text(record_json(result.metrics))
    written.append(metrics_path)

    trips_path = out / "trips.csv"
    _write_csv(
        trips_path,
        ["truck", *_header(VisitRecord)],
        [[trip.truck_id, *_cells(v)] for trip in result.metrics.per_truck for v in trip.visits],
    )
    written.append(trips_path)

    written.append(_write_station_totals(out / "stations.csv", result.metrics.per_station))

    transcript_path = out / "transcript.jsonl"
    transcript_path.write_text(
        "".join(
            line + "\n" for tr in result.transcripts for line in tr.wire_lines()
        )
    )
    written.append(transcript_path)

    ledgers_path = out / "ledgers.json"
    ledgers_path.write_text(
        record_json(
            {sid: ledger.state() for sid, ledger in result.ledgers.items()},
            dict[str, _LedgerState],
        )
    )
    written.append(ledgers_path)
    return written


def write_comparison_csv(report: ComparisonReport, path: str | Path) -> Path:
    """One CSV with per-truck, per-station and total rows, distinguished by
    the ``scope`` column. Empty cells mean not applicable (a stranded
    truck's violation, a truck row's reduction percentage)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    rows = [["truck", *_cells(t), ""] for t in report.trucks]
    rows += [["station", *_cells(s), "", "", ""] for s in report.stations]
    rows.append(
        [
            "total",
            report.label,
            _fmt(report.wait_baseline),
            _fmt(report.wait_proposed),
            _fmt(report.wait_proposed - report.wait_baseline),
            "",
            "",
            str(report.violations_baseline),
            str(report.violations_proposed),
            _fmt(report.wait_reduction_pct),
        ]
    )
    _write_csv(target, ["scope", "id", *_header(TruckDelta)[1:], "wait_reduction_pct"], rows)
    return target


def _ledgers_from_dict(docs: Any) -> dict[str, PortLedger]:
    if not isinstance(docs, dict):
        raise ValueError("must hold a JSON object")
    return {sid: PortLedger.from_export(doc, sid) for sid, doc in docs.items()}


def _read_run_file(path: Path, kind: str, decode: Callable[[Any], Any]) -> Any:
    """``decode`` of a run file's JSON; anything malformed, from its bytes
    to its fields, raises ValueError naming the file."""
    try:
        return decode(json.loads(path.read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{path} is not a {kind} file: {exc}") from None


def write_report_csvs(run_dir: str | Path) -> list[Path]:
    """Regenerate the four report CSVs from a run directory's metrics.json
    and ledgers.json: waiting_by_truck (descending, zero waits omitted),
    station_totals, residual_battery (with each truck's reserve threshold,
    stranded trucks omitted) and port_schedule. Both files are read back
    into run records before anything is written; a malformed file raises
    ValueError naming it."""
    run = Path(run_dir)
    metrics = _read_run_file(run / "metrics.json", "metrics", metrics_from_dict)
    ledgers = _read_run_file(run / "ledgers.json", "ledgers", _ledgers_from_dict)
    written = []

    waiters = sorted(
        ((t.truck_id, t.total_wait) for t in metrics.per_truck if t.total_wait > 0),
        key=lambda row: (-row[1], row[0]),
    )
    path = run / "waiting_by_truck.csv"
    _write_csv(
        path,
        ["truck", "total_wait"],
        [[truck, _fmt(wait)] for truck, wait in waiters],
    )
    written.append(path)

    written.append(_write_station_totals(run / "station_totals.csv", metrics.per_station))

    path = run / "residual_battery.csv"
    _write_csv(
        path,
        ["truck", "residual_battery", "threshold"],
        [
            [t.truck_id, _fmt(t.residual_battery), _fmt(t.reserve_battery)]
            for t in metrics.per_truck
            if not t.stranded
        ],
    )
    written.append(path)

    path = run / "port_schedule.csv"
    _write_csv(
        path,
        ["station", "port", "truck", "start", "end"],
        [
            [sid, str(a.port), a.truck, _fmt(a.start), _fmt(a.start + a.duration)]
            for sid in sorted(ledgers)
            for port in ledgers[sid].schedule_by_port()
            for a in port
        ],
    )
    written.append(path)
    return written
