"""Run artifacts on disk.

A run directory holds machine-precision records (metrics.json,
transcript.jsonl, ledgers.json) next to human-oriented CSVs rounded to
0.01. The JSON files are the source of truth; every report CSV can be
regenerated from them with ``write_report_csvs``.
"""

from __future__ import annotations

import csv
import functools
import json
from pathlib import Path
from typing import Any, Callable

from .model import _record_fields, record_json
from .simulation import (
    ComparisonReport,
    RunResult,
    StationTotals,
    TruckDelta,
    VisitRecord,
    metrics_from_dict,
)
from .station import PortLedger, _LedgerState

__all__ = [
    "write_run_outputs",
    "write_comparison_csv",
    "write_report_csvs",
]


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
        raise TypeError("must hold a JSON object")
    return {sid: PortLedger.from_export(doc, sid) for sid, doc in docs.items()}


def _read_run_file(path: Path, kind: str, decode: Callable[[Any], Any]) -> Any:
    """``decode`` of a run file's JSON; anything malformed, from its bytes
    to its fields, raises ValueError naming the file."""
    try:
        return decode(json.loads(path.read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:
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
