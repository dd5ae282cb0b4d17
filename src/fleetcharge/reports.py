"""Run artifacts on disk.

A run directory holds machine-precision records (metrics.json,
transcript.jsonl, ledgers.json) next to human-oriented CSVs rounded to
0.01. The JSON files are the source of truth; every report CSV can be
regenerated from them with ``write_report_csvs``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

from .simulation import ComparisonReport, RunResult, StationTotals, VisitRecord, metrics_from_dict
from .station import PortLedger

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


def _write_station_totals(path: Path, totals: tuple[StationTotals, ...]) -> Path:
    _write_csv(
        path,
        [f.name for f in fields(StationTotals)],
        [
            [
                s.station,
                str(s.visits),
                _fmt(s.waiting_minutes),
                _fmt(s.charging_minutes),
                _fmt(s.mean_wait),
                _fmt(s.energy_delivered_kwh),
            ]
            for s in totals
        ],
    )
    return path


def write_run_outputs(result: RunResult, out_dir: str | Path) -> list[Path]:
    """Write metrics.json, trips.csv, stations.csv, transcript.jsonl and
    ledgers.json into ``out_dir`` and return the paths. The transcript file
    is always written; a baseline run leaves it empty."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = out / "metrics.json"
    metrics_path.write_text(
        json.dumps(result.metrics.to_dict(), indent=2, allow_nan=False) + "\n"
    )
    written.append(metrics_path)

    trips_rows = []
    for trip in result.metrics.trips:
        for v in trip.visits:
            trips_rows.append(
                [
                    trip.truck_id,
                    v.station,
                    str(v.ramp),
                    _fmt(v.t_arrival),
                    _fmt(v.quoted_wait),
                    _fmt(v.realized_wait),
                    _fmt(v.charge_time),
                    _fmt(v.battery_before),
                    _fmt(v.battery_after),
                ]
            )
    trips_path = out / "trips.csv"
    _write_csv(trips_path, ["truck"] + [f.name for f in fields(VisitRecord)], trips_rows)
    written.append(trips_path)

    written.append(_write_station_totals(out / "stations.csv", result.metrics.station_totals))

    transcript_path = out / "transcript.jsonl"
    transcript_path.write_text(
        "".join(
            line + "\n" for tr in result.transcripts for line in tr.wire_lines()
        )
    )
    written.append(transcript_path)

    ledgers_path = out / "ledgers.json"
    ledgers_path.write_text(
        json.dumps(
            {sid: ledger.export() for sid, ledger in result.ledgers.items()},
            indent=2,
            allow_nan=False,
        )
        + "\n"
    )
    written.append(ledgers_path)
    return written


def write_comparison_csv(report: ComparisonReport, path: str | Path) -> Path:
    """One CSV with per-truck, per-station and total rows, distinguished by
    the ``scope`` column. Empty cells mean not applicable (a stranded
    truck's violation, a truck row's reduction percentage)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    rows: list[list[str]] = []
    for t in report.trucks:
        rows.append(
            [
                "truck",
                t.truck_id,
                _fmt(t.wait_baseline),
                _fmt(t.wait_proposed),
                _fmt(t.wait_delta),
                _fmt(t.charge_baseline),
                _fmt(t.charge_proposed),
                "" if t.violation_baseline is None else _fmt(t.violation_baseline),
                "" if t.violation_proposed is None else _fmt(t.violation_proposed),
                "",
            ]
        )
    for s in report.stations:
        rows.append(
            [
                "station",
                s.station,
                _fmt(s.wait_baseline),
                _fmt(s.wait_proposed),
                _fmt(s.wait_proposed - s.wait_baseline),
                _fmt(s.charge_baseline),
                _fmt(s.charge_proposed),
                "",
                "",
                "",
            ]
        )
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
    _write_csv(
        target,
        [
            "scope",
            "id",
            "wait_baseline",
            "wait_proposed",
            "wait_delta",
            "charge_baseline",
            "charge_proposed",
            "violation_baseline",
            "violation_proposed",
            "wait_reduction_pct",
        ],
        rows,
    )
    return target


def write_report_csvs(run_dir: str | Path) -> list[Path]:
    """Regenerate the four report CSVs from a run directory's metrics.json
    and ledgers.json: waiting_by_truck (descending, zero waits omitted),
    station_totals, residual_battery (with each truck's reserve threshold,
    stranded trucks omitted) and port_schedule. Both files are read back
    into run records before anything is written; a malformed file raises
    KeyError, TypeError or ValueError."""
    run = Path(run_dir)
    metrics = metrics_from_dict(json.loads((run / "metrics.json").read_text(encoding="utf-8")))
    ledger_docs = json.loads((run / "ledgers.json").read_text(encoding="utf-8"))
    if not isinstance(ledger_docs, dict):
        raise TypeError("ledgers.json must hold a JSON object")
    ledgers = {sid: PortLedger.from_export(doc) for sid, doc in ledger_docs.items()}
    written = []

    waiters = sorted(
        ((t.truck_id, t.total_wait) for t in metrics.trips if t.total_wait > 0),
        key=lambda row: (-row[1], row[0]),
    )
    path = run / "waiting_by_truck.csv"
    _write_csv(
        path,
        ["truck", "total_wait"],
        [[truck, _fmt(wait)] for truck, wait in waiters],
    )
    written.append(path)

    written.append(_write_station_totals(run / "station_totals.csv", metrics.station_totals))

    path = run / "residual_battery.csv"
    _write_csv(
        path,
        ["truck", "residual_battery", "threshold"],
        [
            [t.truck_id, _fmt(t.residual_battery), _fmt(t.reserve_battery)]
            for t in metrics.trips
            if not t.stranded
        ],
    )
    written.append(path)

    schedule = sorted(
        ((sid, a) for sid, ledger in ledgers.items() for a in ledger.assignments),
        key=lambda row: (row[0], row[1].port, row[1].start),
    )
    path = run / "port_schedule.csv"
    _write_csv(
        path,
        ["station", "port", "truck", "start", "end"],
        [
            [sid, str(a.port), a.truck, _fmt(a.start), _fmt(a.start + a.duration)]
            for sid, a in schedule
        ],
    )
    written.append(path)
    return written
