"""Smoke test of the benchmark itself; timings never gate it.

    python3 -m pytest -q perfbench/test_smoke.py

It runs tiny passes in process, checks that every metric BENCHMARK.json
names is emitted, pins the golden scenario's exact counts, and checks
that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = run.Workload(
    "tiny",
    dict(label="tiny", truck_count=6, station_count=3, stations_per_route_range=[1, 2]),
    2,
    {"setup": 0.1, "cli": 0.2},
)

# Exact counts of one traced pipeline on the golden scenario; the
# simulated statistics must equal the committed golden metrics.
GOLDEN_COUNTS = {
    "planner.calls": 37,
    "planner.patterns": 184,
    "planner.lp_solves": 144,
    "lp.calls": 144,
    "lp.not_optimal": 0,
    "station.quotes": 36,
    "station.commits": 36,
    "station.stale_quote_errors": 0,
    "protocol.exchanges": 27,
    "protocol.rescues": 0,
    "protocol.wire_bytes": 6611,
}
for _strategy in ("offline", "proposed"):
    _totals = json.loads((run.GOLDENS / "run" / _strategy / "metrics.json").read_text())["totals"]
    GOLDEN_COUNTS[f"simulation.wait_min.{_strategy}"] = _totals["total_waiting_minutes"]
    GOLDEN_COUNTS[f"simulation.late.{_strategy}"] = _totals["deadline_violations"]
    GOLDEN_COUNTS[f"simulation.stranded.{_strategy}"] = _totals["stranded"]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "MIN_COUNTS", {"setup": 1, "cli": 1, "passes": 2})
    monkeypatch.setattr(run, "PLANNER_SIZES", ((4, 1), (8, 1), (12, 1)))


def test_untraced_run_emits_every_end_to_end_metric(small):
    bench = run.Bench(TINY, seed=1, seconds=0, trace=False)
    metrics = bench.measure()
    assert bench.tally.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_traced_golden_run_reconciles_and_pins_counts(small):
    bench = run.Bench(run.WORKLOADS["golden_cli"], seed=1, seconds=0, trace=True)
    metrics = bench.measure_traced()
    assert bench.tally.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: metrics[k][0] for k in GOLDEN_COUNTS} == GOLDEN_COUNTS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
