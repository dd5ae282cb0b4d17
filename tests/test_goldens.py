"""Byte-stability of every committed output file for one seeded run."""

import json
import shutil
from pathlib import Path

import pytest

from fleetcharge.cli import main
from fleetcharge.protocol import decode_message, encode_message

from conftest import counting_solve_lp

GOLDENS = Path(__file__).parent / "goldens"

RUN_FILES = [
    "compare.csv",
    "offline/ledgers.json",
    "offline/metrics.json",
    "offline/stations.csv",
    "offline/transcript.jsonl",
    "offline/trips.csv",
    "proposed/ledgers.json",
    "proposed/metrics.json",
    "proposed/stations.csv",
    "proposed/transcript.jsonl",
    "proposed/trips.csv",
]

REPORT_FILES = [
    "proposed/waiting_by_truck.csv",
    "proposed/station_totals.csv",
    "proposed/residual_battery.csv",
    "proposed/port_schedule.csv",
]


def test_generate_reproduces_golden_scenario(tmp_path):
    out = tmp_path / "scenario.json"
    code = main(
        [
            "generate",
            "--template",
            str(GOLDENS / "template.json"),
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDENS / "scenario.json").read_bytes()


def test_run_and_report_reproduce_golden_outputs(tmp_path):
    run_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--scenario",
            str(GOLDENS / "scenario.json"),
            "--strategy",
            "both",
            "--out",
            str(run_dir),
        ]
    )
    assert code == 0
    assert main(["report", str(run_dir / "proposed")]) == 0
    for rel in RUN_FILES + REPORT_FILES:
        fresh = (run_dir / rel).read_bytes()
        frozen = (GOLDENS / "run" / rel).read_bytes()
        assert fresh == frozen, f"{rel} drifted from the committed golden"


def test_relaxed_margin_run_reproduces_its_golden(tmp_path):
    # relaxed mode bounds the battery only at planned stops. The strict
    # golden's scenario plans the same in both modes; this one, with
    # longer detours, differs from its strict run in 10 of the 11 files
    relaxed = GOLDENS / "relaxed"
    scenario = tmp_path / "scenario.json"
    template = str(GOLDENS / "template.json")
    detours = "detour_time_range=[12.0,30.0]"
    argv = ["generate", "--template", template, "--set", detours, "--seed", "3"]
    assert main([*argv, "--out", str(scenario)]) == 0
    assert scenario.read_bytes() == (relaxed / "scenario.json").read_bytes()
    run_dir = tmp_path / "run"
    argv = ["run", "--scenario", str(scenario), "--strategy", "both", "--relax-detour-margin"]
    assert main([*argv, "--out", str(run_dir)]) == 0
    for rel in RUN_FILES:
        fresh = (run_dir / rel).read_bytes()
        frozen = (relaxed / "run" / rel).read_bytes()
        assert fresh == frozen, f"{rel} drifted from the committed relaxed golden"


def test_long_route_run_reproduces_its_golden(tmp_path):
    # routes of 10-14 stations: the only golden whose strict runs reach
    # solve_lp, 54 times across offline and proposed
    long = GOLDENS / "long"
    scenario = tmp_path / "scenario.json"
    template = str(GOLDENS / "template.json")
    argv = ["generate", "--template", template, "--seed", "7"]
    for setting in (
        "truck_count=6",
        "station_count=16",
        "stations_per_route_range=[10,14]",
        "segment_time_range=[30.0,50.0]",
        "extra_time_budget=480.0",
    ):
        argv += ["--set", setting]
    assert main([*argv, "--out", str(scenario)]) == 0
    assert scenario.read_bytes() == (long / "scenario.json").read_bytes()
    run_dir = tmp_path / "run"
    argv = ["run", "--scenario", str(scenario), "--strategy", "both"]
    calls, patch = counting_solve_lp()
    with patch:
        assert main([*argv, "--out", str(run_dir)]) == 0
    # 18 offline and 36 proposed, through the name the benchmark's tracer binds
    assert len(calls) == 54
    assert main(["report", str(run_dir / "proposed")]) == 0
    for rel in RUN_FILES + REPORT_FILES:
        fresh = (run_dir / rel).read_bytes()
        frozen = (long / "run" / rel).read_bytes()
        assert fresh == frozen, f"{rel} drifted from the committed long-route golden"


# the wire edge, where a message time is checked: each line of a golden
# proposed transcript decodes and encodes back to itself
@pytest.mark.parametrize("run, exchanges", [("run", 27), ("relaxed/run", 27), ("long/run", 70)])
def test_golden_transcripts_pass_the_wire_edge(run, exchanges):
    lines = (GOLDENS / run / "proposed" / "transcript.jsonl").read_text().splitlines()
    assert len(lines) == 4 * exchanges
    assert [encode_message(decode_message(line)) for line in lines] == lines


def test_a_run_written_with_indented_json_still_reads_back(tmp_path):
    # run directories written before the JSON files were compact hold the
    # same values indented by two spaces; report and compare read them
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDENS / "run", run_dir)
    for rel in ["compare.csv", *REPORT_FILES]:
        (run_dir / rel).unlink()
    for strategy in ("offline", "proposed"):
        for name in ("metrics.json", "ledgers.json"):
            path = run_dir / strategy / name
            path.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
    assert main(["report", str(run_dir / "proposed")]) == 0
    compare = ["compare", str(run_dir / "offline"), str(run_dir / "proposed")]
    assert main([*compare, "--out", str(run_dir / "compare.csv")]) == 0
    for rel in ["compare.csv", *REPORT_FILES]:
        fresh = (run_dir / rel).read_bytes()
        assert fresh == (GOLDENS / "run" / rel).read_bytes(), f"{rel} drifted from the committed golden"


def test_golden_run_shows_the_headline_effect():
    # the seeded example preserves the qualitative result: live quotes cut
    # total waiting by well over half while energy delivered stays equal
    base = json.loads((GOLDENS / "run/offline/metrics.json").read_text())
    prop = json.loads((GOLDENS / "run/proposed/metrics.json").read_text())
    b = base["totals"]["total_waiting_minutes"]
    p = prop["totals"]["total_waiting_minutes"]
    assert b > 300.0
    assert p < 0.5 * b
    assert prop["totals"]["stranded"] == 0 and base["totals"]["stranded"] == 0
