"""Command-line interface: happy paths, file layout, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge import cli, model
from fleetcharge.cli import main
from fleetcharge.generator import ScenarioTemplate
from fleetcharge.model import (
    MAX_ENUMERATED_STATIONS,
    MAX_PORT_COUNT,
    encode_record,
    replace,
    scenario_to_json,
)
from fleetcharge.reports import metrics_from_dict, run_totals

from conftest import make_params, make_scenario, make_station, make_truck

ROOT = Path(__file__).resolve().parent.parent
# the README's `plan` example, which CI also runs on a bare install
PLAN_INPUT = ROOT / "tests" / "fixtures" / "plan_input.json"
# its solution as `plan --out` writes it, which CI also diffs against
PLAN_OUTPUT = ROOT / "tests" / "fixtures" / "plan_output.json"
GOLDEN_SCENARIO = ROOT / "tests" / "goldens" / "scenario.json"
GOLDEN_TEMPLATE = ROOT / "tests" / "goldens" / "template.json"
GOLDEN_RUN = ROOT / "tests" / "goldens" / "run"

RUN_FILES = (
    "metrics.json",
    "trips.csv",
    "stations.csv",
    "transcript.jsonl",
    "ledgers.json",
)


@pytest.fixture
def scenario_file(tmp_path):
    tpl = tmp_path / "template.json"
    tpl.write_text(
        json.dumps(
            {
                "label": "cli-test",
                "truck_count": 6,
                "station_count": 2,
                "port_count_range": [1, 1],
                "stations_per_route_range": [1, 2],
                "segment_time_range": [20.0, 40.0],
                "depart_window": [480.0, 510.0],
                "e_initial_range": [220.0, 320.0],
            }
        )
    )
    out = tmp_path / "scenario.json"
    assert main(["generate", "--template", str(tpl), "--seed", "0", "--out", str(out)]) == 0
    return out


def test_generate_then_run_both(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run"
    code = main(
        ["run", "--scenario", str(scenario_file), "--strategy", "both", "--out", str(run_dir)]
    )
    assert code == 0
    for strategy in ("offline", "proposed"):
        for name in RUN_FILES:
            assert (run_dir / strategy / name).is_file()
    assert (run_dir / "compare.csv").is_file()
    out = capsys.readouterr().out
    assert "wait reduction" in out
    # the baseline writes an empty transcript, the live protocol a full one
    assert (run_dir / "offline" / "transcript.jsonl").read_text() == ""
    assert (run_dir / "proposed" / "transcript.jsonl").read_text() != ""


def test_both_matches_separate_single_strategy_runs(tmp_path, scenario_file):
    both = tmp_path / "both"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(both)]) == 0
    for strategy in ("offline", "proposed"):
        single = tmp_path / f"only-{strategy}"
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    str(scenario_file),
                    "--strategy",
                    strategy,
                    "--out",
                    str(single),
                ]
            )
            == 0
        )
        for name in RUN_FILES:
            a = (both / strategy / name).read_bytes()
            b = (single / strategy / name).read_bytes()
            assert a == b, f"{strategy}/{name} differs between both and single runs"


def test_run_both_validates_the_scenario_once(tmp_path, scenario_file, monkeypatch):
    checked = []
    check_params = model._check_params

    def counted(prefix, params, out):
        checked.append(prefix)
        return check_params(prefix, params, out)

    # a check pass tests each truck's parameters once: the CLI's own check
    # makes one, and both public runners find the scenario already checked
    monkeypatch.setattr(model, "_check_params", counted)
    argv = ["run", "--scenario", str(scenario_file), "--strategy", "both", "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    trucks = model.load_scenario(str(scenario_file)).trucks
    assert checked == [f"truck {t.id}" for t in trucks]


def test_single_strategy_run_writes_no_comparison(tmp_path, scenario_file):
    run_dir = tmp_path / "run"
    code = main(
        ["run", "--scenario", str(scenario_file), "--strategy", "proposed", "--out", str(run_dir)]
    )
    assert code == 0
    assert not (run_dir / "compare.csv").exists()
    assert not (run_dir / "offline").exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run", "--out", str(tmp_path)]) == 1  # missing --scenario
    assert (
        main(["run", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r")])
        == 1
    )
    assert main(["generate", "--template", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_bad_override_syntax_exits_one(tmp_path, scenario_file):
    args = ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "r")]
    assert main(args + ["--set", "nonsense"]) == 1
    assert main(args + ["--set", "e_safe=abc"]) == 1
    assert main(args + ["--set", "mystery_knob=3"]) == 1


def test_invalid_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r")]) == 2

    # well-formed JSON that fails validation: a route through a missing station
    truck = make_truck(station_ids=("ghost",), e_initial=230.0)
    sc = make_scenario(trucks=(truck,), label="broken")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(scenario_to_json(sc))
    assert main(["run", "--scenario", str(invalid), "--out", str(tmp_path / "r2")]) == 2
    assert "scenario invalid" in capsys.readouterr().err


def test_route_beyond_planner_limit_exits_two(tmp_path, capsys):
    n = MAX_ENUMERATED_STATIONS + 1
    truck = make_truck(
        station_ids=("s01",) * n,
        segment_times=(30.0,) * (n + 1),
        detour_times=(5.0,) * n,
    )
    path = tmp_path / "long.json"
    path.write_text(scenario_to_json(make_scenario(trucks=(truck,), label="long")))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
    assert f"{n} ramps exceeds" in capsys.readouterr().err


def _run_golden(tmp_dir, route_edits=(), sets=(), strategy="both", value=1e308) -> int:
    """``run`` of the golden scenario with each ``(truck, field, index)``
    of ``route_edits`` set to ``value`` and ``--set`` given each of
    ``sets``."""
    doc = json.loads(GOLDEN_SCENARIO.read_text())
    for truck, field, i in route_edits:
        doc["trucks"][truck]["route"][field][i] = value
    path = Path(tmp_dir) / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["run", "--scenario", str(path), "--strategy", strategy, "--out", str(Path(tmp_dir) / "r")]
    return main(argv + [arg for item in sets for arg in ("--set", item)])


# every input is finite, but a total over the route is not: the energy
# drained, the deadline, or a full charge at a near-zero power
@pytest.mark.parametrize(
    "route_edits, sets, strategy, message",
    [
        *(
            pytest.param(
                [(0, "segment_times", 0)], [], strategy, "the energy drained over the route is not a finite number",
                id=f"drain-{strategy}",
            )
            for strategy in ("offline", "proposed")
        ),
        *(
            pytest.param(
                [(0, "segment_times", 1), (0, "segment_times", 2)], [], strategy, "deadline is not a finite number",
                id=f"deadline-{strategy}",
            )
            for strategy in ("offline", "proposed")
        ),
        *(
            pytest.param(
                [], [f"{key}=1e-320"], "proposed", "a full charge at station s01 does not take a finite time",
                id=f"{key}-subnormal",
            )
            for key in ("p_max", "port_power")
        ),
    ],
)
def test_run_rejects_route_totals_that_are_not_finite(tmp_path, capsys, route_edits, sets, strategy, message):
    assert _run_golden(tmp_path, route_edits, sets, strategy) == 2
    assert f"scenario invalid: truck t001: {message}\n" in capsys.readouterr().err


def _departing_at_the_end_of_time(tmp_path: Path) -> list[str]:
    doc = json.loads(GOLDEN_SCENARIO.read_text())
    for truck in doc["trucks"]:
        truck["depart_time"] = 1.5e308
        truck["params"]["p_bar"] = 1e-308
        detours = truck["route"]["detour_times"]
        truck["route"]["detour_times"] = [7e307] + [0.0] * (len(detours) - 1)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return ["--scenario", str(path)]


def _forty_slow_chargers(tmp_path: Path) -> list[str]:
    path = tmp_path / "scenario.json"
    argv = ["generate", "--template", str(GOLDEN_TEMPLATE), "--seed", "3", "--set", "truck_count=40"]
    assert main(argv + ["--out", str(path)]) == 0
    return ["--scenario", str(path), "--set", "p_max=1e-302"]


# every input and every truck's own totals are finite, but a run's times
# overflow: an announced arrival time, or the offline total wait that
# metrics.json would hold
@pytest.mark.parametrize(
    "case, overflows",
    [
        (_departing_at_the_end_of_time, "arrival time of truck t001 at ramp 1"),
        (_forty_slow_chargers, "total_waiting_minutes"),
    ],
    ids=["arrival-time", "total-wait"],
)
def test_run_refuses_times_that_overflow(tmp_path, capsys, case, overflows):
    argv = ["run", *case(tmp_path), "--out", str(tmp_path / "r")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"scenario invalid: the offline run's {overflows} is not a finite number\n"
    assert not (tmp_path / "r").exists()


# total waits of about 1.5e308 and 6.6e307 min (p_max=1e-303) or 7.7e306
# and 3.3e306 min: their difference times 100 overflows, their ratio not
@pytest.mark.parametrize("p_max", ["1e-303", "2e-302"])
def test_run_compares_total_waits_near_the_float_maximum(tmp_path, capsys, p_max):
    out = tmp_path / "r"
    assert main(["run", "--scenario", str(GOLDEN_SCENARIO), "--set", f"p_max={p_max}", "--out", str(out)]) == 0
    assert "wait reduction 57.48% (" in capsys.readouterr().out
    assert (out / "compare.csv").read_text().splitlines()[-1].endswith(",57.48")


def _extreme_set(key: str):
    values = (0, 1, MAX_PORT_COUNT, MAX_PORT_COUNT + 1) if key == "port_count" else (1e-320, 1e308, 0.0)
    return st.sampled_from(values).map(lambda value: f"{key}={value!r}")


_ROUTE_SLOTS = [
    (i, field, j)
    for i, truck in enumerate(json.loads(GOLDEN_SCENARIO.read_text())["trucks"])
    for field in ("segment_times", "detour_times")
    for j in range(len(truck["route"][field]))
]


# whatever extreme value a parameter or a route time takes, `run` ends in
# a result or a validation error, never a traceback
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sets=st.lists(st.sampled_from(sorted(cli._RUN_KEYS)), max_size=3, unique=True).flatmap(
        lambda keys: st.tuples(*map(_extreme_set, keys))
    ),
    route_edits=st.lists(st.sampled_from(_ROUTE_SLOTS), max_size=1),
)
def test_run_of_extreme_values_exits_zero_or_two(sets, route_edits):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_golden(tmp, route_edits, sets) in (0, 2)


# t001 charges for 3.66e299 minutes to drive a 1e300-minute segment on a
# 1.7e308 kWh pack; its battery replay is off by far more than 1e-6 kWh, but
# by less than 1e-12 of the energy its trip handles, which the audit allows
def test_audit_tolerance_scales_with_the_energy_a_trip_handles(tmp_path, capsys):
    assert _run_golden(tmp_path, [(0, "segment_times", 1)], ["e_full=1.7e308"], value=1e300) == 0
    assert "audit failure" not in capsys.readouterr().err


def test_stranded_fleet_still_exits_zero(tmp_path):
    truck = make_truck(
        station_ids=("s01", "s02"),
        segment_times=(5.0, 60.0, 60.0),
        detour_times=(1.0, 1.0),
        e_initial=190.0,
        params=make_params(e_full=200.0),
    )
    sc = make_scenario(
        stations=(make_station("s01"), make_station("s02")),
        trucks=(truck,),
        label="doomed",
    )
    path = tmp_path / "doomed.json"
    path.write_text(scenario_to_json(sc))
    run_dir = tmp_path / "run"
    assert main(["run", "--scenario", str(path), "--out", str(run_dir)]) == 0
    doc = json.loads((run_dir / "proposed" / "metrics.json").read_text())
    assert doc["totals"]["stranded"] == 1


def test_run_overrides_apply(tmp_path, scenario_file):
    run_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--scenario",
            str(scenario_file),
            "--strategy",
            "proposed",
            "--out",
            str(run_dir),
            "--set",
            "port_count=2",
        ]
    )
    assert code == 0
    ledgers = json.loads((run_dir / "proposed" / "ledgers.json").read_text())
    assert ledgers
    for doc in ledgers.values():
        assert doc["port_count"] == 2


# each `run --set` key: a value and the field it sets on every truck's
# params, every truck or every station
RUN_OVERRIDES = {
    "p_max": (350.0, "params", "p_max"),
    "p_bar": (1.5, "params", "p_bar"),
    "e_full": (500.0, "params", "e_full"),
    "e_safe": (125.0, "params", "e_safe"),
    "kappa": (0.25, "params", "kappa"),
    "rho": (2.5, "params", "rho"),
    "w_hat": (20.0, "truck", "w_hat_default"),
    "budget": (90.0, "truck", "extra_time_budget"),
    "price_energy": (0.5, "station", "electricity_price_energy"),
    "port_power": (150.0, "station", "port_power"),
    "port_count": (2, "station", "port_count"),
}


@pytest.mark.parametrize("key", sorted(cli._RUN_KEYS))
def test_run_override_sets_its_field_everywhere(key):
    value, record, field = RUN_OVERRIDES[key]
    sc = make_scenario(
        stations=(make_station("s01"), make_station("s02", port_count=1, price=0.3)),
        trucks=(
            make_truck("t001"),
            make_truck("t002", budget=120.0, w_hat=5.0, params=make_params(rho=1.0)),
        ),
    )
    overrides = cli._parse_run_overrides([f"{key}={value}"])
    assert overrides == {key: value}
    assert type(overrides[key]) is type(value)

    def edit(obj, kind):
        return replace(obj, **{field: value}) if kind == record else obj

    expected = replace(
        sc,
        stations=tuple(edit(s, "station") for s in sc.stations),
        trucks=tuple(edit(replace(t, params=edit(t.params, "params")), "truck") for t in sc.trucks),
    )
    assert cli._apply_overrides(sc, {key: value}) == expected


def test_generate_template_sets_override_file(tmp_path, scenario_file):
    out = tmp_path / "small.json"
    tpl = tmp_path / "template.json"  # written by the fixture
    code = main(
        [
            "generate",
            "--template",
            str(tpl),
            "--seed",
            "1",
            "--out",
            str(out),
            "--set",
            "truck_count=3",
        ]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["trucks"]) == 3


def test_compare_subcommand(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(run_dir)]) == 0
    out_csv = tmp_path / "cmp.csv"
    code = main(
        ["compare", str(run_dir / "offline"), str(run_dir / "proposed"), "--out", str(out_csv)]
    )
    assert code == 0
    assert out_csv.read_bytes() == (run_dir / "compare.csv").read_bytes()
    assert "wait reduction" in capsys.readouterr().out


def test_compare_rejects_different_scenarios(tmp_path, scenario_file, capsys):
    run_a = tmp_path / "a"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(run_a)]) == 0
    other = tmp_path / "other.json"
    other.write_text(scenario_to_json(make_scenario(label="other", trucks=(make_truck(e_initial=230.0),))))
    run_b = tmp_path / "b"
    assert main(["run", "--scenario", str(other), "--out", str(run_b)]) == 0
    code = main(["compare", str(run_a / "offline"), str(run_b / "proposed")])
    assert code == 2
    capsys.readouterr()


# the golden offline total wait (372.46 min) replaced: near the float
# maximum 100 times the difference overflows but the ratio does not; above
# 0 by 5e-324 the ratio itself overflows, and compare refuses it
@pytest.mark.parametrize(
    "total, code, printed",
    [
        (1.7e308, 0, "wait reduction 100.00% ("),
        (5e-324, 2, "cannot compare runs whose wait reduction (4.94066e-324 -> 94.18 min) is not a finite percentage"),
    ],
)
def test_compare_of_extreme_total_waits(tmp_path, capsys, total, code, printed):
    run = tmp_path / "run"
    shutil.copytree(GOLDEN_RUN, run)
    metrics = run / "offline" / "metrics.json"
    m = metrics_from_dict(json.loads(metrics.read_text()))
    # the first visit waits the whole total and every other one none, and
    # the totals and station rows add the trips up again
    waits = iter([total])
    trips = tuple(
        replace(t, visits=tuple(replace(v, realized_wait=next(waits, 0.0)) for v in t.visits))
        for t in m.per_truck
    )
    totals, per_station = run_totals(trips, [s.station for s in m.per_station], m.totals.rescue_charges)
    assert totals.total_waiting_minutes == total
    m = replace(m, totals=totals, per_truck=trips, per_station=per_station)
    metrics.write_text(json.dumps(encode_record(m)))
    out = tmp_path / "c.csv"
    assert main(["compare", str(run / "offline"), str(run / "proposed"), "--out", str(out)]) == code
    assert printed in "".join(capsys.readouterr())
    assert out.exists() == (code == 0)


def test_report_subcommand(tmp_path, scenario_file, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(run_dir)]) == 0
    assert main(["report", str(run_dir / "proposed")]) == 0
    for name in (
        "waiting_by_truck.csv",
        "station_totals.csv",
        "residual_battery.csv",
        "port_schedule.csv",
    ):
        assert (run_dir / "proposed" / name).is_file()
    assert capsys.readouterr().out.count("wrote") == 4
    assert main(["report", str(tmp_path / "not-a-run")]) == 1


def test_report_omits_trucks_that_never_waited(tmp_path, capsys):
    truck = make_truck(e_initial=230.0)  # alone at a three-port station
    sc = make_scenario(trucks=(truck,), label="solo")
    path = tmp_path / "solo.json"
    path.write_text(scenario_to_json(sc))
    run_dir = tmp_path / "run"
    assert main(["run", "--scenario", str(path), "--strategy", "proposed", "--out", str(run_dir)]) == 0
    assert main(["report", str(run_dir / "proposed")]) == 0
    lines = (run_dir / "proposed" / "waiting_by_truck.csv").read_text().splitlines()
    assert lines == ["truck,total_wait"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, kind, keys, message",
    [
        # a run directory written before metrics.json lost its derived keys
        ("metrics.json", "metrics", ("per_truck", 0, "total_wait"), "per_truck[0]: unexpected field 'total_wait'"),
        ("ledgers.json", "ledgers", ("s01", "port_power"), "s01: unexpected field 'port_power'"),
    ],
)
def test_report_names_the_file_it_could_not_read(
    tmp_path, scenario_file, capsys, name, kind, keys, message
):
    run_dir = tmp_path / "run" / "proposed"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "run")]) == 0
    path = run_dir / name
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = 0.0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"{path} is not a {kind} file: {message}\n"


# a metrics file that lists a truck or a station twice
@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize(
    "key, row, index", [("per_truck", 1, 10), ("per_station", 0, 3)], ids=["truck", "station"]
)
def test_report_and_compare_refuse_a_metrics_file_that_repeats_a_row(
    tmp_path, capsys, command, key, row, index
):
    run = tmp_path / "run"
    shutil.copytree(GOLDEN_RUN, run)
    path = run / "offline" / "metrics.json"
    doc = json.loads(path.read_text())
    doc[key].append(doc[key][row])
    assert len(doc[key]) == index + 1
    path.write_text(json.dumps(doc))
    if command == "report":
        argv = ["report", str(run / "offline")]
    else:
        argv = ["compare", str(run / "offline"), str(run / "proposed"), "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path} is not a metrics file: {key}[{index}]: duplicate "), err
    assert not (tmp_path / "c.csv").exists()


# totals and a station row that the metrics file's own trips contradict:
# compare would print a reduction its per-truck rows deny, and report
# would write a station total no visit adds up to
@pytest.mark.parametrize("command", ["report", "compare"])
def test_report_and_compare_refuse_totals_that_the_trips_contradict(tmp_path, capsys, command):
    run = tmp_path / "run"
    shutil.copytree(GOLDEN_RUN, run)
    path = run / "proposed" / "metrics.json"
    doc = json.loads(path.read_text())
    doc["totals"]["total_waiting_minutes"] = 0
    doc["totals"]["deadline_violations"] = 7
    doc["per_station"][0]["waiting_minutes"] = 999
    path.write_text(json.dumps(doc))
    station_totals = (run / "proposed" / "station_totals.csv").read_bytes()
    if command == "report":
        argv = ["report", str(run / "proposed")]
    else:
        argv = ["compare", str(run / "offline"), str(run / "proposed"), "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path} is not a metrics file: totals: deadline_violations is not the count of per_truck\n"
    assert not (tmp_path / "c.csv").exists()
    assert (run / "proposed" / "station_totals.csv").read_bytes() == station_totals


def _leaves(doc, path=()):
    """The path of every number, string, bool and null in a JSON document."""
    if isinstance(doc, (dict, list)):
        keys = doc if isinstance(doc, dict) else range(len(doc))
        return [leaf for key in keys for leaf in _leaves(doc[key], (*path, key))]
    return [path]


_DAMAGEABLE = [
    (name, path)
    for name in ("metrics.json", "ledgers.json")
    for path in _leaves(json.loads((GOLDEN_RUN / "proposed" / name).read_text()))
]
_DAMAGE = (0, -0.0, 5e-324, 1e308, 1.7e308, -1, -1e308, 10**400, "x", None, [], {}, True)


# whatever 1-2 values of a proposed run's metrics.json or ledgers.json are
# replaced with, `report` and `compare` end in an exit code, never a traceback
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(_DAMAGEABLE), st.sampled_from(_DAMAGE)),
        min_size=1,
        max_size=2,
        unique_by=lambda edit: edit[0],
    )
)
def test_report_and_compare_of_damaged_run_files_exit_with_a_code(edits):
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(GOLDEN_RUN, run)
        for name in ("metrics.json", "ledgers.json"):
            doc = json.loads((run / "proposed" / name).read_text())
            for (target, path), value in edits:
                if target == name:
                    _set_at(doc, path, value)
            (run / "proposed" / name).write_text(json.dumps(doc))
        assert main(["report", str(run / "proposed")]) in (0, 1, 2)
        argv = ["compare", str(run / "offline"), str(run / "proposed"), "--out", str(Path(tmp) / "c.csv")]
        assert main(argv) in (0, 1, 2)


NOT_UTF8 = b'{"label": "\xff"}'
HUGE_PORT_COUNT = scenario_to_json(make_scenario(stations=(make_station(port_count=10**30),))).encode()
HUGE_LEDGER = json.dumps(
    {"s01": {"port_count": 10**30, "available_times": [], "version": 0, "assignments": []}}
).encode()
REPORT = ["report", "{tmp}/run/proposed"]
RUN = ["run", "--scenario", "{tmp}/scenario.json", "--out", "{tmp}/r"]
COMPARE = ["compare", "{tmp}/run/offline", "{tmp}/run/proposed", "--out", "{tmp}/c.csv"]


# (file to overwrite after a good run and a copy of the plan fixture in
# tmp_path, its bytes, argv, exit code): malformed inputs end in an exit
# code, never a traceback. Content given as (key, ..., field, value) edits
# the file's JSON instead, and the error must name the field.
@pytest.mark.parametrize(
    "target, content, argv, code",
    [
        pytest.param("run/proposed/metrics.json", b"{}", REPORT, 2, id="report-empty-object"),
        pytest.param("run/proposed/metrics.json", b"[]", REPORT, 2, id="report-array"),
        pytest.param("run/proposed/ledgers.json", b"[]", REPORT, 2, id="report-ledgers-array"),
        pytest.param("run/proposed/ledgers.json", HUGE_LEDGER, REPORT, 2, id="report-ledger-port-count-huge"),
        pytest.param("run/proposed/metrics.json", NOT_UTF8, REPORT, 2, id="report-not-utf8"),
        pytest.param("run/offline/metrics.json", NOT_UTF8, COMPARE, 2, id="compare-not-utf8"),
        *(
            pytest.param("run/offline/metrics.json", edit, COMPARE, 2, id=f"compare-{label}")
            for edit, label in (
                (("totals", "total_waiting_minutes", "12.5"), "string-total"),
                (("totals", "rescue_charges", True), "bool-count"),
                (("totals", "stranded", 2.9), "fractional-count"),
                (("strategy", None), "null-strategy"),
            )
        ),
        *(
            pytest.param("run/proposed/ledgers.json", ("s01", field, value), REPORT, 2, id=f"report-ledger-{label}")
            for field, value, label in (
                ("version", "3", "string-version"),
                ("available_times", ["0.0"], "string-times"),
                ("port_count", True, "bool-port-count"),
                ("available_times", [], "no-times"),
                ("version", 99, "wrong-version"),
            )
        ),
        pytest.param(
            "run/proposed/ledgers.json", ("s01", "assignments", 0, "port", 5), REPORT, 2,
            id="report-ledger-port-out-of-range",
        ),
        pytest.param("scenario.json", NOT_UTF8, RUN, 2, id="run-not-utf8"),
        pytest.param(
            "template.json", NOT_UTF8, ["generate", "--template", "{tmp}/template.json", "--out", "{tmp}/s.json"], 2,
            id="generate-not-utf8",
        ),
        pytest.param("in.json", NOT_UTF8, ["plan", "--input", "{tmp}/in.json"], 2, id="plan-not-utf8"),
        pytest.param(None, None, RUN + ["--set", "port_count=nan"], 1, id="run-port-count-nan"),
        pytest.param(None, None, RUN + ["--set", "port_count=inf"], 1, id="run-port-count-inf"),
        pytest.param(None, None, RUN + ["--set", "port_count=1e300"], 2, id="run-port-count-huge"),
        pytest.param("scenario.json", HUGE_PORT_COUNT, RUN, 2, id="run-scenario-port-count-huge"),
        # a key that is no field of its record: a derived value, a misspelt
        # field, or a key that run directories written before metrics.json
        # lost its derived per-truck keys still hold
        pytest.param("scenario.json", ("trucks", 0, "deadline", 600.0), RUN, 2, id="run-scenario-unknown-key"),
        pytest.param("run/proposed/ledgers.json", ("s01", "port_power", 300.0), REPORT, 2, id="report-ledger-unknown-key"),
        pytest.param(
            "run/offline/metrics.json", ("per_truck", 0, "total_wait", 0.0), COMPARE, 2,
            id="compare-metrics-unknown-key",
        ),
        pytest.param(
            "in.json", ("require_detour_margin_everywere", False), ["plan", "--input", "{tmp}/in.json"], 2,
            id="plan-unknown-key",
        ),
        # a value the input's own check refuses and one its type refuses
        *(
            pytest.param("in.json", ("quoted_wait", value), ["plan", "--input", "{tmp}/in.json"], 2, id=f"plan-{label}")
            for value, label in ((-1.0, "negative-wait"), (None, "null-wait"))
        ),
        # a trip that arrived has a residual battery
        pytest.param(
            "run/proposed/metrics.json", ("per_truck", 0, "residual_battery", None), REPORT, 2,
            id="report-trip-contradicts-stranded",
        ),
        pytest.param(
            "run/offline/metrics.json", ("per_truck", 0, "residual_battery", None), COMPARE, 2,
            id="compare-trip-contradicts-stranded",
        ),
    ],
)
def test_malformed_inputs_exit_with_a_code(tmp_path, scenario_file, capsys, target, content, argv, code):
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "run")]) == 0
    shutil.copy(PLAN_INPUT, tmp_path / "in.json")
    field = ""
    if isinstance(content, tuple):
        *keys, field, value = content
        doc = json.loads((tmp_path / target).read_bytes())
        node = doc
        for key in keys:
            node = node[key]
        node[field] = value
        content = json.dumps(doc).encode()
    if target is not None:
        (tmp_path / target).write_bytes(content)
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err != ""
    assert field in captured.err


# type errors are caught decoding the template, range errors by validating
# the generated scenario before it is written
@pytest.mark.parametrize(
    "setting",
    ['e_full="big"', "truck_count=2.5", "e_safe=1e400", "rho=null", "label=5", "kappa=-1", "p_bar=0"],
)
def test_generate_rejects_a_bad_template_with_exit_one(tmp_path, capsys, setting):
    out = tmp_path / "s.json"
    assert main(["generate", "--set", setting, "--out", str(out)]) == 1
    assert not out.exists()
    assert "bad template" in capsys.readouterr().err


# the template is well formed, but an energy it samples is too large to
# snap to the scenario's 0.1 grid
@pytest.mark.parametrize(
    "sets", [["e_safe=1.7e308"], ["e_full=1.7e308", "e_initial_range=[1e308,1.7e308]"]]
)
def test_generate_refuses_an_energy_off_the_grid_with_exit_one(tmp_path, capsys, sets):
    out = tmp_path / "s.json"
    assert main(["generate", "--out", str(out)] + [a for item in sets for a in ("--set", item)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "generation failed: " in err and "too large to snap to the 0.1 grid" in err


PAST_THE_CAP = "allows routes of 17 stations, past the planner's exact-enumeration cap of 16"


# a template whose routes can be longer than the planner enumerates is
# refused before any draw, without a traceback and without writing the
# scenario
def test_generate_of_a_route_past_the_enumeration_cap_exits_one(tmp_path):
    out = tmp_path / "s.json"
    sets = ["--set", "station_count=20", "--set", "stations_per_route_range=[17,17]"]
    proc = subprocess.run(
        [sys.executable, "-m", "fleetcharge.cli", "generate", *sets, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("bad template: ") and PAST_THE_CAP in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# the refusal does not depend on the draws: a single truck's route is often
# short enough, but the template allows one that is not
@pytest.mark.parametrize("seed", range(9))
@pytest.mark.parametrize("truck_count", [20, 1])
def test_a_template_allowing_a_route_past_the_cap_is_refused_on_every_seed(
    tmp_path, capsys, truck_count, seed
):
    out = tmp_path / "s.json"
    sets = ["station_count=20", "stations_per_route_range=[12,17]", f"truck_count={truck_count}"]
    argv = ["generate", "--seed", str(seed), "--out", str(out)]
    assert main(argv + [a for item in sets for a in ("--set", item)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("bad template: ") and PAST_THE_CAP in err


def _plan_payload() -> dict:
    return json.loads(PLAN_INPUT.read_text())


def test_readme_plan_example_is_the_fixture():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("fleetcharge plan --input", 1)[1].split("```json\n", 1)[1]
    assert json.loads(example.split("```", 1)[0]) == _plan_payload()


def test_plan_subcommand(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(_plan_payload()))
    dst = tmp_path / "plan.json"
    assert main(["plan", "--input", str(src), "--out", str(dst)]) == 0
    assert dst.read_bytes() == PLAN_OUTPUT.read_bytes()
    doc = json.loads(dst.read_text())
    assert doc["status"] == "optimal"
    assert doc["decisions"][0]["charge"] is True
    assert doc["decisions"][0]["duration"] > 0
    # without --out the solution goes to stdout
    capsys.readouterr()
    assert main(["plan", "--input", str(src)]) == 0
    assert capsys.readouterr().out == PLAN_OUTPUT.read_text()


def test_plan_refuses_a_cost_that_overflows(tmp_path, capsys):
    # the only pattern is feasible, but its overtime costs rho * 85.82 min
    payload = _plan_payload()
    payload["params"]["rho"] = 1e308
    payload["remaining_time"] = -5
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    assert main(["plan", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "anticipated_cost inf is not finite" in captured.err


def test_a_run_whose_plan_costs_overflow_strands_no_truck(tmp_path):
    # every stop's labor cost overflows to inf; each truck still takes a
    # feasible plan, so none strands and none needs a rescue charge
    argv = ["run", "--scenario", str(GOLDEN_SCENARIO), "--set", "kappa=1e308", "--out", str(tmp_path)]
    assert main(argv) == 0
    for strategy in ("offline", "proposed"):
        totals = json.loads((tmp_path / strategy / "metrics.json").read_text())["totals"]
        assert (totals["stranded"], totals["rescue_charges"]) == (0, 0), strategy


def test_plan_defaults_the_optional_waits(tmp_path):
    # the fixture spells out the defaults: no live quote and no assumed waits
    payload = _plan_payload()
    assert (payload["quoted_wait"], payload["assumed_waits"]) == (0.0, [])
    plans = []
    for doc in (payload, {k: v for k, v in payload.items() if "wait" not in k}):
        src = tmp_path / "input.json"
        src.write_text(json.dumps(doc))
        dst = tmp_path / "plan.json"
        assert main(["plan", "--input", str(src), "--out", str(dst)]) == 0
        plans.append(dst.read_text())
    assert plans[0] == plans[1]
    assert json.loads(plans[1])["status"] == "optimal"


# (argv, the path the error names): {file} is a regular file, so nothing
# can be written under it, and {tmp}/r/compare.csv is a directory
@pytest.mark.parametrize(
    "argv, path",
    [
        (["generate", "--out", "{file}/s.json"], "{file}/s.json"),
        (["run", "--scenario", str(GOLDEN_SCENARIO), "--out", "{file}"], "{file}/offline"),
        (
            ["run", "--scenario", str(GOLDEN_SCENARIO), "--strategy", "proposed", "--out", "{file}/r"],
            "{file}/r/proposed",
        ),
        (["run", "--scenario", str(GOLDEN_SCENARIO), "--out", "{tmp}/r"], "{tmp}/r/compare.csv"),
        (
            ["compare", str(GOLDEN_RUN / "offline"), str(GOLDEN_RUN / "proposed"), "--out", "{file}/c.csv"],
            "{file}/c.csv",
        ),
        (["plan", "--input", str(PLAN_INPUT), "--out", "{file}/p.json"], "{file}/p.json"),
    ],
    ids=["generate", "run", "run-one-strategy", "run-compare-csv", "compare", "plan"],
)
def test_an_output_path_that_cannot_be_written_exits_one(tmp_path, capsys, argv, path):
    (tmp_path / "file").write_text("")
    (tmp_path / "r" / "compare.csv").mkdir(parents=True)
    names = {"file": tmp_path / "file", "tmp": tmp_path}
    assert main([arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {path.format(**names)}: "), err
    assert "Traceback" not in err


def test_plan_rejects_bad_input(tmp_path, capsys):
    missing = _plan_payload()
    del missing["battery"]
    src = tmp_path / "input.json"
    src.write_text(json.dumps(missing))
    assert main(["plan", "--input", str(src)]) == 2
    assert "battery" in capsys.readouterr().err
    src.write_text("[1, 2")
    assert main(["plan", "--input", str(src)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("station", "port_power", 0, "port_power must be positive"),
        ("params", "p_max", 0, "p_max must be positive"),
        ("params", "e_full", "x", "params: e_full must be a finite number"),
        ("params", "p_bar", float("nan"), "params: p_bar must be a finite number"),
        ("params", "kappa", -5, "kappa must be nonnegative"),
        # the charging rate underflows to 0 kWh/min
        *(
            pytest.param(
                section, field, 5e-324, "station s01: a full charge does not take a finite time",
                id=f"{field}-subnormal",
            )
            for section, field in (("station", "port_power"), ("params", "p_max"))
        ),
        *(
            pytest.param(
                "input", field, value, f"planner input: {text}", id=f"input-{field}-{label}"
            )
            for field, value, label, text in (
                ("battery", True, "bool", "battery must be a finite number"),
                ("battery", 10**400, "huge", "battery must be a finite number"),
                ("remaining_time", True, "bool", "remaining_time must be a finite number"),
                ("quoted_wait", None, "null", "quoted_wait must be a finite number"),
                ("quoted_wait", -1.0, "negative", "quoted_wait must be a finite nonnegative number"),
                ("battery", 5000, "above-capacity", "battery 5000 exceeds battery capacity 624.0"),
                ("segment_times", [10**400], "huge", "segment_times[0] must be a finite number"),
                ("detour_times", [False], "bool", "detour_times[0] must be a finite number"),
                ("assumed_waits", {}, "object", "assumed_waits must be a list"),
            )
        ),
        *(
            pytest.param(
                "input", "require_detour_margin_everywhere", flag,
                "planner input: require_detour_margin_everywhere must be true or false",
                id=f"input-require_detour_margin_everywhere-{flag!r}",
            )
            for flag in ("false", "no", 0, 1, None)
        ),
    ],
)
def test_plan_rejects_out_of_range_params_and_stations(
    tmp_path, capsys, section, field, value, message
):
    doc = _plan_payload()
    target = {"input": doc, "station": doc["stations"][0]}.get(section, doc["params"])
    target[field] = value
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    assert main(["plan", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_plan_refuses_a_route_tail_past_the_enumeration_cap(tmp_path, capsys):
    doc = _plan_payload()
    n = MAX_ENUMERATED_STATIONS + 1
    doc.update(
        stations=doc["stations"] * n,
        segment_times=[30.0] * n,
        detour_times=[5.0] * n,
        assumed_waits=[0.0] * (n - 1),
    )
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    assert main(["plan", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"bad planning input: planner input: {n} remaining stations exceeds "
        f"the exact-enumeration cap of {MAX_ENUMERATED_STATIONS}\n"
    )
    assert captured.out == ""


_EXTREMES = (0, -0.0, 5e-324, 1e-320, 1e308, 1.7e308)


def _set_at(doc, path, value) -> None:
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


def _extreme_edits(slots):
    """1-3 distinct slots of ``slots``, each with an extreme value."""
    return st.lists(
        st.tuples(st.sampled_from(slots), st.sampled_from(_EXTREMES)),
        min_size=1,
        max_size=3,
        unique_by=lambda edit: edit[0],
    )


# every number of the README's planning problem
_PLAN_SLOTS = [
    *(("params", name) for name in ("p_max", "p_bar", "e_full", "e_safe", "kappa", "rho")),
    *(("stations", 0, name) for name in ("port_count", "port_power", "electricity_price_energy")),
    ("segment_times", 0),
    ("detour_times", 0),
    ("battery",),
    ("quoted_wait",),
    ("remaining_time",),
]


# whatever extreme values a planning problem holds, `plan` ends in a
# solution or a validation error, never a traceback
@settings(max_examples=100, deadline=None, derandomize=True)
@given(edits=_extreme_edits(_PLAN_SLOTS))
def test_plan_of_extreme_values_exits_zero_or_two(edits):
    doc = _plan_payload()
    for path, value in edits:
        _set_at(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(json.dumps(doc))
        assert main(["plan", "--input", str(src), "--out", str(Path(tmp) / "plan.json")]) in (0, 2)


# every number of a template: each scalar, and each end of each range
_TEMPLATE_SLOTS = [
    path
    for name, default in encode_record(ScenarioTemplate()).items()
    if name != "label"
    for path in ([(name, 0), (name, 1)] if isinstance(default, list) else [(name,)])
]


# whatever extreme values a template holds, `generate` ends in a scenario
# or a refusal, and `run` of the scenario in a result or a validation error
@settings(max_examples=100, deadline=None, derandomize=True)
@given(edits=_extreme_edits(_TEMPLATE_SLOTS))
def test_generate_of_extreme_values_exits_zero_or_one(edits):
    template = ScenarioTemplate.from_dict(json.loads(GOLDEN_TEMPLATE.read_text()))
    doc = encode_record(template)
    for path, value in edits:
        _set_at(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        src, scenario = Path(tmp) / "template.json", Path(tmp) / "scenario.json"
        src.write_text(json.dumps(doc))
        code = main(["generate", "--template", str(src), "--out", str(scenario)])
        assert code in (0, 1)
        if code == 0:
            argv = ["run", "--scenario", str(scenario), "--out", str(Path(tmp) / "r")]
            assert main(argv) in (0, 2)


def test_importing_the_cli_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fleetcharge.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_is_installed():
    exe = shutil.which("fleetcharge")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "plan" in proc.stdout
