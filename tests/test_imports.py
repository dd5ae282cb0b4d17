"""Each entry point loads only the layers it uses, and the package
namespace resolves every public name on first use."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fleetcharge
from fleetcharge import planner, reports, simulation

GOLDENS = Path(__file__).parent / "goldens"
FIXTURES = Path(__file__).parent / "fixtures"
# the layers that plan, negotiate, generate or simulate
ENGINE = {"generator", "planner", "protocol", "simulation"}
LAYERS = sorted(p.stem for p in Path(fleetcharge.__file__).parent.glob("[!_]*.py"))


def _fresh(code: str, cwd: Path) -> set[str]:
    """Run ``code`` in a fresh interpreter; the fleetcharge submodules it
    left loaded."""
    probe = (
        "\nimport sys\n"
        "names = [m.partition('.')[2] for m in sys.modules if m.startswith('fleetcharge.')]\n"
        "print('loaded:', *sorted(names))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + probe],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("loaded:")]
    return set(line.split()[1:])


def _cli(args: list[str]) -> str:
    return f"from fleetcharge.cli import main\nassert main({args!r}) == 0"


# each command's arguments; `report` and `compare` read the golden run,
# which `_command` copies to ./run
COMMANDS = {
    "generate": ["generate", "--template", str(GOLDENS / "template.json"), "--out", "scenario.json"],
    "run": ["run", "--scenario", str(GOLDENS / "scenario.json"), "--out", "run"],
    "plan": ["plan", "--input", str(FIXTURES / "plan_input.json"), "--out", "plan.json"],
    "report": ["report", "run/proposed"],
    "compare": ["compare", "run/offline", "run/proposed", "--out", "compare.csv"],
}


def _command(command: str, cwd: Path) -> str:
    """The code that runs ``command`` in ``cwd``."""
    if command in ("report", "compare"):
        shutil.copytree(GOLDENS / "run", cwd / "run")
    return _cli(COMMANDS[command])


def test_a_bare_import_loads_no_layer(tmp_path):
    code = "import fleetcharge\nassert set(fleetcharge.__all__) <= set(dir(fleetcharge))"
    assert _fresh(code, tmp_path) == set()


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_is_an_attribute_after_a_bare_import(tmp_path, layer):
    code = (
        "import sys, fleetcharge\n"
        f"assert fleetcharge.{layer} is sys.modules['fleetcharge.{layer}']"
    )
    assert layer in _fresh(code, tmp_path)


@pytest.mark.parametrize("command", ["report", "compare"])
def test_report_and_compare_load_no_engine_layer(tmp_path, command):
    loaded = _fresh(_command(command, tmp_path), tmp_path)
    assert "reports" in loaded
    assert loaded & ENGINE == set()


def test_run_loads_no_generator(tmp_path):
    loaded = _fresh(_command("run", tmp_path), tmp_path)
    assert "simulation" in loaded
    assert "generator" not in loaded


@pytest.mark.parametrize(
    "command, layers",
    [
        ("plan", {"cli", "model", "planner"}),
        ("generate", {"cli", "model", "generator"}),
    ],
)
def test_plan_and_generate_load_only_their_layers(tmp_path, command, layers):
    assert _fresh(_command(command, tmp_path), tmp_path) == layers


# the benchmark's set-up: generate a scenario, dump it and load it back
def test_generating_a_scenario_loads_only_the_model_and_the_generator(tmp_path):
    code = (
        "import json, pathlib, fleetcharge\n"
        f"doc = json.loads(pathlib.Path({str(GOLDENS / 'template.json')!r}).read_text())\n"
        "template = fleetcharge.ScenarioTemplate.from_dict(doc)\n"
        "scenario = fleetcharge.generate_scenario(template, 7)\n"
        "fleetcharge.dump_scenario(scenario, 'scenario.json')\n"
        "assert fleetcharge.load_scenario('scenario.json') == scenario"
    )
    assert _fresh(code, tmp_path) == {"model", "generator"}


# a layer loaded through the package namespace is imported by the import
# statement's own path, so `-X importtime` lists it
def test_importtime_lists_a_layer_loaded_through_the_namespace(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fleetcharge; fleetcharge.generate_scenario"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    listed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"fleetcharge.model", "fleetcharge.generator"} <= listed


# records are built without the dataclasses module, which imports inspect
@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, command):
    check = "\nimport sys\nloaded = {'dataclasses', 'inspect'} & set(sys.modules)\nassert not loaded, loaded"
    _fresh(_command(command, tmp_path) + check, tmp_path)


def test_every_public_name_is_its_home_modules_object():
    for name in fleetcharge.__all__:
        value = getattr(fleetcharge, name)
        assert value.__module__.startswith("fleetcharge."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace: dict = {}
    exec("from fleetcharge import *", namespace)
    assert {name: namespace[name] for name in fleetcharge.__all__} == {
        name: getattr(fleetcharge, name) for name in fleetcharge.__all__
    }


def test_the_engine_re_exports_the_run_records():
    moved = set(simulation.__all__) & set(reports.__all__)
    assert "compare" in moved and "metrics_from_dict" in moved and "RunMetrics" in moved
    for name in moved:
        assert getattr(simulation, name) is getattr(reports, name), name


def test_an_unknown_attribute_is_an_error_that_names_it():
    with pytest.raises(AttributeError, match="'no_such_layer'"):
        fleetcharge.no_such_layer


# the plan checkers that tests use live in tests/reference_planner.py
CHECKERS = ("check_feasibility", "compute_energy_trajectory", "evaluate_plan_cost", "has_feasible_pattern")


@pytest.mark.parametrize("name", CHECKERS)
def test_the_package_ships_no_plan_checker(name):
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(fleetcharge, name)


def test_the_planner_exports_no_plan_checker_and_a_tail_states_no_input():
    assert set(CHECKERS) & set(planner.__all__) == set()
    assert not hasattr(planner._RouteTail, "planner_input")
