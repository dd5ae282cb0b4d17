"""Mutation check of the checkers: break one check at a time in a copy of
the repository, and require the tests that guard it to fail.

Each mutant below is one source edit to a check of `audit_run`,
`PortLedger.audit`, the tests' plan checker `check_feasibility` or
`_check_ramp_values`, to `PlannerInput`'s refusals of its truck
parameters and stations (one joined message) and of a route tail past
the exact-enumeration cap, to the charge-to-full pass `_feasible`, to
the walk's refusal of infeasible stop patterns, which
`solve_charging_problem` skips, to the cost bound the walk gives a
pattern, to the multi-stop fill `solve_lp` (its caps,
its step past the slack and its key tie rule), to `decode_message`'s
refusal of a negative message time (the only check of a message time),
to the event loop's refusal of a run whose times or totals overflow,
to `compare`'s refusal of a wait reduction that is not a finite
percentage, to `metrics_from_dict`'s refusal of totals that its trips
contradict, or to the store of `validate_scenario`, which must hold only
a deeply immutable scenario and answer only for that same object: a
violation message is no longer appended, an error is no longer raised,
a refusal is dropped or weakened, the bound is overstated, the fill buys
other durations, or the store answers for a scenario it should check. A
mutant names the file it edits by its path from the repository root,
under `src/` or, for the plan checker, which only tests use, under
`tests/`. The edit is applied to a temporary copy of `src/` and
`tests/`, and the mutant's tests run there with pytest. A mutant is caught when they fail. A check guarded by
several test files has one mutant per file, so each file must catch it.
The tests first run once on the unchanged copy, where they must pass.

Run it from the repository root, with pytest and the test extras
installed:

    python tests/mutation_check.py

It exits 0 when every mutant is caught, and 1 naming each one that is
not. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the files mutated, relative to the repository root
STATION, SIMULATION, PLANNER, MODEL, PROTOCOL, REPORTS = (
    f"src/fleetcharge/{name}.py" for name in ("station", "simulation", "planner", "model", "protocol", "reports")
)
REFERENCE = "tests/reference_planner.py"

AUDIT_TESTS = ["tests/test_audit_messages.py"]
PLANNER_TESTS = ["tests/test_planner.py", "tests/test_planner_pruning.py"]
PRUNING_TESTS = ["tests/test_planner_pruning.py"]
FILL_TESTS = ["tests/test_lp.py"]
INPUT_TESTS = ["tests/test_cli.py", "tests/test_records.py"]
DECODER_TESTS = [["tests/test_protocol.py"], ["tests/test_codec.py"]]
OVERFLOW_TESTS = [["tests/test_cli.py"], ["tests/test_simulation.py"]]
READER_TESTS = [["tests/test_cli.py"], ["tests/test_simulation.py"]]
MEMO_TESTS = ["tests/test_model.py"]

# (file, the call to neutralize, the text it is the last such call before,
# the tests that must fail)
SILENCED = [
    (STATION, "out.append(", "nonpositive duration", AUDIT_TESTS),
    (STATION, "out.append(", "booked port {a.port}", AUDIT_TESTS),
    (STATION, "out.append(", "policy gives", AUDIT_TESTS),
    (STATION, "out.append(", "is not arrival + wait", AUDIT_TESTS),
    (STATION, "out.append(", "do not match replay", AUDIT_TESTS),
    (STATION, "out.append(", "does not match assignment count", AUDIT_TESTS),
    (SIMULATION, "out.append(", 'f"ledger {station_id}: {msg}"', AUDIT_TESTS),
    (SIMULATION, "out.append(", ': realized wait "', AUDIT_TESTS),
    (SIMULATION, "out.append(", "below reserve-plus-detour bound", AUDIT_TESTS),
    (SIMULATION, "out.append(", 'f"battery_before {visit', AUDIT_TESTS),
    (SIMULATION, "out.append(", "recorded residual", AUDIT_TESTS),
    (SIMULATION, "out.append(", "below reserve {p.e_safe}", AUDIT_TESTS),
    (SIMULATION, "out.append(", "energy balance off", AUDIT_TESTS),
    (SIMULATION, "out.append(", 'ramp arrivals"', AUDIT_TESTS),
    (SIMULATION, "out.append(", "messages\")", AUDIT_TESTS),
    (REFERENCE, "out.append(", ": negative duration", PLANNER_TESTS),
    (REFERENCE, "out.append(", "skipped but duration", PLANNER_TESTS),
    (REFERENCE, "out.append(", "below reserve-plus-detour", PLANNER_TESTS),
    (REFERENCE, "out.append(", "kWh exceeds", PLANNER_TESTS),
    (REFERENCE, "out.append(", "destination: level", PLANNER_TESTS),
    (MODEL, "raise ValueError(", "quoted_wait must be", INPUT_TESTS),
    (MODEL, "raise ValueError(", "battery must be a finite", INPUT_TESTS),
    (MODEL, "raise ValueError(", "battery {battery} exceeds battery capacity", INPUT_TESTS),
    (MODEL, "raise ValueError(", "remaining_time must be", INPUT_TESTS),
    (PLANNER, "raise ValueError(", '"; ".join(problems)', INPUT_TESTS),
    (PLANNER, "raise ValueError(", "remaining stations exceeds", INPUT_TESTS),
    *((PROTOCOL, "raise MessageDecodeError(", "must be finite and nonnegative", t) for t in DECODER_TESTS),
    *((SIMULATION, "raise RunOverflowError(", "at ramp {i + 1} is not", t) for t in OVERFLOW_TESTS),
    (SIMULATION, "raise RunOverflowError(", "at its destination is not", OVERFLOW_TESTS[1]),
    *((SIMULATION, "raise RunOverflowError(", "run's {name} is not", t) for t in OVERFLOW_TESTS),
    (REPORTS, "raise ValueError(", "is not a finite percentage", OVERFLOW_TESTS[0]),
    *((REPORTS, "raise ValueError(", "} of per_truck", t) for t in READER_TESTS),
]

# (file, text, replacement, tests): the walk's refusal of a stop pattern
# whose phase-1 residual exceeds the tolerance, at a ramp and at the
# destination; `solve_charging_problem` skips the patterns it refuses
REFUSAL = "if residual > _FEASIBILITY_TOL:\n{0}return None\n"
REPLACED = [
    (PLANNER, REFUSAL.format(" " * 24), "pass\n", PLANNER_TESTS),
    (PLANNER, REFUSAL.format(" " * 16), "pass\n", PLANNER_TESTS),
    # the walk's cost bound, overstated: the energy bought without the
    # 1e-7 margin, priced at the dearest stop, or bought at the slowest;
    # a bound above a pattern's cost can prune the pattern that wins
    (PLANNER, "energy = last - _FEASIBILITY_TOL\n", "energy = last\n", PRUNING_TESTS),
    (
        PLANNER,
        "if cost_per_kwh[l] < cheapest:\n",
        "if cost_per_kwh[l] > cheapest or cheapest == math.inf:\n",
        PRUNING_TESTS,
    ),
    (PLANNER, "if rates[l] > fastest:\n", "if rates[l] < fastest or fastest == 0.0:\n", PRUNING_TESTS),
    # the fill, which buys past a stop's cap, never prices the overtime
    # of minutes past the slack, or breaks a key tie towards the earlier
    # of two equally fast stops; only the long-route golden reaches a
    # tie, so its test catches the last
    (PLANNER, "target = min(target, caps[i])\n", "target = target\n", FILL_TESTS),
    (PLANNER, "if rho > 0 and ordered_sum(t) > slack:\n", "if False:\n", FILL_TESTS),
    (
        PLANNER,
        "(tied and rates[j] >= rate)",
        "(tied and rates[j] > rate)",
        ["tests/test_goldens.py"],
    ),
    # the charge-to-full pass, which no longer refills at a stop; the
    # generator and the planner both run it
    *(
        (MODEL, "high = max(high - drive, refilled)\n", "high = high - drive\n", [t])
        for t in ("tests/test_generator.py", "tests/test_planner_pruning.py")
    ),
    # the decoder's time check, weakened to let a time down to -1 through
    *((PROTOCOL, "if is_time and doc[name] < 0:\n", "if is_time and doc[name] < -1:\n", t) for t in DECODER_TESTS),
    # the validation store, which keeps a scenario that holds a list, or
    # answers for an equal scenario that is another object
    (MODEL, "if frozen else (None, ())", "if True else (None, ())", MEMO_TESTS),
    (MODEL, "if scenario is last:", "if scenario == last:", MEMO_TESTS),
]


def _silence(source: str, call: str, anchor: str) -> str:
    """``source`` with the last ``call`` before ``anchor`` turned into a
    bare parenthesized expression, which does nothing."""
    assert source.count(anchor) == 1, f"{anchor!r} occurs {source.count(anchor)} times"
    start = source.rindex(call, 0, source.index(anchor))
    return source[:start] + "(" + source[start + len(call) :]


def _mutants():
    for name, call, anchor, tests in SILENCED:
        yield f"{name}: no {call.rstrip('(')} before {anchor!r}", name, (
            lambda source, call=call, anchor=anchor: _silence(source, call, anchor)
        ), tests
    for name, text, replacement, tests in REPLACED:

        def edit(source, text=text, replacement=replacement):
            assert source.count(text) == 1, f"{text!r} occurs {source.count(text)} times"
            return source.replace(text, replacement)

        yield f"{name}: {text.strip()!r} -> {replacement.strip()!r}", name, edit, tests


def _run(copy: Path, *argv: str) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *argv], cwd=copy, env=env, capture_output=True, text=True
    )


def _pytest(copy: Path, tests: list[str]) -> subprocess.CompletedProcess[str]:
    return _run(copy, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests)


def main() -> int:
    mutants = list(_mutants())
    for _, name, edit, _ in mutants:  # every edit applies before any test runs
        edit((ROOT / name).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "pyproject.toml", "README.md"):
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / part, copy / part)
        loaded = _run(copy, "-c", "import fleetcharge; print(fleetcharge.__file__)").stdout
        if not Path(loaded.strip()).is_relative_to(copy):
            print(f"the tests would import {loaded.strip()}, not the copy", file=sys.stderr)
            return 1
        every_test = sorted({t for *_, tests in mutants for t in tests})
        clean = _pytest(copy, every_test)
        if clean.returncode != 0:
            print(clean.stdout[-2000:], "the tests fail on the unchanged package", file=sys.stderr)
            return 1
        survivors = []
        for label, name, edit, tests in mutants:
            path = copy / name
            original = path.read_text()
            path.write_text(edit(original))
            code = _pytest(copy, tests).returncode
            path.write_text(original)
            # 1: some test failed; anything else is an error of the run
            caught = code == 1
            print(f"{'caught' if caught else 'SURVIVED'} (pytest exit {code}): {label} [{' '.join(tests)}]")
            if not caught:
                survivors.append(label)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived", file=sys.stderr)
        return 1
    print(f"all {len(mutants)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
