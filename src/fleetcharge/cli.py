"""Command line interface.

Subcommands: ``generate`` (sample a scenario from a template), ``run``
(simulate one or both strategies and write a run directory), ``compare``
(diff two finished runs), ``report`` (regenerate CSV reports from a run
directory) and ``plan`` (solve a single planning problem from JSON).

Exit codes: 0 success, 1 usage or configuration error, 2 input validation
failure, 3 internal invariant violation detected after a run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, get_type_hints

# model serves every command; each handler imports the other layers it
# uses, so `report` and `compare` load neither planner nor engine, and
# `plan` and `generate` do not load reports
from .model import (
    Scenario,
    ScenarioFormatError,
    StationSpec,
    TruckParams,
    TruckSpec,
    dump_scenario,
    replace,
    scenario_from_json,
    validate_scenario,
)

if TYPE_CHECKING:
    from .reports import ComparisonReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

# `run --set` key -> (record, field): the key sets that field on every
# truck's params, on every truck or on every station
_RUN_KEYS = {
    "p_max": (TruckParams, "p_max"),
    "p_bar": (TruckParams, "p_bar"),
    "e_full": (TruckParams, "e_full"),
    "e_safe": (TruckParams, "e_safe"),
    "kappa": (TruckParams, "kappa"),
    "rho": (TruckParams, "rho"),
    "w_hat": (TruckSpec, "w_hat_default"),
    "budget": (TruckSpec, "extra_time_budget"),
    "price_energy": (StationSpec, "electricity_price_energy"),
    "port_power": (StationSpec, "port_power"),
    "port_count": (StationSpec, "port_count"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this tool reserves 2
    for input validation, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


class _InputError(Exception):
    """An input file that cannot be read; ``code`` is the exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _read_text(path: str | None, what: str) -> str:
    """The UTF-8 text of an input file, or of stdin when ``path`` is None."""
    try:
        if path is None:
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(EXIT_USAGE, f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise _InputError(EXIT_VALIDATION, f"{what} is not UTF-8 text: {exc}")


def _read_json(path: str | None, what: str) -> Any:
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise _InputError(EXIT_VALIDATION, f"{what} is not valid JSON: {exc}")


def _parse_run_overrides(items: list[str]) -> dict[str, float]:
    """``--set`` items as ``{key: value}``, each value of its target
    field's type."""
    overrides: dict[str, float] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not of the form key=value")
        if key not in _RUN_KEYS:
            raise ValueError(
                f"unknown override key {key!r}; known keys: "
                + ", ".join(sorted(_RUN_KEYS))
            )
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"override {key!r} needs a numeric value, got {value!r}")
        record, field = _RUN_KEYS[key]
        if get_type_hints(record)[field] is int:
            if not number.is_integer():
                raise ValueError(f"override {key!r} needs an integer value, got {value!r}")
            number = int(number)
        overrides[key] = number
    return overrides


def _parse_template_sets(items: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not of the form key=value")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _apply_overrides(scenario: Scenario, ov: dict[str, float]) -> Scenario:
    changes: dict[type, dict[str, float]] = {TruckParams: {}, TruckSpec: {}, StationSpec: {}}
    for key, value in ov.items():
        record, field = _RUN_KEYS[key]
        changes[record][field] = value
    trucks = tuple(
        replace(t, params=replace(t.params, **changes[TruckParams]), **changes[TruckSpec])
        for t in scenario.trucks
    )
    stations = tuple(replace(s, **changes[StationSpec]) for s in scenario.stations)
    return replace(scenario, stations=stations, trucks=trucks)


def cmd_generate(args: argparse.Namespace) -> int:
    from .generator import ScenarioTemplate, generate_scenario

    doc: dict[str, Any] = {}
    if args.template:
        doc = _read_json(args.template, "template")
        if not isinstance(doc, dict):
            return _fail(EXIT_VALIDATION, "template must be a JSON object")
    try:
        doc.update(_parse_template_sets(args.set))
        template = ScenarioTemplate.from_dict(doc)
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"bad template: {exc}")
    try:
        scenario = generate_scenario(template, args.seed)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"generation failed: {exc}")
    problems = validate_scenario(scenario)
    if problems:
        return _fail(EXIT_USAGE, "\n".join(f"bad template: {p}" for p in problems))
    try:
        dump_scenario(scenario, args.out)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {args.out}: {exc}")
    print(
        f"wrote {args.out}: {len(scenario.trucks)} trucks, "
        f"{len(scenario.stations)} stations, seed {args.seed}"
    )
    return EXIT_OK


def _print_wait_reduction(report: ComparisonReport, path: Path) -> None:
    print(
        f"wait reduction {report.wait_reduction_pct:.2f}% "
        f"({report.wait_baseline:.2f} -> {report.wait_proposed:.2f} min) -> {path}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .reports import compare, write_comparison_csv, write_run_outputs
    from .simulation import RunOverflowError, audit_run, run_offline_baseline, run_proposed

    try:
        overrides = _parse_run_overrides(args.set)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        scenario = scenario_from_json(_read_text(args.scenario, "scenario"))
    except ScenarioFormatError as exc:
        return _fail(EXIT_VALIDATION, f"bad scenario: {exc}")
    scenario = _apply_overrides(scenario, overrides)
    problems = validate_scenario(scenario)
    if problems:
        return _fail(EXIT_VALIDATION, "\n".join(f"scenario invalid: {p}" for p in problems))

    strict = not args.relax_detour_margin
    runners = {"offline": run_offline_baseline, "proposed": run_proposed}
    strategies = ("offline", "proposed") if args.strategy == "both" else (args.strategy,)
    out = Path(args.out)
    results = {}
    for strategy in strategies:
        try:
            # the runners find the scenario validated above and do not check it again
            result = runners[strategy](scenario, require_detour_margin_everywhere=strict)
        except RunOverflowError as exc:
            return _fail(EXIT_VALIDATION, f"scenario invalid: {exc}")
        violations = audit_run(scenario, result)
        if violations:
            for v in violations:
                print(f"audit failure ({strategy}): {v}", file=sys.stderr)
            return EXIT_INTERNAL
        try:
            write_run_outputs(result, out / strategy)
        except OSError as exc:
            return _fail(EXIT_USAGE, f"cannot write {out / strategy}: {exc}")
        results[strategy] = result
        m = result.metrics
        print(
            f"{strategy}: {m.totals.trucks} trucks, total wait "
            f"{m.totals.total_waiting_minutes:.2f} min, {m.totals.deadline_violations} "
            f"late, {m.totals.stranded} stranded -> {out / strategy}"
        )
    if args.strategy == "both":
        try:
            report = compare(results["offline"].metrics, results["proposed"].metrics)
        except ValueError as exc:
            return _fail(EXIT_VALIDATION, str(exc))
        path = out / "compare.csv"
        try:
            write_comparison_csv(report, path)
        except OSError as exc:
            return _fail(EXIT_USAGE, f"cannot write {path}: {exc}")
        _print_wait_reduction(report, path)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .reports import _read_run_file, compare, metrics_from_dict, write_comparison_csv

    metrics = []
    for run_dir in (args.baseline, args.proposed):
        path = Path(run_dir) / "metrics.json"
        try:
            metrics.append(_read_run_file(path, "metrics", metrics_from_dict))
        except OSError as exc:
            return _fail(EXIT_USAGE, f"cannot read {path}: {exc}")
        except ValueError as exc:  # names the file
            return _fail(EXIT_VALIDATION, str(exc))
    try:
        report = compare(metrics[0], metrics[1])
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:
        path = write_comparison_csv(report, args.out)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {args.out}: {exc}")
    _print_wait_reduction(report, path)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from .reports import write_report_csvs

    run = Path(args.run_dir)
    if not (run / "metrics.json").is_file() or not (run / "ledgers.json").is_file():
        return _fail(
            EXIT_USAGE, f"{run} is not a run directory (missing metrics or ledgers)"
        )
    try:
        written = write_report_csvs(run)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot use run directory: {exc}")
    except ValueError as exc:  # names the file it could not read
        return _fail(EXIT_VALIDATION, str(exc))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    from .planner import planner_input_from_dict, solution_to_dict, solve_charging_problem

    doc = _read_json(args.input, "input")
    try:
        inp = planner_input_from_dict(doc)
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, f"bad planning input: {exc}")
    solution = solve_charging_problem(inp)
    if solution.plan is not None and not math.isfinite(solution.plan.anticipated_cost):
        return _fail(
            EXIT_VALIDATION,
            f"bad planning input: the plan's anticipated_cost "
            f"{solution.plan.anticipated_cost} is not finite",
        )
    out_text = json.dumps(solution_to_dict(solution), indent=2, allow_nan=False) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(out_text)
        except OSError as exc:
            return _fail(EXIT_USAGE, f"cannot write {args.out}: {exc}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(out_text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fleetcharge",
        description="Fleet charging coordination simulator.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    p = sub.add_parser("generate", help="sample a scenario from a template")
    p.add_argument("--template", help="template JSON file (defaults apply if omitted)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default="scenario.json", help="output scenario path")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a template field (JSON values, repeatable)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="simulate a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument(
        "--strategy",
        choices=("proposed", "offline", "both"),
        default="both",
        help="which strategy to simulate (default both)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario-wide parameter (repeatable): "
        + ", ".join(sorted(_RUN_KEYS)),
    )
    p.add_argument(
        "--relax-detour-margin",
        action="store_true",
        help="require the reserve-plus-detour bound only at ramps where the "
        "truck actually stops, instead of at every ramp",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare two finished runs")
    p.add_argument("baseline", help="run directory of the baseline")
    p.add_argument("proposed", help="run directory of the proposed strategy")
    p.add_argument("--out", default="compare.csv", help="output CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="regenerate report CSVs for a run")
    p.add_argument("run_dir", help="run directory with metrics.json and ledgers.json")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("plan", help="solve one planning problem from JSON")
    p.add_argument("--input", help="input JSON path (stdin if omitted)")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail(exc.code, str(exc))


if __name__ == "__main__":
    sys.exit(main())
