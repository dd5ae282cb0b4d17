"""The fleetcharge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The package is imported from
``src/``; nothing needs installing. Scenarios are generated from
``--seed`` (``golden_cli`` always uses the committed golden scenario), so
the program only ever sees the generated input.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes paired untraced and traced passes of the same pipeline
and reports the per-layer metrics, the tracing overhead, and a
reconciliation of the traced counts against the package's own counters.

Every operation is checked: both audits must be clean, repeated passes
must write byte-identical outputs, and every CLI process must exit 0 with
the golden outputs. A breach counts as a failed operation. Readable lines
go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files,
the span dump and a context record are kept under ``.perfbench_work/``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
from tracing import Tracer, summarize  # noqa: E402

# One command line of the `fleetcharge` console script.
CLI_MAIN = "import sys; from fleetcharge.cli import main; sys.exit(main())"

# The outputs `run --strategy both` then `report` write, compared byte
# for byte against tests/goldens/run.
GOLDEN_FILES = [
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
    "proposed/waiting_by_truck.csv",
    "proposed/station_totals.csv",
    "proposed/residual_battery.csv",
    "proposed/port_schedule.csv",
]

# Fewest samples of each timed activity in one untraced run, even when
# that overruns --seconds.
MIN_COUNTS = {"setup": 5, "cli": 3, "passes": 3}
# shortest stretch of back-to-back pipeline passes
PASS_BLOCK_S = 1.0
SUBPROCESS_TIMEOUT_S = 120
ALL_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
MAX_FAILURES = 20
# (remaining stations, repeats) of the single-plan solve timings
PLANNER_SIZES = ((4, 21), (8, 3), (12, 1))
# exchange latency quantiles, taken within each pass
QUANTILES = {"exchange_p50_ms": 0.50, "exchange_p90_ms": 0.90, "exchange_p99_ms": 0.99}
# ranks, as shares of the samples, whose mean is a time's statistic
BAND = (0.6, 0.9)


@dataclass(frozen=True)
class Workload:
    name: str
    template: dict[str, Any] | None  # None: tests/goldens/template.json
    scenarios: int  # distinct scenarios drawn from one --seed, passed in turn
    shares: dict[str, float]  # share of --seconds for set-ups and CLI runs


WORKLOADS = {
    w.name: w
    for w in (
        # planner-bound: every route has 5 stations, so the first plan of
        # each truck enumerates 2^5 stop patterns; with equal route lengths
        # each remaining-station count is a fifth of the exchanges, which
        # puts p50 and p90 mid-cluster (see percentile)
        Workload(
            "long_haul",
            dict(
                label="long_haul",
                truck_count=48,
                station_count=16,
                port_count_range=[1, 2],
                stations_per_route_range=[5, 5],
                segment_time_range=[20.0, 40.0],
                depart_window=[420.0, 600.0],
            ),
            4,
            {"setup": 0.1, "cli": 0.2},
        ),
        # exchange-bound and congested: 1500 trucks with 1-3 stops each
        Workload(
            "dense_fleet",
            dict(
                label="dense_fleet",
                truck_count=1500,
                station_count=20,
                port_count_range=[1, 3],
                stations_per_route_range=[1, 3],
                depart_window=[300.0, 900.0],
            ),
            1,
            {"setup": 0.1, "cli": 0.2},
        ),
        # start-up-bound: the golden scenario through fresh CLI processes
        Workload("golden_cli", None, 1, {"setup": 0.15, "cli": 0.6}),
    )
}


class Tally:
    """Attempted and failed operations; each failure is printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems

    def guard(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; an exception counts as a failure and yields None."""
        try:
            return fn()
        except Exception:
            self.record([traceback.format_exc().rstrip()], what)
            return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter from the checkout root; wall seconds from
    start to exit, and the finished process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def exit_problems(proc: subprocess.CompletedProcess) -> list[str]:
    return [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr.strip()}"]


def digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def golden_mismatches(run_dir: Path, compare_csv: Path) -> list[str]:
    out = []
    pairs = [(run_dir / rel, GOLDENS / "run" / rel) for rel in GOLDEN_FILES]
    pairs.append((compare_csv, GOLDENS / "run" / "compare.csv"))
    for fresh, frozen in pairs:
        if not fresh.is_file():
            out.append(f"{fresh.name} was not written")
        elif fresh.read_bytes() != frozen.read_bytes():
            out.append(f"{fresh} differs from {frozen.relative_to(ROOT)}")
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """The q-quantile of an ascending list, as the mean of the values ranked
    within q +- (1 - q) / 5. Exchange latencies form clusters by the number
    of remaining stations; where a quantile falls in the gap between two
    clusters, a single order statistic jumps from one to the other with
    noise, while this band mean moves smoothly with the cluster sizes."""
    n = len(sorted_values)
    width = (1.0 - q) / 5.0
    lo = min(int((q - width) * n), n - 1)
    hi = max(math.ceil((q + width) * n), lo + 1)
    return statistics.fmean(sorted_values[lo:hi])


def band_mean(values: list[float]) -> float:
    """Mean of the values ranked within BAND. On a shared host the program
    runs in two states for seconds at a time, one about 1.7 times slower
    than the other, and the slow one's share of a run varies from run to
    run. A short sample sits in one state, so a median or a mean moves
    with that share; while the slow state holds at least 40% of the
    samples, this band lies within it. The top tenth, preemption stalls,
    is left out."""
    ordered = sorted(values)
    n = len(ordered)
    lo = min(int(BAND[0] * n), n - 1)
    hi = max(math.ceil(BAND[1] * n), lo + 1)
    return statistics.fmean(ordered[lo:hi])


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git, or
    'unknown' when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def package_version(name: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


# -- the pipeline ------------------------------------------------------------


@dataclass
class Pass:
    """One in-process equivalent of `run --strategy both`, `report` and
    `compare`."""

    total_s: float
    offline_s: float
    proposed_s: float
    offline: Any
    proposed: Any
    problems: list[str]
    bytes_written: int = 0
    scenario: int = 0
    exchanges: int = 0
    exchange_ms: dict[str, float] | None = None  # QUANTILES within this pass


def run_both(fc: Any, scenario_path: Path, out: Path) -> Pass:
    """Mirror the three CLI commands in process. Calls go through module
    attributes so that tracing wrappers bound there see every one."""
    model, simulation, reports = fc.model, fc.simulation, fc.reports
    problems: list[str] = []
    start = time.perf_counter()
    scenario = model.load_scenario(str(scenario_path))
    problems += [f"invalid scenario: {p}" for p in model.validate_scenario(scenario)]
    results = {}
    seconds = {}
    for strategy, runner in (
        ("offline", simulation.run_offline_baseline),
        ("proposed", simulation.run_proposed),
    ):
        t0 = time.perf_counter()
        result = runner(scenario, require_detour_margin_everywhere=True)
        seconds[strategy] = time.perf_counter() - t0
        problems += [f"audit ({strategy}): {v}" for v in simulation.audit_run(scenario, result)]
        reports.write_run_outputs(result, out / strategy)
        results[strategy] = result
    report = simulation.compare(results["offline"].metrics, results["proposed"].metrics)
    reports.write_comparison_csv(report, out / "compare.csv")
    reports.write_report_csvs(out / "proposed")
    reread = [
        simulation.metrics_from_dict(json.loads((out / s / "metrics.json").read_text()))
        for s in ("offline", "proposed")
    ]
    reports.write_comparison_csv(simulation.compare(*reread), out / "recompare.csv")
    total = time.perf_counter() - start
    return Pass(
        total, seconds["offline"], seconds["proposed"], results["offline"], results["proposed"], problems
    )


class ExchangeProbe:
    """Times every `run_ramp_exchange` the engine makes: two clock reads
    per exchange, the latency metric's own probe.

    An exchange is pure in-process computation, so the clock is the
    thread's CPU time: its latency on a core of its own. Wall time on a
    shared machine also counts every preemption of the virtual CPU, and
    those few-millisecond stalls, not the exchanges, set the tail."""

    def __init__(self, simulation: Any) -> None:
        self.samples_ns: list[int] = []  # the list new samples go to
        self._module = simulation
        self._original = original = simulation.run_ramp_exchange
        clock = time.thread_time_ns

        def probed(*args, **kwargs):
            t0 = clock()
            out = original(*args, **kwargs)
            self.samples_ns.append(clock() - t0)
            return out

        simulation.run_ramp_exchange = probed

    def close(self) -> None:
        self._module.run_ramp_exchange = self._original


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool) -> None:
        import fleetcharge
        from fleetcharge import generator, model, planner, protocol, reports, simulation, station  # noqa: F401

        self.fc = fleetcharge
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.tally = Tally()
        self.work = WORK / f"{workload.name}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if workload.template is None:
            self.template = json.loads((GOLDENS / "template.json").read_text())
            seed = json.loads((GOLDENS / "scenario.json").read_text())["rng_seed"]
        else:
            self.template = workload.template
        self.seed = seed
        # scenario k of the run is generated with seed * scenarios + k,
        # which no other (seed, k) pair shares
        self.scenario_seeds = [seed * workload.scenarios + k for k in range(workload.scenarios)]
        self.scenario_paths = [self.work / f"scenario{k}.json" for k in range(workload.scenarios)]
        self.reference: dict[int, dict[str, str]] = {}
        self.passes = 0
        self.samples: dict[str, list[float]] = {}
        self.exchanges = 0  # timed exchanges in the kept passes

    # -- one pipeline pass ---------------------------------------------------

    def check_pass(self, k: int, p: Pass, out: Path) -> list[str]:
        problems = list(p.problems)
        d = digest(out)
        first = self.reference.setdefault(k, d)
        if d != first:
            changed = sorted(f for f in set(d) | set(first) if d.get(f) != first.get(f))
            problems.append("outputs differ from the first pass: " + ", ".join(changed))
        if (out / "recompare.csv").read_bytes() != (out / "compare.csv").read_bytes():
            problems.append("compare of re-read metrics differs from the run's compare.csv")
        if self.workload.template is None:
            problems += golden_mismatches(out, out / "recompare.csv")
        return problems

    def one_pass(self, k: int | None = None, keep: bool = False, probe: ExchangeProbe | None = None) -> Pass | None:
        """Run the pipeline on scenario k (by default the next in turn).
        Unless ``keep``, the run results are dropped once checked, so that
        peak memory is that of one pass, not of every pass so far. With a
        ``probe``, the pass carries its own exchange latency quantiles."""
        if k is None:
            k = self.passes % len(self.scenario_paths)
        self.passes += 1
        out = self.work / "runs" / f"pass{self.passes}"
        if probe is not None:
            probe.samples_ns = []
        # every pass starts from an empty collector, as a fresh CLI process
        # does, so full collections land at the same points in each pass
        gc.collect()
        p = self.tally.guard("pipeline pass", lambda: run_both(self.fc, self.scenario_paths[k], out))
        if p is not None:
            p.scenario = k
            if probe is not None and probe.samples_ns:
                lat = sorted(ns / 1e6 for ns in probe.samples_ns)
                p.exchanges = len(lat)
                p.exchange_ms = {name: percentile(lat, q) for name, q in QUANTILES.items()}
            p.bytes_written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            if not self.tally.record(self.check_pass(k, p, out), f"pipeline pass {self.passes}"):
                p = None
            elif not keep:
                p.offline = p.proposed = None
        shutil.rmtree(out, ignore_errors=True)
        return p

    # -- set-up ----------------------------------------------------------------

    def setup(self, keep: bool = False) -> float | None:
        """One set-up in a fresh interpreter: import, generate, dump, load.
        With ``keep`` its scenarios become the run's inputs; otherwise they
        must match those byte for byte."""
        out = self.work / ("setup" if keep else "setup-repeat")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        seeds = ",".join(map(str, self.scenario_seeds))
        args = [str(HERE / "setup_child.py"), json.dumps(self.template), seeds, str(out)]
        _, proc = run_child(args)
        problems = exit_problems(proc)
        if not problems:
            for k, path in enumerate(self.scenario_paths):
                fresh = (out / f"scenario{k}.json").read_bytes()
                if keep:
                    path.write_bytes(fresh)
                elif fresh != path.read_bytes():
                    problems.append(f"scenario {k} differs from the first set-up")
            if keep and self.workload.template is None:
                if self.scenario_paths[0].read_bytes() != (GOLDENS / "scenario.json").read_bytes():
                    problems.append("generated scenario differs from tests/goldens/scenario.json")
        if not self.tally.record(problems, "set-up"):
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    # -- CLI -------------------------------------------------------------------

    def cli_run(self) -> float | None:
        """`run --strategy both`, `report` and `compare` on the golden
        scenario as three fresh processes; returns their summed wall time."""
        base = self.work / "cli"
        shutil.rmtree(base, ignore_errors=True)
        run_dir = base / "run"
        commands = [
            ["run", "--scenario", str(GOLDENS / "scenario.json"), "--strategy", "both", "--out", str(run_dir)],
            ["report", str(run_dir / "proposed")],
            ["compare", str(run_dir / "offline"), str(run_dir / "proposed"), "--out", str(base / "compare.csv")],
        ]
        total = 0.0
        ok = True
        for args in commands:
            seconds, proc = run_child(["-c", CLI_MAIN, *args])
            total += seconds
            ok = self.tally.record(exit_problems(proc), f"fleetcharge {args[0]}") and ok
        if ok:
            ok = self.tally.record(golden_mismatches(run_dir, base / "compare.csv"), "CLI outputs")
        shutil.rmtree(base, ignore_errors=True)
        return total if ok else None

    # -- untraced run ----------------------------------------------------------

    def pass_block(self, probe: ExchangeProbe) -> list[Pass]:
        """Passes back to back for at least PASS_BLOCK_S. When the block
        holds three or more passes, its first ran on caches that a
        subprocess had just evicted, so it is dropped; a single long pass
        hardly notices."""
        block: list[Pass] = []
        start = time.perf_counter()
        while not block or time.perf_counter() - start < PASS_BLOCK_S:
            if self.tally.failed > MAX_FAILURES:
                break
            p = self.one_pass(probe=probe)
            if p is not None:
                block.append(p)
        return block[1:] if len(block) >= 3 else block

    def measure(self) -> dict[str, tuple[float, str]]:
        """Interleave set-ups, CLI runs and blocks of pipeline passes, each
        given its share of --seconds, so that every metric samples the
        whole run. Each runs at least MIN_COUNTS times.

        Each activity is pinned to the CPUs in turn. A time is its band_mean
        on each CPU (and, for passes, each scenario), averaged over
        those groups; an exchange quantile is taken within each pass and
        averaged the same way. On a shared host one virtual CPU can run a
        third slower than another for tens of seconds, and a process the
        scheduler leaves on one CPU would report that CPU's speed alone.
        Scenarios of one seed differ in cost, and averaging per scenario
        keeps a pass count that differs by one between scenarios from
        shifting the result."""
        if self.setup(keep=True) is None:  # untimed: also fills the bytecode cache
            raise RuntimeError("the first set-up failed")
        probe = ExchangeProbe(self.fc.simulation)
        shares = dict(self.workload.shares, passes=1.0 - sum(self.workload.shares.values()))
        done: dict[str, list[tuple[Any, Any]]] = {"setup": [], "cli": [], "passes": []}
        actions = {"setup": self.setup, "cli": self.cli_run, "passes": lambda: self.pass_block(probe)}
        spent = dict.fromkeys(actions, 0.0)
        last = dict.fromkeys(actions, 0.0)
        runs = dict.fromkeys(actions, 0)
        start = time.perf_counter()
        try:
            while True:
                if self.tally.failed > MAX_FAILURES:
                    raise RuntimeError("too many failed operations to measure")
                short = [a for a in actions if len(done[a]) < MIN_COUNTS[a]]
                total = sum(spent.values())
                action = max(short or actions, key=lambda a: shares[a] * total - spent[a])
                if not short and time.perf_counter() - start + last[action] > self.seconds:
                    break
                cpu = ALL_CPUS[runs[action] % len(ALL_CPUS)]
                runs[action] += 1
                pin(cpu)
                t0 = time.perf_counter()
                result = actions[action]()
                last[action] = time.perf_counter() - t0
                spent[action] += last[action]
                if action == "passes":
                    done[action] += [((cpu, p.scenario), p) for p in result]
                elif result is not None:
                    done[action].append((cpu, result))
        finally:
            probe.close()
            pin(None)
        passes = done["passes"]  # grouped by CPU and scenario
        if not any(p.exchange_ms for _, p in passes):
            raise RuntimeError("no pass made a ramp exchange")
        self.samples.update(
            setup_s=done["setup"],
            offline_s=[(cpu, p.offline_s) for cpu, p in passes],
            proposed_s=[(cpu, p.proposed_s) for cpu, p in passes],
            run_both_s=[(cpu, p.total_s) for cpu, p in passes],
            cli_s=done["cli"],
        )
        for name in QUANTILES:
            self.samples[name] = [(cpu, p.exchange_ms[name]) for cpu, p in passes if p.exchange_ms]
        self.exchanges = sum(p.exchanges for _, p in passes)
        out = {name: (across_groups(self.samples[name], band_mean), unit) for name, unit in UNITS.items()}
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return out

    # -- traced run --------------------------------------------------------------

    def measure_traced(self) -> dict[str, tuple[float, str]]:
        """After one warm-up pass, alternate untraced and traced passes on
        the first scenario until --seconds have passed (at least one pair)."""
        fc = self.fc
        template = fc.generator.ScenarioTemplate.from_dict(self.template)
        t0 = time.perf_counter()
        scenario = fc.generator.generate_scenario(template, self.scenario_seeds[0])
        generate_s = time.perf_counter() - t0
        fc.model.dump_scenario(scenario, str(self.scenario_paths[0]))
        if self.workload.template is None:
            same = self.scenario_paths[0].read_bytes() == (GOLDENS / "scenario.json").read_bytes()
            self.tally.record([] if same else ["generated scenario differs from the golden"], "set-up")
        offline_plans = sum(1 for t in scenario.trucks if t.route.ramp_count > 0)

        figures: list[dict[str, tuple[float, str]]] = []
        untraced: list[float] = []
        traced: list[float] = []
        last = None
        self.one_pass(0)  # untimed warm-up of the in-process caches
        start = time.perf_counter()
        pair_s = 0.0
        while not figures or time.perf_counter() - start + pair_s <= self.seconds:
            if self.tally.failed > MAX_FAILURES:
                break
            t0 = time.perf_counter()
            probe = ExchangeProbe(fc.simulation)
            try:
                plain = self.one_pass(0)
            finally:
                probe.close()
            tracer = Tracer()
            tracer.install(fc)
            try:
                traced_pass = self.one_pass(0, keep=True)
            finally:
                tracer.uninstall()
            pair_s = time.perf_counter() - t0
            if plain is None or traced_pass is None:
                continue
            f, problems = summarize(tracer, offline_plans, traced_pass.proposed.ramp_arrivals)
            self.tally.record(problems, "trace reconciliation")
            if figures and counts_of(f) != counts_of(figures[0]):
                self.tally.record(["traced counts differ between passes"], "trace repeat")
            figures.append(f)
            untraced.append(plain.total_s)
            traced.append(traced_pass.total_s)
            last = (tracer, traced_pass)
        if last is None:
            raise RuntimeError("no traced pass succeeded")
        last[0].write_spans(self.work / "spans.jsonl")
        last_pass = last[1]

        # counts repeat exactly across passes; times are medians
        out = {
            key: (value if unit == "count" else statistics.median(f[key][0] for f in figures), unit)
            for key, (value, unit) in figures[0].items()
        }
        out["generator.generate_s"] = (generate_s, "s")
        out.update(self.planner_solves())
        out.update(self.codec(last_pass.proposed))
        out["reports.bytes_written"] = (last_pass.bytes_written, "bytes")
        for strategy, result in (("offline", last_pass.offline), ("proposed", last_pass.proposed)):
            m = result.metrics
            out[f"simulation.wait_min.{strategy}"] = (m.total_waiting_minutes, "min")
            out[f"simulation.late.{strategy}"] = (m.deadline_violation_count, "count")
            out[f"simulation.stranded.{strategy}"] = (m.stranded_count, "count")
        out["cli.import_s"] = (self.import_seconds(), "s")
        overheads = [100.0 * (t / u - 1.0) for t, u in zip(traced, untraced)]
        traced_s = statistics.median(traced)
        out["trace.untraced_s"] = (statistics.median(untraced), "s")
        out["trace.traced_s"] = (traced_s, "s")
        out["trace.overhead_pct"] = (statistics.median(overheads), "%")
        out["trace.unattributed_s"] = (traced_s - out["trace.self_total_s"][0], "s")
        self.samples.update(overhead_pct=overheads, untraced_s=untraced, traced_s=traced)
        return out

    def planner_solves(self) -> dict[str, tuple[float, str]]:
        """One `solve_charging_problem` on a seeded route tail of m = 4, 8
        and 12 stations: the first ramp of a one-truck generated scenario."""
        fc = self.fc
        out = {}
        for m, repeats in PLANNER_SIZES:
            template = fc.generator.ScenarioTemplate(
                truck_count=1,
                station_count=m,
                stations_per_route_range=(m, m),
                segment_time_range=(20.0, 40.0),
            )
            scenario = fc.generator.generate_scenario(template, self.seed)
            truck = scenario.trucks[0]
            stations = scenario.station_by_id()
            route = truck.route
            arrival = truck.depart_time + route.segment_times[0]
            inp = fc.planner.PlannerInput(
                params=truck.params,
                stations=tuple(stations[s] for s in route.station_ids),
                segment_times=tuple(route.segment_times[1:]),
                detour_times=route.detour_times,
                battery=truck.e_initial - truck.params.p_bar * route.segment_times[0],
                quoted_wait=0.0,
                assumed_waits=(truck.w_hat_default,) * (m - 1),
                remaining_time=truck.deadline - arrival,
            )
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                solution = fc.planner.solve_charging_problem(inp)
                times.append(1e3 * (time.perf_counter() - t0))
            problems = [] if solution.status == "optimal" else [f"solve is {solution.status}"]
            self.tally.record(problems, f"planner m={m}")
            out[f"planner.solve_ms.m{m}"] = (statistics.median(times), "ms")
        return out

    def codec(self, proposed: Any) -> dict[str, tuple[float, str]]:
        """Encode and decode the four messages of every exchange: the median
        time per exchange, and the wire size of the whole transcript. The
        wire form rounds to six decimals, so the check is that a decoded
        line encodes to the same line."""
        encode, decode = self.fc.protocol.encode_message, self.fc.protocol.decode_message
        per_exchange = []
        wire = 0
        bad = 0
        for tr in proposed.transcripts:
            t0 = time.perf_counter_ns()
            for message in tr.messages:
                line = encode(message)
                bad += encode(decode(line)) != line
                wire += len(line) + 1
            per_exchange.append((time.perf_counter_ns() - t0) / 1e3)
        self.tally.record([f"{bad} lines changed in a decode/encode round trip"] if bad else [], "codec")
        return {
            "protocol.codec_us": (statistics.median(per_exchange) if per_exchange else 0.0, "us"),
            "protocol.wire_bytes": (wire, "bytes"),
        }

    def import_seconds(self) -> float:
        """Median wall time of a fresh `import fleetcharge` minus that of a
        bare interpreter, after one untimed import fills the bytecode cache."""

        def wall(code: str) -> float:
            seconds, proc = run_child(["-c", code])
            self.tally.record(exit_problems(proc), "import probe")
            return seconds

        wall("import fleetcharge")
        bare = [wall("pass") for _ in range(5)]
        full = [wall("import fleetcharge") for _ in range(5)]
        return statistics.median(full) - statistics.median(bare)

    def context(self) -> dict[str, Any]:
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "scenario_seeds": self.scenario_seeds,
            "template": self.template,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "python": platform.python_version(),
            "numpy": package_version("numpy"),
            "cpu_count": os.cpu_count(),
            "cpus_used": ALL_CPUS,
            "git_commit": git_commit(),
            "src_lines": src_line_count(),
        }


# the end-to-end metrics that are averaged samples, in print order
UNITS = {
    "setup_s": "s",
    "offline_s": "s",
    "proposed_s": "s",
    "run_both_s": "s",
    "exchange_p50_ms": "ms",
    "exchange_p90_ms": "ms",
    "exchange_p99_ms": "ms",
    "cli_s": "s",
}


def pin(cpu: int | None) -> None:
    """Run this process, and the subprocesses it starts, on one CPU; None
    allows every CPU again. A no-op where affinity cannot be set."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, ALL_CPUS if cpu is None else {cpu})


def across_groups(tagged: list[tuple[Any, Any]], stat: Callable[[list[Any]], float]) -> float:
    """``stat`` of the samples in each group, averaged over the groups."""
    groups: dict[Any, list[Any]] = {}
    for cpu, value in tagged:
        groups.setdefault(cpu, []).append(value)
    return statistics.fmean(stat(values) for values in groups.values())


def counts_of(figures: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {k: v for k, (v, unit) in figures.items() if unit == "count"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fleetcharge" / "__init__.py").is_file():
        print(f"no fleetcharge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import fleetcharge: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = bench.measure_traced() if args.trace else bench.measure()
    except Exception:
        traceback.print_exc()
        return 1

    context = bench.context()
    for name, (value, unit) in metrics.items():
        note = ""
        if name in QUANTILES:
            note = f"  ({len(bench.samples[name])} passes, n={bench.exchanges} exchanges)"
        elif name in bench.samples:
            note = f"  ({len(bench.samples[name])} samples)"
        print(f"{name:30s} {value:16.6f} {unit}{note}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, context=context, samples=bench.samples)
    (bench.work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
