"""Span tracing of fleetcharge layers from outside the package.

Every layer is traced by wrapping its public functions where they are
called. Modules such as ``simulation`` and ``protocol`` import names like
``solve_charging_problem`` directly, so a wrapper must be bound into each
importing module, not only into the defining one. ``Tracer.install``
does that and returns nothing; ``Tracer.uninstall`` puts the originals
back.

A span is ``[id, name, start_ns, end_ns, parent_id, exchange_id]``. Spans
opened inside one ramp exchange share that exchange's id (0 outside any
exchange). Spans stay in memory until ``write_spans`` is called.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute, span name): every call site of a layer's public
# functions that the run-both pipeline reaches.
CALL_SITES = [
    ("planner", "solve_lp", "lp.solve_lp"),
    ("simulation", "solve_charging_problem", "planner.solve_charging_problem"),
    ("protocol", "solve_charging_problem", "planner.solve_charging_problem"),
    ("protocol", "minimal_rescue_charge", "planner.minimal_rescue_charge"),
    ("simulation", "run_ramp_exchange", "protocol.run_ramp_exchange"),
    ("protocol", "encode_message", "protocol.encode_message"),
    ("simulation", "validate_scenario", "model.validate_scenario"),
    ("model", "validate_scenario", "model.validate_scenario"),
    ("model", "load_scenario", "model.load_scenario"),
    ("simulation", "run_offline_baseline", "simulation.run_offline_baseline"),
    ("simulation", "run_proposed", "simulation.run_proposed"),
    ("simulation", "audit_run", "simulation.audit_run"),
    ("simulation", "compare", "simulation.compare"),
    ("simulation", "metrics_from_dict", "simulation.metrics_from_dict"),
    ("reports", "write_run_outputs", "reports.write_run_outputs"),
    ("reports", "write_comparison_csv", "reports.write_comparison_csv"),
    ("reports", "write_report_csvs", "reports.write_report_csvs"),
]
# PortLedger methods are looked up on the instance, so they are wrapped
# on the class.
LEDGER_METHODS = [
    ("estimate_wait", "station.estimate_wait"),
    ("commit", "station.commit"),
]
EXCHANGE_SPAN = "protocol.run_ramp_exchange"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.results: dict[int, Any] = {}
        self.stale_quote_errors = 0
        self._stack: list[int] = []
        self._exchange = 0
        self._exchanges = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str, keep_result: bool = False) -> Callable:
        spans = self.spans
        stack = self._stack
        results = self.results
        clock = time.perf_counter_ns
        is_exchange = name == EXCHANGE_SPAN
        is_commit = name == "station.commit"

        def traced(*args, **kwargs):
            sid = len(spans)
            if is_exchange:
                self._exchanges += 1
                outer_exchange, self._exchange = self._exchange, self._exchanges
            span = [sid, name, 0, 0, stack[-1] if stack else -1, self._exchange]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if is_commit and type(exc).__name__ == "StaleQuoteError":
                    self.stale_quote_errors += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if is_exchange:
                    self._exchange = outer_exchange
            if keep_result:
                results[sid] = out
            return out

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, package: Any) -> None:
        """Bind span wrappers into every call site of ``package``'s layers."""
        for module_name, attr, span_name in CALL_SITES:
            module = getattr(package, module_name)
            keep = span_name in ("planner.solve_charging_problem", "lp.solve_lp")
            self._replace(module, attr, self.wrap(getattr(module, attr), span_name, keep))
        ledger = package.station.PortLedger
        for attr, span_name in LEDGER_METHODS:
            self._replace(ledger, attr, self.wrap(getattr(ledger, attr), span_name))

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name, start, end, parent, exchange in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "exchange": exchange,
                        }
                    )
                    + "\n"
                )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_times(spans: list[list[Any]]) -> tuple[list[int], list[int]]:
    """Duration and self time (duration minus direct children) of every
    span, in nanoseconds."""
    duration = [end - start for _, _, start, end, _, _ in spans]
    self_ns = list(duration)
    for sid, _, _, _, parent, _ in spans:
        if parent >= 0:
            self_ns[parent] -= duration[sid]
    return duration, self_ns


def summarize(
    tracer: Tracer, offline_plans: int, ramp_arrivals: int
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer figures of one traced pipeline as name -> (value, unit),
    and the reconciliation problems found (empty when every count
    agrees)."""
    spans = tracer.spans
    duration, self_ns = span_times(spans)
    names = [s[1] for s in spans]
    layers = {layer_of(n) for n in names}

    busy: dict[str, int] = {layer: 0 for layer in layers}
    own: dict[str, int] = {layer: 0 for layer in layers}
    for sid, name, _, _, parent, _ in spans:
        layer = layer_of(name)
        own[layer] += self_ns[sid]
        if parent < 0 or layer_of(names[parent]) != layer:
            busy[layer] += duration[sid]

    def busy_of(layer: str) -> float:
        return busy.get(layer, 0) / 1e9

    def total(name: str) -> float:
        return sum(d for d, n in zip(duration, names) if n == name) / 1e9

    def count(name: str) -> int:
        return sum(1 for n in names if n == name)

    plans = [tracer.results[s[0]] for s in spans if s[1] == "planner.solve_charging_problem"]
    lp_results = [tracer.results[s[0]] for s in spans if s[1] == "lp.solve_lp"]
    lp_us = [d / 1e3 for d, n in zip(duration, names) if n == "lp.solve_lp"]
    lp_solves = sum(p.lp_solves for p in plans)

    # a ledger quote plus the commit that follows it under the same parent
    pair_us = []
    last_quote: dict[int, int] = {}
    for sid, name, _, _, parent, _ in spans:
        if name == "station.estimate_wait":
            last_quote[parent] = sid
        elif name == "station.commit" and parent in last_quote:
            pair_us.append((duration[last_quote.pop(parent)] + duration[sid]) / 1e3)

    engine_self = sum(
        self_ns[i]
        for i, n in enumerate(names)
        if n in ("simulation.run_proposed", "simulation.run_offline_baseline")
    )
    figures = {
        "planner.calls": (len(plans), "count"),
        "planner.patterns": (sum(p.patterns_considered for p in plans), "count"),
        "planner.lp_solves": (lp_solves, "count"),
        "planner.lp_useful_ratio": (len(plans) / lp_solves if lp_solves else 0.0, "ratio"),
        "planner.busy_s": (busy_of("planner"), "s"),
        "lp.calls": (len(lp_results), "count"),
        "lp.busy_s": (busy_of("lp"), "s"),
        "lp.call_us_p50": (statistics.median(lp_us) if lp_us else 0.0, "us"),
        "lp.not_optimal": (sum(1 for r in lp_results if r.status != "optimal"), "count"),
        "station.quotes": (count("station.estimate_wait"), "count"),
        "station.commits": (count("station.commit"), "count"),
        "station.busy_s": (busy_of("station"), "s"),
        "station.quote_commit_us": (statistics.median(pair_us) if pair_us else 0.0, "us"),
        "station.stale_quote_errors": (tracer.stale_quote_errors, "count"),
        "protocol.exchanges": (count(EXCHANGE_SPAN), "count"),
        "protocol.rescues": (count("planner.minimal_rescue_charge"), "count"),
        "simulation.engine_self_s": (engine_self / 1e9, "s"),
        "simulation.audit_s": (total("simulation.audit_run"), "s"),
        "reports.write_s": (total("reports.write_run_outputs"), "s"),
        "reports.report_s": (total("reports.write_report_csvs"), "s"),
        "reports.compare_s": (total("reports.write_comparison_csv"), "s"),
        "model.load_s": (total("model.load_scenario"), "s"),
        "model.validate_s": (total("model.validate_scenario"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.self_total_s": (sum(own.values()) / 1e9, "s"),
    }
    for layer in ("model", "planner", "lp", "station", "protocol", "simulation", "reports"):
        figures[f"{layer}.self_s"] = (own.get(layer, 0) / 1e9, "s")

    problems = []
    exchanges = figures["protocol.exchanges"][0]
    if len(plans) != exchanges + offline_plans:
        problems.append(
            f"wrapped planner calls {len(plans)} != exchanges {exchanges} "
            f"+ offline plans {offline_plans}"
        )
    lp_in_plans = sum(
        1 for s in spans if s[1] == "lp.solve_lp" and s[4] >= 0 and names[s[4]] == "planner.solve_charging_problem"
    )
    lp_in_rescue = sum(
        1 for s in spans if s[1] == "lp.solve_lp" and s[4] >= 0 and names[s[4]] == "planner.minimal_rescue_charge"
    )
    if lp_solves != lp_in_plans:
        problems.append(
            f"sum of PlannerSolution.lp_solves {lp_solves} != wrapped solve_lp "
            f"calls under the planner {lp_in_plans}"
        )
    if len(lp_results) != lp_in_plans + lp_in_rescue:
        problems.append(
            f"{len(lp_results) - lp_in_plans - lp_in_rescue} solve_lp calls "
            f"outside any planner span"
        )
    if exchanges != ramp_arrivals:
        problems.append(
            f"traced exchanges {exchanges} != RunResult.ramp_arrivals {ramp_arrivals}"
        )
    return figures, problems
