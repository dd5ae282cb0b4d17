"""Distributed charging coordination for electric truck fleets.

The package has three layers:

* stations run first-come-first-served port ledgers and answer wait queries
  (:mod:`fleetcharge.station`);
* each truck plans where and how long to charge along its fixed route by
  solving a small mixed-integer program exactly
  (:mod:`fleetcharge.planner`), talking to stations through a four-message
  reservation exchange (:mod:`fleetcharge.protocol`);
* a deterministic discrete-event engine plays whole fleets through either
  that en-route strategy or an offline plan-once baseline
  (:mod:`fleetcharge.simulation`). What a finished run is (its records,
  their comparison and its files) lives in :mod:`fleetcharge.reports`.

``import fleetcharge`` loads no layer. Each public name below is imported
from its home module on first use, and so is each submodule named as an
attribute, so a program that only reports on a finished run never loads
the planner or the engine. Scenario generation
(:mod:`fleetcharge.generator`) does not load the planner either: its test
of each sampled truck, the planner's first pass over a route, lives in
:mod:`fleetcharge.model`.

Everything is seedable and replayable: same scenario, same outputs, byte
for byte.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys(
        (
            "ChargeDecision",
            "ChargingPlan",
            "Route",
            "Scenario",
            "StationSpec",
            "TruckParams",
            "TruckSpec",
            "charging_rate",
            "electricity_price_per_minute",
            "load_scenario",
            "dump_scenario",
            "scenario_from_json",
            "scenario_to_json",
            "validate_scenario",
        ),
        "model",
    ),
    **dict.fromkeys(("PortLedger", "StaleQuoteError", "WaitQuote"), "station"),
    **dict.fromkeys(
        (
            "PlannerInput",
            "PlannerSolution",
            "TruckRoute",
            "solve_charging_problem",
        ),
        "planner",
    ),
    **dict.fromkeys(("ExchangeTranscript", "run_ramp_exchange"), "protocol"),
    "audit_run": "simulation",
    "compare": "reports",
    "run_offline_baseline": "simulation",
    "run_proposed": "simulation",
    **dict.fromkeys(("ScenarioTemplate", "generate_scenario"), "generator"),
}
# every module above, and cli, which exports no name here
_SUBMODULES = frozenset((*_HOME.values(), "cli"))

__all__ = list(_HOME)


def _load(module: str) -> object:
    """Import a submodule by the import statement's own path, which
    ``-X importtime`` reports, unlike `importlib.import_module`'s."""
    return __import__(f"{__name__}.{module}", fromlist=("_",))


def __getattr__(name: str) -> object:
    """A public name or submodule, imported on first access (PEP 562) and
    then kept in the package's globals, so it is looked up only once."""
    if name in _HOME:
        value = getattr(_load(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _load(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
