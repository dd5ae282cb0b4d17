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
  (:mod:`fleetcharge.simulation`).

Everything is seedable and replayable: same scenario, same outputs, byte
for byte.
"""

from .model import (
    ChargeDecision,
    ChargingPlan,
    Route,
    Scenario,
    StationSpec,
    TruckParams,
    TruckSpec,
    charging_rate,
    electricity_price_per_minute,
    load_scenario,
    dump_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from .station import PortLedger, StaleQuoteError, WaitQuote
from .planner import (
    PlannerInput,
    PlannerSolution,
    RouteTooLongError,
    TruckRoute,
    check_feasibility,
    compute_energy_trajectory,
    evaluate_plan_cost,
    solve_charging_problem,
)
from .protocol import ExchangeTranscript, run_ramp_exchange
from .simulation import audit_run, compare, run_offline_baseline, run_proposed
from .generator import ScenarioTemplate, generate_scenario

__version__ = "0.1.0"

__all__ = [
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
    "PortLedger",
    "StaleQuoteError",
    "WaitQuote",
    "PlannerInput",
    "PlannerSolution",
    "RouteTooLongError",
    "TruckRoute",
    "check_feasibility",
    "compute_energy_trajectory",
    "evaluate_plan_cost",
    "solve_charging_problem",
    "ExchangeTranscript",
    "run_ramp_exchange",
    "audit_run",
    "compare",
    "run_offline_baseline",
    "run_proposed",
    "ScenarioTemplate",
    "generate_scenario",
]
