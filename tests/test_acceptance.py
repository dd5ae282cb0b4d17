"""Acceptance gate: eight end-to-end checks at stated tolerances.

Each check prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) and enforces its own runtime budget where one applies.
"""

import random
import time

import pytest

from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import ChargeDecision, StationSpec
from fleetcharge.planner import PlannerInput, _tail_of, solve_charging_problem
from fleetcharge.reports import write_run_outputs
from fleetcharge.simulation import run_offline_baseline, run_proposed
from fleetcharge.station import PortLedger

from conftest import DEFAULTS, make_params
from grid_oracle import brute_force_oracle
from reference_planner import compute_energy_trajectory


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- shared seeded ensembles ---------------------------------------------------


def _safety_template(seed: int) -> ScenarioTemplate:
    # 20-50 trucks over 4-8 stations with 1-3 ports each
    return ScenarioTemplate(
        label=f"safety-{seed}",
        truck_count=20 + (seed * 7) % 31,
        station_count=4 + seed % 5,
        port_count_range=(1, 3),
        stations_per_route_range=(2, 4),
        segment_time_range=(20.0, 60.0),
        depart_window=(480.0, 600.0),
        e_initial_range=(220.0, 500.0),
    )


def _congested_template(seed: int) -> ScenarioTemplate:
    # single-port stations and short stop-dense routes so the offline
    # baseline piles up queues
    return ScenarioTemplate(
        label=f"congested-{seed}",
        truck_count=20,
        station_count=4,
        port_count_range=(1, 1),
        stations_per_route_range=(3, 4),
        segment_time_range=(20.0, 40.0),
        depart_window=(480.0, 540.0),
        e_initial_range=(220.0, 320.0),
    )


@pytest.fixture(scope="session")
def safety_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        sc = generate_scenario(_safety_template(seed), seed)
        runs.append((sc, run_offline_baseline(sc), run_proposed(sc)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def congested_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        sc = generate_scenario(_congested_template(seed), seed)
        runs.append((sc, run_offline_baseline(sc), run_proposed(sc)))
    return runs, time.perf_counter() - t0


# -- criterion 1: exact solver vs brute-force grid oracle ----------------------


def _random_planner_input(rng: random.Random) -> PlannerInput:
    m = rng.randint(1, 3)
    stations = tuple(
        StationSpec(
            id=f"s{i + 1:02d}",
            port_count=3,
            port_power=rng.choice((150.0, 300.0, 375.0)),
            electricity_price_energy=round(rng.uniform(0.2, 0.6), 2),
        )
        for i in range(m)
    )
    segs = tuple(round(rng.uniform(20.0, 80.0), 1) for _ in range(m))
    return PlannerInput(
        params=make_params(),
        stations=stations,
        segment_times=segs,
        detour_times=tuple(round(rng.uniform(1.0, 12.0), 1) for _ in range(m)),
        battery=round(rng.uniform(170.0, 550.0), 1),
        quoted_wait=round(rng.uniform(0.0, 30.0), 1),
        assumed_waits=tuple(round(rng.uniform(0.0, 25.0), 1) for _ in range(m - 1)),
        remaining_time=round(rng.uniform(0.7, 1.4) * (sum(segs) + 60.0), 1),
    )


def test_criterion_1_solver_matches_grid_oracle():
    t0 = time.perf_counter()
    rng = random.Random(42)
    problems: list[str] = []
    compared = 0
    worst_gap = 0.0
    draws = 0
    while compared < 100 and draws < 400:
        draws += 1
        inp = _random_planner_input(rng)
        oracle = brute_force_oracle(inp)
        solution = solve_charging_problem(inp)
        if oracle is None:
            # nothing on the 0.1 grid finishes this one; the continuous
            # solver may still squeeze through, so there is no reference
            continue
        if solution.status != "optimal":
            problems.append(f"solver infeasible where oracle found a plan: {inp}")
            compared += 1
            continue
        cost = solution.plan.anticipated_cost
        gap = oracle.cost - cost
        if cost > oracle.cost + 1e-9:
            problems.append(f"solver above oracle by {cost - oracle.cost}")
        eps_max = max(
            s.electricity_price_energy * min(s.port_power, inp.params.p_max) / 60.0
            for s in inp.stations
        )
        bound = (inp.params.kappa + eps_max + inp.params.rho) * inp.station_count * 0.1
        if gap > bound:
            problems.append(f"oracle-solver gap {gap:.6f} exceeds grid bound {bound:.6f}")
        worst_gap = max(worst_gap, gap)
        compared += 1
    elapsed = time.perf_counter() - t0
    if compared < 100:
        problems.append(f"only {compared} feasible instances in {draws} draws")
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(
        1,
        not problems,
        f"{compared} planner inputs vs 0.1-grid oracle, "
        f"worst gap {worst_gap:.4f}, {elapsed:.1f}s",
    )
    assert not problems, "\n".join(problems[:10])


# -- criterion 2: waiting-quote and commitment arithmetic ----------------------


def test_criterion_2_commitment_mechanism_is_exact():
    t0 = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(20260819)
    booked_total = 0
    for port_count in (1, 2, 3):
        ledger = PortLedger(port_count)
        for i in range(1000):
            arrival = round(rng.uniform(0.0, 5000.0), 1)
            quote = ledger.estimate_wait(arrival)
            duration = 0.0 if rng.random() < 0.15 else round(rng.uniform(1.0, 120.0), 1)
            assignment = ledger.commit(quote, f"t{i:04d}", duration)
            if duration > 0.0 and assignment is None:
                problems.append("commit returned nothing for a positive duration")
        if ledger.audit():
            problems.append(f"audit failed: {ledger.audit()[:3]}")
        # replay the whole log with the quote rule and lowest-index tie break
        avail = [0.0] * port_count
        for a in ledger.assignments:
            wait = max(min(avail) - a.arrival, 0.0)
            port = avail.index(min(avail))
            if a.wait != wait:
                problems.append(f"logged wait {a.wait} != recomputed {wait}")
            if a.port != port:
                problems.append(f"logged port {a.port} != lowest-index argmin {port}")
            if a.start != a.arrival + a.wait:
                problems.append("start is not arrival plus wait")
            avail[port] = a.start + a.duration
        booked_total += len(ledger.assignments)
        # first-come first-served: starts never regress on any port; slots
        # do not overlap beyond the one-ulp slack of arrival + (avail - arrival)
        for assignments in ledger.schedule_by_port():
            for prev, cur in zip(assignments, assignments[1:]):
                if cur.start < prev.start:
                    problems.append("per-port start order regressed")
                if cur.start < prev.start + prev.duration - 1e-9:
                    problems.append("per-port bookings overlap")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(
        2,
        not problems,
        f"3000 quote/commit pairs replayed, {booked_total} bookings exact, "
        f"{elapsed:.2f}s",
    )
    assert not problems, "\n".join(problems[:10])


# -- criterion 3: realized safety bounds and energy conservation ---------------


def test_criterion_3_safety_and_conservation(safety_runs):
    runs, build_time = safety_runs
    t0 = time.perf_counter()
    problems: list[str] = []
    trucks_checked = 0
    for sc, base, prop in runs:
        specs = {t.id: t for t in sc.trucks}
        for result in (base, prop):
            for sid, ledger in result.ledgers.items():
                if ledger.audit():
                    problems.append(f"{sc.label}/{sid}: ledger audit failed")
            for trip in result.metrics.per_truck:
                if trip.stranded:
                    continue
                spec = specs[trip.truck_id]
                p = spec.params
                route = spec.route
                by_ramp = {v.ramp: v for v in trip.visits}
                e = spec.e_initial
                charged = 0.0
                for k in range(1, route.ramp_count + 1):
                    e -= p.p_bar * route.segment_times[k - 1]
                    d = route.detour_times[k - 1]
                    if e < p.e_safe + p.p_bar * d - 1e-6:
                        problems.append(
                            f"{sc.label}/{trip.truck_id}: ramp {k} level {e:.6f} "
                            f"below reserve-plus-detour bound"
                        )
                    if k in by_ramp:
                        v = by_ramp[k]
                        if abs(v.battery_before - (e - p.p_bar * d)) > 1e-6:
                            problems.append(
                                f"{sc.label}/{trip.truck_id}: recorded arrival level "
                                f"disagrees with replay at ramp {k}"
                            )
                        charged += v.energy
                        e = v.battery_after - p.p_bar * d
                e -= p.p_bar * route.segment_times[route.ramp_count]
                if e < p.e_safe - 1e-6:
                    problems.append(
                        f"{sc.label}/{trip.truck_id}: destination level {e:.6f} "
                        f"below reserve"
                    )
                if abs(e - trip.residual_battery) > 1e-6:
                    problems.append(
                        f"{sc.label}/{trip.truck_id}: residual replay off by "
                        f"{abs(e - trip.residual_battery):.2e}"
                    )
                detour_minutes = sum(
                    2.0 * route.detour_times[v.ramp - 1] for v in trip.visits
                )
                balance = (
                    spec.e_initial
                    + charged
                    - p.p_bar * (sum(route.segment_times) + detour_minutes)
                )
                if abs(balance - trip.residual_battery) > 1e-6:
                    problems.append(
                        f"{sc.label}/{trip.truck_id}: conservation off by "
                        f"{abs(balance - trip.residual_battery):.2e} kWh"
                    )
                trucks_checked += 1
        expected_exchanges = sum(t.route.ramp_count for t in sc.trucks)
        if prop.ramp_arrivals != expected_exchanges:
            problems.append(f"{sc.label}: ramp arrivals {prop.ramp_arrivals}")
        if len(prop.transcripts) != expected_exchanges:
            problems.append(
                f"{sc.label}: {len(prop.transcripts)} transcripts for "
                f"{expected_exchanges} ramp arrivals"
            )
        for tr in prop.transcripts:
            if len(tr.messages) != 4:
                problems.append(f"{sc.label}: exchange with {len(tr.messages)} messages")
    elapsed = build_time + (time.perf_counter() - t0)
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(
        3,
        not problems,
        f"20 scenarios, {trucks_checked} truck trips within 1e-6, {elapsed:.1f}s",
    )
    assert not problems, "\n".join(problems[:10])


# -- criterion 4: waiting drops under live coordination ------------------------


def test_criterion_4_mean_wait_reduction(congested_runs):
    runs, build_time = congested_runs
    t0 = time.perf_counter()
    problems: list[str] = []
    reductions = []
    for sc, base, prop in runs:
        waited = sum(1 for t in base.metrics.per_truck if t.total_wait > 0.0)
        if waited < 0.25 * len(sc.trucks):
            problems.append(
                f"{sc.label}: only {waited}/{len(sc.trucks)} baseline trucks waited"
            )
        b = base.metrics.totals.total_waiting_minutes
        p = prop.metrics.totals.total_waiting_minutes
        if b <= 0.0:
            problems.append(f"{sc.label}: baseline waiting is zero")
            continue
        reductions.append(100.0 * (b - p) / b)
    mean_reduction = sum(reductions) / len(reductions) if reductions else 0.0
    if mean_reduction < 10.0:
        problems.append(f"mean reduction {mean_reduction:.2f}% is below 10%")
    elapsed = build_time + (time.perf_counter() - t0)
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(
        4,
        not problems,
        f"mean wait reduction {mean_reduction:.1f}% over 20 congested scenarios "
        f"(floor 10%), {elapsed:.1f}s",
    )
    assert not problems, "\n".join(problems[:10])


# -- criterion 5: quotes are binding -------------------------------------------


def test_criterion_5_realized_waits_equal_quotes(safety_runs, congested_runs):
    problems: list[str] = []
    checked = 0
    positive = 0
    for runs, _ in (safety_runs, congested_runs):
        for sc, _base, prop in runs:
            for trip in prop.metrics.per_truck:
                for v in trip.visits:
                    if v.realized_wait != v.quoted_wait:
                        problems.append(
                            f"{sc.label}/{trip.truck_id}: realized {v.realized_wait!r} "
                            f"!= quoted {v.quoted_wait!r}"
                        )
                    checked += 1
                    if v.realized_wait > 0.0:
                        positive += 1
    if checked == 0 or positive == 0:
        problems.append(f"nothing meaningful compared ({checked} visits, {positive} positive)")
    _report(5, not problems, f"{checked} commitments, realized == quoted exactly")
    assert not problems, "\n".join(problems[:10])


# -- criterion 6: trucks aim for the reserve at the destination ----------------


def test_criterion_6_residuals_cluster_at_reserve(congested_runs):
    runs, _ = congested_runs
    problems: list[str] = []
    e_safe = DEFAULTS.e_safe
    if e_safe != 0.25 * DEFAULTS.e_full:
        problems.append("reserve is not exactly a quarter of capacity")
    charged = []
    for _sc, _base, prop in runs:
        for trip in prop.metrics.per_truck:
            if trip.visits and not trip.stranded:
                charged.append(trip.residual_battery)
    near = sum(1 for r in charged if abs(r - e_safe) <= 0.05 * e_safe)
    share = near / len(charged) if charged else 0.0
    if share < 0.60:
        problems.append(f"only {share:.0%} of charged trucks end near the reserve")
    _report(
        6,
        not problems,
        f"{share:.0%} of {len(charged)} charged trucks within 5% of "
        f"{e_safe:.0f} kWh (floor 60%)",
    )
    assert not problems, "\n".join(problems[:10])


# -- criterion 7: byte-identical reruns ----------------------------------------


def test_criterion_7_reruns_are_byte_identical(tmp_path):
    problems: list[str] = []
    sc = generate_scenario(_congested_template(0), 0)
    for strategy, runner in (("offline", run_offline_baseline), ("proposed", run_proposed)):
        a = tmp_path / strategy / "a"
        b = tmp_path / strategy / "b"
        write_run_outputs(runner(sc), a)
        write_run_outputs(runner(sc), b)
        for name in ("metrics.json", "transcript.jsonl"):
            if (a / name).read_bytes() != (b / name).read_bytes():
                problems.append(f"{strategy}/{name} differs between reruns")
    _report(7, not problems, "metrics.json and transcript.jsonl stable across reruns")
    assert not problems, "\n".join(problems[:10])


# -- criterion 8: worked arithmetic examples -----------------------------------


def test_criterion_8_worked_examples():
    problems: list[str] = []
    params = make_params()
    station = StationSpec(
        id="s01",
        port_count=3,
        port_power=300.0,
        electricity_price_energy=0.36,
    )

    # an hour of driving from 514.2 kWh burns down to 404.4 kWh
    drive = PlannerInput(
        params=params,
        stations=(station,),
        segment_times=(60.0,),
        detour_times=(0.0,),
        battery=514.2,
        quoted_wait=0.0,
        assumed_waits=(),
        remaining_time=300.0,
    )
    levels = compute_energy_trajectory(drive, (ChargeDecision(False, 0.0),))
    if abs(levels[-1] - 404.4) > 1e-9:
        problems.append(f"drive drain gave {levels[-1]!r}, expected 404.4")

    # an hour at a 300 kW port adds exactly 300 kWh
    charge = PlannerInput(
        params=params,
        stations=(station,),
        segment_times=(60.0,),
        detour_times=(0.0,),
        battery=200.0,
        quoted_wait=0.0,
        assumed_waits=(),
        remaining_time=300.0,
    )
    levels = compute_energy_trajectory(charge, (ChargeDecision(True, 60.0),))
    gained = levels[-1] - (200.0 - params.p_bar * 60.0)
    if abs(gained - 300.0) > 1e-9:
        problems.append(f"hour at 300 kW gained {gained!r}, expected 300")

    # detours, charging and waiting that overrun the budget by ten minutes
    overtime_case = PlannerInput(
        params=params,
        stations=(station,),
        segment_times=(30.0,),
        detour_times=(5.0,),
        battery=400.0,
        quoted_wait=10.0,
        assumed_waits=(),
        remaining_time=60.0,
    )
    overtime = _tail_of(overtime_case).cost((ChargeDecision(True, 20.0),))[1]
    if abs(overtime - 10.0) > 1e-9:
        problems.append(f"overtime gave {overtime!r}, expected 10.0")

    _report(8, not problems, "all three worked examples match to 1e-9")
    assert not problems, "\n".join(problems)
