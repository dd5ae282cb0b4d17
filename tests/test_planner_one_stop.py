"""One-stop patterns are solved in closed form: the solver agrees with the
simplex on the one-stop duration LP (status exactly, objective and duration
to within rounding, except that within the phase-1 tolerance the closed
form stops at the station's cap where the simplex buys past it), and whole
runs agree with a planner that sends every pattern with stops through the
simplex."""

import json
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fleetcharge import simulation
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.model import charging_rate, load_scenario, replace
from fleetcharge.planner import (
    _COST_TIE_TOL,
    LPResult,
    _RouteTail,
    _tail_of,
    minimal_rescue_charge,
    solve_charging_problem,
)
from fleetcharge.reports import write_run_outputs

import reference_lp
from conftest import (
    assignment_lp,
    counting_solve_lp,
    make_params,
    make_planner_input,
    make_station,
    planner_inputs,
)

GOLDENS = Path(__file__).parent / "goldens"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _assert_matches_simplex(inp, k: int) -> LPResult:
    """The closed form against the search LP (status and objective) and the
    canonical LP (duration), and the rescue variant at k = 0.

    Within the phase-1 tolerance the simplex may buy past the station's
    cap, where the closed form, like the fill of `solve_lp`, stops at the
    cap. Its charge is then at most that tolerance short of the simplex's,
    and its objective lower by at most what those minutes cost."""
    tail = _tail_of(inp)
    mine = tail.solve((k,))
    search = reference_lp.duration_lp(tail, (k,))
    assert mine.status == search.status
    rate = tail.rates[k]

    def assert_same_charge(reference_t) -> bool:
        """Whether the simplex bought past the cap, after checking the
        closed form's charge against it."""
        cap = tail.walk((k,))[1][0]
        past_cap = reference_t * rate > cap
        assert _close(mine.x[0], cap / rate if past_cap else reference_t)
        return past_cap

    if search.status == "optimal":
        canonical = reference_lp.duration_lp(
            tail, (k,), cost_cap=search.objective + _COST_TIE_TOL, minimize_total_time=True
        )
        assert canonical.status == "optimal"
        if assert_same_charge(canonical.x[0]):
            spare = (tail.minute_cost[k] + inp.params.rho) * 1e-7 / rate
            assert search.objective - spare <= mine.objective
            assert mine.objective <= search.objective * (1 + 1e-12)
        else:
            assert _close(mine.objective, search.objective)
    if k == 0:
        # the rescue charge is the duration, whatever the deadline
        reference = reference_lp.duration_lp(
            tail, (0,), with_overtime=False, minimize_total_time=True
        )
        assert mine.status == reference.status
        if reference.status == "optimal":
            assert_same_charge(reference.x[0])
    return mine


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planner_inputs())
def test_one_stop_solver_matches_the_simplex(inp):
    for k in range(inp.station_count):
        _assert_matches_simplex(inp, k)


def _row_levels(inp, k: int) -> list[float]:
    """Battery level at which each battery row of pattern (k,) is exactly
    met without charging, in row order: the ramps, then the destination."""
    tail = _tail_of(inp)
    strict = inp.require_detour_margin_everywhere
    levels = []
    drain = 0.0
    for l, (floor, drive, stop, _) in enumerate(tail.ramps):
        if strict or l == k:
            levels.append(drain + floor)
        drain += stop if l == k else drive
    return levels + [drain + inp.params.e_safe]


@st.composite
def near_boundary_cases(draw):
    """A one-stop pattern within 2e-7 of a feasibility or lifting boundary:
    the battery at the pattern's no-charge bound (over every row, or over
    the rows the stop cannot lift), or the destination's shortfall at the
    stop's headroom. In the flat mode the ramps up to k share one place
    (strict margin mode), so an earlier ramp with a longer detour can be
    the binding row, and with equal detours every one of them is short
    by the same amount and only their sum exceeds the tolerance."""
    inp = draw(planner_inputs().filter(lambda i: i.station_count > 0))
    k = draw(st.integers(0, inp.station_count - 1))
    offset = draw(st.floats(-2e-7, 2e-7))
    mode = draw(st.sampled_from(["no_charge", "unliftable", "flat", "headroom"]))
    if mode == "flat":
        equal = draw(st.booleans())
        inp = replace(
            inp,
            segment_times=tuple(0.0 if l < k else s for l, s in enumerate(inp.segment_times)),
            detour_times=tuple(
                inp.detour_times[k] if equal and l < k else d
                for l, d in enumerate(inp.detour_times)
            ),
            require_detour_margin_everywhere=True,
        )
        mode = "unliftable"
    levels = _row_levels(inp, k)
    if mode == "headroom":
        tail = _tail_of(inp)
        p = inp.params
        drain = sum(drive for _, drive, _, _ in tail.ramps[:k])
        headroom_level = p.e_full + drain + tail.detour_drain[k]
        segs = list(inp.segment_times)
        segs[-1] += (offset - (levels[-1] - headroom_level)) / p.p_bar
        assume(segs[-1] >= 0.0)
        return replace(inp, segment_times=tuple(segs)), k
    unliftable = levels[: k + 1] if inp.require_detour_margin_everywhere else levels[:1]
    bound = max(levels if mode == "no_charge" else unliftable)
    battery = bound + offset
    assume(battery <= inp.params.e_full)
    return replace(inp, battery=battery), k


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_boundary_cases())
def test_one_stop_solver_matches_the_simplex_near_boundaries(case):
    _assert_matches_simplex(*case)


# -- hand cases ---------------------------------------------------------------


def test_free_charging_still_takes_the_least_time():
    # kappa = 0, price 0 and rho = 0: every feasible duration costs nothing
    params = make_params(kappa=0.0, rho=0.0)
    inp = make_planner_input(
        stations=(make_station(price=0.0),),
        segment_times=(60.0,),
        detour_times=(5.0,),
        battery=200.0,
        params=params,
    )
    rate = charging_rate(inp.stations[0], params)
    shortfall = params.e_safe + params.p_bar * 70.0 - 200.0
    result = _assert_matches_simplex(inp, 0)
    assert result.objective == 0.0
    sol = solve_charging_problem(inp)
    assert sol.plan.decisions[0].duration == result.x[0]
    assert result.x[0] == pytest.approx(shortfall / rate, rel=1e-12)


def _short_ramps_input(short: float, strict: bool):
    # ramps 0-2 all sit ``short`` kWh under the reserve; the destination
    # is 30 minutes further on
    p = make_params()
    return make_planner_input(
        segment_times=(0.0, 0.0, 30.0),
        detour_times=(0.0, 0.0, 0.0),
        battery=p.e_safe - short,
        params=p,
        require_detour_margin_everywhere=strict,
    )


def test_inert_shortfalls_exceed_the_tolerance_only_when_summed():
    # each 4e-8 shortfall is within the 1e-7 phase-1 tolerance; a stop at
    # ramp 2 cannot lift ramps 0-2, and their sum (1.2e-7) is not
    strict = _short_ramps_input(4e-8, strict=True)
    assert _assert_matches_simplex(strict, 2).status == "infeasible"
    assert _assert_matches_simplex(strict, 1).status == "optimal"
    assert _assert_matches_simplex(strict, 0).status == "optimal"
    relaxed = _short_ramps_input(4e-8, strict=False)
    assert _assert_matches_simplex(relaxed, 2).status == "optimal"


@pytest.mark.parametrize("excess, status", [(5e-8, "optimal"), (2e-7, "infeasible")])
def test_capacity_bound_pattern_is_judged_by_the_tolerance(excess, status):
    # the destination is ``excess`` kWh further away than a full charge at
    # station 0 covers. Within the tolerance the charge stops at the cap,
    # as the fill of `solve_lp` does, where the simplex meets the
    # destination row and lets the capacity row give
    p = make_params()
    battery = 300.0
    segment = (p.e_full - p.e_safe + excess) / p.p_bar
    inp = make_planner_input(
        segment_times=(segment,), detour_times=(0.0,), battery=battery, params=p
    )
    result = _assert_matches_simplex(inp, 0)
    assert result.status == status
    if status == "optimal":
        rate = charging_rate(inp.stations[0], p)
        assert result.x[0] * rate <= p.e_full - battery
        reference = assignment_lp(inp, (0,))
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)
        assert reference.x[0] * rate > p.e_full - battery


@pytest.mark.parametrize("excess", [5e-8, 2e-7])
def test_battery_above_capacity_is_refused(excess):
    p = make_params()
    message = f"battery {p.e_full + excess} exceeds battery capacity {p.e_full}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_planner_input(segment_times=(30.0,), detour_times=(0.0,), battery=p.e_full + excess)
    route = _tail_of(make_planner_input(segment_times=(30.0,), detour_times=(0.0,))).route
    with pytest.raises(ValueError, match=re.escape(message)):
        route.at(0, p.e_full + excess, 0.0, 240.0)
    assert route.at(0, p.e_full, 0.0, 240.0).solve((0,)).x[0] == 0.0


def test_rescue_charge_is_the_closed_form_without_the_simplex():
    inp = make_planner_input(
        segment_times=(60.0, 40.0),
        detour_times=(5.0, 3.0),
        battery=200.0,
        remaining_time=0.0,
        require_detour_margin_everywhere=False,
    )
    calls, patch = counting_solve_lp()
    with patch:
        t = minimal_rescue_charge(inp)
    assert calls == []
    reference = assignment_lp(inp, (0,), with_overtime=False, minimize_total_time=True)
    assert _close(t, reference.x[0])
    # the station's own ramp is short beyond the tolerance: nothing helps
    short = replace(inp, battery=inp.params.e_safe + inp.params.p_bar * 5.0 - 2e-7)
    assert assignment_lp(short, (0,), with_overtime=False).status == "infeasible"
    assert minimal_rescue_charge(short) is None


def test_a_one_stop_winner_solves_no_lp():
    inp = make_planner_input(
        segment_times=(60.0, 60.0, 60.0),
        detour_times=(5.0, 5.0, 5.0),
        battery=330.0,
    )
    calls, patch = counting_solve_lp()
    with patch:
        sol = solve_charging_problem(inp)
    assert sol.status == "optimal"
    assert sum(d.charge for d in sol.plan.decisions) == 1
    assert sol.lp_solves == 0
    assert calls == []


# -- whole runs against a simplex-only planner --------------------------------


_closed_form_finish = _RouteTail.finish


def _simplex_finish(self, selected, need, caps, slack):
    """Every pattern with stops that the walk accepts through the simplex,
    as the planner solved them before its closed forms: the search LP's
    objective with the canonical LP's durations, the least total time
    within 1e-9 of the optimum, as ``(x, objective)``. The simplex must
    find each such pattern feasible too. The no-stop closed form already
    returns the simplex's floats."""
    if not selected:
        return _closed_form_finish(self, selected, need, caps, slack)
    search = reference_lp.duration_lp(self, selected)
    assert search.status == "optimal", (selected, search)
    cap = search.objective + _COST_TIE_TOL
    canonical = reference_lp.duration_lp(self, selected, cost_cap=cap, minimize_total_time=True)
    if canonical.status != "optimal":
        return search.x, search.objective
    return tuple(float(v) for v in canonical.x), search.objective


GATE_TEMPLATES = {
    "dense": ScenarioTemplate(
        label="dense",
        truck_count=120,
        station_count=6,
        port_count_range=(1, 2),
        stations_per_route_range=(1, 3),
        depart_window=(300.0, 420.0),
    ),
    "long_haul": ScenarioTemplate(
        label="long_haul",
        truck_count=12,
        station_count=8,
        port_count_range=(1, 2),
        stations_per_route_range=(5, 5),
        segment_time_range=(20.0, 40.0),
        depart_window=(420.0, 600.0),
    ),
    "non_uniform": ScenarioTemplate(
        label="non_uniform",
        truck_count=30,
        station_count=5,
        port_count_range=(1, 2),
        port_power_range=(150.0, 400.0),
        price_range=(0.2, 0.6),
        stations_per_route_range=(2, 4),
        e_initial_range=(220.0, 320.0),
    ),
    # long routes with one price and one power: every multi-stop LP has a
    # face of cost-equal optima, and 478 plans pick a multi-stop winner
    "long_route": ScenarioTemplate(
        label="long_route",
        truck_count=48,
        station_count=24,
        stations_per_route_range=(10, 16),
        segment_time_range=(30.0, 50.0),
        extra_time_budget=480.0,
    ),
    # non-uniform prices and powers on 6-8-station routes: 114 multi-stop
    # winners
    "non_uniform_long": ScenarioTemplate(
        label="non_uniform_long",
        truck_count=24,
        station_count=12,
        port_power_range=(150.0, 400.0),
        price_range=(0.2, 0.6),
        stations_per_route_range=(6, 8),
        segment_time_range=(30.0, 50.0),
        extra_time_budget=480.0,
    ),
}
GATE_SEEDS = {"long_route": 7}
MULTI_STOP_TEMPLATES = ("long_route", "non_uniform_long")


def _gate_scenario(name):
    if name == "golden":
        return load_scenario(str(GOLDENS / "scenario.json"))
    return generate_scenario(GATE_TEMPLATES[name], GATE_SEEDS.get(name, 5))


def _printed_numbers_agree(a: str, b: str, where) -> None:
    """Text outputs print numbers rounded (CSVs to 2 decimals, the
    transcript to 6), so a last-bit difference flips the last printed
    digit of a value on a rounding midpoint (480.825 prints as 480.82 or
    480.83). Tokens must be equal, or be numbers one unit of their last
    printed place apart."""
    tokens_a = re.split(r"([,:{}\[\]\n])", a)
    tokens_b = re.split(r"([,:{}\[\]\n])", b)
    assert len(tokens_a) == len(tokens_b), where
    for x, y in zip(tokens_a, tokens_b):
        if x == y:
            continue
        digits = len(x.partition(".")[2])
        assert digits and len(y.partition(".")[2]) == digits, (where, x, y)
        assert abs(float(x) - float(y)) <= 1.5 * 10.0**-digits, (where, x, y)


def _numbers_agree(a, b, where):
    if isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), where
        for key in a:
            _numbers_agree(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _numbers_agree(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert type(b) is float, where
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (where, a, b)
    else:
        assert a == b, (where, a, b)


@pytest.mark.parametrize("name", ["golden", *GATE_TEMPLATES])
def test_whole_runs_match_the_simplex_planner(name, tmp_path):
    scenario = _gate_scenario(name)
    calls = {}

    def run_all(label):
        counted, patch = counting_solve_lp()
        with patch:
            for strict in (True, False):
                for runner in (simulation.run_offline_baseline, simulation.run_proposed):
                    result = runner(scenario, require_detour_margin_everywhere=strict)
                    assert simulation.audit_run(scenario, result) == []
                    write_run_outputs(result, tmp_path / label / f"{runner.__name__}-{strict}")
        calls[label] = len(counted)
        return {
            p.relative_to(tmp_path / label): p
            for p in sorted((tmp_path / label).rglob("*"))
            if p.is_file()
        }

    closed = run_all("closed")
    # `finish` is every duration solve: the planner's loop, after its
    # walk, and `solve`, which the rescue calls
    with mock.patch.object(_RouteTail, "finish", _simplex_finish):
        simplex = run_all("simplex")
    assert list(closed) == list(simplex) and len(closed) == 20
    for rel, path in closed.items():
        if path.suffix == ".json":
            _numbers_agree(
                json.loads(path.read_text()), json.loads(simplex[rel].read_text()), str(rel)
            )
        else:
            _printed_numbers_agree(path.read_text(), simplex[rel].read_text(), rel)
    assert calls["simplex"] == 0
    if name in MULTI_STOP_TEMPLATES:
        assert calls["closed"] > 0
