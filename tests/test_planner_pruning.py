"""Lower-bound pruning: the planner agrees with the enumerate-everything
reference plan for plan, and the bound never exceeds a pattern's optimum."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge import protocol, simulation
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.planner import (
    PlannerInput,
    _assignment_lp,
    _pattern_bounds,
    _stop_patterns,
    solve_charging_problem,
)
from fleetcharge.reports import write_run_outputs

from conftest import make_params, make_station
from reference_planner import reference_solve_charging_problem


def _tenths(lo: float, hi: float):
    return st.integers(round(lo * 10), round(hi * 10)).map(lambda k: k / 10)


@st.composite
def planner_inputs(draw) -> PlannerInput:
    m = draw(st.integers(0, 8))
    stations = tuple(
        make_station(
            f"s{l + 1:02d}",
            port_power=float(draw(st.integers(150, 400))),
            price=draw(st.integers(20, 60)) / 100,
        )
        for l in range(m)
    )
    e_full = draw(st.sampled_from([624.0, 312.0]))
    params = make_params(
        e_full=e_full,
        e_safe=e_full / 4,
        rho=draw(st.sampled_from([0.0, 1.0, 10.0, 100.0])),
        kappa=draw(st.sampled_from([0.0, 0.4])),
    )
    segs = tuple(draw(_tenths(20.0, 90.0)) for _ in range(m))
    return PlannerInput(
        params=params,
        stations=stations,
        segment_times=segs,
        detour_times=tuple(draw(_tenths(0.0, 14.0)) for _ in range(m)),
        # mostly enough to reach the first station, so few inputs are hopeless
        battery=draw(_tenths(params.e_safe + 10.0, params.e_full)),
        quoted_wait=draw(_tenths(0.0, 40.0)),
        assumed_waits=tuple(draw(_tenths(0.0, 40.0)) for _ in range(max(m - 1, 0))),
        remaining_time=round(draw(st.floats(0.3, 1.3)) * (sum(segs) + 60.0), 1),
        require_detour_margin_everywhere=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planner_inputs())
def test_pruned_planner_matches_reference(inp):
    pruned = solve_charging_problem(inp)
    reference = reference_solve_charging_problem(inp)
    assert pruned.status == reference.status
    assert pruned.plan == reference.plan
    assert pruned.patterns_considered == reference.patterns_considered
    assert pruned.lp_solves <= reference.lp_solves


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planner_inputs())
def test_pattern_bound_never_exceeds_the_lp_optimum(inp):
    bound = _pattern_bounds(inp)
    for selected in _stop_patterns(inp.station_count):
        result = _assignment_lp(inp, selected)
        if result.status != "optimal":
            continue
        bounds = bound(selected)
        assert bounds is not None, f"pattern {selected} has an optimum but no bound"
        lower, const = bounds
        assert lower <= float(result.objective) + const + 1e-9


def test_whole_run_outputs_match_the_reference_planner(tmp_path, monkeypatch):
    template = ScenarioTemplate(
        label="pruning",
        truck_count=8,
        station_count=5,
        port_count_range=(1, 1),
        port_power_range=(150.0, 400.0),
        price_range=(0.2, 0.6),
        stations_per_route_range=(3, 5),
        e_initial_range=(220.0, 320.0),
        depart_window=(480.0, 520.0),
    )
    scenario = generate_scenario(template, 1)
    lp_solves = {}

    def run_all(name, planner):
        def counted(inp):
            solution = planner(inp)
            lp_solves[name] = lp_solves.get(name, 0) + solution.lp_solves
            return solution

        monkeypatch.setattr(simulation, "solve_charging_problem", counted)
        monkeypatch.setattr(protocol, "solve_charging_problem", counted)
        for runner in (simulation.run_offline_baseline, simulation.run_proposed):
            write_run_outputs(runner(scenario), tmp_path / name / runner.__name__)
        return {
            p.relative_to(tmp_path / name): p.read_bytes()
            for p in sorted((tmp_path / name).rglob("*"))
            if p.is_file()
        }

    pruned = run_all("pruned", solve_charging_problem)
    reference = run_all("reference", reference_solve_charging_problem)
    assert len(pruned) == 10
    assert pruned == reference
    assert lp_solves["pruned"] < lp_solves["reference"]
