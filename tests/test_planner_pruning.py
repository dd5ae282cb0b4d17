"""Lower-bound pruning: the planner agrees with the enumerate-everything
reference plan for plan, and the bound never exceeds a pattern's optimum."""

from hypothesis import given, settings

from fleetcharge import protocol, simulation
from fleetcharge.generator import ScenarioTemplate, generate_scenario
from fleetcharge.planner import _RouteTail, _stop_patterns, solve_charging_problem
from fleetcharge.reports import write_run_outputs

from conftest import assignment_lp, planner_inputs
from reference_planner import reference_solve_charging_problem


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
    bound = _RouteTail(inp).bound
    for selected in _stop_patterns(inp.station_count):
        result = assignment_lp(inp, selected)
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
