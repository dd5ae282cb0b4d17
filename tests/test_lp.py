"""Simplex solver checked against independent reference implementations.

The package solves its duration programs with its own solver; scipy serves
here purely as a reference answer, never as the production path. The numpy
tableau the solver replaced must pivot identically on every duration LP
the planner builds.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from fleetcharge import planner
from fleetcharge.lp import solve_lp

import reference_lp
from conftest import planner_inputs
from reference_planner import stop_patterns


def test_trivial_minimum_at_origin():
    r = solve_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [10.0, 10.0])
    assert r.status == "optimal"
    assert r.objective == pytest.approx(0.0, abs=1e-12)
    assert list(r.x) == [0.0, 0.0]


def test_known_two_variable_program():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  x = 8/5, y = 6/5
    r = solve_lp([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    assert r.status == "optimal"
    assert r.objective == pytest.approx(-(8.0 / 5.0 + 6.0 / 5.0), abs=1e-9)
    assert r.x[0] == pytest.approx(8.0 / 5.0, abs=1e-9)
    assert r.x[1] == pytest.approx(6.0 / 5.0, abs=1e-9)


def test_negative_rhs_needs_phase_one():
    # x >= 3 encoded as -x <= -3, minimize x
    r = solve_lp([1.0], [[-1.0]], [-3.0])
    assert r.status == "optimal"
    assert r.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_program_is_reported():
    # x <= 1 and x >= 2
    r = solve_lp([1.0], [[1.0], [-1.0]], [1.0, -2.0])
    assert r.status == "infeasible"


def test_unbounded_program_is_reported():
    r = solve_lp([-1.0], [[-1.0]], [0.0])
    assert r.status == "unbounded"


def test_degenerate_ties_terminate():
    # several redundant rows through the same vertex
    c = [-1.0, -1.0]
    a = [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [1.0, 0.0]]
    b = [2.0, 4.0, 2.0, 2.0]
    r = solve_lp(c, a, b)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(-2.0, abs=1e-9)


def _random_program(rng: np.random.RandomState):
    m = rng.randint(1, 7)
    n = rng.randint(1, 7)
    a = rng.randint(-4, 5, size=(m, n)) / 2.0
    b = rng.randint(-4, 9, size=m) / 2.0
    c = rng.randint(-4, 5, size=n) / 2.0
    return c.tolist(), a.tolist(), b.tolist()


def test_random_programs_match_reference():
    rng = np.random.RandomState(20240817)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        c, a, b = _random_program(rng)
        mine = solve_lp(c, a, b)
        assert mine.status == reference_lp.solve_lp(c, a, b).status, (c, a, b)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        if ref.status == 0:
            assert mine.status == "optimal", (c, a, b)
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7)
            x = np.asarray(mine.x)
            assert np.all(x >= -1e-9)
            assert np.all(np.asarray(a) @ x <= np.asarray(b) + 1e-7)
        elif ref.status == 2:
            assert mine.status == "infeasible", (c, a, b)
        elif ref.status == 3:
            assert mine.status == "unbounded", (c, a, b)
        statuses[mine.status] += 1
    # the generator must actually exercise all three outcomes
    assert min(statuses.values()) > 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planner_inputs())
def test_duration_lps_match_the_numpy_reference(inp):
    programs = []

    def recording(c, a_ub, b_ub):
        programs.append((c, a_ub, b_ub))
        return solve_lp(c, a_ub, b_ub)

    with mock.patch.object(planner, "solve_lp", recording):
        tail = planner._RouteTail(inp)
        for selected in stop_patterns(inp.station_count):
            tail.lp(selected)
        # the canonical (cost_cap + minimize_total_time) and rescue variants
        planner.solve_charging_problem(inp)
        planner.minimal_rescue_charge(inp)
    for c, a, b in programs:
        mine = solve_lp(c, a, b)
        ref = reference_lp.solve_lp(c, a, b)
        assert mine.status == ref.status, (c, a, b)
        if ref.status == "optimal":
            assert [v.hex() for v in mine.x] == [float(v).hex() for v in ref.x], (c, a, b)
            assert abs(mine.objective - ref.objective) <= 1e-12 * max(1.0, abs(ref.objective))
