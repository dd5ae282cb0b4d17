"""Truck-side charging planner: exact optimization over one remaining route.

Standing at a ramp, a truck faces the remaining stations of its route and
decides, for each one, whether to stop and for how long to charge. The
decision variables are a binary stop choice per station and a continuous
charging duration per chosen stop. The planner minimizes

    kappa * sum over stops of (detour + charge + wait minutes)
  + electricity cost of the energy bought
  + rho * max(anticipated overtime, 0)

subject to never planning the battery below the reserve level and never
charging past capacity. The wait used for the station currently being
negotiated is that station's live quote; stations further ahead get the
truck's assumed wait.

The problem is solved exactly: stop patterns are enumerated level by level,
fewest stops first, and for each pattern the durations form a linear
program with a single epigraph variable for the overtime hinge. Before any
pattern is visited, one pass over the route decides whether any pattern is
feasible at all. It keeps the highest battery level that any choice of
stops so far can reach: at each ramp the truck drives past, or, when the
level meets the bound there, refills to full. A tail with no feasible
pattern is reported infeasible without enumerating anything. The pass,
`_feasible`, lives in `fleetcharge.model` with the ramp checks, because
the scenario generator runs it on every sampled truck without loading
this module.

The no-stop pattern is walked next, and when it is feasible its plan is
returned without visiting any other pattern. No other pattern costs less.
Validation keeps kappa, rho, prices, detours, waits and durations
nonnegative, so each stop adds nonnegative labor, energy cost and
minutes, and every pattern's cost is at least the no-stop pattern's
overtime hinge. That holds in floats too, because round-to-nearest
addition, subtraction and multiplication are monotone. A pattern must be
cheaper by more than the tie tolerance to replace the best, so none can
replace the no-stop plan, even when its hinge is ``inf``. `_feasible`
still runs first: it judges the 1e-7 margin with other float expressions
than the walk, so walking first could turn an infeasible answer into a
plan. Otherwise the levels are visited from one stop on.

Each visited pattern is walked once over its battery rows (see
`_RouteTail.walk`), and that one walk decides it; none of the tests is
heuristic:

* a pattern whose phase-1 residual exceeds the 1e-7 tolerance has no
  feasible durations, and its walk stops at the row that shows it;
* otherwise the walk returns the pattern's cost lower bound: its fixed
  detour-and-wait labor cost, plus the cheapest cost of the energy it
  must buy and the overtime that buying it implies. The durations solved
  from the walk buy at least its last need less the residual, so at
  least that need less 1e-7. Each kWh of it costs at least the pattern's
  cheapest labor-plus-electricity per kWh and takes at least the fastest
  station's minutes, and the overtime hinge is nondecreasing in minutes,
  so no duration LP of the pattern beats the bound. A pattern whose bound
  exceeds the best cost found so far cannot win;
* a pattern that survives both is solved from the same walk.

The energy terms of the bound are nonnegative, so the bound prunes every
pattern whose fixed cost alone exceeds the best. A pattern is skipped only
when its bound exceeds the best cost plus the tie tolerance, while a
solved pattern replaces the best only when it is cheaper by more than that
tolerance, so pruning never changes which pattern wins.

The same bound, taken over a whole level, ends the enumeration. Every
pattern with k or more stops pays at least the k smallest stop labors,
and must buy at least the shortfall at the destination of a no-charge
trajectory that takes the k shortest detours, at the tail's cheapest
per-kWh cost and fastest rate. Once that level bound exceeds the best cost
plus the tie tolerance, no pattern of this level or any later one can
win, and the loop stops. Patterns of the levels it never reaches are never
generated.

No pattern's LP goes through a simplex. The walk gives the simplex's
phase-1 residual, which the 1e-7 tolerance judges for every pattern size,
and each stop's need and cap: the least and the most energy it and the
stops before it buy. The no-stop pattern's only variable is then the
overtime hinge, a one-stop pattern charges its need, up to its cap, over
the station's rate, and a pattern with two or more stops goes to
`solve_lp`. With the need and cap of each stop, the LP is a min-cost flow
on a path, the structure of the gas-station problem (Khuller, Malekian and
Mestre, *To Fill or not to Fill*, 2007), and `solve_lp` fills it exactly.
Each returns the least total charging time among the cost-optimal
durations, so reported plans are unique and replayable.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import Any, Iterable, Sequence

from .model import (
    MAX_ENUMERATED_STATIONS,
    ChargeDecision,
    ChargingPlan,
    StationSpec,
    TruckParams,
    _FEASIBILITY_TOL,
    _check_params,
    _check_ramp_values,
    _check_station,
    _feasible,
    _full_charge_is_finite,
    _price_per_minute_at,
    _ramp_row,
    charging_rate,
    decode_record,
    encode_record,
    ordered_sum,
    record,
)

__all__ = [
    "LPResult",
    "MAX_ENUMERATED_STATIONS",
    "PlannerInput",
    "PlannerSolution",
    "TruckRoute",
    "solve_charging_problem",
    "minimal_rescue_charge",
    "planner_input_from_dict",
    "solution_to_dict",
    "solve_lp",
]

_COST_TIE_TOL = 1e-9

# records are immutable, so every skipped station of every plan shares one
# decision
_SKIP = ChargeDecision(False, 0.0)


@record
class PlannerInput:
    """Everything a truck knows when planning at a ramp.

    Local station index 0 is the station at the current ramp (the one whose
    wait was just quoted); index M-1 is the last reachable station.
    ``segment_times[l]`` is the main-road driving time from ramp ``l`` to
    ramp ``l+1`` (the last entry reaches the destination), so the list has
    one entry per remaining station. ``assumed_waits`` has one entry per
    station beyond the first. ``remaining_time`` is the time budget left
    until the delivery deadline; overshooting it is allowed but penalized.

    ``require_detour_margin_everywhere`` keeps the reserve-plus-detour
    bound active at every remaining ramp, including ones the plan skips;
    switching it off enforces the bound only at planned stops.

    Building one checks the tail's length against the exact-enumeration
    cap, its lists, its per-ramp values as `TruckRoute.at` does, and its
    truck parameters and stations as a scenario's, naming each problem.
    """

    params: TruckParams
    stations: tuple[StationSpec, ...]
    segment_times: tuple[float, ...]
    detour_times: tuple[float, ...]
    battery: float
    quoted_wait: float
    assumed_waits: tuple[float, ...]
    remaining_time: float
    require_detour_margin_everywhere: bool = True

    def __post_init__(self) -> None:
        m = len(self.stations)
        if m > MAX_ENUMERATED_STATIONS:
            raise ValueError(
                f"{m} remaining stations exceeds the exact-enumeration cap "
                f"of {MAX_ENUMERATED_STATIONS}"
            )
        if len(self.segment_times) != m:
            raise ValueError(
                f"expected {m} segment_times (one per remaining station), "
                f"got {len(self.segment_times)}"
            )
        if len(self.detour_times) != m:
            raise ValueError(f"expected {m} detour_times, got {len(self.detour_times)}")
        if len(self.assumed_waits) != max(m - 1, 0):
            raise ValueError(
                f"expected {max(m - 1, 0)} assumed_waits (stations beyond the "
                f"first), got {len(self.assumed_waits)}"
            )
        for name in ("segment_times", "detour_times", "assumed_waits"):
            for i, x in enumerate(getattr(self, name)):
                if not math.isfinite(x) or x < 0:
                    raise ValueError(f"{name}[{i}] must be a finite nonnegative number")
        _check_ramp_values(
            m > 0, self.battery, self.params.e_full, self.quoted_wait, self.remaining_time
        )
        problems: list[str] = []
        _check_params("params", self.params, problems)
        for s in self.stations:
            _check_station(f"station {s.id}", s, problems)
        if not problems:
            for s in self.stations:
                if not _full_charge_is_finite(s, self.params):
                    problems.append(f"station {s.id}: a full charge does not take a finite time")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def station_count(self) -> int:
        return len(self.stations)


@record
class PlannerSolution:
    """status 'optimal' carries a plan; 'infeasible' means no stop pattern
    admits durations that keep the battery above its bounds."""

    status: str
    plan: ChargingPlan | None
    patterns_considered: int
    lp_solves: int


# The fields of one station's row in `TruckRoute.columns`: the station's
# constants beside its battery row, which `TruckRoute.rows` keeps.
(
    _RATE,
    _PRICE,
    _MINUTE_COST,
    _COST_PER_KWH,
    _DETOUR_DRAIN,
    _STOP_MINUTES,
    _SEGMENT,
    _DETOUR,
    _WAIT,
) = range(9)
_FIELDS = 9


class TruckRoute:
    """The per-station constants of one truck's route, which no ramp
    exchange changes.

    Built once per truck, from a validated scenario or planner input. Each
    station has a battery row, its `_ramp_row`, in ``rows``, and a row of
    constants in ``columns``: its charging rate, per-minute electricity
    price, labor-plus-electricity cost per charging minute and per kWh,
    detour drain, the fixed minutes ``2d + w`` of a stop with its assumed
    wait, and its segment, detour and assumed wait. Station l is reached
    from ramp l (0-based), its segment drives from ramp l to the next ramp
    or, for the last, to the destination, and its wait is the one assumed
    while planning from an earlier ramp.

    `at` gives the planner's view from one ramp by slicing. The tail's
    battery rows, which `_feasible` and every walk read row by row, are
    one slice of ``rows``. The constants are interleaved in one flat
    tuple, so that a field of every station from ramp i on is one
    extended slice. Only the stop labor under the live quote, three scalar
    checks and the driving time left are computed per ramp; the last is an
    `ordered_sum` of the remaining segments, because a truck plans at each
    ramp once and a table of suffix sums would cost a one-off route O(m^2)
    additions.

    A truck keeps its route between exchanges, and each object the route
    holds is young in the garbage collections that land in exchanges and
    adds to their cost, so the constants stay in one tuple. The battery
    rows are built anyway, and keeping them spares every exchange zipping
    m new rows from four slices. With them, and with the solver's no-stop
    exit, the exchange p99 on the benchmark's dense fleet (seed 7, 2 vCPU,
    CPython 3.11.7, medians of 10 runs) went from 0.0227 to 0.0194 ms.
    """

    __slots__ = ("params", "strict", "station_count", "rows", "columns")

    def __init__(
        self,
        params: TruckParams,
        stations: Sequence[StationSpec],
        segment_times: Sequence[float],
        detour_times: Sequence[float],
        waits: Sequence[float],
        strict: bool,
    ) -> None:
        self.params = params
        self.strict = strict
        self.station_count = len(stations)
        rows = []
        columns: list[float] = []
        for station, d, s, w in zip(stations, detour_times, segment_times, waits):
            rate = charging_rate(station, params)
            price = _price_per_minute_at(station, rate)
            # labor plus electricity per charging minute, and per kWh bought
            minute_cost = params.kappa + price
            rows.append(_ramp_row(params, d, s))
            columns += (
                rate,
                price,
                minute_cost,
                minute_cost / rate,
                params.p_bar * d,
                2.0 * d + w,
                s,
                d,
                w,
            )
        self.rows = tuple(rows)
        self.columns = tuple(columns)

    @classmethod
    def of_input(cls, inp: PlannerInput) -> TruckRoute:
        """The route of a planner input; its first station's assumed wait,
        never used, is 0."""
        return cls(
            inp.params,
            inp.stations,
            inp.segment_times,
            inp.detour_times,
            (0.0,) + inp.assumed_waits,
            inp.require_detour_margin_everywhere,
        )

    def detour_time(self, i: int) -> float:
        """The one-way detour from ramp i to its station."""
        return self.columns[_FIELDS * i + _DETOUR]

    def at(
        self, i: int, battery: float, quoted_wait: float, remaining_time: float
    ) -> _RouteTail:
        """The route tail from ramp i, reached with ``battery``, under
        station i's live ``quoted_wait``, with ``remaining_time`` minutes
        left until the deadline. The three values get `PlannerInput`'s
        checks and messages."""
        _check_ramp_values(
            i < self.station_count, battery, self.params.e_full, quoted_wait, remaining_time
        )
        c, o, n = self.columns, _FIELDS * i, _FIELDS
        tail = object.__new__(_RouteTail)
        tail.route = self
        tail.start = i
        tail.battery = battery
        tail.quoted_wait = quoted_wait
        tail.remaining_time = remaining_time
        tail.ramps = self.rows[i:]
        tail.rates = c[o + _RATE :: n]
        tail.minute_cost = c[o + _MINUTE_COST :: n]
        tail.cost_per_kwh = c[o + _COST_PER_KWH :: n]
        tail.detour_drain = c[o + _DETOUR_DRAIN :: n]
        # fixed minutes of a stop: the detour both ways plus the wait
        if i < self.station_count:
            tail.labor = (2.0 * c[o + _DETOUR] + quoted_wait,) + c[o + n + _STOP_MINUTES :: n]
        else:
            tail.labor = ()
        tail.seg_total = ordered_sum(c[o + _SEGMENT :: n])
        tail.level_table = None  # built by the first `level_bound`
        return tail


def _tail_of(inp: PlannerInput) -> _RouteTail:
    """The route tail of a planner input: its one-off route at its first
    ramp."""
    return TruckRoute.of_input(inp).at(0, inp.battery, inp.quoted_wait, inp.remaining_time)


class _RouteTail:
    """A truck's route from one ramp on: the slices of its `TruckRoute`,
    the battery, the live quote and the remaining time, and the
    per-pattern computations that share them: one walk over the pattern's
    battery rows, which gives its cost lower bound and its duration LP.

    `TruckRoute.at` makes every tail; a planner input's is its one-off
    route's at the first ramp, `_tail_of`.
    """

    __slots__ = (
        "route",
        "start",
        "battery",
        "quoted_wait",
        "remaining_time",
        "ramps",
        "rates",
        "minute_cost",
        "cost_per_kwh",
        "labor",
        "detour_drain",
        "seg_total",
        "level_table",
    )

    def cost(self, decisions: Sequence[ChargeDecision]) -> tuple[float, float]:
        """Exact objective value and overtime of a plan's decisions for this
        tail, as (cost, overtime), from the route's per-minute prices."""
        route = self.route
        c = route.columns
        p = route.params
        labor_minutes = 0.0
        energy_cost = 0.0
        spent = self.seg_total
        for l, dec in enumerate(decisions):
            if dec.charge:
                row = _FIELDS * (self.start + l)
                wait = self.quoted_wait if l == 0 else c[row + _WAIT]
                minutes = 2.0 * c[row + _DETOUR] + dec.duration + wait
                labor_minutes += minutes
                energy_cost += c[row + _PRICE] * dec.duration
                spent += minutes
        overtime = spent - self.remaining_time
        return p.kappa * labor_minutes + energy_cost + max(p.rho * overtime, 0.0), overtime

    def level_bound(self, k: int) -> float:
        """A lower bound on the cost of every pattern with k or more stops.

        It is `walk`'s bound with each pattern quantity replaced by its
        least value over those patterns: the k smallest stop labors, the
        shortfall at the destination of the no-charge trajectory that takes
        the k shortest detours, and the whole tail's cheapest per-kWh cost
        and fastest rate. It never decreases with k.

        The first call builds the tail's `level_table`: the running sums,
        from the integer 0, of the sorted stop labors and of the sorted
        detour drains, the drive past every ramp, the cheapest per-kWh cost
        and the fastest rate. A running sum adds what `ordered_sum` of the
        k smallest adds, in the same order, so the table changes no bit.
        """
        table = self.level_table
        if table is None:
            table = self.level_table = (
                tuple(accumulate(sorted(self.labor), initial=0)),
                tuple(accumulate(sorted(self.detour_drain), initial=0)),
                ordered_sum([drive for _, drive, _, _ in self.ramps]),
                min(self.cost_per_kwh),
                max(self.rates),
            )
        labors, drains, drive, cheapest, fastest = table
        p = self.route.params
        fixed = labors[k]
        shortfall = p.e_safe - self.battery + drive + 2.0 * drains[k] - _FEASIBILITY_TOL
        need = max(shortfall, 0.0)
        lower = p.kappa * fixed + cheapest * need
        overtime = self.seg_total - self.remaining_time + fixed + need / fastest
        return lower + max(p.rho * overtime, 0.0)

    def walk(
        self, selected: Sequence[int]
    ) -> tuple[list[float], list[float], float, float, float] | None:
        """The duration LP of one stop pattern and its cost lower bound,
        from one walk over the tail's battery rows: ``(need, caps, slack,
        lower, const)``, or None when the pattern has no feasible durations.

        The walk accumulates the drain reaching each ramp (every segment
        and planned detour before it). A battery row is a ramp (every one
        in strict margin mode, only the planned stops otherwise) or the
        destination, and its shortfall ``-(battery - drain - bound)`` is
        the energy the stops before it must buy. Stop i's cap, its headroom
        ``e_full - battery + drain + detour drain``, is the most energy
        stops 0..i may buy together. Caps never decrease along a pattern
        (each exceeds the one before by the drain between the two stops),
        so the stops before a row can lift it by at most the last one's
        cap.

        The walk sums, in row order, each row's excess over the cap of its
        last preceding stop (over 0 when no stop precedes it): the
        simplex's phase-1 optimum. The residual never decreases along the
        walk, so the pattern is infeasible, and the walk stops, at the
        first row that takes it past the 1e-7 tolerance. Otherwise the walk
        returns:

        * ``need[i]``, the least energy stops 0..i must buy: the largest
          shortfall of the rows that stop i and its predecessors lift;
        * ``caps[i]``;
        * ``slack``, the minutes left before the deadline after driving
          and the stops' fixed labor;
        * ``lower``, the cost lower bound the module docstring derives, and
          ``const``, the stops' fixed labor cost, which is added to the LP
          optimum to give the pattern's reported cost.
        """
        p = self.route.params
        strict = self.route.strict
        battery = self.battery
        headroom = p.e_full - battery
        detour_drain, labor = self.detour_drain, self.labor
        rates, cost_per_kwh = self.rates, self.cost_per_kwh
        residual = 0.0
        need: list[float] = []
        caps: list[float] = []
        cap = 0.0  # the stops before the first buy nothing
        lifted = 0.0  # the largest shortfall of the rows the stops so far lift
        drain = 0.0
        fixed = 0  # the stops' labor, summed as `ordered_sum` does
        cheapest = math.inf
        fastest = 0.0
        for l, (floor, drive, stop, _) in enumerate(self.ramps):
            planned = l in selected
            if strict or planned:
                short = -1.0 * (battery - drain - floor)
                if short > cap:
                    residual += short - cap
                    if residual > _FEASIBILITY_TOL:
                        return None
                if caps and short > lifted:
                    lifted = short
            if planned:
                if caps:
                    need.append(lifted)
                cap = headroom + drain + detour_drain[l]
                caps.append(cap)
                fixed += labor[l]
                if cost_per_kwh[l] < cheapest:
                    cheapest = cost_per_kwh[l]
                if rates[l] > fastest:
                    fastest = rates[l]
                drain += stop
            else:
                drain += drive
        short = -1.0 * (battery - drain - p.e_safe)  # the destination's row
        if short > cap:
            residual += short - cap
            if residual > _FEASIBILITY_TOL:
                return None
        const = p.kappa * fixed
        lower = const
        overtime = self.seg_total - self.remaining_time + fixed
        if caps:
            last = max(lifted, short)
            need.append(last)
            energy = last - _FEASIBILITY_TOL
            if energy > 0.0:
                lower += cheapest * energy
                overtime += energy / fastest
        hinge = p.rho * overtime
        if hinge > 0.0:
            lower += hinge
        return need, caps, self.remaining_time - (self.seg_total + fixed), lower, const

    def solve(self, selected: Sequence[int]) -> LPResult:
        """The duration LP of one stop pattern: infeasible when its walk
        is, else `finish` of the walk."""
        walked = self.walk(selected)
        if walked is None:
            return _INFEASIBLE
        return LPResult("optimal", *self.finish(selected, *walked[:3]))

    def finish(
        self, selected: Sequence[int], need: list[float], caps: list[float], slack: float
    ) -> tuple[tuple[float, ...], float]:
        """The optimal durations of a feasible stop pattern, from the
        ``need``, ``caps`` and ``slack`` of its walk, as ``(x, objective)``
        of an optimal `LPResult`.

        The only variable of the no-stop pattern is the overtime hinge. The
        objective is nondecreasing in a single stop's duration, so one stop
        charges its need, up to its cap, over its rate. Two or more stops go
        to `solve_lp`. Both closed forms return what `solve_lp` returns on
        the walk's output.
        """
        rho = self.route.params.rho
        if not selected:
            b_overtime = rho * slack
            z = -1.0 * b_overtime if b_overtime < 0 else 0.0
            return (z,), z
        if len(selected) == 1:
            k = selected[0]
            t = min(need[0], caps[0]) / self.rates[k]
            z = max(rho * (t - slack), 0.0)
            return (t, z), self.minute_cost[k] * t + z
        rates = [self.rates[l] for l in selected]
        costs = [self.minute_cost[l] for l in selected]
        result = solve_lp(need, caps, rates, costs, rho, slack)
        return result.x, result.objective


_KEY_TOL = 1e-12


@record
class LPResult:
    """status is 'optimal' or 'infeasible'; x (the durations in pattern
    order, then the overtime hinge z) and objective are populated only
    when status is 'optimal'. `solve_lp` is given feasible patterns only,
    so 'infeasible' is the planner's verdict on a pattern's walk."""

    status: str
    x: tuple[float, ...] | None
    objective: float | None


_INFEASIBLE = LPResult("infeasible", None, None)


def solve_lp(
    need: Sequence[float],
    caps: Sequence[float],
    rates: Sequence[float],
    minute_costs: Sequence[float],
    rho: float,
    slack: float,
) -> LPResult:
    """Minimize ``sum(minute_costs[i] * t[i]) + z`` over charging minutes
    ``t >= 0`` and the hinge ``z >= max(rho * (sum(t) - slack), 0)``.

    Stops 0..i must buy at least ``need[i]`` and may buy at most
    ``caps[i]`` together, and stop i charges ``rates[i]`` kWh per minute.
    Both bounds never decrease with i.

    The forward fill at a price ``lam`` per minute lets each stop buy up to
    the need before the next stop whose key ``(minute_cost + lam) / rate``
    is no worse, or everything still needed when there is none, and never
    past its cap. Keys within 1e-12 relative are equal (two stations a
    price and a port power apart can cost the same per kWh, up to
    rounding); ties go to the faster stop, then to the later one. That fill
    is the least-time optimum among the cost-optimal durations at ``lam``.
    ``lam`` is 0 when that fill's minutes fit the slack, and rho when even
    the rho-keyed fill overruns it. Otherwise the minutes cross the slack
    at a breakpoint, a ``lam`` where two keys tie, and the durations are
    the convex combination of the fills on either side of it whose minutes
    use the slack exactly.
    """
    k = len(caps)

    def fill(lam: float) -> list[float]:
        """The charging minutes of the forward fill at price ``lam``."""
        keys = [(c + lam) / r for c, r in zip(minute_costs, rates)]
        bought = 0.0
        minutes = []
        for i in range(k):
            key, rate = keys[i], rates[i]
            target = need[-1]
            for j in range(i + 1, k):
                other = keys[j]
                tied = abs(other - key) <= _KEY_TOL * max(other, key)
                if (other < key and not tied) or (tied and rates[j] >= rate):
                    target = need[j - 1]
                    break
            target = min(target, caps[i])
            if target > bought:
                minutes.append((target - bought) / rate)
                bought = target
            else:
                minutes.append(0.0)
        return minutes

    t = fill(0.0)
    if rho > 0 and ordered_sum(t) > slack:
        t = fill(rho)
        if ordered_sum(t) <= slack:
            # the keys of stops i and j tie at lam; the fill at 0 overruns
            # the slack and the fill at rho fits it
            ties = {0.0, rho}
            for i in range(k):
                for j in range(i + 1, k):
                    if rates[i] != rates[j]:
                        lam = (rates[i] * minute_costs[j] - rates[j] * minute_costs[i]) / (
                            rates[j] - rates[i]
                        )
                        if 0 < lam < rho:
                            ties.add(lam)
            breaks = sorted(ties)
            # bisect for the first breakpoint whose fill fits the slack:
            # minutes never grow with lam
            lo, hi = 1, len(breaks) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if ordered_sum(fill(breaks[mid])) <= slack:
                    hi = mid
                else:
                    lo = mid + 1
            left, right = fill(breaks[lo - 1]), fill(breaks[lo])
            over, under = ordered_sum(left), ordered_sum(right)
            theta = (slack - under) / (over - under)
            t = [b + theta * (a - b) for a, b in zip(left, right)]
    z = max(rho * (ordered_sum(t) - slack), 0.0)
    objective = ordered_sum(c * minutes for c, minutes in zip(minute_costs, t)) + z
    return LPResult("optimal", (*t, z), objective)


def _level_patterns(m: int, k: int) -> Iterable[tuple[int, ...]]:
    """The stop patterns with k stops, as index tuples, in tie-break order:
    by the pattern's bit string (bit i set when station i is a stop), which
    is reversed lexicographic order. Levels are visited fewest stops first
    and the first cost-tied pattern wins, so ties prefer fewer stops, then
    later stations: for m = 3 the order is (), (2,), (1,), (0,), (1, 2),
    (0, 2), (0, 1), (0, 1, 2)."""
    return reversed(list(combinations(range(m), k)))


def solve_charging_problem(inp: PlannerInput | _RouteTail) -> PlannerSolution:
    """Exactly solve the stop-and-duration problem for one route tail,
    given as a planner input or as a `TruckRoute.at` tail.

    Returns 'infeasible' at once when no pattern passes the charge-to-full
    test, and the all-skip plan, after one walk, when the no-stop pattern
    is feasible: no pattern costs less (module docstring). Otherwise
    enumerates stop patterns level by level from one stop on, walks each
    once, skips it when the walk's residual exceeds the
    1e-7 tolerance or its bound exceeds the best cost, finishes the
    duration LP of each other pattern from the same walk, and keeps the
    cheapest; cost ties within 1e-9 keep the earlier pattern. The first
    feasible pattern is the incumbent even when its cost overflows to
    ``inf`` (or to NaN, which counts as ``inf``), so a feasible tail is
    never reported infeasible. The loop stops at the first level whose
    level bound exceeds the best cost plus that tolerance. The bound is
    taken only once some pattern has been solved, and not for the last
    level, a single pattern that its own bound covers.
    ``patterns_considered`` counts the patterns visited, the no-stop
    pattern among them, and ``lp_solves`` the `solve_lp` calls, one per
    feasible pattern with two or more stops.
    """
    tail = inp if isinstance(inp, _RouteTail) else _tail_of(inp)
    route = tail.route
    if not _feasible(route.strict, tail.battery, route.params.e_safe, tail.ramps):
        return PlannerSolution("infeasible", None, 0, 0)
    m = len(tail.rates)
    if tail.walk(()) is not None:
        # no pattern costs less than the no-stop pattern (module docstring)
        decisions = (_SKIP,) * m
        cost, overtime = tail.cost(decisions)
        return PlannerSolution("optimal", ChargingPlan(decisions, cost, overtime), 1, 0)
    best_cost = math.inf
    best_selected: tuple[int, ...] | None = None
    best_x: tuple[float, ...] = ()
    lp_solves = 0
    considered = 1
    for k in range(1, m + 1):
        if best_cost < math.inf and k < m and tail.level_bound(k) > best_cost + _COST_TIE_TOL:
            break
        for selected in _level_patterns(m, k):
            considered += 1
            walked = tail.walk(selected)
            if walked is None:
                continue
            need, caps, slack, lower, const = walked
            if lower > best_cost + _COST_TIE_TOL:
                continue
            x, objective = tail.finish(selected, need, caps, slack)
            if len(selected) > 1:
                lp_solves += 1
            cost = objective + const
            if best_selected is None or cost < best_cost - _COST_TIE_TOL:
                # a NaN cost counts as inf
                best_cost = cost if cost == cost else math.inf
                best_selected = selected
                best_x = x

    if best_selected is None:
        return PlannerSolution("infeasible", None, considered, lp_solves)

    plan_decisions = [_SKIP] * m
    for l, duration in zip(best_selected, best_x):
        plan_decisions[l] = ChargeDecision(True, duration)
    decisions = tuple(plan_decisions)
    cost, overtime = tail.cost(decisions)
    plan = ChargingPlan(decisions, cost, overtime)
    return PlannerSolution("optimal", plan, considered, lp_solves)


def minimal_rescue_charge(inp: PlannerInput | _RouteTail) -> float | None:
    """Smallest charge (minutes) at the current station that keeps the rest
    of the route above the battery bounds, ignoring the deadline entirely.

    Used when the regular problem is infeasible and the truck is already at
    a ramp with a port available: buy just enough energy to stay safe, eat
    the overtime. Returns None when even that does not exist (the truck is
    stranded).

    When `_feasible` passes on a tail that `solve_charging_problem` then
    finds infeasible, this returns None by construction: the no-stop exit
    needs a feasible pattern, and no bound prunes and no level cutoff is
    taken before some pattern is solved, so every pattern was walked,
    ``(0,)`` among them, and each walk left a residual above the
    tolerance. ``tail.solve((0,))`` is that same walk, so it
    fails too. When `_feasible` fails, pattern ``(0,)``'s charge-to-full
    trajectory dips below a bound by more than 1e-7, which in exact
    arithmetic is a walk residual as large; the two compute it with
    different float expressions.
    """
    tail = inp if isinstance(inp, _RouteTail) else _tail_of(inp)
    if not tail.rates:
        return None
    result = tail.solve((0,))
    if result.status != "optimal":
        return None
    return result.x[0]


# -- JSON shapes for the command-line planner ---------------------------------


def planner_input_from_dict(doc: dict[str, Any]) -> PlannerInput:
    """Build a planner input from parsed JSON (the CLI's `plan` payload).

    The payload is decoded as the input's fields, with ``quoted_wait`` and
    ``assumed_waits`` defaulting to no live quote and no assumed waits. A
    mistyped field, or a value that `PlannerInput`'s own checks refuse,
    raises ValueError with the path ``planner input``.
    """
    return decode_record(
        PlannerInput, {"quoted_wait": 0.0, "assumed_waits": [], **doc}, "planner input"
    )


def solution_to_dict(solution: PlannerSolution) -> dict[str, Any]:
    """The status, then the plan's fields when there is one."""
    doc: dict[str, Any] = {"status": solution.status}
    if solution.plan is not None:
        doc.update(encode_record(solution.plan))
    return doc
