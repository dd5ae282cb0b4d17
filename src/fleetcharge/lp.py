"""The duration LP of one stop pattern, solved exactly without a simplex.

With the stops of a pattern fixed, the LP chooses how long to charge at
each. Every battery row bounds a prefix sum of the energy bought: a ramp
or the destination needs at least its shortfall bought at the stops
before it, and a stop may hold no more than the headroom it reaches with.
The overtime hinge ``z >= rho * (minutes - slack)`` prices the charging
minutes beyond the slack left after driving and the stops' fixed labor.
That is a min-cost flow on a path, the structure of the gas-station
problem (Khuller, Malekian and Mestre, *To Fill or not to Fill*, 2007).

The planner's walk over a pattern's battery rows (`planner._RouteTail.walk`)
judges feasibility, the simplex's phase 1 in closed form, and reduces the
rows to two bounds per stop: the energy bought up to the stop is at least
its need, the largest shortfall of the rows it and its predecessors lift,
and at most its cap. `solve_lp` takes those bounds of a feasible pattern
and finds the durations:

* A forward fill at a price ``lam`` per minute: each stop buys up to the
  need before the next stop whose key ``(minute_cost + lam) / rate`` is no
  worse, or everything still needed when there is none, and never past
  its cap. Keys within 1e-12 relative are equal (two stations a price and
  a port power apart can cost the same per kWh, up to rounding); ties go
  to the faster stop, then to the later one. That fill is the least-time
  optimum among the cost-optimal durations at ``lam``.
* ``lam`` = 0 when that fill's minutes fit the slack, and ``lam`` = rho
  when even the rho-keyed fill overruns it. Otherwise the minutes cross
  the slack at a breakpoint, a ``lam`` where two keys tie. The durations
  are then the convex combination of the fills on either side of it
  whose minutes use the slack exactly.
"""

from __future__ import annotations

from typing import Sequence

from .model import ordered_sum, record

__all__ = ["LPResult", "solve_lp"]

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
