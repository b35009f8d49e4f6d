"""Fleet sizing and hub placement on top of the star-network analysis.

Feasibility compares deliverable truckloads per day against daily demand;
``meets_demand`` decides it for every caller: a fleet of N trucks meets
demand when

    capacity * TH_w(N) * hours_per_day >= total demand per day.

Warehouse throughput TH_w(N) rises strictly with N but never reaches the
saturation ceiling min(mu_1 s_1, min_j mu_j s_j / rho_j), so a scenario
whose demand sits at or above the ceiling is infeasible outright.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .scenario import Point, Scenario
from .star import (HUB_VISIT_RATIO, AggregatedConvolution, StarAnalysis, StarNetwork,
                   analyze, bottleneck, build_star, station_loads)
from .weber import WeberProblem, solve_weber


@dataclass(frozen=True, slots=True)
class FleetResult:
    """Outcome of the minimal-fleet search at one hub location.

    ``throughput_per_day`` is TH_w * hours_per_day at the chosen fleet; for
    a ceiling-infeasible scenario no fleet was evaluated and it is NaN, for
    a fleet-cap-infeasible one it is the value at max_trucks.  Demand and
    the saturation ceiling belong to the scenario: see ``bottleneck``.

    ``iterations`` is the fleet size the scan reached: the answer, or
    max_trucks when no fleet meets demand, or 0 when the ceiling rules
    every fleet out.  The scan starts at the demand bound, so it evaluates
    only the sizes from there up to ``iterations``.
    """

    trucks: int | None
    throughput_per_day: float
    iterations: int
    infeasibility_reason: str | None = None  # "ceiling" | "max_trucks"

    @property
    def feasible(self) -> bool:
        return self.infeasibility_reason is None


# relative slack on the demand bound, and the rate search's band around the
# need, far above the rounding in computing either
_BOUND_MARGIN = 1e-9


def meets_demand(scenario: Scenario, agg: AggregatedConvolution, trucks: int) -> bool:
    """Whether ``trucks`` trucks meet demand with the hub where ``agg`` has
    it: capacity * TH_w(N) * hours_per_day >= total demand per day."""
    if trucks < 1:
        return False
    th_day = agg.warehouse_throughput(trucks) * scenario.hours_per_day
    return scenario.truck_capacity * th_day >= scenario.total_demand_per_day


def _need(scenario: Scenario) -> float:
    """The overall throughput TH(N) per hour that meets demand."""
    return scenario.total_demand_per_day / (
        scenario.truck_capacity * HUB_VISIT_RATIO * scenario.hours_per_day)


def _fleet_bound(scenario: Scenario, star: StarNetwork) -> float:
    """No fleet below this meets demand.

    By the asymptotic bound of operational analysis (Denning & Buzen 1978),
    TH(N) <= N / (kappa + sum of the hub and dock loads): a cycle takes at
    least its travel and service demand.  A fleet that meets demand has
    TH(N) >= need, so N >= need * (kappa + sum of loads)."""
    return _need(scenario) * (star.kappa + math.fsum(x for x, _ in station_loads(scenario)))


def min_trucks(scenario: Scenario, center: Point) -> FleetResult:
    """Smallest fleet whose deliverable volume covers daily demand.

    The scan starts at the demand bound (``_fleet_bound``), which rules out
    every smaller fleet without evaluating it; the table is built out to
    there in one step and then grows one truck at a time, so the whole
    search costs one convolution.  If the demand is at or above the
    saturation ceiling the search is skipped entirely.
    """
    star = build_star(scenario, center)
    ceiling = bottleneck(scenario).ceiling_per_day
    if scenario.truck_capacity * ceiling <= scenario.total_demand_per_day:
        return FleetResult(trucks=None, throughput_per_day=math.nan, iterations=0,
                           infeasibility_reason="ceiling")

    # an infinite bound never reaches math.ceil, and a NaN one starts at 1
    low = _fleet_bound(scenario, star) * (1.0 - _BOUND_MARGIN)
    first = 1
    if low >= scenario.max_trucks:
        first = scenario.max_trucks
    elif low > 1:
        first = math.ceil(low)

    agg = AggregatedConvolution(star)
    hours, top = scenario.hours_per_day, scenario.max_trucks
    for n in range(first, top + 1):
        if meets_demand(scenario, agg, n):
            th_day = agg.warehouse_throughput(n) * hours
            return FleetResult(trucks=n, throughput_per_day=th_day, iterations=n)
    return FleetResult(trucks=None, throughput_per_day=agg.warehouse_throughput(top) * hours,
                       iterations=top, infeasibility_reason="max_trucks")


def min_center_rate(scenario: Scenario, center: Point,
                    rate_step: float = 0.01
                    ) -> tuple[float | None, FleetResult]:
    """Smallest hub loading rate (on a grid of ``rate_step`` multiples) that
    makes the scenario feasible at this location.

    Returns the rate together with the fleet result at that rate.  If even
    an infinitely fast hub cannot meet demand (a warehouse or the fleet cap
    binds), returns ``(None, result-at-infinite-rate)``.  Raises
    ``RuntimeError`` if an infinitely fast hub meets demand but no finite
    rate does, and ``ValueError`` unless ``rate_step`` is positive and
    finite and large enough that a hub rate divided by it stays finite.

    The grid is searched by doubling, then bisection.  A grid point is
    decided by folding the hub last into the table of an infinitely fast
    hub, unless that puts the throughput within ``_BOUND_MARGIN`` of the
    need; then ``min_trucks`` decides it.
    """
    if not 0 < rate_step < math.inf:
        raise ValueError("rate_step must be positive and finite")
    return _center_rate_from(scenario, center, rate_step,
                             min_trucks(scenario, center))


def _center_rate_from(scenario: Scenario, center: Point, rate_step: float,
                      base: FleetResult) -> tuple[float | None, FleetResult]:
    """``min_center_rate`` given ``base``, the fleet result at the
    scenario's own hub rate.

    TH rises with N, so some fleet up to M = max_trucks meets demand iff M
    does, and a hub rate is decided at M alone.  An infinitely fast hub
    never holds a truck, so ``min_trucks`` at the infinite rate decides
    whether any rate does, and the table it reads is R, that of the star
    without the hub: its hub row copies the dock row bit for bit.  R
    decides every finite rate: a hub of rate mu_1 on s_1 servers is folded
    in last,

        G(m) = sum_k f(k) R(m - k),   f(k) = y^k / prod_{i <= k} min(i, s_1),

    with y = 1 / (4 mu_1) its load.  The combine decides a grid point
    where it puts TH(M) above or below the need by more than
    ``_BOUND_MARGIN``, which lies orders of magnitude above the rounding of
    either arithmetic; inside that band ``min_trucks`` decides it.  The
    answer is also probed by ``min_trucks``, whose result is returned; were
    it infeasible there, the search would go on upward by ``min_trucks``.
    """
    if base.feasible:
        return scenario.center.load_rate_per_hour, base

    fast = scenario.with_center_rate(math.inf)
    probe = min_trucks(fast, center)
    if not probe.feasible:
        return None, probe
    top = scenario.max_trucks
    free = AggregatedConvolution(build_star(fast, center)).table(top)

    # Feasibility is monotone in the hub rate, so the answer is the first
    # feasible grid index above both the demand bound and the scenario's own
    # (infeasible) rate.
    # demand / (capacity * s_1 * hours) bounds the workable hub rate from below
    servers = scenario.center.servers
    lb = scenario.total_demand_per_day / (
        scenario.truck_capacity * servers * scenario.hours_per_day)
    lb_index = lb / rate_step
    own_index = scenario.center.load_rate_per_hour / rate_step
    if not (math.isfinite(lb_index) and math.isfinite(own_index)):
        raise ValueError(f"rate_step {rate_step!r} is too small: a hub rate "
                         "divided by it overflows")
    # floor(own / step) may round to a grid point at or below the own rate;
    # that point is infeasible too, so starting there is safe
    k = max(math.floor(lb_index) + 1, math.floor(own_index))
    floor = k - 1  # not a candidate: at or below the bound or the own rate

    # log R(m - k) - log prod_{i <= k} min(i, s_1), for m = top and top - 1
    log_r = [free.log_value(m) for m in range(top + 1)]
    log_den = [0.0]
    for i in range(1, top + 1):
        log_den.append(log_den[-1] + math.log(min(i, servers)))
    at_top = [log_r[top - i] - log_den[i] for i in range(top + 1)]
    below_top = [log_r[top - 1 - i] - log_den[i] for i in range(top)]
    log_need = math.log(_need(scenario))

    # keyed by the rate: grid indices that round to one float share a probe,
    # so a step finer than the rate's float spacing costs no extra probes
    results: dict[float, FleetResult] = {}

    def certified(index: int) -> bool:
        rate = index * rate_step
        if rate not in results:
            results[rate] = min_trucks(scenario.with_center_rate(rate), center)
        return results[rate].feasible

    # the band around the need within which the combine does not decide
    low = log_need + math.log1p(-_BOUND_MARGIN)
    high = log_need - math.log1p(-_BOUND_MARGIN)

    def fits(index: int) -> bool:
        log_y = math.log(HUB_VISIT_RATIO / (index * rate_step))
        log_th = _log_sum(below_top, log_y) - _log_sum(at_top, log_y)
        if log_th < low:
            return False
        if log_th > high:
            return True
        return certified(index)

    good = _first_fit(floor, k, fits, rate_step)
    if not certified(good):
        good = _first_fit(good, good + 1, certified, rate_step)
    return good * rate_step, results[good * rate_step]


def _log_sum(terms: list[float], log_y: float) -> float:
    """log sum_k exp(terms[k] + k log_y), without leaving the double range."""
    shifted = [t + i * log_y for i, t in enumerate(terms)]
    top = max(shifted)
    return top + math.log(sum([math.exp(t - top) for t in shifted]))


def _first_fit(bad: int, k: int, fits: Callable[[int], bool], rate_step: float) -> int:
    """The first grid index above ``bad`` at which ``fits`` holds, given
    that it fails at ``bad`` and, from some index on, holds: double ``k``
    until it fits, then bisect between the last index that failed and the
    first that fit."""
    while not fits(k):
        bad, k = k, 2 * k
        # k itself must convert to a float before k * rate_step can be formed
        if k > sys.float_info.max or math.isinf(k * rate_step):
            raise RuntimeError("only an infinitely fast hub meets demand")
    while k - bad > 1:
        mid = (bad + k) // 2
        if fits(mid):
            k = mid
        else:
            bad = mid
    return k


@dataclass(frozen=True, slots=True)
class PlacementOutcome:
    """A hub point (``location``, as floats) with its fleet answer and
    steady-state figures; a Weber solve that chose the point is
    ``solve_weber``'s result, not the placement's.  ``analysis`` is taken
    at the minimal feasible fleet, or at ``max_trucks`` when infeasible so
    reports can still show the saturated throughput and hub utilization.
    """

    label: str
    location: Point
    fleet: FleetResult
    analysis: StarAnalysis


@dataclass(frozen=True, slots=True)
class LocationComparison:
    weighted: PlacementOutcome
    unweighted: PlacementOutcome

    @property
    def distance_between(self) -> float:
        """Distance between the two hub locations, in km."""
        (xw, yw), (xu, yu) = self.weighted.location, self.unweighted.location
        return math.hypot(xw - xu, yw - yu)


def solve_at(scenario: Scenario, center: Point, label: str = "fixed") -> PlacementOutcome:
    """Fleet search plus full analysis at the hub point ``center``."""
    fleet = min_trucks(scenario, center)
    star = build_star(scenario, center)
    n_report = fleet.trucks if fleet.feasible else scenario.max_trucks
    return PlacementOutcome(label=label, location=star.center, fleet=fleet,
                            analysis=analyze(star, n_report))


def compare_locations(scenario: Scenario) -> LocationComparison:
    """Demand-weighted versus unweighted hub placement, solved end to end."""
    sol_w = solve_weber(WeberProblem.from_scenario(scenario, weighted=True))
    sol_u = solve_weber(WeberProblem.from_scenario(scenario, weighted=False))
    out_w = solve_at(scenario, sol_w.location, "weighted")
    out_u = solve_at(scenario, sol_u.location, "unweighted")
    return LocationComparison(weighted=out_w, unweighted=out_u)
