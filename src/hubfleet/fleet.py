"""Fleet sizing and hub placement on top of the star-network analysis.

Feasibility compares deliverable truckloads per day against daily demand:
a fleet of N trucks meets demand when

    capacity * TH_w(N) * hours_per_day >= total demand per day.

Warehouse throughput TH_w(N) rises strictly with N but never reaches the
saturation ceiling min(mu_1 s_1, min_j mu_j s_j / rho_j), so a scenario
whose demand sits at or above the ceiling is infeasible outright.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .scenario import Point, Scenario
from .star import AggregatedConvolution, StarAnalysis, analyze, bottleneck, build_star
from .weber import WeberProblem, WeberSolution, solve_weber, weber_objective


@dataclass(frozen=True, slots=True)
class FleetResult:
    """Outcome of the minimal-fleet search at one hub location.

    ``throughput_per_day`` is TH_w * hours_per_day at the chosen fleet; for
    a ceiling-infeasible scenario no fleet was evaluated and it is NaN, for
    a fleet-cap-infeasible one it is the value at max_trucks.  Demand and
    the saturation ceiling belong to the scenario: see ``bottleneck``.
    """

    trucks: int | None
    throughput_per_day: float
    iterations: int
    infeasibility_reason: str | None = None  # "ceiling" | "max_trucks"

    @property
    def feasible(self) -> bool:
        return self.infeasibility_reason is None


def min_trucks(scenario: Scenario, center: Point) -> FleetResult:
    """Smallest fleet whose deliverable volume covers daily demand.

    The normalization table grows incrementally across candidate fleet
    sizes, so the whole search costs one full convolution.  If the demand
    is at or above the saturation ceiling the search is skipped entirely.
    """
    star = build_star(scenario, center)
    cap = scenario.truck_capacity
    demand = scenario.total_demand_per_day

    if cap * bottleneck(scenario).ceiling_per_day <= demand:
        return FleetResult(trucks=None, throughput_per_day=math.nan, iterations=0,
                           infeasibility_reason="ceiling")

    agg = AggregatedConvolution(star)
    hours = scenario.hours_per_day
    for n in range(1, scenario.max_trucks + 1):
        th_day = agg.warehouse_throughput(n) * hours
        if cap * th_day >= demand:
            return FleetResult(trucks=n, throughput_per_day=th_day, iterations=n)
    return FleetResult(trucks=None, throughput_per_day=th_day,
                       iterations=scenario.max_trucks, infeasibility_reason="max_trucks")


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
    """
    if not 0 < rate_step < math.inf:
        raise ValueError("rate_step must be positive and finite")
    return _center_rate_from(scenario, center, rate_step,
                             min_trucks(scenario, center))


def _center_rate_from(scenario: Scenario, center: Point, rate_step: float,
                      base: FleetResult) -> tuple[float | None, FleetResult]:
    """``min_center_rate`` given ``base``, the fleet result at the
    scenario's own hub rate."""
    if base.feasible:
        return scenario.center.load_rate_per_hour, base

    probe = min_trucks(scenario.with_center_rate(math.inf), center)
    if not probe.feasible:
        return None, probe

    # Feasibility is monotone in the hub rate, so the answer is the first
    # feasible grid index above both the demand bound and the scenario's own
    # (infeasible) rate: double the index until a probe is feasible, then
    # bisect between the last infeasible index and the first feasible one.
    # demand / (capacity * s_1 * hours) bounds the workable hub rate from below
    demand = scenario.total_demand_per_day
    lb = demand / (scenario.truck_capacity * scenario.center.servers
                   * scenario.hours_per_day)
    lb_index = lb / rate_step
    own_index = scenario.center.load_rate_per_hour / rate_step
    if not (math.isfinite(lb_index) and math.isfinite(own_index)):
        raise ValueError(f"rate_step {rate_step!r} is too small: a hub rate "
                         "divided by it overflows")
    # floor(own / step) may round to a grid point at or below the own rate;
    # that point is infeasible too, so starting there is safe
    k = max(math.floor(lb_index) + 1, math.floor(own_index))
    bad = k - 1  # not a candidate: at or below the bound or the own rate
    while True:
        res = min_trucks(scenario.with_center_rate(k * rate_step), center)
        if res.feasible:
            break
        bad, k = k, 2 * k
        # k itself must convert to a float before k * rate_step can be formed
        if k > sys.float_info.max or math.isinf(k * rate_step):
            raise RuntimeError("only an infinitely fast hub meets demand")
    good, good_res = k, res
    while good - bad > 1:
        mid = (bad + good) // 2
        res = min_trucks(scenario.with_center_rate(mid * rate_step), center)
        if res.feasible:
            good, good_res = mid, res
        else:
            bad = mid
    return good * rate_step, good_res


@dataclass(frozen=True, slots=True)
class PlacementOutcome:
    """One hub placement with its fleet answer and steady-state figures.

    ``analysis`` is evaluated at the minimal feasible fleet, or at
    ``max_trucks`` when infeasible so reports can still show the saturated
    throughput and hub utilization.
    """

    label: str
    weber: WeberSolution
    fleet: FleetResult
    analysis: StarAnalysis

    @property
    def location(self) -> Point:
        return self.weber.location


@dataclass(frozen=True, slots=True)
class LocationComparison:
    weighted: PlacementOutcome
    unweighted: PlacementOutcome

    @property
    def distance_between(self) -> float:
        """Distance between the two hub locations, in km."""
        (xw, yw), (xu, yu) = self.weighted.location, self.unweighted.location
        return math.hypot(xw - xu, yw - yu)


def solve_at(scenario: Scenario, center: Point, label: str = "fixed",
             weber_solution: WeberSolution | None = None) -> PlacementOutcome:
    """Fleet search plus full analysis at one location."""
    fleet = min_trucks(scenario, center)
    star = build_star(scenario, center)
    n_report = fleet.trucks if fleet.feasible else scenario.max_trucks
    if weber_solution is None:
        weber_solution = WeberSolution(
            x=float(center[0]), y=float(center[1]),
            objective=weber_objective(
                WeberProblem.from_scenario(scenario, weighted=True), center),
            iterations=0, converged=True)
    return PlacementOutcome(label=label, weber=weber_solution, fleet=fleet,
                            analysis=analyze(star, n_report))


def compare_locations(scenario: Scenario) -> LocationComparison:
    """Demand-weighted versus unweighted hub placement, solved end to end."""
    sol_w = solve_weber(WeberProblem.from_scenario(scenario, weighted=True))
    sol_u = solve_weber(WeberProblem.from_scenario(scenario, weighted=False))
    out_w = solve_at(scenario, sol_w.location, "weighted", sol_w)
    out_u = solve_at(scenario, sol_u.location, "unweighted", sol_u)
    return LocationComparison(weighted=out_w, unweighted=out_u)
