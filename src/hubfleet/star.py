"""Star-shaped closed network: hub, travel lanes, and warehouse docks.

Each truck cycles hub -> outbound lane -> warehouse -> return lane, choosing
warehouse j with probability rho_j (its demand share).  A round trip visits
four stations, so the hub carries visit ratio 1/4 and warehouse j (and each
of its two lanes) rho_j / 4.

Because the lanes are infinite servers, the 3(J-1)+1 station network
collapses exactly into J+1 stations: hub, the J-1 warehouse docks, and one
pooled infinite server with visit ratio 1/2 and mean holding time
sum_j rho_j d_j(x) / S.  The hub location x therefore reaches the analysis
only through the pooled-lane load kappa = W(x) / (2 S), where W is the
demand-weighted Weber objective; a ``StarNetwork`` holds nothing else that
depends on x.  The hub and dock loads, their normalization table and the
saturation ceiling depend on the scenario alone, so the pooled lane is
folded in last, over one table per scenario.  The oracles rebuild the
explicit network from the scenario and the hub location themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import convolution as conv
from .scenario import Point, Scenario, demand_fractions

HUB_VISIT_RATIO = 0.25


@dataclass(frozen=True, slots=True)
class StarNetwork:
    """A scenario pinned to one candidate hub location."""

    scenario: Scenario
    center: Point
    kappa: float                 # sum_j (rho_j / 2) * d_j / S, the pooled-lane load


def build_star(scenario: Scenario, center: Point) -> StarNetwork:
    cx, cy = center
    speed = scenario.truck_speed_kmh
    # each one-way leg has visit ratio rho_j / 4, and a round trip two legs
    kappa = 2.0 * math.fsum(
        (rho * HUB_VISIT_RATIO) * (math.hypot(ax - cx, ay - cy) / speed)
        for rho, (ax, ay) in zip(demand_fractions(scenario),
                                 scenario.warehouse_positions))
    if not math.isfinite(kappa):
        raise ValueError("distances must be finite")
    return StarNetwork(scenario=scenario, center=(float(cx), float(cy)), kappa=kappa)


def station_loads(scenario: Scenario) -> tuple[tuple[float, int], ...]:
    """(load, servers) of every dock, then of the hub, in fold order: the
    part of the aggregated star that does not depend on the hub location."""
    loads = [(rho * HUB_VISIT_RATIO / w.unload_rate_per_hour, w.servers)
             for rho, w in zip(demand_fractions(scenario), scenario.warehouses)]
    loads.append((HUB_VISIT_RATIO / scenario.center.load_rate_per_hour,
                   scenario.center.servers))
    return tuple(loads)


class AggregatedConvolution:
    """Normalization table of the aggregated star at one hub location.

    The docks, then the hub, make one table R that depends on neither the
    hub location nor the truck speed, so every hub point and speed of a
    scenario shares it (``convolution.shared_lane_last``), and another hub
    rate shares its dock rows.  The pooled lane, the only station that does
    depend on them, is folded in last: each G(m) is one combine over R
    (``convolution.LaneLast``), which starts and stops where its head and
    tail are certified negligible, so long lanes need R only part of the
    way and short lanes only the first lane factors.
    The combines at one lane load are held, so ``analyze`` or
    ``throughput_vs_location`` right after ``min_trucks`` at the same hub
    combines nothing again.
    """

    def __init__(self, star: StarNetwork):
        self._g = conv.shared_lane_last(star.kappa, station_loads(star.scenario))

    def extend_to(self, population: int) -> "AggregatedConvolution":
        """Combine G(population), building R as far as its sum needs; the
        entries ``throughput`` and ``hub_busy`` read besides need no more."""
        if population < 0:
            raise ValueError("population must be non-negative")
        self._g.entry(population)
        return self

    @property
    def population(self) -> int:
        """How far R, shared by every hub of the scenario, is built."""
        return self._g.rest.population

    def table(self, population: int) -> conv.ConvolutionTable:
        self.extend_to(population)
        return self._g.table(population)

    def throughput(self, trucks: int) -> float:
        """Overall TH(N) = G(N-1)/G(N) per hour."""
        if trucks < 1:
            raise ValueError("throughput needs at least one truck")
        self.extend_to(trucks)
        return self._g.ratio(trucks - 1, trucks)

    def warehouse_throughput(self, trucks: int) -> float:
        """Deliveries per hour over all warehouses: TH(N)/4."""
        return HUB_VISIT_RATIO * self.throughput(trucks)

    def hub_busy(self, trucks: int) -> float:
        """P(hub holds at least one truck) = 1 - G_without_hub(N)/G(N)."""
        self.extend_to(trucks)
        return 1.0 - self._g.ratio(trucks, trucks, num_row=-2)


def aggregated_norm_constants(star: StarNetwork, population: int
                              ) -> conv.ConvolutionTable:
    """G(0..population) for the aggregated J+1 station form."""
    return AggregatedConvolution(star).table(population)


@dataclass(frozen=True, slots=True)
class StarAnalysis:
    """Steady-state figures for a star network with a fixed fleet.

    Only the scenario and scalars are stored; the overall throughput, the
    passage time and the daily throughput are derived when read.
    """

    scenario: Scenario
    trucks: int
    warehouse_throughput: float       # deliveries per hour, = throughput / 4
    busy_center: float                 # P(hub has at least one truck)

    @property
    def hours_per_day(self) -> float:
        return self.scenario.hours_per_day

    @property
    def throughput(self) -> float:
        """Per hour, all four legs combined; exact, as the stored value is
        a quarter of it."""
        return self.warehouse_throughput / HUB_VISIT_RATIO

    @property
    def passage_time_hours(self) -> float:
        """Round-trip time 4 N / throughput."""
        return 4.0 * self.trucks / self.throughput

    @property
    def warehouse_throughput_per_day(self) -> float:
        return self.warehouse_throughput * self.hours_per_day


def analyze(star: StarNetwork, trucks: int) -> StarAnalysis:
    """Throughputs, passage time and hub busy probability."""
    if trucks < 1:
        raise ValueError("analysis needs at least one truck")
    agg = AggregatedConvolution(star)
    return StarAnalysis(
        scenario=star.scenario,
        trucks=trucks,
        warehouse_throughput=agg.warehouse_throughput(trucks),
        busy_center=agg.hub_busy(trucks),
    )


@dataclass(frozen=True, slots=True)
class BottleneckReport:
    """Saturation ceiling as the fleet grows without bound, in deliveries
    per hour: min(mu_1 s_1, min_j mu_j s_j / rho_j).  Infinite-server lanes
    never bind, so the ceiling does not depend on the hub location."""

    binding_node: int              # 1 for the hub, else the warehouse id
    ceiling_per_hour: float
    hours_per_day: float

    @property
    def ceiling_per_day(self) -> float:
        return self.ceiling_per_hour * self.hours_per_day


def bottleneck(scenario: Scenario) -> BottleneckReport:
    center = scenario.center
    caps = [(center.load_rate_per_hour * center.servers, 1)]
    caps += [(w.unload_rate_per_hour * w.servers / rho, w.id)
             for rho, w in zip(demand_fractions(scenario), scenario.warehouses)]
    # the first of equal caps binds, the hub before any warehouse
    ceiling, binding = min(caps, key=lambda cap: cap[0])
    return BottleneckReport(binding_node=binding, ceiling_per_hour=ceiling,
                            hours_per_day=scenario.hours_per_day)


def throughput_vs_location(scenario: Scenario, trucks: int,
                           grid: list[Point]) -> list[tuple[Point, float]]:
    """Warehouse throughput per hour at each candidate hub location: the
    two lane-last sums G(trucks - 1) and G(trucks) per point, over the one
    table of the docks and the hub that every point shares."""
    out = []
    for x in grid:
        agg = AggregatedConvolution(build_star(scenario, x))
        out.append((x, agg.warehouse_throughput(trucks)))
    return out
