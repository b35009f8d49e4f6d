"""Star-shaped closed network: hub, travel lanes, and warehouse docks.

Each truck cycles hub -> outbound lane -> warehouse -> return lane, choosing
warehouse j with probability rho_j (its demand share).  A round trip visits
four stations, so the hub carries visit ratio 1/4 and warehouse j (and each
of its two lanes) rho_j / 4.

Because the lanes are infinite servers, the 3(J-1)+1 station network
collapses exactly into J+1 stations: hub, the J-1 warehouse docks, and one
pooled infinite server with visit ratio 1/2 and mean holding time
sum_j rho_j d_j(x) / S.  All analysis runs on that aggregated form; the
explicit network exists only in the oracles that cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convolution as conv
from .scenario import Point, Scenario, demand_fractions

HUB_VISIT_RATIO = 0.25
POOLED_LANE_VISIT_RATIO = 0.5


@dataclass(frozen=True, slots=True)
class StarNetwork:
    """A scenario pinned to one candidate hub location."""

    scenario: Scenario
    center: Point
    distances: np.ndarray        # km, warehouse order
    travel_hours: np.ndarray     # one-way lane time d_j / S
    eta_warehouse: np.ndarray    # rho_j / 4
    h: float                     # sum_j (rho_j / 4) * d_j / S, hours
    kappa: float                 # 2 h, the pooled-lane load factor

    @property
    def eta_center(self) -> float:
        return HUB_VISIT_RATIO

    @property
    def rho(self) -> np.ndarray:
        return self.eta_warehouse / HUB_VISIT_RATIO

    def aggregated_stations(self) -> tuple[tuple[conv.Station, ...], np.ndarray]:
        """Hub, warehouse docks, pooled lane station, with visit ratios."""
        s = self.scenario
        stations = [conv.multi_server("center", s.center.load_rate_per_hour,
                                      s.center.servers)]
        stations += [
            conv.multi_server(f"warehouse_{w.id}", w.unload_rate_per_hour, w.servers)
            for w in s.warehouses
        ]
        stations.append(conv.infinite_server("lanes", 4.0 * self.h))
        eta = np.concatenate((
            [HUB_VISIT_RATIO], self.eta_warehouse, [POOLED_LANE_VISIT_RATIO]))
        return tuple(stations), eta


def build_star(scenario: Scenario, center: Point) -> StarNetwork:
    rho = np.asarray(demand_fractions(scenario))
    cx, cy = center
    d = np.asarray([math.hypot(ax - cx, ay - cy)
                    for ax, ay in scenario.warehouse_positions])
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")
    travel = d / scenario.truck_speed_kmh
    eta_w = rho * HUB_VISIT_RATIO
    h = float((eta_w * travel).sum())
    # a point that is already two floats is kept, not copied, so the
    # analyses built on it share the caller's object
    if not (type(center) is tuple and len(center) == 2
            and type(center[0]) is float and type(center[1]) is float):
        center = (float(center[0]), float(center[1]))
    return StarNetwork(
        scenario=scenario,
        center=center,
        distances=d,
        travel_hours=travel,
        eta_warehouse=eta_w,
        h=h,
        kappa=2.0 * h,
    )


class AggregatedConvolution:
    """Normalization table of the aggregated star, extensible one truck at a
    time so fleet search reuses all previous work.

    The pooled lane starts the table, the docks follow and the hub is
    folded last, so the row before it is the table without the hub.
    """

    def __init__(self, star: StarNetwork):
        stations, eta = star.aggregated_stations()
        hub_last = tuple(range(1, len(stations))) + (0,)
        self._conv = conv.Convolution(stations, eta, hub_last)

    def extend_to(self, population: int) -> "AggregatedConvolution":
        self._conv.extend_to(population)
        return self

    @property
    def population(self) -> int:
        return self._conv.population

    def table(self, population: int | None = None) -> conv.ConvolutionTable:
        n = self.population if population is None else population
        self.extend_to(n)
        return self._conv.table(n)

    def throughput(self, trucks: int) -> float:
        """Overall TH(N) = G(N-1)/G(N) per hour."""
        if trucks < 1:
            raise ValueError("throughput needs at least one truck")
        self.extend_to(trucks)
        return self._conv.ratio(trucks - 1, trucks)

    def warehouse_throughput(self, trucks: int) -> float:
        """Deliveries per hour over all warehouses: TH(N)/4."""
        return HUB_VISIT_RATIO * self.throughput(trucks)

    def hub_busy(self, trucks: int) -> float:
        """P(hub holds at least one truck) = 1 - G_without_hub(N)/G(N)."""
        self.extend_to(trucks)
        return 1.0 - self._conv.ratio(trucks, trucks, num_row=-2)


def aggregated_norm_constants(star: StarNetwork, population: int
                              ) -> conv.ConvolutionTable:
    """G(0..population) for the aggregated J+1 station form."""
    return AggregatedConvolution(star).table(population)


@dataclass(frozen=True, slots=True)
class StarAnalysis:
    """Steady-state figures for a star network with a fixed fleet.

    Only the scenario, the hub location and scalars are stored; the
    passage time and the daily throughput are derived when read.
    """

    scenario: Scenario
    center: Point
    trucks: int
    throughput: float                 # per hour, all four legs combined
    warehouse_throughput: float       # deliveries per hour, = throughput / 4
    busy_center: float                 # P(hub has at least one truck)

    @property
    def hours_per_day(self) -> float:
        return self.scenario.hours_per_day

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
    th = agg.throughput(trucks)
    return StarAnalysis(
        scenario=star.scenario,
        center=star.center,
        trucks=trucks,
        throughput=th,
        warehouse_throughput=HUB_VISIT_RATIO * th,
        busy_center=agg.hub_busy(trucks),
    )


@dataclass(frozen=True, slots=True)
class BottleneckReport:
    """Saturation caps as the fleet grows without bound.

    ``overall_caps`` are per-station limits mu s / eta on the combined
    throughput scale (hub first, then warehouses; infinite-server lanes
    never bind).  ``ceiling_per_hour`` is the same limit expressed as
    deliveries per hour: min(mu_1 s_1, min_j mu_j s_j / rho_j).
    """

    overall_caps: np.ndarray
    binding_node: int              # 1 for the hub, else the warehouse id
    ceiling_per_hour: float
    hours_per_day: float

    @property
    def ceiling_per_day(self) -> float:
        return self.ceiling_per_hour * self.hours_per_day


def bottleneck(star: StarNetwork) -> BottleneckReport:
    s = star.scenario
    rho = star.rho
    caps_w = [s.center.load_rate_per_hour * s.center.servers]
    caps_w += [
        w.unload_rate_per_hour * w.servers / rho[i]
        for i, w in enumerate(s.warehouses)
    ]
    caps_w = np.asarray(caps_w)
    idx = int(np.argmin(caps_w))
    binding = 1 if idx == 0 else s.warehouses[idx - 1].id
    return BottleneckReport(
        overall_caps=caps_w * 4.0,
        binding_node=binding,
        ceiling_per_hour=float(caps_w[idx]),
        hours_per_day=s.hours_per_day,
    )


def throughput_vs_location(scenario: Scenario, trucks: int,
                           grid: list[Point]) -> list[tuple[Point, float]]:
    """Warehouse throughput per hour at each candidate hub location."""
    out = []
    for x in grid:
        agg = AggregatedConvolution(build_star(scenario, x))
        out.append((x, agg.warehouse_throughput(trucks)))
    return out
