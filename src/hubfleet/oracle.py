"""Independent cross-checks for the convolution analysis.

Three oracles work on the explicit star that lane pooling collapses: the
hub, then per warehouse an outbound lane, the dock and a return lane,
3J + 1 stations in all, built here by ``_explicit_star``:

* brute-force product-form enumeration over all states,
* exact CTMC steady state from the generator matrix,
* a discrete-event simulation of the star network.

They share only the model's inputs with the analytic path: ``Station``
(whose ``service_rate`` only they call), and the scenario and hub location
of a ``StarNetwork``, from which they compute lane travel times, demand
shares and visit ratios themselves.  They share none of its arithmetic: no
lane pooling, no fold order, no ladder or log forms and no cross-check.
``aggregated_stations`` lists the pooled J+1 station form as stations, for
``convolve_stations`` and ``marginal_distribution``, which read its table
and each station's factors from the analytic path's engine.

Plus random instance generation and the validation suite behind the
``validate`` CLI verb.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, repeat, starmap
from typing import Callable, Iterator, Sequence

import numpy as np

from . import convolution as conv
from .scenario import Center, Scenario, Warehouse, demand_fractions
from .star import (HUB_VISIT_RATIO, AggregatedConvolution, StarNetwork,
                   aggregated_norm_constants, bottleneck, build_star)
from .weber import WeberProblem, solve_weber

_ENUM_STATE_LIMIT = 1_000_000
_CTMC_STATE_LIMIT = 3_000


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to place ``total`` customers into ``parts`` stations."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _state_count(population: int, stations: int) -> int:
    return math.comb(population + stations - 1, stations - 1)


def _lane_hours(star: StarNetwork) -> list[float]:
    """One-way travel time d_j / S to each warehouse, in warehouse order."""
    cx, cy = star.center
    speed = star.scenario.truck_speed_kmh
    return [math.hypot(ax - cx, ay - cy) / speed
            for ax, ay in star.scenario.warehouse_positions]


def _explicit_star(star: StarNetwork
                   ) -> tuple[tuple[conv.Station, ...], np.ndarray, np.ndarray]:
    """Stations, routing matrix and visit ratios of the star before lane
    pooling: hub 0, then warehouse i's outbound lane 1+3i, dock 2+3i and
    return lane 3+3i.  The hub has visit ratio 1/4 and each leg of
    warehouse i rho_i / 4."""
    s = star.scenario
    k = len(s.warehouses)
    stations = [conv.multi_server("center", s.center.load_rate_per_hour, s.center.servers)]
    for w, mean in zip(s.warehouses, _lane_hours(star)):
        stations += [conv.infinite_server(f"lane_out_{w.id}", mean),
                     conv.multi_server(f"warehouse_{w.id}", w.unload_rate_per_hour, w.servers),
                     conv.infinite_server(f"lane_back_{w.id}", mean)]
    routing = np.zeros((1 + 3 * k, 1 + 3 * k))
    eta = np.empty(1 + 3 * k)
    eta[0] = HUB_VISIT_RATIO
    for i, rho in enumerate(demand_fractions(s)):
        out, dock, back = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        routing[0, out] = rho
        routing[out, dock] = routing[dock, back] = routing[back, 0] = 1.0
        eta[out:back + 1] = rho * HUB_VISIT_RATIO
    return tuple(stations), routing, eta


def aggregated_stations(star: StarNetwork) -> tuple[tuple[conv.Station, ...], list[float]]:
    """Hub, warehouse docks and the pooled lane station, with visit ratios:
    the J+1 station form that ``AggregatedConvolution`` folds, for
    ``convolve_stations`` and ``marginal_distribution``.  The pooled lane
    has visit ratio 1/2 and mean holding time 2 kappa."""
    s = star.scenario
    stations = [conv.multi_server("center", s.center.load_rate_per_hour,
                                  s.center.servers)]
    stations += [
        conv.multi_server(f"warehouse_{w.id}", w.unload_rate_per_hour, w.servers)
        for w in s.warehouses
    ]
    stations.append(conv.infinite_server("lanes", 2.0 * star.kappa))
    eta = [HUB_VISIT_RATIO, *(rho * HUB_VISIT_RATIO for rho in demand_fractions(s)), 0.5]
    return tuple(stations), eta


def _plain_factors(stations: Sequence[conv.Station], eta: np.ndarray,
                   n_max: int) -> np.ndarray:
    """g_j(n) in plain floats; fine for the small nets oracles handle."""
    g = np.zeros((len(stations), n_max + 1))
    g[:, 0] = 1.0
    for j, st in enumerate(stations):
        for n in range(1, n_max + 1):
            mu = st.service_rate(n)
            g[j, n] = 0.0 if math.isinf(mu) else g[j, n - 1] * eta[j] / mu
    return g


@dataclass(frozen=True, slots=True)
class EnumerationResult:
    states: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    norm_constant: float
    state_count: int

    def marginal(self, node: int) -> np.ndarray:
        n = sum(self.states[0])
        out = np.zeros(n + 1)
        for s, p in zip(self.states, self.probabilities):
            out[s[node]] += p
        return out


def enumerate_product_form(stations: Sequence[conv.Station], eta: Sequence[float],
                           population: int) -> EnumerationResult:
    """Exact normalization constant and state probabilities by enumerating
    every state of a small closed network."""
    etas = np.asarray(eta, dtype=float)
    count = _state_count(population, len(stations))
    if count > _ENUM_STATE_LIMIT:
        raise ValueError(f"state space too large to enumerate ({count} states)")

    g = _plain_factors(stations, etas, population)
    states = []
    weights = []
    for s in _compositions(population, len(stations)):
        w = 1.0
        for j, n in enumerate(s):
            w *= g[j, n]
        states.append(s)
        weights.append(w)
    weights = np.asarray(weights)
    total = float(weights.sum())
    if not (total > 0 and math.isfinite(total)):
        raise conv.NumericalRangeError(f"enumerated normalization constant is {total!r}")
    return EnumerationResult(states=tuple(states), probabilities=weights / total,
                             norm_constant=total, state_count=count)


@dataclass(frozen=True, slots=True)
class CtmcResult:
    states: tuple[tuple[int, ...], ...]
    pi: np.ndarray
    station_throughput: np.ndarray  # sum_s pi(s) mu_j(n_j)
    residual: float


def ctmc_throughput(stations: Sequence[conv.Station], routing: np.ndarray,
                    population: int) -> CtmcResult:
    """Steady state of the explicit Markov chain, solved from the generator.

    ``routing[j, k]`` is the probability that a customer leaving station j
    goes to station k.  Station throughputs are completion rates
    sum_s pi(s) mu_j(n_j); for a product-form network they equal
    eta_j G(N-1)/G(N).
    """
    width = len(stations)
    count = _state_count(population, width)
    if count > _CTMC_STATE_LIMIT:
        raise ValueError(f"state space too large for CTMC solve ({count} states)")
    states = list(_compositions(population, width))
    index = {s: i for i, s in enumerate(states)}
    r = np.asarray(routing, dtype=float)

    q = np.zeros((count, count))
    for i, s in enumerate(states):
        for j in range(width):
            if s[j] == 0:
                continue
            mu = stations[j].service_rate(s[j])
            if math.isinf(mu):
                raise ValueError("CTMC oracle needs finite service rates")
            for k in range(width):
                p = r[j, k]
                if p == 0.0 or k == j:
                    continue
                t = list(s)
                t[j] -= 1
                t[k] += 1
                q[i, index[tuple(t)]] = mu * p
                q[i, i] -= mu * p

    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(count)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    residual = float(np.max(np.abs(pi @ q)))
    if residual >= 1e-10 or np.any(pi < -1e-12):
        raise conv.NumericalRangeError(f"CTMC solve residual {residual:.3e}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    th = np.zeros(width)
    for i, s in enumerate(states):
        for j in range(width):
            if s[j] > 0:
                th[j] += pi[i] * stations[j].service_rate(s[j])
    return CtmcResult(states=tuple(states), pi=pi, station_throughput=th,
                      residual=residual)


# ---------------------------------------------------------------------------
# discrete-event simulation of the star network


_BLOCK = 2048


def _stream(draw: Callable[[], np.ndarray]) -> Callable[[], float]:
    """Bound ``__next__`` over the blocks ``draw`` returns, as Python floats.

    A block is drawn only when the previous one runs out, so streams that
    share a generator take their blocks from it in the order they run dry.
    """
    return chain.from_iterable(memoryview(draw()) for _ in repeat(None)).__next__


@dataclass(frozen=True, slots=True)
class DesEstimate:
    """Replication-averaged simulation estimates with 95% half-widths.

    Station arrays hold the hub, then each warehouse's lane out, dock and
    lane back.
    """

    warehouse_throughput: float       # deliveries per hour
    warehouse_throughput_hw: float
    per_replication: np.ndarray
    station_sojourn: np.ndarray       # mean time in station per visit, hours
    station_throughput: np.ndarray    # completions per hour
    replications: int
    horizon_events: int
    travel: str


def simulate(star: StarNetwork, trucks: int, *,
             horizon_events: int = 100_000, replications: int = 20,
             seed: int = 0, travel: str | Callable = "exponential",
             warmup_fraction: float = 0.2) -> DesEstimate:
    """Simulate the explicit star network (FCFS hub and docks, infinite-server
    lanes) and estimate throughput and per-station sojourn times.

    The horizon counts processed events per replication; the first
    ``warmup_fraction`` of them is discarded.  Replication ``rep`` draws
    stream ``k`` from the generator seeded by ``SeedSequence(seed,
    spawn_key=(rep, *k))``: ``k`` is ``(0,)`` for routing, ``(1, st)`` for
    the service times of hub or dock ``st`` and ``(2,)`` for the travel times
    of all lanes, so runs with different travel distributions are
    common-random-number paired.
    Routing uniforms, service times and exponential travel times are drawn
    in blocks of 2048, each block when the previous one runs out, so the
    lanes take blocks from the shared generator in the order they run dry;
    the demand shares map each block of uniforms to dock lanes.  A callable
    ``travel(rng, mean)`` is called once per trip with the shared generator.
    Events at one instant, ruled out by continuous service times, go by
    arrival time, then station.  Equal seeds give bit-identical results.
    """
    if trucks < 0:
        raise ValueError(f"trucks must be non-negative, got {trucks}")
    if replications < 0:
        raise ValueError(f"replications must be non-negative, got {replications}")
    if horizon_events < 1:
        raise ValueError(f"horizon_events must be at least 1, got {horizon_events}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must lie in [0, 1), got {warmup_fraction}")
    s = star.scenario
    k = len(s.warehouses)
    n_st = 1 + 3 * k
    travel_label = travel if isinstance(travel, str) else "callable"
    if isinstance(travel, str) and travel not in ("exponential", "deterministic"):
        raise ValueError(f"unknown travel distribution {travel!r}")

    if trucks == 0 or replications == 0:
        z = np.zeros(n_st)
        return DesEstimate(0.0, 0.0, np.zeros(replications),
                           z.copy(), z.copy(), replications, horizon_events,
                           travel_label)

    # station 0 is the hub; warehouse i has lane out 1+3i, dock 2+3i and
    # lane back 3+3i.  Lanes have no servers and never queue.  after[st] is
    # where a truck leaving st goes; the hub routes its departures instead,
    # a uniform u to lane 1+3i, i the number of bounds at or below u (the
    # total share, which may round below 1, is no bound).  mean_time is the
    # mean service time at the hub and docks, the travel time on lanes.
    servers = [s.center.servers] + [0] * (3 * k)
    after = [0 if st % 3 == 0 else st + 1 for st in range(n_st)]
    mean_time = [1.0 / s.center.load_rate_per_hour] + [0.0] * (3 * k)
    for i, (w, lane) in enumerate(zip(s.warehouses, _lane_hours(star))):
        servers[2 + 3 * i] = w.servers
        mean_time[2 + 3 * i] = 1.0 / w.unload_rate_per_hour
        mean_time[1 + 3 * i] = mean_time[3 + 3 * i] = lane
    bounds = np.cumsum(demand_fractions(s))[:-1]

    warm_count = int(warmup_fraction * horizon_events)

    def rng(*key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    th_w = np.zeros(replications)
    soj_mean = np.zeros((replications, n_st))
    th_station = np.zeros((replications, n_st))

    for rep in range(replications):
        route = chain.from_iterable(
            (1 + 3 * bounds.searchsorted(u, "right")).tolist()
            for u in map(rng(rep, 0).random, repeat(_BLOCK))).__next__
        travel_rng = rng(rep, 2)

        draw = []
        for st in range(n_st):
            mean = mean_time[st]
            if servers[st]:
                draw.append(_stream(partial(rng(rep, 1, st).exponential, mean, _BLOCK)))
            elif travel == "exponential" and mean > 0:
                draw.append(_stream(partial(travel_rng.exponential, mean, _BLOCK)))
            elif isinstance(travel, str):  # deterministic, or a zero-length lane
                draw.append(repeat(mean).__next__)
            else:
                draw.append(map(float, starmap(travel, repeat((travel_rng, mean)))).__next__)

        free = [max(servers[0] - trucks, 0)] + servers[1:]
        queues = [deque() for _ in range(n_st)]
        # every truck starts at the hub at time 0, the first ones in service;
        # a heap entry is (time, arrival, station), arrival being the time the
        # truck reached the station, as a queue holds for each waiting truck;
        # a queued truck waits behind one in service, so the heap never empties
        heap = [(draw[0](), 0.0, 0) for _ in range(servers[0] - free[0])]
        heapify(heap)
        queues[0].extend(repeat(0.0, trucks - len(heap)))

        # the warm-up events, then the measured ones, each pass counting
        # from zero; the window opens at the last warm-up event
        t = 0.0
        for events in (warm_count, horizon_events - warm_count):
            t_warm = t
            completions = [0] * n_st
            soj_sum = [0.0] * n_st
            for _ in repeat(None, events):
                t, since, st = heap[0]
                completions[st] += 1
                soj_sum[st] += t - since
                if servers[st]:
                    # a server frees up: start the next queued truck, then
                    # the departing truck takes a lane
                    q = queues[st]
                    if q:
                        heapreplace(heap, (t + draw[st](), q.popleft(), st))
                        push = heappush
                    else:
                        free[st] += 1
                        push = heapreplace
                    nxt = after[st] if st else route()
                    push(heap, (t + draw[nxt](), t, nxt))
                else:
                    # a lane ends at a dock (out) or at the hub (back)
                    nxt = after[st]
                    if free[nxt]:
                        free[nxt] -= 1
                        heapreplace(heap, (t + draw[nxt](), t, nxt))
                    else:
                        heappop(heap)
                        queues[nxt].append(t)

        window = t - t_warm
        if window <= 0:
            raise ValueError("horizon too short for the requested warm-up")
        done = np.array(completions, dtype=np.int64)
        th_w[rep] = done[2::3].sum() / window
        th_station[rep] = done / window
        soj_mean[rep] = np.where(done > 0, np.array(soj_sum) / np.maximum(done, 1), 0.0)

    mean = float(th_w.mean())
    hw = 0.0 if replications < 2 else \
        1.96 * float(th_w.std(ddof=1)) / math.sqrt(replications)
    return DesEstimate(
        warehouse_throughput=mean, warehouse_throughput_hw=hw,
        per_replication=th_w,
        station_sojourn=soj_mean.mean(axis=0),
        station_throughput=th_station.mean(axis=0),
        replications=replications, horizon_events=horizon_events,
        travel=travel_label)


# ---------------------------------------------------------------------------
# random instances and the validation suite


def random_scenario(rng: np.random.Generator, n_warehouses: int = 2, *,
                    rate_range: tuple[float, float] = (0.5, 4.0),
                    radius_range: tuple[float, float] = (0.5, 5.0),
                    demand_range: tuple[float, float] = (0.5, 4.0),
                    max_servers: int = 1,
                    speed: float = 1.0) -> Scenario:
    """Random star instance with warehouses scattered around the origin, so
    analyzing at center (0, 0) gives lane distances inside ``radius_range``."""
    warehouses = []
    for i in range(n_warehouses):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(*radius_range)
        warehouses.append(Warehouse(
            id=2 + i,
            position=(radius * math.cos(angle), radius * math.sin(angle)),
            demand_per_day=float(rng.uniform(*demand_range)),
            servers=int(rng.integers(1, max_servers + 1)),
            unload_rate_per_hour=float(rng.uniform(*rate_range)),
        ))
    center = Center(servers=int(rng.integers(1, max_servers + 1)),
                    load_rate_per_hour=float(rng.uniform(*rate_range)))
    return Scenario(warehouses=tuple(warehouses), center=center,
                    truck_speed_kmh=speed)


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        return CheckResult(name, True, fn())
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_validation_suite(seed: int = 0, *, instances: int = 4, trucks: int = 4,
                         des_events: int = 60_000, des_replications: int = 10
                         ) -> list[CheckResult]:
    """Cross-validate the analytic pipeline against all three oracles."""
    rng = np.random.default_rng(seed)
    results = []

    def enumeration_check() -> str:
        worst = 0.0
        for _ in range(instances):
            sc = random_scenario(rng, int(rng.integers(2, 4)))
            star = build_star(sc, (0.0, 0.0))
            n = int(rng.integers(1, trucks + 1))
            stations, _, eta = _explicit_star(star)
            table = conv.convolve_stations(stations, eta, n)
            enum = enumerate_product_form(stations, eta, n)
            rel = abs(table.value(n) - enum.norm_constant) / enum.norm_constant
            worst = max(worst, rel)
            agg_tab = aggregated_norm_constants(star, n)
            rel2 = abs(agg_tab.value(n) - enum.norm_constant) / enum.norm_constant
            worst = max(worst, rel2)
            if worst > 1e-10:
                raise AssertionError(
                    f"normalization mismatch {worst:.2e} (explicit vs enumerated)")
        return f"max relative G error {worst:.2e} over {instances} instances"

    results.append(_check("enumeration vs convolution", enumeration_check))

    def ctmc_check() -> str:
        worst = 0.0
        for _ in range(instances):
            sc = random_scenario(rng, 2)
            star = build_star(sc, (0.0, 0.0))
            n = int(rng.integers(1, trucks + 1))
            stations, routing, eta = _explicit_star(star)
            th = eta * AggregatedConvolution(star).throughput(n)
            res = ctmc_throughput(stations, routing, n)
            rel = float(np.max(np.abs(res.station_throughput - th)
                               / np.maximum(th, 1e-300)))
            worst = max(worst, rel)
            if rel > 1e-9:
                raise AssertionError(f"CTMC throughput mismatch {rel:.2e}")
        return f"max relative throughput error {worst:.2e}"

    results.append(_check("ctmc vs convolution", ctmc_check))

    def grid_check() -> str:
        violations = 0
        for _ in range(instances):
            sc = random_scenario(rng, 3, radius_range=(2.0, 5.0))
            sol = solve_weber(WeberProblem.from_scenario(sc, weighted=True))
            pts = [sol.location] + [
                (sol.location[0] + 1.5 * math.cos(a), sol.location[1] + 1.5 * math.sin(a))
                for a in rng.uniform(0, 2 * math.pi, 6)
            ]
            vals = []
            for p in pts:
                st = build_star(sc, p)
                vals.append((st.kappa, AggregatedConvolution(st).warehouse_throughput(3)))
            best = max(v for _, v in vals)
            if vals[0][1] < best * (1 - 1e-12):
                violations += 1
            order = sorted(vals, key=lambda kv: kv[0])
            for (k1, v1), (k2, v2) in zip(order, order[1:]):
                if k2 > k1 + 2e-12 and not v2 < v1:
                    violations += 1
        if violations:
            raise AssertionError(f"{violations} ordering violations")
        return "hub point maximal; throughput decreasing in travel burden"

    results.append(_check("throughput maximal at the weighted hub point", grid_check))

    def monotone_check() -> str:
        for _ in range(instances):
            sc = random_scenario(rng, 2)
            star = build_star(sc, (0.0, 0.0))
            agg = AggregatedConvolution(star)
            ceiling = bottleneck(sc).ceiling_per_hour
            prev = 0.0
            for n in range(1, 16):
                th = agg.warehouse_throughput(n)
                if not th > prev:
                    raise AssertionError(f"throughput not strictly increasing at N={n}")
                if not th < ceiling:
                    raise AssertionError(f"throughput {th} reached ceiling {ceiling}")
                prev = th
        return "strictly increasing in fleet size, always below the ceiling"

    results.append(_check("fleet-size monotonicity", monotone_check))

    def insensitivity_check() -> str:
        sc = random_scenario(rng, 2, radius_range=(1.0, 3.0))
        star = build_star(sc, (0.0, 0.0))
        n = 3
        analytic = AggregatedConvolution(star).warehouse_throughput(n)
        seed2 = int(rng.integers(0, 2**31))
        a = simulate(star, n, horizon_events=des_events,
                     replications=des_replications, seed=seed2,
                     travel="exponential")
        b = simulate(star, n, horizon_events=des_events,
                     replications=des_replications, seed=seed2,
                     travel="deterministic")
        gap = abs(a.warehouse_throughput - b.warehouse_throughput)
        budget = a.warehouse_throughput_hw + b.warehouse_throughput_hw
        if gap >= budget:
            raise AssertionError(
                f"exp vs det gap {gap:.4g} exceeds CI budget {budget:.4g}")
        for est in (a, b):
            if abs(est.warehouse_throughput - analytic) > 3 * max(est.warehouse_throughput_hw, 1e-12):
                raise AssertionError(
                    f"simulated {est.warehouse_throughput:.4g} far from analytic {analytic:.4g}")
        return (f"exp vs det gap {gap:.2e} within CI budget {budget:.2e}; "
                f"analytic {analytic:.4g} covered")

    results.append(_check("travel-time insensitivity (DES)", insensitivity_check))

    def range_check() -> str:
        sc = random_scenario(rng, 2, rate_range=(0.5, 1.0))
        star = build_star(sc, (0.0, 0.0))
        # every entry is cross-checked as it is built; a disagreement raises
        conv.convolve_stations(*aggregated_stations(star), 60)
        return "log-domain and extended-range paths agree"

    results.append(_check("log/linear convolution agreement", range_check))
    return results
