"""Independent cross-checks for the convolution analysis.

Three oracles work on the explicit star that lane pooling collapses: the
hub, then per warehouse an outbound lane, the dock and a return lane,
3J + 1 stations in all, built here by ``_explicit_star``:

* brute-force product-form enumeration over all states,
* exact CTMC steady state from the generator matrix,
* a discrete-event simulation of the star network.

They share only the model's inputs with the analytic path: the scenario
and hub location of a ``StarNetwork``, from which they compute lane travel
times, demand shares and visit ratios themselves.  They share none of its
arithmetic: no lane pooling, no fold order, no ladder or log forms and no
cross-check.

Station lists (``Station``) live here, as only the oracles and the tests
build them.  ``convolve_stations`` and ``marginal_distribution`` read a
list's table and each station's factors from the analytic path's engine,
and ``aggregated_stations`` lists the pooled J+1 station form for them.

Plus random instance generation and the validation suite behind the
``validate`` CLI verb.
"""

from __future__ import annotations

import math
import os
import signal
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, repeat, starmap
from typing import Callable, Iterator, Sequence

import numpy as np

from .convolution import (Convolution, ConvolutionTable, LaneLast, NumericalRangeError,
                          _check_entry, _PooledLane)
from .scenario import Center, Scenario, Warehouse, demand_fractions
from .star import (HUB_VISIT_RATIO, AggregatedConvolution, StarNetwork,
                   aggregated_norm_constants, bottleneck, build_star)
from .weber import WeberProblem, solve_weber

_ENUM_STATE_LIMIT = 1_000_000
_CTMC_STATE_LIMIT = 3_000


@dataclass(frozen=True)
class Station:
    """One service station of a closed network.

    ``servers`` is an integer for FCFS multi-server exponential stations and
    ``None`` for an infinite-server station, where ``rate`` is 1/mean and the
    effective rate with n customers is ``n * rate``.
    """

    name: str
    rate: float = 1.0
    servers: int | None = 1

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"station {self.name}: rate must be positive")
        if self.servers is not None and self.servers < 1:
            raise ValueError(f"station {self.name}: servers must be >= 1 or None")

    def service_rate(self, n: int) -> float:
        if n <= 0:
            return 0.0
        if self.servers is None:
            return self.rate * n
        return self.rate * min(n, self.servers)

    @property
    def is_infinite_server(self) -> bool:
        return self.servers is None


def multi_server(name: str, rate: float, servers: int = 1) -> Station:
    return Station(name=name, rate=rate, servers=servers)


def infinite_server(name: str, mean: float) -> Station:
    """Infinite-server station with the given mean holding time.

    A zero mean is allowed (e.g. a travel leg of zero length); the station
    then never holds customers.
    """
    if mean < 0:
        raise ValueError(f"station {name}: mean must be non-negative")
    rate = math.inf if mean == 0 else 1.0 / mean
    return Station(name=name, rate=rate, servers=None)


def _as_eta_array(eta: Sequence[float], count: int) -> list[float]:
    etas = [float(e) for e in eta]
    if len(etas) != count:
        raise ValueError(f"expected {count} visit ratios, got {len(etas)}")
    if not all(math.isfinite(e) for e in etas):
        raise ValueError("visit ratios must be finite")
    if any(e < 0 for e in etas) or not any(e > 0 for e in etas):
        raise ValueError("visit ratios must be non-negative with at least one positive entry")
    return etas


def _pooled(stations: Sequence[Station], etas: Sequence[float]
            ) -> tuple[float, list[tuple[float, int]]]:
    """kappa, the summed load of the infinite-server stations, and
    (load, servers) of the others in list order, less those of zero load:
    they hold nobody and leave every G as it is."""
    kappa, loads = 0.0, []
    for st, e in zip(stations, etas):
        if st.is_infinite_server:
            kappa += 0.0 if math.isinf(st.rate) else e / st.rate
        else:
            loads.append((e / st.rate, st.servers))
    return kappa, [(x, servers) for x, servers in loads if x]


def _table(stations: Sequence[Station], etas: Sequence[float],
           population: int) -> ConvolutionTable:
    """G(0..population) of a station list: the queueing stations fold in
    list order and the pooled lane folds in last (``LaneLast``).  Lanes
    alone give their factors kappa^m / m!, unchecked: R would be the empty
    network's row, which ``extend_to`` rejects past 0."""
    kappa, loads = _pooled(stations, etas)
    if loads:
        return LaneLast(kappa, Convolution(loads)).table(population)
    if population < 0:
        raise ValueError("population must be non-negative")
    lane = _PooledLane(kappa)
    lane.build(None, population)
    return ConvolutionTable(tuple(lane.mant), tuple(lane.exp), tuple(lane.log))


def convolve_stations(stations: Sequence[Station], eta: Sequence[float],
                      population: int) -> ConvolutionTable:
    """Convolution over an explicit station list (no routing needed), from
    ``_table``, with every entry checked."""
    table = _table(stations, _as_eta_array(eta, len(stations)), population)
    for m, entry in enumerate(zip(table.mantissa, table.exponent, table.log_values)):
        _check_entry(m, *entry)
    return table


def marginal_distribution(stations: Sequence[Station], eta: Sequence[float],
                          table: ConvolutionTable, node: int) -> np.ndarray:
    """Stationary distribution of the queue length at one station.

    P(n_node = k) = g_node(k) * G_without_node(N - k) / G(N), where the
    station's factors g_node and the complement's constants are the tables
    of their own station lists, from the engine that builds G (``_table``);
    the result sums to 1 up to numerical round-off.
    """
    etas = _as_eta_array(eta, len(stations))
    n = table.population
    if not 0 <= node < len(stations):
        raise ValueError(f"no station with index {node}")
    tm, te = table.mantissa, table.exponent
    g = _table([stations[node]], [etas[node]], n)
    rest = [i for i in range(len(stations)) if i != node]
    comp = _table([stations[i] for i in rest], [etas[i] for i in rest], n)
    gm, ge, cm, ce = g.mantissa, g.exponent, comp.mantissa, comp.exponent
    probs = np.zeros(n + 1)
    for k in range(n + 1):
        num = gm[k] * cm[n - k]
        if num != 0.0:
            probs[k] = math.ldexp(num / tm[n], ge[k] + ce[n - k] - te[n])
    total = float(probs.sum())
    if not math.isfinite(total) or abs(total - 1.0) > 1e-10:
        raise NumericalRangeError(f"marginal distribution sums to {total!r}")
    probs.flags.writeable = False
    return probs


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
                   ) -> tuple[tuple[Station, ...], np.ndarray, np.ndarray]:
    """Stations, routing matrix and visit ratios of the star before lane
    pooling: hub 0, then warehouse i's outbound lane 1+3i, dock 2+3i and
    return lane 3+3i.  The hub has visit ratio 1/4 and each leg of
    warehouse i rho_i / 4."""
    s = star.scenario
    k = len(s.warehouses)
    stations = [multi_server("center", s.center.load_rate_per_hour, s.center.servers)]
    for w, mean in zip(s.warehouses, _lane_hours(star)):
        stations += [infinite_server(f"lane_out_{w.id}", mean),
                     multi_server(f"warehouse_{w.id}", w.unload_rate_per_hour, w.servers),
                     infinite_server(f"lane_back_{w.id}", mean)]
    routing = np.zeros((1 + 3 * k, 1 + 3 * k))
    eta = np.empty(1 + 3 * k)
    eta[0] = HUB_VISIT_RATIO
    for i, rho in enumerate(demand_fractions(s)):
        out, dock, back = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        routing[0, out] = rho
        routing[out, dock] = routing[dock, back] = routing[back, 0] = 1.0
        eta[out:back + 1] = rho * HUB_VISIT_RATIO
    return tuple(stations), routing, eta


def aggregated_stations(star: StarNetwork) -> tuple[tuple[Station, ...], list[float]]:
    """Hub, warehouse docks and the pooled lane station, with visit ratios:
    the J+1 station form that ``AggregatedConvolution`` folds, for
    ``convolve_stations`` and ``marginal_distribution``.  The pooled lane
    has visit ratio 1/2 and mean holding time 2 kappa."""
    s = star.scenario
    stations = [multi_server("center", s.center.load_rate_per_hour,
                                  s.center.servers)]
    stations += [
        multi_server(f"warehouse_{w.id}", w.unload_rate_per_hour, w.servers)
        for w in s.warehouses
    ]
    stations.append(infinite_server("lanes", 2.0 * star.kappa))
    eta = [HUB_VISIT_RATIO, *(rho * HUB_VISIT_RATIO for rho in demand_fractions(s)), 0.5]
    return tuple(stations), eta


def _plain_factors(stations: Sequence[Station], eta: np.ndarray,
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


def enumerate_product_form(stations: Sequence[Station], eta: Sequence[float],
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
        raise NumericalRangeError(f"enumerated normalization constant is {total!r}")
    return EnumerationResult(states=tuple(states), probabilities=weights / total,
                             norm_constant=total, state_count=count)


@dataclass(frozen=True, slots=True)
class CtmcResult:
    states: tuple[tuple[int, ...], ...]
    pi: np.ndarray
    station_throughput: np.ndarray  # sum_s pi(s) mu_j(n_j)
    residual: float


def ctmc_throughput(stations: Sequence[Station], routing: np.ndarray,
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
        raise NumericalRangeError(f"CTMC solve residual {residual:.3e}")
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

    A replication's draws depend on its keys alone, so it gives the same
    bits in any process.  With two or more replications and a named
    ``travel``, they are dealt round-robin to this process and to one
    worker for each further CPU it may use (``os.sched_getaffinity``), up
    to one per replication; the workers are forked on first need and live
    as long as this process.  A callable ``travel``, a single replication,
    one usable CPU, a platform without ``fork`` or a daemonic process keeps
    every replication in this process.
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
    setup = (seed, trucks, travel, servers, after, mean_time, bounds,
             int(warmup_fraction * horizon_events), horizon_events)

    th_w = np.zeros(replications)
    soj_mean = np.zeros((replications, n_st))
    th_station = np.zeros((replications, n_st))
    for rep, (completions, soj_sum, window) in enumerate(
            _replications(setup, replications)):
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


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _replication(rep: int, seed: int, trucks: int, travel: str | Callable,
                 servers: list[int], after: list[int], mean_time: list[float],
                 bounds: np.ndarray, warm_count: int, horizon_events: int
                 ) -> tuple[list[int], list[float], float]:
    """Run replication ``rep`` of ``simulate``: each station's completions and
    summed sojourn times in the measured window, and the window's length."""
    n_st = len(servers)
    route = chain.from_iterable(
        (1 + 3 * bounds.searchsorted(u, "right")).tolist()
        for u in map(_rng(seed, rep, 0).random, repeat(_BLOCK))).__next__
    travel_rng = _rng(seed, rep, 2)

    draw = []
    for st in range(n_st):
        mean = mean_time[st]
        if servers[st]:
            draw.append(_stream(partial(_rng(seed, rep, 1, st).exponential, mean, _BLOCK)))
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
    return completions, soj_sum, t - t_warm


# (process, caller's end of its pipe) of each replication worker, forked by
# the process _owner
_workers: list = []
_owner = None


def _replications(setup: tuple, count: int) -> list:
    """``_replication(rep, *setup)`` for every rep below ``count``, in rep
    order.  Rep r runs on participant r mod (1 + workers): this process is
    participant 0, and worker i participant i."""
    conns = _worker_conns(count) if isinstance(setup[2], str) else []
    if not conns:
        return [_replication(rep, *setup) for rep in range(count)]
    share = 1 + len(conns)
    out = [None] * count
    try:
        for i, conn in enumerate(conns, 1):
            conn.send((setup, range(i, count, share)))
        out[::share] = [_replication(rep, *setup) for rep in range(0, count, share)]
        for i, conn in enumerate(conns, 1):
            # spin, not block: a caller that sleeps here runs the work that
            # follows it slower
            while not conn.poll(0):
                pass
            out[i::share] = conn.recv()
    except (EOFError, OSError):
        # a worker died, or its share raised: run every replication here
        _stop_workers()
        return [_replication(rep, *setup) for rep in range(count)]
    except BaseException:
        # a reply left unread would answer the next call
        _stop_workers()
        raise
    return out


def _worker_conns(replications: int) -> list:
    """Connections to the workers for ``replications`` replications: one for
    each CPU this process may use beyond its own, at most one for each
    replication beyond the first, and none without ``fork``.  A forked copy
    of the process that owns the workers starts its own."""
    global _owner
    affinity = getattr(os, "sched_getaffinity", None)
    want = min(len(affinity(0)) if affinity else 1, replications) - 1
    if want < 1:
        return []
    if _owner != os.getpid():
        for _, conn in _workers:
            conn.close()
        _workers.clear()
        _owner = os.getpid()
    if len(_workers) < want:
        import multiprocessing
        # a daemonic process, such as a multiprocessing.Pool worker, may
        # not start children
        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()):
            return []
        ctx = multiprocessing.get_context("fork")
        while len(_workers) < want:
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(theirs, [conn for _, conn in _workers] + [mine]))
            proc.start()
            theirs.close()
            _workers.append((proc, mine))
    return [conn for _, conn in _workers[:want]]


def _stop_workers() -> None:
    while _workers:
        proc, conn = _workers.pop()
        conn.close()
        proc.terminate()
        proc.join()


def _serve(conn, callers_ends: list) -> None:
    """A worker's loop: reply to each ``(setup, reps)`` request with the
    replications' results.  The worker holds no caller's end of a pipe, so
    it sees EOF, and exits, when its caller closes its end or dies; an
    exception ends it too, and the caller then runs the whole call itself.
    Ctrl-C reaches the caller alone."""
    for end in callers_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            setup, reps = conn.recv()
        except EOFError:
            return
        conn.send([_replication(rep, *setup) for rep in reps])


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


def run_validation_suite(seed: int = 0, *, instances: int = 4,
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
            n = int(rng.integers(1, 5))   # 1 to 4 trucks
            stations, _, eta = _explicit_star(star)
            table = convolve_stations(stations, eta, n)
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
            n = int(rng.integers(1, 5))   # 1 to 4 trucks
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
        convolve_stations(*aggregated_stations(star), 60)
        return "log-domain and extended-range paths agree"

    results.append(_check("log/linear convolution agreement", range_check))
    return results
