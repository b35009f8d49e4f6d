"""Independent answer checker for the benchmark.

Exact throughput of the closed star network, computed here from the
scenario alone and sharing no code with ``hubfleet``: normalization
constants are accumulated in natural logs, one station at a time.

Visit ratios are per truck cycle: the hub 1, dock j rho_j.  Every lane is
an infinite server, so the lanes pool into one infinite server whose load is
the visit-weighted round-trip time a = sum_j rho_j * 2 d_j / speed, and the
table starts from log g(m) = m log a - log m!.  A single-server station with
load x folds in as a discounted running sum,

    G'(m) = sum_k x^k G(m - k) = x^m * sum_{k<=m} G(k) / x^k,

which is one ``logaddexp.accumulate``.  A station with s > 1 servers folds
with the full O(N^2) convolution against f(n) = x^n / prod_k min(k, s).
Deliveries per hour are TH(N) = G(N-1)/G(N); the hub is folded last, so the
table before it gives P(hub idle) = G_without_hub(N) / G(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative slack when a fleet's delivered volume sits on the demand line:
# two exact methods may round a tie either way.
TIE_RTOL = 1e-9
# Agreement required between the program's exact figures and these.
VALUE_RTOL = 1e-8
BUSY_ATOL = 1e-8


def _demand_shares(scenario) -> np.ndarray:
    d = np.array([w.demand_per_day for w in scenario.warehouses], dtype=float)
    return d / d.sum()


def _lane_load(scenario, center) -> float:
    rho = _demand_shares(scenario)
    dist = np.array([math.hypot(w.position[0] - center[0], w.position[1] - center[1])
                     for w in scenario.warehouses])
    return float((rho * 2.0 * dist).sum() / scenario.truck_speed_kmh)


def _fold(logg: np.ndarray, x: float, servers: int) -> np.ndarray:
    lx = math.log(x)
    k = np.arange(len(logg))
    if servers == 1:
        return k * lx + np.logaddexp.accumulate(logg - k * lx)
    logf = k * lx - np.concatenate(([0.0], np.cumsum(np.log(np.minimum(k[1:], servers)))))
    diff = k[:, None] - k[None, :]
    terms = np.where(diff >= 0, logg[np.clip(diff, 0, None)] + logf[None, :], -np.inf)
    return np.logaddexp.reduce(terms, axis=1)


@dataclass(frozen=True)
class Reference:
    """log G(0..N) with and without the hub."""

    log_g: np.ndarray
    log_g_no_hub: np.ndarray

    def throughput(self, n: int) -> float:
        """Deliveries per hour with n trucks."""
        return math.exp(self.log_g[n - 1] - self.log_g[n])

    def hub_busy(self, n: int) -> float:
        return -math.expm1(self.log_g_no_hub[n] - self.log_g[n])


def reference(scenario, center, population: int) -> Reference:
    a = _lane_load(scenario, center)
    m = np.arange(population + 1)
    if a > 0:
        logg = m * math.log(a) - np.concatenate(([0.0], np.cumsum(np.log(m[1:]))))
    else:
        logg = np.where(m == 0, 0.0, -np.inf)
    for w, share in zip(scenario.warehouses, _demand_shares(scenario)):
        logg = _fold(logg, share / w.unload_rate_per_hour, w.servers)
    rate = scenario.center.load_rate_per_hour
    no_hub = logg
    if not math.isinf(rate):
        logg = _fold(logg, 1.0 / rate, scenario.center.servers)
    return Reference(logg, no_hub)


def ceiling_per_day(scenario) -> float:
    """Saturation limit of deliveries per day as the fleet grows."""
    caps = [scenario.center.load_rate_per_hour * scenario.center.servers]
    caps += [w.unload_rate_per_hour * w.servers / share
             for w, share in zip(scenario.warehouses, _demand_shares(scenario))]
    return min(caps) * scenario.hours_per_day


def _volume(scenario, ref: Reference, n: int) -> float:
    return scenario.truck_capacity * scenario.hours_per_day * ref.throughput(n)


def covers(scenario, ref: Reference, n: int) -> bool:
    return _volume(scenario, ref, n) >= scenario.total_demand_per_day * (1 - TIE_RTOL)


def falls_short(scenario, ref: Reference, n: int) -> bool:
    return _volume(scenario, ref, n) < scenario.total_demand_per_day * (1 + TIE_RTOL)


def min_fleet(scenario, center, n_max: int) -> int | None:
    """Smallest fleet up to n_max that covers demand, or None."""
    ref = reference(scenario, center, n_max)
    return next((n for n in range(1, n_max + 1) if covers(scenario, ref, n)), None)


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= VALUE_RTOL * abs(b)


def check_fleet(scenario, center, res) -> str | None:
    """A ``FleetResult`` is the minimal fleet, or a correct infeasibility."""
    demand = scenario.total_demand_per_day
    if scenario.truck_capacity * ceiling_per_day(scenario) <= demand:
        if res.feasible or res.infeasibility_reason != "ceiling":
            return "demand is at or above the saturation ceiling"
        return None
    cap = scenario.max_trucks
    if not res.feasible:
        if res.infeasibility_reason != "max_trucks":
            return f"wrong infeasibility reason {res.infeasibility_reason!r}"
        ref = reference(scenario, center, cap)
        if not falls_short(scenario, ref, cap):
            return f"{cap} trucks cover demand, result says infeasible"
        if not _close(res.throughput_per_day, ref.throughput(cap) * scenario.hours_per_day):
            return "throughput at the fleet cap disagrees with the reference"
        return None
    n = res.trucks
    if not 1 <= n <= cap:
        return f"fleet size {n} outside 1..{cap}"
    ref = reference(scenario, center, n)
    if not covers(scenario, ref, n):
        return f"{n} trucks do not cover demand"
    if n > 1 and not falls_short(scenario, ref, n - 1):
        return f"{n - 1} trucks already cover demand"
    if not _close(res.throughput_per_day, ref.throughput(n) * scenario.hours_per_day):
        return "fleet throughput disagrees with the reference"
    return None


def check_analysis(scenario, center, ana) -> str | None:
    ref = reference(scenario, center, ana.trucks)
    if not _close(ana.warehouse_throughput, ref.throughput(ana.trucks)):
        return "analyze throughput disagrees with the reference"
    if not abs(ana.busy_center - ref.hub_busy(ana.trucks)) <= BUSY_ATOL:
        return "analyze hub busy disagrees with the reference"
    return None


def check_weber(scenario, location, weighted: bool, step: float = 1e-3) -> str | None:
    """The weighted distance sum is locally, hence (convexity) globally,
    minimal at ``location``."""
    a = np.array([w.position for w in scenario.warehouses], dtype=float)
    wts = _demand_shares(scenario) if weighted else np.ones(len(a))

    def cost(x, y):
        return float((wts * np.hypot(a[:, 0] - x, a[:, 1] - y)).sum())

    x, y = location
    here = cost(x, y)
    for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
        if cost(x + dx, y + dy) < here - 1e-12 * max(1.0, here):
            return "hub location is not a weighted-distance minimum"
    return None


def check_rate(scenario, center, step: float, rate, res) -> str | None:
    """``min_center_rate``: the rate is feasible and one grid step lower is not."""
    if rate is None:
        return "no hub rate found, but an infinitely fast hub is feasible"
    k = round(rate / step)
    if not (k >= 1 and abs(rate - k * step) <= 1e-9 * rate):
        return f"rate {rate!r} is not on the {step!r} grid"
    if not res.feasible:
        return "fleet result at the returned rate is infeasible"
    err = check_fleet(scenario.with_center_rate(rate), center, res)
    if err:
        return f"at the returned rate: {err}"
    if k == 1:
        return None   # no positive rate one step lower
    lower = scenario.with_center_rate((k - 1) * step)
    if lower.truck_capacity * ceiling_per_day(lower) > lower.total_demand_per_day:
        ref = reference(lower, center, lower.max_trucks)
        if not falls_short(lower, ref, lower.max_trucks):
            return "one rate step lower is already feasible"
    return None


def check_simulation(scenario, center, trucks: int, est, rtol: float, hw_mult: float) -> str | None:
    """The pooled DES throughput lies near the exact throughput."""
    exact = reference(scenario, center, trucks).throughput(trucks)
    tol = max(rtol * exact, hw_mult * est.warehouse_throughput_hw)
    if not abs(est.warehouse_throughput - exact) <= tol:
        return (f"simulated throughput {est.warehouse_throughput:.6g} is more than "
                f"{tol:.3g} from exact {exact:.6g}")
    return None
