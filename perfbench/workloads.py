"""The benchmark workloads: ``blocks`` and ``regimes``.

Each workload turns a seed into a list of cases (``generate``), runs one
op on a case through the public ``hubfleet`` API (``op``), checks the
answer against ``reference`` (``check``) and, for the checker self-test,
derives deliberately wrong answers from a right one (``wrong_answers``).

``regimes`` takes one op of each of three kinds in turn: ``long_lanes``
(deep tables), ``hub_rate`` (many shallow probes) and ``des`` (the event
loop).  They share one workload, not one each, so that each run is long
enough to average out run-to-run timing noise within the benchmark's time
budget; the traced run still tells them apart.

Ops look functions up on their ``hubfleet`` module at call time, so the
traced run's wrappers see them.

Every seed gets the same mix: a case list is built in rounds, each round
holds one case per stratum of the input property that sets an op's cost,
and rounds visit the strata in bit-reversed order, so any prefix of the
list (a faster build runs more of it) covers the whole range evenly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

ROUNDS = 64   # strata per workload; a power of two
# each part of ``regimes`` yields this many rounds of ROUNDS cases
PART_ROUNDS = 4


def _bit_reversed(n: int) -> list[int]:
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def _stratified(rng: np.random.Generator, cases: list, key) -> list:
    """One case drawn from each of ROUNDS equal strata of ``key``, strata
    in bit-reversed order."""
    per = len(cases) // ROUNDS
    ranked = sorted(cases, key=key)
    picks = [ranked[per * i + int(rng.integers(per))] for i in range(ROUNDS)]
    return [picks[i] for i in _bit_reversed(ROUNDS)]


def _interleave(*lists: list) -> list:
    return [case for group in zip(*lists) for case in group]


def _weighted_centroid(scenario) -> tuple[float, float]:
    pos = np.array(scenario.warehouse_positions, dtype=float)
    dem = np.array([w.demand_per_day for w in scenario.warehouses], dtype=float)
    x, y = (dem[:, None] * pos).sum(axis=0) / dem.sum()
    return float(x), float(y)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    wrong_answers: Callable[[Any, Any], list]
    # Ops per second assumed when sizing the traced run; a constant, so the
    # traced op list, and with it every count, depends only on the seed.
    trace_rate: float = 0.0


# ---------------------------------------------------------------------------
# blocks: the paper's experiment, compare_locations on generate's instances

BLOCK_NAMES = ("I", "II", "III", "IV")


def _blocks_generate(seed: int) -> list:
    from hubfleet import cli
    rng = np.random.default_rng(seed)
    # within a block, total demand sets the fleet size and whether the hub
    # ceiling binds, which sets the op's cost
    per_block = [
        _stratified(rng, [cli.sample_instance(rng, cli.BLOCKS[b]) for _ in range(4 * ROUNDS)],
                    key=lambda s: s.total_demand_per_day)
        for b in BLOCK_NAMES]
    return _interleave(*per_block)


def _blocks_op(scenario):
    from hubfleet import fleet
    return fleet.compare_locations(scenario)


def _placement_error(scenario, out, weighted: bool) -> str | None:
    err = (ref.check_weber(scenario, out.location, weighted)
           or ref.check_fleet(scenario, out.location, out.fleet))
    if err:
        return err
    n_report = out.fleet.trucks if out.fleet.feasible else scenario.max_trucks
    if out.analysis.trucks != n_report:
        return f"analysis at {out.analysis.trucks} trucks, expected {n_report}"
    return ref.check_analysis(scenario, out.location, out.analysis)


def _blocks_check(scenario, comp) -> str | None:
    for out, weighted in ((comp.weighted, True), (comp.unweighted, False)):
        err = _placement_error(scenario, out, weighted)
        if err:
            return f"{out.label}: {err}"
    return None


def _blocks_wrong(scenario, comp) -> list:
    w = comp.weighted
    wrong = [("throughput +1e-6", dataclasses.replace(comp, weighted=dataclasses.replace(
        w, analysis=dataclasses.replace(
            w.analysis, warehouse_throughput=w.analysis.warehouse_throughput * (1 + 1e-6)))))]
    if w.fleet.feasible:
        for d in (1, -1):
            bad = dataclasses.replace(w.fleet, trucks=w.fleet.trucks + d)
            wrong.append((f"fleet {d:+d}", dataclasses.replace(
                comp, weighted=dataclasses.replace(w, fleet=bad))))
    return wrong


# ---------------------------------------------------------------------------
# long_lanes: slow trucks, deep tables, fleet cap 400

LONG_LANES_CAP = 400
# Speed ranges in km/h: every EDGE_EVERY-th case sits at the slow edge,
# where the cap binds and G spans hundreds of decades; the rest where the
# minimal fleet is roughly 100-400 trucks.
EDGE_SPEEDS = (0.05, 1.0)
DEEP_SPEEDS = (1.6, 5.0)
EDGE_EVERY = 4


def _long_lanes_generate(seed: int) -> list:
    from hubfleet import cli
    rng = np.random.default_rng(seed)
    out = []
    for i, r in enumerate(_bit_reversed(ROUNDS) * PART_ROUNDS):
        lo, hi = EDGE_SPEEDS if i % EDGE_EVERY == 0 else DEEP_SPEEDS
        u = (r + rng.random()) / ROUNDS
        speed = lo * (hi / lo) ** u
        scenario = cli.sample_instance(rng, cli.BLOCKS["I"], speed=speed)
        out.append(dataclasses.replace(scenario, max_trucks=LONG_LANES_CAP))
    return out


def _grid(location) -> list:
    """The ``grid`` verb's points for a radius below the step: the hub."""
    return [location]


def _long_lanes_op(scenario):
    from hubfleet import fleet, star, weber
    loc = weber.solve_weber(weber.WeberProblem.from_scenario(scenario, weighted=True)).location
    res = fleet.min_trucks(scenario, loc)
    n = res.trucks if res.feasible else scenario.max_trucks
    return loc, res, n, star.throughput_vs_location(scenario, n, _grid(loc))


def _long_lanes_check(scenario, answer) -> str | None:
    loc, res, n, rows = answer
    err = ref.check_weber(scenario, loc, True) or ref.check_fleet(scenario, loc, res)
    if err:
        return err
    for point, th in rows:
        exact = ref.reference(scenario, point, n).throughput(n)
        if not abs(th - exact) <= ref.VALUE_RTOL * exact:
            return f"grid throughput at {point} disagrees with the reference"
    return None


def _long_lanes_wrong(scenario, answer) -> list:
    loc, res, n, rows = answer
    (point, th), *rest = rows
    wrong = [("grid +1e-6", (loc, res, n, [(point, th * (1 + 1e-6))] + rest))]
    if res.feasible:
        wrong += [(f"fleet {d:+d}", (loc, dataclasses.replace(res, trucks=res.trucks + d), n, rows))
                  for d in (1, -1)]
    return wrong


# ---------------------------------------------------------------------------
# hub_rate: the hub binds; min_center_rate scans a fine grid of hub rates

HUB_SERVERS = (1, 2, 3)
# fleet cap above the fleet an infinitely fast hub needs
CAP_SLACK = 3
# rate step as a share of the demand lower bound on the hub rate
RATE_STEP_SHARE = 1 / 200


def _hub_rate_generate(seed: int) -> list:
    from hubfleet import cli
    from hubfleet.scenario import Center
    rng = np.random.default_rng(seed)
    out = []
    for i in range(ROUNDS * PART_ROUNDS):
        base = cli.sample_instance(rng, cli.BLOCKS["I"])
        servers = HUB_SERVERS[i % len(HUB_SERVERS)]
        lb = base.total_demand_per_day / (base.truck_capacity * servers * base.hours_per_day)
        loc = _weighted_centroid(base)
        fast = dataclasses.replace(base, center=Center(servers, math.inf, loc), max_trucks=200)
        cap = ref.min_fleet(fast, loc, fast.max_trucks) + CAP_SLACK
        scenario = dataclasses.replace(
            base, center=Center(servers, lb / 2, loc), max_trucks=cap)
        out.append((scenario, lb * RATE_STEP_SHARE))
    return out


def _hub_rate_op(case):
    from hubfleet import fleet
    scenario, step = case
    return fleet.min_center_rate(scenario, scenario.center.location, rate_step=step)


def _hub_rate_check(case, answer) -> str | None:
    scenario, step = case
    rate, res = answer
    return ref.check_rate(scenario, scenario.center.location, step, rate, res)


def _hub_rate_wrong(case, answer) -> list:
    _, step = case
    rate, res = answer
    return [(f"rate {d:+d} step", (rate + d * step, res)) for d in (1, -1)]


# ---------------------------------------------------------------------------
# des: the discrete-event simulator on small and 12-town stars

DES_HORIZON = 20_000
DES_REPLICATIONS = 4
# a pooled estimate must lie within max(DES_RTOL * exact, DES_HW * half-width)
DES_RTOL = 0.03
DES_HW = 4.0


def _des_generate(seed: int) -> list:
    from hubfleet import oracle, scenario as scen, star
    rng = np.random.default_rng(seed)
    towns = [scen.bundled_scenario("towns12-log"), scen.bundled_scenario("towns12-pro")]
    out = []
    for i in range(ROUNDS * PART_ROUNDS):
        if (i // 2) % 2 == 0:
            sc = towns[(i // 4) % 2]
            loc, trucks = _weighted_centroid(sc), int(rng.integers(10, 31))
        else:
            sc = oracle.random_scenario(rng, int(rng.integers(2, 5)), max_servers=2)
            loc, trucks = (0.0, 0.0), int(rng.integers(3, 9))
        travel = "exponential" if i % 2 == 0 else "deterministic"
        out.append((star.build_star(sc, loc), trucks, travel, int(rng.integers(2**31))))
    return out


def _des_op(case):
    from hubfleet import oracle
    net, trucks, travel, seed = case
    return oracle.simulate(net, trucks, horizon_events=DES_HORIZON,
                           replications=DES_REPLICATIONS, seed=seed, travel=travel)


def _des_check(case, est) -> str | None:
    net, trucks, _, _ = case
    return ref.check_simulation(net.scenario, net.center, trucks, est, DES_RTOL, DES_HW)


def _des_wrong(case, est) -> list:
    return [("throughput x1.25", dataclasses.replace(
        est, warehouse_throughput=est.warehouse_throughput * 1.25))]


# ---------------------------------------------------------------------------
# regimes: long_lanes, hub_rate and des ops in turn

REGIME_PARTS = (
    Workload("long_lanes", _long_lanes_generate, _long_lanes_op, _long_lanes_check,
             _long_lanes_wrong),
    Workload("hub_rate", _hub_rate_generate, _hub_rate_op, _hub_rate_check, _hub_rate_wrong),
    Workload("des", _des_generate, _des_op, _des_check, _des_wrong),
)


def _regimes_generate(seed: int) -> list:
    return _interleave(*[[(part, case) for case in part.generate(seed)]
                         for part in REGIME_PARTS])


def _regimes_op(case):
    part, inner = case
    return part.op(inner)


def _regimes_check(case, answer) -> str | None:
    part, inner = case
    err = part.check(inner, answer)
    return f"{part.name}: {err}" if err else None


def _regimes_wrong(case, answer) -> list:
    part, inner = case
    return [(f"{part.name} {label}", wrong) for label, wrong in part.wrong_answers(inner, answer)]


WORKLOADS = {w.name: w for w in (
    Workload("blocks", _blocks_generate, _blocks_op, _blocks_check, _blocks_wrong, 5.0),
    Workload("regimes", _regimes_generate, _regimes_op, _regimes_check, _regimes_wrong, 7.5),
)}
