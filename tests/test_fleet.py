import dataclasses
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hubfleet import cli, fleet
from hubfleet.convolution import Convolution, LaneLast
from hubfleet.fleet import (compare_locations, min_center_rate, min_trucks,
                            solve_at)
from hubfleet.oracle import random_scenario
from hubfleet.scenario import Center, Scenario, Warehouse
from hubfleet.star import (HUB_VISIT_RATIO, AggregatedConvolution, analyze, bottleneck,
                           build_star, station_loads)
from hubfleet.weber import WeberProblem, solve_weber


def test_toy_single_truck_suffices(toy_star_scenario):
    # TH_w(1) = 1/4 per hour = 6 per day >= demand 5
    res = min_trucks(toy_star_scenario, (0.0, 0.0))
    assert res.feasible
    assert res.trucks == 1
    assert res.throughput_per_day == pytest.approx(6.0, rel=1e-14)
    assert bottleneck(toy_star_scenario).ceiling_per_day == pytest.approx(24.0)
    assert res.iterations == 1


def test_minimality(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    res = min_trucks(towns_log, sol.location)
    assert res.feasible
    star = build_star(towns_log, sol.location)
    agg = AggregatedConvolution(star)
    hours = towns_log.hours_per_day
    at = agg.warehouse_throughput(res.trucks) * hours
    below = agg.warehouse_throughput(res.trucks - 1) * hours
    assert at >= towns_log.total_demand_per_day
    assert below < towns_log.total_demand_per_day


def test_minimality_random():
    rng = np.random.default_rng(41)
    for _ in range(15):
        sc = random_scenario(rng, int(rng.integers(2, 5)))
        res = min_trucks(sc, (0.0, 0.0))
        if not res.feasible:
            continue
        agg = AggregatedConvolution(build_star(sc, (0.0, 0.0)))
        h = sc.hours_per_day
        assert agg.warehouse_throughput(res.trucks) * h >= sc.total_demand_per_day
        if res.trucks > 1:
            assert agg.warehouse_throughput(res.trucks - 1) * h \
                < sc.total_demand_per_day


def test_ceiling_precheck_skips_search(towns_pro):
    sc = towns_pro.with_center_rate(3.0)
    res = min_trucks(sc, (288.156, 112.283))
    assert not res.feasible
    assert res.infeasibility_reason == "ceiling"
    assert res.iterations == 0  # returned without iterating
    bn = bottleneck(sc)
    assert bn.ceiling_per_day == pytest.approx(72.0)
    assert bn.binding_node == 1
    assert math.isnan(res.throughput_per_day)


def test_max_trucks_exhaustion():
    # demand strictly below the ceiling but far above what 3 trucks deliver
    sc = Scenario(
        warehouses=(Warehouse(id=2, position=(100.0, 0.0), demand_per_day=20.0,
                              servers=1, unload_rate_per_hour=1.0),),
        center=Center(servers=1, load_rate_per_hour=1.0),
        truck_speed_kmh=10.0, max_trucks=3)
    res = min_trucks(sc, (0.0, 0.0))
    assert not res.feasible
    assert res.infeasibility_reason == "max_trucks"
    assert res.iterations == 3
    assert 0 < res.throughput_per_day < 20.0


def test_min_center_rate_lower_bound_math(towns_pro):
    # demand 81 at capacity 1, one dock, 24 hours: bound 81/24 = 3.375 and
    # the first grid point past it is 3.38
    demand = towns_pro.total_demand_per_day
    lb = demand / (towns_pro.truck_capacity * towns_pro.center.servers
                   * towns_pro.hours_per_day)
    assert lb == pytest.approx(3.375, abs=1e-12)
    step = 0.01
    first = (math.floor(lb / step) + 1) * step
    assert first == pytest.approx(3.38, abs=1e-9)


def test_min_center_rate_search(towns_pro):
    sol = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True))
    sc = towns_pro.with_center_rate(3.0)
    rate, res = min_center_rate(sc, sol.location)
    assert rate == pytest.approx(3.38, abs=1e-9)
    assert res.feasible
    assert res.trucks == 43
    # feasible scenarios return their own rate untouched
    rate2, res2 = min_center_rate(towns_pro, sol.location)
    assert rate2 == towns_pro.center.load_rate_per_hour
    assert res2.trucks == res2.iterations


@pytest.mark.parametrize("step", [0.0, -0.01, math.inf, math.nan])
def test_rate_search_rejects_a_step_that_is_not_positive_and_finite(towns_pro, step):
    # an infinite step would report the grid point 1 * inf as the answer
    with pytest.raises(ValueError, match="rate_step"):
        min_center_rate(towns_pro.with_center_rate(3.0), (288.156, 112.283), step)


def test_rate_search_rejects_a_step_too_small_for_the_grid_index(towns_pro):
    # the demand bound (about 3.4) over 1e-310 is not a finite float
    with pytest.raises(ValueError, match="rate_step"):
        min_center_rate(towns_pro.with_center_rate(3.0), (288.156, 112.283), 1e-310)


def _linear_rate_scan(scenario, center, rate_step):
    """Reference: the first feasible grid rate above the demand bound and
    the scenario's own rate, one grid step at a time."""
    base = min_trucks(scenario, center)
    if base.feasible:
        return scenario.center.load_rate_per_hour, base
    probe = min_trucks(scenario.with_center_rate(math.inf), center)
    if not probe.feasible:
        return None, probe
    lb = scenario.total_demand_per_day / (
        scenario.truck_capacity * scenario.center.servers * scenario.hours_per_day)
    k = math.floor(lb / rate_step) + 1
    while k * rate_step <= scenario.center.load_rate_per_hour:
        k += 1
    while True:
        res = min_trucks(scenario.with_center_rate(k * rate_step), center)
        if res.feasible:
            return k * rate_step, res
        k += 1


def test_rate_bisection_picks_the_linear_scans_grid_point(towns_pro):
    # hubs as the benchmark's hub_rate ops build them: rate lb/2, fleet cap
    # 3 above what an infinitely fast hub needs, step lb/200
    rng = np.random.default_rng(7)
    cases = []
    for i in range(18):
        base = cli.sample_instance(rng, cli.BLOCKS["I"])
        servers = 1 + i % 3
        lb = base.total_demand_per_day / (
            base.truck_capacity * servers * base.hours_per_day)
        w = np.array([wh.demand_per_day for wh in base.warehouses])
        center = tuple(w @ np.array(base.warehouse_positions) / w.sum())
        fast = dataclasses.replace(base, center=Center(servers, math.inf),
                                   max_trucks=200)
        cap = min_trucks(fast, center).trucks + 3
        sc = dataclasses.replace(base, center=Center(servers, lb / 2),
                                 max_trucks=cap)
        rate, _ = _linear_rate_scan(sc, center, lb / 200)
        # own rate above the bound, below the answer: infeasible, off the grid
        above = sc.with_center_rate((lb + rate) / 2)
        assert not min_trucks(above, center).feasible
        cases += [(sc, center, lb / 200), (above, center, lb / 200)]
    # towns12-pro: demand bound 3.375, own rate 3.377 infeasible at 45 trucks
    sol = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True))
    sc = dataclasses.replace(towns_pro.with_center_rate(3.377), max_trucks=45)
    cases.append((sc, sol.location, 1e-4))
    # hub-bound random stars with 1-3 hub and dock servers, so the probes
    # share multi-server dock rows and refold multi-server hubs
    for i in range(12):
        base = random_scenario(rng, 1 + i % 4, rate_range=(2.0, 6.0),
                               demand_range=(5.0, 20.0), max_servers=3)
        servers = 1 + i % 3
        lb = base.total_demand_per_day / (
            base.truck_capacity * servers * base.hours_per_day)
        fast = dataclasses.replace(base, center=Center(servers, math.inf),
                                   max_trucks=200)
        cap = min_trucks(fast, (0.0, 0.0)).trucks + 3
        sc = dataclasses.replace(base, center=Center(servers, lb / 2),
                                 max_trucks=cap)
        cases.append((sc, (0.0, 0.0), lb / (50 + 50 * (i % 3))))
    for sc, center, step in cases:
        assert min_center_rate(sc, center, step) == _linear_rate_scan(sc, center, step)


def test_fine_rate_step_takes_few_probes(towns_pro, monkeypatch):
    sol = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True))
    sc = dataclasses.replace(towns_pro.with_center_rate(3.0), max_trucks=45)
    probes = []

    def counting(scenario, center):
        probes.append(scenario.center.load_rate_per_hour)
        return min_trucks(scenario, center)

    monkeypatch.setattr(fleet, "min_trucks", counting)
    step = 1e-9
    rate, res = min_center_rate(sc, sol.location, step)
    assert len(probes) <= 40   # a linear scan takes about 2.5 million
    assert res.feasible and res.trucks == 45
    assert min_trucks(sc.with_center_rate(rate), sol.location).feasible
    k = round(rate / step)
    assert not min_trucks(sc.with_center_rate((k - 1) * step), sol.location).feasible


@pytest.mark.parametrize("step", [0.01, 1e10])
def test_rate_search_fails_when_only_an_infinite_hub_works(towns_pro, monkeypatch, step):
    sc = towns_pro.with_center_rate(3.0)
    center = (288.156, 112.283)
    stuck = min_trucks(sc, center)

    def finite_rates_fail(scenario, c):
        if math.isinf(scenario.center.load_rate_per_hour):
            return min_trucks(scenario, c)
        return stuck

    monkeypatch.setattr(fleet, "min_trucks", finite_rates_fail)
    with pytest.raises(RuntimeError, match="infinitely fast hub"):
        min_center_rate(sc, center, step)


def test_min_center_rate_warehouse_bound():
    # even an infinitely fast hub cannot push 30/day through a dock capped
    # at 2/hour * 24 = 48/day with rho = 1 ... use demand above that
    sc = Scenario(
        warehouses=(Warehouse(id=2, position=(1.0, 0.0), demand_per_day=50.0,
                              servers=1, unload_rate_per_hour=2.0),),
        center=Center(servers=1, load_rate_per_hour=1.0),
        truck_speed_kmh=50.0)
    rate, res = min_center_rate(sc, (0.0, 0.0))
    assert rate is None
    assert not res.feasible
    assert res.infeasibility_reason == "ceiling"
    # the result belongs to the infinitely fast hub, where the dock binds
    assert bottleneck(sc.with_center_rate(math.inf)).binding_node == 2


def test_solve_at_reports_saturated_when_infeasible(towns_pro):
    sc = towns_pro.with_center_rate(3.0)
    out = solve_at(sc, (288.156, 112.283))
    assert not out.fleet.feasible
    assert out.analysis.trucks == sc.max_trucks
    assert out.analysis.warehouse_throughput_per_day == pytest.approx(72.0, abs=1e-3)
    assert out.analysis.busy_center == pytest.approx(1.0, abs=1e-4)


def test_compare_locations_towns_pro(towns_pro):
    comp = compare_locations(towns_pro)
    assert comp.weighted.fleet.trucks == 28
    assert comp.unweighted.fleet.trucks == 29
    assert comp.distance_between == pytest.approx(119.909, abs=0.02)
    assert comp.weighted.fleet.trucks <= comp.unweighted.fleet.trucks


def test_compare_locations_symmetric_instance():
    # four identical warehouses at the corners of a square: both placements
    # coincide at the middle
    whs = tuple(
        Warehouse(id=2 + i, position=p, demand_per_day=2.0, servers=1,
                  unload_rate_per_hour=2.0)
        for i, p in enumerate(((0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)))
    )
    sc = Scenario(warehouses=whs, center=Center(1, 4.0), truck_speed_kmh=20.0)
    comp = compare_locations(sc)
    assert comp.distance_between == pytest.approx(0.0, abs=1e-6)
    assert comp.weighted.fleet.trucks == comp.unweighted.fleet.trucks
    assert comp.weighted.analysis.warehouse_throughput_per_day == pytest.approx(
        comp.unweighted.analysis.warehouse_throughput_per_day, rel=1e-9)


def test_incremental_reuse_consistency(towns_log, empty_held_tables):
    # growing the same table versus fresh searches at each fleet size
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    star = build_star(towns_log, sol.location)
    agg = AggregatedConvolution(star)
    grown = [agg.warehouse_throughput(n) for n in range(1, 25)]
    for n in (1, 6, 12, 24):
        empty_held_tables()
        fresh = AggregatedConvolution(star).warehouse_throughput(n)
        assert fresh == pytest.approx(grown[n - 1], rel=1e-12)


# random stars for the property tests: 1-3 servers at the hub and every
# dock, slow to fast trucks, and a total demand from far below the
# saturation ceiling to just under it
_STARS = dict(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4),
              speed=st.floats(0.05, 50.0),
              load=st.floats(0.01, 0.999) | st.floats(0.999, 1.0, exclude_max=True))


def _star_at_load(seed, docks, speed, load, hub_rate=None):
    """A random star whose total demand is ``load`` times what its
    saturation ceiling carries, with the hub at ``hub_rate`` when given
    (the ceiling is then that of an infinitely fast hub)."""
    sc = random_scenario(np.random.default_rng(seed), docks, max_servers=3, speed=speed)
    ceiling = bottleneck(sc if hub_rate is None else sc.with_center_rate(math.inf))
    scale = load * sc.truck_capacity * ceiling.ceiling_per_day / sc.total_demand_per_day
    sc = dataclasses.replace(sc, warehouses=tuple(
        dataclasses.replace(w, demand_per_day=w.demand_per_day * scale)
        for w in sc.warehouses))
    return sc if hub_rate is None else sc.with_center_rate(hub_rate)


def _plain_scan(sc, center, lane_first=None):
    """Reference: ``min_trucks`` scanning every fleet size from 1 on a cold
    lane-last table, or, given the ``lane_first`` fixture, on a table that
    folds the pooled lane first."""
    cap, demand, hours = sc.truck_capacity, sc.total_demand_per_day, sc.hours_per_day
    if cap * bottleneck(sc).ceiling_per_day <= demand:
        return fleet.FleetResult(None, math.nan, 0, "ceiling")
    kappa, loads = build_star(sc, center).kappa, station_loads(sc)
    if lane_first is None:
        throughput = LaneLast(kappa, Convolution(loads)).ratio
    else:
        throughput = lane_first(kappa, loads, sc.max_trucks).ratio
    for n in range(1, sc.max_trucks + 1):
        th_day = HUB_VISIT_RATIO * throughput(n - 1, n) * hours
        if cap * th_day >= demand:
            return fleet.FleetResult(n, th_day, n)
    return fleet.FleetResult(None, th_day, sc.max_trucks, "max_trucks")


@settings(max_examples=80, deadline=None)
@given(**_STARS)
def test_the_scan_from_the_demand_bound_equals_a_plain_scan(seed, docks, speed, load):
    sc = _star_at_load(seed, docks, speed, load)
    res = min_trucks(sc, (0.0, 0.0))
    expected = _plain_scan(sc, (0.0, 0.0))
    assert (res.trucks, res.throughput_per_day.hex(), res.iterations,
            res.infeasibility_reason) == (
        expected.trucks, expected.throughput_per_day.hex(), expected.iterations,
        expected.infeasibility_reason)
    if res.feasible:
        assert fleet._fleet_bound(sc, build_star(sc, (0.0, 0.0))) <= res.trucks


@settings(max_examples=60, deadline=None)
@given(**_STARS)
# demand 2.2e-16 below the ceiling: the two tables answer 350 and 349 trucks
@example(seed=0, docks=1, speed=1.0, load=0.9999999999999998)
def test_min_trucks_gives_the_lane_first_scans_fleet(lane_first, seed, docks, speed, load):
    # the pooled lane folded in first or last: the same fleet and reason, and
    # throughputs that differ only by rounding; fleets up to 400
    sc = dataclasses.replace(_star_at_load(seed, docks, speed, load), max_trucks=400)
    res = min_trucks(sc, (0.0, 0.0))
    expected = _plain_scan(sc, (0.0, 0.0), lane_first)
    got, want = (r.trucks or sc.max_trucks + 1 for r in (res, expected))
    if got != want:
        # within rounding of the saturation ceiling, TH(N) can sit within
        # rounding of the need for many N, and then either table's rounding
        # decides; no other fleet may differ
        table = lane_first(build_star(sc, (0.0, 0.0)).kappa, station_loads(sc),
                           sc.max_trucks)
        need = sc.total_demand_per_day / (
            sc.truck_capacity * HUB_VISIT_RATIO * sc.hours_per_day)
        for n in range(min(got, want), max(got, want)):
            assert math.isclose(table.ratio(n - 1, n), need, rel_tol=1e-12)
        return
    assert (res.iterations, res.infeasibility_reason) == (
        expected.iterations, expected.infeasibility_reason)
    assert (math.isnan(res.throughput_per_day) and math.isnan(expected.throughput_per_day)
            or math.isclose(res.throughput_per_day, expected.throughput_per_day,
                            rel_tol=1e-12))


def _decimal_fleet(sc, center, digits: int) -> int | None:
    """Reference: the smallest fleet N with cap * hours * G(N-1) / 4 >=
    demand * G(N), by Buzen's convolution in ``digits``-digit decimal over
    the float inputs, each of which ``Decimal`` converts exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        top = sc.max_trucks
        kappa = Decimal(build_star(sc, center).kappa)
        g = [Decimal(1)]
        for j in range(1, top + 1):
            g.append(g[-1] * kappa / j)
        for load, servers in station_loads(sc):
            f = [Decimal(1)]
            for k in range(1, top + 1):
                f.append(f[-1] * Decimal(load) / min(k, servers))
            g = [sum(f[k] * g[m - k] for k in range(m + 1)) for m in range(top + 1)]
        have = Decimal(sc.truck_capacity) * Decimal(sc.hours_per_day) * Decimal(HUB_VISIT_RATIO)
        need = Decimal(sc.total_demand_per_day)
        return next((n for n in range(1, top + 1) if have * g[n - 1] >= need * g[n]), None)


# demand 2.2e-16 below the saturation ceiling, with fleets up to 400
_EDGE = dict(seed=0, docks=1, speed=1.0, load=0.9999999999999998)


def test_the_decimal_reference_finds_min_trucks_fleets():
    # at 0.9 to 1 - 1e-6 of the saturation ceiling, the float and decimal
    # folds agree
    for seed in range(6):
        sc = _star_at_load(seed, 1 + seed % 4, 5.0, 1 - 10.0 ** -(seed + 1))
        assert _decimal_fleet(sc, (0.0, 0.0), 34) == min_trucks(sc, (0.0, 0.0)).trucks
    # at the edge, 34 and 60 digits both put the first feasible fleet at
    # 355, as an exact rational fold of the same floats does
    sc = dataclasses.replace(_star_at_load(**_EDGE), max_trucks=400)
    assert _decimal_fleet(sc, (0.0, 0.0), 34) == _decimal_fleet(sc, (0.0, 0.0), 60) == 355


@pytest.mark.xfail(strict=True, reason="fleet decisions at the rounding edge are "
                                       "made by float rounding")
def test_min_trucks_is_exact_at_the_rounding_edge():
    # TH(349) falls short of the need by 1.2e-16 relative; the float fold
    # rounds it up to meeting it
    sc = dataclasses.replace(_star_at_load(**_EDGE), max_trucks=400)
    assert min_trucks(sc, (0.0, 0.0)).trucks == _decimal_fleet(sc, (0.0, 0.0), 60)


@settings(max_examples=40, deadline=None)
@given(**_STARS, step_share=st.floats(1e-4, 0.05))
# demand 2.2e-16 below the ceiling of an infinitely fast hub: the hub-last
# combine meets the need at no finite rate, and min_trucks searches alone
@example(seed=0, docks=1, speed=3.0, load=0.9999999999999998, step_share=0.03125)
def test_the_searched_hub_rate_is_the_first_feasible_grid_point(seed, docks, speed, load,
                                                               step_share):
    # the hub binds: its own rate is half the demand bound on the hub rate,
    # and the fleet cap is 3 trucks above what an infinitely fast hub needs
    fast = _star_at_load(seed, docks, speed, load, hub_rate=math.inf)
    fast = dataclasses.replace(fast, max_trucks=200)
    at_inf = min_trucks(fast, (0.0, 0.0))
    lb = fast.total_demand_per_day / (
        fast.truck_capacity * fast.center.servers * fast.hours_per_day)
    sc = dataclasses.replace(fast.with_center_rate(lb / 2),
                             max_trucks=(at_inf.trucks or 197) + 3)
    step = lb * step_share
    rate, res = min_center_rate(sc, (0.0, 0.0), step)
    if rate is None:
        assert not min_trucks(sc.with_center_rate(math.inf), (0.0, 0.0)).feasible
        return
    assert res.feasible and min_trucks(sc.with_center_rate(rate), (0.0, 0.0)) == res
    k = round(rate / step)
    assert rate == k * step
    assert not min_trucks(sc.with_center_rate((k - 1) * step), (0.0, 0.0)).feasible


def _hub_rate_cases() -> list:
    """Stars whose hub binds, as the benchmark's hub_rate ops pose them: the
    hub at half the demand bound on its rate, on 1-3 servers, a fleet cap
    3 trucks above what an infinitely fast hub needs, and a rate step of
    1/200 of the bound."""
    rng = np.random.default_rng(19)
    cases = []
    for i in range(12):
        sc = random_scenario(rng, int(rng.integers(1, 5)), max_servers=3,
                             speed=float(rng.choice([0.5, 5.0, 50.0])))
        sc = dataclasses.replace(sc, center=dataclasses.replace(sc.center,
                                                                servers=i % 3 + 1))
        fast = dataclasses.replace(sc.with_center_rate(math.inf), max_trucks=200)
        at_inf = min_trucks(fast, (0.0, 0.0))
        lb = sc.total_demand_per_day / (
            sc.truck_capacity * sc.center.servers * sc.hours_per_day)
        cases.append((dataclasses.replace(sc.with_center_rate(lb / 2),
                                          max_trucks=(at_inf.trucks or 197) + 3),
                      lb / 200))
    return cases


def _probed_rates(monkeypatch) -> list:
    """The hub rate of every ``min_trucks`` the rate search runs from now on."""
    probes = []

    def counting(scenario, center):
        probes.append(scenario.center.load_rate_per_hour)
        return min_trucks(scenario, center)

    monkeypatch.setattr(fleet, "min_trucks", counting)
    return probes


def test_the_rate_search_with_a_wide_band_answers_the_same(monkeypatch):
    # the combine decides a grid point only outside the band around the
    # need, where min_trucks would decide it the same; a band so wide that
    # min_trucks decides every probe answers the same
    cases = _hub_rate_cases()
    probes = _probed_rates(monkeypatch)
    got = [min_center_rate(sc, (0.0, 0.0), step) for sc, step in cases]
    narrow = len(probes)
    monkeypatch.setattr(fleet, "_BOUND_MARGIN", 0.5)
    assert [min_center_rate(sc, (0.0, 0.0), step) for sc, step in cases] == got
    assert sum(rate is not None for rate, _ in got) >= 6
    # with the narrow band, the combine decided grid points that the wide
    # band leaves to min_trucks
    assert len(probes) - narrow > narrow


def test_a_hub_rate_search_runs_three_fleet_searches(towns_pro, monkeypatch):
    # the scenario's own rate, the infinite rate, and the answer; the grid
    # point below the answer is decided by the combine alone
    sol = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True))
    probes = _probed_rates(monkeypatch)
    rate, res = min_center_rate(towns_pro.with_center_rate(3.0), sol.location)
    assert probes == [3.0, math.inf, rate]
    assert (rate, res.trucks) == (3.38, 43)
    for sc, step in _hub_rate_cases():
        probes.clear()
        rate, _ = min_center_rate(sc, (0.0, 0.0), step)
        assert len(probes) == (2 if rate is None else 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4),
       speed=st.sampled_from([0.05, 1.0, 50.0]), load=_STARS["load"])
def test_n_trucks_meet_demand_iff_the_minimal_fleet_is_at_most_n(seed, docks, speed, load):
    # the speed calibration asks the rule at a known fleet instead of running
    # the fleet search; where capacity x throughput lies within 1e-12 of the
    # demand, float rounding decides (the strict xfail above), so those
    # fleets are left out
    sc = _star_at_load(seed, docks, speed, load)
    res = min_trucks(sc, (0.0, 0.0))
    agg = AggregatedConvolution(build_star(sc, (0.0, 0.0)))
    for n in range(1, sc.max_trucks + 1):
        have = sc.truck_capacity * agg.warehouse_throughput(n) * sc.hours_per_day
        if abs(have / sc.total_demand_per_day - 1) < 1e-12:
            continue
        assert fleet.meets_demand(sc, agg, n) == (res.feasible and res.trucks <= n), n


@pytest.mark.parametrize("town, fleet_size", [("towns_log", 19), ("towns_pro", 28)])
def test_the_bundled_towns_minimal_fleets_just_meet_demand(request, town, fleet_size):
    sc = request.getfixturevalue(town)
    hub = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    agg = AggregatedConvolution(build_star(sc, hub))
    assert min_trucks(sc, hub).trucks == fleet_size
    assert fleet.meets_demand(sc, agg, fleet_size)
    assert not fleet.meets_demand(sc, agg, fleet_size - 1)
    # no fleet below one truck meets demand, and none is evaluated
    assert not fleet.meets_demand(sc, agg, 0)
    assert not fleet.meets_demand(sc, agg, -1)
