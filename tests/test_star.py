import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubfleet.oracle import (_explicit_star, aggregated_stations, convolve_stations,
                             enumerate_product_form, marginal_distribution,
                             random_scenario)
from hubfleet.scenario import Center, Scenario, Warehouse, demand_fractions
from hubfleet.star import (AggregatedConvolution, StarNetwork, aggregated_norm_constants,
                           analyze, bottleneck, build_star, throughput_vs_location)
from hubfleet.weber import WeberProblem, solve_weber, weber_objective


def test_visit_ratios_and_h(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    star = build_star(towns_log, sol.location)
    # the location reaches the analysis only through kappa
    assert [f.name for f in dataclasses.fields(StarNetwork)] == [
        "scenario", "center", "kappa"]
    rho = np.asarray(demand_fractions(towns_log))
    _, eta = aggregated_stations(star)
    assert eta[0] == 0.25 and eta[-1] == 0.5
    assert np.allclose(eta[1:-1], rho / 4.0, atol=1e-15)
    assert sum(eta[:-1]) == pytest.approx(0.5)
    # direct evaluation of the travel burden
    d = np.asarray([math.hypot(p[0] - sol.location[0], p[1] - sol.location[1])
                    for p in towns_log.warehouse_positions])
    kappa_direct = float((rho / 2.0 * d / towns_log.truck_speed_kmh).sum())
    assert star.kappa == pytest.approx(kappa_direct, rel=1e-14)
    # kappa = W(x) / (2 S), W the demand-weighted Weber objective
    w = weber_objective(WeberProblem.from_scenario(towns_log, weighted=True), sol.location)
    assert star.kappa == pytest.approx(w / (2.0 * towns_log.truck_speed_kmh), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4))
def test_location_enters_only_through_kappa(seed, docks):
    # TH(N) at site x with speed S equals TH(N) at site y with speed
    # S * W(y) / W(x): both give the same pooled-lane load W / (2 S)
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, docks, max_servers=3)
    problem = WeberProblem.from_scenario(sc, weighted=True)
    x, y = [(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))) for _ in range(2)]
    speed = float(rng.uniform(0.2, 5.0))
    at_x = dataclasses.replace(sc, truck_speed_kmh=speed)
    at_y = dataclasses.replace(
        sc, truck_speed_kmh=speed * weber_objective(problem, y) / weber_objective(problem, x))
    agg_x = AggregatedConvolution(build_star(at_x, x))
    agg_y = AggregatedConvolution(build_star(at_y, y))
    for n in (1, 2, 5, 12, 30):
        assert agg_y.throughput(n) == pytest.approx(agg_x.throughput(n), rel=1e-12, abs=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4))
def test_weber_point_ignores_rates_servers_speed_and_cap(seed, docks):
    # result (iii): the hub goes to the weighted Weber point, which reads
    # only the warehouse positions and demands
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, docks, max_servers=3)
    point = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    variants = [
        sc.with_center_rate(float(rng.uniform(0.1, 10.0))),
        dataclasses.replace(sc, center=dataclasses.replace(
            sc.center, servers=int(rng.integers(1, 4)))),
        dataclasses.replace(sc, warehouses=tuple(
            dataclasses.replace(w, servers=int(rng.integers(1, 4)))
            for w in sc.warehouses)),
        dataclasses.replace(sc, truck_speed_kmh=float(rng.uniform(0.2, 5.0))),
        dataclasses.replace(sc, max_trucks=int(rng.integers(1, 400))),
    ]
    for v in variants:
        assert solve_weber(WeberProblem.from_scenario(v, weighted=True)).location == point


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4))
def test_weber_point_maximizes_throughput_and_minimizes_passage_time(seed, docks):
    # at every fleet size the Weber point has the largest throughput and,
    # as the round trip is 4N / TH, the shortest round trip of any site,
    # near it or far away
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, docks, max_servers=3)
    point = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    sites = [(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))) for _ in range(2)]
    sites += [(point[0] + float(rng.uniform(-0.1, 0.1)),
               point[1] + float(rng.uniform(-0.1, 0.1))) for _ in range(2)]
    fleets = (1, 2, 5, 12, 30)
    best = [analyze(build_star(sc, point), n) for n in fleets]
    for site in sites:
        for opt, n in zip(best, fleets):
            there = analyze(build_star(sc, site), n)
            assert opt.throughput >= there.throughput * (1.0 - 1e-12)
            assert opt.passage_time_hours <= there.passage_time_hours * (1.0 + 1e-12)


def test_toy_star_norm_constants(toy_star_scenario):
    # by hand: G(0)=1, G(1)=1/4+1/4+1/2=1, G(2)=3/16+1/4+1/8=9/16
    star = build_star(toy_star_scenario, (0.0, 0.0))
    assert star.kappa == pytest.approx(0.5)
    # distances are Euclidean: a 3-4-5 triangle from the warehouse at (1, 0)
    assert build_star(toy_star_scenario, (4.0, 4.0)).kappa == 5.0 / 2.0
    t = aggregated_norm_constants(star, 2)
    assert t.value(0) == pytest.approx(1.0, rel=1e-14)
    assert t.value(1) == pytest.approx(1.0, rel=1e-14)
    assert t.value(2) == pytest.approx(9.0 / 16.0, rel=1e-14)
    # enumeration of the full four-station network confirms the values
    stations, _, eta = _explicit_star(star)
    en = enumerate_product_form(stations, eta, 2)
    assert en.norm_constant == pytest.approx(9.0 / 16.0, rel=1e-12)


def test_toy_star_analysis(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    one = analyze(star, 1)
    assert one.warehouse_throughput == pytest.approx(0.25, rel=1e-14)
    assert one.passage_time_hours == pytest.approx(4.0, rel=1e-14)
    assert one.busy_center == pytest.approx(0.25, rel=1e-14)
    two = analyze(star, 2)
    assert two.throughput == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert two.warehouse_throughput == pytest.approx(two.throughput / 4.0)


def test_aggregation_equals_explicit_network():
    # J <= 4, N <= 8: the pooled infinite server is exact, not an approximation
    rng = np.random.default_rng(31)
    for _ in range(25):
        sc = random_scenario(rng, int(rng.integers(2, 4)), max_servers=2)
        star = build_star(sc, (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))))
        n = int(rng.integers(1, 9))
        stations, _, eta = _explicit_star(star)
        explicit = convolve_stations(stations, eta, n)
        agg = aggregated_norm_constants(star, n)
        for m in range(n + 1):
            assert agg.value(m) == pytest.approx(explicit.value(m), rel=1e-10)
        assert agg.ratio(n - 1, n) == pytest.approx(explicit.ratio(n - 1, n), rel=1e-10)


def test_marginals_match_enumeration(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    table = aggregated_norm_constants(star, 3)
    marginals = [marginal_distribution(*aggregated_stations(star), table, i)
                 for i in range(3)]
    stations, _, eta = _explicit_star(star)
    en = enumerate_product_form(stations, eta, 3)
    # hub and dock marginals carry over from the explicit network
    assert np.allclose(marginals[0], en.marginal(0), atol=1e-12)
    assert np.allclose(marginals[1], en.marginal(2), atol=1e-12)
    for m in marginals:
        assert m.sum() == pytest.approx(1.0, abs=1e-10)


def test_passage_time_identity(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    star = build_star(towns_log, sol.location)
    for n in (1, 5, 19):
        ana = analyze(star, n)
        assert ana.passage_time_hours * ana.throughput == pytest.approx(
            4.0 * n, rel=1e-12)


def test_bottleneck_report(towns_pro):
    bn = bottleneck(towns_pro.with_center_rate(3.0))
    assert bn.ceiling_per_hour == pytest.approx(3.0)
    assert bn.ceiling_per_day == pytest.approx(72.0)
    assert bn.binding_node == 1  # the hub
    # largest warehouse share is 36/81; its cap 2/(36/81) = 4.5 beats 3.0,
    # and binds once the hub is faster
    busiest = max(towns_pro.warehouses, key=lambda w: w.demand_per_day)
    assert busiest.demand_per_day == 36.0
    fast = bottleneck(towns_pro.with_center_rate(5.0))
    assert fast.binding_node == busiest.id
    assert fast.ceiling_per_hour == pytest.approx(4.5, rel=1e-12)


def test_bottleneck_warehouse_binding():
    sc = Scenario(
        warehouses=(
            Warehouse(id=2, position=(1.0, 0.0), demand_per_day=9.0,
                      servers=1, unload_rate_per_hour=1.0),
            Warehouse(id=3, position=(0.0, 1.0), demand_per_day=1.0,
                      servers=1, unload_rate_per_hour=1.0),
        ),
        center=Center(servers=4, load_rate_per_hour=10.0),
        truck_speed_kmh=1.0)
    bn = bottleneck(sc)
    # warehouse 2: mu s / rho = 1 / 0.9; hub cap is 40
    assert bn.binding_node == 2
    assert bn.ceiling_per_hour == pytest.approx(1.0 / 0.9, rel=1e-12)


def test_incremental_matches_scratch(towns_log, empty_held_tables):
    star = build_star(towns_log, (179.756, 155.904))
    agg = AggregatedConvolution(star)
    step = [agg.table(n).value(n) for n in range(0, 26)]
    for n in (0, 7, 19, 25):
        empty_held_tables()
        fresh = aggregated_norm_constants(star, n)
        assert fresh.value(n) == pytest.approx(step[n], rel=1e-12)
        assert fresh.value(n) == step[n]  # same fold order, same floats


def test_throughput_vs_location_ordering(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    cx, cy = sol.location
    grid = [(cx, cy)] + [(cx + 25 * math.cos(a), cy + 25 * math.sin(a))
                         for a in np.linspace(0.1, 2 * math.pi, 7)]
    rows = throughput_vs_location(towns_log, 10, grid)
    vals = [v for _, v in rows]
    assert max(vals) == vals[0]  # the hub point wins
    burdens = [build_star(towns_log, p).kappa for p, _ in rows]
    order = np.argsort(burdens)
    ordered = [vals[i] for i in order]
    for a, b in zip(ordered, ordered[1:]):
        assert b < a  # strictly decreasing in travel burden


def test_center_on_warehouse_is_fine(toy_star_scenario):
    # hub placed exactly on the warehouse: zero-length lanes collapse and
    # the dock completes work at the two-node-cycle rate 2/3
    star = build_star(toy_star_scenario, (1.0, 0.0))
    assert star.kappa == 0.0
    p = (12.34, -5.6)
    wh = dataclasses.replace(toy_star_scenario.warehouses[0], position=p)
    moved = dataclasses.replace(toy_star_scenario, warehouses=(wh,))
    assert build_star(moved, p).kappa == 0.0
    ana = analyze(star, 2)
    assert ana.warehouse_throughput == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_analyze_rejects_empty_fleet(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    with pytest.raises(ValueError):
        analyze(star, 0)
