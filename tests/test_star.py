import dataclasses
import math

import numpy as np
import pytest

from hubfleet.convolution import buzen_convolve, throughput
from hubfleet.oracle import enumerate_product_form, random_scenario
from hubfleet.scenario import Center, Scenario, Warehouse, demand_fractions
from hubfleet.star import (AggregatedConvolution, aggregated_norm_constants,
                           analyze, bottleneck, build_star, explicit_network,
                           throughput_vs_location)
from hubfleet.weber import WeberProblem, solve_weber


def test_visit_ratios_and_h(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    star = build_star(towns_log, sol.location)
    rho = np.asarray(demand_fractions(towns_log))
    assert star.eta_center == 0.25
    assert np.allclose(star.eta_warehouse, rho / 4.0, atol=1e-15)
    assert star.eta_center + star.eta_warehouse.sum() == pytest.approx(0.5)
    # direct evaluation of the travel burden
    d = np.asarray([math.hypot(p[0] - sol.location[0], p[1] - sol.location[1])
                    for p in towns_log.warehouse_positions])
    h_direct = float((rho / 4.0 * d / towns_log.truck_speed_kmh).sum())
    assert star.h == pytest.approx(h_direct, rel=1e-14)
    assert star.kappa == pytest.approx(2.0 * h_direct, rel=1e-14)


def test_toy_star_norm_constants(toy_star_scenario):
    # by hand: G(0)=1, G(1)=1/4+1/4+1/2=1, G(2)=3/16+1/4+1/8=9/16
    star = build_star(toy_star_scenario, (0.0, 0.0))
    assert star.h == pytest.approx(0.25)
    # distances are Euclidean: a 3-4-5 triangle from the warehouse at (1, 0)
    assert build_star(toy_star_scenario, (4.0, 4.0)).distances.tolist() == [5.0]
    t = aggregated_norm_constants(star, 2)
    assert t.value(0) == pytest.approx(1.0, rel=1e-14)
    assert t.value(1) == pytest.approx(1.0, rel=1e-14)
    assert t.value(2) == pytest.approx(9.0 / 16.0, rel=1e-14)
    # enumeration of the full four-station network confirms the values
    net, eta = explicit_network(star, 2)
    en = enumerate_product_form(net, eta)
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
        net, eta = explicit_network(star, n)
        explicit = buzen_convolve(net, eta)
        agg = aggregated_norm_constants(star, n)
        for m in range(n + 1):
            assert agg.value(m) == pytest.approx(explicit.value(m), rel=1e-10)
        assert throughput(agg) == pytest.approx(throughput(explicit), rel=1e-10)


def test_marginals_match_enumeration(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    ana = analyze(star, 3)
    net, eta = explicit_network(star, 3)
    en = enumerate_product_form(net, eta)
    # hub and dock marginals carry over from the explicit network
    assert np.allclose(ana.marginals[0], en.marginal(0), atol=1e-12)
    assert np.allclose(ana.marginals[1], en.marginal(2), atol=1e-12)
    for m in ana.marginals:
        assert m.sum() == pytest.approx(1.0, abs=1e-10)


def test_passage_time_identity(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    star = build_star(towns_log, sol.location)
    for n in (1, 5, 19):
        ana = analyze(star, n)
        assert ana.passage_time_hours * ana.throughput == pytest.approx(
            4.0 * n, rel=1e-12)


def test_per_warehouse_throughput_split(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    star = build_star(towns_log, sol.location)
    ana = analyze(star, 10)
    rho = np.asarray(demand_fractions(towns_log))
    assert np.allclose(ana.warehouse_throughputs,
                       rho * ana.warehouse_throughput, rtol=1e-12)
    assert ana.warehouse_throughputs.sum() == pytest.approx(
        ana.warehouse_throughput, rel=1e-12)
    # covering total demand covers every warehouse proportionally
    need = rho * towns_log.total_demand_per_day
    scale = ana.warehouse_throughput_per_day / towns_log.total_demand_per_day
    assert np.allclose(ana.warehouse_throughputs_per_day, need * scale, rtol=1e-12)


def test_bottleneck_report(towns_pro):
    star = build_star(towns_pro.with_center_rate(3.0), (288.156, 112.283))
    bn = bottleneck(star)
    assert bn.ceiling_per_hour == pytest.approx(3.0)
    assert bn.ceiling_per_day == pytest.approx(72.0)
    assert bn.binding_node == 1  # the hub
    # largest warehouse share is 36/81; its cap 2/(36/81) = 4.5 beats 3.0
    assert min(bn.overall_caps[1:]) == pytest.approx(4.0 * 4.5, rel=1e-12)


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
    bn = bottleneck(build_star(sc, (0.0, 0.0)))
    # warehouse 2: mu s / rho = 1 / 0.9; hub cap is 40
    assert bn.binding_node == 2
    assert bn.ceiling_per_hour == pytest.approx(1.0 / 0.9, rel=1e-12)


def test_incremental_matches_scratch(towns_log):
    star = build_star(towns_log, (179.756, 155.904))
    agg = AggregatedConvolution(star)
    step = [agg.table(n).value(n) for n in range(0, 26)]
    for n in (0, 7, 19, 25):
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
    burdens = [build_star(towns_log, p).h for p, _ in rows]
    order = np.argsort(burdens)
    ordered = [vals[i] for i in order]
    for a, b in zip(ordered, ordered[1:]):
        assert b < a  # strictly decreasing in travel burden


def test_center_on_warehouse_is_fine(toy_star_scenario):
    # hub placed exactly on the warehouse: zero-length lanes collapse and
    # the dock completes work at the two-node-cycle rate 2/3
    star = build_star(toy_star_scenario, (1.0, 0.0))
    assert star.h == 0.0
    assert star.distances.tolist() == [0.0]
    p = (12.34, -5.6)
    wh = dataclasses.replace(toy_star_scenario.warehouses[0], position=p)
    moved = dataclasses.replace(toy_star_scenario, warehouses=(wh,))
    assert build_star(moved, p).distances.tolist() == [0.0]
    ana = analyze(star, 2)
    assert ana.warehouse_throughput == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_analyze_rejects_empty_fleet(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    with pytest.raises(ValueError):
        analyze(star, 0)
