"""Stress and property tests for the normalization engine behind
``convolve_stations`` and ``AggregatedConvolution``."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubfleet.oracle import (_explicit_star, aggregated_stations, ctmc_throughput,
                             enumerate_product_form, marginal_distribution,
                             random_scenario)
from hubfleet.scenario import Center, demand_fractions
from hubfleet.star import (AggregatedConvolution, aggregated_norm_constants,
                           analyze, build_star)
from hubfleet.weber import WeberProblem, solve_weber


def _marginals(star, n: int) -> list[np.ndarray]:
    """Queue-length distributions at the aggregated stations: hub, docks,
    pooled lane."""
    table = aggregated_norm_constants(star, n)
    return [marginal_distribution(*aggregated_stations(star), table, i)
            for i in range(len(star.scenario.warehouses) + 2)]


def _log_space_throughput(star, n: int) -> float:
    """TH(n) = G(n-1)/G(n) of the aggregated star, by the direct O(n^2)
    convolution carried out entirely in natural logs."""
    m = np.arange(n + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(m[1:]))))
    logg = m * math.log(star.kappa) - log_fact
    sc = star.scenario
    loads = [(rho / 4.0 / w.unload_rate_per_hour, w.servers)
             for rho, w in zip(demand_fractions(sc), sc.warehouses)]
    loads.append((0.25 / sc.center.load_rate_per_hour, sc.center.servers))
    for x, servers in loads:
        log_beta = np.concatenate(([0.0], np.cumsum(np.log(np.minimum(m[1:], servers)))))
        logf = m * math.log(x) - log_beta
        logg = np.array([np.logaddexp.reduce(logf[:k + 1] + logg[k::-1])
                         for k in range(n + 1)])
    return math.exp(logg[n - 1] - logg[n])


def test_slow_trucks_deep_table(towns_log):
    # at 0.05 km/h G spans hundreds of decades; kappa^n/n! alone would
    # overflow a plain double long before n = 400
    sc = dataclasses.replace(towns_log, truck_speed_kmh=0.05)
    center = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    star = build_star(sc, center)
    th = AggregatedConvolution(star).throughput(400)
    assert th == pytest.approx(0.291765031540421, rel=1e-10)
    assert th == pytest.approx(_log_space_throughput(star, 400), rel=1e-10)


def _lane_marginal(enum, stations, n: int) -> np.ndarray:
    """Distribution of the total number of trucks on all lanes."""
    lanes = [j for j, s in enumerate(stations) if s.is_infinite_server]
    out = np.zeros(n + 1)
    for state, p in zip(enum.states, enum.probabilities):
        out[sum(state[j] for j in lanes)] += p
    return out


def test_multi_server_hubs_and_docks_match_oracles():
    rng = np.random.default_rng(8)
    for i in range(12):
        sc = random_scenario(rng, int(rng.integers(2, 4)), max_servers=4)
        hub_servers = 2 + i % 3
        sc = dataclasses.replace(sc, center=Center(
            hub_servers, float(rng.uniform(0.5, 4.0))))
        star = build_star(sc, (0.0, 0.0))
        n = int(rng.integers(1, 6))
        stations, routing, eta = _explicit_star(star)
        enum = enumerate_product_form(stations, eta, n)
        ctmc = ctmc_throughput(stations, routing, n)
        ana = analyze(star, n)

        assert aggregated_norm_constants(star, n).value(n) == pytest.approx(
            enum.norm_constant, rel=1e-12)
        assert ana.throughput == pytest.approx(
            ctmc.station_throughput[0] / eta[0], rel=1e-9)
        assert ana.busy_center == pytest.approx(1.0 - enum.marginal(0)[0], abs=1e-12)
        # hub, then dock j at explicit index 2 + 3j, then the pooled lanes
        expected = [enum.marginal(0)]
        expected += [enum.marginal(2 + 3 * j) for j in range(len(sc.warehouses))]
        expected.append(_lane_marginal(enum, stations, n))
        for got, want in zip(_marginals(star, n), expected, strict=True):
            assert np.allclose(got, want, atol=1e-12)


def test_single_server_marginals_match_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(8):
        sc = random_scenario(rng, int(rng.integers(2, 4)))
        star = build_star(sc, (0.0, 0.0))
        n = int(rng.integers(1, 7))
        stations, _, eta = _explicit_star(star)
        enum = enumerate_product_form(stations, eta, n)
        ana = analyze(star, n)
        marginals = _marginals(star, n)
        assert ana.busy_center == pytest.approx(1.0 - enum.marginal(0)[0], abs=1e-12)
        assert np.allclose(marginals[0], enum.marginal(0), atol=1e-12)
        for j in range(len(sc.warehouses)):
            assert np.allclose(marginals[1 + j], enum.marginal(2 + 3 * j), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4),
       hub_servers=st.integers(1, 3), trucks=st.integers(1, 40))
def test_engine_properties(seed, docks, hub_servers, trucks):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, docks, max_servers=3)
    sc = dataclasses.replace(sc, center=Center(hub_servers, float(rng.uniform(0.5, 4.0))))
    center = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
    star = build_star(sc, center)
    agg = AggregatedConvolution(star)
    ths = [agg.throughput(n) for n in range(1, trucks + 1)]
    # throughput never falls as the fleet grows; near saturation two
    # neighbours may differ by less than round-off
    for a, b in zip(ths, ths[1:]):
        assert b >= a * (1.0 - 1e-14)
    # nor, at a fixed fleet, when the hub loads faster or the trucks drive
    # faster (less travel burden)
    faster_hub = sc.with_center_rate(sc.center.load_rate_per_hour * float(rng.uniform(1, 3)))
    faster_trucks = dataclasses.replace(
        sc, truck_speed_kmh=sc.truck_speed_kmh * float(rng.uniform(1, 3)))
    for better in (faster_hub, faster_trucks):
        th = AggregatedConvolution(build_star(better, center)).throughput(trucks)
        assert th >= ths[-1] * (1.0 - 1e-14)
    ana = analyze(star, trucks)
    assert 0.0 <= ana.busy_center <= 1.0
    if hub_servers == 1:
        # Little's law at a one-server hub: busy = hub throughput / mu_1, and
        # the hub sees a quarter of all visits, as many as the warehouses
        load_rate = sc.center.load_rate_per_hour
        assert math.isclose(ana.busy_center, ana.warehouse_throughput / load_rate,
                            rel_tol=1e-12)
    for marginal in _marginals(star, trucks):
        assert np.all(marginal >= 0.0)
        assert float(marginal.sum()) == pytest.approx(1.0, abs=1e-10)


def test_huge_server_count_costs_what_the_population_needs(towns_log):
    # a hub with more servers than trucks behaves exactly like one with a
    # server per truck, and its table costs no more to build
    n = 30
    center = (179.756, 155.904)
    tables = {}
    for servers in (n + 1, 10**9):
        sc = dataclasses.replace(towns_log, center=Center(servers, 3.0))
        t0 = time.perf_counter()
        tables[servers] = aggregated_norm_constants(build_star(sc, center), n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5
    assert tables[10**9] == tables[n + 1]
