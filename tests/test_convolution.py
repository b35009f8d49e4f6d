import math

import numpy as np
import pytest

from hubfleet.convolution import (ClosedNetwork, NumericalRangeError,
                                  ReducibleRoutingError, VisitRatios,
                                  buzen_convolve, convolve_stations,
                                  infinite_server, marginal_distribution,
                                  mean_queue_lengths, multi_server,
                                  node_throughputs, solve_traffic, throughput,
                                  _verify_table)
from hubfleet.oracle import enumerate_product_form


def two_node_cycle():
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    return stations, routing


def test_traffic_two_node_cycle():
    _, routing = two_node_cycle()
    eta = solve_traffic(routing)
    assert np.allclose(eta.eta, [0.5, 0.5], atol=1e-12)


def test_traffic_star_routing():
    # hub feeding three branches with probabilities (.5, .3, .2), each
    # returning to the hub
    routing = np.zeros((4, 4))
    routing[0, 1:] = [0.5, 0.3, 0.2]
    routing[1:, 0] = 1.0
    eta = solve_traffic(routing).eta
    assert eta[0] == pytest.approx(0.5)
    assert np.allclose(eta[1:], [0.25, 0.15, 0.10], atol=1e-12)
    assert np.max(np.abs(eta @ routing - eta)) < 1e-10


def test_traffic_random_chains_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        r = rng.uniform(0.05, 1.0, size=(n, n))
        r /= r.sum(axis=1, keepdims=True)
        eta = solve_traffic(r).eta
        assert np.max(np.abs(eta @ r - eta)) < 1e-10
        assert eta.sum() == pytest.approx(1.0, abs=1e-12)


def test_traffic_reducible_rejected():
    for r in (
        [[0.5, 0.5, 0.0],
         [0.5, 0.5, 0.0],
         [0.0, 0.5, 0.5]],   # state 2 reaches 0, but 0 never reaches 2
        [[0.0, 1.0, 0.0],
         [0.0, 0.0, 1.0],
         [0.0, 0.0, 1.0]],   # 0 reaches every state, but 2 never returns
    ):
        with pytest.raises(ReducibleRoutingError):
            solve_traffic(np.array(r))


def test_closed_network_validation():
    stations, routing = two_node_cycle()
    net = ClosedNetwork(stations, routing, 2)
    assert net.num_stations == 2
    with pytest.raises(ValueError, match="sum to 1"):
        ClosedNetwork(stations, np.array([[0.0, 0.9], [1.0, 0.0]]), 2)
    with pytest.raises(ReducibleRoutingError):
        ClosedNetwork(stations, np.eye(2), 2)
    with pytest.raises(ValueError, match="population"):
        ClosedNetwork(stations, routing, -1)


def test_two_station_norm_constants_frozen():
    # eta = (1/2, 1/2), mu = 1 each: G(0)=1, G(1)=1, G(2)=3/4 by hand
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 2)
    assert t.value(0) == pytest.approx(1.0, rel=1e-14)
    assert t.value(1) == pytest.approx(1.0, rel=1e-14)
    assert t.value(2) == pytest.approx(0.75, rel=1e-14)
    assert throughput(t) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_throughput_n_zero_rejected():
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        throughput(t, 0)
    with pytest.raises(ValueError):
        throughput(t, 3)


def test_marginal_two_station_uniform():
    # hand derivation: pi is uniform over the 3 states, marginal (1/3,1/3,1/3)
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 2)
    m = marginal_distribution(stations, [0.5, 0.5], t, 0)
    assert np.allclose(m, [1/3, 1/3, 1/3], atol=1e-14)
    lengths = mean_queue_lengths(stations, [0.5, 0.5], t)
    assert lengths.sum() == pytest.approx(2.0, abs=1e-12)


def test_order_invariance():
    rng = np.random.default_rng(11)
    stations = tuple(
        multi_server(f"s{i}", float(rng.uniform(0.5, 4.0)),
                     int(rng.integers(1, 3)))
        for i in range(4)
    ) + (infinite_server("is", float(rng.uniform(0.2, 2.0))),)
    eta = rng.uniform(0.2, 1.0, 5)
    n = 7
    base = convolve_stations(stations, eta, n)
    for _ in range(6):
        order = rng.permutation(5).tolist()
        perm = convolve_stations(stations, eta, n, node_order=order)
        for m in range(n + 1):
            assert perm.value(m) == pytest.approx(base.value(m), rel=1e-10)


def test_eta_scaling_covariance():
    stations, _ = two_node_cycle()
    eta = VisitRatios(np.array([0.5, 0.5]))
    scaled = VisitRatios(eta.eta * 7.0)
    a = convolve_stations(stations, eta, 3)
    b = convolve_stations(stations, scaled, 3)
    # G picks up c**m but throughput ratios rescale consistently
    for m in range(4):
        assert b.value(m) == pytest.approx(7.0 ** m * a.value(m), rel=1e-12)
    th_a = node_throughputs(a, eta)
    th_b = node_throughputs(b, scaled)
    assert np.allclose(th_a, th_b, rtol=1e-12)


def test_infinite_server_factors_poisson():
    # one IS node alone: G(m) = (eta * mean)^m / m!
    st = (infinite_server("lane", 0.5),)
    t = convolve_stations(st, [2.0], 6)
    for m in range(7):
        assert t.value(m) == pytest.approx(1.0 ** m / math.factorial(m), rel=1e-12)


def test_zero_mean_infinite_server():
    # zero-distance lane: holds nobody, contributes factor 1 at m=0 only
    st = (multi_server("a", 1.0), infinite_server("lane", 0.0))
    t = convolve_stations(st, [0.5, 0.5], 3)
    ref = convolve_stations((multi_server("a", 1.0),), [0.5], 3)
    for m in range(4):
        assert t.value(m) == pytest.approx(ref.value(m), rel=1e-14)


def test_enumeration_cross_check_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        count = int(rng.integers(2, 5))
        stations = tuple(
            multi_server(f"s{i}", float(rng.uniform(0.5, 4.0)),
                         int(rng.integers(1, 3)))
            for i in range(count)
        )
        eta = rng.uniform(0.1, 1.0, count)
        n = int(rng.integers(1, 6))
        t = convolve_stations(stations, eta, n)
        en = enumerate_product_form(stations, eta, n)
        assert t.value(n) == pytest.approx(en.norm_constant, rel=1e-12)
        for node in range(count):
            m = marginal_distribution(stations, eta, t, node)
            assert np.allclose(m, en.marginal(node), atol=1e-12)


def test_extreme_rates_stay_finite():
    # rates spanning 12 orders of magnitude at a large population: the
    # ladder must neither overflow nor raise
    stations = (multi_server("slow", 1e-6), multi_server("fast", 1e6),
                infinite_server("lane", 3.0))
    t = convolve_stations(stations, [0.4, 0.3, 0.3], 120)
    assert np.all(np.isfinite(t.mantissa))
    th = throughput(t)
    assert math.isfinite(th) and th > 0
    # log companion agrees even though plain floats would have overflowed
    assert t.log_value(120) == pytest.approx(float(t.log_values[120]), abs=1e-9)


def test_corrupted_table_detected():
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 8)
    mant = np.array(t.mantissa)
    mant[5] *= 1.0 + 1e-5
    with pytest.raises(NumericalRangeError, match="disagree"):
        _verify_table(mant, np.array(t.exponent), np.array(t.log_values))
    # a log entry that lost its value entirely must not slip through
    logs = np.array(t.log_values)
    logs[5] = -math.inf
    with pytest.raises(NumericalRangeError, match="disagree"):
        _verify_table(np.array(t.mantissa), np.array(t.exponent), logs)


def test_unholdable_population_raises():
    # every station has a zero-mean IS: nobody can be anywhere
    st = (infinite_server("a", 0.0), infinite_server("b", 0.0))
    with pytest.raises(NumericalRangeError):
        convolve_stations(st, [0.5, 0.5], 1)


def test_buzen_on_closed_network():
    stations, routing = two_node_cycle()
    net = ClosedNetwork(stations, routing, 2)
    eta = solve_traffic(routing)
    t = buzen_convolve(net, eta)
    assert t.population == 2
    assert throughput(t) == pytest.approx(4.0 / 3.0, rel=1e-14)
