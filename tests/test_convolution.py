import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubfleet.convolution import (Convolution, ConvolutionTable, NumericalRangeError,
                                  _check_entry)
from hubfleet.oracle import (Station, _explicit_star, aggregated_stations,
                             convolve_stations, enumerate_product_form, infinite_server,
                             marginal_distribution, multi_server, random_scenario)
from hubfleet.scenario import demand_fractions
from hubfleet.star import AggregatedConvolution, aggregated_norm_constants, build_star


def two_node_cycle():
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    return stations, routing


def test_traffic_star_routing():
    # the oracles' explicit star: the hub feeds warehouse i's outbound lane
    # with probability rho_i, and its visit ratios solve eta = eta R
    rng = np.random.default_rng(3)
    for _ in range(20):
        sc = random_scenario(rng, int(rng.integers(1, 6)), max_servers=3)
        star = build_star(sc, (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))))
        stations, routing, eta = _explicit_star(star)
        assert len(stations) == routing.shape[0] == routing.shape[1] == len(eta)
        assert np.allclose(routing.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(routing[0, 1::3], demand_fractions(sc), rtol=0, atol=1e-15)
        assert np.max(np.abs(eta @ routing - eta)) < 1e-15
        assert eta[0] == 0.25 and eta.sum() == pytest.approx(1.0, rel=1e-14)


def test_two_station_norm_constants_frozen():
    # eta = (1/2, 1/2), mu = 1 each: G(0)=1, G(1)=1, G(2)=3/4 by hand
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 2)
    assert t.value(0) == pytest.approx(1.0, rel=1e-14)
    assert t.value(1) == pytest.approx(1.0, rel=1e-14)
    assert t.value(2) == pytest.approx(0.75, rel=1e-14)
    assert t.ratio(1, 2) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_throughput_n_zero_rejected(toy_star_scenario):
    stations, _ = two_node_cycle()
    with pytest.raises(ValueError, match="non-negative"):
        convolve_stations(stations, [0.5, 0.5], -1)
    agg = AggregatedConvolution(build_star(toy_star_scenario, (0.0, 0.0)))
    with pytest.raises(ValueError, match="at least one truck"):
        agg.throughput(0)


def test_marginal_two_station_uniform():
    # hand derivation: pi is uniform over the 3 states, marginal (1/3,1/3,1/3)
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 2)
    m = marginal_distribution(stations, [0.5, 0.5], t, 0)
    assert np.allclose(m, [1/3, 1/3, 1/3], atol=1e-14)
    lengths = [float(np.arange(3) @ marginal_distribution(stations, [0.5, 0.5], t, i))
               for i in range(2)]
    assert sum(lengths) == pytest.approx(2.0, abs=1e-12)


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
        perm = convolve_stations([stations[i] for i in order], eta[order], n)
        for m in range(n + 1):
            assert perm.value(m) == pytest.approx(base.value(m), rel=1e-10)


def test_eta_scaling_covariance():
    stations, _ = two_node_cycle()
    eta = np.array([0.5, 0.5])
    scaled = eta * 7.0
    a = convolve_stations(stations, eta, 3)
    b = convolve_stations(stations, scaled, 3)
    # G picks up c**m but throughput ratios rescale consistently
    for m in range(4):
        assert b.value(m) == pytest.approx(7.0 ** m * a.value(m), rel=1e-12)
    th_a = eta * a.ratio(2, 3)
    th_b = scaled * b.ratio(2, 3)
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
    # the rest of the network holds nobody, so the station holds everyone
    assert marginal_distribution(st, [0.5, 0.5], t, 0).tolist() == [0, 0, 0, 1]
    assert marginal_distribution(st, [0.5, 0.5], t, 1).tolist() == [1, 0, 0, 0]


def test_a_station_never_visited_holds_nobody():
    # beside a lane of mean 1/2 at visit ratio 2: G(m) = 1 / m!
    stations = (multi_server("a", 1.0), infinite_server("lane", 0.5))
    t = convolve_stations(stations, [0.0, 2.0], 6)
    for m in range(7):
        assert t.value(m) == pytest.approx(1.0 / math.factorial(m), rel=1e-12)
    assert marginal_distribution(stations, [0.0, 2.0], t, 1).tolist() == [0] * 6 + [1]
    # beside one that is: the visited station holds everyone
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    t = convolve_stations(stations, [0.5, 0.0], 3)
    assert marginal_distribution(stations, [0.5, 0.0], t, 0).tolist() == [0, 0, 0, 1]
    assert marginal_distribution(stations, [0.5, 0.0], t, 1).tolist() == [1, 0, 0, 0]


def test_enumeration_cross_check_random():
    # 1-4 queueing stations and 0-2 infinite-server ones, each of zero mean
    # or of a positive one: every marginal is checked, the lanes' included
    rng = np.random.default_rng(23)
    for _ in range(20):
        stations = tuple(
            multi_server(f"s{i}", float(rng.uniform(0.5, 4.0)),
                         int(rng.integers(1, 3)))
            for i in range(int(rng.integers(1, 5)))
        ) + tuple(
            infinite_server(f"l{i}", float(rng.uniform(0.2, 2.0)) * int(rng.integers(0, 2)))
            for i in range(int(rng.integers(0, 3)))
        )
        count = len(stations)
        eta = rng.uniform(0.1, 1.0, count)
        n = int(rng.integers(1, 6))
        t = convolve_stations(stations, eta, n)
        en = enumerate_product_form(stations, eta, n)
        assert t.value(n) == pytest.approx(en.norm_constant, rel=1e-12)
        for node in range(count):
            m = marginal_distribution(stations, eta, t, node)
            assert np.allclose(m, en.marginal(node), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("station", [multi_server("a", 1.0), infinite_server("lane", 0.5)],
                         ids=["queue", "lane"])
def test_a_non_finite_visit_ratio_is_rejected(station, bad):
    stations = (station, multi_server("b", 1.0))
    with pytest.raises(ValueError, match="visit ratios must be finite"):
        convolve_stations(stations, [bad, 0.5], 3)
    table = convolve_stations(stations, [0.5, 0.5], 3)
    with pytest.raises(ValueError, match="visit ratios must be finite"):
        marginal_distribution(stations, [bad, 0.5], table, 0)


_QUEUES = st.lists(st.tuples(st.floats(0.5, 4.0), st.integers(1, 3),
                             st.floats(0.05, 1.0)), min_size=1, max_size=4)
_LANES = st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(0.05, 1.0)), max_size=2)


@settings(max_examples=40, deadline=None)
@given(queues=_QUEUES, lanes=_LANES, n=st.integers(1, 200))
def test_marginals_agree_with_the_table_at_depth(queues, lanes, n):
    # past what enumeration reaches: the mean queue lengths add up to the
    # population, and at a single-server station of load x,
    # P(n >= k) = x^k G(N - k) / G(N)
    stations = tuple(multi_server(f"s{i}", rate, servers)
                     for i, (rate, servers, _) in enumerate(queues)) + tuple(
        infinite_server(f"l{i}", mean) for i, (mean, _) in enumerate(lanes))
    eta = [e for *_, e in queues] + [e for _, e in lanes]
    t = convolve_stations(stations, eta, n)
    tm, te = t.mantissa, t.exponent
    mean_total = 0.0
    for node, station in enumerate(stations):
        probs = marginal_distribution(stations, eta, t, node)
        mean_total += float(np.arange(n + 1) @ probs)
        if station.servers != 1:
            continue
        tail = np.cumsum(probs[::-1])[::-1]   # P(n >= k), smallest terms first
        xm, xe = math.frexp(eta[node] / station.rate)
        pm, pe = 0.5, 1   # x^k as pm * 2**pe
        for k in range(n + 1):
            want = math.ldexp(pm * tm[n - k] / tm[n], pe + te[n - k] - te[n])
            if want > 1e-300:
                assert float(tail[k]) == pytest.approx(want, rel=1e-12)
            pm, shift = math.frexp(pm * xm)
            pe += xe + shift
    assert mean_total == pytest.approx(n, rel=1e-9)


def test_extreme_rates_stay_finite():
    # rates spanning 12 orders of magnitude at a large population: the
    # ladder must neither overflow nor raise
    stations = (multi_server("slow", 1e-6), multi_server("fast", 1e6),
                infinite_server("lane", 3.0))
    t = convolve_stations(stations, [0.4, 0.3, 0.3], 120)
    assert np.all(np.isfinite(t.mantissa))
    th = t.ratio(119, 120)
    assert math.isfinite(th) and th > 0
    # log companion agrees even though plain floats would have overflowed
    assert t.log_value(120) == pytest.approx(float(t.log_values[120]), abs=1e-9)


def test_corrupted_table_detected():
    stations, _ = two_node_cycle()
    t = convolve_stations(stations, [0.5, 0.5], 8)
    for m in range(9):
        _check_entry(m, t.mantissa[m], t.exponent[m], t.log_values[m])
    # a wrong mantissa, and a log entry that lost its value entirely, must
    # not slip through
    with pytest.raises(NumericalRangeError, match="disagree"):
        _check_entry(5, t.mantissa[5] * (1.0 + 1e-5), t.exponent[5], t.log_values[5])
    with pytest.raises(NumericalRangeError, match="disagree"):
        _check_entry(5, t.mantissa[5], t.exponent[5], -math.inf)
    # entry 37 of a 60-truck star table, off by 1e-4
    sc = random_scenario(np.random.default_rng(2), 2, rate_range=(0.5, 1.0))
    t = convolve_stations(*aggregated_stations(build_star(sc, (0.0, 0.0))), 60)
    with pytest.raises(NumericalRangeError, match="disagree at population 37"):
        _check_entry(37, t.mantissa[37] * (1.0 + 1e-4), t.exponent[37], t.log_values[37])


def test_unholdable_population_raises():
    # every station has a zero-mean IS: nobody can be anywhere
    st = (infinite_server("a", 0.0), infinite_server("b", 0.0))
    with pytest.raises(NumericalRangeError):
        convolve_stations(st, [0.5, 0.5], 1)


def test_buzen_on_closed_network():
    # the two-node cycle at its visit ratios, which solve eta = eta R
    stations, routing = two_node_cycle()
    eta = np.array([0.5, 0.5])
    assert np.array_equal(eta @ routing, eta)
    t = convolve_stations(stations, eta, 2)
    assert t.population == 2
    assert t.ratio(1, 2) == pytest.approx(4.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("etas,message", [
    ([0.5], "expected 2 visit ratios, got 1"),
    ([0.5, 0.5, 0.5], "expected 2 visit ratios, got 3"),
    ([0.0, 0.0], "at least one positive entry"),
])
def test_visit_ratios_of_the_wrong_count_or_all_zero_are_rejected(etas, message):
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    with pytest.raises(ValueError, match=message):
        convolve_stations(stations, etas, 3)


@pytest.mark.parametrize("node", [2, -1])
def test_a_marginal_of_a_station_not_in_the_list_is_rejected(node):
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    table = convolve_stations(stations, [0.5, 0.5], 3)
    with pytest.raises(ValueError, match=f"no station with index {node}"):
        marginal_distribution(stations, [0.5, 0.5], table, node)


@pytest.mark.parametrize("make,message", [
    (lambda: Station("a", 0.0), "rate must be positive"),
    (lambda: Station("a", math.nan), "rate must be positive"),
    (lambda: Station("a", 1.0, 0), "servers must be >= 1 or None"),
    (lambda: infinite_server("l", -1.0), "mean must be non-negative"),
], ids=["zero-rate", "nan-rate", "no-servers", "negative-mean"])
def test_a_station_without_a_positive_rate_or_a_server_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_an_empty_station_serves_nobody():
    assert multi_server("a", 2.0, 2).service_rate(0) == 0.0


def test_a_negative_population_is_rejected_and_a_smaller_one_keeps_the_table():
    engine = Convolution([(0.5, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        engine.extend_to(-1)
    engine.extend_to(5)
    engine.extend_to(3)
    assert engine.population == 5
    # a lane alone builds its factors without a queueing row
    with pytest.raises(ValueError, match="non-negative"):
        convolve_stations((infinite_server("lane", 0.5),), [1.0], -1)


@pytest.mark.parametrize("mant", [math.nan, math.inf])
def test_a_non_finite_mantissa_is_rejected(mant):
    with pytest.raises(NumericalRangeError, match="non-finite mantissa"):
        _check_entry(1, mant, 0, 0.0)


def test_a_vanished_entry_reads_as_minus_infinity_and_divides_nothing():
    table = ConvolutionTable((0.5, 0.0), (1, 0), (0.0, -math.inf))
    assert table.log_value(1) == -math.inf
    with pytest.raises(NumericalRangeError, match="denominator is zero"):
        table.ratio(0, 1)


def test_an_entry_past_the_double_range_is_still_read_in_logs(towns_log):
    # towns12-log at a walking pace: G(400) is about e^888.8, past any float
    sc = dataclasses.replace(towns_log, truck_speed_kmh=0.05)
    table = aggregated_norm_constants(build_star(sc, (179.756, 155.905)), 400)
    assert table.exponent[400] == 1283
    assert table.value(400) == math.inf
    assert table.log_value(400) == pytest.approx(888.807, abs=1e-3)
