"""The pooled lane folded in last, and the cuts of its sum.

``AggregatedConvolution`` combines each G(m) = sum_k kappa^(m-k)/(m-k)! R(k)
over the table R of the docks and the hub, starts the sum past the terms
certified to sum to at most 2**-60 of its last, and stops it once the
terms left are certified to sum to at most 2**-60 of it.  The certificates
rest on R being log-concave.  These tests check that premise, that the
cuts change no sum, that the answers match a table that folds the lane
first, that the cuts do spare most of R when lanes are long and most of
the lane factors when they are short, that R grows once to what its sums
read, that the lane factors and folds round as the plain recursions do,
and that no entry depends on the order in which entries are asked for.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hubfleet import convolution as conv
from hubfleet.convolution import Convolution, LaneLast
from hubfleet.fleet import min_trucks
from hubfleet.oracle import random_scenario
from hubfleet.star import AggregatedConvolution, build_star, station_loads
from hubfleet.weber import WeberProblem, solve_weber

# random stars: 1-4 docks, 1-3 servers at the hub and every dock, trucks at
# 0.05-50 km/h, and fleets up to 400.  The stars are small, so half the
# speeds are below 1 km/h, where about a third of the sums are cut.
_STARS = dict(seed=st.integers(0, 2**32 - 1), docks=st.integers(1, 4),
              speed=st.floats(0.05, 1.0) | st.floats(1.0, 50.0), n=st.integers(1, 400))


def _star(seed, docks, speed):
    sc = random_scenario(np.random.default_rng(seed), docks, max_servers=3, speed=speed)
    return sc, build_star(sc, (0.0, 0.0)).kappa, station_loads(sc)


def _relative_gap(a, b) -> float:
    """|a / b - 1| for ladder entries (mantissa, exponent, log)."""
    return abs(math.ldexp(a[0] / b[0], a[1] - b[1]) - 1.0)


@settings(max_examples=60, deadline=None)
@given(**_STARS)
def test_r_is_log_concave_to_rounding(seed, docks, speed, n):
    _, _, loads = _star(seed, docks, speed)
    engine = Convolution(loads)
    engine.extend_to(n + 1)
    for row in (-1, -2):   # the table, and the table without the hub
        logs = engine._rows[row].log
        for k in range(1, n + 1):
            assert 2 * logs[k] - logs[k - 1] - logs[k + 1] >= -1e-12 * (1 + abs(logs[k]))


@settings(max_examples=60, deadline=None)
@given(**_STARS)
def test_the_cut_sum_equals_the_uncut_sum(seed, docks, speed, n):
    _, kappa, loads = _star(seed, docks, speed)
    cut = LaneLast(kappa, Convolution(loads))
    uncut = LaneLast(kappa, Convolution(loads))
    for row in (-1, -2):
        got = cut.entry(n, row)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conv, "_TAIL", -math.inf)   # no head or tail is ever negligible
            full = uncut.entry(n, row)
        assert _relative_gap(got, full) <= 1e-15
        assert abs(got[2] - full[2]) <= 1e-15 * max(1.0, abs(full[2]))


@settings(max_examples=60, deadline=None)
@given(**_STARS)
def test_throughput_and_hub_busy_match_a_lane_first_table(lane_first, seed, docks, speed, n):
    sc, kappa, loads = _star(seed, docks, speed)
    agg = AggregatedConvolution(build_star(sc, (0.0, 0.0)))
    table = lane_first(kappa, loads, n)
    free = lane_first(kappa, loads[:-1], n)   # the row before the hub
    idle = math.ldexp(free.mantissa[n] / table.mantissa[n],
                      free.exponent[n] - table.exponent[n])
    assert math.isclose(agg.throughput(n), table.ratio(n - 1, n), rel_tol=1e-12)
    # busy is 1 - idle, so when it is tiny its error is idle's rounding
    assert math.isclose(agg.hub_busy(n), 1.0 - idle, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=30, deadline=None)
@given(**_STARS)
def test_a_lane_of_zero_load_leaves_r_as_it_is(lane_first, seed, docks, speed, n):
    # every warehouse on the hub: kappa is 0 and G is R, bit for bit
    sc, _, loads = _star(seed, docks, speed)
    sc = dataclasses.replace(sc, warehouses=tuple(
        dataclasses.replace(w, position=(0.0, 0.0)) for w in sc.warehouses))
    star = build_star(sc, (0.0, 0.0))
    assert star.kappa == 0.0
    assert AggregatedConvolution(star).table(n) == lane_first(0.0, loads, n)
    engine = Convolution(loads)
    engine.extend_to(n)
    hub_free = engine._rows[-2]
    assert LaneLast(0.0, engine).entry(n, -2) == (
        hub_free.mant[n], hub_free.exp[n], hub_free.log[n])


def test_long_lanes_build_r_only_part_of_the_way(towns_log, empty_held_tables):
    # at 0.05 km/h the lane load is about 1370 and 400 trucks cannot meet
    # demand, so min_trucks combines G out to 400; the terms fall geometrically
    # from the first, and R is built only to a small fraction of that
    sc = dataclasses.replace(towns_log, truck_speed_kmh=0.05, max_trucks=400)
    x = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    empty_held_tables()
    res = min_trucks(sc, x)
    assert res.infeasibility_reason == "max_trucks" and res.iterations == 400
    assert AggregatedConvolution(build_star(sc, x)).population < 200


def test_short_lanes_read_only_the_lane_factors_of_the_head(towns_pro, monkeypatch):
    # the hub-free table the hub-rate search reads, at a fleet cap of 600:
    # the terms rise towards k = m, and every sum starts where the terms
    # below are negligible, about 150 terms from its end, so the lane
    # factors past the first few blocks are never built
    fast = towns_pro.with_center_rate(math.inf)
    x = solve_weber(WeberProblem.from_scenario(fast, weighted=True)).location
    kappa, loads = build_star(fast, x).kappa, station_loads(fast)
    cut = LaneLast(kappa, Convolution(loads))
    table = cut.table(600)
    assert max(cut._blocks) <= 3
    monkeypatch.setattr(conv, "_TAIL", -math.inf)
    full = LaneLast(kappa, Convolution(loads))
    for m in range(0, 601, 20):
        got = (table.mantissa[m], table.exponent[m], table.log_values[m])
        assert _relative_gap(got, full.entry(m)) <= 1e-15
    assert max(full._blocks) == 600 // conv._BLOCK


def test_r_grows_once_to_the_reach_of_its_sums(towns_log, monkeypatch, empty_held_tables):
    # at 2 km/h with a cap of 400, min_trucks scans fleets up to 381 and the
    # sums stop after about 90 terms.  Grown one column at a time whenever a
    # sum reaches its end, R holds just what the sums read; the predicted
    # growth builds R once, at most two columns further (the prediction
    # stops at 2**-62 of the sum, the sums at 2**-60), where doubling would
    # build it to 127
    sc = dataclasses.replace(towns_log, truck_speed_kmh=2.0, max_trucks=400)
    x = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    star = build_star(sc, x)
    empty_held_tables()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conv, "_grown", lambda m, k, *_: k + 1)
        exact = min_trucks(sc, x)
    reach = AggregatedConvolution(star).population
    assert exact.trucks == 381 and 64 < reach < 127
    empty_held_tables()
    growths = []
    grown = conv._grown

    def recorded(m, k, *args):
        growths.append(grown(m, k, *args))
        return growths[-1]

    monkeypatch.setattr(conv, "_grown", recorded)
    assert min_trucks(sc, x) == exact
    assert growths == [AggregatedConvolution(star).population]
    assert reach <= growths[0] <= reach + 2


_KAPPAS = st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(kappa=_KAPPAS, n=st.integers(0, 400))
def test_anchored_lane_factors_match_the_upward_row(kappa, n):
    # each step of either row rounds twice (kappa / j, and the product), and
    # a block's anchor once, so the two differ by at most (4 j + 1) roundings
    up = conv._PooledLane(kappa)
    up.build(None, n)
    lane = LaneLast(kappa, Convolution([(0.5, 1)]))
    for j in range(n + 1):
        b, i = divmod(j, conv._BLOCK)
        block = lane._block(b, i)
        got, want = (block.mant[i], block.exp[i], block.log[i]), (up.mant[j], up.exp[j], up.log[j])
        if j < conv._BLOCK:
            assert got == want
        elif want[0] == 0.0:
            assert got == (0.0, 0, -math.inf)
        else:
            assert _relative_gap(got, want) <= (4 * j + 1) * 2.0 ** -53
            assert abs(got[2] - want[2]) <= 1e-12 * max(1.0, abs(want[2]))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_a_negative_population_is_rejected(kappa):
    lane = LaneLast(kappa, Convolution([(0.5, 1)]))
    for ask in (lambda: lane.entry(-1), lambda: lane.entry(-1, -2),
                lambda: lane.ratio(-1, 0), lambda: lane.ratio(0, -1),
                lambda: lane.table(-1)):
        with pytest.raises(ValueError, match="non-negative"):
            ask()


@settings(max_examples=40, deadline=None)
@given(**_STARS, order=st.randoms(use_true_random=False))
def test_an_entry_does_not_depend_on_the_order_of_requests(seed, docks, speed, n, order):
    _, kappa, loads = _star(seed, docks, speed)
    keys = [(m, row) for m in range(n + 1) for row in (-1, -2)]
    forward = LaneLast(kappa, Convolution(loads))
    shuffled = LaneLast(kappa, Convolution(loads))
    order.shuffle(keys)
    got = {key: shuffled.entry(*key) for key in keys}
    for key in sorted(keys):
        want = forward.entry(*key)
        assert [v.hex() if isinstance(v, float) else v for v in got[key]] == [
            v.hex() if isinstance(v, float) else v for v in want]


def _reference_fold(prev, x: float, servers: int, n: int) -> list:
    """Columns 0..n of a station of load x on ``servers`` servers folded
    over ``prev``, term by term through ``_add``, ``_mul`` and ``_log_add``:
    by Buzen's recursion for one server, else as A + B (``_ServerFold``)."""
    pm, pe, pl = prev.mant, prev.exp, prev.log
    if servers == 1:
        xm, xe, xl = *conv._ladder(x), conv._log(x)
        out = [(0.5, 1, 0.0)]
        for m in range(1, n + 1):
            gm, ge, gl = out[-1]
            out.append((*conv._add(pm[m], pe[m], *conv._mul(gm, ge, xm, xe)),
                        conv._log_add(pl[m], gl + xl)))
        return out
    f = [(0.5, 1, 0.0)]   # x^i / i! for i up to the server count
    for i in range(1, min(n, servers) + 1):
        fm, fe, fl = f[-1]
        f.append((*conv._mul(fm, fe, *conv._ladder(x / i)), fl + conv._log(x / i)))
    sm, se, sl = *conv._ladder(x / servers), conv._log(x / servers)
    om, oe, ol = 0.0, 0, -math.inf   # B(m - 1), as in ``_ServerFold``
    out = [(0.5, 1, 0.0)]
    for m in range(1, n + 1):
        am, ae, al = pm[m], pe[m], pl[m]
        for i in range(1, min(m, servers - 1) + 1):
            fm, fe, fl = f[i]
            am, ae = conv._add(am, ae, *conv._mul(fm, fe, pm[m - i], pe[m - i]))
            al = conv._log_add(al, fl + pl[m - i])
        if m >= servers:
            fm, fe, fl = f[servers]
            om, oe = conv._add(*conv._mul(fm, fe, pm[m - servers], pe[m - servers]),
                               *conv._mul(om, oe, sm, se))
            ol = conv._log_add(fl + pl[m - servers], ol + sl)
        out.append((*conv._add(am, ae, om, oe), conv._log_add(al, ol)))
    return out


_LOADS = st.just(0.0) | st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e)


@settings(max_examples=80, deadline=None)
@given(kappa=_KAPPAS, stations=st.lists(st.tuples(_LOADS, st.integers(1, 5)),
                                        min_size=1, max_size=4),
       n=st.integers(1, 60))
# deep multi-server rows, as a fleet search at slow trucks folds its hub
@example(kappa=12.0, stations=[(0.3, 1), (0.9, 2)], n=400)
@example(kappa=12.0, stations=[(0.3, 1), (1.7, 3)], n=400)
@example(kappa=200.0, stations=[(0.05, 1), (0.125, 2)], n=2000)
@example(kappa=200.0, stations=[(0.05, 1), (2.5, 3)], n=2000)
def test_the_written_out_folds_match_the_ladder_helpers(kappa, stations, n):
    # the lane first, as the lane-first reference folds it, then the stations
    stations = [(kappa, n + 1), *stations]
    engine = Convolution(stations)
    engine._rows[0].build(None, n)
    for prev, row, (x, servers) in zip(engine._rows, engine._rows[1:], stations):
        row.build(prev, n)
        got = [(m.hex(), e, lg.hex()) for m, e, lg in zip(row.mant, row.exp, row.log)]
        assert got == [(m.hex(), e, lg.hex())
                       for m, e, lg in _reference_fold(prev, x, servers, n)]


@settings(max_examples=60, deadline=None)
@given(kappa=_KAPPAS, n=st.integers(0, 300))
@example(kappa=5e-324, n=5)   # kappa / j underflows from j = 2 on
def test_a_lane_of_more_servers_than_customers_folds_the_lane_factors(kappa, n):
    # the lane-first reference folds the lane as a station of n + 1 servers
    # over the empty network's row; that row is kappa^j / j!, the upward
    # lane row, bit for bit
    engine = Convolution([(kappa, n + 1)])
    engine._rows[0].build(None, n)
    engine._rows[1].build(engine._rows[0], n)
    lane = conv._PooledLane(kappa)
    lane.build(None, n)
    row = engine._rows[1]
    assert [(m.hex(), e, lg.hex()) for m, e, lg in zip(row.mant, row.exp, row.log)] == [
        (m.hex(), e, lg.hex()) for m, e, lg in zip(lane.mant, lane.exp, lane.log)]


@pytest.mark.parametrize("kappa,load,servers,n", [
    (2.1009706037178906, 2.94514010793498e-194, 3, 158),
    (13.431349485407855, 0.017551853468905934, 3, 73),
    (9.471304575882972e+161, 2.095130565159633, 4, 79)])
def test_a_sum_over_the_empty_lane_row_is_the_lane_factor(kappa, load, servers, n):
    # over one station, row -2 is R's empty network row, zero past column 0,
    # so every term past the first is zero and G(n) is kappa^n / n!
    got = LaneLast(kappa, Convolution([(load, servers)])).entry(n, -2)
    lane = conv._PooledLane(kappa)
    lane.build(None, n)
    assert _relative_gap(got, (lane.mant[n], lane.exp[n])) <= 1e-15
