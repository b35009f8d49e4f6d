"""The pooled lane folded in last, and the cut of its sum.

``AggregatedConvolution`` combines each G(m) = sum_k kappa^(m-k)/(m-k)! R(k)
over the table R of the docks and the hub, and stops the sum once the
terms left are certified to sum to at most 2**-60 of it.  The certificate
rests on R being log-concave.  These tests check that premise, that the
cut changes no sum, that the answers match a table that folds the lane
first, and that the cut does spare most of R when lanes are long.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    engine = Convolution(0.0, loads)
    engine.extend_to(n + 1)
    for row in (-1, -2):   # the table, and the table without the hub
        logs = engine._rows[row].log
        for k in range(1, n + 1):
            assert 2 * logs[k] - logs[k - 1] - logs[k + 1] >= -1e-12 * (1 + abs(logs[k]))


@settings(max_examples=60, deadline=None)
@given(**_STARS)
def test_the_cut_sum_equals_the_uncut_sum(seed, docks, speed, n):
    _, kappa, loads = _star(seed, docks, speed)
    cut = LaneLast(kappa, Convolution(0.0, loads))
    uncut = LaneLast(kappa, Convolution(0.0, loads))
    for row in (-1, -2):
        got = cut.entry(n, row)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conv, "_TAIL", -math.inf)   # no tail is ever negligible
            full = uncut.entry(n, row)
        assert _relative_gap(got, full) <= 1e-15
        assert abs(got[2] - full[2]) <= 1e-15 * max(1.0, abs(full[2]))


@settings(max_examples=60, deadline=None)
@given(**_STARS)
def test_throughput_and_hub_busy_match_a_lane_first_table(seed, docks, speed, n):
    sc, kappa, loads = _star(seed, docks, speed)
    agg = AggregatedConvolution(build_star(sc, (0.0, 0.0)))
    table = Convolution(kappa, loads).table(n)
    free = Convolution(kappa, loads[:-1]).table(n)   # the row before the hub
    idle = math.ldexp(free.mantissa[n] / table.mantissa[n],
                      free.exponent[n] - table.exponent[n])
    assert math.isclose(agg.throughput(n), table.ratio(n - 1, n), rel_tol=1e-12)
    # busy is 1 - idle, so when it is tiny its error is idle's rounding
    assert math.isclose(agg.hub_busy(n), 1.0 - idle, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=30, deadline=None)
@given(**_STARS)
def test_a_lane_of_zero_load_leaves_r_as_it_is(seed, docks, speed, n):
    # every warehouse on the hub: kappa is 0 and G is R, bit for bit
    sc, _, loads = _star(seed, docks, speed)
    sc = dataclasses.replace(sc, warehouses=tuple(
        dataclasses.replace(w, position=(0.0, 0.0)) for w in sc.warehouses))
    star = build_star(sc, (0.0, 0.0))
    assert star.kappa == 0.0
    assert AggregatedConvolution(star).table(n) == Convolution(0.0, loads).table(n)
    engine = Convolution(0.0, loads)
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
