"""The normalization tables shared between consecutive requests.

``AggregatedConvolution`` takes its lane-last table from
``convolution.shared_lane_last``, which holds the last one under its inputs
(kappa, loads), over an engine R of the loads alone: every hub of a
scenario shares R, another hub rate shares every row of R but the hub's,
and the request right after ``min_trucks`` at the same hub (``analyze`` in
``solve_at``, or ``throughput_vs_location`` in the ``grid`` step) combines
nothing again.
An engine builds new columns one row at a time, each row from its own
length.  These tests pin the answers to those of a cold lane-last table,
bit for bit, and pin the keys and the one rule for a failed check: nothing
records it, the entries before it keep serving, and the engine checks the
failed entry again on the next request past it.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hubfleet import convolution as conv
from hubfleet.convolution import Convolution, LaneLast, NumericalRangeError
from hubfleet.fleet import min_center_rate, min_trucks
from hubfleet.oracle import random_scenario
from hubfleet.scenario import bundled_scenario, load_scenario
from hubfleet.star import (HUB_VISIT_RATIO, AggregatedConvolution, analyze, build_star,
                           station_loads, throughput_vs_location)
from hubfleet.weber import WeberProblem, solve_weber

GOLDEN = Path(__file__).parent / "golden"


def _cold(sc, center, n: int) -> tuple[str, str]:
    """Warehouse throughput and hub busy at n trucks, as float.hex, from a
    lane-last table and an engine built here rather than taken from the
    held ones."""
    table = LaneLast(build_star(sc, center).kappa, Convolution(station_loads(sc)))
    return ((HUB_VISIT_RATIO * table.ratio(n - 1, n)).hex(),
            (1.0 - table.ratio(n, n, num_row=-2)).hex())


def _scenarios() -> list:
    rng = np.random.default_rng(7)
    return ([bundled_scenario("towns12-log"), bundled_scenario("towns12-pro"),
             load_scenario(GOLDEN / "towns12-log-multi.json")]
            + [random_scenario(rng, int(rng.integers(1, 5)), max_servers=3)
               for _ in range(6)])


@pytest.mark.parametrize("sc", _scenarios())
def test_requests_after_min_trucks_match_a_cold_table(sc):
    x = solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location
    res = min_trucks(sc, x)
    n = res.trucks if res.feasible else sc.max_trucks
    ana = analyze(build_star(sc, x), n)
    [(_, grid_th)] = throughput_vs_location(sc, n, [x])
    th, busy = _cold(sc, x, n)
    assert ana.warehouse_throughput.hex() == th
    assert ana.busy_center.hex() == busy
    assert grid_th.hex() == th


def _variants(sc) -> dict:
    """Stars that differ from the first in exactly one engine input."""
    dock = sc.warehouses[0]
    other = dataclasses.replace(dock, servers=dock.servers % 3 + 1)
    hub = dataclasses.replace(sc.center, servers=sc.center.servers % 3 + 1)
    return {
        "base": (sc, (0.0, 0.0)),
        "kappa": (sc, (0.5, -0.25)),
        "mu1": (sc.with_center_rate(1.5 * sc.center.load_rate_per_hour), (0.0, 0.0)),
        "mu1_inf": (sc.with_center_rate(math.inf), (0.0, 0.0)),
        "hub_servers": (dataclasses.replace(sc, center=hub), (0.0, 0.0)),
        "servers": (dataclasses.replace(sc, warehouses=(other,) + sc.warehouses[1:]),
                    (0.0, 0.0)),
    }


_VARIANTS = ["base", "kappa", "mu1", "mu1_inf", "hub_servers", "servers"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       requests=st.lists(st.tuples(st.sampled_from(_VARIANTS), st.integers(1, 40)),
                         min_size=2, max_size=10))
# hub-only variants at populations above and below the held engine's, with
# earlier holders growing after another engine replaced theirs
@example(seed=3, requests=[("base", 12), ("mu1", 5), ("mu1_inf", 30), ("base", 20),
                           ("hub_servers", 25), ("mu1", 36), ("base", 40),
                           ("mu1_inf", 8)])
def test_interleaved_requests_match_fresh_engines(seed, requests):
    rng = np.random.default_rng(seed)
    variants = _variants(random_scenario(rng, int(rng.integers(1, 4)), max_servers=3))
    first = {}   # the first holder of each variant, kept across evictions
    for name, n in requests:
        sc, x = variants[name]
        agg = AggregatedConvolution(build_star(sc, x))
        expected = _cold(sc, x, n)
        for holder in (agg, first.setdefault(name, agg)):
            assert (holder.warehouse_throughput(n).hex(), holder.hub_busy(n).hex()) == expected


def test_a_failed_check_is_repeated_until_it_passes(towns_log, monkeypatch,
                                                    empty_held_tables):
    k = 10
    check = conv._check_entry

    def fails_above_k(m, *entry):
        if m > k:
            raise NumericalRangeError(f"forced failure at population {m}")
        check(m, *entry)

    x = (179.756, 155.904)
    star = build_star(towns_log, x)
    rows = len(station_loads(towns_log)) + 1
    below = [_cold(towns_log, x, m) for m in range(1, k + 1)]
    beyond = _cold(towns_log, x, k + 5)
    empty_held_tables()
    monkeypatch.setattr(conv, "_check_entry", fails_above_k)
    failing = AggregatedConvolution(star)
    with pytest.raises(NumericalRangeError, match=f"population {k + 1}$"):
        failing.throughput(k + 5)
    # the lanes are short, so no term of G(k + 5) is negligible and R grows
    # at once to the reach of its sum: the failed request built every row of
    # R out to column k + 5, in one step, before it checked column k + 1
    held = conv._HELD[(star.kappa, station_loads(towns_log))]
    assert all(len(row.log) == k + 6 for row in held.rest._rows)
    assert [len(lane.log) for lane in held._blocks.values()] == [k + 6]
    # the holder that met the failure serves every column below it
    assert [(failing.warehouse_throughput(m).hex(), failing.hub_busy(m).hex())
            for m in range(1, k + 1)] == below
    # every holder of the star fails past it while the check fails
    for holder in (failing, AggregatedConvolution(star)):
        with pytest.raises(NumericalRangeError, match=f"population {k + 1}$"):
            holder.throughput(k + 1)
    # once the check passes, the same engine checks column k + 1 again, and
    # the columns the failed request built are not built again
    monkeypatch.setattr(conv, "_check_entry", check)
    steps = _count_row_steps(monkeypatch)
    assert analyze(star, k + 5).warehouse_throughput.hex() == beyond[0]
    assert steps == []
    assert (failing.warehouse_throughput(k + 5).hex(), failing.hub_busy(k + 5).hex()) == beyond
    # one more column is one row step in every row of R (the empty network row
    # of R included) and one in this hub's first block of lane factors
    assert failing.throughput(k + 6) > 0.0
    assert steps == [k + 6] * (rows + 1)


def test_requests_after_min_trucks_combine_nothing_again(towns_log, monkeypatch,
                                                         empty_held_tables):
    combined = []
    combine = LaneLast._combine

    def counted(table, m, row):
        combined.append((row, m))
        return combine(table, m, row)

    x = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True)).location
    loads = station_loads(towns_log)
    empty_held_tables()
    monkeypatch.setattr(LaneLast, "_combine", counted)
    res = min_trucks(towns_log, x)
    engine = conv._HELD[(build_star(towns_log, x).kappa, loads)].rest
    # each entry is combined once; the lanes are short, so nothing is cut
    # and R reaches the fleet
    assert len(set(combined)) == len(combined)
    assert (-1, res.trucks) in combined and (-1, res.trucks - 1) in combined
    assert engine.population == res.trucks
    combined.clear()
    # analyze needs the hub-free entry, and nothing else
    analyze(build_star(towns_log, x), res.trucks)
    assert combined == [(-2, res.trucks)]
    combined.clear()
    throughput_vs_location(towns_log, res.trucks, [x])
    assert combined == []
    # other hubs share R: two combines each, and no column of R
    others = [(0.0, 0.0), (300.0, 100.0), (100.0, 250.0)]
    throughput_vs_location(towns_log, res.trucks, others)
    assert combined == [(-1, res.trucks), (-1, res.trucks - 1)] * 3
    held = conv._HELD[(build_star(towns_log, others[-1]).kappa, loads)]
    assert held.rest is engine and engine.population == res.trucks


def test_a_bad_request_does_not_stick(towns_log):
    agg = AggregatedConvolution(build_star(towns_log, (179.756, 155.904)))
    with pytest.raises(ValueError, match="non-negative"):
        agg.extend_to(-1)
    assert agg.warehouse_throughput(3) > 0.0


def _count_row_steps(monkeypatch) -> list:
    """Patch every fold class's ``build`` to record the columns it builds."""
    steps = []
    for cls in (conv._PooledLane, conv._BuzenFold, conv._ServerFold):
        def counted(row, prev, stop, build=cls.build):
            steps.extend(range(len(row.log), stop + 1))
            build(row, prev, stop)
        monkeypatch.setattr(cls, "build", counted)
    return steps


def test_another_hub_rate_builds_only_its_hub_row(towns_pro, monkeypatch,
                                                  empty_held_tables):
    x = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True)).location
    slow, own = towns_pro.with_center_rate(3.38), towns_pro
    cold = min_trucks(own, x)
    empty_held_tables()
    assert min_trucks(slow, x).trucks > cold.trucks
    before = conv._HELD[(build_star(slow, x).kappa, station_loads(slow))]
    steps = _count_row_steps(monkeypatch)
    assert min_trucks(own, x) == cold
    table = conv._HELD[(build_star(own, x).kappa, station_loads(own))]
    # the docks' rows, and the empty network row of R, are the held table's;
    # R at the slower hub reaches the fleet here, so the only row steps are
    # those of the new hub row and of this table's blocks of lane factors
    assert all(a is b for a, b in zip(table.rest._rows[:-1], before.rest._rows[:-1]))
    assert sorted(steps) == sorted([*range(1, len(table.rest._rows[-1].log)),
                                    *(i for lane in table._blocks.values()
                                      for i in range(1, len(lane.log)))])


def _read_by_the_rate_search(sc, center) -> list:
    """The tables ``min_center_rate`` reads through ``LaneLast.table``."""
    tables = []
    read = LaneLast.table

    def recorded(self, population):
        tables.append(read(self, population))
        return tables[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LaneLast, "table", recorded)
        min_center_rate(sc, center)
    return tables


def _hub_free_hex(sc, center, n: int) -> list:
    """G(0..n) of the star without the hub as float.hex, from R's row -2 of
    a cold lane-last table at the scenario's own hub rate."""
    cold = LaneLast(build_star(sc, center).kappa, Convolution(station_loads(sc)))
    return [(m.hex(), e, lg.hex()) for m, e, lg in (cold.entry(k, -2) for k in range(n + 1))]


def _table_hex(table) -> list:
    return [(m.hex(), e, lg.hex())
            for m, e, lg in zip(table.mantissa, table.exponent, table.log_values)]


def _hub_bound_stars() -> list:
    """Stars whose hub binds, at their weighted hub: the hub runs at half
    the demand bound on the hub rate, and the fleet cap is 60."""
    rng = np.random.default_rng(11)
    stars = [bundled_scenario("towns12-log"), bundled_scenario("towns12-pro")]
    stars += [random_scenario(rng, docks, max_servers=3, speed=speed)
              for speed in (0.05, 1.0, 50.0) for docks in (1, 3)]
    out = []
    for sc in stars:
        lb = sc.total_demand_per_day / (
            sc.truck_capacity * sc.center.servers * sc.hours_per_day)
        sc = dataclasses.replace(sc.with_center_rate(lb / 2), max_trucks=60)
        out.append((sc, solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location))
    return out


@pytest.mark.parametrize("sc,center", _hub_bound_stars())
def test_the_rate_search_reads_the_hub_free_table(sc, center):
    tables = _read_by_the_rate_search(sc, center)
    fast = min_trucks(sc.with_center_rate(math.inf), center)
    assert len(tables) == (1 if fast.feasible else 0)
    for free in tables:
        assert _table_hex(free) == _hub_free_hex(sc, center, sc.max_trucks)


def test_an_interrupted_build_resumes_each_row_at_its_own_length(towns_log,
                                                                 monkeypatch):
    # an exception the engine does not record (an interrupt, say) can stop a
    # build between rows; the rows that hold the new columns must not build
    # them again
    loads = station_loads(towns_log)
    cold = Convolution(loads)
    cold.extend_to(10)
    engine = Convolution(loads)
    engine.extend_to(4)
    at = len(loads) // 2
    middle = engine._rows[at]
    build = type(middle).build

    class Interrupt(Exception):
        pass

    def interrupted(row, prev, stop):
        if row is middle:
            raise Interrupt
        build(row, prev, stop)

    monkeypatch.setattr(type(middle), "build", interrupted)
    with pytest.raises(Interrupt):
        engine.extend_to(10)
    monkeypatch.undo()
    steps = _count_row_steps(monkeypatch)
    engine.extend_to(10)
    assert [(r.mant, r.exp, r.log) for r in engine._rows] == [
        (r.mant, r.exp, r.log) for r in cold._rows]
    # the rows before the interrupted one hold columns 5..10 already
    assert steps == list(range(5, 11)) * (len(loads) + 1 - at)
