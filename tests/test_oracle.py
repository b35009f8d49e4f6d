import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hubfleet import convolution as conv
from hubfleet import oracle
from hubfleet.oracle import (_explicit_star, convolve_stations, ctmc_throughput,
                             enumerate_product_form, multi_server, random_scenario,
                             run_validation_suite, simulate)
from hubfleet.scenario import (Center, Scenario, Warehouse, demand_fractions,
                               load_scenario)
from hubfleet.star import AggregatedConvolution, build_star
from hubfleet.weber import WeberProblem, solve_weber
from test_cli import _src_env
from test_golden_des import _matches_golden


def test_enumeration_two_station_frozen():
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    en = enumerate_product_form(stations, [0.5, 0.5], 2)
    assert en.state_count == 3
    assert en.norm_constant == pytest.approx(0.75, rel=1e-14)
    assert np.allclose(sorted(en.probabilities), [1/3, 1/3, 1/3], atol=1e-14)
    assert np.allclose(en.marginal(0), [1/3, 1/3, 1/3], atol=1e-14)


def test_enumeration_state_space_guard():
    stations = tuple(multi_server(f"s{i}", 1.0) for i in range(8))
    with pytest.raises(ValueError, match="too large"):
        enumerate_product_form(stations, [1.0] * 8, 200)


def test_ctmc_two_station_uniform():
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    res = ctmc_throughput(stations, np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    assert res.residual < 1e-10
    assert np.allclose(res.pi, [1/3, 1/3, 1/3], atol=1e-12)
    assert np.allclose(res.station_throughput, [2/3, 2/3], atol=1e-12)


def test_ctmc_state_space_guard():
    # two stations and 3000 trucks: one state above the limit
    stations = (multi_server("a", 1.0), multi_server("b", 1.0))
    assert oracle._state_count(3000, 2) == oracle._CTMC_STATE_LIMIT + 1
    with pytest.raises(ValueError, match="too large for CTMC"):
        ctmc_throughput(stations, np.array([[0.0, 1.0], [1.0, 0.0]]), 3000)


def test_triple_agreement_star(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    stations, routing, eta = _explicit_star(star)
    table = convolve_stations(stations, eta, 2)
    en = enumerate_product_form(stations, eta, 2)
    ct = ctmc_throughput(stations, routing, 2)
    assert table.value(2) == pytest.approx(en.norm_constant, rel=1e-12)
    assert np.allclose(ct.station_throughput, eta * table.ratio(1, 2),
                       rtol=1e-10, atol=1e-14)


def test_des_zero_trucks(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    est = simulate(star, 0, horizon_events=1000, replications=3, seed=1)
    assert est.warehouse_throughput == 0.0
    assert np.all(est.per_replication == 0.0)


@pytest.mark.parametrize("trucks,kw,name", [
    (-1, {}, "trucks"),
    (2, {"replications": -1}, "replications"),
    (2, {"horizon_events": 0}, "horizon_events"),
    (2, {"warmup_fraction": 1.5}, "warmup_fraction"),
    (2, {"warmup_fraction": 1.0}, "warmup_fraction"),
    (2, {"warmup_fraction": -0.1}, "warmup_fraction"),
    (2, {"warmup_fraction": float("nan")}, "warmup_fraction"),
    (2, {"travel": "uniform"}, "unknown travel distribution 'uniform'"),
])
def test_des_rejects_bad_arguments(toy_star_scenario, trucks, kw, name):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    with pytest.raises(ValueError, match=name):
        simulate(star, trucks, **{"horizon_events": 1000, "replications": 2, **kw})


def test_des_bit_identical_reruns(toy_star_scenario):
    star = build_star(toy_star_scenario, (0.0, 0.0))
    a = simulate(star, 2, horizon_events=5000, replications=3, seed=42)
    b = simulate(star, 2, horizon_events=5000, replications=3, seed=42)
    assert np.array_equal(a.per_replication, b.per_replication)
    assert np.array_equal(a.station_sojourn, b.station_sojourn)
    c = simulate(star, 2, horizon_events=5000, replications=3, seed=43)
    assert not np.array_equal(a.per_replication, c.per_replication)


def test_des_single_truck_exact_cycle(toy_star_scenario):
    # one truck never queues: cycle mean 4 hours, TH_w = 1/4 per hour
    star = build_star(toy_star_scenario, (0.0, 0.0))
    est = simulate(star, 1, horizon_events=40_000, replications=10, seed=7)
    assert abs(est.warehouse_throughput - 0.25) <= 2 * est.warehouse_throughput_hw
    # with deterministic travel the cycle still averages 4 hours
    det = simulate(star, 1, horizon_events=40_000, replications=10, seed=7,
                   travel="deterministic")
    assert abs(det.warehouse_throughput - 0.25) <= 2 * det.warehouse_throughput_hw


def test_des_matches_analytic_and_insensitivity():
    rng = np.random.default_rng(19)
    sc = random_scenario(rng, 2, radius_range=(1.0, 3.0))
    star = build_star(sc, (0.0, 0.0))
    analytic = AggregatedConvolution(star).warehouse_throughput(4)
    exp = simulate(star, 4, horizon_events=150_000, replications=10, seed=3,
                   warmup_fraction=0.3)
    det = simulate(star, 4, horizon_events=150_000, replications=10, seed=3,
                   travel="deterministic", warmup_fraction=0.3)
    assert abs(exp.warehouse_throughput - analytic) <= exp.warehouse_throughput_hw
    assert abs(det.warehouse_throughput - analytic) <= \
        det.warehouse_throughput_hw + 0.001 * analytic
    assert abs(exp.warehouse_throughput - det.warehouse_throughput) <= \
        exp.warehouse_throughput_hw + det.warehouse_throughput_hw


@pytest.mark.parametrize("travel", ["exponential", "deterministic"])
def test_des_matches_the_exact_throughput_of_multi_server_stations(travel):
    # a 2-server hub and three 2-server docks, 150 trucks on slow lanes: at
    # 50 km/h this star sits on its 4/h ceiling from 120 trucks on; the
    # bound is perfbench's des check, max(3% of exact, 4 half-widths)
    sc = dataclasses.replace(
        load_scenario(Path(__file__).parent / "golden" / "towns12-log-multi.json"),
        truck_speed_kmh=5.0)
    star = build_star(sc, solve_weber(WeberProblem.from_scenario(sc, weighted=True)).location)
    exact = AggregatedConvolution(star).warehouse_throughput(150)
    est = simulate(star, 150, horizon_events=60_000, replications=4, seed=2027,
                   travel=travel)
    assert abs(est.warehouse_throughput - exact) <= \
        max(0.03 * exact, 4 * est.warehouse_throughput_hw)


def test_des_user_travel_distribution(toy_star_scenario):
    # uniform(0, 2*mean) has the same mean: insensitivity again
    star = build_star(toy_star_scenario, (0.0, 0.0))

    def uniform_travel(rng, mean):
        return rng.uniform(0.0, 2.0 * mean)

    est = simulate(star, 3, horizon_events=80_000, replications=8, seed=5,
                   travel=uniform_travel)
    analytic = AggregatedConvolution(star).warehouse_throughput(3)
    assert abs(est.warehouse_throughput - analytic) <= \
        2.5 * est.warehouse_throughput_hw
    assert est.travel == "callable"


@pytest.mark.parametrize("travel, replications", [
    pytest.param("exponential", 1, id="exponential"),
    pytest.param("deterministic", 1, id="deterministic"),
    pytest.param("exponential", 2, id="exponential-2_replications"),
    pytest.param("deterministic", 2, id="deterministic-2_replications"),
])
def test_des_rejects_a_horizon_with_no_measured_time(toy_star_scenario, travel,
                                                     replications):
    # with the hub on the only warehouse both lanes take no time, so the one
    # event after the warm-up ends at the warm-up's last instant
    star = build_star(toy_star_scenario, (1.0, 0.0))
    with pytest.raises(ValueError, match="horizon too short for the requested warm-up"):
        simulate(star, 1, horizon_events=2, replications=replications,
                 warmup_fraction=0.5, travel=travel)
    # no reply to the failed call is left for the next one to read
    assert _matches_golden("towns_exponential")


def test_des_little_law_closure():
    rng = np.random.default_rng(29)
    sc = random_scenario(rng, 3, radius_range=(0.5, 2.0))
    star = build_star(sc, (0.0, 0.0))
    n = 5
    est = simulate(star, n, horizon_events=200_000, replications=6, seed=11)
    # visit ratios over the explicit stations: hub 1/4, each warehouse leg rho/4
    eta = [0.25]
    for r in demand_fractions(sc):
        eta += [r / 4.0, r / 4.0, r / 4.0]
    th_overall = 4.0 * est.warehouse_throughput
    lhs = float(np.dot(eta, est.station_sojourn))
    assert lhs * th_overall == pytest.approx(n, rel=0.02)


def test_des_station_throughput_balance(toy_star_scenario):
    # flow balance: hub and dock complete at the same rate, lanes too
    star = build_star(toy_star_scenario, (0.0, 0.0))
    est = simulate(star, 2, horizon_events=100_000, replications=5, seed=13)
    th = est.station_throughput
    assert th[0] == pytest.approx(th[2], rel=0.01)   # hub vs dock
    assert th[1] == pytest.approx(th[3], rel=0.01)   # lane out vs lane back


def test_des_routes_the_top_uniform_to_the_last_warehouse(monkeypatch):
    # the shares of demands (1, 4, 1) sum to 1 - 2**-53, which is also the
    # largest uniform numpy's random() returns: such a uniform must take
    # the last warehouse's lane
    sc = Scenario(
        warehouses=tuple(Warehouse(id=2 + i, position=(1.0 + i, 0.0), demand_per_day=d)
                         for i, d in enumerate((1.0, 4.0, 1.0))),
        center=Center(servers=1, load_rate_per_hour=1.0), truck_speed_kmh=1.0)
    top = 1.0 - 2.0 ** -53
    assert np.cumsum(demand_fractions(sc))[-1] == top
    default_rng = np.random.default_rng

    class TopUniforms:
        """A generator whose uniforms, drawn only for routing, are all top."""

        def __init__(self, seed):
            self._rng = default_rng(seed)

        def random(self, size):
            return np.full(size, top)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", TopUniforms)
    est = simulate(build_star(sc, (0.0, 0.0)), 3, horizon_events=2_000,
                   replications=1, seed=1)
    assert np.all(est.station_throughput[1:7] == 0.0)
    assert np.all(est.station_throughput[7:] > 0.0)



# a child interpreter runs a 2-replication simulate, prints its worker's pid
# and then waits for stdin to close
_SIMULATE_AND_PRINT_THE_WORKER = """
import sys
from hubfleet import oracle
from hubfleet.scenario import bundled_scenario
from hubfleet.star import build_star
star = build_star(bundled_scenario("towns12-log"), (180.0, 156.0))
oracle.simulate(star, 19, horizon_events=2_000, replications=2)
print(oracle._workers[0][0].pid, flush=True)
sys.stdin.read()
"""

_needs_a_worker = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
    or not Path("/proc/self/stat").exists(),
    reason="needs two usable CPUs and /proc")


def _gone(pid: int) -> bool:
    """No process ``pid`` runs: none exists, or only its exit status is left."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@_needs_a_worker
def test_des_worker_exits_with_its_caller():
    out = subprocess.run([sys.executable, "-c", _SIMULATE_AND_PRINT_THE_WORKER],
                         env=_src_env(), input="", capture_output=True, text=True,
                         timeout=120, check=True)
    assert _gone(int(out.stdout))


@_needs_a_worker
def test_des_worker_exits_when_its_caller_is_killed():
    child = subprocess.Popen([sys.executable, "-c", _SIMULATE_AND_PRINT_THE_WORKER],
                             env=_src_env(), stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        pid = int(child.stdout.readline())
        assert not _gone(pid)
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdin.close()
        child.stdout.close()
    deadline = time.monotonic() + 5.0
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(pid)


@_needs_a_worker
def test_des_runs_a_dead_workers_share_in_process():
    assert _matches_golden("towns_exponential")
    worker = oracle._workers[0][0]
    worker.kill()
    worker.join()
    assert _matches_golden("towns_deterministic")
    # and the next call forks a new worker
    assert _matches_golden("towns_exponential")
    assert oracle._workers[0][0].is_alive()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
def test_des_in_forked_children_of_a_caller_with_a_worker():
    # this process's worker serves this process alone: the children of a fork
    # pool, running at the same time, each start their own worker or, as
    # daemonic multiprocessing.Pool workers, which may not start children,
    # keep their replications in process
    assert _matches_golden("towns_exponential")
    names = ["towns_exponential", "towns_deterministic", "multi_server_star",
             "hub_on_a_warehouse"] * 2
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(2, mp_context=ctx) as pool:
        assert all(pool.map(_matches_golden, names))
    with ctx.Pool(2) as pool:
        assert all(pool.map(_matches_golden, names))
    assert _matches_golden("towns_deterministic")


def test_validation_suite_passes():
    results = run_validation_suite(seed=2, instances=3, des_events=30_000,
                                   des_replications=6)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    names = [r.name for r in results]
    assert "enumeration vs convolution" in names
    assert "ctmc vs convolution" in names
    assert "travel-time insensitivity (DES)" in names


def test_validation_suite_corruption_detected(monkeypatch):
    # entry 37 of the 60-truck table reaches the build-time check off by
    # 1e-4; the suite must report exactly that one check as failed
    check = conv._check_entry

    def corrupted(m, mant, exp2, log):
        if m == 37:
            mant *= 1.0 + 1e-4
        check(m, mant, exp2, log)

    monkeypatch.setattr(conv, "_check_entry", corrupted)
    results = run_validation_suite(seed=2, instances=2, des_events=20_000,
                                   des_replications=4)
    bad = [r for r in results if not r.passed]
    assert len(bad) == 1
    assert bad[0].name == "log/linear convolution agreement"
    assert "disagree" in bad[0].detail
