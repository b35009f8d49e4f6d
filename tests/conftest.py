import faulthandler
import math

import pytest

from hubfleet import convolution as conv
from hubfleet.scenario import Center, Scenario, Warehouse, bundled_scenario


def _empty_held_tables() -> None:
    conv._HELD.clear()


@pytest.fixture(scope="session")
def empty_held_tables():
    """A function that empties the held lane-last table in place, and with
    it the shared table R of the station loads.  The next request then
    starts cold, and the holders made before keep their own tables."""
    return _empty_held_tables


@pytest.fixture(autouse=True)
def _stacks_dumped_if_hung():
    """A test still running after ten minutes dumps every thread's stack
    and ends the run with a failure, rather than hanging it silently; the
    slowest test takes about 8 s."""
    faulthandler.dump_traceback_later(600, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _lane_first(kappa: float, loads, population: int) -> conv.ConvolutionTable:
    """G(0..population) with the pooled lane, of load kappa, folded in first
    and the stations of ``loads`` over it in order.  The lane is folded as
    a station with more servers than the table has customers, whose row is
    kappa^j / j! (``_ServerFold``), the lane factors of ``_PooledLane``."""
    engine = conv.Convolution([(kappa, population + 1), *loads])
    engine.extend_to(population)
    row = engine._rows[-1]
    return conv.ConvolutionTable(tuple(row.mant[:population + 1]),
                                 tuple(row.exp[:population + 1]),
                                 tuple(row.log[:population + 1]))


@pytest.fixture(scope="session")
def lane_first():
    """A function (kappa, loads, population) giving the table with the
    pooled lane folded in first: an independent reference for the
    lane-last tables that every production path reads."""
    return _lane_first


@pytest.fixture(scope="session")
def towns_log() -> Scenario:
    return bundled_scenario("towns12-log")


@pytest.fixture(scope="session")
def towns_pro() -> Scenario:
    return bundled_scenario("towns12-pro")


@pytest.fixture()
def toy_star_scenario() -> Scenario:
    """J=2 star with unit rates and a unit-distance warehouse; every figure
    is known in closed form."""
    return Scenario(
        warehouses=(Warehouse(id=2, position=(1.0, 0.0), demand_per_day=5.0,
                              servers=1, unload_rate_per_hour=1.0),),
        center=Center(servers=1, load_rate_per_hour=1.0),
        truck_speed_kmh=1.0,
    )


def _raw_scenario() -> dict:
    return {
        "warehouses": [{"id": 2, "x": 0.0, "y": 1.0, "demand_per_day": 2.0,
                        "unload_rate_per_hour": 1.5}],
        "center": {"load_rate_per_hour": 3.0},
        "truck_speed_kmh": 40.0,
    }


def _edited(edit) -> dict:
    """The valid scenario above after ``edit(data, warehouse, center)``."""
    data = _raw_scenario()
    edit(data, data["warehouses"][0], data["center"])
    return data


@pytest.fixture(scope="session")
def bad_scenarios() -> list[tuple[object, str]]:
    """(scenario JSON value, message pattern) for malformed inputs of each
    kind; every one must raise ``ScenarioError``."""
    return [
        (_edited(lambda d, w, c: w.update(id="two")), "id must be a number"),
        (_edited(lambda d, w, c: w.update(id=2.7)), "id must be an integer"),
        (_edited(lambda d, w, c: d["warehouses"].append(5)), "#1: must be an object"),
        (_edited(lambda d, w, c: c.update(location=[1])), "location must be"),
        (_edited(lambda d, w, c: c.update(location=[1.0, math.nan])), "finite"),
        (_edited(lambda d, w, c: w.update(x=math.nan)), "position must be two finite"),
        (_edited(lambda d, w, c: w.update(y=-math.inf)), "position must be two finite"),
        (_edited(lambda d, w, c: d.update(truck_speed_kmh=math.inf)),
         "truck_speed_kmh must be positive and finite"),
        (_edited(lambda d, w, c: w.update(servers=None)), "servers must be a number"),
        (_edited(lambda d, w, c: d.update(center=[])), "center must be an object"),
        # JSON holds any integer; this one has no float
        (_edited(lambda d, w, c: w.update(demand_per_day=10**400)),
         "warehouse #0: demand_per_day is out of range"),
        ([], "must be a JSON object"),
    ]
