import math

import pytest

from hubfleet.scenario import Center, Scenario, Warehouse, bundled_scenario


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
        ([], "must be a JSON object"),
    ]
