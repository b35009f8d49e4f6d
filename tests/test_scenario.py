import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubfleet.scenario import (Center, Scenario, ScenarioError, Warehouse,
                               demand_fractions, load_scenario, save_scenario,
                               scenario_from_dict, scenario_to_dict)


def _warehouse(**kw):
    base = dict(id=2, position=(1.0, 2.0), demand_per_day=3.0, servers=1,
                unload_rate_per_hour=2.0)
    base.update(kw)
    return Warehouse(**base)


def test_bundled_towns_shape(towns_log, towns_pro):
    assert towns_log.num_stations == 13
    assert towns_log.total_demand_per_day == 66.0
    assert towns_pro.total_demand_per_day == 81.0
    assert [w.id for w in towns_log.warehouses] == list(range(2, 14))
    # the two demand rows share every position
    assert towns_log.warehouse_positions == towns_pro.warehouse_positions
    assert towns_log.warehouse_positions[0] == (10.0, 10.0)
    assert towns_log.warehouse_positions[-1] == (80.0, 180.0)


def test_demand_fractions_sum_to_one(towns_log, towns_pro):
    for sc in (towns_log, towns_pro):
        rho = demand_fractions(sc)
        assert all(r > 0 for r in rho)
        assert abs(sum(rho) - 1.0) <= 1e-12


def test_demand_fractions_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        whs = tuple(
            _warehouse(id=2 + i, demand_per_day=float(rng.uniform(0.01, 50)))
            for i in range(n)
        )
        sc = Scenario(warehouses=whs, center=Center(1, 1.0), truck_speed_kmh=1.0)
        assert abs(sum(demand_fractions(sc)) - 1.0) <= 1e-12


def test_zero_demand_rejected():
    with pytest.raises(ScenarioError, match="demand must be positive"):
        _warehouse(demand_per_day=0.0)
    with pytest.raises(ScenarioError, match="demand must be positive"):
        _warehouse(demand_per_day=-1.0)
    with pytest.raises(ScenarioError, match="demand must be positive"):
        _warehouse(demand_per_day=float("nan"))


def test_field_validation_messages():
    with pytest.raises(ScenarioError, match="servers"):
        _warehouse(servers=0)
    with pytest.raises(ScenarioError, match="unload_rate_per_hour"):
        _warehouse(unload_rate_per_hour=0.0)
    with pytest.raises(ScenarioError, match="id"):
        _warehouse(id=1)
    with pytest.raises(ScenarioError, match="truck_speed_kmh"):
        Scenario(warehouses=(_warehouse(),), center=Center(1, 1.0),
                 truck_speed_kmh=0.0)
    with pytest.raises(ScenarioError, match="distinct"):
        Scenario(warehouses=(_warehouse(), _warehouse()),
                 center=Center(1, 1.0), truck_speed_kmh=1.0)


def test_defaults_applied():
    sc = scenario_from_dict({
        "warehouses": [{"id": 2, "x": 0.0, "y": 1.0, "demand_per_day": 2.0,
                        "unload_rate_per_hour": 1.5}],
        "center": {"load_rate_per_hour": 3.0},
        "truck_speed_kmh": 40.0,
    })
    assert sc.truck_capacity == 1.0
    assert sc.hours_per_day == 24.0
    assert sc.max_trucks == 100
    assert sc.center.servers == 1
    assert sc.center.location is None
    assert sc.warehouses[0].servers == 1


def test_roundtrip_identity(tmp_path, towns_log):
    path = tmp_path / "copy.json"
    save_scenario(towns_log, path)
    assert load_scenario(path) == towns_log

    with_loc = towns_log.with_center_location((120.0, 90.0))
    save_scenario(with_loc, path)
    again = load_scenario(path)
    assert again == with_loc
    assert again.center.location == (120.0, 90.0)


def test_to_dict_schema(towns_log):
    d = scenario_to_dict(towns_log)
    assert set(d) == {"warehouses", "center", "truck_speed_kmh",
                      "truck_capacity", "hours_per_day", "max_trucks"}
    assert set(d["warehouses"][0]) == {"id", "x", "y", "demand_per_day",
                                       "servers", "unload_rate_per_hour"}
    assert "location" not in d["center"]  # only written when set


def test_load_errors(tmp_path, bad_scenarios):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"warehouses": [], "center": {}, "truck_speed_kmh": 1}))
    with pytest.raises(ScenarioError, match="warehouses"):
        load_scenario(empty)
    for data, match in bad_scenarios:
        bad.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=match):
            load_scenario(bad)
    # the hub rate probe of min_center_rate stays legal
    assert Center(1, math.inf).load_rate_per_hour == math.inf


_json_scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_any_json = st.recursive(
    _json_scalar,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_junk = _json_scalar | _any_json
_num = st.floats(0.1, 500.0) | st.integers(1, 50)
_KEYS = ("warehouses", "warehouse", "center", "truck_speed_kmh", "truck_capacity",
         "hours_per_day", "max_trucks", "id", "x", "y", "demand_per_day",
         "servers", "unload_rate_per_hour", "load_rate_per_hour", "location")


@st.composite
def _scenario_json(draw):
    """A scenario dict of plausible values, except that up to three keys,
    picked at random, are dropped or hold arbitrary JSON wherever they
    occur; the key "warehouse" stands for entries of the warehouse list."""
    junk = draw(st.sets(st.sampled_from(_KEYS), max_size=3))

    def put(obj, key, plausible, optional=False):
        if key in junk:
            if draw(st.booleans()):
                obj[key] = draw(_junk)
        elif not optional or draw(st.booleans()):
            obj[key] = draw(plausible)

    warehouses = []
    for _ in range(draw(st.integers(1, 4))):
        if "warehouse" in junk and draw(st.booleans()):
            warehouses.append(draw(_junk))
            continue
        w = {}
        put(w, "id", st.integers(2, 40))
        for key in ("x", "y", "demand_per_day", "unload_rate_per_hour"):
            put(w, key, _num)
        put(w, "servers", st.integers(1, 3), optional=True)
        warehouses.append(w)
    center = {}
    put(center, "load_rate_per_hour", _num)
    put(center, "servers", st.integers(1, 3), optional=True)
    put(center, "location", st.lists(_num, min_size=2, max_size=2), optional=True)
    data = {}
    put(data, "warehouses", st.just(warehouses))
    put(data, "center", st.just(center))
    put(data, "truck_speed_kmh", _num)
    for key in ("truck_capacity", "hours_per_day"):
        put(data, key, _num, optional=True)
    put(data, "max_trucks", st.integers(1, 200), optional=True)
    return data


@settings(max_examples=300, deadline=None)
@given(data=_scenario_json() | _any_json)
def test_scenario_from_dict_fuzz(data):
    # any JSON value either loads or raises ScenarioError, and nothing else
    try:
        sc = scenario_from_dict(data)
    except ScenarioError:
        return
    assert isinstance(sc, Scenario)
    assert scenario_from_dict(scenario_to_dict(sc)) == sc

