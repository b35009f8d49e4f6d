"""Problem instances: warehouses, a central loading hub, and fleet parameters.

Canonical units are hours for time, kilometres for distance and truckloads
for quantities.  Demands are stored per day exactly as they appear in
scenario files; analysis code converts with ``hours_per_day`` where needed.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

Point = tuple[float, float]


class ScenarioError(ValueError):
    """A scenario file or instance violates a structural invariant."""


@dataclass(frozen=True)
class DistanceMetric:
    """Distance from a warehouse position to a candidate hub location.

    ``euclidean`` is the default.  ``callback`` wraps a user-supplied
    function d(a, x); it must be convex in x, non-negative, and satisfy
    d(a, a) = 0, which is the caller's responsibility.
    """

    kind: str = "euclidean"
    fn: Callable[[Point, Point], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("euclidean", "callback"):
            raise ScenarioError(f"unknown metric kind: {self.kind!r}")
        if self.kind == "callback" and self.fn is None:
            raise ScenarioError("callback metric requires a distance function")

    def distance(self, a: Point, x: Point) -> float:
        if self.kind == "euclidean":
            return math.hypot(a[0] - x[0], a[1] - x[1])
        return float(self.fn(a, x))


EUCLIDEAN = DistanceMetric()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


@dataclass(frozen=True, slots=True)
class Warehouse:
    """One delivery destination with its own unloading docks."""

    id: int
    position: Point
    demand_per_day: float
    servers: int = 1
    unload_rate_per_hour: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.id, int) and self.id >= 2,
                 f"warehouse id must be an integer >= 2, got {self.id!r}")
        # `not (x > 0)` also rejects NaN
        _require(self.demand_per_day > 0,
                 f"warehouse {self.id}: demand must be positive")
        _require(isinstance(self.servers, int) and self.servers >= 1,
                 f"warehouse {self.id}: servers must be a positive integer")
        _require(self.unload_rate_per_hour > 0,
                 f"warehouse {self.id}: unload_rate_per_hour must be positive")


@dataclass(frozen=True, slots=True)
class Center:
    """The loading hub.  ``location`` is fixed only when given; otherwise the
    solver places the hub (Weber point)."""

    servers: int = 1
    load_rate_per_hour: float = 1.0
    location: Point | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.servers, int) and self.servers >= 1,
                 "center: servers must be a positive integer")
        _require(self.load_rate_per_hour > 0,
                 "center: load_rate_per_hour must be positive")


@dataclass(frozen=True, slots=True)
class Scenario:
    """A full problem instance.

    ``metric`` is a library-level option and is not serialized; scenario
    files are always Euclidean.
    """

    warehouses: tuple[Warehouse, ...]
    center: Center
    truck_speed_kmh: float
    truck_capacity: float = 1.0
    hours_per_day: float = 24.0
    max_trucks: int = 100
    metric: DistanceMetric = EUCLIDEAN

    def __post_init__(self) -> None:
        _require(len(self.warehouses) >= 1, "scenario needs at least one warehouse")
        ids = [w.id for w in self.warehouses]
        _require(len(set(ids)) == len(ids), "warehouse ids must be distinct")
        _require(self.truck_speed_kmh > 0, "truck_speed_kmh must be positive")
        _require(self.truck_capacity > 0, "truck_capacity must be positive")
        _require(self.hours_per_day > 0, "hours_per_day must be positive")
        _require(isinstance(self.max_trucks, int) and self.max_trucks >= 1,
                 "max_trucks must be a positive integer")

    @property
    def num_stations(self) -> int:
        """J: the hub plus all warehouses."""
        return 1 + len(self.warehouses)

    @property
    def total_demand_per_day(self) -> float:
        return sum(w.demand_per_day for w in self.warehouses)

    @property
    def warehouse_positions(self) -> tuple[Point, ...]:
        return tuple(w.position for w in self.warehouses)

    def warehouse_by_id(self, node: int) -> Warehouse:
        for w in self.warehouses:
            if w.id == node:
                return w
        raise ScenarioError(f"unknown node index {node}")

    def with_center_rate(self, rate: float) -> "Scenario":
        return replace(self, center=replace(self.center, load_rate_per_hour=rate))

    def with_center_location(self, location: Point | None) -> "Scenario":
        return replace(self, center=replace(self.center, location=location))


def demand_fractions(scenario: Scenario) -> list[float]:
    """Demand shares rho_j in warehouse order; they sum to 1."""
    total = scenario.total_demand_per_day
    return [w.demand_per_day / total for w in scenario.warehouses]


def rate_function(scenario: Scenario, node: int) -> Callable[[int], float]:
    """Service rate n -> mu_node(n) for the hub (node 1) or a warehouse id.

    The rate saturates at the station's server count: mu * min(n, servers).
    """
    if node == 1:
        rate, servers = scenario.center.load_rate_per_hour, scenario.center.servers
    else:
        w = scenario.warehouse_by_id(node)
        rate, servers = w.unload_rate_per_hour, w.servers

    def mu(n: int) -> float:
        if n <= 0:
            return 0.0
        return rate * min(n, servers)

    return mu


def scenario_to_dict(scenario: Scenario) -> dict:
    center: dict = {
        "servers": scenario.center.servers,
        "load_rate_per_hour": scenario.center.load_rate_per_hour,
    }
    if scenario.center.location is not None:
        center["location"] = [scenario.center.location[0], scenario.center.location[1]]
    return {
        "warehouses": [
            {
                "id": w.id,
                "x": w.position[0],
                "y": w.position[1],
                "demand_per_day": w.demand_per_day,
                "servers": w.servers,
                "unload_rate_per_hour": w.unload_rate_per_hour,
            }
            for w in scenario.warehouses
        ],
        "center": center,
        "truck_speed_kmh": scenario.truck_speed_kmh,
        "truck_capacity": scenario.truck_capacity,
        "hours_per_day": scenario.hours_per_day,
        "max_trucks": scenario.max_trucks,
    }


def scenario_from_dict(data: dict) -> Scenario:
    try:
        raw_whs = data["warehouses"]
        raw_center = data["center"]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"scenario is missing required section: {exc}") from None
    if not isinstance(raw_whs, list) or not raw_whs:
        raise ScenarioError("warehouses must be a non-empty list")

    warehouses = []
    for i, rw in enumerate(raw_whs):
        try:
            warehouses.append(
                Warehouse(
                    id=int(rw["id"]),
                    position=(float(rw["x"]), float(rw["y"])),
                    demand_per_day=float(rw["demand_per_day"]),
                    servers=int(rw.get("servers", 1)),
                    unload_rate_per_hour=float(rw["unload_rate_per_hour"]),
                )
            )
        except KeyError as exc:
            raise ScenarioError(f"warehouse #{i}: missing field {exc}") from None

    loc = raw_center.get("location")
    location = (float(loc[0]), float(loc[1])) if loc is not None else None
    try:
        center = Center(
            servers=int(raw_center.get("servers", 1)),
            load_rate_per_hour=float(raw_center["load_rate_per_hour"]),
            location=location,
        )
        speed = float(data["truck_speed_kmh"])
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc}") from None

    return Scenario(
        warehouses=tuple(warehouses),
        center=center,
        truck_speed_kmh=speed,
        truck_capacity=float(data.get("truck_capacity", 1.0)),
        hours_per_day=float(data.get("hours_per_day", 24.0)),
        max_trucks=int(data.get("max_trucks", 100)),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON file, validating every field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario as JSON; load_scenario(save_scenario(s)) == s."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def bundled_scenario(name: str) -> Scenario:
    """Load one of the packaged instances, e.g. 'towns12-log' or 'towns12-pro'."""
    fname = f"{name}.json"
    ref = importlib.resources.files("hubfleet.data").joinpath(fname)
    if not ref.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return scenario_from_dict(json.loads(ref.read_text(encoding="utf-8")))
