"""Problem instances: warehouses, a central loading hub, and fleet parameters.

Canonical units are hours for time, kilometres for distance and truckloads
for quantities.  Demands are stored per day exactly as they appear in
scenario files; analysis code converts with ``hours_per_day`` where needed.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

Point = tuple[float, float]

# The truck speed that ``calibrate`` recovers from the reference tables;
# the bundled scenarios and the instance generator use it.
DEFAULT_TRUCK_SPEED_KMH = 50.0

# a service rate must exceed this for its reciprocal, the mean service
# time, to be finite; every comparison with NaN is false, so NaN fails too
_MIN_RATE = 1.0 / sys.float_info.max


class ScenarioError(ValueError):
    """A scenario file or instance violates a structural invariant."""


def _finite_point(p: Point) -> bool:
    return len(p) == 2 and all(math.isfinite(c) for c in p)


@dataclass(frozen=True, slots=True)
class Warehouse:
    """One delivery destination with its own unloading docks."""

    id: int
    position: Point
    demand_per_day: float
    servers: int = 1
    unload_rate_per_hour: float = 1.0

    def __post_init__(self) -> None:
        # each message is formatted only when its check fails
        if not (isinstance(self.id, int) and self.id >= 2):
            raise ScenarioError(f"warehouse id must be an integer >= 2, got {self.id!r}")
        if not _finite_point(self.position):
            raise ScenarioError(f"warehouse {self.id}: position must be two finite numbers")
        # every comparison with NaN is false, so NaN fails too
        if not 0 < self.demand_per_day < math.inf:
            raise ScenarioError(f"warehouse {self.id}: demand must be positive and finite")
        if not (isinstance(self.servers, int) and self.servers >= 1):
            raise ScenarioError(f"warehouse {self.id}: servers must be a positive integer")
        if not self.unload_rate_per_hour > _MIN_RATE:
            raise ScenarioError(f"warehouse {self.id}: unload_rate_per_hour must be "
                                "positive with a finite reciprocal")


@dataclass(frozen=True, slots=True)
class Center:
    """The loading hub.  ``location`` is fixed only when given; otherwise the
    solver places the hub (Weber point).  An infinite loading rate is
    allowed: the hub then never holds a truck."""

    servers: int = 1
    load_rate_per_hour: float = 1.0
    location: Point | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.servers, int) and self.servers >= 1):
            raise ScenarioError("center: servers must be a positive integer")
        if not self.load_rate_per_hour > _MIN_RATE:
            raise ScenarioError("center: load_rate_per_hour must be positive with a "
                                "finite reciprocal")
        if not (self.location is None or _finite_point(self.location)):
            raise ScenarioError("center: location must be two finite numbers")


@dataclass(frozen=True, slots=True)
class Scenario:
    """A full problem instance; distances are Euclidean, in km."""

    warehouses: tuple[Warehouse, ...]
    center: Center
    truck_speed_kmh: float
    truck_capacity: float = 1.0
    hours_per_day: float = 24.0
    max_trucks: int = 100
    # summed once here, in warehouse order; ``replace`` sums it anew
    total_demand_per_day: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not len(self.warehouses) >= 1:
            raise ScenarioError("scenario needs at least one warehouse")
        ids = [w.id for w in self.warehouses]
        if not len(set(ids)) == len(ids):
            raise ScenarioError("warehouse ids must be distinct")
        if not 0 < self.truck_speed_kmh < math.inf:
            raise ScenarioError("truck_speed_kmh must be positive and finite")
        if not 0 < self.truck_capacity < math.inf:
            raise ScenarioError("truck_capacity must be positive and finite")
        if not 0 < self.hours_per_day < math.inf:
            raise ScenarioError("hours_per_day must be positive and finite")
        if not (isinstance(self.max_trucks, int) and self.max_trucks >= 1):
            raise ScenarioError("max_trucks must be a positive integer")
        object.__setattr__(self, "total_demand_per_day",
                           sum(w.demand_per_day for w in self.warehouses))

    @property
    def num_stations(self) -> int:
        """J: the hub plus all warehouses."""
        return 1 + len(self.warehouses)

    @property
    def warehouse_positions(self) -> tuple[Point, ...]:
        return tuple(w.position for w in self.warehouses)

    def with_center_rate(self, rate: float) -> "Scenario":
        return replace(self, center=replace(self.center, load_rate_per_hour=rate))


def demand_fractions(scenario: Scenario) -> list[float]:
    """Demand shares rho_j in warehouse order; they sum to 1."""
    total = scenario.total_demand_per_day
    return [w.demand_per_day / total for w in scenario.warehouses]


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


def _number(value: object, what: str, integral: bool = False) -> float:
    """A JSON number as a float, or as an int when ``integral`` (2 and 2.0
    pass, 2.7 does not); anything else raises ``ScenarioError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    if integral:
        if isinstance(value, float) and not value.is_integer():
            raise ScenarioError(f"{what} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{what} is out of range") from None


def _field(raw: dict, key: str, where: str, integral: bool = False,
           default: float | None = None) -> float:
    """``raw[key]`` through ``_number``; a missing key takes ``default``,
    or is an error when there is none."""
    if key not in raw:
        if default is None:
            raise ScenarioError(f"{where}missing field {key!r}")
        return default
    return _number(raw[key], f"{where}{key}", integral)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from parsed JSON; malformed input of any shape raises
    ``ScenarioError``."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        raw_whs = data["warehouses"]
        raw_center = data["center"]
    except KeyError as exc:
        raise ScenarioError(f"scenario is missing required section: {exc}") from None
    if not isinstance(raw_whs, list) or not raw_whs:
        raise ScenarioError("warehouses must be a non-empty list")
    if not isinstance(raw_center, dict):
        raise ScenarioError("center must be an object")

    warehouses = []
    for i, rw in enumerate(raw_whs):
        where = f"warehouse #{i}: "
        if not isinstance(rw, dict):
            raise ScenarioError(f"{where}must be an object, got {rw!r}")
        warehouses.append(Warehouse(
            id=_field(rw, "id", where, integral=True),
            position=(_field(rw, "x", where), _field(rw, "y", where)),
            demand_per_day=_field(rw, "demand_per_day", where),
            servers=_field(rw, "servers", where, integral=True, default=1),
            unload_rate_per_hour=_field(rw, "unload_rate_per_hour", where),
        ))

    loc = raw_center.get("location")
    if loc is not None:
        if not (isinstance(loc, list) and len(loc) == 2):
            raise ScenarioError(f"center: location must be [x, y], got {loc!r}")
        loc = (_number(loc[0], "center: location x"),
               _number(loc[1], "center: location y"))
    center = Center(
        servers=_field(raw_center, "servers", "center: ", integral=True, default=1),
        load_rate_per_hour=_field(raw_center, "load_rate_per_hour", "center: "),
        location=loc,
    )
    return Scenario(
        warehouses=tuple(warehouses),
        center=center,
        truck_speed_kmh=_field(data, "truck_speed_kmh", ""),
        truck_capacity=_field(data, "truck_capacity", "", default=1.0),
        hours_per_day=_field(data, "hours_per_day", "", default=24.0),
        max_trucks=_field(data, "max_trucks", "", integral=True, default=100),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON file, validating every field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
