"""Joint hub location and truck fleet sizing for star-shaped delivery
networks with loading and unloading congestion.

The pipeline: place the hub at the demand-weighted Weber point, model the
truck fleet as a closed queueing network (hub and warehouse docks as
multi-server stations, travel lanes as infinite servers), evaluate
throughput by convolution of normalization constants, and grow the fleet
until daily demand is covered.

The oracles (``simulate``, ``run_validation_suite``, ...) need numpy, so
``hubfleet.oracle`` is imported on first access to one of their names, and
``hubfleet.calibration`` on first access to ``calibrate_speed``, which only
the ``calibrate`` verb uses.
"""

from .convolution import (ConvolutionTable, NumericalRangeError, Station,
                          convolve_stations, infinite_server,
                          marginal_distribution, multi_server)
from .fleet import (FleetResult, LocationComparison, PlacementOutcome,
                    compare_locations, min_center_rate, min_trucks, solve_at)
from .scenario import (DEFAULT_TRUCK_SPEED_KMH, Center, Point, Scenario,
                       ScenarioError, Warehouse, bundled_scenario,
                       demand_fractions, load_scenario, save_scenario)
from .star import (AggregatedConvolution, BottleneckReport, StarAnalysis,
                   StarNetwork, aggregated_norm_constants, analyze,
                   bottleneck, build_star, throughput_vs_location)
from .weber import WeberProblem, WeberSolution, solve_weber, weber_objective

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset((
    "CheckResult", "CtmcResult", "DesEstimate", "EnumerationResult",
    "ctmc_throughput", "enumerate_product_form", "random_scenario",
    "run_validation_suite", "simulate"))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    if name == "calibrate_speed":
        from .calibration import calibrate_speed
        return calibrate_speed
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
