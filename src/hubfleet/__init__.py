"""Joint hub location and truck fleet sizing for star-shaped delivery
networks with loading and unloading congestion.

The pipeline: place the hub at the demand-weighted Weber point, model the
truck fleet as a closed queueing network (hub and warehouse docks as
multi-server stations, travel lanes as infinite servers), evaluate
throughput by convolution of normalization constants, and grow the fleet
until daily demand is covered.
"""

from .calibration import DEFAULT_TRUCK_SPEED_KMH, calibrate_speed
from .convolution import (ClosedNetwork, ConvolutionTable, NumericalRangeError,
                          ReducibleRoutingError, Station, VisitRatios,
                          buzen_convolve, convolve_stations, infinite_server,
                          marginal_distribution, mean_queue_lengths,
                          multi_server, node_throughputs, solve_traffic,
                          throughput)
from .fleet import (FleetResult, LocationComparison, PlacementOutcome,
                    compare_locations, min_center_rate, min_trucks, solve_at)
from .oracle import (CheckResult, CtmcResult, DesEstimate, EnumerationResult,
                     ctmc_throughput, enumerate_product_form, random_scenario,
                     run_validation_suite, simulate)
from .scenario import (Center, Point, Scenario, ScenarioError, Warehouse,
                       bundled_scenario, demand_fractions, load_scenario,
                       save_scenario)
from .star import (AggregatedConvolution, BottleneckReport, StarAnalysis,
                   StarNetwork, aggregated_norm_constants, analyze,
                   bottleneck, build_star, explicit_network,
                   throughput_vs_location)
from .weber import WeberProblem, WeberSolution, solve_weber, weber_objective

__version__ = "0.1.0"
