"""Command line interface.

Exit codes: 0 on success with a feasible answer, 2 when the scenario is
infeasible, and 1 on invalid input or failed validation.  Invalid input is
anything click rejects (a bad option value, an unknown verb or option, a
missing argument), a file that cannot be read or does not hold a valid
scenario, and an output path that cannot be written; each ends with one
``error:`` line on stderr.

numpy and the oracles are imported by the verbs that use them
(``generate`` and ``validate``), and the calibration by ``calibrate``, so
the other verbs start without them.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING, NoReturn

import click

from .convolution import NumericalRangeError
from .fleet import _center_rate_from, compare_locations, meets_demand, min_trucks, solve_at
from .scenario import (DEFAULT_TRUCK_SPEED_KMH, Center, Scenario, ScenarioError,
                       Warehouse, load_scenario, save_scenario)
from .star import (AggregatedConvolution, analyze, bottleneck, build_star,
                   throughput_vs_location)
from .weber import WeberProblem, WeberSolution, solve_weber

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2

# grid steps on each side of the hub point: at most a 401 x 401 grid
_GRID_HALF_STEPS = 200
# the largest fleet a verb takes, from --trucks or a scenario's max_trucks:
# the normalization table grows by about 1.6 KB and 11 us per truck, so on
# towns12-log solve --trucks 100000 peaks near 175 MB and takes about 1 s,
# where a fleet of millions would run out of memory
_MAX_TRUCKS = 100_000
# the most instances generate takes: it holds every instance, about 2.7 KB
# each, before it solves any, so a count of tens of millions would run out
# of memory before the first row; block I at the limit peaks near 71 MB and
# takes about 10 s
_MAX_COUNT = 10_000
# the most places --busy-decimals prints: a double carries at most 17
# significant digits, which 17 places show for a busy share from 0.1 up;
# a count in the millions would print lines of megabytes
_MAX_DECIMALS = 17


def _fail(message: str) -> NoReturn:
    """Exit 1 with a one-line message on stderr."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INVALID)


class _Positive(click.ParamType):
    """A positive float: never NaN, and infinite only where ``finite`` is false."""

    name = "float"

    def __init__(self, finite: bool) -> None:
        self.finite = finite

    def convert(self, value, param, ctx) -> float:
        number = click.FLOAT.convert(value, param, ctx)
        if not number > 0 or (self.finite and math.isinf(number)):
            kind = "positive finite" if self.finite else "positive"
            self.fail(f"{value} is not a {kind} number.", param, ctx)
        return number


class _Point(click.ParamType):
    """``X,Y``: two finite numbers."""

    name = "x,y"

    def convert(self, value, param, ctx) -> tuple[float, float]:
        try:
            x, y = map(float, value.split(","))
            if math.isfinite(x) and math.isfinite(y):
                return x, y
        except ValueError:
            pass
        self.fail(f"expected two finite numbers X,Y, got {value!r}.", param, ctx)


_POSITIVE = _Positive(finite=True)
_RATE = _Positive(finite=False)   # an infinite hub rate loads at once
_POINT = _Point()
_TRUCKS = click.IntRange(1, _MAX_TRUCKS)
_DECIMALS = click.IntRange(0, _MAX_DECIMALS)


def _load(path: str, mu1: float | None = None) -> Scenario:
    """The scenario in ``path``, its hub loading rate overridden by ``mu1``."""
    scenario = load_scenario(path)
    if scenario.max_trucks > _MAX_TRUCKS:
        _fail(f"max_trucks must be at most {_MAX_TRUCKS}")
    return scenario if mu1 is None else scenario.with_center_rate(mu1)


def _hub(scenario: Scenario, center: tuple[float, float] | None
         ) -> tuple[tuple[float, float], WeberSolution | None]:
    """The hub: ``center``, else the scenario's location, else the weighted
    hub point with its Weber solution (None where no solve ran)."""
    center = center or scenario.center.location
    if center is not None:
        return center, None
    sol = solve_weber(WeberProblem.from_scenario(scenario, weighted=True))
    return sol.location, sol


def _unconverged(sol: WeberSolution | None) -> str:
    """The mark after a hub point whose Weber solve stopped unconverged."""
    return "" if sol is None or sol.converged else "  [not converged]"


def _decimals(value: float) -> int:
    """Decimal places in ``repr(value)``, the shortest text that reads
    back as ``value``."""
    return -Decimal(repr(value)).as_tuple().exponent


def _trucks_cell(trucks: int | None) -> str:
    """A fleet size, or ``--`` where no fleet meets demand."""
    return "--" if trucks is None else str(trucks)


class _Main(click.Group):
    """Every kind of bad input exits 1 with one ``error:`` line: what click
    rejects while it parses the group or a verb, a bad value that only a
    verb's own work uncovers (a ``ValueError``, or a rate so small that a
    table leaves the numeric range), and a file that cannot be read or
    written.  ``--help`` still exits 0, and Ctrl-C still prints ``Aborted!``."""

    def make_context(self, *args, **kwargs) -> click.Context:
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _fail(exc.format_message())

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())
        except BrokenPipeError:
            raise   # click exits 1 quietly when the reader of stdout has gone
        except (ValueError, NumericalRangeError, OSError) as exc:   # ScenarioError is a ValueError
            _fail(str(exc))


# without a verb, click's "Missing command." rather than the whole help text
@click.group(cls=_Main, no_args_is_help=False)
def main() -> None:
    """Hub placement and truck fleet sizing for star-shaped delivery
    networks with loading and unloading congestion."""


@main.command("solve")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--trucks", type=_TRUCKS, default=None,
              help="Fix the fleet size instead of searching for the minimum.")
@click.option("--center", type=_POINT, default=None,
              help="Fix the hub location as X,Y instead of solving for it.")
@click.option("--mu1", type=_RATE, default=None,
              help="Override the hub loading rate per hour.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the comparison row as CSV.")
@click.option("--compare/--no-compare", default=False,
              help="Also place the hub without demand weights and compare.")
@click.option("--busy-decimals", type=_DECIMALS, default=6, show_default=True)
def cmd_solve(file: str, trucks: int | None, center: tuple[float, float] | None,
              mu1: float | None, csv_path: str | None, compare: bool,
              busy_decimals: int) -> None:
    """Full pipeline: place the hub, size the fleet, report steady state."""
    scenario = _load(file, mu1)
    if compare and center is not None:
        _fail("--compare solves for hub locations; drop --center")
    if compare and trucks is not None:
        _fail("--compare sizes its own fleets; drop --trucks")

    if compare:
        row = _evaluate_instance(0, scenario)
        _echo_rows([row], busy_decimals)
        if csv_path:
            _write_csv(csv_path, [row], busy_decimals)
        sys.exit(EXIT_OK if row.trucks_weighted is not None else EXIT_INFEASIBLE)

    center, sol = _hub(scenario, center)
    label = "fixed" if sol is None else "weighted hub point"
    bn = bottleneck(scenario)

    if trucks is not None:
        star = build_star(scenario, center)
        ana = analyze(star, trucks)
        feasible = meets_demand(scenario, AggregatedConvolution(star), trucks)
    else:
        out = solve_at(scenario, center)
        feasible, ana = out.fleet.feasible, out.analysis

    click.echo(f"scenario            {file}")
    click.echo(f"stations            {scenario.num_stations} "
               f"(hub + {len(scenario.warehouses)} warehouses)")
    click.echo(f"demand/day          {scenario.total_demand_per_day:.3f}")
    click.echo(f"hub location        ({center[0]:.3f}, {center[1]:.3f}) [{label}]"
               f"{_unconverged(sol)}")
    click.echo(f"saturation ceiling  {bn.ceiling_per_day:.3f}/day "
               f"(binding node {bn.binding_node})")
    if trucks is None:
        click.echo(f"fleet size          {_trucks_cell(out.fleet.trucks)}")
    else:
        click.echo(f"fleet size          {trucks} (fixed)")
    click.echo(f"throughput/day      {ana.warehouse_throughput_per_day:.3f}")
    click.echo(f"hub busy            {ana.busy_center:.{busy_decimals}f}")
    click.echo(f"round trip hours    {ana.passage_time_hours:.3f}")
    click.echo(f"feasible            {'yes' if feasible else 'no'}")
    if csv_path:
        head = ["x", "y", "trucks", "throughput_per_day", "busy",
                "round_trip_hours", "feasible"]
        row = [f"{center[0]:.3f}", f"{center[1]:.3f}",
               str(ana.trucks),   # the fleet the figures describe
               f"{ana.warehouse_throughput_per_day:.3f}",
               f"{ana.busy_center:.{busy_decimals}f}",
               f"{ana.passage_time_hours:.3f}",
               "yes" if feasible else "no"]
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(head)
            w.writerow(row)
    sys.exit(EXIT_OK if feasible else EXIT_INFEASIBLE)


@main.command("weber")
@click.argument("file", type=click.Path(dir_okay=False))
def cmd_weber(file: str) -> None:
    """Optimal hub locations, demand-weighted and unweighted."""
    scenario = _load(file)
    for weighted, tag in ((True, "weighted"), (False, "unweighted")):
        sol = solve_weber(WeberProblem.from_scenario(scenario, weighted=weighted))
        anchor = "" if sol.at_anchor is None else \
            f"  [at warehouse {scenario.warehouses[sol.at_anchor].id}]"
        click.echo(f"{tag:10s} ({sol.location[0]:.3f}, {sol.location[1]:.3f})  "
                   f"objective {sol.objective:.3f}  "
                   f"iterations {sol.iterations}{anchor}{_unconverged(sol)}")
    sys.exit(EXIT_OK)


@main.command("fleet")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--center", type=_POINT, default=None,
              help="Hub location X,Y; defaults to the weighted hub point.")
@click.option("--mu1", type=_RATE, default=None,
              help="Override the hub loading rate per hour.")
@click.option("--find-mu1", "find_mu1", is_flag=True, default=False,
              help="If infeasible, search for the smallest workable hub rate.")
@click.option("--mu1-step", type=_POSITIVE, default=0.01, show_default=True)
def cmd_fleet(file: str, center: tuple[float, float] | None, mu1: float | None,
              find_mu1: bool, mu1_step: float) -> None:
    """Minimal fleet size at a hub location."""
    scenario = _load(file, mu1)
    center, sol = _hub(scenario, center)
    res = min_trucks(scenario, center)
    bn = bottleneck(scenario)
    click.echo(f"hub location        ({center[0]:.3f}, {center[1]:.3f}){_unconverged(sol)}")
    click.echo(f"demand/day          {scenario.total_demand_per_day:.3f}")
    click.echo(f"saturation ceiling  {bn.ceiling_per_day:.3f}/day "
               f"(binding node {bn.binding_node})")
    if res.feasible:
        click.echo(f"fleet size          {res.trucks}")
        click.echo(f"throughput/day      {res.throughput_per_day:.3f}")
        sys.exit(EXIT_OK)
    click.echo(f"fleet size          -- (infeasible: {res.infeasibility_reason})")
    if not math.isnan(res.throughput_per_day):
        click.echo(f"throughput/day      {res.throughput_per_day:.3f} "
                   f"(at {scenario.max_trucks} trucks)")
    if find_mu1:
        rate, rate_res = _center_rate_from(scenario, center, mu1_step, res)
        if rate is None:
            click.echo("minimal hub rate    none (warehouses or fleet cap bind)")
        else:
            # as many decimals as the step has, so the printed rate is the
            # grid point the fleet size belongs to, but no more than repr(rate)
            # has: further digits read back as the same rate, and a tiny step
            # would print hundreds of them
            decimals = max(2, min(_decimals(mu1_step), _decimals(rate)))
            click.echo(f"minimal hub rate    {rate:.{decimals}f}/hour "
                       f"(fleet size {rate_res.trucks})")
    sys.exit(EXIT_INFEASIBLE)


@main.command("grid")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--radius", type=_POSITIVE, required=True, help="Half-width in km.")
@click.option("--step", type=_POSITIVE, required=True, help="Grid spacing in km.")
@click.option("--trucks", type=_TRUCKS, default=None,
              help="Fleet size; defaults to the minimal feasible fleet.")
def cmd_grid(file: str, radius: float, step: float, trucks: int | None) -> None:
    """Throughput on a location grid around the weighted hub point."""
    scenario = _load(file)
    if radius / step + 1e-9 >= _GRID_HALF_STEPS + 1:
        _fail(f"--radius / --step gives more than {_GRID_HALF_STEPS} steps on each side")
    sol = solve_weber(WeberProblem.from_scenario(scenario, weighted=True))
    cx, cy = sol.location
    if trucks is None:
        trucks = solve_at(scenario, sol.location).analysis.trucks
    k = int(math.floor(radius / step + 1e-9))
    offsets = [i * step for i in range(-k, k + 1)]
    points = [(cx + dx, cy + dy) for dy in offsets for dx in offsets]
    rows = throughput_vs_location(scenario, trucks, points)
    best = max(v for _, v in rows)
    click.echo(f"hub point ({cx:.3f}, {cy:.3f}); fleet size {trucks}{_unconverged(sol)}")
    click.echo("x          y          throughput/day")
    for (x, y), v in rows:
        mark = "  *" if v == best else ""
        click.echo(f"{x:<10.3f} {y:<10.3f} "
                   f"{v * scenario.hours_per_day:.3f}{mark}")
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class ExperimentBlock:
    """A random-instance family: demand values are drawn uniformly from
    ``demand_choices`` and the hub loads at ``mu1`` per hour."""

    name: str
    demand_choices: tuple[int, ...]
    mu1: float

    def __post_init__(self) -> None:
        if not self.demand_choices or any(d <= 0 for d in self.demand_choices):
            raise ScenarioError("demands must be positive")


BLOCKS: dict[str, ExperimentBlock] = {
    "I": ExperimentBlock("I", tuple(range(1, 9)), 4.0),
    "II": ExperimentBlock("II", tuple(range(1, 17)), 5.0),
    "III": ExperimentBlock("III", tuple(range(1, 22)), 7.0),
    "IV": ExperimentBlock("IV", (1, 11, 21), 7.0),
}

_N_WAREHOUSES = 12
_X_RANGE = (10, 410)
_Y_RANGE = (10, 270)
_UNLOAD_RATE = 2.0


def sample_instance(rng: np.random.Generator, block: ExperimentBlock,
                    mu1: float | None = None,
                    speed: float = DEFAULT_TRUCK_SPEED_KMH) -> Scenario:
    """One random instance: 12 single-dock warehouses on an integer lattice."""
    xs = rng.integers(_X_RANGE[0], _X_RANGE[1] + 1, _N_WAREHOUSES)
    ys = rng.integers(_Y_RANGE[0], _Y_RANGE[1] + 1, _N_WAREHOUSES)
    demands = rng.choice(block.demand_choices, _N_WAREHOUSES)
    warehouses = tuple(
        Warehouse(id=2 + i, position=(float(xs[i]), float(ys[i])),
                  demand_per_day=float(demands[i]), servers=1,
                  unload_rate_per_hour=_UNLOAD_RATE)
        for i in range(_N_WAREHOUSES)
    )
    center = Center(servers=1,
                    load_rate_per_hour=mu1 if mu1 is not None else block.mu1)
    return Scenario(warehouses=warehouses, center=center, truck_speed_kmh=speed)


@dataclass(frozen=True)
class ResultRow:
    """One comparison row: demand-weighted hub versus unweighted hub."""

    instance: int
    dist_loc: float
    demand_total: float
    demand_min: float
    demand_max: float
    trucks_weighted: int | None
    trucks_unweighted: int | None
    throughput_weighted: float
    throughput_unweighted: float
    busy_weighted: float
    busy_unweighted: float


def _columns(busy_decimals: int) -> tuple[tuple[str, str, str, int | None], ...]:
    """ResultRow's fields in order, each with its header, fixed-width
    alignment and width, and decimals (None for an integer column)."""
    busy = (f">{busy_decimals + 4}", busy_decimals)
    return (("instance", "#", "<4", None),
            ("dist_loc", "DistLoc", ">9", 3),
            ("demand_total", "Demand", ">8", 0),
            ("demand_min", "DMin", ">6", 0),
            ("demand_max", "DMax", ">6", 0),
            ("trucks_weighted", "TrW", ">4", None),
            ("trucks_unweighted", "TrU", ">4", None),
            ("throughput_weighted", "ThW/day", ">10", 3),
            ("throughput_unweighted", "ThU/day", ">10", 3),
            ("busy_weighted", "BusyW", *busy),
            ("busy_unweighted", "BusyU", *busy))


def _cells(row: ResultRow, columns) -> list[str]:
    """The row's text, one cell per column; an integer column shows ``--``
    where no fleet meets demand."""
    return [_trucks_cell(getattr(row, name)) if decimals is None
            else f"{getattr(row, name):.{decimals}f}"
            for name, _, _, decimals in columns]


def _echo_rows(rows: list[ResultRow], busy_decimals: int) -> None:
    """The comparison rows as fixed-width text under a header line."""
    columns = _columns(busy_decimals)
    specs = [spec for _, _, spec, _ in columns]
    click.echo(" ".join(f"{head:{spec}}" for _, head, spec, _ in columns))
    for row in rows:
        click.echo(" ".join(f"{cell:{spec}}"
                            for cell, spec in zip(_cells(row, columns), specs)))


def _write_csv(path: str, rows: list[ResultRow], busy_decimals: int) -> None:
    columns = _columns(busy_decimals)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([name for name, _, _, _ in columns])
        w.writerows(_cells(row, columns) for row in rows)


def _evaluate_instance(idx: int, scenario: Scenario) -> ResultRow:
    """Place the hub both ways and size each fleet: one comparison row."""
    comp = compare_locations(scenario)
    w, u = comp.weighted, comp.unweighted
    demands = [wh.demand_per_day for wh in scenario.warehouses]
    return ResultRow(
        instance=idx, dist_loc=comp.distance_between,
        demand_total=scenario.total_demand_per_day, demand_min=min(demands),
        demand_max=max(demands), trucks_weighted=w.fleet.trucks,
        trucks_unweighted=u.fleet.trucks,
        throughput_weighted=w.analysis.warehouse_throughput_per_day,
        throughput_unweighted=u.analysis.warehouse_throughput_per_day,
        busy_weighted=w.analysis.busy_center, busy_unweighted=u.analysis.busy_center)


@main.command("generate")
@click.option("--block", "block_name", required=True,
              type=click.Choice(sorted(BLOCKS.keys())))
@click.option("--count", type=click.IntRange(1, _MAX_COUNT), default=10,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--mu1", type=_RATE, default=None,
              help="Override the block's hub loading rate.")
@click.option("--speed", type=_POSITIVE, default=DEFAULT_TRUCK_SPEED_KMH,
              show_default=True, help="Truck speed in km/h.")
@click.option("--outdir", type=click.Path(file_okay=False), default=None,
              help="Also write each instance as a scenario JSON file.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--busy-decimals", type=_DECIMALS, default=4, show_default=True)
def cmd_generate(block_name: str, count: int, seed: int, mu1: float | None,
                 speed: float, outdir: str | None, csv_path: str | None,
                 busy_decimals: int) -> None:
    """Generate random instances and solve each one both ways.

    The same seed always produces byte-identical output.
    """
    block = BLOCKS[block_name]
    import numpy as np
    rng = np.random.default_rng(seed)
    scenarios = [sample_instance(rng, block, mu1=mu1, speed=speed)
                 for _ in range(count)]
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        for i, sc in enumerate(scenarios):
            save_scenario(sc, os.path.join(
                outdir, f"block{block_name}_seed{seed}_{i:03d}.json"))

    rows = [_evaluate_instance(i, sc) for i, sc in enumerate(scenarios)]

    click.echo(f"block {block_name}: demands from {block.demand_choices}, "
               f"hub rate {mu1 if mu1 is not None else block.mu1}/hour, "
               f"speed {speed} km/h, seed {seed}")
    _echo_rows(rows, busy_decimals)

    feasible = [r for r in rows if r.trucks_weighted is not None]
    click.echo("")
    click.echo(f"instances            {count}")
    click.echo(f"dist between hubs    min {min(r.dist_loc for r in rows):.3f} "
               f"max {max(r.dist_loc for r in rows):.3f}")
    click.echo(f"total demand         min {min(r.demand_total for r in rows):.0f} "
               f"max {max(r.demand_total for r in rows):.0f}")
    click.echo(f"feasible (weighted)  {len(feasible)}")
    click.echo(f"infeasible           {count - len(feasible)}")
    if csv_path:
        _write_csv(csv_path, rows, busy_decimals)
    sys.exit(EXIT_OK)


@main.command("validate")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--instances", type=click.IntRange(min=1), default=4, show_default=True)
def cmd_validate(seed: int, instances: int) -> None:
    """Cross-check the analytic pipeline against the independent oracles."""
    from . import oracle
    results = oracle.run_validation_suite(seed=seed, instances=instances)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    if failed:
        click.echo(f"{failed} check(s) failed", err=True)
        sys.exit(EXIT_INVALID)
    click.echo(f"all {len(results)} checks passed")
    sys.exit(EXIT_OK)


@main.command("calibrate")
@click.option("--smin", type=_POSITIVE, default=20.0, show_default=True)
@click.option("--smax", type=_POSITIVE, default=90.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_calibrate(smin: float, smax: float, out_path: str | None) -> None:
    """Recover the truck speed consistent with the bundled reference tables."""
    if not smin < smax:
        _fail("--smin must be below --smax")
    from .calibration import calibrate_speed
    report = calibrate_speed(smin, smax)
    text = report.render()
    click.echo(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    sys.exit(EXIT_OK if report.interval is not None else EXIT_INVALID)


if __name__ == "__main__":
    main()
