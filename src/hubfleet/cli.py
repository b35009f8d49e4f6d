"""Command line interface.

Exit codes: 0 on success with a feasible answer, 2 when the scenario is
infeasible, 1 on invalid input or failed validation.  Set HUBFLEET_JOBS to
evaluate generated instances in parallel; output is identical either way.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import NoReturn

import click
import numpy as np

from . import calibration as cal
from . import oracle
from .fleet import LocationComparison, compare_locations, min_center_rate, min_trucks
from .scenario import (Center, Scenario, ScenarioError, Warehouse,
                       load_scenario, save_scenario)
from .star import analyze, bottleneck, build_star, throughput_vs_location
from .weber import WeberProblem, solve_weber

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2


def _fail(message: str) -> NoReturn:
    """Exit 1 with a one-line message on stderr."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INVALID)


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except (ScenarioError, OSError) as exc:
        _fail(str(exc))


def _require_positive(value: float | None, option: str) -> None:
    """Exit 1 unless an option that was given is positive (NaN is not)."""
    if value is not None and not value > 0:
        _fail(f"{option} must be positive")


def _with_mu1(scenario: Scenario, mu1: float | None) -> Scenario:
    """The scenario with its hub loading rate overridden by ``--mu1``."""
    if mu1 is None:
        return scenario
    _require_positive(mu1, "--mu1")
    return scenario.with_center_rate(mu1)


def _parse_point(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    try:
        xs, ys = text.split(",")
        point = float(xs), float(ys)
    except ValueError:
        _fail(f"expected --center X,Y, got {text!r}")
    if not all(map(math.isfinite, point)):
        _fail(f"--center must be two finite numbers, got {text!r}")
    return point


def _trucks_cell(feasible: bool, trucks: int | None) -> str:
    return str(trucks) if feasible and trucks is not None else "--"


@click.group()
def main() -> None:
    """Hub placement and truck fleet sizing for star-shaped delivery
    networks with loading and unloading congestion."""


@main.command("solve")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--trucks", type=int, default=None,
              help="Fix the fleet size instead of searching for the minimum.")
@click.option("--center", "center_text", default=None,
              help="Fix the hub location as X,Y instead of solving for it.")
@click.option("--mu1", type=float, default=None,
              help="Override the hub loading rate per hour.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the comparison row as CSV.")
@click.option("--compare/--no-compare", default=False,
              help="Also place the hub without demand weights and compare.")
@click.option("--busy-decimals", type=int, default=6, show_default=True)
def cmd_solve(file: str, trucks: int | None, center_text: str | None,
              mu1: float | None, csv_path: str | None, compare: bool,
              busy_decimals: int) -> None:
    """Full pipeline: place the hub, size the fleet, report steady state."""
    scenario = _with_mu1(_load(file), mu1)

    center = _parse_point(center_text) or scenario.center.location
    if compare and center is not None:
        _fail("--compare solves for hub locations; drop --center")
    if compare and trucks is not None:
        _fail("--compare sizes its own fleets; drop --trucks")
    if trucks is not None and trucks < 1:
        _fail("--trucks must be at least 1")

    if compare:
        comp = compare_locations(scenario)
        row = _comparison_row(0, comp, scenario)
        _echo_comparison_header(busy_decimals=busy_decimals)
        click.echo(_format_comparison_row(row, busy_decimals=busy_decimals))
        if csv_path:
            _write_csv(csv_path, [row], busy_decimals=busy_decimals)
        sys.exit(EXIT_OK if comp.weighted.fleet.feasible else EXIT_INFEASIBLE)

    label = "fixed"
    if center is None:
        sol = solve_weber(WeberProblem.from_scenario(scenario, weighted=True))
        center = sol.location
        label = "weighted hub point"
    star = build_star(scenario, center)
    bn = bottleneck(star)

    if trucks is not None:
        ana = analyze(star, trucks)
        feasible = (scenario.truck_capacity * ana.warehouse_throughput_per_day
                    >= scenario.total_demand_per_day)
    else:
        fleet = min_trucks(scenario, center)
        feasible = fleet.feasible
        ana = analyze(star, fleet.trucks if feasible else scenario.max_trucks)

    click.echo(f"scenario            {file}")
    click.echo(f"stations            {scenario.num_stations} "
               f"(hub + {len(scenario.warehouses)} warehouses)")
    click.echo(f"demand/day          {scenario.total_demand_per_day:.3f}")
    click.echo(f"hub location        ({center[0]:.3f}, {center[1]:.3f}) [{label}]")
    click.echo(f"saturation ceiling  {bn.ceiling_per_day:.3f}/day "
               f"(binding node {bn.binding_node})")
    if trucks is None:
        click.echo(f"fleet size          {_trucks_cell(fleet.feasible, fleet.trucks)}")
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
               _trucks_cell(feasible, ana.trucks if feasible else None),
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
                   f"iterations {sol.iterations}{anchor}")
    sys.exit(EXIT_OK)


@main.command("fleet")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--center", "center_text", default=None,
              help="Hub location X,Y; defaults to the weighted hub point.")
@click.option("--mu1", type=float, default=None,
              help="Override the hub loading rate per hour.")
@click.option("--find-mu1", "find_mu1", is_flag=True, default=False,
              help="If infeasible, search for the smallest workable hub rate.")
@click.option("--mu1-step", type=float, default=0.01, show_default=True)
def cmd_fleet(file: str, center_text: str | None, mu1: float | None,
              find_mu1: bool, mu1_step: float) -> None:
    """Minimal fleet size at a hub location."""
    _require_positive(mu1_step, "--mu1-step")
    scenario = _with_mu1(_load(file), mu1)
    center = _parse_point(center_text) or scenario.center.location
    if center is None:
        center = solve_weber(WeberProblem.from_scenario(scenario, True)).location

    res = min_trucks(scenario, center)
    click.echo(f"hub location        ({center[0]:.3f}, {center[1]:.3f})")
    click.echo(f"demand/day          {res.demand_per_day:.3f}")
    click.echo(f"saturation ceiling  {res.ceiling_per_day:.3f}/day "
               f"(binding node {res.binding_node})")
    if res.feasible:
        click.echo(f"fleet size          {res.trucks}")
        click.echo(f"throughput/day      {res.throughput_per_day:.3f}")
        sys.exit(EXIT_OK)
    click.echo(f"fleet size          -- (infeasible: {res.infeasibility_reason})")
    if not math.isnan(res.throughput_per_day):
        click.echo(f"throughput/day      {res.throughput_per_day:.3f} "
                   f"(at {scenario.max_trucks} trucks)")
    if find_mu1:
        rate, rate_res = min_center_rate(scenario, center, rate_step=mu1_step)
        if rate is None:
            click.echo("minimal hub rate    none (warehouses or fleet cap bind)")
        else:
            click.echo(f"minimal hub rate    {rate:.2f}/hour "
                       f"(fleet size {rate_res.trucks})")
    sys.exit(EXIT_INFEASIBLE)


@main.command("grid")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--radius", type=float, required=True, help="Half-width in km.")
@click.option("--step", type=float, required=True, help="Grid spacing in km.")
@click.option("--trucks", type=int, default=None,
              help="Fleet size; defaults to the minimal feasible fleet.")
def cmd_grid(file: str, radius: float, step: float, trucks: int | None) -> None:
    """Throughput on a location grid around the weighted hub point."""
    scenario = _load(file)
    if radius <= 0 or step <= 0:
        _fail("--radius and --step must be positive")
    if trucks is not None and trucks < 1:
        _fail("--trucks must be at least 1")
    sol = solve_weber(WeberProblem.from_scenario(scenario, weighted=True))
    cx, cy = sol.location
    if trucks is None:
        res = min_trucks(scenario, sol.location)
        trucks = res.trucks if res.feasible else scenario.max_trucks
    k = int(math.floor(radius / step + 1e-9))
    offsets = [i * step for i in range(-k, k + 1)]
    points = [(cx + dx, cy + dy) for dy in offsets for dx in offsets]
    rows = throughput_vs_location(scenario, trucks, points)
    best = max(v for _, v in rows)
    click.echo(f"hub point ({cx:.3f}, {cy:.3f}); fleet size {trucks}")
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
                    speed: float = cal.DEFAULT_TRUCK_SPEED_KMH) -> Scenario:
    """One random instance: 12 single-dock warehouses on an integer lattice."""
    xs = rng.integers(_X_RANGE[0], _X_RANGE[1] + 1, _N_WAREHOUSES)
    ys = rng.integers(_Y_RANGE[0], _Y_RANGE[1] + 1, _N_WAREHOUSES)
    demands = rng.choice(np.asarray(block.demand_choices), _N_WAREHOUSES)
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


def _comparison_row(idx: int, comp: LocationComparison,
                    scenario: Scenario) -> ResultRow:
    demands = [w.demand_per_day for w in scenario.warehouses]

    def cells(out):
        return (out.fleet.trucks if out.fleet.feasible else None,
                out.analysis.warehouse_throughput_per_day,
                out.analysis.busy_center)

    tw, thw, bw = cells(comp.weighted)
    tu, thu, bu = cells(comp.unweighted)
    return ResultRow(
        instance=idx, dist_loc=comp.distance_between,
        demand_total=sum(demands), demand_min=min(demands),
        demand_max=max(demands), trucks_weighted=tw, trucks_unweighted=tu,
        throughput_weighted=thw, throughput_unweighted=thu,
        busy_weighted=bw, busy_unweighted=bu)


def _format_comparison_row(row: ResultRow, busy_decimals: int = 4) -> str:
    cells = [
        f"{row.instance:<4d}",
        f"{row.dist_loc:>9.3f}",
        f"{row.demand_total:>8.0f}",
        f"{row.demand_min:>6.0f}",
        f"{row.demand_max:>6.0f}",
        f"{_trucks_cell(row.trucks_weighted is not None, row.trucks_weighted):>4s}",
        f"{_trucks_cell(row.trucks_unweighted is not None, row.trucks_unweighted):>4s}",
        f"{row.throughput_weighted:>10.3f}",
        f"{row.throughput_unweighted:>10.3f}",
        f"{row.busy_weighted:>{busy_decimals + 4}.{busy_decimals}f}",
        f"{row.busy_unweighted:>{busy_decimals + 4}.{busy_decimals}f}",
    ]
    return " ".join(cells)


def _echo_comparison_header(busy_decimals: int = 4) -> None:
    click.echo(" ".join([
        f"{'#':<4s}", f"{'DistLoc':>9s}", f"{'Demand':>8s}", f"{'DMin':>6s}",
        f"{'DMax':>6s}", f"{'TrW':>4s}", f"{'TrU':>4s}", f"{'ThW/day':>10s}",
        f"{'ThU/day':>10s}", f"{'BusyW':>{busy_decimals + 4}s}",
        f"{'BusyU':>{busy_decimals + 4}s}"]))


def _write_csv(path: str, rows: list[ResultRow], busy_decimals: int = 4) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f.name for f in fields(ResultRow)])
        for r in rows:
            w.writerow([
                r.instance,
                f"{r.dist_loc:.3f}",
                f"{r.demand_total:.0f}",
                f"{r.demand_min:.0f}",
                f"{r.demand_max:.0f}",
                _trucks_cell(r.trucks_weighted is not None, r.trucks_weighted),
                _trucks_cell(r.trucks_unweighted is not None, r.trucks_unweighted),
                f"{r.throughput_weighted:.3f}",
                f"{r.throughput_unweighted:.3f}",
                f"{r.busy_weighted:.{busy_decimals}f}",
                f"{r.busy_unweighted:.{busy_decimals}f}",
            ])


def _evaluate_instance(idx: int, scenario: Scenario) -> ResultRow:
    return _comparison_row(idx, compare_locations(scenario), scenario)


@main.command("generate")
@click.option("--block", "block_name", required=True,
              type=click.Choice(sorted(BLOCKS.keys())))
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--mu1", type=float, default=None,
              help="Override the block's hub loading rate.")
@click.option("--speed", type=float, default=cal.DEFAULT_TRUCK_SPEED_KMH,
              show_default=True, help="Truck speed in km/h.")
@click.option("--outdir", type=click.Path(file_okay=False), default=None,
              help="Also write each instance as a scenario JSON file.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--busy-decimals", type=int, default=4, show_default=True)
def cmd_generate(block_name: str, count: int, seed: int, mu1: float | None,
                 speed: float, outdir: str | None, csv_path: str | None,
                 busy_decimals: int) -> None:
    """Generate random instances and solve each one both ways.

    The same seed always produces byte-identical output; HUBFLEET_JOBS > 1
    parallelizes the solves without changing it.
    """
    if count < 1:
        _fail("--count must be at least 1")
    _require_positive(mu1, "--mu1")
    _require_positive(speed, "--speed")
    if math.isinf(speed):
        _fail("--speed must be finite")
    jobs_text = os.environ.get("HUBFLEET_JOBS", "1")
    try:
        jobs = int(jobs_text)
    except ValueError:
        _fail(f"HUBFLEET_JOBS must be an integer, got {jobs_text!r}")
    block = BLOCKS[block_name]
    rng = np.random.default_rng(seed)
    scenarios = [sample_instance(rng, block, mu1=mu1, speed=speed)
                 for _ in range(count)]
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        for i, sc in enumerate(scenarios):
            save_scenario(sc, os.path.join(
                outdir, f"block{block_name}_seed{seed}_{i:03d}.json"))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
            rows = list(pool.map(_evaluate_instance, range(count), scenarios))
    else:
        rows = [_evaluate_instance(i, sc) for i, sc in enumerate(scenarios)]

    click.echo(f"block {block_name}: demands from {block.demand_choices}, "
               f"hub rate {mu1 if mu1 is not None else block.mu1}/hour, "
               f"speed {speed} km/h, seed {seed}")
    _echo_comparison_header(busy_decimals=busy_decimals)
    for row in rows:
        click.echo(_format_comparison_row(row, busy_decimals=busy_decimals))

    feasible = [r for r in rows if r.trucks_weighted is not None]
    click.echo("")
    click.echo(f"instances            {count}")
    if rows:
        click.echo(f"dist between hubs    min {min(r.dist_loc for r in rows):.3f} "
                   f"max {max(r.dist_loc for r in rows):.3f}")
        click.echo(f"total demand         min {min(r.demand_total for r in rows):.0f} "
                   f"max {max(r.demand_total for r in rows):.0f}")
    click.echo(f"feasible (weighted)  {len(feasible)}")
    click.echo(f"infeasible           {count - len(feasible)}")
    if csv_path:
        _write_csv(csv_path, rows, busy_decimals=busy_decimals)
    sys.exit(EXIT_OK)


@main.command("validate")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--instances", type=int, default=4, show_default=True)
@click.option("--corrupt-convolution", is_flag=True, default=False, hidden=True)
def cmd_validate(seed: int, instances: int, corrupt_convolution: bool) -> None:
    """Cross-check the analytic pipeline against the independent oracles."""
    results = oracle.run_validation_suite(
        seed=seed, instances=instances,
        corrupt_convolution=corrupt_convolution)
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
@click.option("--smin", type=float, default=20.0, show_default=True)
@click.option("--smax", type=float, default=90.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_calibrate(smin: float, smax: float, out_path: str | None) -> None:
    """Recover the truck speed consistent with the bundled reference tables."""
    report = cal.calibrate_speed(smin, smax)
    text = report.render()
    click.echo(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    sys.exit(EXIT_OK if report.interval is not None else EXIT_INVALID)


if __name__ == "__main__":
    main()
