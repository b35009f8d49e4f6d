"""Back out the truck speed behind the bundled reference tables.

The 12-town scenarios ship with externally recorded reference solutions
(fleet sizes, daily throughput, hub utilization for demand-weighted and
unweighted hub placements), but the truck speed used to produce them was
never recorded.  Throughput rises strictly with speed, so each reference
column pins the speed to an interval; this module intersects those
intervals and reports whether a single speed reproduces every table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

from .fleet import meets_demand, solve_at
from .scenario import Scenario, bundled_scenario
from .star import AggregatedConvolution, build_star
from .weber import WeberProblem, solve_weber


@dataclass(frozen=True)
class ReferenceRow:
    """One reference table: a demand set, a hub rate, and the recorded
    answers for the weighted / unweighted hub placements.

    ``trucks`` entries of None mean the reference reports the scenario as
    infeasible.  ``strict`` rows carry enough printed digits to constrain
    the speed through the throughput and busy columns; the others only
    constrain it through the integer fleet sizes.
    """

    label: str
    demands: str                      # bundled scenario suffix: "log" | "pro"
    mu1: float
    trucks: tuple[int | None, int | None]
    throughput: tuple[float, float]   # deliveries per day as printed
    busy: tuple[float, float]
    strict: bool = False


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("log demands, hub rate 4", "log", 4.0, (19, 19),
                 (67.871, 67.841), (0.706990, 0.706676), strict=True),
    ReferenceRow("pro demands, hub rate 4", "pro", 4.0, (28, 29),
                 (82.261, 81.342), (0.857, 0.847)),
    ReferenceRow("log demands, hub rate 3", "log", 3.0, (22, 22),
                 (67.054, 67.040), (0.931308, 0.931110)),
    ReferenceRow("pro demands, hub rate 3.38", "pro", 3.38, (43, 45),
                 (81.013, 81.021), (0.998676, 0.998780)),
    ReferenceRow("pro demands, hub rate 3 (saturated)", "pro", 3.0, (None, None),
                 (72.000, 72.000), (1.0, 1.0)),
)

THROUGHPUT_TOL = 5e-4
BUSY_TOL = 1e-5
_BISECT_TOL = 1e-7


@dataclass(frozen=True)
class ColumnFit:
    row_label: str
    branch: str                  # "weighted" | "unweighted"
    quantity: str                # "trucks" | "throughput" | "busy"
    reference: float | int | None
    interval: tuple[float, float] | None   # speeds reproducing the column


@dataclass(frozen=True)
class VerifiedCell:
    row_label: str
    branch: str
    trucks_ref: int | None
    trucks_got: int | None
    throughput_ref: float
    throughput_got: float
    busy_ref: float
    busy_got: float
    ok: bool


@dataclass(frozen=True)
class CalibrationReport:
    fits: tuple[ColumnFit, ...]
    interval: tuple[float, float] | None   # speeds consistent with everything
    speed: float | None                    # recommended speed inside it
    verified: tuple[VerifiedCell, ...]     # reproduction at that speed

    def render(self) -> str:
        lines = ["speed calibration against the bundled reference tables",
                 "=" * 56, ""]
        for fit in self.fits:
            if fit.interval is None:
                span = "no speed in the searched range"
            else:
                span = f"[{fit.interval[0]:.4f}, {fit.interval[1]:.4f}] km/h"
            lines.append(f"  {fit.row_label:40s} {fit.branch:10s} "
                         f"{fit.quantity:10s} ref={fit.reference!s:10s} {span}")
        lines.append("")
        if self.interval is None:
            lines.append("no single speed reproduces every reference column")
        else:
            lines.append(f"consistent speed interval: [{self.interval[0]:.4f}, "
                         f"{self.interval[1]:.4f}] km/h")
            lines.append(f"recommended speed: {self.speed} km/h")
        if self.verified:
            lines.append("")
            lines.append(f"reproduction at {self.speed} km/h "
                         "(trucks | throughput/day | hub busy):")
            for cell in self.verified:
                t_ref = "--" if cell.trucks_ref is None else str(cell.trucks_ref)
                t_got = "--" if cell.trucks_got is None else str(cell.trucks_got)
                mark = "ok" if cell.ok else "MISMATCH"
                lines.append(
                    f"  {cell.row_label:40s} {cell.branch:10s} "
                    f"{t_ref}->{t_got}  "
                    f"{cell.throughput_ref:8.3f}->{cell.throughput_got:8.3f}  "
                    f"{cell.busy_ref:.6f}->{cell.busy_got:.6f}  [{mark}]")
        return "\n".join(lines)


class _Branches:
    """Bundled scenario with its two candidate hub locations (speed has no
    effect on either Weber point)."""

    def __init__(self, demands: str):
        self.scenario = bundled_scenario(f"towns12-{demands}")
        self.hubs = {branch: solve_weber(WeberProblem.from_scenario(
                         self.scenario, weighted=branch == "weighted")).location
                     for branch in ("weighted", "unweighted")}

    def at(self, row: ReferenceRow, branch: str, speed: float
           ) -> tuple[Scenario, AggregatedConvolution]:
        """The scenario at the row's hub rate and ``speed``, with its table at the hub."""
        sc = replace(self.scenario.with_center_rate(row.mu1), truck_speed_kmh=speed)
        return sc, AggregatedConvolution(build_star(sc, self.hubs[branch]))


def _bisect_speed(pred, lo: float, hi: float) -> float:
    """Smallest speed in [lo, hi] where the monotone predicate turns true."""
    for _ in range(200):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _interval(enter, leave, s_lo: float, s_hi: float) -> tuple[float, float] | None:
    """Speeds in [s_lo, s_hi] where ``enter`` holds and ``leave`` does not.

    Both predicates are monotone, turning true as speed rises, and ``leave``
    never holds before ``enter``, so those speeds form an interval found by
    two bisections.
    """
    if not enter(s_hi) or leave(s_lo):
        return None
    lo = s_lo if enter(s_lo) else _bisect_speed(enter, s_lo, s_hi)
    hi = s_hi if not leave(s_hi) else _bisect_speed(leave, lo, s_hi)
    return (lo, hi)


def _trucks_interval(br: _Branches, row: ReferenceRow, branch: str,
                     s_lo: float, s_hi: float) -> tuple[float, float] | None:
    """Speeds at which the reference fleet N meets demand and N - 1 trucks
    do not, so that N is the minimal fleet; fleet size falls with speed."""
    target = row.trucks[0 if branch == "weighted" else 1]

    def meets(trucks: int):
        return lambda s: meets_demand(*br.at(row, branch, s), trucks)

    if target is None:
        # reference says infeasible; that is speed-independent (hub-bound)
        at_cap = meets(br.scenario.max_trucks)
        return None if at_cap(s_lo) or at_cap(s_hi) else (s_lo, s_hi)
    return _interval(meets(target), meets(target - 1), s_lo, s_hi)


def _value_interval(value_at, target: float, tol: float,
                    s_lo: float, s_hi: float) -> tuple[float, float] | None:
    """Speeds keeping a strictly increasing quantity within target +- tol."""
    return _interval(lambda s: value_at(s) >= target - tol,
                     lambda s: value_at(s) > target + tol, s_lo, s_hi)


def _intersect(a: tuple[float, float] | None,
               b: tuple[float, float] | None) -> tuple[float, float] | None:
    if a is None or b is None:
        return None
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def _nice_value(lo: float, hi: float) -> float:
    for decimals in range(0, 8):
        v = round(0.5 * (lo + hi), decimals)
        if lo <= v <= hi:
            return v
    return 0.5 * (lo + hi)


def calibrate_speed(s_lo: float = 20.0, s_hi: float = 90.0) -> CalibrationReport:
    """Find the speed range consistent with every reference column and
    verify the reproduction at a recommended speed inside it."""
    branches = {key: _Branches(key) for key in {r.demands for r in REFERENCE_ROWS}}
    fits: list[ColumnFit] = []
    for row in REFERENCE_ROWS:
        br = branches[row.demands]
        for bi, branch in enumerate(("weighted", "unweighted")):
            fits.append(ColumnFit(row.label, branch, "trucks", row.trucks[bi],
                                  _trucks_interval(br, row, branch, s_lo, s_hi)))
            if row.strict and row.trucks[bi] is not None:
                n = row.trucks[bi]   # both figures rise with speed at this fleet
                for quantity, tol, figure in (
                        ("throughput", THROUGHPUT_TOL,
                         lambda sc, agg: agg.warehouse_throughput(n) * sc.hours_per_day),
                        ("busy", BUSY_TOL, lambda sc, agg: agg.hub_busy(n))):
                    ref = getattr(row, quantity)[bi]
                    span = _value_interval(lambda s: figure(*br.at(row, branch, s)),
                                           ref, tol, s_lo, s_hi)
                    fits.append(ColumnFit(row.label, branch, quantity, ref, span))

    overall = reduce(_intersect, (fit.interval for fit in fits), (s_lo, s_hi))
    speed = None if overall is None else _nice_value(*overall)
    verified: list[VerifiedCell] = []
    if speed is not None:
        for row in REFERENCE_ROWS:
            br = branches[row.demands]
            for bi, branch in enumerate(("weighted", "unweighted")):
                out = solve_at(br.at(row, branch, speed)[0], br.hubs[branch])
                got_trucks, ana = out.fleet.trucks, out.analysis
                ok = got_trucks == row.trucks[bi]
                if row.strict:
                    ok = ok and abs(ana.warehouse_throughput_per_day
                                    - row.throughput[bi]) <= THROUGHPUT_TOL
                    ok = ok and abs(ana.busy_center - row.busy[bi]) <= BUSY_TOL
                verified.append(VerifiedCell(
                    row.label, branch, row.trucks[bi], got_trucks,
                    row.throughput[bi], ana.warehouse_throughput_per_day,
                    row.busy[bi], ana.busy_center, ok))

    return CalibrationReport(fits=tuple(fits), interval=overall, speed=speed,
                             verified=tuple(verified))
