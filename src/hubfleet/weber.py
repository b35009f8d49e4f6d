"""Weighted planar single-facility location (Weber problem).

Every anchor (demand point) is first tested once by Kuhn's condition: it is
optimal exactly when the summed unit pull of the other anchors there is at
most its own weight (up to rounding).  The first anchor that passes is the
answer.  Otherwise the optimum lies off every anchor and plain Weiszfeld
iteration finds it from the weighted centroid; an iterate that lands on an
anchor, now known to be non-optimal, steps off along the pull instead of
dividing by a zero distance.  One pass over the anchors (``_pass``) gives
the sums that Kuhn's test, each step and the stop test read, so a step costs
one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import Point, Scenario, demand_fractions

# below this distance an iterate is treated as sitting on an anchor
_SNAP = 1e-12
# relative step size at which iteration stops; the first-order residual
# must then also be below 10 * _TOL
_TOL = 1e-9
# Kuhn's test passes an anchor whose pull exceeds its weight by at most this
# share of the total weight: the rounding of the summed pull, so that a tie
# such as a pull of exactly 3 at an anchor of weight 3 is not lost
_ROUNDING = 1e-12


@dataclass(frozen=True)
class WeberProblem:
    """Anchor points with positive weights; distances are Euclidean."""

    anchors: tuple[Point, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.anchors) == 0:
            raise ValueError("weber problem needs at least one anchor")
        if len(self.anchors) != len(self.weights):
            raise ValueError("anchors and weights must have equal length")
        if not all(math.isfinite(v) for p in self.anchors for v in p) \
                or not all(math.isfinite(w) for w in self.weights):
            raise ValueError("anchor coordinates and weights must be finite")
        if not all(w > 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @classmethod
    def from_scenario(cls, scenario: Scenario, weighted: bool = True) -> "WeberProblem":
        """Anchors are warehouse positions; weights are demand shares, or all
        ones for the unweighted (geometric median) variant."""
        n = len(scenario.warehouses)
        weights = tuple(demand_fractions(scenario)) if weighted else (1.0,) * n
        return cls(anchors=scenario.warehouse_positions, weights=weights)


@dataclass(frozen=True, slots=True)
class WeberSolution:
    """Scalars only, the location as ``x`` and ``y``; ``at_anchor`` is the
    index of the anchor the solution sits on, if any."""

    x: float
    y: float
    objective: float
    iterations: int
    converged: bool
    at_anchor: int | None = None

    @property
    def location(self) -> Point:
        return (self.x, self.y)


# an anchor is an (x, y, weight) triple of floats
Anchor = tuple[float, float, float]


def _objective(anchors: tuple[Anchor, ...], x: float, y: float) -> float:
    return sum(w * math.hypot(ax - x, ay - y) for ax, ay, w in anchors)


def weber_objective(problem: WeberProblem, x: Point) -> float:
    """Sum of weighted distances from x to the anchors: W(x), the objective
    that result (i) minimizes over hub points.  Public so that a hub found
    elsewhere (a grid point, a fleet-map point) can be scored on it."""
    anchors = tuple((ax, ay, w) for (ax, ay), w in zip(problem.anchors, problem.weights))
    return _objective(anchors, x[0], x[1])


def _pass(anchors: tuple[Anchor, ...], x: float, y: float
          ) -> tuple[float, float, float, float]:
    """One pass over the anchors at (x, y).

    Returns (w_here, rx, ry, den): the weight within ``_SNAP`` of the point,
    the pull r = sum w/d * (a - x) of the other anchors, and sum w/d over
    them.  Kuhn's test, the Weiszfeld step and the stop test all read these.
    """
    w_here = rx = ry = den = 0.0
    for ax, ay, w in anchors:
        dx, dy = ax - x, ay - y
        d = math.hypot(dx, dy)
        if d <= _SNAP:
            w_here += w
        else:
            s = w / d
            rx += s * dx
            ry += s * dy
            den += s
    return w_here, rx, ry, den


def solve_weber(problem: WeberProblem, max_iter: int = 10000) -> WeberSolution:
    """Minimize the weighted distance sum over the plane.

    Kuhn's anchor test runs first, once per anchor, and returns the first
    anchor that passes (up to ``_ROUNDING``) with ``iterations`` 0; when a
    segment of optima ends on anchors, that is the first such endpoint.  The
    test is not a step: ``max_iter`` counts Weiszfeld steps only.  Iteration
    converges when a step moves less than ``_TOL`` relative and the
    first-order residual at the new iterate is below ``10 * _TOL``.  The
    returned objective never exceeds the objective at the starting point
    (the weighted centroid).
    """
    anchors = tuple((float(ax), float(ay), float(w))
                    for (ax, ay), w in zip(problem.anchors, problem.weights))

    # (|r| - w_here) / total is the scaled first-order residual, at most 0
    # at the optimum: off the anchors the gradient norm, on one the excess of
    # the others' pull over its weight
    total = sum(w for _, _, w in anchors)
    for k, (ax, ay, _) in enumerate(anchors):
        w_here, rx, ry, _ = _pass(anchors, ax, ay)
        if (math.hypot(rx, ry) - w_here) / total <= _ROUNDING:
            return WeberSolution(ax, ay, _objective(anchors, ax, ay), 0, True,
                                 at_anchor=k)

    x = sum(w * ax for ax, _, w in anchors) / total
    y = sum(w * ay for _, ay, w in anchors) / total
    w_here, rx, ry, den = _pass(anchors, x, y)
    r = math.hypot(rx, ry)
    for it in range(1, max_iter + 1):
        # the Weiszfeld map is x + r/den; on a non-optimal anchor (or stack)
        # the step off it is shorter by beta = w_here/|r| (Ostresh 1978)
        beta = min(1.0, w_here / r) if w_here > 0.0 else 0.0
        dx, dy = (1.0 - beta) * rx / den, (1.0 - beta) * ry / den
        x, y = x + dx, y + dy
        w_here, rx, ry, den = _pass(anchors, x, y)
        r = math.hypot(rx, ry)
        if math.hypot(dx, dy) <= _TOL * (1.0 + math.hypot(x, y)) \
                and (r - w_here) / total <= 10.0 * _TOL:
            return WeberSolution(x, y, _objective(anchors, x, y), it, True)
    return WeberSolution(x, y, _objective(anchors, x, y), max_iter, False)
