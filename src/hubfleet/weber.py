"""Weighted planar single-facility location (Weber problem).

Every anchor (demand point) is first tested once by Kuhn's condition: it is
optimal exactly when the summed unit pull of the other anchors there is at
most its own weight (up to rounding).  The first anchor that passes is the
answer.  Otherwise the optimum lies off every anchor and plain Weiszfeld
iteration finds it from the weighted centroid; an iterate that lands on an
anchor, now known to be non-optimal, steps off along the pull instead of
dividing by a zero distance.
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
    """Sum of weighted distances from x to the anchors."""
    anchors = tuple((ax, ay, w) for (ax, ay), w in zip(problem.anchors, problem.weights))
    return _objective(anchors, x[0], x[1])


def _pull(anchors: tuple[Anchor, ...], x: float, y: float
          ) -> tuple[float, float, float]:
    """Summed unit-direction pull toward the anchors away from (x, y).

    Returns (rx, ry, w_here): the pull of anchors not coincident with the
    point, and the total weight sitting exactly on it.
    """
    rx = ry = w_here = 0.0
    for ax, ay, w in anchors:
        dx, dy = ax - x, ay - y
        d = math.hypot(dx, dy)
        if d <= _SNAP:
            w_here += w
        else:
            s = w / d
            rx += s * dx
            ry += s * dy
    return rx, ry, w_here


def _optimality_residual(anchors: tuple[Anchor, ...], x: float, y: float,
                         total_weight: float) -> float:
    """Scaled first-order residual; zero at the optimum.

    Away from anchors this is the gradient norm over the total weight; on an
    anchor it is the excess of the remaining pull over the anchor's weight.
    """
    rx, ry, w_here = _pull(anchors, x, y)
    return max(0.0, math.hypot(rx, ry) - w_here) / total_weight


def solve_weber(problem: WeberProblem, max_iter: int = 10000) -> WeberSolution:
    """Minimize the weighted distance sum over the plane.

    Kuhn's anchor test runs first, once per anchor, and returns the first
    anchor that passes (up to ``_ROUNDING``) with ``iterations`` 0; when a
    segment of optima ends on anchors, that is the first such endpoint.  The
    test is not a step: ``max_iter`` counts Weiszfeld steps only.  Iteration
    converges when a step moves less than ``_TOL`` relative and the
    first-order residual is below ``10 * _TOL``.  The returned objective
    never exceeds the objective at the starting point (the weighted
    centroid).
    """
    anchors = tuple((float(ax), float(ay), float(w))
                    for (ax, ay), w in zip(problem.anchors, problem.weights))

    total = sum(w for _, _, w in anchors)
    for k, (ax, ay, _) in enumerate(anchors):
        if _optimality_residual(anchors, ax, ay, total) <= _ROUNDING:
            return WeberSolution(ax, ay, _objective(anchors, ax, ay), 0, True,
                                 at_anchor=k)

    x = sum(w * ax for ax, _, w in anchors) / total
    y = sum(w * ay for _, ay, w in anchors) / total

    for it in range(1, max_iter + 1):
        # one pass: the weight at the iterate and the Weiszfeld map over the
        # anchors away from it
        w_here = num_x = num_y = den = 0.0
        for ax, ay, w in anchors:
            d = math.hypot(ax - x, ay - y)
            if d <= _SNAP:
                w_here += w
            else:
                s = w / d
                num_x += s * ax
                num_y += s * ay
                den += s
        if w_here > 0.0:
            # on a non-optimal anchor (or stack): step off along the pull
            rx, ry, _ = _pull(anchors, x, y)
            beta = min(1.0, w_here / math.hypot(rx, ry))
            x_new = (1.0 - beta) * (num_x / den) + beta * x
            y_new = (1.0 - beta) * (num_y / den) + beta * y
        else:
            x_new, y_new = num_x / den, num_y / den

        move = math.hypot(x_new - x, y_new - y)
        x, y = x_new, y_new
        if move <= _TOL * (1.0 + math.hypot(x, y)) \
                and _optimality_residual(anchors, x, y, total) <= 10.0 * _TOL:
            return WeberSolution(x, y, _objective(anchors, x, y), it, True)
    return WeberSolution(x, y, _objective(anchors, x, y), max_iter, False)
