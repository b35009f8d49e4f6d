"""Weighted planar single-facility location (Weber problem).

Solved by Weiszfeld fixed-point iteration with an anchor safeguard: when the
iterate lands on (or stalls against) one of the demand points, the summed
pull of the remaining points decides whether that point is optimal, and if
not, the iterate steps off along the pull direction instead of dividing by
a zero distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import Point, Scenario, demand_fractions

# below this distance an iterate is treated as sitting on an anchor
_SNAP = 1e-12


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
    """Scalars only; ``at_anchor`` is the index of the anchor the solution
    sits on, if any."""

    location: Point
    objective: float
    iterations: int
    converged: bool
    at_anchor: int | None = None


def weber_objective(problem: WeberProblem, x: Point) -> float:
    """Sum of weighted distances from x to the anchors."""
    return sum(w * math.hypot(a[0] - x[0], a[1] - x[1])
               for a, w in zip(problem.anchors, problem.weights))


# an anchor is an (x, y, weight) triple of floats
Anchor = tuple[float, float, float]


def _objective(anchors: tuple[Anchor, ...], x: float, y: float) -> float:
    return sum(w * math.hypot(ax - x, ay - y) for ax, ay, w in anchors)


def _nearest(anchors: tuple[Anchor, ...], x: float, y: float) -> int:
    """Index of the anchor closest to (x, y); the first one on a tie."""
    return min(range(len(anchors)),
               key=lambda i: math.hypot(anchors[i][0] - x, anchors[i][1] - y))


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


def solve_weber(problem: WeberProblem, tol: float = 1e-9,
                max_iter: int = 10000) -> WeberSolution:
    """Minimize the weighted distance sum over the plane.

    Convergence requires both a relative movement below ``tol`` and a
    first-order optimality residual below ``10 * tol``.  The returned
    objective never exceeds the objective at the starting point (the
    weighted centroid).
    """
    anchors = tuple((float(ax), float(ay), float(w))
                    for (ax, ay), w in zip(problem.anchors, problem.weights))

    def at_anchor(k: int, it: int) -> WeberSolution:
        ax, ay, _ = anchors[k]
        return WeberSolution((ax, ay), _objective(anchors, ax, ay), it, True,
                             at_anchor=k)

    if len(anchors) == 1:
        return WeberSolution(anchors[0][:2], 0.0, 0, True, at_anchor=0)

    total = sum(w for _, _, w in anchors)
    x = sum(w * ax for ax, _, w in anchors) / total
    y = sum(w * ay for _, ay, w in anchors) / total

    for it in range(1, max_iter + 1):
        # one pass: the pull, the weight at the iterate, and the Weiszfeld
        # map over the anchors away from it
        rx = ry = w_here = num_x = num_y = den = 0.0
        for ax, ay, w in anchors:
            dx, dy = ax - x, ay - y
            d = math.hypot(dx, dy)
            if d <= _SNAP:
                w_here += w
            else:
                s = w / d
                rx += s * dx
                ry += s * dy
                num_x += s * ax
                num_y += s * ay
                den += s
        if w_here > 0.0:
            # iterate sits on an anchor (or a stack of coincident anchors)
            r = math.hypot(rx, ry)
            if r <= w_here:
                return at_anchor(_nearest(anchors, x, y), it)
            # step off the anchor along the residual pull
            beta = min(1.0, w_here / r)
            x_new = (1.0 - beta) * (num_x / den) + beta * x
            y_new = (1.0 - beta) * (num_y / den) + beta * y
        else:
            x_new, y_new = num_x / den, num_y / den

        move = math.hypot(x_new - x, y_new - y)
        x, y = x_new, y_new
        if move <= tol * (1.0 + math.hypot(x, y)):
            if _optimality_residual(anchors, x, y, total) <= 10.0 * tol:
                break
            # stalled against a nearby anchor: accept it only if certified
            k = _nearest(anchors, x, y)
            rx, ry, w_k = _pull(anchors, anchors[k][0], anchors[k][1])
            if math.hypot(rx, ry) <= w_k:
                return at_anchor(k, it)
    else:
        return WeberSolution((x, y), _objective(anchors, x, y), max_iter, False)

    return WeberSolution((x, y), _objective(anchors, x, y), it, True)
