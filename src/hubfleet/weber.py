"""Weighted planar single-facility location (Weber problem).

Solved by Weiszfeld fixed-point iteration with an anchor safeguard: when the
iterate lands on (or stalls against) one of the demand points, the summed
pull of the remaining points decides whether that point is optimal, and if
not, the iterate steps off along the pull direction instead of dividing by
a zero distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import EUCLIDEAN, DistanceMetric, Point, Scenario, demand_fractions

# below this distance an iterate is treated as sitting on an anchor
_SNAP = 1e-12


class UnsupportedMetricError(ValueError):
    """The iterative solver only handles the Euclidean metric."""


@dataclass(frozen=True)
class WeberProblem:
    """Anchor points with positive weights, plus the distance metric."""

    anchors: tuple[Point, ...]
    weights: tuple[float, ...]
    metric: DistanceMetric = EUCLIDEAN

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
        return cls(anchors=scenario.warehouse_positions, weights=weights,
                   metric=scenario.metric)


@dataclass(frozen=True, slots=True)
class WeberSolution:
    """``objective_trace`` holds the objective at the start and after every
    step, as a read-only float64 array."""

    location: Point
    objective: float
    iterations: int
    converged: bool
    at_anchor: int | None = None
    objective_trace: np.ndarray = field(default=(), compare=False)

    def __post_init__(self) -> None:
        trace = np.array(self.objective_trace, dtype=np.float64)
        trace.flags.writeable = False
        object.__setattr__(self, "objective_trace", trace)


def weber_objective(problem: WeberProblem, x: Point) -> float:
    """Sum of weighted distances from x to the anchors (any metric)."""
    return sum(w * problem.metric.distance(a, x)
               for a, w in zip(problem.anchors, problem.weights))


def _pull(a: np.ndarray, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Unit-direction pulls toward anchors away from x.

    Returns (R, w_here, d): R is the summed pull of anchors not coincident
    with x, w_here the total weight sitting exactly at x, d the distances.
    """
    diff = a - x
    d = np.hypot(diff[:, 0], diff[:, 1])
    here = d <= _SNAP
    w_here = float(w[here].sum())
    away = ~here
    R = np.zeros(2)
    if away.any():
        R = ((w[away] / d[away])[:, None] * diff[away]).sum(axis=0)
    return R, w_here, d


def _optimality_residual(a: np.ndarray, w: np.ndarray, x: np.ndarray) -> float:
    """Scaled first-order residual; zero at the optimum.

    Away from anchors this is the gradient norm over the total weight; on an
    anchor it is the excess of the remaining pull over the anchor's weight.
    """
    R, w_here, _ = _pull(a, w, x)
    return max(0.0, float(np.hypot(*R)) - w_here) / float(w.sum())


def solve_weber(problem: WeberProblem, tol: float = 1e-9,
                max_iter: int = 10000) -> WeberSolution:
    """Minimize the weighted distance sum over the plane.

    Convergence requires both a relative movement below ``tol`` and a
    first-order optimality residual below ``10 * tol``.  The returned
    objective never exceeds the objective at the starting point (the
    weighted centroid).  Non-Euclidean metrics are rejected.
    """
    if problem.metric.kind != "euclidean":
        raise UnsupportedMetricError(
            "iterative solver supports only the euclidean metric; "
            "use weber_objective to evaluate other metrics")

    a = np.asarray(problem.anchors, dtype=float)
    w = np.asarray(problem.weights, dtype=float)
    n = len(a)

    def objective(x: np.ndarray) -> float:
        diff = a - x
        return float((w * np.hypot(diff[:, 0], diff[:, 1])).sum())

    if n == 1:
        p = (float(a[0, 0]), float(a[0, 1]))
        return WeberSolution(p, 0.0, 0, True, at_anchor=0, objective_trace=(0.0,))

    x = (w[:, None] * a).sum(axis=0) / w.sum()
    trace = [objective(x)]

    for it in range(1, max_iter + 1):
        R, w_here, d = _pull(a, w, x)
        if w_here > 0.0:
            # iterate sits on an anchor (or a stack of coincident anchors)
            if float(np.hypot(*R)) <= w_here:
                k = int(np.argmin(d))
                p = (float(a[k, 0]), float(a[k, 1]))
                return WeberSolution(p, objective(a[k]), it, True, at_anchor=k,
                                     objective_trace=trace)
            # step off the anchor along the residual pull
            away = d > _SNAP
            inv = w[away] / d[away]
            t = (inv[:, None] * a[away]).sum(axis=0) / inv.sum()
            beta = min(1.0, w_here / float(np.hypot(*R)))
            x_new = (1.0 - beta) * t + beta * x
        else:
            inv = w / d
            x_new = (inv[:, None] * a).sum(axis=0) / inv.sum()

        move = float(np.hypot(*(x_new - x)))
        x = x_new
        trace.append(objective(x))
        if move <= tol * (1.0 + float(np.hypot(*x))):
            if _optimality_residual(a, w, x) <= 10.0 * tol:
                break
            # stalled against a nearby anchor: accept it only if certified
            k = int(np.argmin(np.hypot(a[:, 0] - x[0], a[:, 1] - x[1])))
            Rk, wk, _ = _pull(a, w, a[k])
            if float(np.hypot(*Rk)) <= wk:
                p = (float(a[k, 0]), float(a[k, 1]))
                return WeberSolution(p, objective(a[k]), it, True, at_anchor=k,
                                     objective_trace=trace)
    else:
        return WeberSolution((float(x[0]), float(x[1])), objective(x), max_iter,
                             False, objective_trace=trace)

    return WeberSolution((float(x[0]), float(x[1])), objective(x), it, True,
                         objective_trace=trace)
