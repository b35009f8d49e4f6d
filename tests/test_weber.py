import math

import numpy as np
import pytest

from hubfleet.weber import WeberProblem, solve_weber, weber_objective


def test_published_weighted_point_pro(towns_pro):
    sol = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True))
    assert sol.converged
    assert sol.location[0] == pytest.approx(288.156, abs=0.01)
    assert sol.location[1] == pytest.approx(112.283, abs=0.01)


def test_published_weighted_point_log(towns_log):
    sol = solve_weber(WeberProblem.from_scenario(towns_log, weighted=True))
    assert sol.converged
    assert sol.location[0] == pytest.approx(179.756, abs=0.01)
    assert sol.location[1] == pytest.approx(155.904, abs=0.01)


def test_published_unweighted_point(towns_log, towns_pro):
    # without weights the two demand rows share the same optimum
    for sc in (towns_log, towns_pro):
        sol = solve_weber(WeberProblem.from_scenario(sc, weighted=False))
        assert sol.converged
        assert sol.location[0] == pytest.approx(179.210, abs=0.01)
        assert sol.location[1] == pytest.approx(162.372, abs=0.01)


def test_descent_and_start_dominance(towns_pro):
    problem = WeberProblem.from_scenario(towns_pro, weighted=True)
    sol = solve_weber(problem)
    # the objective at the centroid start (max_iter=0) and after every step
    trace = [solve_weber(problem, max_iter=k).objective
             for k in range(sol.iterations + 1)]
    assert len(trace) >= 2
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier * (1.0 + 1e-12)
    # never worse than the weighted-centroid start
    assert sol.objective <= trace[0]


def test_solution_value_semantics(towns_pro):
    problem = WeberProblem.from_scenario(towns_pro, weighted=True)
    a, b = solve_weber(problem), solve_weber(problem)
    assert a == b and hash(a) == hash(b)


def test_weight_scaling_invariance(towns_pro):
    base = WeberProblem.from_scenario(towns_pro, weighted=True)
    scaled = WeberProblem(anchors=base.anchors,
                          weights=tuple(81.0 * w for w in base.weights))
    a = solve_weber(base)
    b = solve_weber(scaled)
    assert a.location[0] == pytest.approx(b.location[0], abs=1e-6)
    assert a.location[1] == pytest.approx(b.location[1], abs=1e-6)
    assert b.objective == pytest.approx(81.0 * a.objective, rel=1e-9)


def test_single_anchor():
    sol = solve_weber(WeberProblem(anchors=((3.0, 4.0),), weights=(2.0,)))
    assert sol.location == (3.0, 4.0)
    assert sol.at_anchor == 0
    assert sol.objective == 0.0


def test_symmetric_triangle_centroid():
    # equilateral triangle with equal weights: optimum at the centroid
    pts = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))
    sol = solve_weber(WeberProblem(anchors=pts, weights=(1.0, 1.0, 1.0)))
    cx = sum(p[0] for p in pts) / 3
    cy = sum(p[1] for p in pts) / 3
    assert sol.location[0] == pytest.approx(cx, abs=1e-8)
    assert sol.location[1] == pytest.approx(cy, abs=1e-8)


def test_dominant_weight_sits_on_anchor():
    # one anchor holds a strict weight majority: it is the optimum
    problem = WeberProblem(
        anchors=((0.0, 0.0), (10.0, 0.0), (0.0, 7.0)),
        weights=(0.6, 0.25, 0.15))
    sol = solve_weber(problem)
    assert sol.at_anchor == 0
    assert sol.location == (0.0, 0.0)
    assert sol.converged


def test_anchor_safeguard_steps_off_non_optimal_anchor():
    # start centroid coincides with a non-optimal anchor
    problem = WeberProblem(
        anchors=((0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)),
        weights=(1.0, 1.0, 1.0))
    sol = solve_weber(problem)
    # collinear equal weights: middle point is optimal here
    assert sol.at_anchor == 0

    skew = WeberProblem(
        anchors=((1.0, 0.0), (-3.0, 0.0), (2.0, 0.0), (2.0, 1.0), (2.0, -1.0)),
        weights=(0.1, 0.1, 1.0, 1.0, 1.0))
    sol2 = solve_weber(skew)
    assert sol2.converged
    assert sol2.location[0] == pytest.approx(2.0, abs=1e-6)
    assert sol2.location[1] == pytest.approx(0.0, abs=1e-6)


def test_anchor_certificate_inequality(towns_pro):
    # verify the returned point is a true optimum via the subgradient test
    problem = WeberProblem.from_scenario(towns_pro, weighted=True)
    sol = solve_weber(problem)
    a = np.asarray(problem.anchors)
    w = np.asarray(problem.weights)
    x = np.asarray(sol.location)
    d = np.hypot(a[:, 0] - x[0], a[:, 1] - x[1])
    grad = -((w / d)[:, None] * (a - x)).sum(axis=0)
    assert float(np.hypot(*grad)) <= 1e-6


def test_objective_comparison_weighted_vs_unweighted(towns_pro):
    problem = WeberProblem.from_scenario(towns_pro, weighted=True)
    best = solve_weber(problem)
    other = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=False))
    assert weber_objective(problem, best.location) < \
        weber_objective(problem, other.location)


def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        WeberProblem(anchors=((0.0, 0.0), (1.0, 0.0)), weights=(1.0, 0.0))


def test_random_instances_first_order_optimal():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        anchors = tuple((float(x), float(y))
                        for x, y in rng.uniform(-50, 50, size=(n, 2)))
        weights = tuple(float(v) for v in rng.uniform(0.1, 5.0, n))
        problem = WeberProblem(anchors=anchors, weights=weights)
        sol = solve_weber(problem)
        assert sol.converged
        a = np.asarray(anchors)
        w = np.asarray(weights)
        x = np.asarray(sol.location)
        d = np.hypot(a[:, 0] - x[0], a[:, 1] - x[1])
        on = d <= 1e-9
        pull = np.zeros(2)
        if (~on).any():
            pull = ((w[~on] / d[~on])[:, None] * (a[~on] - x)).sum(axis=0)
        # at an interior point the pull vanishes; on an anchor it is
        # dominated by that anchor's weight
        assert float(np.hypot(*pull)) <= w[on].sum() + 1e-6 * w.sum()
