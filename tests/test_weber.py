import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubfleet import weber
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


@pytest.mark.parametrize("anchors,weights", [
    (((0.0, 0.0), (1.0, 0.0)), (math.inf, 1.0)),
    (((0.0, 0.0), (1.0, 0.0)), (math.nan, 1.0)),
    (((0.0, math.nan), (1.0, 0.0)), (1.0, 1.0)),
    (((0.0, 0.0), (math.inf, 0.0)), (1.0, 1.0)),
    (((0.0, 0.0), (1.0, -math.inf)), (1.0, 1.0)),
])
def test_non_finite_input_is_rejected(anchors, weights):
    with pytest.raises(ValueError, match="finite"):
        WeberProblem(anchors=anchors, weights=weights)


def test_optimal_anchor_with_a_tied_pull_is_returned_at_once():
    # at (2, 2) the others pull with exactly the anchor's weight; Weiszfeld
    # alone crawls toward it and stops at max_iter, unconverged
    problem = WeberProblem(anchors=((3.0, 3.0), (1.0, 1.0), (1.0, 0.0), (2.0, 2.0)),
                           weights=(1.0, 1.0, 1.0, 1.0))
    sol = solve_weber(problem)
    assert (sol.at_anchor, sol.converged, sol.iterations) == (3, True, 0)
    assert sol.location == (2.0, 2.0)


def test_tie_lost_to_rounding_still_passes_the_anchor_test():
    # at (1, 0) the pull is exactly 3 (a 2-3-sqrt(13) triangle) against a
    # weight of 3, but the summed pull rounds one ulp above it
    problem = WeberProblem(anchors=((3.0, 3.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                           weights=(3.0, 2.0, 3.0, 2.0))
    sol = solve_weber(problem)
    assert (sol.at_anchor, sol.converged, sol.iterations) == (2, True, 0)


def _kuhn_excess(a: np.ndarray, w: np.ndarray, k: int) -> float:
    """Pull of the anchors away from anchor k there, less the weight on it."""
    d = a - a[k]
    r = np.hypot(d[:, 0], d[:, 1])
    on = r == 0.0
    pull = ((w[~on] / r[~on])[:, None] * d[~on]).sum(axis=0)
    return float(np.hypot(*pull) - w[on].sum())


@pytest.mark.xfail(strict=True, reason="Weiszfeld's tail next to an anchor")
def test_optimum_next_to_an_anchor_converges():
    # the optimum lies just off (1, 2), whose Kuhn excess is 9.1e-5 of the
    # total weight: Weiszfeld approaches it sublinearly, and 10 000 steps
    # do not reach it
    problem = WeberProblem(anchors=((1.0, 2.0), (0.0, 2.0), (2.0, 0.0), (0.0, 3.0)),
                           weights=(4.0, 3.0, 1.0, 2.0))
    assert solve_weber(problem).converged


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4)),
                min_size=2, max_size=8))
def test_lattice_instances_meet_kuhn_and_dominate_anchors(draw):
    # a 4 x 4 lattice, so that stacked and collinear anchors are common
    a = np.array([(x, y) for x, y, _ in draw], dtype=float)
    w = np.array([v for *_, v in draw], dtype=float)
    sol = solve_weber(WeberProblem(anchors=tuple(map(tuple, a.tolist())),
                                   weights=tuple(w.tolist())))
    excess = [_kuhn_excess(a, w, k) for k in range(len(a))]
    slack = 1e-9 * w.sum()
    if sol.at_anchor is None:
        assert min(excess) >= -slack
    else:
        assert excess[sol.at_anchor] <= slack
    if not sol.converged:
        # the one exception: an optimum just off an anchor, the tail of
        # test_optimum_next_to_an_anchor_converges
        assert sol.at_anchor is None and slack < min(excess) < 1e-3 * w.sum()
        return

    def objective(p):
        return float((w * np.hypot(*(a - p).T)).sum())
    best_start = min([objective(p) for p in a] + [objective(w @ a / w.sum())])
    assert sol.objective <= best_start * (1.0 + 1e-12)


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
        if sol.at_anchor is None:
            # the stop test read the residual at the point it returned
            residual = float(np.hypot(*pull)) - w[on].sum()
            assert residual <= 10 * weber._TOL * w.sum() * (1 + 1e-6)


def test_each_step_costs_one_pass_over_the_anchors(monkeypatch, towns_pro):
    calls = []
    one_pass = weber._pass

    def counted(*args):
        calls.append(args)
        return one_pass(*args)

    monkeypatch.setattr(weber, "_pass", counted)
    # an answer at anchor k: Kuhn's test runs at anchors 0..k
    tied = WeberProblem(anchors=((3.0, 3.0), (1.0, 1.0), (1.0, 0.0), (2.0, 2.0)),
                        weights=(1.0, 1.0, 1.0, 1.0))
    assert solve_weber(tied).at_anchor == 3
    assert len(calls) == 3 + 1
    # off every anchor: J tests, the start, then one pass per step that
    # both sets the next step and decides the stop
    problem = WeberProblem.from_scenario(towns_pro, weighted=True)
    n = len(problem.anchors)
    calls.clear()
    sol = solve_weber(problem)
    assert sol.converged and sol.at_anchor is None
    assert len(calls) == n + sol.iterations + 1
    calls.clear()
    cut = solve_weber(problem, max_iter=3)
    assert not cut.converged and cut.iterations == 3
    assert len(calls) == n + 4


@pytest.mark.parametrize("anchors,weights,message", [
    ((), (), "at least one anchor"),
    (((0.0, 0.0), (1.0, 0.0)), (1.0,), "equal length"),
    (((0.0, 0.0),), (1.0, 2.0), "equal length"),
])
def test_a_problem_without_anchors_or_with_unmatched_weights_is_rejected(anchors, weights,
                                                                       message):
    with pytest.raises(ValueError, match=message):
        WeberProblem(anchors=anchors, weights=weights)
