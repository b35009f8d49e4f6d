"""``solve_weber`` must reproduce the recorded solutions.

``golden/weber.json`` holds, for every case below, the iteration count,
the convergence flag, the anchor index (or null), the location and the
objective.  The cases are the two bundled towns instances weighted and
unweighted, every problem that tests/test_weber.py builds, the 30 random
instances of its first-order test, and 40 ``generate`` draws per block
I-IV at seed 1, weighted and unweighted.  Two more start on a non-optimal
anchor, which no case above does, and the towns runs are also cut short
by ``max_iter``.  Iteration counts, flags and
anchors must match exactly; locations and objectives may move only by
rounding (1e-9 relative), since the order of summation is not part of the
algorithm.  A case whose answer is an anchor has 0 iterations: Kuhn's
anchor test returns it before the first Weiszfeld step.

Run ``python tests/test_golden_weber.py`` to re-record the file after a
deliberate change to the algorithm.  Re-recording rewrites every location
and objective in their last digits, so a change that moves only some
fields should edit just those.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hubfleet.cli import BLOCKS, sample_instance
from hubfleet.scenario import bundled_scenario
from hubfleet.weber import WeberProblem, solve_weber

GOLDEN = Path(__file__).parent / "golden" / "weber.json"
REL = 1e-9


def _towns():
    for name in ("towns12-log", "towns12-pro"):
        sc = bundled_scenario(name)
        for weighted in (True, False):
            tag = "weighted" if weighted else "unweighted"
            yield f"{name}-{tag}", WeberProblem.from_scenario(sc, weighted)


def _unit_tests():
    pro = WeberProblem.from_scenario(bundled_scenario("towns12-pro"), True)
    yield "towns12-pro-weights-x81", WeberProblem(
        anchors=pro.anchors, weights=tuple(81.0 * w for w in pro.weights))
    yield "single-anchor", WeberProblem(anchors=((3.0, 4.0),), weights=(2.0,))
    yield "equilateral", WeberProblem(
        anchors=((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)),
        weights=(1.0, 1.0, 1.0))
    yield "dominant-weight", WeberProblem(
        anchors=((0.0, 0.0), (10.0, 0.0), (0.0, 7.0)),
        weights=(0.6, 0.25, 0.15))
    yield "start-on-anchor", WeberProblem(
        anchors=((0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)),
        weights=(1.0, 1.0, 1.0))
    yield "step-off-skew", WeberProblem(
        anchors=((1.0, 0.0), (-3.0, 0.0), (2.0, 0.0), (2.0, 1.0), (2.0, -1.0)),
        weights=(0.1, 0.1, 1.0, 1.0, 1.0))


def _step_off():
    # the centroid start sits on a non-optimal anchor, alone or stacked
    far = ((3.0, 0.0), (-1.0, 2.0), (-2.0, -2.0))
    yield "step-off-centroid-anchor", WeberProblem(
        anchors=((0.0, 0.0),) + far, weights=(0.1, 1.0, 1.0, 1.0))
    yield "step-off-stacked-anchors", WeberProblem(
        anchors=((0.0, 0.0), (0.0, 0.0)) + far,
        weights=(0.05, 0.05, 1.0, 1.0, 1.0))


def _random():
    # the draws of test_random_instances_first_order_optimal
    rng = np.random.default_rng(17)
    for i in range(30):
        n = int(rng.integers(2, 12))
        anchors = tuple((float(x), float(y))
                        for x, y in rng.uniform(-50, 50, size=(n, 2)))
        weights = tuple(float(v) for v in rng.uniform(0.1, 5.0, n))
        yield f"random-{i:02d}", WeberProblem(anchors=anchors, weights=weights)


def _block(name):
    # the instances of `hubfleet generate --block NAME --count 40 --seed 1`
    rng = np.random.default_rng(1)
    for i in range(40):
        sc = sample_instance(rng, BLOCKS[name])
        for weighted in (True, False):
            tag = "w" if weighted else "u"
            yield f"block{name}-{i:02d}-{tag}", \
                WeberProblem.from_scenario(sc, weighted)


def _truncated():
    # runs cut short by max_iter, from the centroid start onwards
    for name, problem in _towns():
        for k in (0, 1, 2, 5):
            yield f"{name}-max_iter-{k}", (problem, k)


FAMILIES = {"towns": _towns, "test_weber": _unit_tests, "step_off": _step_off,
            "random": _random, "truncated": _truncated}
FAMILIES.update({f"block{b}": lambda b=b: _block(b) for b in BLOCKS})


def _cases() -> dict:
    return {n: p for family in FAMILIES.values() for n, p in family()}


def _record(case) -> dict:
    problem, max_iter = case if isinstance(case, tuple) else (case, 10000)
    sol = solve_weber(problem, max_iter=max_iter)
    return {"iterations": sol.iterations, "converged": sol.converged,
            "at_anchor": sol.at_anchor, "location": list(sol.location),
            "objective": sol.objective}


def _matches(got: dict, want: dict) -> bool:
    def close(g: float, w: float) -> bool:
        return abs(g - w) <= REL * (1.0 + abs(w))

    return (all(got[k] == want[k] for k in ("iterations", "converged", "at_anchor"))
            and all(map(close, got["location"], want["location"]))
            and close(got["objective"], want["objective"]))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("family", list(FAMILIES))
def test_weber_matches_golden(family, golden):
    wrong = [name for name, case in FAMILIES[family]()
             if not _matches(_record(case), golden[name])]
    assert wrong == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({n: _record(p) for n, p in _cases().items()},
                                 indent=1) + "\n", encoding="utf-8")
