"""The benchmark harness runs end to end on a tiny budget.

Only that it runs and that every answer checks out is asserted: timings
vary too much from machine to machine to gate on here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _state_files() -> list[str]:
    state = ROOT / ".perfbench"
    return sorted(str(p) for p in state.rglob("*")) if state.is_dir() else []


def _timed_run_is_correct(workload: str) -> None:
    before = _state_files()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # the timed mode keeps no state; only --trace 1 records spans and counts
    assert _state_files() == before


def test_regimes_timed_run_is_correct():
    _timed_run_is_correct("regimes")


def test_blocks_timed_run_is_correct():
    _timed_run_is_correct("blocks")


def _hubfleet_namespaces() -> dict:
    """Every hubfleet module's attributes, and AggregatedConvolution's."""
    from hubfleet.star import AggregatedConvolution
    out = {name: dict(vars(mod)) for name, mod in sys.modules.items()
           if name.partition(".")[0] == "hubfleet"}
    out["AggregatedConvolution"] = dict(vars(AggregatedConvolution))
    return out


def test_tracer_patches_and_restores_the_layers(towns_log, towns_pro):
    # the traced benchmark finds each layer by name; a renamed one would
    # go unnoticed until a traced run.  The rate search's certifying
    # min_trucks probes must nest under its span.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from hubfleet import fleet
    from hubfleet.weber import WeberProblem, solve_weber
    compare_locations = fleet.compare_locations
    hub = solve_weber(WeberProblem.from_scenario(towns_pro, weighted=True)).location
    before, files = _hubfleet_namespaces(), _state_files()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fleet.min_trucks is not before["hubfleet.fleet"]["min_trucks"]
        tracer.run_op(0, compare_locations, towns_log)
        # the traced search, so that its probes nest under its span
        tracer.run_op(1, fleet.min_center_rate, towns_pro.with_center_rate(3.0), hub)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"fleet.min_trucks", "fleet.rate_search", "star.table", "weber.solve"} <= names
    assert tracer.probes_under_search() > 1
    after = _hubfleet_namespaces()
    for owner, attrs in before.items():
        for attr, original in attrs.items():
            assert after[owner][attr] is original, f"{owner}.{attr}"
    assert _state_files() == files
