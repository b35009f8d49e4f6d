"""The benchmark harness runs end to end on a tiny budget.

Only that it runs and that every answer checks out is asserted: timings
vary too much from machine to machine to gate on here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _state_files() -> list[str]:
    state = ROOT / ".perfbench"
    return sorted(str(p) for p in state.rglob("*")) if state.is_dir() else []


def test_regimes_timed_run_is_correct():
    before = _state_files()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regimes", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # the timed mode keeps no state; only --trace 1 records spans and counts
    assert _state_files() == before
