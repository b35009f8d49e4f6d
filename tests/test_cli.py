import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hubfleet.cli import BLOCKS, ExperimentBlock, main, sample_instance
from hubfleet.scenario import ScenarioError, bundled_scenario


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def log_path():
    from importlib.resources import files
    return str(files("hubfleet.data") / "towns12-log.json")


@pytest.fixture(scope="module")
def pro_path():
    from importlib.resources import files
    return str(files("hubfleet.data") / "towns12-pro.json")


def test_solve_feasible(runner, log_path):
    res = runner.invoke(main, ["solve", log_path])
    assert res.exit_code == 0
    assert "fleet size          19" in res.output
    assert "throughput/day      67.871" in res.output
    assert "hub busy            0.706991" in res.output
    assert "feasible            yes" in res.output
    assert "(179.756, 155.905)" in res.output


def test_solve_infeasible_exit_code(runner, pro_path):
    res = runner.invoke(main, ["solve", pro_path, "--mu1", "3"])
    assert res.exit_code == 2
    assert "feasible            no" in res.output
    assert "saturation ceiling  72.000/day (binding node 1)" in res.output
    assert "fleet size          --" in res.output


def test_solve_center_flag_overrides(runner, log_path):
    res = runner.invoke(main, ["solve", log_path, "--center", "179.211,162.373"])
    assert res.exit_code == 0
    assert "(179.211, 162.373)" in res.output
    assert "throughput/day      67.841" in res.output


def test_solve_rejects_malformed_file(runner, tmp_path, bad_scenarios):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"warehouses": []}))
    res = runner.invoke(main, ["solve", str(bad)])
    assert res.exit_code == 1
    assert "error:" in res.output
    for data, _ in bad_scenarios:
        bad.write_text(json.dumps(data))
        res = runner.invoke(main, ["solve", str(bad)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_solve_missing_file(runner, tmp_path):
    res = runner.invoke(main, ["solve", str(tmp_path / "nope.json")])
    assert res.exit_code == 1
    assert "error:" in res.output


def test_solve_bad_center_string(runner, log_path):
    res = runner.invoke(main, ["solve", log_path, "--center", "oops"])
    assert res.exit_code == 1


def test_solve_compare_row(runner, log_path):
    res = runner.invoke(main, ["solve", log_path, "--compare"])
    assert res.exit_code == 0
    assert "DistLoc" in res.output
    row = res.output.strip().splitlines()[-1].split()
    assert row[5] == "19" and row[6] == "19"
    assert row[7] == "67.871" and row[8] == "67.841"


def test_solve_compare_conflicts(runner, log_path):
    res = runner.invoke(main, ["solve", log_path, "--compare", "--trucks", "5"])
    assert res.exit_code == 1
    res = runner.invoke(main, ["solve", log_path, "--compare",
                               "--center", "0,0"])
    assert res.exit_code == 1


def test_solve_csv_matches_table(runner, log_path, tmp_path):
    out = tmp_path / "row.csv"
    res = runner.invoke(main, ["solve", log_path, "--compare",
                               "--csv", str(out)])
    assert res.exit_code == 0
    header, row = out.read_text().strip().splitlines()
    cells = row.split(",")
    table_row = res.output.strip().splitlines()[-1].split()
    assert cells == table_row
    assert header.split(",")[1] == "dist_loc"


def test_weber_verb(runner, pro_path):
    res = runner.invoke(main, ["weber", pro_path])
    assert res.exit_code == 0
    assert "weighted   (288.161, 112.281)" in res.output
    assert "unweighted (179.211, 162.373)" in res.output


def test_fleet_verb_feasible(runner, log_path):
    res = runner.invoke(main, ["fleet", log_path])
    assert res.exit_code == 0
    assert "fleet size          19" in res.output


def test_fleet_find_mu1(runner, pro_path):
    res = runner.invoke(main, ["fleet", pro_path, "--mu1", "3", "--find-mu1"])
    assert res.exit_code == 2
    assert "infeasible: ceiling" in res.output
    assert "minimal hub rate    3.38/hour (fleet size 43)" in res.output


def test_grid_verb(runner, log_path):
    res = runner.invoke(main, ["grid", log_path, "--radius", "10",
                               "--step", "10"])
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 9
    starred = [l for l in lines if l.rstrip().endswith("*")]
    assert len(starred) == 1
    assert "179.756" in starred[0] and "155.905" in starred[0]


def test_grid_rejects_bad_step(runner, log_path):
    res = runner.invoke(main, ["grid", log_path, "--radius", "10",
                               "--step", "-1"])
    assert res.exit_code == 1


@pytest.mark.parametrize("verb,args", [
    ("fleet", ["--mu1", "-1"]),
    ("fleet", ["--mu1", "0"]),
    ("solve", ["--mu1", "-1"]),
    ("grid", ["--radius", "10", "--step", "10", "--trucks", "0"]),
    ("grid", ["--radius", "10", "--step", "10", "--trucks", "-2"]),
    ("generate", ["--block", "I", "--seed", "1", "--mu1", "-1"]),
    ("generate", ["--block", "I", "--seed", "1", "--speed", "-5"]),
    # towns12-log is infeasible at mu1 1, so --find-mu1 would search
    ("fleet", ["--mu1", "1", "--find-mu1", "--mu1-step", "0"]),
    ("fleet", ["--mu1", "1", "--find-mu1", "--mu1-step", "-0.01"]),
    ("generate", ["--block", "I", "--seed", "1", "--speed", "inf"]),
    ("solve", ["--center", "nan,1"]),
])
def test_bad_option_exits_1_with_one_line(runner, log_path, verb, args):
    # generate takes no scenario file
    argv = [verb, *args] if verb == "generate" else [verb, log_path, *args]
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_grid_has_no_around_weber_flag(runner, log_path):
    res = runner.invoke(main, ["grid", log_path, "--around-weber",
                               "--radius", "10", "--step", "10"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_generate_deterministic(runner):
    args = ["generate", "--block", "I", "--count", "3", "--seed", "17"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    other = runner.invoke(main, ["generate", "--block", "I", "--count", "3",
                                 "--seed", "18"])
    assert other.output != first.output


def test_generate_parallel_identical(runner, monkeypatch):
    args = ["generate", "--block", "I", "--count", "4", "--seed", "21"]
    serial = runner.invoke(main, args)
    monkeypatch.setenv("HUBFLEET_JOBS", "2")
    parallel = runner.invoke(main, args)
    assert parallel.output == serial.output
    monkeypatch.setenv("HUBFLEET_JOBS", "abc")
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: HUBFLEET_JOBS must be an integer, got 'abc'"]


def test_generate_csv_and_outdir(runner, tmp_path):
    out = tmp_path / "rows.csv"
    res = runner.invoke(main, ["generate", "--block", "II", "--count", "2",
                               "--seed", "5", "--csv", str(out),
                               "--outdir", str(tmp_path)])
    assert res.exit_code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 instances
    saved = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(saved) == 2
    # instances on disk round-trip through the schema
    from hubfleet.scenario import load_scenario
    sc = load_scenario(tmp_path / saved[0])
    assert sc.center.load_rate_per_hour == 5.0


def test_validate_passes(runner):
    res = runner.invoke(main, ["validate", "--seed", "4", "--instances", "2"])
    assert res.exit_code == 0
    assert res.output.count("[PASS]") == 6
    assert "[FAIL]" not in res.output


def test_validate_detects_corruption(runner):
    res = runner.invoke(main, ["validate", "--seed", "4", "--instances", "2",
                               "--corrupt-convolution"])
    assert res.exit_code == 1
    assert "[FAIL] log/linear convolution agreement" in res.output


def test_blocks_match_published_design():
    assert BLOCKS["I"].demand_choices == tuple(range(1, 9))
    assert BLOCKS["I"].mu1 == 4.0
    assert BLOCKS["II"].demand_choices == tuple(range(1, 17))
    assert BLOCKS["II"].mu1 == 5.0
    assert BLOCKS["III"].demand_choices == tuple(range(1, 22))
    assert BLOCKS["III"].mu1 == 7.0
    assert BLOCKS["IV"].demand_choices == (1, 11, 21)
    assert BLOCKS["IV"].mu1 == 7.0


def test_block_rejects_zero_demand():
    with pytest.raises(ScenarioError, match="demands must be positive"):
        ExperimentBlock("bad", (0, 1, 2), 4.0)


def test_sample_instance_shape():
    import numpy as np
    rng = np.random.default_rng(3)
    sc = sample_instance(rng, BLOCKS["III"], mu1=None, speed=50.0)
    assert len(sc.warehouses) == 12
    assert sc.center.load_rate_per_hour == 7.0
    assert sc.truck_speed_kmh == 50.0
    for w in sc.warehouses:
        assert 10.0 <= w.position[0] <= 410.0
        assert 10.0 <= w.position[1] <= 270.0
        assert w.demand_per_day in BLOCKS["III"].demand_choices


def test_cli_import_leaves_scipy_out():
    # scipy is needed only by the CTMC oracle, which imports it on first use
    import hubfleet
    src = str(Path(hubfleet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, hubfleet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
