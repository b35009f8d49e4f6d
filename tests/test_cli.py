import functools
import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings

from hubfleet import cli, fleet
from hubfleet.cli import BLOCKS, ExperimentBlock, main, sample_instance
from hubfleet.scenario import ScenarioError, bundled_scenario, scenario_from_dict
from hubfleet.weber import solve_weber
from test_scenario import _scenario_json


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


def test_solve_compare_ignores_a_pinned_center(runner, log_path, tmp_path):
    # a scenario file may pin the hub; --compare places it both ways anyway
    raw = json.loads(Path(log_path).read_text())
    raw["center"]["location"] = [180.0, 156.0]
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps(raw))
    res = runner.invoke(main, ["solve", str(pinned), "--compare"])
    assert res.exit_code == 0, res.output
    plain = runner.invoke(main, ["solve", log_path, "--compare"])
    assert res.output == plain.output


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


def test_weber_verb_returns_an_optimal_warehouse_at_once(runner, log_path, tmp_path):
    # at warehouse 5 the pull of the other three equals its own weight
    raw = json.loads(Path(log_path).read_text())
    raw["warehouses"] = [
        {"id": i, "x": x, "y": y, "demand_per_day": 6.0, "servers": 1,
         "unload_rate_per_hour": 2.0}
        for i, (x, y) in zip((2, 3, 4, 5), ((30.0, 30.0), (10.0, 10.0),
                                           (10.0, 0.0), (20.0, 20.0)))]
    path = tmp_path / "four.json"
    path.write_text(json.dumps(raw))
    res = runner.invoke(main, ["weber", str(path)])
    assert res.exit_code == 0, res.output
    for tag in ("weighted  ", "unweighted"):
        assert f"{tag} (20.000, 20.000)" in res.output
    assert res.output.count("iterations 0  [at warehouse 5]") == 2


def test_fleet_verb_feasible(runner, log_path):
    res = runner.invoke(main, ["fleet", log_path])
    assert res.exit_code == 0
    assert "fleet size          19" in res.output


def test_fleet_find_mu1(runner, pro_path):
    res = runner.invoke(main, ["fleet", pro_path, "--mu1", "3", "--find-mu1"])
    assert res.exit_code == 2
    assert "infeasible: ceiling" in res.output
    assert "minimal hub rate    3.38/hour (fleet size 43)" in res.output


def test_fleet_find_mu1_probes_the_base_rate_once(runner, pro_path, monkeypatch):
    probes = []
    min_trucks = fleet.min_trucks

    def counting(scenario, center):
        probes.append(scenario.center.load_rate_per_hour)
        return min_trucks(scenario, center)

    monkeypatch.setattr(fleet, "min_trucks", counting)
    monkeypatch.setattr(cli, "min_trucks", counting)
    res = runner.invoke(main, ["fleet", pro_path, "--mu1", "3", "--find-mu1"])
    assert res.exit_code == 2
    # min_trucks decides the infinitely fast hub on the table the search
    # then reads, and 3.38 is the first grid point past the demand bound, so
    # nothing below it is probed
    assert probes == [3.0, math.inf, pytest.approx(3.38)]


def test_fleet_find_mu1_with_a_step_too_small_exits_1(runner, pro_path):
    # the demand bound over a step of 1e-310 overflows the grid index
    res = runner.invoke(main, ["fleet", pro_path, "--mu1", "3", "--find-mu1",
                               "--mu1-step", "1e-310"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "fleet size          -- (infeasible: ceiling)" in res.stdout
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rate_step 1e-310")


@pytest.mark.parametrize("verb,args,line", [
    ("weber", [], "weighted "),
    ("weber", [], "unweighted "),
    ("solve", [], "hub location "),
    ("fleet", [], "hub location "),
    ("grid", ["--radius", "10", "--step", "10"], "hub point "),
], ids=["weber-weighted", "weber-unweighted", "solve", "fleet", "grid"])
def test_an_unconverged_hub_point_is_marked(runner, log_path, monkeypatch, verb, args, line):
    # towns12-log's weighted and unweighted solves take 36 and 34 steps
    monkeypatch.setattr(cli, "solve_weber", functools.partial(solve_weber, max_iter=3))
    res = runner.invoke(main, [verb, log_path, *args])
    assert res.exit_code == 0
    [marked] = [l for l in res.stdout.splitlines() if l.startswith(line)]
    assert marked.endswith("  [not converged]")


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
    ("grid", ["--radius", "inf", "--step", "1"]),
    ("grid", ["--radius", "10", "--step", "nan"]),
    ("solve", ["--busy-decimals", "-1"]),
    ("generate", ["--block", "I", "--seed", "-1"]),
    # speeds must be positive and finite, like a scenario's truck speed
    ("calibrate", ["--smin", "-5"]),
    # about 4e18 grid points
    ("grid", ["--radius", "1", "--step", "1e-9"]),
    # zero instances would run every per-instance check zero times
    ("validate", ["--instances", "0"]),
    ("validate", ["--instances", "-1"]),
    ("validate", ["--seed", "-1"]),
    ("calibrate", ["--smin", "50", "--smax", "30"]),
    ("calibrate", ["--smin", "50", "--smax", "50"]),
    # an infinite step would report the grid point 1 * inf as the answer
    ("fleet", ["--mu1", "1", "--find-mu1", "--mu1-step", "inf"]),
    ("solve", ["--trucks", "0"]),
    ("generate", ["--block", "I", "--seed", "1", "--count", "0"]),
    # 1 / 1e-320 is inf, so the hub refuses the rate
    ("solve", ["--mu1", "1e-320"]),
    ("generate", ["--block", "I", "--count", "2", "--seed", "1", "--mu1", "1e-320"]),
    # a table out to millions of trucks would exhaust memory
    ("solve", ["--trucks", "100001"]),
    ("grid", ["--radius", "10", "--step", "10", "--trucks", "100001"]),
    # generate holds every instance before it solves any
    ("generate", ["--block", "I", "--seed", "1", "--count", "10001"]),
    ("generate", ["--block", "I", "--seed", "1", "--count", "50000000"]),
    # past a double's 17 significant digits; in the millions a line of megabytes
    ("solve", ["--busy-decimals", "18"]),
    ("solve", ["--busy-decimals", "3000000000"]),
    ("generate", ["--block", "I", "--seed", "1", "--busy-decimals", "18"]),
    ("calibrate", ["--smin", "0"]),
    ("calibrate", ["--smax", "inf"]),
])
def test_bad_option_exits_1_with_one_line(runner, log_path, verb, args):
    # generate, calibrate and validate take no scenario file
    argv = ([verb, *args] if verb in ("generate", "calibrate", "validate")
            else [verb, log_path, *args])
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if verb in ("validate", "calibrate"):
        assert args[0] in lines[0]   # the message names the option


def test_a_scenario_fleet_cap_above_the_limit_exits_1(runner, log_path, tmp_path):
    raw = json.loads(Path(log_path).read_text())
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({**raw, "max_trucks": cli._MAX_TRUCKS + 1}))
    res = runner.invoke(main, ["fleet", str(path)])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr.splitlines() == [f"error: max_trucks must be at most {cli._MAX_TRUCKS}"]
    # at the limit the search runs, and stops at the answer far below it
    path.write_text(json.dumps({**raw, "max_trucks": cli._MAX_TRUCKS}))
    res = runner.invoke(main, ["fleet", str(path)])
    assert res.exit_code == 0 and "fleet size          19" in res.output


def test_busy_decimals_at_the_limit_print_every_place(runner, log_path):
    res = runner.invoke(main, ["solve", log_path, "--busy-decimals", str(cli._MAX_DECIMALS)])
    assert res.exit_code == 0
    busy = next(line for line in res.output.splitlines() if line.startswith("hub busy"))
    assert len(busy.split()[-1].split(".")[1]) == cli._MAX_DECIMALS


_FUZZ_VERBS = (["solve"], ["solve", "--compare"], ["weber"], ["fleet", "--find-mu1"],
               ["grid", "--radius", "1", "--step", "1"])


@settings(max_examples=200, deadline=None)
@given(data=_scenario_json())
# 1 / 1e-320 is inf, so the loader refuses the dock rate
@example(data={"warehouses": [{"id": 2, "x": 0.0, "y": 0.0, "demand_per_day": 1.0,
                               "unload_rate_per_hour": 1e-320}],
               "center": {"load_rate_per_hour": 1.0}, "truck_speed_kmh": 1.0})
# a dock ceiling exactly at demand, which the hub-free table at max_trucks
# rounds up to meeting it: --find-mu1 must still report the ceiling
@example(data={"warehouses": [{"id": i, "x": 1.0, "y": 1.0, "demand_per_day": d,
                               "unload_rate_per_hour": 1.0}
                              for i, d in ((2, 1.0), (3, 2.0), (4, 1.0))],
               "center": {"load_rate_per_hour": 1.0}, "truck_speed_kmh": 1.0,
               "hours_per_day": 2.0})
def test_verbs_on_fuzzed_scenarios_exit_cleanly(runner, tmp_path_factory, data):
    # every scenario the loader accepts runs through each verb to an exit
    # code, never to a traceback
    try:
        scenario_from_dict(data)
    except ScenarioError:
        return
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(data))
    for verb, *args in _FUZZ_VERBS:
        res = runner.invoke(main, [verb, str(path), *args])
        assert res.exit_code in (0, 1, 2), (verb, args, data, res.exception)
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            (verb, args, data, res.exception)
        if res.exit_code == 1:
            lines = res.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (verb, args, data)


def test_grid_has_no_around_weber_flag(runner, log_path):
    res = runner.invoke(main, ["grid", log_path, "--around-weber",
                               "--radius", "10", "--step", "10"])
    assert res.exit_code == 1
    [line] = res.stderr.splitlines()
    assert line.startswith("error: ") and "No such option" in line


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["solve", "{log}", "--bogus"],
    ["solve", "{log}", "--trucks", "abc"],
    ["grid", "{log}", "--radius", "1"],
    ["generate", "--block", "V", "--seed", "1"],
    ["generate", "--block", "I", "--seed", "1", "--count", "2", "--outdir", "{file}"],
    ["nosuch"],
    ["--bogus"],
    [],
], ids=["missing-file", "unknown-option", "bad-integer", "missing-option",
        "bad-choice", "outdir-is-a-file", "unknown-verb", "unknown-group-option",
        "no-verb"])
def test_usage_errors_exit_1_with_one_line(runner, log_path, tmp_path, argv):
    # what click rejects by itself exits like any other bad input, not with
    # code 2, which means infeasible
    existing = tmp_path / "existing.txt"
    existing.write_text("")
    argv = [a.format(log=log_path, file=existing) for a in argv]
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    [line] = res.stderr.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "{log}", "--csv", "{out}"],
    ["calibrate", "--out", "{out}"],
    ["generate", "--block", "I", "--seed", "1", "--count", "2", "--csv", "{out}"],
], ids=["solve", "calibrate", "generate"])
def test_an_unwritable_output_path_exits_1_with_one_line(runner, log_path, tmp_path, argv):
    out = tmp_path / "missing" / "out.txt"
    res = runner.invoke(main, [a.format(log=log_path, out=out) for a in argv])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert line.startswith("error: ") and str(out) in line


def test_calibrate_out_writes_what_it_prints(runner, tmp_path):
    out = tmp_path / "calibrate.txt"
    res = runner.invoke(main, ["calibrate", "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / "calibrate.txt").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    assert res.stdout.startswith("Usage: ") and res.stderr == ""


@pytest.mark.parametrize("raised,stderr", [
    # a reader of stdout that went away (a pipe into head) ends the run quietly
    (BrokenPipeError, ""),
    (KeyboardInterrupt, "\nAborted!\n"),
])
def test_click_still_handles_a_closed_pipe_and_ctrl_c(runner, log_path, monkeypatch,
                                                       raised, stderr):
    def interrupted(*args, **kwargs):
        raise raised()
    monkeypatch.setattr(cli, "solve_weber", interrupted)
    res = runner.invoke(main, ["weber", log_path])
    assert res.exit_code == 1
    assert res.stderr == stderr


def test_generate_deterministic(runner):
    args = ["generate", "--block", "I", "--count", "3", "--seed", "17"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    other = runner.invoke(main, ["generate", "--block", "I", "--count", "3",
                                 "--seed", "18"])
    assert other.output != first.output


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


def test_validate_detects_corruption(runner, monkeypatch):
    from hubfleet import oracle
    failing = oracle.CheckResult("log/linear convolution agreement", False,
                                 "NumericalRangeError: paths disagree")
    monkeypatch.setattr(oracle, "run_validation_suite", lambda **kw: [failing])
    res = runner.invoke(main, ["validate", "--seed", "4", "--instances", "2"])
    assert res.exit_code == 1
    assert "[FAIL] log/linear convolution agreement" in res.output
    res = runner.invoke(main, ["validate", "--corrupt-convolution"])
    assert res.exit_code == 1
    [line] = res.stderr.splitlines()
    assert line.startswith("error: ") and "No such option" in line


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


def _src_env() -> dict:
    """The environment for a child interpreter that imports this hubfleet."""
    import hubfleet
    src = str(Path(hubfleet.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_cli_import_leaves_scipy_out():
    # hubfleet needs no scipy; a stray import would slow every verb's start-up
    code = ("import sys, hubfleet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_pure_python_verbs_leave_numpy_and_the_oracles_out(log_path):
    # solve, fleet, weber, grid and calibrate compute in plain Python; numpy
    # alone is most of a cold start-up, and a process pool 15-25 ms more.
    # Only calibrate needs the calibration, 8-12 ms of import.
    code = f"""
import json, sys
import hubfleet
calibration = {{"import hubfleet": "hubfleet.calibration" in sys.modules}}
from click.testing import CliRunner
import hubfleet.cli
heavy = ("numpy", "hubfleet.oracle", "concurrent.futures.process", "multiprocessing")
def loaded():
    return [m for m in heavy if m in sys.modules]
seen = {{"import": loaded(), "calibration": calibration}}
calibration["import hubfleet.cli"] = "hubfleet.calibration" in sys.modules
runner = CliRunner()
for argv in (["solve", {log_path!r}], ["solve", {log_path!r}, "--compare"],
             ["fleet", {log_path!r}, "--mu1", "2", "--find-mu1"],
             ["weber", {log_path!r}], ["grid", {log_path!r}, "--radius", "1", "--step", "1"],
             ["calibrate"]):
    res = runner.invoke(hubfleet.cli.main, argv)
    assert res.exit_code in (0, 2), (argv, res.output)
    seen[argv[0]] = loaded()
    calibration[argv[0]] = "hubfleet.calibration" in sys.modules
res = runner.invoke(hubfleet.cli.main, ["generate", "--block", "I", "--count", "3",
                                         "--seed", "21"])
assert res.exit_code == 0, res.output
seen["generate"] = loaded()
print(json.dumps(seen))
"""
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, timeout=300, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    for verb in ("import", "solve", "fleet", "weber", "grid", "calibrate"):
        assert seen[verb] == [], verb
    assert seen["calibration"] == {"import hubfleet": False, "import hubfleet.cli": False,
                                   "solve": False, "fleet": False, "weber": False,
                                   "grid": False, "calibrate": True}
    # generate draws with numpy
    assert seen["generate"] == ["numpy"]


def test_the_oracle_names_load_on_first_access():
    import hubfleet
    from hubfleet import calibration, oracle
    assert hubfleet.simulate is oracle.simulate
    assert hubfleet.run_validation_suite is oracle.run_validation_suite
    assert hubfleet.calibrate_speed is calibration.calibrate_speed
    from hubfleet import CheckResult, random_scenario   # noqa: F401
    # the explicit station-list API lives in the oracles, and the engine
    # module answers for the two names that perfbench's tracer patches there
    for name in ("Station", "multi_server", "infinite_server", "convolve_stations",
                 "marginal_distribution"):
        assert getattr(hubfleet, name) is getattr(oracle, name)
    assert hubfleet.convolution.convolve_stations is oracle.convolve_stations
    assert hubfleet.convolution.marginal_distribution is oracle.marginal_distribution
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hubfleet.no_such_name


def test_a_rate_with_an_infinite_reciprocal_exits_1_naming_the_field(runner, log_path,
                                                                       tmp_path):
    res = runner.invoke(main, ["solve", log_path, "--mu1", "1e-320"])
    assert res.exit_code == 1
    assert res.stderr.splitlines() == [
        "error: center: load_rate_per_hour must be positive with a finite reciprocal"]
    data = json.loads(Path(log_path).read_text())
    data["warehouses"][3]["unload_rate_per_hour"] = 1e-320
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["solve", str(path)])
    assert res.exit_code == 1
    wid = data["warehouses"][3]["id"]
    assert res.stderr.splitlines() == [
        f"error: warehouse {wid}: unload_rate_per_hour must be positive with a "
        "finite reciprocal"]


def test_fleet_find_mu1_prints_a_tiny_step_rate_in_at_most_repr_digits(runner, pro_path):
    res = runner.invoke(main, ["fleet", pro_path, "--mu1", "3", "--find-mu1",
                               "--mu1-step", "1e-300"])
    assert res.exit_code == 2
    (line,) = [ln for ln in res.output.splitlines() if ln.startswith("minimal hub rate")]
    assert len(line) <= 80
    scenario = bundled_scenario("towns12-pro").with_center_rate(3.0)
    center = solve_weber(cli.WeberProblem.from_scenario(scenario, True)).location
    rate, _ = fleet.min_center_rate(scenario, center, rate_step=1e-300)
    assert float(line.split()[3].partition("/")[0]) == rate


@pytest.mark.parametrize("path, fleet", [
    (files("hubfleet.data") / "towns12-log.json", 19),
    (files("hubfleet.data") / "towns12-pro.json", 28),
    (Path(__file__).parent / "golden" / "towns12-log-multi.json", 20),
], ids=["log", "pro", "multi"])
@pytest.mark.parametrize("below", [0, 1])
def test_solve_trucks_agrees_with_min_trucks_at_the_edge(runner, path, fleet, below):
    # solve --trucks decides feasibility by fleet.meets_demand, the rule
    # min_trucks asks; at min_trucks' fleet it must say yes, and one truck
    # below it no
    assert f"fleet size          {fleet}\n" in runner.invoke(main, ["solve", str(path)]).output
    res = runner.invoke(main, ["solve", str(path), "--trucks", str(fleet - below)])
    assert res.exit_code == (2 if below else 0)
    assert f"feasible            {'no' if below else 'yes'}\n" in res.output


@pytest.mark.parametrize("verb, center", [("solve", "1.7e308,1.7e308"),
                                          ("fleet", "-1.7e308,1.7e308")])
def test_a_hub_whose_distances_overflow_exits_1_with_one_line(runner, log_path, verb, center):
    # each coordinate is finite, but the distance to a town is not
    res = runner.invoke(main, [verb, log_path, "--center", center])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr.splitlines() == ["error: distances must be finite"]
