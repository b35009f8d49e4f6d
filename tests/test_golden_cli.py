"""CLI output must stay byte-identical to the recorded golden files.

The files under ``golden/`` hold the stdout of each command below, run in
a directory holding the scenario files, and the expected exit code sits
next to the command.  A case may name, fourth, a file the command writes;
that file must match the golden file of the same name.  Any change to the normalization engine that moves a
printed digit or a fleet decision fails here.  ``towns12-log-multi.json``
is towns12-log with a two-dock hub and three two-dock warehouses.
"""

import shutil
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from hubfleet.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("solve_log", ["solve", "towns12-log.json", "--csv", "solve_log.csv"], 0,
     "solve_log.csv"),
    ("solve_pro", ["solve", "towns12-pro.json"], 0),
    ("solve_pro_mu1_3", ["solve", "towns12-pro.json", "--mu1", "3"], 2),
    ("solve_pro_mu1_3.38", ["solve", "towns12-pro.json", "--mu1", "3.38"], 0),
    # a given hub: the fleet search and analysis at that point, no Weber solve
    ("solve_pro_center_mu1_3.38", ["solve", "towns12-pro.json", "--center", "288.161,112.281",
                                   "--mu1", "3.38"], 0),
    ("solve_log_trucks_25", ["solve", "towns12-log.json", "--trucks", "25"], 0),
    # an infeasible row still names the fleet its figures describe: the
    # fixed fleet, or max_trucks when no fleet meets demand
    ("solve_log_trucks_5", ["solve", "towns12-log.json", "--trucks", "5",
                            "--csv", "solve_log_trucks_5.csv"], 2, "solve_log_trucks_5.csv"),
    ("solve_pro_mu1_3_csv", ["solve", "towns12-pro.json", "--mu1", "3",
                             "--csv", "solve_pro_mu1_3.csv"], 2, "solve_pro_mu1_3.csv"),
    ("solve_compare_log", ["solve", "towns12-log.json", "--compare",
                           "--csv", "solve_compare_log.csv"], 0, "solve_compare_log.csv"),
    ("solve_compare_pro", ["solve", "towns12-pro.json", "--compare"], 0),
    ("fleet_log", ["fleet", "towns12-log.json"], 0),
    ("fleet_pro_find_mu1", ["fleet", "towns12-pro.json", "--mu1", "3", "--find-mu1"], 2),
    # the rate prints at the step's resolution: 3.376, not 3.38
    ("fleet_pro_find_mu1_step_0.001",
     ["fleet", "towns12-pro.json", "--mu1", "3", "--find-mu1", "--mu1-step", "0.001"], 2),
    ("grid_log", ["grid", "towns12-log.json", "--radius", "10", "--step", "10"], 0),
    # fine grids around the hub, where neighbouring points tie to the printed
    # digit and only the exact maximum carries the mark
    ("grid_pro_r5", ["grid", "towns12-pro.json", "--radius", "5", "--step", "0.5"], 0),
    ("grid_log_r3", ["grid", "towns12-log.json", "--radius", "3", "--step", "0.25"], 0),
    ("generate_IV", ["generate", "--block", "IV", "--count", "20", "--seed", "1",
                     "--csv", "generate_IV.csv"], 0, "generate_IV.csv"),
    ("solve_multi", ["solve", "towns12-log-multi.json"], 0),
    ("solve_compare_multi", ["solve", "towns12-log-multi.json", "--compare"], 0),
    ("fleet_multi_find_mu1",
     ["fleet", "towns12-log-multi.json", "--mu1", "1.3", "--find-mu1"], 2),
    ("calibrate", ["calibrate"], 0),
    # a speed range that holds no reference column's interval
    ("calibrate_20_40", ["calibrate", "--smin", "20", "--smax", "40"], 1),
    ("weber_log", ["weber", "towns12-log.json"], 0),
    ("weber_pro", ["weber", "towns12-pro.json"], 0),
    ("weber_multi", ["weber", "towns12-log-multi.json"], 0),
]


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenarios")
    for name in ("towns12-log.json", "towns12-pro.json"):
        shutil.copy(str(files("hubfleet.data") / name), out / name)
    shutil.copy(GOLDEN / "towns12-log-multi.json", out)
    return out


@pytest.mark.parametrize("name,args,exit_code,written",
                         [(*case, None)[:4] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(name, args, exit_code, written, scenario_dir,
                                   monkeypatch):
    monkeypatch.chdir(scenario_dir)
    res = CliRunner().invoke(main, args)
    assert res.exit_code == exit_code, res.output
    assert res.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if written is not None:
        assert (scenario_dir / written).read_bytes() == (GOLDEN / written).read_bytes()
