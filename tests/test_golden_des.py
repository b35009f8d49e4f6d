"""``simulate`` must reproduce the recorded estimates bit for bit.

``golden/des.json`` holds ``float.hex`` of every array and half-width that
``simulate`` returned for the cases below.  The cases cover each way a lane
or a station draws its times (exponential, deterministic and callable
travel, multi-server hubs and docks), the warm-up edge, a single
replication, a long hub queue (``fleet_2000``, whose two thousand
trucks all start at the hub), and a hub on a warehouse (its two lanes have
zero length, so a departure's next event falls at the instant that made
it).  Any change to the event loop or to the order in which draws are
taken from the generators fails here.

Each case runs twice: as ``simulate`` deals its replications to this
process and its workers, and with ``os.sched_getaffinity`` reporting one
CPU, which keeps every replication in this process.  Both must give the
recorded bits.

Run ``python tests/test_golden_des.py`` to re-record the file after a
deliberate change to the draw streams.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hubfleet.oracle import random_scenario, simulate
from hubfleet.scenario import bundled_scenario
from hubfleet.star import build_star

GOLDEN = Path(__file__).parent / "golden" / "des.json"

# near the weighted hub point of towns12-log, fixed so Weber changes do not
# move the simulated network
_TOWNS_HUB = (180.0, 156.0)


def _uniform_travel(rng, mean):
    return rng.uniform(0.0, 2.0 * mean)


def _towns(trucks, **kw):
    return build_star(bundled_scenario("towns12-log"), _TOWNS_HUB), trucks, kw


def _hub_on_a_warehouse(trucks, **kw):
    sc = bundled_scenario("towns12-log")
    return build_star(sc, sc.warehouses[0].position), trucks, kw


def _multi_server(trucks, **kw):
    sc = random_scenario(np.random.default_rng(0), 3, max_servers=3)
    return build_star(sc, (0.0, 0.0)), trucks, kw


CASES = {
    "towns_exponential": lambda: _towns(19, horizon_events=20_000,
                                        replications=3, seed=11),
    "towns_deterministic": lambda: _towns(19, horizon_events=20_000,
                                          replications=3, seed=11,
                                          travel="deterministic"),
    "towns_callable_uniform": lambda: _towns(12, horizon_events=10_000,
                                             replications=2, seed=12,
                                             travel=_uniform_travel),
    "multi_server_star": lambda: _multi_server(9, horizon_events=20_000,
                                               replications=3, seed=13),
    "no_warmup": lambda: _towns(15, horizon_events=8_000, replications=2,
                                seed=14, warmup_fraction=0.0),
    "one_replication": lambda: _multi_server(6, horizon_events=15_000,
                                             replications=1, seed=15),
    "fleet_2000": lambda: _towns(2000, horizon_events=12_000,
                                 replications=2, seed=16),
    "hub_on_a_warehouse": lambda: _hub_on_a_warehouse(19, horizon_events=20_000,
                                                      replications=2, seed=17),
    "hub_on_a_warehouse_deterministic": lambda: _hub_on_a_warehouse(
        19, horizon_events=20_000, replications=2, seed=17, travel="deterministic"),
}


def _record(est) -> dict:
    return {
        "per_replication": [float(v).hex() for v in est.per_replication],
        "station_sojourn": [float(v).hex() for v in est.station_sojourn],
        "station_throughput": [float(v).hex() for v in est.station_throughput],
        "warehouse_throughput": float(est.warehouse_throughput).hex(),
        "warehouse_throughput_hw": float(est.warehouse_throughput_hw).hex(),
    }


def _run(name: str) -> dict:
    star, trucks, kw = CASES[name]()
    return _record(simulate(star, trucks, **kw))


def _matches_golden(name: str) -> bool:
    return _run(name) == json.loads(GOLDEN.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name, one_cpu", [
    *(pytest.param(name, False, id=name) for name in CASES),
    *(pytest.param(name, True, id=f"{name}-one_cpu") for name in CASES),
])
def test_des_matches_golden(name, one_cpu, monkeypatch):
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _matches_golden(name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _run(name) for name in CASES}, indent=1)
                      + "\n", encoding="utf-8")
