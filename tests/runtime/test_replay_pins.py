"""Byte pins of the replay paths the goldens elsewhere do not cover.

Each case runs :func:`run_scenario` end to end (CAD synthesis, encode,
replay) and pins the sha256 of the sorted-key JSON report: the fleet
routers, cross-shard migration, every admission policy, the k-server
bank and a closed-loop fleet.  The digests are identical with numpy and
with ``REPRO_NO_NUMPY=1``.
"""

import hashlib
import json

import pytest

from repro.runtime import run_scenario

BASE = dict(
    kind="zipf", n_tasks=4, length=40, seed=3,
    arrivals="poisson", mean_interarrival=200,
)
SMOKE = dict(
    kind="zipf", n_tasks=2, length=14, seed=1,
    arrivals="poisson", mean_interarrival=1500,
)

REPLAY_PINS = [
    pytest.param(SMOKE, "d122c42ecf33a12c", id="open-loop-smoke"),
    pytest.param(dict(SMOKE, shards=4, router="hash"), "007ec04feb5189f8",
                 id="fleet-hash-4"),
    pytest.param(dict(BASE, shards=4, router="load", migrate_backlog=2,
                      servers=2),
                 "0f9c868fbe502c9a", id="fleet-load-migrate-k2"),
    pytest.param(dict(BASE, policy="defer-cold"), "fea51c9d5647af89",
                 id="defer-cold"),
    pytest.param(dict(BASE, policy="drop-cold"), "e37acf2b96b14a4f",
                 id="drop-cold"),
    pytest.param(dict(BASE, policy="priority", servers=2),
                 "ab4d6265c948a376", id="priority-k2"),
    pytest.param(dict(kind="round-robin", n_tasks=3, length=24, seed=1,
                      shards=2),
                 "0684eee3086715f3", id="closed-loop-fleet"),
    pytest.param(dict(kind="zipf", n_tasks=2, length=30, seed=2,
                      arrivals="poisson", mean_interarrival=300,
                      task_scope=True, shards=2, router="load",
                      migrate_backlog=1),
                 "495e05cdaf4d95d0", id="task-scope-fleet-migrate"),
]


def _digest(report: dict) -> str:
    blob = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("kwargs, digest", REPLAY_PINS)
def test_replay_report_is_pinned(kwargs, digest):
    assert _digest(run_scenario(**kwargs)) == digest
