"""A6 — open-loop workload engine: latency percentiles under arrivals.

Replays seeded Zipf-mix traces with Poisson arrival timestamps through
the workload simulator's virtual clock and reports the latency
percentiles, queue depths and server utilization the open-loop engine
adds — the numbers a production-scale runtime manager is sized by.
Everything is seeded, so ``extra_info`` values are comparable across
runs and machines.  The report bytes of the short open-loop and fleet
scenarios are pinned in ``tests/runtime/test_replay_pins.py``.
"""

import pytest

from repro.arch import FabricArch
from repro.runtime import (
    ExternalMemory,
    FabricManager,
    ReconfigurationController,
    WorkloadSimulator,
    generate_trace,
)
from repro.vbs import encode_flow

TRACE_LENGTH = 60


@pytest.fixture(scope="module")
def openloop_images(bench_flow, bench_config):
    """Two container variants of the bench circuit (distinct digests)."""
    return [
        ("plain", encode_flow(bench_flow, bench_config, cluster_size=1)),
        ("autoc", encode_flow(bench_flow, bench_config, cluster_size=1,
                              codecs="auto")),
    ]


def _manager(bench_flow, images):
    w, h = bench_flow.fabric.width, bench_flow.fabric.height
    fabric = FabricArch(
        bench_flow.params, w + w // 2 + 1, h + 1,
        {(x, y): "clb"
         for x in range(w + w // 2 + 1) for y in range(h + 1)},
    )
    ctrl = ReconfigurationController(fabric, ExternalMemory())
    for name, vbs in images:
        ctrl.store_vbs(name, vbs)
    return FabricManager(ctrl)


@pytest.mark.parametrize("mean_interarrival", [200, 5000])
def test_openloop_zipf_replay(benchmark, bench_flow, openloop_images,
                              mean_interarrival):
    """Saturated (200-cycle gaps) vs relaxed (5000) arrival pressure."""
    names = [name for name, _v in openloop_images]
    trace = generate_trace(
        "zipf", names, TRACE_LENGTH, seed=1,
        arrivals="poisson", mean_interarrival=mean_interarrival,
    )

    def replay():
        mgr = _manager(bench_flow, openloop_images)
        return WorkloadSimulator(mgr).run(trace)

    report = benchmark(replay)
    benchmark.extra_info["p50_latency"] = report["latency"]["p50"]
    benchmark.extra_info["p99_latency"] = report["latency"]["p99"]
    benchmark.extra_info["max_queue_depth"] = report["queue"]["max_depth"]
    benchmark.extra_info["utilization"] = report["clock"]["utilization"]


@pytest.mark.parametrize("router", ["hash", "load"])
def test_openloop_fleet_replay(benchmark, bench_flow, openloop_images,
                               router):
    """Four-shard fleet replay of a saturating trace (k servers)."""
    from repro.runtime import FleetManager

    names = [name for name, _v in openloop_images]
    trace = generate_trace(
        "zipf", names, TRACE_LENGTH, seed=1,
        arrivals="poisson", mean_interarrival=200,
    )

    def _fleet():
        w, h = bench_flow.fabric.width, bench_flow.fabric.height
        memory = ExternalMemory()
        managers = []
        for _shard in range(4):
            fabric = FabricArch(
                bench_flow.params, w + w // 2 + 1, h + 1,
                {(x, y): "clb"
                 for x in range(w + w // 2 + 1) for y in range(h + 1)},
            )
            managers.append(FabricManager(
                ReconfigurationController(fabric, memory)
            ))
        for name, vbs in openloop_images:
            managers[0].controller.store_vbs(name, vbs)
        return FleetManager(managers, router=router)

    def replay():
        return WorkloadSimulator(fleet=_fleet()).run(trace)

    report = benchmark(replay)
    benchmark.extra_info["p99_latency"] = report["latency"]["p99"]
    benchmark.extra_info["fleet_utilization"] = (
        report["clock"]["utilization"]
    )
