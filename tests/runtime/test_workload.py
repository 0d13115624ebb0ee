"""Workload scenario layer: trace generator, simulator, goldens, CLI.

Determinism is the load-bearing property — a seeded trace must replay to
the *identical* report (that is what makes reports usable as regression
artifacts), and one small hand-built scenario is pinned end-to-end as a
golden so any drift in the trace generator, the eviction policy, the
cache accounting or the cost model fails loudly here.
"""

import json

import pytest

from repro.arch import FabricArch
from repro.errors import RuntimeManagementError
from repro.runtime import (
    TRACE_KINDS,
    ExternalMemory,
    FabricManager,
    ReconfigurationController,
    TraceEvent,
    WorkloadSimulator,
    generate_trace,
    run_scenario,
)
from repro.utils.bitarray import BitArray
from repro.vbs.encode import VirtualBitstream
from repro.vbs.format import ClusterRecord, VbsLayout


def _logic(layout, positions):
    arr = BitArray(layout.logic_bits_per_cluster)
    for p in positions:
        arr[p] = 1
    return arr


def _image(params, bits_a, bits_b):
    """A hand-built 3x2 VBS (logic-only records decode with zero routing)."""
    layout = VbsLayout(params, 1, 3, 2)
    records = [
        ClusterRecord((0, 0), raw=False, logic=_logic(layout, bits_a),
                      pairs=[]),
        ClusterRecord((2, 1), raw=False, logic=_logic(layout, bits_b),
                      pairs=[]),
    ]
    return VirtualBitstream(layout, records)


@pytest.fixture(scope="module")
def images(params5):
    """Two distinct-digest task images, no CAD flow involved."""
    return [
        ("a", _image(params5, [0, 7], [3])),
        ("b", _image(params5, [1, 2], [5, 6])),
    ]


def _manager(params5, images, width=7, height=3, **ctrl_kwargs):
    fabric = FabricArch(
        params5, width, height,
        {(x, y): "clb" for x in range(width) for y in range(height)},
    )
    ctrl = ReconfigurationController(fabric, ExternalMemory(), **ctrl_kwargs)
    for name, vbs in images:
        ctrl.store_vbs(name, vbs)
    return FabricManager(ctrl)


class TestTraceGenerator:
    def test_unknown_kind_rejected(self):
        with pytest.raises(RuntimeManagementError):
            generate_trace("zipfian", ["a"], 10)

    def test_empty_task_list_rejected(self):
        with pytest.raises(RuntimeManagementError):
            generate_trace("hot-set", [], 10)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_length_and_task_closure(self, kind):
        trace = generate_trace(kind, ["a", "b", "c"], 25, seed=9)
        assert len(trace) == 25
        assert all(e.task in ("a", "b", "c") for e in trace.events)
        assert all(e.op in ("load", "unload", "migrate")
                   for e in trace.events)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_same_seed_same_trace(self, kind):
        one = generate_trace(kind, ["a", "b", "c"], 40, seed=3)
        two = generate_trace(kind, ["a", "b", "c"], 40, seed=3)
        assert one == two

    def test_different_seeds_differ(self):
        one = generate_trace("hot-set", ["a", "b", "c", "d"], 40, seed=0)
        two = generate_trace("hot-set", ["a", "b", "c", "d"], 40, seed=1)
        assert one.events != two.events

    def test_adversarial_alternates_load_unload(self):
        trace = generate_trace("adversarial", ["a", "b", "c"], 12, seed=0)
        ops = [e.op for e in trace.events]
        assert ops == ["load", "unload"] * 6
        loads = [e.task for e in trace.events if e.op == "load"]
        assert loads == ["a", "b", "c", "a", "b", "c"]


class TestSimulatorDeterminism:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_fixed_seed_replays_identically(self, params5, images, kind):
        trace = generate_trace(kind, [n for n, _v in images], 30, seed=7)
        reports = [
            WorkloadSimulator(_manager(params5, images)).run(trace)
            for _ in range(2)
        ]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_reports_are_json_serializable(self, params5, images):
        trace = generate_trace("round-robin", [n for n, _v in images], 10)
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert json.loads(json.dumps(report)) == report


#: End-to-end pinned report: 18 hot-set events over two hand-built tasks
#: on a 7x3 fabric.  Regenerate ONLY for an intentional, documented
#: behavior change (and say why in the commit): this string pins the
#: trace generator's event stream, the simulator's eviction policy, the
#: cache counters and the integer cost model all at once.
GOLDEN_TRACE_SEED = 4
# PR 5 regeneration: the report schema gained the always-present
# "shared_dicts" section (VERSION 4 table lifecycle counters); every
# pre-existing key is byte-identical to the PR 3 golden.
GOLDEN_REPORT = (
    '{"bytes_decoded": 426, "cache": {"bytes_in_cache": 426, "capacity": 16,'
    ' "capacity_bytes": null, "enabled": true, "entries": 2, "evictions": 0,'
    ' "hit_rate": 0.7777777777777778, "hits": 7, "misses": 2}, "cycles":'
    ' {"decode": 0, "fetch": 63, "total": 549, "write": 486}, "events":'
    ' {"evictions_for_space": 0, "failed_loads": 0, "loads": 9,'
    ' "migrations": 0, "skipped": 1, "unloads": 8}, "fabric": {"height": 3,'
    ' "resident_at_end": ["b"], "utilization": 0.2857142857142857,'
    ' "width": 7}, "load_cache_hits": 7, "per_task": {"a": {"cache_hits": 6,'
    ' "loads": 7, "migrations": 0}, "b": {"cache_hits": 1, "loads": 2,'
    ' "migrations": 0}}, "report_version": 1, "shared_dicts": {"drops": 0,'
    ' "faults": 0, "max_resident": 0, "resident_at_end": []}, "trace":'
    ' {"kind": "hot-set", "length": 18, "seed": 4, "tasks": ["a", "b"]}}'
)


class TestGoldenReport:
    def test_small_trace_end_to_end(self, params5, images):
        trace = generate_trace(
            "hot-set", [n for n, _v in images], 18, seed=GOLDEN_TRACE_SEED
        )
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert json.dumps(report, sort_keys=True) == GOLDEN_REPORT


#: The open-loop companion golden: the same 18-event hot-set trace with
#: Poisson timestamps at a 60-cycle mean gap (far below the ~60-cycle
#: service times, so the queue really builds).  Pins the arrival-clock
#: stream, the FIFO server model, the nearest-rank percentiles and the
#: queue-depth accounting on top of everything the closed-loop golden
#: pins.  Regenerate ONLY for an intentional, documented change.
GOLDEN_OPENLOOP_MEAN_GAP = 60
GOLDEN_OPENLOOP_REPORT = (
    '{"bytes_decoded": 426, "cache": {"bytes_in_cache": 426, "capacity": 16,'
    ' "capacity_bytes": null, "enabled": true, "entries": 2, "evictions": 0,'
    ' "hit_rate": 0.7777777777777778, "hits": 7, "misses": 2}, "clock":'
    ' {"busy_cycles": 549, "makespan": 583, "utilization":'
    ' 0.9416809605488851}, "cycles": {"decode": 0, "fetch": 63, "total": 549,'
    ' "write": 486}, "events": {"evictions_for_space": 0, "failed_loads": 0,'
    ' "loads": 9, "migrations": 0, "skipped": 1, "unloads": 8}, "fabric":'
    ' {"height": 3, "resident_at_end": ["b"], "utilization":'
    ' 0.2857142857142857, "width": 7}, "latency": {"max": 204, "mean":'
    ' 137.77777777777777, "p50": 147, "p95": 204, "p99": 204, "phases":'
    ' {"decode": {"p50": 0, "p95": 0, "p99": 0}, "fetch": {"p50": 7, "p95":'
    ' 7, "p99": 7}, "write": {"p50": 54, "p95": 54, "p99": 54}}, "queueing":'
    ' {"max": 143, "p50": 86, "p95": 143, "p99": 143, "total": 691},'
    ' "requests": 9, "unit": "cycles"}, "load_cache_hits": 7, "per_task":'
    ' {"a": {"cache_hits": 6, "loads": 7, "migrations": 0}, "b":'
    ' {"cache_hits": 1, "loads": 2, "migrations": 0}}, "queue": {"arrivals":'
    ' 11, "max_depth": 5, "mean_depth": 3.1818181818181817},'
    ' "report_version": 1, "shared_dicts": {"drops": 0, "faults": 0,'
    ' "max_resident": 0, "resident_at_end": []}, "trace": {"arrivals":'
    ' "poisson", "kind": "hot-set", "length": 18, "mean_interarrival": 60,'
    ' "seed": 4, "tasks": ["a", "b"]}}'
)


class TestOpenLoopGolden:
    def test_open_loop_trace_end_to_end(self, params5, images):
        trace = generate_trace(
            "hot-set", [n for n, _v in images], 18, seed=GOLDEN_TRACE_SEED,
            arrivals="poisson",
            mean_interarrival=GOLDEN_OPENLOOP_MEAN_GAP,
        )
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert json.dumps(report, sort_keys=True) == GOLDEN_OPENLOOP_REPORT


class TestOpenLoopEngine:
    def _trace(self, images, mean_gap, kind="hot-set", length=24, seed=7):
        return generate_trace(
            kind, [n for n, _v in images], length, seed=seed,
            arrivals="poisson", mean_interarrival=mean_gap,
        )

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(RuntimeManagementError):
            generate_trace("hot-set", ["a"], 4, arrivals="bursty")

    def test_bad_mean_interarrival_rejected(self):
        with pytest.raises(RuntimeManagementError):
            generate_trace("hot-set", ["a"], 4, arrivals="poisson",
                           mean_interarrival=0)

    def test_timestamps_monotone_and_shared_per_arrival(self, images):
        trace = self._trace(images, 500)
        stamps = [e.at for e in trace.events]
        assert all(s is not None for s in stamps)
        assert stamps == sorted(stamps)
        # A load and the eviction unloads preceding it share one stamp,
        # so distinct stamps number at most the count of arrivals.
        assert len(set(stamps)) <= len(stamps)

    def test_task_mix_identical_with_and_without_timestamps(self, images):
        names = [n for n, _v in images]
        closed = generate_trace("hot-set", names, 30, seed=9)
        opened = generate_trace("hot-set", names, 30, seed=9,
                                arrivals="poisson")
        assert [(e.op, e.task) for e in closed.events] == [
            (e.op, e.task) for e in opened.events
        ]

    def test_open_loop_report_is_deterministic(self, params5, images):
        trace = self._trace(images, 80)
        reports = [
            WorkloadSimulator(_manager(params5, images)).run(trace)
            for _ in range(2)
        ]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_saturation_builds_queue_and_relaxation_drains_it(
        self, params5, images
    ):
        # Arrivals far faster than the ~60-cycle services must queue;
        # arrivals far slower must not.
        tight = WorkloadSimulator(_manager(params5, images)).run(
            self._trace(images, 10)
        )
        relaxed = WorkloadSimulator(_manager(params5, images)).run(
            self._trace(images, 100000)
        )
        assert tight["queue"]["max_depth"] > 1
        assert tight["latency"]["queueing"]["total"] > 0
        assert relaxed["queue"]["max_depth"] == 1
        assert relaxed["latency"]["queueing"]["total"] == 0
        # Without queueing, latency is pure service time: the percentile
        # of the phase sums matches the end-to-end percentile.
        assert relaxed["latency"]["p99"] <= tight["latency"]["p99"]
        assert relaxed["clock"]["utilization"] < tight["clock"]["utilization"]

    def test_arrivals_counted_per_request_not_per_event(self, params5,
                                                        images):
        # Events sharing a timestamp (a load plus its eviction unloads)
        # are one request: the queue section must not double-count them.
        trace = self._trace(images, 500, kind="round-robin", length=30)
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        requests = len({e.at for e in trace.events})
        assert report["queue"]["arrivals"] == requests
        assert requests < len(trace.events)  # grouping really happened

    def test_run_scenario_rejects_bad_mix_before_synthesis(self):
        import time

        from repro.runtime import run_scenario

        start = time.perf_counter()
        with pytest.raises(RuntimeManagementError):
            run_scenario(kind="nope", n_tasks=2, length=8)
        with pytest.raises(RuntimeManagementError):
            run_scenario(arrivals="uniform", n_tasks=2, length=8)
        # Validation must not pay for CAD flows first (they take
        # seconds; rejection is effectively instant).
        assert time.perf_counter() - start < 1.0

    def test_percentiles_are_ordered_and_bounded(self, params5, images):
        report = WorkloadSimulator(_manager(params5, images)).run(
            self._trace(images, 40)
        )
        la = report["latency"]
        assert la["p50"] <= la["p95"] <= la["p99"] <= la["max"]
        assert la["requests"] > 0
        for phase in ("fetch", "decode", "write"):
            ph = la["phases"][phase]
            assert ph["p50"] <= ph["p95"] <= ph["p99"]

    def test_closed_loop_report_has_no_clock_sections(self, params5, images):
        trace = generate_trace("hot-set", [n for n, _v in images], 12, seed=2)
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert "latency" not in report
        assert "queue" not in report
        assert "clock" not in report
        assert "arrivals" not in report["trace"]


class TestZipfMix:
    def test_zipf_in_trace_kinds(self):
        assert "zipf" in TRACE_KINDS

    def test_zipf_records_alpha(self):
        trace = generate_trace("zipf", ["a", "b", "c"], 20, seed=1,
                               zipf_alpha=1.4)
        assert trace.zipf_alpha == 1.4
        assert all(e.op in ("load", "unload") for e in trace.events)

    def test_bad_alpha_rejected(self):
        with pytest.raises(RuntimeManagementError):
            generate_trace("zipf", ["a"], 4, zipf_alpha=0.0)

    def test_non_zipf_traces_do_not_record_alpha(self):
        assert generate_trace("hot-set", ["a"], 4).zipf_alpha is None


class TestSummarizeCompatibility:
    def test_tolerates_pre_open_loop_reports(self, params5, images):
        # A report written by the PR 3/4 schema: no latency, queue,
        # clock or shared_dicts sections.  summarize_report must render
        # it without tripping on the missing keys.
        from repro.runtime.workload import summarize_report

        trace = generate_trace("round-robin", [n for n, _v in images], 8)
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        for legacy_missing in ("latency", "queue", "clock", "shared_dicts"):
            report.pop(legacy_missing, None)
        text = summarize_report(report)
        assert "hit rate" in text
        assert "latency" not in text

    def test_renders_open_loop_sections(self, params5, images):
        from repro.runtime.workload import summarize_report

        trace = generate_trace(
            "hot-set", [n for n, _v in images], 18, seed=4,
            arrivals="poisson", mean_interarrival=60,
        )
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        text = summarize_report(report)
        assert "p95" in text and "queue" in text and "utilization" in text

    def test_tolerates_null_latency_report(self, params5, images):
        # An empty open-loop trace reports ``latency: null`` — the
        # degenerate-but-valid schema.  The summary must skip the
        # latency/queue lines instead of subscripting None.
        from repro.runtime.workload import (
            WorkloadTrace,
            summarize_report,
        )

        trace = WorkloadTrace(
            kind="zipf", seed=1, tasks=("a", "b"), events=(),
            arrivals="poisson", mean_interarrival=500, zipf_alpha=1.1,
        )
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert report["latency"] is None
        text = summarize_report(report)
        assert "0 events" in text
        assert "p95" not in text and "queue" not in text

    def test_renders_k_server_bank(self, params5, images):
        from repro.runtime.workload import summarize_report

        trace = generate_trace(
            "hot-set", [n for n, _v in images], 18, seed=4,
            arrivals="poisson", mean_interarrival=60,
        )
        report = WorkloadSimulator(
            _manager(params5, images), servers=3
        ).run(trace)
        text = summarize_report(report)
        assert "3-server utilization" in text
        single = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert "server utilization" in summarize_report(single)
        assert "3-server" not in summarize_report(single)

    def test_renders_admission_line(self, params5, images):
        from repro.runtime.workload import summarize_report

        trace = generate_trace(
            "zipf", [n for n, _v in images], 20, seed=4,
            arrivals="poisson", mean_interarrival=2, max_resident=1,
        )
        report = WorkloadSimulator(
            _manager(params5, images), policy="defer-cold",
            queue_threshold=2,
        ).run(trace)
        text = summarize_report(report)
        assert "admission: defer-cold (threshold 2)" in text
        assert "deferred, 0 dropped" in text
        # Reports with no admission section render no such line.
        plain = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert "admission:" not in summarize_report(plain)


class TestEvictionForSpace:
    """A fabric with room for one 3x2 task forces make-room evictions."""

    def test_simulator_evicts_oldest(self, params5, images):
        mgr = _manager(params5, images, width=5, height=3)
        trace = generate_trace(
            "round-robin", [n for n, _v in images], 12, seed=1
        )
        report = WorkloadSimulator(mgr).run(trace)
        assert report["events"]["failed_loads"] == 0
        assert len(mgr.controller.resident) <= 1

    def test_make_room_and_evicting_place(self, params5, images):
        mgr = _manager(params5, images, width=5, height=3)
        mgr.place_task("a")
        with pytest.raises(RuntimeManagementError):
            mgr.place_task("b")  # default stays fail-fast
        task = mgr.place_task("b", evict=True)
        assert task.name == "b"
        assert list(mgr.controller.resident) == ["b"]

    def test_make_room_on_impossible_fit(self, params5, images):
        mgr = _manager(params5, images, width=5, height=3)
        assert mgr.make_room(6, 6) is None

    def test_infeasible_make_room_keeps_residents(self, params5, images):
        # An oversized request must fail without collateral evictions.
        mgr = _manager(params5, images, width=5, height=3)
        mgr.place_task("a")
        assert mgr.make_room(6, 6) is None
        assert list(mgr.controller.resident) == ["a"]

    def test_evicting_place_of_oversized_image_keeps_residents(
        self, params5, images
    ):
        mgr = _manager(params5, images, width=5, height=3)
        ctrl = mgr.controller
        bits = BitArray(6 * 6 * params5.nraw)
        ctrl.memory.store("huge", bits, "raw", 6, 6)
        mgr.place_task("a")
        with pytest.raises(RuntimeManagementError):
            mgr.place_task("huge", evict=True)
        assert list(ctrl.resident) == ["a"]

    def test_make_room_noop_when_free(self, params5, images):
        mgr = _manager(params5, images)
        assert mgr.make_room(3, 2) == []

    def test_replace_resident_task_spares_unrelated_victims(
        self, params5, images
    ):
        # Regression: ``place_task(name, evict=True)`` on an already-
        # resident task used to evict *unrelated* victims — the task's
        # own stale footprint blocked the region search, make_room
        # unloaded the oldest resident, and load_task then rejected the
        # duplicate anyway, losing the victim for nothing.  Re-placing
        # must reuse the task's own region and leave siblings alone.
        mgr = _manager(params5, images)  # 7x3: both 3x2 tasks fit, no spare
        mgr.place_task("b")  # oldest — the old code's collateral victim
        mgr.place_task("a")
        task = mgr.place_task("a", evict=True)
        assert task.name == "a"
        assert sorted(mgr.controller.resident) == ["a", "b"]


class TestControllerMemoParameter:
    """The DecodeMemo bound is a constructor knob; 0/None disable reuse."""

    def _load_twice(self, params5, images, **kwargs):
        mgr = _manager(params5, images, **kwargs)
        ctrl = mgr.controller
        ctrl.load_task("a", (0, 0))
        ctrl.load_task("b", (3, 0))
        return ctrl

    def test_default_is_bounded(self, params5, images):
        ctrl = _manager(params5, images).controller
        assert ctrl.decode_memo is not None
        assert ctrl.decode_memo.max_entries == 4096

    def test_custom_bound(self, params5, images):
        ctrl = _manager(params5, images, memo_entries=7).controller
        assert ctrl.decode_memo.max_entries == 7

    @pytest.mark.parametrize("disabled", [0, None])
    def test_disable_path_still_loads(self, params5, images, disabled):
        ctrl = self._load_twice(params5, images, memo_entries=disabled)
        assert ctrl.decode_memo is None
        assert len(ctrl.resident) == 2


class TestByteBudgetThroughController:
    def test_capacity_bytes_plumbed(self, params5, images):
        mgr = _manager(
            params5, images, cache_capacity=None, cache_capacity_bytes=4096
        )
        cache = mgr.controller.decode_cache
        assert cache.capacity is None and cache.capacity_bytes == 4096
        trace = generate_trace(
            "round-robin", [n for n, _v in images], 12, seed=2
        )
        WorkloadSimulator(mgr).run(trace)
        assert cache.total_bytes <= 4096

    def test_capacity_zero_with_byte_budget_keeps_cache(self, params5,
                                                        images):
        # --capacity 0 --capacity-bytes N must mean "byte bound only",
        # not "caching off".
        mgr = _manager(
            params5, images, cache_capacity=0, cache_capacity_bytes=4096
        )
        cache = mgr.controller.decode_cache
        assert cache is not None
        assert cache.capacity is None and cache.capacity_bytes == 4096
        ctrl = _manager(params5, images, cache_capacity=0).controller
        assert ctrl.decode_cache is None  # no byte budget: still disabled
        none_ctrl = _manager(
            params5, images, cache_capacity=None
        ).controller
        assert none_ctrl.decode_cache is None  # None + no budget: same

    def test_tiny_budget_thrashes_but_never_exceeds(self, params5, images):
        mgr = _manager(
            params5, images, cache_capacity=None, cache_capacity_bytes=300
        )
        cache = mgr.controller.decode_cache
        trace = generate_trace(
            "round-robin", [n for n, _v in images], 12, seed=2
        )
        report = WorkloadSimulator(mgr).run(trace)
        assert cache.total_bytes <= 300
        assert report["cache"]["hits"] == 0  # entries never fit


class TestRunScenario:
    """The one-call harness behind the CLI / eval / CI smoke trace."""

    def test_seeded_scenario_reproducible(self):
        one = run_scenario(kind="hot-set", n_tasks=2, length=10, seed=2)
        two = run_scenario(kind="hot-set", n_tasks=2, length=10, seed=2)
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )
        assert one["events"]["loads"] > 0


class TestSimulateCli:
    def test_runtime_simulate_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        rc = main([
            "runtime", "simulate", "--tasks", "2", "--length", "8",
            "--seed", "1", "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["report_version"] == 1
        assert report["trace"]["kind"] == "hot-set"
        text = capsys.readouterr().out
        assert "hit rate" in text and "cycles" in text

    def test_unknown_mix_exits_nonzero(self, tmp_path, capsys):
        # The regression this pins: an unknown mix name must exit
        # non-zero (and write no artifact), never fall back silently.
        from repro.cli import main

        out = tmp_path / "report.json"
        rc = main([
            "runtime", "simulate", "--kind", "zipfian", "--tasks", "2",
            "--length", "8", "--json", str(out),
        ])
        assert rc == 2
        assert not out.exists()
        assert "unknown trace kind" in capsys.readouterr().err

    def test_unknown_arrivals_exits_nonzero(self, capsys):
        from repro.cli import main

        rc = main([
            "runtime", "simulate", "--arrivals", "bursty",
            "--tasks", "2", "--length", "8",
        ])
        assert rc == 2
        assert "unknown arrival process" in capsys.readouterr().err

    def test_poisson_arrivals_report_percentiles(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "openloop.json"
        rc = main([
            "runtime", "simulate", "--kind", "zipf", "--arrivals",
            "poisson", "--tasks", "2", "--length", "10", "--seed", "1",
            "--mean-interarrival", "500", "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        for field in ("p50", "p95", "p99"):
            assert isinstance(report["latency"][field], int)
        assert report["queue"]["max_depth"] >= 1
        assert report["trace"]["arrivals"] == "poisson"
        text = capsys.readouterr().out
        assert "latency" in text and "queue" in text

    def test_empty_open_loop_trace_reports_null_latency(
        self, params5, images
    ):
        # Regression: percentile([]) used to raise a bare IndexError out
        # of the report assembly.  A hand-built empty trace is still a
        # valid replay: the report carries ``latency: null`` instead of
        # percentiles (the generator itself now rejects length < 1).
        from repro.errors import RuntimeManagementError
        from repro.runtime.costmodel import percentile
        from repro.runtime.workload import WorkloadSimulator, WorkloadTrace

        with pytest.raises(RuntimeManagementError, match="empty"):
            percentile([], 99)

        trace = WorkloadTrace(
            kind="zipf", seed=1, tasks=("a", "b"), events=(),
            arrivals="poisson", mean_interarrival=500, zipf_alpha=1.1,
        )
        report = WorkloadSimulator(_manager(params5, images)).run(trace)
        assert report["latency"] is None
        assert report["queue"]["arrivals"] == 0
        assert report["clock"]["utilization"] == 0.0

    @pytest.mark.parametrize("argv, flag", [
        (["runtime", "sweep"], "sweep"),
        (["runtime", "simulate", "--cache-dir", "x"], "--cache-dir"),
    ])
    def test_retired_verb_and_option_exit_2(self, argv, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_zero_length_trace_exits_2(self, tmp_path, capsys):
        # The generator's length floor: ``--length 0`` is a request for
        # nothing and must fail loudly, not emit an empty artifact.
        from repro.cli import main

        out = tmp_path / "empty.json"
        rc = main([
            "runtime", "simulate", "--kind", "zipf", "--arrivals",
            "poisson", "--tasks", "2", "--length", "0", "--seed", "1",
            "--json", str(out),
        ])
        assert rc == 2
        assert "length" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_open_loop_deterministic(self, tmp_path):
        from repro.cli import main

        outs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.json"
            rc = main([
                "runtime", "simulate", "--arrivals", "poisson",
                "--tasks", "2", "--length", "8", "--seed", "3",
                "--json", str(out),
            ])
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


@pytest.mark.integration
class TestTaskScopeScenario:
    """Trace-driven shared-dictionary churn: the VERSION 4 refcount path
    under the fabric's eviction pressure (ROADMAP open item 3)."""

    def test_tight_capacity_exercises_drops(self):
        report = run_scenario(
            kind="hot-set", n_tasks=2, length=30, seed=3, task_scope=True,
        )
        sd = report["shared_dicts"]
        assert report["scenario"]["task_scope"] is True
        assert report["scenario"]["shared_dict_ids"]  # tables were kept
        assert sd["faults"] >= 1
        assert sd["drops"] >= 1  # a last-referencing unload happened
        assert sd["max_resident"] >= 1
        # Whatever is left resident is consistent with the final tasks.
        assert sd["drops"] <= sd["faults"]

    def test_task_scope_scenario_deterministic(self):
        one = run_scenario(kind="round-robin", n_tasks=2, length=12,
                           seed=5, task_scope=True)
        two = run_scenario(kind="round-robin", n_tasks=2, length=12,
                           seed=5, task_scope=True)
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )
