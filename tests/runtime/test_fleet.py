"""Fleet tier: placement routers, fleet-scope dictionaries, k-server replay.

The load-bearing properties: routing is deterministic (sha256 ring, not
the salted built-in ``hash``), a fleet of one is *exactly* the single
simulator (and ``run_scenario(shards=1)`` stays byte-identical to the
pre-fleet report), and sharding strictly improves tail latency at a
saturating arrival rate — the acceptance criterion of the scale-out.
"""

import json

import pytest

from repro.arch import FabricArch
from repro.errors import RuntimeManagementError
from repro.runtime import (
    ConsistentHashRouter,
    ExternalMemory,
    FabricManager,
    FleetManager,
    LoadAwareRouter,
    PolicyStore,
    ReconfigurationController,
    TraceEvent,
    WorkloadSimulator,
    WorkloadTrace,
    generate_trace,
    run_scenario,
    validate_fleet_request,
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


def _shard_managers(params5, images, n, width=7, height=3, **ctrl_kwargs):
    """``n`` full manager stacks over one shared external memory."""
    memory = ExternalMemory()
    managers = []
    for _ in range(n):
        fabric = FabricArch(
            params5, width, height,
            {(x, y): "clb" for x in range(width) for y in range(height)},
        )
        managers.append(FabricManager(
            ReconfigurationController(fabric, memory, **ctrl_kwargs)
        ))
    for name, vbs in images:
        managers[0].controller.store_vbs(name, vbs)
    return managers


class TestFleetValidation:
    def test_non_positive_shard_count_rejected(self):
        with pytest.raises(RuntimeManagementError, match="shard count"):
            validate_fleet_request(0, "hash")
        with pytest.raises(RuntimeManagementError, match="shard count"):
            validate_fleet_request(-3, "load")

    def test_unknown_router_rejected(self):
        with pytest.raises(RuntimeManagementError,
                           match="unknown placement router"):
            validate_fleet_request(4, "round-robin")

    def test_known_combinations_accepted(self):
        for router in ("hash", "load"):
            validate_fleet_request(1, router)
            validate_fleet_request(8, router)

    def test_empty_fleet_rejected(self):
        with pytest.raises(RuntimeManagementError, match="at least one"):
            FleetManager([])

    def test_shards_must_share_one_memory(self, params5, images):
        a = _shard_managers(params5, images, 1)[0]
        b = _shard_managers(params5, images, 1)[0]
        with pytest.raises(RuntimeManagementError, match="share one"):
            FleetManager([a, b])

    def test_bad_migration_threshold_rejected(self, params5, images):
        managers = _shard_managers(params5, images, 2)
        with pytest.raises(RuntimeManagementError, match="backlog"):
            FleetManager(managers, migrate_backlog=0)

    def test_simulator_needs_exactly_one_target(self, params5, images):
        managers = _shard_managers(params5, images, 2)
        fleet = FleetManager(managers)
        with pytest.raises(RuntimeManagementError, match="exactly one"):
            WorkloadSimulator()
        with pytest.raises(RuntimeManagementError, match="exactly one"):
            WorkloadSimulator(managers[0], fleet=fleet)


class TestRouters:
    def test_hash_router_is_deterministic_across_instances(self):
        one = ConsistentHashRouter(4)
        two = ConsistentHashRouter(4)
        names = [f"task{i}" for i in range(32)]
        assert [one.choose(n, None) for n in names] == \
               [two.choose(n, None) for n in names]
        assert all(0 <= one.choose(n, None) < 4 for n in names)

    def test_hash_router_spreads_tasks(self):
        # 64 virtual nodes per shard: a modest task population must not
        # collapse onto one shard.
        router = ConsistentHashRouter(4)
        homes = {router.choose(f"task{i}", None) for i in range(64)}
        assert len(homes) >= 3

    def test_load_router_picks_coldest_backlog(self, params5, images):
        managers = _shard_managers(params5, images, 3)
        fleet = FleetManager(managers, router="load")
        fleet.banks[0].server_free = [500]  # busy at fleet time 0
        fleet.banks[1].server_free = [200]
        assert fleet.router.choose("a", fleet) == 2

    def test_load_router_prefers_measured_over_unmeasured_guess(
        self, params5, images
    ):
        """The knowledge-base regression: a shard whose (cold, depth)
        class was never measured used to win the routing on the strength
        of ``expected_latency``'s pooled-fallback guess — or the
        no-knowledge 0.0 — beating a shard with a *measured* (higher)
        latency.  The ordering now trusts measured cells first."""
        store = PolicyStore()
        store.record(False, 1, 10)    # cold@1: measured, cheap
        store.record(False, 0, 100)   # cold@0: measured, expensive
        managers = _shard_managers(params5, images, 2)
        fleet = FleetManager(managers, router="load", policy_store=store)
        # Shard 0 has four requests in flight: bucket 4 is empty ->
        # pooled guess 55.  Shard 1 (depth 0) is measured at 100.
        fleet.banks[0].in_flight = [9, 9, 9, 9]
        # Shard 0's 55 is a guess; shard 1's 100 is a measurement.  The
        # old (predicted, backlog) ordering picked shard 0.
        assert store.expected_latency(False, 4) < store.expected_latency(
            False, 0
        )
        assert fleet.router.choose("a", fleet) == 1

    def test_load_router_zero_knowledge_store_is_neutral(
        self, params5, images
    ):
        """An empty store must not perturb the pre-store ordering: every
        shard is equally unmeasured (predicted 0.0), so backlog decides
        exactly as in a storeless fleet."""
        managers = _shard_managers(params5, images, 3)
        fleet = FleetManager(managers, router="load",
                             policy_store=PolicyStore())
        fleet.banks[0].server_free = [500]
        fleet.banks[1].server_free = [200]
        assert fleet.router.choose("a", fleet) == 2

    def test_load_router_ties_break_by_index(self, params5, images):
        managers = _shard_managers(params5, images, 3)
        fleet = FleetManager(managers, router="load")
        assert fleet.router.choose("a", fleet) == 0

    def test_resident_task_routes_sticky(self, params5, images):
        managers = _shard_managers(params5, images, 4)
        fleet = FleetManager(managers, router="hash")
        shard, _task = fleet.place_task("a")
        # Stickiness beats the policy: wherever the router would send a
        # fresh placement, a resident task routes home.
        assert fleet.route("a") == shard
        assert fleet.shard_of("a") == shard

    def test_router_object_passes_through(self, params5, images):
        class PinRouter:
            name = "pin"

            def choose(self, task, fleet):
                return 1

        managers = _shard_managers(params5, images, 2)
        fleet = FleetManager(managers, router=PinRouter())
        shard, _task = fleet.place_task("a")
        assert shard == 1


class TestFleetLifecycle:
    def test_place_and_unload_roundtrip(self, params5, images):
        managers = _shard_managers(params5, images, 2)
        fleet = FleetManager(managers)
        shard, task = fleet.place_task("a")
        assert task.name == "a"
        assert "a" in managers[shard].controller.resident
        others = [i for i in range(2) if i != shard]
        assert all("a" not in managers[i].controller.resident
                   for i in others)
        assert fleet.unload_task("a") == shard
        assert fleet.shard_of("a") is None

    def test_unload_of_unplaced_task_rejected(self, params5, images):
        fleet = FleetManager(_shard_managers(params5, images, 2))
        with pytest.raises(RuntimeManagementError, match="not loaded"):
            fleet.unload_task("a")

    def test_published_image_resolves_from_every_shard(
        self, params5, images
    ):
        # store_vbs publishes once into the shared memory: every shard
        # can place the task without its own copy.
        managers = _shard_managers(params5, images, 3)
        fleet = FleetManager(managers)
        for index, mgr in enumerate(managers):
            task = mgr.place_task("a")
            assert task.name == "a"
            mgr.controller.unload_task("a")
            assert fleet.can_host(index, "a")


class TestMigration:
    def test_migrate_moves_task_and_keeps_cache_warmth(
        self, params5, images
    ):
        managers = _shard_managers(params5, images, 2)
        fleet = FleetManager(managers)
        src, first = fleet.place_task("a")
        assert not first.load_cost.cache_hit  # cold decode
        dst = 1 - src
        task = fleet.migrate_across("a", dst)
        assert fleet.shard_of("a") == dst
        assert fleet.cross_migrations == 1
        # The digest-keyed entry travelled: the re-place decoded nothing.
        assert task.load_cost.cache_hit
        assert task.load_cost.decode_cycles == 0

    def test_migrate_to_same_shard_is_noop(self, params5, images):
        fleet = FleetManager(_shard_managers(params5, images, 2))
        src, _task = fleet.place_task("a")
        task = fleet.migrate_across("a", src)
        assert task.name == "a"
        assert fleet.cross_migrations == 0

    def test_migrate_of_unplaced_task_rejected(self, params5, images):
        fleet = FleetManager(_shard_managers(params5, images, 2))
        with pytest.raises(RuntimeManagementError, match="not loaded"):
            fleet.migrate_across("a", 1)

    def test_migrate_to_unknown_shard_rejected(self, params5, images):
        fleet = FleetManager(_shard_managers(params5, images, 2))
        fleet.place_task("a")
        with pytest.raises(RuntimeManagementError, match="no shard"):
            fleet.migrate_across("a", 7)

    def test_infeasible_migration_never_loses_the_task(
        self, params5, images
    ):
        # Destination shard too small for the 3x2 image: the migration
        # must fail *before* the source unload.
        memory = ExternalMemory()
        big = FabricArch(
            params5, 7, 3,
            {(x, y): "clb" for x in range(7) for y in range(3)},
        )
        tiny = FabricArch(params5, 2, 2, {(x, y): "clb"
                                          for x in range(2)
                                          for y in range(2)})
        managers = [
            FabricManager(ReconfigurationController(big, memory)),
            FabricManager(ReconfigurationController(tiny, memory)),
        ]
        for name, vbs in images:
            managers[0].controller.store_vbs(name, vbs)
        fleet = FleetManager(managers)
        managers[0].place_task("a")
        with pytest.raises(RuntimeManagementError, match="cannot fit"):
            fleet.migrate_across("a", 1)
        assert fleet.shard_of("a") == 0

    def test_migration_accounted_as_cold_shard_request(
        self, params5, images
    ):
        # One load pinned to shard 0 builds instant backlog; shard 1 is
        # idle, so the saturation migration fires immediately.  The
        # re-place must show up as a *request* on the cold shard —
        # charging its clock while leaving arrivals/latency empty was
        # the historical under-reporting bug.
        class PinRouter:
            name = "pin"

            def choose(self, task, fleet):
                return 0

        trace = WorkloadTrace(
            kind="zipf", seed=0, tasks=("a",),
            events=(TraceEvent("load", "a", at=0),),
            arrivals="poisson", mean_interarrival=1,
        )
        fleet = FleetManager(
            _shard_managers(params5, images, 2),
            router=PinRouter(), migrate_backlog=1,
        )
        report = WorkloadSimulator(fleet=fleet).run(trace)
        assert report["fleet"]["cross_migrations"] == 1
        cold = report["shards"][1]
        assert cold["fabric"]["resident_at_end"] == ["a"]
        assert cold["clock"]["busy_cycles"] > 0
        assert cold["queue"]["arrivals"] == 1
        assert cold["latency"]["requests"] == 1
        assert cold["latency"]["p99"] >= cold["clock"]["busy_cycles"]
        # Both the fleet-wide and per-task dictionaries see it too.
        assert report["latency"]["requests"] == 2
        assert report["queue"]["arrivals"] == 2
        assert report["events"]["migrations"] == 1
        assert report["per_task"]["a"]["migrations"] == 1
        # And the load-aware knowledge base, when the fleet carries one.
        store = PolicyStore()
        fleet2 = FleetManager(
            _shard_managers(params5, images, 2),
            router=PinRouter(), migrate_backlog=1, policy_store=store,
        )
        WorkloadSimulator(fleet=fleet2).run(trace)
        assert len(store) == 2

    def test_closed_loop_migration_fails_fast(self, params5, images):
        # A closed-loop trace has no backlog clock: arming migration on
        # one must raise instead of silently never firing.
        trace = generate_trace("round-robin", [n for n, _v in images],
                               8, seed=1)
        fleet = FleetManager(_shard_managers(params5, images, 2),
                             migrate_backlog=1)
        with pytest.raises(RuntimeManagementError,
                           match="open-loop trace"):
            WorkloadSimulator(fleet=fleet).run(trace)

    def test_closed_loop_migration_rejected_by_scenario(self):
        with pytest.raises(RuntimeManagementError,
                           match="open-loop trace"):
            run_scenario(kind="zipf", n_tasks=2, length=8, seed=1,
                         shards=2, router="hash", migrate_backlog=1)


class TestFleetSimulation:
    def test_fleet_of_one_matches_single_simulator(self, params5, images):
        trace = generate_trace(
            "zipf", [n for n, _v in images], 20, seed=2,
            arrivals="poisson", mean_interarrival=400,
        )
        single = WorkloadSimulator(
            _shard_managers(params5, images, 1)[0]
        ).run(trace)
        fleet_report = WorkloadSimulator(
            fleet=FleetManager(_shard_managers(params5, images, 1))
        ).run(trace)
        # One shard is one FIFO server: the fleet-wide sections must
        # agree with the single-manager simulator exactly.
        for key in ("events", "cycles", "latency", "queue",
                    "bytes_decoded", "per_task"):
            assert fleet_report[key] == single[key], key
        assert fleet_report["clock"]["makespan"] == \
               single["clock"]["makespan"]
        assert fleet_report["shards"][0]["latency"] == single["latency"]

    def test_fleet_replay_is_deterministic(self, params5, images):
        trace = generate_trace(
            "zipf", [n for n, _v in images], 24, seed=5,
            arrivals="poisson", mean_interarrival=300,
        )
        reports = [
            WorkloadSimulator(
                fleet=FleetManager(
                    _shard_managers(params5, images, 3), router="load"
                )
            ).run(trace)
            for _ in range(2)
        ]
        assert json.dumps(reports[0], sort_keys=True) == \
               json.dumps(reports[1], sort_keys=True)

    def test_closed_loop_fleet_replay(self, params5, images):
        # No arrival stamps: the fleet still routes and accounts, with
        # no latency/queue/clock sections anywhere.
        trace = generate_trace("round-robin", [n for n, _v in images],
                               12, seed=1)
        report = WorkloadSimulator(
            fleet=FleetManager(_shard_managers(params5, images, 2))
        ).run(trace)
        assert "latency" not in report
        assert all("latency" not in s for s in report["shards"])
        assert report["fleet"]["shards"] == 2

    def test_idle_shard_reports_null_latency(self, params5, images):
        # Both tasks hash to a subset of a 4-shard ring: any shard that
        # serviced nothing must report ``latency: None``, not crash on
        # an empty percentile sample.
        trace = generate_trace(
            "hot-set", [n for n, _v in images], 16, seed=1,
            arrivals="poisson", mean_interarrival=400,
        )
        report = WorkloadSimulator(
            fleet=FleetManager(_shard_managers(params5, images, 4))
        ).run(trace)
        idle = [s for s in report["shards"] if s["latency"] is None]
        busy = [s for s in report["shards"] if s["latency"] is not None]
        assert busy  # someone serviced the trace
        for shard in idle:
            assert shard["clock"]["busy_cycles"] == 0

    def test_k_servers_per_shard(self, params5, images):
        trace = generate_trace(
            "zipf", [n for n, _v in images], 24, seed=5,
            arrivals="poisson", mean_interarrival=2,
        )
        one = WorkloadSimulator(
            fleet=FleetManager(_shard_managers(params5, images, 2))
        ).run(trace)
        two = WorkloadSimulator(
            fleet=FleetManager(_shard_managers(params5, images, 2),
                               servers=2)
        ).run(trace)
        # servers=1 stays schema-identical; k>1 tags every clock and
        # normalizes utilization per server.
        assert "servers" not in one["clock"]
        assert all("servers" not in s["clock"] for s in one["shards"])
        assert two["clock"]["servers"] == 2
        assert all(s["clock"]["servers"] == 2 for s in two["shards"])
        assert two["clock"]["makespan"] <= one["clock"]["makespan"]
        for section in (two, *two["shards"]):
            assert 0.0 <= section["clock"]["utilization"] <= 1.0
        with pytest.raises(RuntimeManagementError, match="server count"):
            FleetManager(_shard_managers(params5, images, 2), servers=0)


@pytest.mark.integration
class TestScenarioAcceptance:
    """run_scenario-level fleet contract: byte-identity at shards=1,
    strictly lower fleet-wide p99 at a saturating arrival rate."""

    SATURATING = dict(kind="zipf", n_tasks=4, length=40, seed=3,
                      arrivals="poisson", mean_interarrival=200)

    def test_single_shard_report_is_byte_identical(self):
        legacy = run_scenario(kind="zipf", n_tasks=2, length=14, seed=1,
                              arrivals="poisson", mean_interarrival=500)
        routed = run_scenario(kind="zipf", n_tasks=2, length=14, seed=1,
                              arrivals="poisson", mean_interarrival=500,
                              shards=1, router="hash")
        assert json.dumps(legacy, sort_keys=True) == \
               json.dumps(routed, sort_keys=True)
        assert "fleet" not in routed
        assert "shards" not in routed
        assert "shards" not in routed["scenario"]

    @pytest.mark.parametrize("router", ["hash", "load"])
    def test_four_shards_beat_one_at_saturation(self, router):
        single = run_scenario(**self.SATURATING)
        fleet = run_scenario(**self.SATURATING, shards=4, router=router)
        # The acceptance criterion: k parallel reconfiguration servers
        # strictly improve the tail at a saturating arrival rate.
        assert fleet["latency"]["p99"] < single["latency"]["p99"]
        # Both views are present: fleet-wide and per-shard percentiles.
        assert fleet["fleet"]["shards"] == 4
        assert fleet["fleet"]["router"] == router
        assert len(fleet["shards"]) == 4
        assert any(
            s["latency"] is not None and "p99" in s["latency"]
            for s in fleet["shards"]
        )
        assert fleet["scenario"]["shards"] == 4
        assert fleet["scenario"]["router"] == router

    def test_fleet_scenario_deterministic(self):
        one = run_scenario(**self.SATURATING, shards=3, router="load")
        two = run_scenario(**self.SATURATING, shards=3, router="load")
        assert json.dumps(one, sort_keys=True) == \
               json.dumps(two, sort_keys=True)

    def test_event_totals_conserved_across_sharding(self):
        single = run_scenario(**self.SATURATING)
        fleet = run_scenario(**self.SATURATING, shards=4, router="hash")
        # Same trace, same tasks: sharding redistributes events but the
        # per-shard sections must sum back to the fleet totals.
        summed = {}
        for shard in fleet["shards"]:
            for field, value in shard["events"].items():
                summed[field] = summed.get(field, 0) + value
        assert summed == fleet["events"]
        assert sum(s["bytes_decoded"] for s in fleet["shards"]) == \
               fleet["bytes_decoded"]
        # Request grouping is per shard: co-stamped events routed to
        # different shards (an eviction's unload + the incoming load)
        # count once per shard, so the fleet sees at least as many
        # request arrivals as the single server did.
        assert fleet["queue"]["arrivals"] >= single["queue"]["arrivals"]

    def test_migration_threshold_recorded_and_counted(self):
        report = run_scenario(**self.SATURATING, shards=2, router="hash",
                              migrate_backlog=1)
        assert report["scenario"]["migrate_backlog"] == 1
        assert report["fleet"]["migrate_backlog"] == 1
        assert report["fleet"]["migrations_armed"] is True
        assert report["fleet"]["cross_migrations"] >= 0
        migrations = report["events"]["migrations"]
        assert migrations >= report["fleet"]["cross_migrations"]
        # Migrations are accounted as requests: the fleet-wide latency
        # and queue sections must stay the exact sum of the per-shard
        # views even with saturation migration in play.
        assert report["latency"]["requests"] == sum(
            (s["latency"] or {}).get("requests", 0)
            for s in report["shards"]
        )
        assert report["queue"]["arrivals"] == sum(
            s["queue"]["arrivals"] for s in report["shards"]
        )

    def test_unarmed_migration_reported_as_such(self):
        report = run_scenario(**self.SATURATING, shards=2, router="hash")
        assert report["fleet"]["migrate_backlog"] is None
        assert report["fleet"]["migrations_armed"] is False
        assert report["fleet"]["cross_migrations"] == 0


class TestFleetCli:
    def test_zero_shards_exits_two(self, capsys):
        from repro.cli import main

        rc = main([
            "runtime", "simulate", "--tasks", "2", "--length", "8",
            "--shards", "0",
        ])
        assert rc == 2
        assert "shard count" in capsys.readouterr().err

    def test_unknown_router_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        rc = main([
            "runtime", "simulate", "--tasks", "2", "--length", "8",
            "--shards", "4", "--router", "roundrobin",
            "--json", str(out),
        ])
        assert rc == 2
        assert not out.exists()
        assert "unknown placement router" in capsys.readouterr().err

    def test_closed_loop_migrate_backlog_exits_two(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        # No --arrivals: a closed-loop replay cannot fire saturation
        # migration, so arming it must fail loudly, not no-op.
        rc = main([
            "runtime", "simulate", "--tasks", "2", "--length", "8",
            "--shards", "2", "--migrate-backlog", "1",
            "--json", str(out),
        ])
        assert rc == 2
        assert not out.exists()
        assert "open-loop trace" in capsys.readouterr().err

    def test_fleet_simulate_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet.json"
        rc = main([
            "runtime", "simulate", "--kind", "zipf", "--arrivals",
            "poisson", "--tasks", "3", "--length", "16", "--seed", "2",
            "--mean-interarrival", "300", "--shards", "3",
            "--router", "load", "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["fleet"]["shards"] == 3
        assert report["fleet"]["router"] == "load"
        assert len(report["shards"]) == 3
        assert "fleet:" in capsys.readouterr().out

    def test_single_shard_cli_output_unchanged(self, tmp_path):
        from repro.cli import main

        outs = []
        for tag, extra in (("legacy", []),
                           ("routed", ["--shards", "1"])):
            out = tmp_path / f"{tag}.json"
            rc = main([
                "runtime", "simulate", "--tasks", "2", "--length", "8",
                "--seed", "1", "--json", str(out), *extra,
            ])
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
