"""Admission/QoS layer: the defer-cold policy and k parallel servers.

The load-bearing properties: ``policy="none"``/``servers=1`` leave the
report byte-identical to the pre-QoS simulator, k parallel servers
strictly cut the tail at a saturating arrival rate, and defer-cold
strictly bounds the queue depth while the *hot* tail does not regress.
"""

import json

import pytest

from repro.arch import FabricArch
from repro.errors import RuntimeManagementError
from repro.runtime import (
    ExternalMemory,
    FabricManager,
    FleetManager,
    POLICY_KINDS,
    ReconfigurationController,
    WorkloadSimulator,
    generate_trace,
    make_policy,
    percentile,
    run_scenario,
    validate_policy_request,
)
from repro.runtime.admission import MAX_DEFERS, defers
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
    memory = ExternalMemory()
    fabric = FabricArch(
        params5, width, height,
        {(x, y): "clb" for x in range(width) for y in range(height)},
    )
    manager = FabricManager(
        ReconfigurationController(fabric, memory, **ctrl_kwargs)
    )
    for name, vbs in images:
        manager.controller.store_vbs(name, vbs)
    return manager


def _churn_trace(images, length=30, seed=4, gap=2):
    """Zipf/Poisson arrivals with forced evictions (max_resident=1), so
    the mix carries both hot re-arrivals and cold reloads."""
    return generate_trace(
        "zipf", [n for n, _v in images], length, seed=seed,
        arrivals="poisson", mean_interarrival=gap, max_resident=1,
    )


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(RuntimeManagementError,
                           match="unknown admission policy"):
            validate_policy_request("lifo")
        # Retired policies fail typed, before any synthesis.
        for retired in ("drop-cold", "priority"):
            with pytest.raises(RuntimeManagementError,
                               match="unknown admission policy"):
                run_scenario(kind="zipf", n_tasks=2, length=8,
                             arrivals="poisson", policy=retired)

    @pytest.mark.parametrize("name", [
        "drop-cold", "priority", "Defer-Cold", "defer_cold", "",
    ])
    def test_retired_and_misspelt_names_fail_typed(self, name):
        # Policy names match exactly; the retired drop-cold and priority
        # policies are unknown names like any other.
        with pytest.raises(RuntimeManagementError,
                           match="unknown admission policy"):
            validate_policy_request(name)
        with pytest.raises(RuntimeManagementError,
                           match="unknown admission policy"):
            make_policy(name, queue_threshold=4)

    def test_bad_threshold_rejected(self):
        with pytest.raises(RuntimeManagementError,
                           match="queue threshold"):
            validate_policy_request("defer-cold", queue_threshold=0)
        with pytest.raises(RuntimeManagementError,
                           match="queue threshold"):
            make_policy("defer-cold", queue_threshold=-1)

    def test_make_policy_resolution(self):
        assert POLICY_KINDS == ("none", "defer-cold")
        assert make_policy(None) is None
        assert make_policy("none") is None
        assert make_policy("defer-cold", queue_threshold=2) == "defer-cold"
        with pytest.raises(RuntimeManagementError,
                           match="unknown admission policy"):
            make_policy("fifo")

    def test_decide_triggers(self):
        assert defers(hot=False, depth=4, queue_threshold=4, attempts=0)
        assert defers(hot=False, depth=9, queue_threshold=4, attempts=0)
        assert not defers(hot=False, depth=3, queue_threshold=4, attempts=0)
        assert not defers(hot=True, depth=100, queue_threshold=4,
                          attempts=0)
        # Deferral is bounded: past the bound the request is admitted.
        assert defers(False, 9, 4, attempts=MAX_DEFERS - 1)
        assert not defers(False, 9, 4, attempts=MAX_DEFERS)


class TestSimulatorAdmission:
    def test_no_policy_no_admission_section(self, params5, images):
        report = WorkloadSimulator(_manager(params5, images)).run(
            _churn_trace(images)
        )
        assert "admission" not in report
        assert "servers" not in report["clock"]

    def test_none_string_is_unarmed(self, params5, images):
        plain = WorkloadSimulator(_manager(params5, images)).run(
            _churn_trace(images)
        )
        named = WorkloadSimulator(
            _manager(params5, images), policy="none"
        ).run(_churn_trace(images))
        assert json.dumps(plain, sort_keys=True) == \
               json.dumps(named, sort_keys=True)

    def test_defer_cold_retries_without_loss(self, params5, images):
        # No decode cache: temperature is fabric residency alone, and
        # max_resident=1 churn guarantees cold reloads under pressure.
        baseline = WorkloadSimulator(
            _manager(params5, images, cache_capacity=0),
        ).run(_churn_trace(images))
        report = WorkloadSimulator(
            _manager(params5, images, cache_capacity=0),
            policy="defer-cold", queue_threshold=1,
        ).run(_churn_trace(images))
        ad = report["admission"]
        assert ad["policy"] == "defer-cold"
        assert ad["deferred"] >= 1
        assert ad["dropped"] == 0
        # Deferral sheds nothing: every group is eventually admitted.
        assert ad["admitted"] == baseline["queue"]["arrivals"]
        assert report["queue"]["arrivals"] == ad["admitted"]
        assert ad["lanes"]["hot"] + ad["lanes"]["cold"] == ad["admitted"]
        assert ad["lanes"]["cold"] >= 1

    def test_policy_needs_open_loop_trace(self, params5, images):
        closed = generate_trace(
            "round-robin", [n for n, _v in images], 8, seed=1
        )
        sim = WorkloadSimulator(
            _manager(params5, images), policy="defer-cold"
        )
        with pytest.raises(RuntimeManagementError, match="open-loop"):
            sim.run(closed)

    def test_constructor_rejects_bad_combinations(self, params5, images):
        manager = _manager(params5, images)
        with pytest.raises(RuntimeManagementError, match="server count"):
            WorkloadSimulator(manager, servers=0)
        fleet = FleetManager([manager])
        with pytest.raises(RuntimeManagementError,
                           match="set on the FleetManager"):
            WorkloadSimulator(fleet=fleet, servers=2)
        with pytest.raises(RuntimeManagementError,
                           match="single-manager"):
            WorkloadSimulator(fleet=fleet, policy="defer-cold")

    def test_parallel_servers_preserve_event_totals(self, params5, images):
        trace = _churn_trace(images, length=40, seed=6)
        one = WorkloadSimulator(_manager(params5, images)).run(trace)
        three = WorkloadSimulator(
            _manager(params5, images), servers=3
        ).run(trace)
        # Same trace, same application order: only the clock differs.
        assert three["events"] == one["events"]
        assert three["per_task"] == one["per_task"]
        assert "servers" not in one["clock"]
        assert three["clock"]["servers"] == 3
        assert three["clock"]["makespan"] <= one["clock"]["makespan"]
        assert 0.0 <= three["clock"]["utilization"] <= 1.0


class TestDeferralBound:
    """defer-cold sheds load, never work: every request is admitted in
    the end, hot requests always pass, and no request waits at the door
    more than MAX_DEFERS times."""

    @pytest.fixture
    def door_log(self, monkeypatch):
        """Every door decision as ``(hot, attempts, deferred)``."""
        from repro.runtime import workload

        decisions = []
        decide = workload.defers

        def logged(hot, depth, queue_threshold, attempts):
            deferred = decide(hot, depth, queue_threshold, attempts)
            decisions.append((hot, attempts, deferred))
            return deferred

        monkeypatch.setattr(workload, "defers", logged)
        return decisions

    @staticmethod
    def _replay(params5, images, **kwargs):
        # No decode cache and max_resident=1 churn: cold reloads queue
        # up behind each other, so a threshold of one defers often.
        return WorkloadSimulator(
            _manager(params5, images, cache_capacity=0),
            policy="defer-cold", queue_threshold=1, **kwargs,
        ).run(_churn_trace(images, length=40, gap=1))

    @pytest.mark.parametrize("servers", [1, 2, 3])
    def test_every_request_admitted_hot_never_deferred(
        self, params5, images, door_log, servers
    ):
        unarmed = WorkloadSimulator(
            _manager(params5, images, cache_capacity=0), servers=servers,
        ).run(_churn_trace(images, length=40, gap=1))
        report = self._replay(params5, images, servers=servers)
        ad = report["admission"]
        assert ad["deferred"] >= 1
        assert ad["dropped"] == 0
        assert ad["admitted"] == unarmed["queue"]["arrivals"]
        assert ad["lanes"]["hot"] + ad["lanes"]["cold"] == ad["admitted"]
        # One door decision per admission or deferral.
        assert len(door_log) == ad["admitted"] + ad["deferred"]
        assert not any(hot and deferred for hot, _a, deferred in door_log)
        assert max(attempts for _h, attempts, _d in door_log) <= MAX_DEFERS

    def test_request_at_the_bound_is_admitted(
        self, params5, images, door_log
    ):
        # Two servers: the door retries at the earlier-free server, so
        # a cold request can meet a deep queue on every retry.
        report = self._replay(params5, images, servers=2)
        at_bound = [d for d in door_log if d[1] == MAX_DEFERS]
        assert at_bound
        assert not any(deferred for _h, _a, deferred in at_bound)
        assert report["admission"]["dropped"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_unreachable_threshold_is_the_unarmed_replay(
        self, params5, images, seed
    ):
        trace = _churn_trace(images, length=30, seed=seed)
        unarmed = WorkloadSimulator(_manager(params5, images)).run(trace)
        armed = WorkloadSimulator(
            _manager(params5, images), policy="defer-cold",
            queue_threshold=10**9,
        ).run(trace)
        ad = armed.pop("admission")
        assert json.dumps(armed, sort_keys=True) == \
               json.dumps(unarmed, sort_keys=True)
        assert sorted(ad) == ["admitted", "deferred", "dropped", "lanes",
                              "policy", "queue_threshold"]
        assert (ad["deferred"], ad["dropped"]) == (0, 0)
        assert ad["admitted"] == unarmed["queue"]["arrivals"]
        assert ad["lanes"]["hot"] + ad["lanes"]["cold"] == ad["admitted"]


@pytest.mark.integration
class TestAdmissionAcceptance:
    """run_scenario-level QoS contract: byte-identity when unarmed,
    strictly lower p99 with k servers, strictly bounded queue depth
    under defer-cold with no hot-tail regression."""

    SATURATING = dict(kind="zipf", n_tasks=4, length=40, seed=3,
                      arrivals="poisson", mean_interarrival=200)
    # Admission comparison runs at seed=2: same saturating pressure,
    # a task mix where shedding cold work helps the hot tail.
    ADMISSION = dict(kind="zipf", n_tasks=4, length=40, seed=2,
                     arrivals="poisson", mean_interarrival=200)

    def test_servers_one_is_byte_identical(self):
        legacy = run_scenario(**self.SATURATING)
        explicit = run_scenario(**self.SATURATING, servers=1)
        assert json.dumps(legacy, sort_keys=True) == \
               json.dumps(explicit, sort_keys=True)
        assert "servers" not in explicit["scenario"]
        assert "servers" not in explicit["clock"]

    def test_policy_none_is_byte_identical(self):
        legacy = run_scenario(**self.SATURATING)
        named = run_scenario(**self.SATURATING, policy="none")
        assert json.dumps(legacy, sort_keys=True) == \
               json.dumps(named, sort_keys=True)
        assert "admission" not in named
        assert "policy" not in named["scenario"]

    def test_four_servers_cut_the_tail_at_saturation(self):
        single = run_scenario(**self.SATURATING)
        quad = run_scenario(**self.SATURATING, servers=4)
        # The acceptance criterion: k parallel reconfiguration servers
        # strictly improve the tail at a saturating arrival rate.
        assert quad["latency"]["p99"] < single["latency"]["p99"]
        assert quad["queue"]["max_depth"] <= single["queue"]["max_depth"]
        assert quad["clock"]["servers"] == 4
        assert quad["scenario"]["servers"] == 4
        # Utilization is normalized per server: k idle lanes show up as
        # lower utilization, never a value past 1.
        assert 0.0 < quad["clock"]["utilization"] <= 1.0

    def test_admission_bounds_queue_without_hot_regression(
        self, monkeypatch
    ):
        from repro.runtime import workload
        from repro.runtime.fleet import ServerBank

        unarmed = run_scenario(**self.ADMISSION)
        # Pair every serviced request's latency with the temperature
        # its request met at the door.
        door = {}
        samples = []
        subject = workload._request_subject
        charge = ServerBank.charge

        def request_subject(manager, events):
            name, hot = subject(manager, events)
            door["hot"] = hot
            return name, hot

        def charged(bank, request, clock_at, arrival, cost):
            charge(bank, request, clock_at, arrival, cost)
            if cost is not None:
                samples.append((door["hot"], bank.latencies[-1]))

        monkeypatch.setattr(workload, "_request_subject", request_subject)
        monkeypatch.setattr(ServerBank, "charge", charged)

        def replay(queue_threshold):
            samples.clear()
            report = run_scenario(
                **self.ADMISSION, policy="defer-cold",
                queue_threshold=queue_threshold,
            )
            return report, [lat for hot, lat in samples if hot]

        # An armed door that never defers is the unarmed replay.
        baseline, base_hot = replay(10**9)
        assert baseline["admission"]["deferred"] == 0
        strip = ("admission", "scenario")
        assert (
            {k: v for k, v in baseline.items() if k not in strip}
            == {k: v for k, v in unarmed.items() if k not in strip}
        )
        report, hot = replay(4)
        ad = report["admission"]
        assert ad["policy"] == "defer-cold"
        assert ad["queue_threshold"] == 4
        assert ad["deferred"] >= 1
        # The acceptance criterion: deferring cold work strictly bounds
        # the queue while the hot tail does not regress.
        assert (report["queue"]["max_depth"],
                baseline["queue"]["max_depth"]) == (19, 21)
        assert len(hot) == len(base_hot) == 17
        assert (percentile(hot, 99), percentile(base_hot, 99)) == \
            (14226, 25624)

    def test_policy_needs_arrivals_and_one_fabric(self):
        with pytest.raises(RuntimeManagementError, match="open-loop"):
            run_scenario(kind="zipf", n_tasks=2, length=8, seed=1,
                         policy="defer-cold")
        with pytest.raises(RuntimeManagementError,
                           match="single-fabric"):
            run_scenario(**self.SATURATING, shards=2, router="hash",
                         policy="defer-cold")


class TestAdmissionCli:
    def test_unknown_policy_exits_two(self, capsys):
        from repro.cli import main

        for policy in ("lifo", "drop-cold", "priority"):
            rc = main([
                "runtime", "simulate", "--tasks", "2", "--length", "8",
                "--arrivals", "poisson", "--policy", policy,
            ])
            assert rc == 2
            assert "unknown admission policy" in capsys.readouterr().err

    def test_simulate_reports_admission_section(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        rc = main([
            "runtime", "simulate", "--kind", "zipf", "--tasks", "3",
            "--length", "16", "--seed", "2", "--arrivals", "poisson",
            "--mean-interarrival", "200", "--policy", "defer-cold",
            "--queue-threshold", "2", "--servers", "2",
            "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["admission"]["policy"] == "defer-cold"
        assert report["admission"]["queue_threshold"] == 2
        assert "store" not in report["admission"]
        assert report["clock"]["servers"] == 2
        assert "admission: defer-cold" in capsys.readouterr().out
