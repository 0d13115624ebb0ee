"""Trace-driven multi-task workload simulation over the runtime manager.

The paper's run-time system exists to amortize de-virtualization cost
across *repeated* task loads on a shared fabric — a behavior no single
``load_task`` call can exhibit.  This module supplies the missing
scenario layer: a seeded trace generator producing load/unload/migrate
arrival sequences under several mixes, and a simulator replaying a trace
through a :class:`~repro.runtime.manager.FabricManager`, accumulating the
cost model's cycle budgets and the decode cache's counters into a
structured, JSON-serializable report.

Everything is deterministic: the generator derives every choice from
``random.Random(f"{kind}:{seed}")``, the CAD flows behind the synthetic
task images are seeded, and the cost model is integer arithmetic — the
same seed always yields the identical report, which is what makes the
reports usable as regression goldens (``tests/runtime/test_workload.py``)
and as CI artifacts worth diffing.

Arrival mixes (:data:`TRACE_KINDS`):

* ``hot-set`` — a small hot set of tasks re-arrives with high
  probability over a cold tail; the decode cache's bread and butter.
* ``round-robin`` — every task cycles in order; exercises steady
  migration-free churn at a hit rate set by cache capacity vs task count.
* ``adversarial`` — distinct images are loaded and immediately unloaded
  in a cycle longer than the cache; with ``cache_capacity`` below the
  task count every lookup misses (LRU's worst case), pinning the
  thrashing floor.
* ``zipf`` — task popularity follows a Zipf(α) law over the task list
  order (rank 1 = first name); the skewed on-demand mix of an
  algorithm-on-demand co-processor, between hot-set's two-class split
  and round-robin's uniformity.

Closed loop versus open loop: by default a trace is a pure *sequence* —
the simulator replays one event after the other and reports summed cycle
budgets.  ``arrivals="poisson"`` turns the same mixes into an
**open-loop** trace: every request arrival is stamped with a virtual
timestamp drawn from a seeded Poisson process (exponential
inter-arrivals of mean ``mean_interarrival`` cycles, drawn from a
*separate* rng stream so the task mix of a seed is identical with and
without timestamps).  The simulator then runs a virtual clock — service
time from the cost model, FIFO queueing when requests arrive faster
than reconfiguration completes — and the report gains latency
percentiles (p50/p95/p99), queue depths and per-phase breakdowns; see
:class:`WorkloadSimulator`.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeManagementError
from repro.runtime.admission import defers, make_policy
from repro.runtime.fleet import (
    FleetManager,
    ServerBank,
    _maybe_migrate,
    validate_replay_request,
)
from repro.runtime.manager import FIRST_FIT, FabricManager

#: Supported arrival mixes of :func:`generate_trace`.
TRACE_KINDS = ("hot-set", "round-robin", "adversarial", "zipf")

#: Supported open-loop arrival processes (``None`` = closed loop).
ARRIVAL_KINDS = ("poisson",)

#: Version stamp of the report schema (bump on renames/removals; key
#: additions are compatible).
REPORT_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One runtime-manager request: ``op`` in load/unload/migrate.

    ``at`` is the open-loop arrival timestamp in controller cycles
    (``None`` in closed-loop traces).  Events emitted by one request
    arrival — the eviction unloads preceding a load — share its stamp.
    """

    op: str
    task: str
    at: Optional[int] = None


@dataclass(frozen=True)
class WorkloadTrace:
    """A seeded, replayable sequence of task arrivals.

    ``arrivals``/``mean_interarrival`` record the open-loop arrival
    process the events were stamped with (``None`` for closed-loop
    traces); ``zipf_alpha`` records the popularity skew of the ``zipf``
    mix.
    """

    kind: str
    seed: int
    tasks: Tuple[str, ...]
    events: Tuple[TraceEvent, ...]
    arrivals: Optional[str] = None
    mean_interarrival: Optional[int] = None
    zipf_alpha: Optional[float] = None

    def __len__(self) -> int:
        return len(self.events)

    @property
    def open_loop(self) -> bool:
        """True when the events carry arrival timestamps."""
        return self.arrivals is not None


def validate_trace_request(
    kind: str,
    arrivals: Optional[str] = None,
    mean_interarrival: int = 2000,
    zipf_alpha: float = 1.1,
    length: int = 1,
    max_resident: int = 1,
) -> None:
    """Reject unknown mixes/arrival processes and bad parameters.

    Shared by :func:`generate_trace` and the entry points that do
    expensive work *before* generating a trace (``run_scenario``
    synthesizes full CAD flows first) — a typo'd mix name must fail in
    milliseconds, not after seconds of placement and routing.

    ``length`` and ``max_resident`` must both be at least 1: a
    zero-length trace is a request for nothing (callers that need the
    degenerate empty report can hand-build a :class:`WorkloadTrace`),
    and ``max_resident=0`` used to escape as a bare ``IndexError`` from
    the generator's eviction loop — no task can ever become resident,
    so the symbolic victim pop underflowed.
    """
    if kind not in TRACE_KINDS:
        raise RuntimeManagementError(
            f"unknown trace kind {kind!r}; known: {TRACE_KINDS}"
        )
    if arrivals is not None and arrivals not in ARRIVAL_KINDS:
        raise RuntimeManagementError(
            f"unknown arrival process {arrivals!r}; known: {ARRIVAL_KINDS}"
        )
    if arrivals is not None and mean_interarrival < 1:
        raise RuntimeManagementError(
            "mean inter-arrival time must be at least one cycle"
        )
    if kind == "zipf" and zipf_alpha <= 0:
        raise RuntimeManagementError("zipf alpha must be positive")
    if length < 1:
        raise RuntimeManagementError(
            f"trace length must be at least one event (got {length})"
        )
    if max_resident < 1:
        raise RuntimeManagementError(
            f"max_resident must be at least one task (got {max_resident})"
        )


def generate_trace(
    kind: str,
    task_names: Sequence[str],
    length: int,
    seed: int = 0,
    hot_fraction: float = 0.25,
    hot_weight: float = 0.8,
    max_resident: int = 2,
    arrivals: Optional[str] = None,
    mean_interarrival: int = 2000,
    zipf_alpha: float = 1.1,
) -> WorkloadTrace:
    """Generate a ``length``-event trace under the requested arrival mix.

    The generator tracks a symbolic resident set (bounded by
    ``max_resident``) so emitted sequences are always *replayable*: a
    load of a resident task is preceded by its unload (a task finishing
    and re-arriving — the cache's reuse case), and arrivals past the
    resident bound first unload the symbolically oldest task.  The
    simulator still tolerates infeasible events defensively, but traces
    from here never rely on that.

    ``arrivals="poisson"`` stamps every request arrival with a virtual
    timestamp: inter-arrival gaps are exponential with mean
    ``mean_interarrival`` cycles (rounded to whole cycles, at least 1),
    drawn from a dedicated rng stream — the task mix of a given
    ``(kind, seed)`` is byte-identical with and without timestamps.
    ``zipf_alpha`` sets the popularity skew of the ``zipf`` mix (rank
    ``r`` in the task list arrives with probability proportional to
    ``r ** -alpha``).
    """
    validate_trace_request(
        kind, arrivals, mean_interarrival, zipf_alpha,
        length=length, max_resident=max_resident,
    )
    if not task_names:
        raise RuntimeManagementError("trace needs at least one task name")
    names = list(task_names)
    rng = random.Random(f"{kind}:{seed}")
    #: Arrival clock stream, independent of the task-choice stream: the
    #: open-loop variant of a seed replays the closed-loop task mix.
    rng_arrivals = random.Random(f"arrivals:{kind}:{seed}")
    now = 0
    resident: List[str] = []  # symbolic, oldest first
    events: List[TraceEvent] = []

    n_hot = max(1, round(len(names) * hot_fraction))
    hot, cold = names[:n_hot], names[n_hot:]
    zipf_weights = [
        (rank + 1) ** -zipf_alpha for rank in range(len(names))
    ]
    cursor = 0

    def emit(op: str, task: str) -> None:
        events.append(TraceEvent(
            op, task, at=now if arrivals is not None else None
        ))

    def arrive(task: str) -> None:
        """Emit the events of one task arrival (evict/reload as needed)."""
        if task in resident:
            resident.remove(task)
            emit("unload", task)
        while len(resident) >= max_resident:
            victim = resident.pop(0)
            emit("unload", victim)
        emit("load", task)
        resident.append(task)

    while len(events) < length:
        if arrivals is not None:
            now += max(
                1, round(rng_arrivals.expovariate(1.0 / mean_interarrival))
            )
        if kind == "hot-set":
            if cold and rng.random() >= hot_weight:
                task = rng.choice(cold)
            else:
                task = rng.choice(hot)
            if task in resident and rng.random() < 0.25:
                emit("migrate", task)
                continue
            arrive(task)
        elif kind == "zipf":
            arrive(rng.choices(names, weights=zipf_weights)[0])
        elif kind == "round-robin":
            arrive(names[cursor % len(names)])
            cursor += 1
        else:  # adversarial cache-thrashing
            task = names[cursor % len(names)]
            cursor += 1
            emit("load", task)
            emit("unload", task)

    return WorkloadTrace(
        kind=kind,
        seed=seed,
        tasks=tuple(names),
        events=tuple(events[:length]),
        arrivals=arrivals,
        mean_interarrival=mean_interarrival if arrivals is not None else None,
        zipf_alpha=zipf_alpha if kind == "zipf" else None,
    )


def _expanded_bytes(manager: FabricManager, image) -> int:
    from repro.runtime.costmodel import expanded_image_bytes

    nraw = manager.controller.fabric.params.nraw
    return expanded_image_bytes(image.width, image.height, nraw)


def apply_trace_event(
    manager: FabricManager, event: TraceEvent, bank: ServerBank
):
    """Process one trace event on ``manager``; returns the cost or None.

    The single definition of the simulator's arrival policy, accounted
    on the shard's :class:`~repro.runtime.fleet.ServerBank`.  The return
    value is the :class:`~repro.runtime.costmodel.LoadCost` of a
    reconfiguration request that actually executed (a load or a
    migration) — what the open-loop clock charges as service time.
    Skipped, failed and unload events return None (an unload is a
    zero-service bookkeeping request in this model: clearing a region
    is not metered by the cost model).
    """
    ctrl = manager.controller
    counts = bank.state["counts"]
    name = event.task
    if event.op == "load":
        if name in ctrl.resident:
            counts["skipped"] += 1
            return None
        image = ctrl.memory.image(name)
        if image is None:
            counts["failed_loads"] += 1
            return None
        # The manager's own eviction policy (make_room returns []
        # when a region is already free), kept visible here only
        # because the report counts the victims.
        evicted = manager.make_room(image.width, image.height)
        if evicted is None:
            counts["failed_loads"] += 1
            return None
        counts["evictions_for_space"] += len(evicted)
        counts["unloads"] += len(evicted)
        cost = manager.place_task(name).load_cost
    elif event.op == "unload":
        if name not in ctrl.resident:
            counts["skipped"] += 1
            return None
        ctrl.unload_task(name)
        counts["unloads"] += 1
        return None
    elif event.op == "migrate":
        resident = ctrl.resident.get(name)
        if resident is None:
            counts["skipped"] += 1
            return None
        region = resident.region
        target = manager.find_origin(region.w, region.h, ignore=name)
        if target is None or target == (region.x, region.y):
            counts["skipped"] += 1
            return None
        moved = ctrl.migrate_task(name, target)
        image, cost = moved.image, moved.load_cost
    else:
        raise RuntimeManagementError(f"unknown trace op {event.op!r}")
    # A load or migration that misses the cache replays the decoder.
    decoded = 0
    if not cost.cache_hit and image.kind == "vbs":
        decoded = _expanded_bytes(manager, image)
    bank.count(event.op, name, cost, decoded)
    return cost


def latency_section(
    latencies: List[int],
    queue_waits: List[int],
    phase_samples: Dict[str, List[int]],
) -> Optional[dict]:
    """The report's latency block, or None for zero serviced requests.

    A replay that serviced no reconfigurations has no latency
    distribution: the section is null (``percentile`` rejects empty
    samples), never a fabricated all-zero block.
    """
    from repro.runtime.costmodel import percentile

    if not latencies:
        return None
    return {
        "unit": "cycles",
        "requests": len(latencies),
        "p50": percentile(latencies, 50),
        "p95": percentile(latencies, 95),
        "p99": percentile(latencies, 99),
        "mean": sum(latencies) / len(latencies),
        "max": max(latencies),
        "queueing": {
            "p50": percentile(queue_waits, 50),
            "p95": percentile(queue_waits, 95),
            "p99": percentile(queue_waits, 99),
            "max": max(queue_waits),
            "total": sum(queue_waits),
        },
        "phases": {
            phase: {
                "p50": percentile(samples, 50),
                "p95": percentile(samples, 95),
                "p99": percentile(samples, 99),
            }
            for phase, samples in phase_samples.items()
        },
    }


def _request_subject(manager: FabricManager, events) -> Tuple[str, bool]:
    """The arriving task of one request group, and whether it is *hot*.

    A request group is the events sharing one arrival stamp: the
    eviction unloads preceding a load, then the load itself (or a lone
    migrate).  The subject is the task the arrival is *for* — the last
    load/migrate in the group — and it is hot when serving it is cheap:
    already fabric-resident, or its expansion sits warm in the decode
    cache (checked with :meth:`DecodeCache.peek`, which perturbs no
    hit/miss accounting).
    """
    subject = events[-1].task
    for event in events:
        if event.op in ("load", "migrate"):
            subject = event.task
    ctrl = manager.controller
    if subject in ctrl.resident:
        return subject, True
    cache = ctrl.decode_cache
    if cache is not None:
        from repro.runtime.costmodel import DecodeCache

        image = ctrl.memory.image(subject)
        if image is not None and image.kind == "vbs":
            if cache.peek(DecodeCache.key_for(image)) is not None:
                return subject, True
    return subject, False


def _trace_header(trace: WorkloadTrace) -> dict:
    header = {
        "kind": trace.kind,
        "seed": trace.seed,
        "length": len(trace.events),
        "tasks": list(trace.tasks),
    }
    if trace.open_loop:
        header["arrivals"] = trace.arrivals
        header["mean_interarrival"] = trace.mean_interarrival
        if trace.zipf_alpha is not None:
            header["zipf_alpha"] = trace.zipf_alpha
    return header


def _cache_counters(ctrl) -> Tuple[int, int, int]:
    cache = ctrl.decode_cache
    if cache is None:
        return 0, 0, 0
    return cache.stats.hits, cache.stats.misses, cache.stats.evictions


def _summed(dicts) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for counters in dicts:
        for field, value in counters.items():
            totals[field] = totals.get(field, 0) + value
    return totals


def _section(
    fleet: FleetManager, shards: Sequence[int], cache_bases, open_loop: bool
) -> dict:
    """The report sections over ``shards`` — one shard, or the fleet.

    Counters and samples come from the shards' server banks; cache,
    table and fabric state from their controllers.
    """
    banks = [fleet.banks[i] for i in shards]
    ctrls = [fleet.shards[i].controller for i in shards]
    caches = [ctrl.decode_cache for ctrl in ctrls]
    deltas = [
        [now - base for now, base in zip(_cache_counters(ctrl), bases)]
        for ctrl, bases in zip(ctrls, (cache_bases[i] for i in shards))
    ]
    hits, misses, evictions = (sum(column) for column in zip(*deltas))
    lookups = hits + misses
    section = {
        "events": _summed(bank.state["counts"] for bank in banks),
        "cycles": _summed(bank.state["cycles"] for bank in banks),
        "load_cache_hits": sum(b.state["load_cache_hits"] for b in banks),
        "bytes_decoded": sum(bank.state["bytes_decoded"] for bank in banks),
        "cache": {
            "enabled": any(cache is not None for cache in caches),
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "evictions": evictions,
            "entries": sum(len(cache) for cache in caches if cache),
            "bytes_in_cache": sum(
                cache.total_bytes for cache in caches if cache
            ),
        },
        "shared_dicts": {
            "resident_at_end": sorted(
                set().union(*(ctrl.shared_dicts for ctrl in ctrls))
            ),
        },
        "fabric": {
            "width": ctrls[0].fabric.width,
            "height": ctrls[0].fabric.height,
            "utilization": (
                sum(ctrl.utilization() for ctrl in ctrls) / len(ctrls)
            ),
            "resident_at_end": sorted(
                name for ctrl in ctrls for name in ctrl.resident
            ),
        },
    }
    if not open_loop:
        return section
    arrivals = sum(bank.arrivals for bank in banks)
    makespan = max(bank.makespan for bank in banks)
    busy = sum(bank.busy for bank in banks)
    section["latency"] = latency_section(
        [x for bank in banks for x in bank.latencies],
        [x for bank in banks for x in bank.queue_waits],
        {
            phase: [x for bank in banks for x in bank.phases[phase]]
            for phase in ("fetch", "decode", "write")
        },
    )
    section["queue"] = {
        "arrivals": arrivals,
        "max_depth": max(bank.max_depth for bank in banks),
        "mean_depth": (
            sum(bank.depth_sum for bank in banks) / arrivals
            if arrivals
            else 0.0
        ),
    }
    section["clock"] = {
        "makespan": makespan,
        "busy_cycles": busy,
        # n shards x k servers each: a fully-loaded fleet sits at 1.0.
        "utilization": (
            busy / (len(banks) * fleet.servers * makespan)
            if makespan
            else 0.0
        ),
    }
    if fleet.servers > 1:
        section["clock"]["servers"] = fleet.servers
    return section


def _per_task(fleet: FleetManager) -> dict:
    return {
        name: _summed(bank.state["per_task"][name] for bank in fleet.banks)
        for name in sorted(fleet.banks[0].state["per_task"])
    }


class WorkloadSimulator:
    """Replay a :class:`WorkloadTrace` through a :class:`FabricManager`.

    Every image the trace names must already be stored in the
    controller's external memory.  The simulator owns the arrival
    policy — evicting oldest-resident tasks to make room, skipping
    infeasible events — and charges every load/migrate with the cost
    model's cycle breakdown, so the report's latency numbers are exactly
    what the controller would have measured.

    Open-loop traces (events stamped with arrival timestamps) are run
    through a virtual clock: the reconfiguration controller is a bank
    of ``servers`` parallel FIFO servers (default 1), a request's
    *service time* is its cost-model cycle total, it starts at
    ``max(arrival, earliest server-free time)`` (the difference is its
    *queueing delay*), and its *latency* is ``finish - arrival``.
    Events sharing an arrival stamp form one request.  The report then
    carries p50/p95/p99 latency, queue depths sampled at every arrival,
    per-phase (fetch/decode/write) percentiles and the clock's makespan,
    with utilization normalized by the server count — the numbers a
    production deployment is sized by.  Closed-loop reports skip the
    clock (the open-loop keys are simply absent).

    ``policy`` arms admission control at the arrival door (a
    :data:`~repro.runtime.admission.POLICY_KINDS` name; requires an
    open-loop trace): under ``defer-cold``, cold requests arriving at
    a queue depth of ``queue_threshold`` or more are deferred — see
    :mod:`repro.runtime.admission`.  The report gains an ``admission``
    section with the door's counters.

    ``observer`` is called after every processed event with the
    :class:`TraceEvent` — the hook the lifecycle property tests use to
    assert invariants (e.g. shared-dictionary refcounts) at every
    intermediate state, not just at the end of the replay.

    ``fleet`` (instead of ``manager``) replays the trace across a
    sharded :class:`~repro.runtime.fleet.FleetManager`; the report then
    carries per-shard *and* fleet-wide sections.  A single manager
    replays as a fleet of one on the same engine: every event routes to
    its shard and is charged on that shard's
    :class:`~repro.runtime.fleet.ServerBank`, and saturation migration
    is tried after every timed event.  A fleet's server count lives on
    the :class:`FleetManager` itself, so ``servers``/``policy`` here
    apply to single-manager replays only.
    """

    def __init__(
        self,
        manager: "Optional[FabricManager]" = None,
        observer: "Optional[Callable[[TraceEvent], None]]" = None,
        fleet: "Optional[FleetManager]" = None,
        servers: int = 1,
        policy=None,
        queue_threshold: int = 4,
    ):
        if (manager is None) == (fleet is None):
            raise RuntimeManagementError(
                "WorkloadSimulator needs exactly one of manager= or fleet="
            )
        resolved = make_policy(policy, queue_threshold)
        validate_replay_request(
            servers, policy=resolved is not None, fleet=fleet is not None
        )
        if fleet is not None and servers != 1:
            raise RuntimeManagementError(
                "a fleet's server count is set on the FleetManager "
                "(servers= here applies to single-manager replays)"
            )
        self.manager = manager
        self.fleet = fleet
        self.observer = observer
        self.servers = servers
        self.policy = resolved
        self.queue_threshold = queue_threshold

    def run(self, trace: WorkloadTrace) -> dict:
        """Replay ``trace``; return the structured report (JSON-safe)."""
        fleet = self.fleet
        if fleet is None:
            fleet = FleetManager([self.manager], servers=self.servers)
        policy = self.policy
        observer = self.observer
        open_loop = trace.open_loop
        validate_replay_request(
            open_loop=open_loop,
            policy=policy is not None,
            fleet=self.fleet is not None,
            migrate_backlog=fleet.migrate_backlog,
        )
        cache_bases = [_cache_counters(m.controller) for m in fleet.shards]
        ctrl0 = fleet.shards[0].controller
        base_dict_faults = ctrl0.shared_dict_faults
        base_dict_drops = ctrl0.shared_dict_drops
        fleet.start_replay(trace.tasks)
        base_faults = fleet.fleet_dict_faults
        base_drops = fleet.fleet_dict_drops
        banks = fleet.banks
        admission = {"admitted": 0, "deferred": 0, "dropped": 0,
                     "lanes": {"hot": 0, "cold": 0}}

        def process(event, request=None, clock_at=0):
            name = event.task
            if event.op == "load":
                shard = fleet.route(name)
                fleet.task_shard[name] = shard
            else:
                shard = fleet.home(name)
            bank = banks[shard]
            cost = apply_trace_event(fleet.shards[shard], event, bank)
            if request is not None and event.at is not None:
                bank.charge(request, clock_at, event.at, cost)
                _maybe_migrate(fleet)
            fleet.sync_shared_dicts()
            if observer is not None:
                observer(event)

        # Deferred requests awaiting re-admission:
        # (retry_at, seq, events, attempts so far).
        pending: List[tuple] = []

        def dispatch(clock_at: int, events, attempts: int) -> None:
            """Admit (or defer) one request at the door at ``clock_at``.

            Latency and queueing are measured against the events' own
            arrival stamp, so deferral delay shows up as queueing.
            """
            fleet.now = clock_at
            if policy is not None:
                door = banks[0]  # admission runs on a fleet of one
                depth = door.drain(clock_at)
                _subject, hot = _request_subject(fleet.shards[0], events)
                if defers(hot, depth, self.queue_threshold, attempts):
                    retry_at = max(clock_at + 1, door.server_free[0])
                    heapq.heappush(pending, (
                        retry_at, admission["deferred"], events, attempts + 1,
                    ))
                    admission["deferred"] += 1
                    return
                admission["admitted"] += 1
                admission["lanes"]["hot" if hot else "cold"] += 1
            request = object()
            for event in events:
                process(event, request, clock_at)

        def retry_until(limit: float) -> None:
            while pending and pending[0][0] <= limit:
                retry_at, _seq, events, attempts = heapq.heappop(pending)
                dispatch(retry_at, events, attempts)

        for at, events in _request_groups(trace):
            if at is None:
                for event in events:
                    process(event)
                continue
            retry_until(at)
            dispatch(at, events, 0)
        retry_until(math.inf)

        report = {
            "report_version": REPORT_VERSION,
            "trace": _trace_header(trace),
            **_section(fleet, range(fleet.n_shards), cache_bases, open_loop),
            "per_task": _per_task(fleet),
        }
        if self.fleet is not None:
            refcounts = fleet.shared_dict_refcounts()
            report["shared_dicts"].update(
                max_resident=fleet.max_resident_tables,
                faults=fleet.fleet_dict_faults - base_faults,
                drops=fleet.fleet_dict_drops - base_drops,
            )
            report["fleet"] = {
                "shards": fleet.n_shards,
                "router": fleet.router.name,
                "cross_migrations": fleet.cross_migrations,
                "migrate_backlog": fleet.migrate_backlog,
                # Explicit, so a report can never silently claim
                # migration coverage a closed-loop replay would not have
                # delivered.
                "migrations_armed": (
                    fleet.migrate_backlog is not None and open_loop
                ),
                "shared_dicts": {
                    **report["shared_dicts"],
                    "referencing_shards": {
                        str(dict_id): refcounts[dict_id]
                        for dict_id in sorted(refcounts)
                    },
                },
            }
            report["shards"] = [
                {"shard": i, **_section(fleet, [i], cache_bases, open_loop)}
                for i in range(fleet.n_shards)
            ]
            return report
        cache = ctrl0.decode_cache
        report["cache"]["capacity"] = cache.capacity if cache else 0
        report["cache"]["capacity_bytes"] = (
            cache.capacity_bytes if cache else None
        )
        report["shared_dicts"].update(
            max_resident=fleet.max_resident_tables,
            faults=ctrl0.shared_dict_faults - base_dict_faults,
            drops=ctrl0.shared_dict_drops - base_dict_drops,
        )
        if policy is not None:
            report["admission"] = {
                "policy": policy,
                "queue_threshold": self.queue_threshold,
                **admission,
            }
        return report


def _request_groups(trace: WorkloadTrace) -> List[tuple]:
    """The trace as ``(arrival stamp, events)`` request groups.

    Consecutive events sharing a stamp form one request; untimed events
    ride with the group they follow (applied off-clock), and a
    closed-loop trace is one untimed group.
    """
    groups: List[tuple] = []
    for event in trace.events:
        timed = trace.open_loop and event.at is not None
        if timed and (not groups or event.at != groups[-1][0]):
            groups.append((event.at, [event]))
        elif groups:
            groups[-1][1].append(event)
        else:
            groups.append((None, [event]))
    return groups


# -- end-to-end scenario harness --------------------------------------------------


def synthesize_task_images(
    n_tasks: int = 3,
    channel_width: int = 8,
    cluster_size: int = 1,
    seed: int = 1,
    base_luts: int = 10,
    codecs: "str | Sequence[str] | None" = None,
):
    """Deterministic synthetic task set: (name, VirtualBitstream) pairs.

    Each task is a small generated circuit pushed through the full CAD
    flow and vbsgen — real containers with real decode cost, sized to
    stay interactive (a few seconds for the default three tasks).
    :func:`synthesize_task_scope_images` is the multi-container
    ``encode_task`` counterpart.
    """
    from repro.arch.params import ArchParams
    from repro.bitstream.expand import expand_routing
    from repro.cad.flow import run_flow
    from repro.netlist import CircuitSpec, generate_circuit
    from repro.vbs.encode import encode_flow

    params = ArchParams(channel_width=channel_width)
    images = []
    for i in range(n_tasks):
        name = f"task{i}"
        spec = CircuitSpec(
            name,
            n_luts=base_luts + 3 * i,
            n_inputs=5 + (i % 3),
            n_outputs=4,
        )
        netlist = generate_circuit(spec)
        flow = run_flow(netlist, params, seed=seed + i)
        config = expand_routing(
            flow.design, flow.placement, flow.routing, flow.rrg
        )
        vbs = encode_flow(
            flow, config, cluster_size=cluster_size, codecs=codecs
        )
        images.append((name, vbs))
    return images


def synthesize_task_scope_images(
    n_tasks: int = 2,
    containers_per_task: int = 2,
    channel_width: int = 8,
    cluster_size: int = 1,
    seed: int = 1,
    base_luts: int = 24,
    codecs: "str | Sequence[str] | None" = "auto",
):
    """Deterministic multi-container task groups sharing dictionaries.

    Each of the ``n_tasks`` groups is one replicated-datapath circuit
    (a small truth-table vocabulary via ``CircuitSpec.pattern_pool``,
    the repetition structure the dictionary codec exploits) placed and
    routed ``containers_per_task`` times at different seeds — distinct
    container bytes over a shared logic vocabulary, so the task-scope
    ``encode_task`` keep-if-it-pays selection adopts one external table
    per group.  Returns ``[(names, TaskEncodeResult), ...]`` with
    container names ``task<g>.<c>`` and dictionary ids ``g + 1``;
    publish each group with
    :meth:`~repro.runtime.controller.ReconfigurationController.store_task`
    so traces over the container names drive the shared-dictionary
    refcount path under eviction pressure.
    """
    from repro.arch.params import ArchParams
    from repro.bitstream.expand import expand_routing
    from repro.cad.flow import run_flow
    from repro.netlist import CircuitSpec, generate_circuit
    from repro.vbs.encode import encode_task

    params = ArchParams(channel_width=channel_width)
    groups = []
    for g in range(n_tasks):
        spec = CircuitSpec(
            f"task{g}",
            n_luts=base_luts + 4 * g,
            n_inputs=6,
            n_outputs=4,
            pattern_pool=3,
        )
        netlist = generate_circuit(spec)
        jobs = []
        for c in range(containers_per_task):
            flow = run_flow(
                netlist, params, seed=seed + g * containers_per_task + c
            )
            config = expand_routing(
                flow.design, flow.placement, flow.routing, flow.rrg
            )
            jobs.append((flow, config))
        result = encode_task(
            jobs, dict_id=g + 1, cluster_size=cluster_size, codecs=codecs
        )
        names = [f"task{g}.{c}" for c in range(containers_per_task)]
        groups.append((names, result))
    return groups


def run_scenario(
    kind: str = "hot-set",
    n_tasks: int = 3,
    length: int = 40,
    seed: int = 1,
    channel_width: int = 8,
    cluster_size: int = 1,
    cache_capacity: "int | None" = 16,
    cache_capacity_bytes: Optional[int] = None,
    memo_entries: Optional[int] = 4096,
    strategy: str = FIRST_FIT,
    codecs: "str | Sequence[str] | None" = None,
    arrivals: Optional[str] = None,
    mean_interarrival: int = 2000,
    zipf_alpha: float = 1.1,
    task_scope: bool = False,
    containers_per_task: int = 2,
    shards: int = 1,
    router: str = "hash",
    migrate_backlog: Optional[int] = None,
    servers: int = 1,
    policy: "str | None" = None,
    queue_threshold: int = 4,
) -> dict:
    """Build a synthetic multi-task scenario and replay one trace.

    The one-call harness behind ``repro runtime simulate``, the eval
    runner and the benchmark smoke job: synthesizes ``n_tasks`` VBS
    images, sizes an all-CLB fabric with room for roughly one-and-a-half
    tasks (so eviction pressure is real), generates the ``kind`` trace
    and returns the simulator's report with the scenario parameters
    attached.

    ``arrivals="poisson"`` runs the open-loop engine (latency
    percentiles, queue depths; see :class:`WorkloadSimulator`);
    ``task_scope=True`` synthesizes ``n_tasks`` multi-container task
    groups through ``encode_task`` instead of independent images, so the
    trace (over ``n_tasks * containers_per_task`` container names)
    exercises the VERSION 4 shared-dictionary refcount path under the
    fabric's eviction pressure.

    ``shards > 1`` replays the trace across a sharded fabric fleet
    (:mod:`repro.runtime.fleet`): every shard gets its own identically
    sized fabric, controller, decode cache and memo, all sharing one
    external memory where images and shared dictionaries are published
    once; ``router`` picks the placement policy and ``migrate_backlog``
    arms cross-shard saturation migration.  The ``shards == 1`` default
    is byte-identical to the historical single-fabric report.

    ``servers`` widens every fabric's reconfiguration controller to a
    bank of k parallel virtual servers (open-loop clock only), and
    ``policy``/``queue_threshold`` arm admission control at the arrival
    door (single-fabric open-loop runs; see
    :mod:`repro.runtime.admission`).
    """
    from repro.runtime.controller import ReconfigurationController
    from repro.runtime.fleet import validate_fleet_request

    # Fail on a bad mix/arrival/fleet/policy request before expensive
    # synthesis.
    validate_trace_request(
        kind, arrivals, mean_interarrival, zipf_alpha, length=length
    )
    validate_fleet_request(shards, router)
    armed = make_policy(policy, queue_threshold)
    validate_replay_request(
        servers,
        open_loop=arrivals is not None,
        policy=armed is not None,
        fleet=shards > 1,
        migrate_backlog=migrate_backlog,
    )

    groups = []
    if task_scope:
        groups = synthesize_task_scope_images(
            n_tasks=n_tasks,
            containers_per_task=containers_per_task,
            channel_width=channel_width,
            cluster_size=cluster_size,
            seed=seed,
            codecs=codecs if codecs is not None else "auto",
        )
        images = [
            (name, vbs)
            for names, result in groups
            for name, vbs in zip(names, result.containers)
        ]
    else:
        images = synthesize_task_images(
            n_tasks=n_tasks,
            channel_width=channel_width,
            cluster_size=cluster_size,
            seed=seed,
            codecs=codecs,
        )
    build_fabric, memory = _scenario_fabric(images, channel_width)
    managers = [
        FabricManager(
            ReconfigurationController(
                build_fabric(),
                memory,
                cache_capacity=cache_capacity,
                cache_capacity_bytes=cache_capacity_bytes,
                memo_entries=memo_entries,
            ),
            strategy=strategy,
        )
        for _ in range(shards)
    ]

    # Images (and VERSION 4 shared tables) are published exactly once:
    # all shards resolve from the one shared external memory.
    publish = managers[0].controller
    if task_scope:
        for names, result in groups:
            publish.store_task(names, result)
    else:
        for name, vbs in images:
            publish.store_vbs(name, vbs)

    trace = generate_trace(
        kind, [name for name, _v in images], length, seed=seed,
        arrivals=arrivals, mean_interarrival=mean_interarrival,
        zipf_alpha=zipf_alpha,
    )
    if shards == 1:
        sim = WorkloadSimulator(
            managers[0], servers=servers, policy=armed,
            queue_threshold=queue_threshold,
        )
    else:
        sim = WorkloadSimulator(fleet=FleetManager(
            managers, router=router, migrate_backlog=migrate_backlog,
            servers=servers,
        ))
    report = sim.run(trace)
    report["scenario"] = {
        "n_tasks": n_tasks,
        "channel_width": channel_width,
        "cluster_size": cluster_size,
        "strategy": strategy,
        "memo_entries": memo_entries,
        "arrivals": arrivals,
        "task_scope": task_scope,
        "image_bits": {
            name: vbs.container_bits for name, vbs in images
        },
    }
    if task_scope:
        report["scenario"]["containers_per_task"] = containers_per_task
        report["scenario"]["shared_dict_ids"] = sorted(
            result.dict_id for _names, result in groups if result.shared
        )
    if shards > 1:
        report["scenario"]["shards"] = shards
        report["scenario"]["router"] = router
        report["scenario"]["migrate_backlog"] = migrate_backlog
    if servers != 1:
        report["scenario"]["servers"] = servers
    if armed is not None:
        report["scenario"]["policy"] = armed
        report["scenario"]["queue_threshold"] = queue_threshold
    return report


def _scenario_fabric(images, channel_width: int):
    """An all-CLB fabric factory sized for the images, and a memory.

    The fabric has room for roughly one-and-a-half of the largest task,
    so eviction pressure is real.
    """
    from repro.arch.fabric import FabricArch
    from repro.arch.params import ArchParams
    from repro.runtime.memory import ExternalMemory

    max_w = max(vbs.layout.width for _name, vbs in images)
    max_h = max(vbs.layout.height for _name, vbs in images)
    width = max_w + max_w // 2 + 1
    height = max_h + 1
    params = ArchParams(channel_width=channel_width)

    def build_fabric():
        return FabricArch(
            params, width, height,
            {(x, y): "clb" for x in range(width) for y in range(height)},
        )

    return build_fabric, ExternalMemory()


def summarize_report(report: dict) -> str:
    """A terse human-readable digest of a simulation report.

    Tolerates reports from older schema generations: the open-loop
    (``latency``/``queue``/``clock``) and shared-dictionary sections are
    rendered only when present.
    """
    ev, ca, cy = report["events"], report["cache"], report["cycles"]
    lines = [
        f"trace: {report['trace']['kind']} seed={report['trace']['seed']} "
        f"({report['trace']['length']} events, "
        f"{len(report['trace']['tasks'])} tasks)",
        f"events: {ev['loads']} loads, {ev['unloads']} unloads, "
        f"{ev['migrations']} migrations, {ev['skipped']} skipped, "
        f"{ev['evictions_for_space']} evictions for space",
        f"cache: {ca['hits']} hits / {ca['misses']} misses "
        f"(hit rate {ca['hit_rate']:.1%}), {ca['entries']} entries, "
        f"{ca['bytes_in_cache']} bytes resident",
        f"cycles: fetch {cy['fetch']}, decode {cy['decode']}, "
        f"write {cy['write']} — total {cy['total']}",
        f"bytes decoded: {report['bytes_decoded']}",
    ]
    la = report.get("latency")
    if la is not None:
        qu = report.get("queue", {})
        ck = report.get("clock", {})
        lines.append(
            f"latency: p50 {la['p50']} / p95 {la['p95']} / p99 {la['p99']} "
            f"cycles over {la['requests']} requests (max {la['max']}, "
            f"queueing p95 {la['queueing']['p95']})"
        )
        bank = (
            f"{ck['servers']}-server utilization"
            if ck.get("servers", 1) > 1
            else "server utilization"
        )
        lines.append(
            f"queue: max depth {qu.get('max_depth', 0)}, "
            f"mean {qu.get('mean_depth', 0.0):.2f}; "
            f"{bank} {ck.get('utilization', 0.0):.1%} over "
            f"{ck.get('makespan', 0)} cycles"
        )
    ad = report.get("admission")
    if ad is not None:
        lanes = ad.get("lanes", {})
        lines.append(
            f"admission: {ad['policy']} "
            f"(threshold {ad['queue_threshold']}) — "
            f"{ad['admitted']} admitted "
            f"({lanes.get('hot', 0)} hot / {lanes.get('cold', 0)} cold), "
            f"{ad['deferred']} deferred, {ad['dropped']} dropped"
        )
    fleet = report.get("fleet")
    if fleet is not None:
        shard_p99 = [
            (
                str(shard["latency"]["p99"])
                if shard.get("latency") is not None
                else "-"
            )
            for shard in report.get("shards", [])
        ]
        line = (
            f"fleet: {fleet['shards']} shards via {fleet['router']} router, "
            f"{fleet['cross_migrations']} cross-shard migrations"
        )
        if any(p != "-" for p in shard_p99):
            line += f"; per-shard p99 [{', '.join(shard_p99)}]"
        lines.append(line)
    sd = report.get("shared_dicts")
    if sd is not None and (sd["faults"] or sd["drops"]):
        lines.append(
            f"shared dicts: {sd['faults']} faults, {sd['drops']} drops, "
            f"max {sd['max_resident']} resident, "
            f"{sd['resident_at_end']} at end"
        )
    return "\n".join(lines)
