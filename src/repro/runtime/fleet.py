"""Sharded fabric fleet behind a pluggable placement router.

One :class:`~repro.runtime.manager.FabricManager` is the scaling ceiling
of the paper's runtime: a single reconfiguration controller serializes
every decode-and-place.  The fleet tier fronts N independent fabric
shards — each its own controller, decode cache and decode memo — behind
a placement router, while VERSION 4 shared dictionaries stay *fleet
scope*: published once into the one :class:`ExternalMemory` all shards
share and resolved from any shard, with the shard-local refcounts
rolling up into a fleet-level view (a table is fleet-resident while at
least one shard references it).

Router policies (:data:`ROUTER_KINDS`):

* ``hash`` — consistent hashing on the task name (sha256 over a ring of
  virtual nodes; deterministic across processes, unlike Python's salted
  ``hash``).  A task's home shard never depends on arrival order, so a
  re-arriving task lands where its decode-cache entry already is.
* ``load`` — route to the least-loaded shard by the *recorded* state of
  the fleet: current server backlog (open-loop clock), resident task
  count, mean recorded latency, then serviced-request count, with the
  shard index as the deterministic tie-break.

A fleet of one never consults its router: every request lands on shard
0.

When a shard saturates (its server backlog exceeds the coldest shard's
by ``migrate_backlog`` cycles), the fleet migrates the hot shard's
oldest resident task onto the coldest shard — the digest-keyed decode
cache entry travels with it, so the re-place is a warm hit, not a
replay.

Every replay runs on a fleet:
:class:`~repro.runtime.workload.WorkloadSimulator` replays a single
manager as a fleet of one.  Each shard's open-loop clock is a
:class:`ServerBank` of k virtual FIFO reconfiguration servers; the
report carries both per-shard and fleet-wide latency/queue/utilization
sections.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import RuntimeManagementError
from repro.runtime.controller import ResidentTask
from repro.runtime.costmodel import DecodeCache
from repro.runtime.manager import FabricManager

#: Supported placement-router policies.
ROUTER_KINDS = ("hash", "load")


def validate_fleet_request(shards: int, router: str) -> None:
    """Reject bad fleet parameters before any expensive work.

    Shared by :func:`~repro.runtime.workload.run_scenario` and the CLI —
    a typo'd router name or a non-positive shard count must fail in
    milliseconds (exit 2 at the CLI), not after seconds of synthesis.
    """
    if shards < 1:
        raise RuntimeManagementError(
            f"shard count must be at least 1 (got {shards})"
        )
    if router not in ROUTER_KINDS:
        raise RuntimeManagementError(
            f"unknown placement router {router!r}; known: {ROUTER_KINDS}"
        )


def validate_replay_request(
    servers: int = 1,
    open_loop: bool = True,
    policy: bool = False,
    fleet: bool = False,
    migrate_backlog: Optional[int] = None,
) -> None:
    """Reject a bad replay configuration, wherever it is first known.

    The one home of the server-count, admission and migration rules:
    the simulator, the fleet and the scenario harnesses call it with
    whatever they know (``open_loop`` stays True until a trace or an
    arrival process says otherwise), so a bad request fails before any
    synthesis.  ``policy`` is whether an admission policy is armed and
    ``fleet`` whether the replay is sharded (``shards >= 2``, or a
    :class:`FleetManager` handed to the simulator).
    """
    if servers < 1:
        raise RuntimeManagementError(
            f"server count must be at least 1 (got {servers})"
        )
    if policy and not open_loop:
        raise RuntimeManagementError(
            "admission policies need an open-loop trace (closed-loop "
            "replays have no arrival clock; pass arrivals='poisson')"
        )
    if policy and fleet:
        raise RuntimeManagementError(
            "admission policies apply to single-fabric runs and "
            "single-manager replays (fleet admission is routed per "
            "shard, not at one door)"
        )
    if migrate_backlog is None:
        return
    if migrate_backlog < 1:
        raise RuntimeManagementError(
            "migration backlog threshold must be at least one cycle"
        )
    if not fleet:
        raise RuntimeManagementError(
            "migrate_backlog needs a fleet (shards >= 2) to migrate "
            "between"
        )
    if not open_loop:
        raise RuntimeManagementError(
            "migrate_backlog needs an open-loop trace (closed-loop "
            "replays have no backlog clock, so saturation migration "
            "would silently never fire; pass arrivals='poisson')"
        )


def _hash_point(label: str) -> int:
    """A 64-bit ring position — sha256, never the salted built-in hash."""
    return int.from_bytes(
        hashlib.sha256(label.encode()).digest()[:8], "big"
    )


class ConsistentHashRouter:
    """Consistent hashing on the task name over a virtual-node ring.

    Each shard owns ``replicas`` points on a 64-bit ring; a task maps to
    the first point at or clockwise-after its own hash.  Adding a shard
    moves only the tasks falling into its new arcs — and, because the
    mapping ignores fleet state entirely, a task always re-arrives at
    the shard whose decode cache served it before.
    """

    name = "hash"

    def __init__(self, n_shards: int, replicas: int = 64):
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                points.append((_hash_point(f"shard{shard}:{replica}"), shard))
        points.sort()
        self._ring = points

    def choose(self, task: str, fleet: "FleetManager") -> int:
        point = _hash_point(task)
        idx = bisect_left(self._ring, (point, -1))
        if idx == len(self._ring):
            idx = 0  # wrap around the ring
        return self._ring[idx][1]


class LoadAwareRouter:
    """Route new placements to the least-loaded shard.

    Load is judged from *recorded* fleet state, coldest first: (server
    backlog in cycles, resident task count, mean recorded request
    latency, total serviced requests, shard index) — fully
    deterministic, so seeded replays stay reproducible.
    """

    name = "load"

    def choose(self, task: str, fleet: "FleetManager") -> int:
        def coldness(shard: int):
            recorded = fleet.banks[shard].latencies
            return (
                fleet.backlog(shard),
                len(fleet.shards[shard].controller.resident),
                sum(recorded) / len(recorded) if recorded else 0.0,
                len(recorded),
                shard,
            )

        return min(range(fleet.n_shards), key=coldness)


def make_router(router: "str | object", n_shards: int):
    """Resolve a router policy name (or pass a router object through)."""
    if not isinstance(router, str):
        return router
    validate_fleet_request(n_shards, router)
    if router == "hash":
        return ConsistentHashRouter(n_shards)
    return LoadAwareRouter()


class ServerBank:
    """One shard's virtual reconfiguration servers and replay samples.

    The open-loop clock of a replay: a min-heap of the k servers'
    free times, the sorted finish times of the requests still in
    flight, the per-request latency/queue-wait/phase samples, the
    depth and busy-time totals, and the event counters of the shard.
    A request's first timed event starts on the earliest-free server
    at ``max(arrival, free time)``; every later event of the request
    runs back-to-back on the server the request holds.
    """

    def __init__(self, servers: int = 1, task_names: Sequence[str] = ()):
        self.server_free: List[int] = [0] * servers  # min-heap
        self.in_flight: List[int] = []  # request finish times, sorted
        self.latencies: List[int] = []
        self.queue_waits: List[int] = []
        self.phases: Dict[str, List[int]] = {
            "fetch": [], "decode": [], "write": [],
        }
        self.depth_sum = 0
        self.max_depth = 0
        self.arrivals = 0
        self.busy = 0
        self.makespan = 0
        self.state = {
            "counts": {
                "loads": 0, "unloads": 0, "migrations": 0,
                "skipped": 0, "failed_loads": 0, "evictions_for_space": 0,
            },
            "cycles": {"fetch": 0, "decode": 0, "write": 0, "total": 0},
            "load_cache_hits": 0,
            "bytes_decoded": 0,
            "per_task": {
                name: {"loads": 0, "cache_hits": 0, "migrations": 0}
                for name in task_names
            },
        }
        #: The request being charged and its running finish time.
        self.request = None
        self.finish = 0

    def drain(self, now: int) -> int:
        """Retire the requests finished by ``now``; return the depth left."""
        del self.in_flight[:bisect_right(self.in_flight, now)]
        return len(self.in_flight)

    def charge(self, request, clock_at: int, arrival: int, cost) -> None:
        """Charge one timed event of ``request``, at the door at ``clock_at``.

        ``request=None`` is a one-event request that holds no server
        afterwards (a cross-shard migration).  A serviced event (``cost``
        not None) is sampled with its latency measured from ``arrival``.
        """
        free = self.server_free
        in_flight = self.in_flight
        new = request is None or request != self.request
        if new:
            depth = self.drain(clock_at)
            slot, start = 0, max(clock_at, free[0])
        else:
            # A later event reclaims the slot its request holds — unless
            # a migration claimed that slot meanwhile, in which case it
            # chains behind the earliest-free server.
            prev = self.finish
            if prev in free:
                slot, start = free.index(prev), prev
            else:
                slot, start = 0, max(prev, free[0])
            i = bisect_left(in_flight, prev)
            if i < len(in_flight) and in_flight[i] == prev:
                del in_flight[i]
        service = cost.total_cycles if cost is not None else 0
        finish = start + service
        self.busy += service
        self.makespan = max(self.makespan, finish)
        free[slot] = finish
        heapq.heapify(free)
        insort(in_flight, finish)
        if new:
            self.arrivals += 1
            self.depth_sum += depth + 1
            self.max_depth = max(self.max_depth, depth + 1)
        if request is not None:
            self.request, self.finish = request, finish
        if cost is None:
            return
        self.latencies.append(finish - arrival)
        self.queue_waits.append(start - arrival)
        self.phases["fetch"].append(cost.fetch_cycles)
        self.phases["decode"].append(cost.decode_cycles)
        self.phases["write"].append(cost.write_cycles)

    def count(self, op: str, name: str, cost, decoded_bytes: int = 0):
        """Account one executed reconfiguration (a load or a migration)."""
        state = self.state
        key = "loads" if op == "load" else "migrations"
        per_task = state["per_task"][name]
        state["counts"][key] += 1
        per_task[key] += 1
        cycles = state["cycles"]
        cycles["fetch"] += cost.fetch_cycles
        cycles["decode"] += cost.decode_cycles
        cycles["write"] += cost.write_cycles
        cycles["total"] += cost.total_cycles
        if cost.cache_hit:
            state["load_cache_hits"] += 1
            per_task["cache_hits"] += 1
        state["bytes_decoded"] += decoded_bytes


class FleetManager:
    """N fabric shards sharing one external memory, behind a router.

    Every shard is a full :class:`FabricManager` stack (controller,
    decode cache, decode memo) over its own fabric; all shards must
    share one :class:`~repro.runtime.memory.ExternalMemory` — that store
    *is* the fleet-scope tier where task images and VERSION 4 shared
    dictionaries are published once and resolved from any shard.

    The fleet rolls the shard-local shared-dictionary refcounts up into
    fleet-level accounting: :meth:`resident_shared_dicts` is the union
    of the shards' resident tables, :meth:`shared_dict_refcounts` counts
    referencing shards per table, and the ``fleet_dict_faults`` /
    ``fleet_dict_drops`` counters tick exactly when a table becomes
    fleet-resident (first shard to reference it) or stops being
    fleet-resident (last shard releases it) — a table referenced by two
    shards survives either one dropping its copy.

    ``migrate_backlog`` arms cross-shard saturation migration during
    open-loop replays: when the hottest shard's server backlog exceeds
    the coldest's by at least that many cycles, the hot shard's oldest
    resident task is re-placed on the coldest shard (decode-cache entry
    copied along, so warmth survives the move).  ``None`` disables it.
    """

    def __init__(
        self,
        shards: Sequence[FabricManager],
        router: "str | object" = "hash",
        migrate_backlog: Optional[int] = None,
        servers: int = 1,
    ):
        managers = list(shards)
        if not managers:
            raise RuntimeManagementError("a fleet needs at least one shard")
        memory = managers[0].controller.memory
        for mgr in managers[1:]:
            if mgr.controller.memory is not memory:
                raise RuntimeManagementError(
                    "fleet shards must share one external memory (the "
                    "fleet-scope image and dictionary store)"
                )
        validate_replay_request(
            servers, fleet=True, migrate_backlog=migrate_backlog
        )
        self.shards = managers
        self.memory = memory
        self.router = make_router(router, len(managers))
        self.migrate_backlog = migrate_backlog
        #: Parallel reconfiguration servers per shard (the open-loop
        #: clock runs one min-heap of k server-free times per shard).
        self.servers = servers
        #: Last known home shard of every task the fleet ever placed —
        #: bookkeeping requests (unload/migrate) for a task not resident
        #: anywhere are routed (and counted) at its last home.
        self.task_shard: Dict[str, int] = {}
        #: Virtual-clock state of the current replay (read back by the
        #: load-aware router): fleet time and one server bank per shard.
        self.now = 0
        self.banks = [ServerBank(servers) for _ in managers]
        self.cross_migrations = 0
        #: Fleet-scope shared-dictionary lifecycle counters (see class
        #: docstring); updated by :meth:`sync_shared_dicts`.
        self.fleet_dict_faults = 0
        self.fleet_dict_drops = 0
        self._dict_resident: Set[int] = set()
        self.max_resident_tables = 0

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def backlog(self, shard: int) -> int:
        """Cycles until ``shard``'s earliest server frees, at fleet time."""
        return max(0, self.banks[shard].server_free[0] - self.now)

    def start_replay(self, task_names: Sequence[str]) -> None:
        """Fresh server banks at time 0, and a baselined table roll-up."""
        self.now = 0
        self.banks = [
            ServerBank(self.servers, task_names) for _ in self.shards
        ]
        self.sync_shared_dicts()

    # -- fleet-scope publishing (the shared external memory) -----------------------

    def store_task(self, names, result):
        """Publish a task-scope encode (containers + shared table) once."""
        return self.shards[0].controller.store_task(names, result)

    # -- routing and task lifecycle ------------------------------------------------

    def shard_of(self, name: str) -> Optional[int]:
        """The shard where ``name`` is resident, or None."""
        for index, mgr in enumerate(self.shards):
            if name in mgr.controller.resident:
                return index
        return None

    def route(self, name: str) -> int:
        """The shard a request for ``name`` belongs on.

        A resident task is sticky to its shard; a new placement asks the
        router.  A fleet of one has nothing to choose.
        """
        if len(self.shards) == 1:
            return 0
        resident = self.shard_of(name)
        if resident is not None:
            return resident
        return self.router.choose(name, self)

    def home(self, name: str) -> int:
        """The shard a bookkeeping request (unload/migrate) is accounted on.

        Where ``name`` is resident, else its last home (shard 0 for a
        task never placed).
        """
        if len(self.shards) == 1:
            return 0
        resident = self.shard_of(name)
        if resident is not None:
            return resident
        return self.task_shard.get(name, 0)

    def place_task(
        self, name: str, evict: bool = True
    ) -> Tuple[int, ResidentTask]:
        """Route and place ``name``; returns ``(shard, resident task)``."""
        shard = self.route(name)
        task = self.shards[shard].place_task(name, evict=evict)
        self.task_shard[name] = shard
        self.sync_shared_dicts()
        return shard, task

    def unload_task(self, name: str) -> int:
        """Unload ``name`` from its shard; returns the shard index."""
        shard = self.shard_of(name)
        if shard is None:
            raise RuntimeManagementError(
                f"task {name!r} is not loaded on any shard"
            )
        self.shards[shard].controller.unload_task(name)
        self.sync_shared_dicts()
        return shard

    def can_host(self, shard: int, name: str) -> bool:
        """True when ``shard``'s fabric can hold ``name`` at all."""
        image = self.memory.image(name)
        if image is None:
            return False
        fabric = self.shards[shard].controller.fabric
        return image.width <= fabric.width and image.height <= fabric.height

    def migrate_across(self, name: str, dst: int) -> ResidentTask:
        """Re-place a resident task on shard ``dst``, keeping cache warmth.

        The digest-keyed decode-cache entry is copied from the source
        shard's cache into the destination's *before* the move, so the
        re-place is a warm hit (zero decode cycles) whenever the source
        still held the expansion.  The destination evicts its own oldest
        residents if it must make room.
        """
        src = self.shard_of(name)
        if src is None:
            raise RuntimeManagementError(
                f"task {name!r} is not loaded on any shard"
            )
        if not 0 <= dst < self.n_shards:
            raise RuntimeManagementError(f"no shard {dst} in this fleet")
        if src == dst:
            return self.shards[src].controller.resident[name]
        if not self.can_host(dst, name):
            raise RuntimeManagementError(
                f"task {name!r} cannot fit shard {dst}'s fabric"
            )
        src_ctrl = self.shards[src].controller
        dst_ctrl = self.shards[dst].controller
        image = src_ctrl.resident[name].image
        if (
            src_ctrl.decode_cache is not None
            and dst_ctrl.decode_cache is not None
        ):
            entry = src_ctrl.decode_cache.peek(DecodeCache.key_for(image))
            if entry is not None:
                dst_ctrl.decode_cache.put(DecodeCache.key_for(image), entry)
        src_ctrl.unload_task(name)
        # Feasibility was checked above, so evict=True cannot fail here.
        task = self.shards[dst].place_task(name, evict=True)
        self.task_shard[name] = dst
        self.cross_migrations += 1
        self.sync_shared_dicts()
        return task

    # -- fleet-scope shared-dictionary roll-up --------------------------------------

    def resident_shared_dicts(self) -> Set[int]:
        """Tables resident on at least one shard (the fleet-level view)."""
        return set(self.shared_dict_refcounts())

    def shared_dict_refcounts(self) -> Dict[int, int]:
        """Referencing-shard count per fleet-resident table."""
        counts: Dict[int, int] = {}
        for mgr in self.shards:
            for dict_id in mgr.controller.shared_dicts:
                counts[dict_id] = counts.get(dict_id, 0) + 1
        return counts

    def sync_shared_dicts(self) -> None:
        """Fold the shards' table residency into the fleet counters.

        Called after every fleet-level mutation (and after every replay
        event): a table entering the union is one fleet fault, a table
        leaving it is one fleet drop — by construction a drop happens
        only when *no* shard references the table any more.
        """
        current = self.resident_shared_dicts()
        self.fleet_dict_faults += len(current - self._dict_resident)
        self.fleet_dict_drops += len(self._dict_resident - current)
        self._dict_resident = current
        self.max_resident_tables = max(
            self.max_resident_tables, len(current)
        )


# -- saturation migration ----------------------------------------------------------


def _maybe_migrate(fleet: FleetManager) -> None:
    """One saturation-migration attempt at the current fleet time."""
    if fleet.migrate_backlog is None or fleet.n_shards < 2:
        return
    backlogs = [fleet.backlog(s) for s in range(fleet.n_shards)]
    hot = max(range(fleet.n_shards), key=lambda s: (backlogs[s], -s))
    cold = min(range(fleet.n_shards), key=lambda s: (backlogs[s], s))
    if hot == cold or backlogs[hot] - backlogs[cold] < fleet.migrate_backlog:
        return
    victim = next(
        (
            name
            for name in fleet.shards[hot].controller.resident
            if fleet.can_host(cold, name)
        ),
        None,
    )
    if victim is None:
        return
    # The re-place is real reconfiguration work on the cold shard: a
    # one-event request on its earliest-free server (usually a warm hit —
    # the cache entry travelled with the task — so zero decode cycles).
    cost = fleet.migrate_across(victim, cold).load_cost
    bank = fleet.banks[cold]
    bank.charge(None, fleet.now, fleet.now, cost)
    bank.count("migrate", victim, cost)
