"""The benchmark's four workloads over the ``repro`` package.

Every workload has the same shape, so every end-to-end metric means the
same thing on each of them (see README.md):

* ``setup(seed)`` builds the workload's inputs (netlists, or pre-routed
  designs and a request trace);
* ``compile()`` turns the inputs into serialized containers;
* the runner then cold-loads every container, checks each one once for
  functional equivalence against its source netlist, and — on the two
  runtime workloads — replays the request trace via ``replay()``.

Layer functions are called through their defining modules (or, for
``run_flow``'s stages, through ``repro.cad.flow``) so the tracer can wrap
them without touching the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import repro.bitstream.expand as expand_mod
import repro.cad.flow as flow_mod
import repro.vbs.encode as encode_mod
from repro.arch.params import ArchParams
from repro.arch.rrg import clear_routing_graph_cache
from repro.cad.flow import FlowResult
from repro.eval.experiments import extra_spec
from repro.eval.mcnc import circuit
from repro.netlist import CircuitSpec, generate_circuit
from repro.runtime import (
    ExternalMemory,
    FabricManager,
    FleetManager,
    ReconfigurationController,
    WorkloadSimulator,
    generate_trace,
)
from repro.utils.bitarray import BitArray
from repro.vbs.devirt import DecodeMemo


@dataclass
class Container:
    """One serialized container and the routed design it came from."""

    name: str
    bits: BitArray
    width: int
    height: int
    source: FlowResult


@dataclass
class Compiled:
    containers: List[Container]
    #: VERSION 4 shared-dictionary tables by id (fleet only).
    tables: Dict[int, tuple] = field(default_factory=dict)
    #: Per-layer counts of this compile (see README.md).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def bits(self) -> int:
        return sum(len(c.bits) for c in self.containers) + sum(
            len(pattern) for table in self.tables.values() for pattern in table
        )


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_encode(counts: Dict[str, float], stats) -> None:
    _add(counts, "vbs.encode.orders_tried", stats.orders_tried)
    _add(counts, "vbs.encode.offline_decode_work", stats.offline_decode_work)
    _add(counts, "vbs.encode.family_trials", stats.family_trials)
    _add(counts, "vbs.encode.decode_reuse_hits", stats.decode_reuse_hits)
    _add(counts, "vbs.encode.clusters_raw", stats.clusters_raw)
    _add(counts, "vbs.encode.clusters", stats.clusters_listed + stats.clusters_raw)


def _routed(netlist, params: ArchParams, seed: int):
    flow = flow_mod.run_flow(netlist, params, seed=seed)
    config = expand_mod.expand_routing(
        flow.design, flow.placement, flow.routing, flow.rrg
    )
    return flow, config


class Workload:
    name = ""
    #: True for the workloads that replay a request trace.
    replays = False

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def compile(self) -> Compiled:
        raise NotImplementedError

    def wirelength(self, compiled: Compiled) -> int:
        flows = {id(c.source): c.source for c in compiled.containers}
        return sum(f.routing.total_wirelength for f in flows.values())

    def replay(self, compiled: Compiled, observer: Callable) -> dict:
        raise NotImplementedError


class FlowWorkload(Workload):
    """Netlist to serialized container for two MCNC proxies (compile user)."""

    name = "flow"
    designs = ("tseng", "ex5p")
    scale = 0.4
    params = ArchParams(channel_width=20)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.netlists = [circuit(n).netlist(self.scale) for n in self.designs]

    def compile(self) -> Compiled:
        # A compile user pays for RRG construction in every process.
        clear_routing_graph_cache()
        out = Compiled([])
        counts = out.counts
        for netlist in self.netlists:
            flow, config = _routed(netlist, self.params, self.seed)
            vbs = encode_mod.encode_flow(
                flow, config, cluster_size=1, codecs="auto", memo=DecodeMemo()
            )
            bits = vbs.to_bits()
            out.containers.append(Container(
                netlist.name, bits, vbs.layout.width, vbs.layout.height, flow
            ))
            _add(counts, "cad.place.cost", flow.placement.cost)
            _add(counts, "cad.route.iterations", flow.routing.iterations)
            counts["cad.route.max_occupancy"] = max(
                counts.get("cad.route.max_occupancy", 0),
                flow.routing.max_occupancy,
            )
            _add(counts, "arch.rrg.nodes", flow.rrg.num_nodes)
            _add(counts, "cad.pack.clbs", flow.design.num_clbs)
            _count_encode(counts, vbs.stats)
        return out


class CodecWorkload(Workload):
    """vbsgen at cluster sizes 1-3 over pre-routed designs (no CAD timed)."""

    name = "codec"
    clusters = (1, 2, 3)
    params = ArchParams(channel_width=20)

    def setup(self, seed: int) -> None:
        # tseng keeps one placement: its cluster-3 encode time varies about
        # 2x between placements (0.98-1.87 s over seeds 1-6), which alone
        # would spread compile_s across seeds by more than any bound.  The
        # seed places dpath.
        tseng = _routed(circuit("tseng").netlist(0.4), self.params, 1)
        dpath = _routed(generate_circuit(extra_spec("dpath")), self.params, seed)
        self.designs = [tseng, dpath]

    def compile(self) -> Compiled:
        out = Compiled([])
        for flow, config in self.designs:
            for c in self.clusters:
                vbs = encode_mod.encode_flow(
                    flow, config, cluster_size=c, codecs="auto",
                    memo=DecodeMemo(),
                )
                bits = vbs.to_bits()
                out.containers.append(Container(
                    f"{flow.netlist.name}.c{c}", bits,
                    vbs.layout.width, vbs.layout.height, flow,
                ))
                _count_encode(out.counts, vbs.stats)
        return out


def fabric_for(containers: List[Container]):
    """An all-CLB fabric with room for about one and a half tasks.

    The sizing ``repro.runtime.run_scenario`` uses, so eviction pressure
    is real.
    """
    from repro.arch.fabric import FabricArch

    max_w = max(c.width for c in containers)
    max_h = max(c.height for c in containers)
    w, h = max_w + max_w // 2 + 1, max_h + 1
    params = containers[0].source.params
    return FabricArch(params, w, h, {(x, y): "clb" for x in range(w) for y in range(h)})


def publish(memory: ExternalMemory, compiled: Compiled) -> None:
    """Store shared tables first, then every container, in external memory."""
    for dict_id, table in compiled.tables.items():
        memory.store_shared_dict(dict_id, table)
    for c in compiled.containers:
        memory.store(c.name, c.bits, "vbs", c.width, c.height)


class ReplayWorkload(Workload):
    """One fabric, open-loop Zipf trace over 12 synthesized task images."""

    name = "replay"
    replays = True
    n_tasks = 12
    events = 3000
    params = ArchParams(channel_width=8)

    def setup(self, seed: int) -> None:
        # The task set of ``repro.runtime.synthesize_task_images`` (W=8,
        # base_luts=10), kept as routed designs so each pass re-encodes.
        self.tasks = []
        for i in range(self.n_tasks):
            spec = CircuitSpec(
                f"task{i}", n_luts=10 + 3 * i, n_inputs=5 + (i % 3), n_outputs=4
            )
            self.tasks.append(_routed(generate_circuit(spec), self.params, seed + i))
        self.trace = generate_trace(
            "zipf", [f"task{i}" for i in range(self.n_tasks)], self.events,
            seed=seed, arrivals="poisson", mean_interarrival=2000,
            zipf_alpha=1.1,
        )

    def compile(self) -> Compiled:
        out = Compiled([])
        for i, (flow, config) in enumerate(self.tasks):
            vbs = encode_mod.encode_flow(flow, config, cluster_size=1)
            out.containers.append(Container(
                f"task{i}", vbs.to_bits(), vbs.layout.width,
                vbs.layout.height, flow,
            ))
            _count_encode(out.counts, vbs.stats)
        return out

    def replay(self, compiled: Compiled, observer: Callable) -> dict:
        memory = ExternalMemory()
        publish(memory, compiled)
        ctrl = ReconfigurationController(
            fabric_for(compiled.containers), memory, cache_capacity=4
        )
        self.controllers = [ctrl]
        sim = WorkloadSimulator(
            FabricManager(ctrl), observer=observer,
            policy="defer-cold", queue_threshold=4,
        )
        return sim.run(self.trace)


class FleetWorkload(Workload):
    """Task-scope containers with shared tables over a 4-shard fleet."""

    name = "fleet"
    replays = True
    groups = 6
    per_group = 2
    events = 3000
    shards = 4
    params = ArchParams(channel_width=8)

    def setup(self, seed: int) -> None:
        # The task groups of ``repro.runtime.synthesize_task_scope_images``
        # (W=8, base_luts=24, pattern_pool=3), kept as routed designs.
        self.jobs = []
        for g in range(self.groups):
            spec = CircuitSpec(
                f"task{g}", n_luts=24 + 4 * g, n_inputs=6, n_outputs=4,
                pattern_pool=3,
            )
            netlist = generate_circuit(spec)
            self.jobs.append([
                _routed(netlist, self.params, seed + g * self.per_group + c)
                for c in range(self.per_group)
            ])
        names = [
            f"task{g}.{c}" for g in range(self.groups) for c in range(self.per_group)
        ]
        self.trace = generate_trace(
            "round-robin", names, self.events, seed=seed,
            arrivals="poisson", mean_interarrival=2000,
        )

    def compile(self) -> Compiled:
        out = Compiled([])
        for g, jobs in enumerate(self.jobs):
            result = encode_mod.encode_task(
                jobs, dict_id=g + 1, cluster_size=1, codecs="auto"
            )
            if result.shared:
                out.tables[result.dict_id] = result.table
            for c, ((flow, _config), vbs) in enumerate(zip(jobs, result.containers)):
                out.containers.append(Container(
                    f"task{g}.{c}", vbs.to_bits(), vbs.layout.width,
                    vbs.layout.height, flow,
                ))
                _count_encode(out.counts, vbs.stats)
        return out

    def replay(self, compiled: Compiled, observer: Callable) -> dict:
        memory = ExternalMemory()
        publish(memory, compiled)
        managers = [
            FabricManager(ReconfigurationController(
                fabric_for(compiled.containers), memory, cache_capacity=4
            ))
            for _ in range(self.shards)
        ]
        self.controllers = [m.controller for m in managers]
        fleet = FleetManager(
            managers, router="load", migrate_backlog=2, servers=2
        )
        return WorkloadSimulator(fleet=fleet, observer=observer).run(self.trace)


WORKLOADS: Dict[str, type] = {
    w.name: w
    for w in (FlowWorkload, CodecWorkload, ReplayWorkload, FleetWorkload)
}

