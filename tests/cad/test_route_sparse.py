"""Placement and routing byte-identity pins, router memory, RRG parity."""

from __future__ import annotations

import hashlib
import tracemalloc

from repro.arch.fabric import FabricArch
from repro.arch.params import ArchParams
from repro.arch.rrg import RoutingGraph, TilePatternRoutingGraph
from repro.cad.flow import required_logic_size, required_pad_ring
from repro.cad.pack import pack
from repro.cad.place import place
from repro.cad.route import PathFinderRouter, net_terminals
from repro.eval.mcnc import circuit
from repro.netlist.lutmap import map_to_luts


def routing_signature(routing) -> str:
    """Order-independent digest of every route tree's exact node set."""
    h = hashlib.sha256()
    for name in sorted(routing.trees):
        tree = routing.trees[name]
        h.update(f"{name}:{tree.source}".encode())
        for child in sorted(tree.parent):
            h.update(f",{child}>{tree.parent[child]}".encode())
        h.update(b";")
    return h.hexdigest()


def placement_signature(placement) -> str:
    """Digest of every instance's exact site (sorted by instance name)."""
    return hashlib.sha256(
        repr(sorted(placement.locations.items())).encode()
    ).hexdigest()[:16]


def test_placement_byte_identity_pinned(tiny_flow, small_flow):
    """The annealer's RNG call sequence, accept decisions and schedule are
    pinned through the exact sites and the exact (integer-valued) cost."""
    assert tiny_flow.placement.cost == 53.0
    assert placement_signature(tiny_flow.placement) == "9024e48f267a4f04"
    assert small_flow.placement.cost == 317.0
    assert placement_signature(small_flow.placement) == "2b56f0c4ee6959cc"


def test_placement_with_wide_nets_pinned():
    """ex5p at scale 0.1 has nets of up to 57 pins, so incremental
    bounding-box updates and edge-loss rebuilds both run many times."""
    params = ArchParams(channel_width=20)
    design = pack(
        map_to_luts(circuit("ex5p").netlist(0.1), params.lut_size),
        params.lut_size,
    )
    widest = max(
        len({use.driver[0]} | {inst for inst, _ in use.sinks})
        for use in design.nets.values()
    )
    assert widest >= 30
    size = max(
        required_logic_size(design.num_clbs),
        required_pad_ring(design.num_pads),
    )
    pl = place(design, FabricArch.island(params, size), seed=1)
    assert pl.cost == 324.0
    assert placement_signature(pl) == "1e08eaf38b9143e8"
    assert pl.cost == pl.hpwl()


def test_routing_byte_identity_pinned(tiny_flow, small_flow):
    """The exact routed trees are pinned: any change to router costs,
    ordering or state handling that alters results must show up here
    (and be justified), not slip through as silent QoR drift."""
    assert tiny_flow.routing.total_wirelength == 175
    assert tiny_flow.routing.iterations == 3
    assert routing_signature(tiny_flow.routing) == (
        "84580c558733b68e952f62d56e22c6d963039d3f156e01a3998ec6e1dd5d0a43"
    )
    assert small_flow.routing.total_wirelength == 975
    assert small_flow.routing.iterations == 8
    assert routing_signature(small_flow.routing) == (
        "ba648ead210995f9cf78e76bd1a5a9572cba9918505ea940b24a58c3ac179960"
    )


def test_router_construction_is_o1_memory():
    """Construction must not copy the CSR (the old ``.tolist()`` bug
    retained two Python-list copies of the whole graph) nor allocate any
    per-node array — a few hundred bytes of empty dicts, no more."""
    fabric = FabricArch(ArchParams(channel_width=20), 48, 48, {})
    rrg = RoutingGraph(fabric)
    assert rrg.num_nodes > 100_000
    tracemalloc.start()
    tracemalloc.clear_traces()
    router = PathFinderRouter(rrg)
    retained, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert router.rrg is rrg
    assert retained < 10_000, f"router construction retained {retained} bytes"


def test_routed_design_identical_on_compressed_rrg(tiny_flow):
    """Explicit CSR and tile-pattern graphs route byte-identically."""
    compressed = TilePatternRoutingGraph(tiny_flow.fabric)
    placement = tiny_flow.placement
    terminals = net_terminals(tiny_flow.design, placement, compressed)
    routing = PathFinderRouter(compressed).route(terminals)
    assert routing_signature(routing) == routing_signature(tiny_flow.routing)
    assert routing.total_wirelength == tiny_flow.routing.total_wirelength
    assert routing.iterations == tiny_flow.routing.iterations
