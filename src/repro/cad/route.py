"""Negotiated-congestion (PathFinder) routing on the track-level RRG.

This is the router of the paper's VPR stage: every net becomes a tree over
routing-resource nodes (track wires and pin lines, each of capacity 1).
Nets are routed with multi-source A* from the growing tree to each sink;
congestion is resolved across iterations by PathFinder's present-sharing and
history costs.  The result is exact single-occupancy of every wire, which
guarantees the junction-level expansion (``repro.bitstream.expand``) can
realize the configuration without electrical shorts.

Determinism: net order, sink order, neighbour order and heap tie-breaks are
all fixed, so a given (design, placement, seed) always yields the same
routing — a property the Virtual Bit-Stream feedback loop relies on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.blocktype import IOB_PAD_PORTS
from repro.arch.rrg import RoutingGraph
from repro.cad.pack import PackedDesign
from repro.cad.place import Placement
from repro.errors import RoutingError, UnroutableError
from repro.utils.geometry import Rect


@dataclass
class RouteTree:
    """The routed realization of one net.

    ``parent`` maps every non-source node of the tree to its predecessor on
    the path toward the source (a directed tree rooted at ``source``).
    """

    net: str
    source: int
    sinks: List[int]
    parent: Dict[int, int] = field(default_factory=dict)

    @property
    def nodes(self) -> List[int]:
        return [self.source] + list(self.parent.keys())

    def children_map(self) -> Dict[int, List[int]]:
        """Source-rooted adjacency (children per node, ascending ids)."""
        kids: Dict[int, List[int]] = {}
        for child, par in self.parent.items():
            kids.setdefault(par, []).append(child)
        for lst in kids.values():
            lst.sort()
        return kids

    def wirelength(self) -> int:
        """Number of routing nodes used beyond the source."""
        return len(self.parent)


@dataclass
class RoutingResult:
    """All route trees plus convergence statistics."""

    trees: Dict[str, RouteTree]
    channel_width: int
    iterations: int
    total_wirelength: int
    max_occupancy: int

    def tree_of(self, net: str) -> RouteTree:
        try:
            return self.trees[net]
        except KeyError:
            raise RoutingError(f"net {net} was not routed")


def net_terminals(
    design: PackedDesign, placement: Placement, rrg: RoutingGraph
) -> Dict[str, Tuple[int, List[int]]]:
    """Resolve each net to (source node, sink nodes) on the RRG.

    CLB port ``in{i}`` sits on macro pin line ``i`` and ``out`` on line ``K``;
    pad ports go through the IOB block type's pad-to-pin-line binding.
    """
    fabric = placement.fabric
    iob = fabric.block_types["iob"]
    clbs = design.clb_by_name()
    pads = design.pad_by_name()

    def pin_node(inst: str, port: str) -> int:
        x, y, sub = placement.site_of(inst)
        if inst in clbs:
            macro_pin = (
                design.lut_size if port == "out" else int(port[2:])
            )
        elif inst in pads:
            port_name = IOB_PAD_PORTS[sub][port]
            macro_pin = iob.port(port_name).macro_pin
        else:
            raise RoutingError(f"unknown instance {inst}")
        return rrg.line(x, y, macro_pin)

    terminals: Dict[str, Tuple[int, List[int]]] = {}
    for name, use in design.nets.items():
        src = pin_node(*use.driver)
        sinks = [pin_node(inst, port) for inst, port in use.sinks]
        # A sink pin equal to the source pin would be a degenerate loop.
        sinks = [s for s in sinks if s != src]
        if sinks:
            terminals[name] = (src, sorted(set(sinks)))
    return terminals


class PathFinderRouter:
    """Iterative rip-up-and-reroute engine over one RoutingGraph."""

    def __init__(
        self,
        rrg: RoutingGraph,
        max_iterations: int = 40,
        pres_fac_first: float = 0.6,
        pres_fac_mult: float = 1.5,
        hist_fac: float = 0.4,
        astar_fac: float = 1.2,
        bb_margin: int = 3,
    ):
        self.rrg = rrg
        self.max_iterations = max_iterations
        self.pres_fac_first = pres_fac_first
        self.pres_fac_mult = pres_fac_mult
        self.hist_fac = hist_fac
        self.astar_fac = astar_fac
        self.bb_margin = bb_margin

        # Per-node state is sparse: dicts keyed by node id, populated
        # only for nodes the search actually touches.  Construction is
        # O(1) and routing memory scales with the explored region, not
        # the fabric — the property that makes giant fabrics (via the
        # tile-pattern RRG, which has no CSR to copy) routable at all.
        self._per_cell = rrg.per_cell
        self._width = rrg.fabric.width
        self._adj: Dict[int, List[int]] = {}
        self._occ: Dict[int, int] = {}
        self._hist: Dict[int, float] = {}

    def _node_xy(self, node: int) -> Tuple[int, int]:
        cell = node // self._per_cell
        y, x = divmod(cell, self._width)
        return x, y

    # -- single-net routing ------------------------------------------------------

    def _route_net(
        self,
        source: int,
        sinks: Sequence[int],
        pres_fac: float,
        bbox: Rect,
    ) -> Optional[Dict[int, int]]:
        """Route one net; returns the parent map or None when stuck."""
        adj = self._adj
        neighbor_list = self.rrg.neighbor_list
        occ_get = self._occ.get
        hist_get = self._hist.get
        heappush, heappop = heapq.heappush, heapq.heappop
        hist_fac, astar_fac = self.hist_fac, self.astar_fac
        per_cell, width = self._per_cell, self._width
        x_lo, x_hi, y_lo, y_hi = bbox.x, bbox.x2, bbox.y, bbox.y2

        tree_nodes: List[int] = [source]
        tree_set = {source}
        parent: Dict[int, int] = {}

        src_x, src_y = self._node_xy(source)

        def dist_to_source(s: int) -> int:
            x, y = self._node_xy(s)
            return abs(x - src_x) + abs(y - src_y)

        # Farthest sink first grows a trunk the others can reuse.
        order = sorted(sinks, key=lambda s: (-dist_to_source(s), s))
        for sink in order:
            sx, sy = self._node_xy(sink)
            # Fresh per-search maps: cost-to-come and predecessor exist
            # only for visited nodes (the epoch-array reset, made sparse).
            gbest: Dict[int, float] = {}
            came: Dict[int, int] = {}
            heap: List[Tuple[float, float, int]] = []
            for node in tree_nodes:
                y, x = divmod(node // per_cell, width)
                h = astar_fac * (abs(x - sx) + abs(y - sy))
                gbest[node] = 0.0
                came[node] = -1
                heap.append((h, 0.0, node))
            heapq.heapify(heap)

            found = False
            while heap:
                f, g, node = heappop(heap)
                if node == sink:
                    found = True
                    break
                if g > gbest[node]:
                    continue  # stale entry
                nbs = adj.get(node)
                if nbs is None:
                    nbs = adj[node] = neighbor_list(node)
                for nb in nbs:
                    cell = nb // per_cell
                    by = cell // width
                    if by < y_lo or by >= y_hi:
                        continue
                    bx = cell - by * width
                    if bx < x_lo or bx >= x_hi:
                        continue
                    # Congestion-aware node cost (capacity 1 everywhere).
                    over = occ_get(nb, 0)
                    cost = (1.0 + hist_fac * hist_get(nb, 0.0)) * (
                        1.0 + pres_fac * over
                    )
                    ng = g + cost
                    old = gbest.get(nb)
                    if old is not None and old <= ng:
                        continue
                    gbest[nb] = ng
                    came[nb] = node
                    h = astar_fac * (abs(bx - sx) + abs(by - sy))
                    heappush(heap, (ng + h, ng, nb))

            if not found:
                return None

            # Walk back from the sink to the existing tree (tree nodes were
            # seeded with came == -1, so the walk stops there) and graft the
            # new branch.
            node = sink
            while came[node] != -1:
                parent[node] = came[node]
                if node not in tree_set:
                    tree_set.add(node)
                    tree_nodes.append(node)
                node = came[node]
            if sink not in tree_set:
                tree_set.add(sink)
                tree_nodes.append(sink)

        return parent

    # -- full design routing -------------------------------------------------------

    def route(
        self,
        terminals: Dict[str, Tuple[int, List[int]]],
        full_bbox_retry: bool = True,
    ) -> RoutingResult:
        """Route every net to zero overuse or raise :class:`UnroutableError`."""
        rrg = self.rrg
        fabric_box = Rect(0, 0, rrg.fabric.width, rrg.fabric.height)
        names = sorted(terminals)
        trees: Dict[str, RouteTree] = {}
        occ = self._occ
        hist = self._hist

        def net_bbox(name: str, margin: int) -> Rect:
            src, sinks = terminals[name]
            pts = [self._node_xy(n) for n in [src] + list(sinks)]
            return Rect.spanning(pts).expanded(margin, fabric_box)

        pres_fac = self.pres_fac_first
        for iteration in range(1, self.max_iterations + 1):
            margin = self.bb_margin + 2 * (iteration - 1)
            for name in names:
                src, sinks = terminals[name]
                tree = trees.get(name)
                if tree is not None:
                    # Keep conflict-free nets as they are (every tree node
                    # is in ``occ``: the tree holds it).
                    if occ[tree.source] <= 1 and all(
                        occ[n] <= 1 for n in tree.parent
                    ):
                        continue
                    occ[tree.source] -= 1
                    for n in tree.parent:
                        occ[n] -= 1
                parent = self._route_net(src, sinks, pres_fac, net_bbox(name, margin))
                if parent is None and full_bbox_retry:
                    parent = self._route_net(src, sinks, pres_fac, fabric_box)
                if parent is None:
                    raise UnroutableError(
                        f"net {name}: no path at W={rrg.W} "
                        f"(iteration {iteration})"
                    )
                trees[name] = RouteTree(name, src, list(sinks), parent)
                occ[src] = occ.get(src, 0) + 1
                for n in parent:
                    occ[n] = occ.get(n, 0) + 1

            over_nodes = [n for n, o in occ.items() if o > 1]
            if not over_nodes:
                wl = sum(t.wirelength() for t in trees.values())
                return RoutingResult(
                    trees, rrg.W, iteration, wl,
                    max(occ.values(), default=0),
                )
            for n in over_nodes:
                hist[n] = hist.get(n, 0.0) + occ[n] - 1
            pres_fac *= self.pres_fac_mult

        raise UnroutableError(
            f"congestion unresolved after {self.max_iterations} iterations "
            f"at W={rrg.W} "
            f"({sum(1 for o in occ.values() if o > 1)} overused nodes)"
        )


def route_design(
    design: PackedDesign,
    placement: Placement,
    rrg: RoutingGraph,
    **router_kwargs,
) -> RoutingResult:
    """Convenience wrapper: terminals + PathFinder in one call."""
    terminals = net_terminals(design, placement, rrg)
    router = PathFinderRouter(rrg, **router_kwargs)
    return router.route(terminals)
