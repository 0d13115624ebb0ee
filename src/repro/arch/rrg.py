"""Track-level routing resource graph (RRG) for the global router.

The global router (``repro.cad.route``) works on whole wires, not junction
segments: one node per single-length track wire and one node per pin line.
This is the classic VPR granularity and keeps PathFinder tractable; the
junction-level expansion (``repro.bitstream.expand``) later converts each
routed tree into exact pass-transistor closures, which is always possible
because every node here has capacity 1 (no two nets ever share a wire).

Node identifiers are dense integers::

    cell = y * width + x
    node = cell * (2W + L) + k
        k in [0, W)       XTRK(x, y, t)   — ChanX wire owned by the cell
        k in [W, 2W)      YTRK(x, y, t)   — ChanY wire owned by the cell
        k in [2W, 2W+L)   LINE(x, y, p)   — pin line p (terminal and dogleg)

Edges (undirected, stored in CSR form):

* connection box: ``LINE(x,y,p) - XTRK(x,y,t)`` for p on ChanX (all t), and
  ``LINE(x,y,p) - YTRK(x,y,t)`` for p on ChanY;
* switch box at SB(x,y): all pairs among the up-to-four same-index wires
  meeting there — ``XTRK(x-1,y,t)``, ``XTRK(x,y,t)``, ``YTRK(x,y-1,t)``,
  ``YTRK(x,y,t)`` (a *disjoint* switch box: the track index is preserved).

Two implementations share the interface:

* :class:`RoutingGraph` materializes the explicit CSR — O(V+E) memory,
  fastest per-node access, and the reference adjacency everything else is
  pinned against.
* :class:`TilePatternRoutingGraph` stores only the deduplicated *tile
  patterns* (interior / edge / corner classes keyed by the presence of the
  four neighbour cells) and derives any node's neighbours as
  ``pattern + cell_offset`` on demand — O(patterns) memory, node-for-node
  identical to the explicit build including neighbour order.

:func:`routing_graph_for` is the fabric-keyed cache in front of both: the
CAD flow, the MCW search and the task harness all fetch graphs through it
so one arch point builds one graph, and giant fabrics automatically get
the compressed representation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

from repro.arch.fabric import FabricArch
from repro.errors import RoutingError
from repro.utils.bitkernels import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as np

KIND_XTRK = 0
KIND_YTRK = 1
KIND_LINE = 2

#: Largest node id the explicit CSR can store (int32 neighbour arrays).
MAX_EXPLICIT_NODES = 2**31 - 1

#: ``routing_graph_for(compressed=None)`` switches to the tile-pattern
#: representation at this node count: past it the explicit CSR costs tens
#: of megabytes while the patterns stay constant-size.
COMPRESSED_AUTO_NODES = 200_000


class _RoutingGraphBase:
    """Node-id arithmetic and naming shared by both representations."""

    fabric: FabricArch
    W: int
    L: int
    per_cell: int
    num_nodes: int
    num_edges: int

    def __init__(self, fabric: FabricArch):
        self.fabric = fabric
        p = fabric.params
        self.W = p.channel_width
        self.L = p.num_lb_pins
        self.per_cell = 2 * self.W + self.L
        self.num_nodes = fabric.width * fabric.height * self.per_cell

    # -- node id helpers ----------------------------------------------------------

    def xtrk(self, x: int, y: int, t: int) -> int:
        return (y * self.fabric.width + x) * self.per_cell + t

    def ytrk(self, x: int, y: int, t: int) -> int:
        return (y * self.fabric.width + x) * self.per_cell + self.W + t

    def line(self, x: int, y: int, p: int) -> int:
        return (y * self.fabric.width + x) * self.per_cell + 2 * self.W + p

    def node_cell(self, node: int) -> Tuple[int, int]:
        cell, _ = divmod(node, self.per_cell)
        y, x = divmod(cell, self.fabric.width)
        return x, y

    def node_x_of(self, node: int) -> int:
        """Cell x coordinate of a node (computed, no array lookup)."""
        return (node // self.per_cell) % self.fabric.width

    def node_y_of(self, node: int) -> int:
        """Cell y coordinate of a node (computed, no array lookup)."""
        return (node // self.per_cell) // self.fabric.width

    def node_kind(self, node: int) -> Tuple[int, int]:
        """Return (kind, index): kind XTRK/YTRK with track, or LINE with pin."""
        k = node % self.per_cell
        if k < self.W:
            return KIND_XTRK, k
        if k < 2 * self.W:
            return KIND_YTRK, k - self.W
        return KIND_LINE, k - 2 * self.W

    def node_str(self, node: int) -> str:
        x, y = self.node_cell(node)
        kind, idx = self.node_kind(node)
        name = {KIND_XTRK: "XTRK", KIND_YTRK: "YTRK", KIND_LINE: "LINE"}[kind]
        return f"{name}({x},{y},{idx})"

    # -- traversal (implemented by subclasses) -------------------------------------

    def neighbor_list(self, node: int) -> List[int]:
        raise NotImplementedError

    def degree(self, node: int) -> int:
        raise NotImplementedError

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge exactly once (a < b), in CSR order."""
        for a in range(self.num_nodes):
            for b in self.neighbor_list(a):
                if a < b:
                    yield a, b


class RoutingGraph(_RoutingGraphBase):
    """CSR adjacency over the track-level routing resources of a fabric."""

    def __init__(self, fabric: FabricArch):
        super().__init__(fabric)
        self._build(fabric)

    # -- construction --------------------------------------------------------------

    def _build(self, fabric: FabricArch) -> None:
        if self.num_nodes > MAX_EXPLICIT_NODES:
            # The CSR stores node ids in int32 (numpy) / array("i")
            # (fallback); a larger id space would wrap silently and
            # corrupt the adjacency.  Giant fabrics must use the
            # tile-pattern representation instead.
            raise RoutingError(
                f"{fabric.width}x{fabric.height} fabric at "
                f"W={self.W} has {self.num_nodes} routing nodes, more than "
                f"the explicit CSR's int32 id space ({MAX_EXPLICIT_NODES}); "
                f"use TilePatternRoutingGraph (routing_graph_for picks it "
                f"automatically)"
            )
        W, L = self.W, self.L
        width, height = fabric.width, fabric.height
        chanx = fabric.params.chanx_pins
        chany = fabric.params.chany_pins

        src: List[int] = []
        dst: List[int] = []

        def link(a: int, b: int) -> None:
            src.append(a)
            dst.append(b)
            src.append(b)
            dst.append(a)

        for y in range(height):
            for x in range(width):
                # Connection boxes.
                for p in chanx:
                    ln = self.line(x, y, p)
                    for t in range(W):
                        link(ln, self.xtrk(x, y, t))
                for p in chany:
                    ln = self.line(x, y, p)
                    for t in range(W):
                        link(ln, self.ytrk(x, y, t))
                # Switch box at SB(x, y): pairs among the wires meeting there.
                for t in range(W):
                    wires = [self.xtrk(x, y, t), self.ytrk(x, y, t)]
                    if x > 0:
                        wires.append(self.xtrk(x - 1, y, t))
                    if y > 0:
                        wires.append(self.ytrk(x, y - 1, t))
                    for i in range(len(wires)):
                        for j in range(i + 1, len(wires)):
                            link(wires[i], wires[j])

        if HAVE_NUMPY:
            src_a = np.asarray(src, dtype=np.int32)
            dst_a = np.asarray(dst, dtype=np.int32)
            order = np.argsort(src_a, kind="stable")
            src_a = src_a[order]
            dst_a = dst_a[order]
            counts = np.bincount(src_a, minlength=self.num_nodes)
            self.indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=self.indptr[1:])
            self.nbrs = dst_a
            # Node positions (cell coordinates) for the A* heuristic.
            cells = np.arange(self.num_nodes, dtype=np.int64) // self.per_cell
            self.node_x = (cells % width).astype(np.int32)
            self.node_y = (cells // width).astype(np.int32)
        else:
            # Pure-Python CSR via a stable counting sort — the same
            # neighbour order as the stable argsort above.  array.array
            # keeps the memory footprint and the ``.tolist()`` surface
            # of the numpy arrays.
            from array import array

            n = self.num_nodes
            counts = [0] * n
            for a in src:
                counts[a] += 1
            indptr = [0] * (n + 1)
            run = 0
            for i, cnt in enumerate(counts):
                run += cnt
                indptr[i + 1] = run
            nbrs = [0] * len(src)
            cursor = indptr[:n]
            for a, b in zip(src, dst):
                nbrs[cursor[a]] = b
                cursor[a] += 1
            self.indptr = array("q", indptr)
            self.nbrs = array("i", nbrs)
            per_cell = self.per_cell
            self.node_x = array(
                "i", ((i // per_cell) % width for i in range(n))
            )
            self.node_y = array(
                "i", ((i // per_cell) // width for i in range(n))
            )
        self.num_edges = len(self.nbrs) // 2

    # -- traversal -------------------------------------------------------------------

    def neighbors(self, node: int) -> "np.ndarray":
        """Neighbour node ids of ``node`` (ascending order not guaranteed).

        An ``array.array`` slice on the pure-Python fallback — same
        iteration, membership and ``.tolist()`` surface.
        """
        return self.nbrs[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_list(self, node: int) -> List[int]:
        """Neighbours as a plain list of Python ints (router hot path)."""
        return self.nbrs[self.indptr[node] : self.indptr[node + 1]].tolist()

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge exactly once (a < b), in CSR order."""
        if HAVE_NUMPY:
            src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64),
                np.diff(self.indptr),
            )
            keep = src < self.nbrs
            yield from zip(src[keep].tolist(), self.nbrs[keep].tolist())
            return
        for a in range(self.num_nodes):
            for b in self.neighbors(a):
                if a < b:
                    yield a, int(b)


def _tile_pattern(
    params, has_west: bool, has_east: bool, has_south: bool, has_north: bool
) -> List[List[Tuple[int, int, int]]]:
    """Per-local-node neighbour template of one tile class.

    Replays the explicit builder's edge generation over the smallest
    window of cells that reproduces the focus cell's surroundings
    (present/absent west, east, south, north neighbours) and collects the
    directed edges leaving the focus cell, in global append order — which
    is exactly the neighbour order the stable CSR sort produces.  Entries
    are ``(dx, dy, k)``: neighbour = local node ``k`` of the cell offset
    by ``(dx, dy)``.
    """
    W = params.channel_width
    L = params.num_lb_pins
    chanx = params.chanx_pins
    chany = params.chany_pins
    per_cell = 2 * W + L

    fx = 1 if has_west else 0
    fy = 1 if has_south else 0
    vw = fx + 1 + (1 if has_east else 0)
    vh = fy + 1 + (1 if has_north else 0)

    def xt(x: int, y: int, t: int) -> Tuple[int, int, int]:
        return (x, y, t)

    def yt(x: int, y: int, t: int) -> Tuple[int, int, int]:
        return (x, y, W + t)

    def ln(x: int, y: int, p: int) -> Tuple[int, int, int]:
        return (x, y, 2 * W + p)

    edges: List[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = []

    def link(a, b) -> None:
        edges.append((a, b))
        edges.append((b, a))

    # The exact loop structure of RoutingGraph._build over the window.
    for y in range(vh):
        for x in range(vw):
            for p in chanx:
                l = ln(x, y, p)
                for t in range(W):
                    link(l, xt(x, y, t))
            for p in chany:
                l = ln(x, y, p)
                for t in range(W):
                    link(l, yt(x, y, t))
            for t in range(W):
                wires = [xt(x, y, t), yt(x, y, t)]
                if x > 0:
                    wires.append(xt(x - 1, y, t))
                if y > 0:
                    wires.append(yt(x, y - 1, t))
                for i in range(len(wires)):
                    for j in range(i + 1, len(wires)):
                        link(wires[i], wires[j])

    rows: List[List[Tuple[int, int, int]]] = [[] for _ in range(per_cell)]
    for (sx, sy, sk), (dx, dy, dk) in edges:
        if sx == fx and sy == fy:
            rows[sk].append((dx - fx, dy - fy, dk))
    return rows


class TilePatternRoutingGraph(_RoutingGraphBase):
    """Tile-pattern adjacency: O(patterns) memory instead of O(V+E).

    The fabric is tile-regular, so a node's neighbour list depends only
    on its local index and on which of the cell's four neighbour cells
    exist — at most nine distinct tile classes (interior, four edges,
    four corners) for any grid.  Each class stores, per local node, the
    precomputed *node-id offsets* of its neighbours; ``neighbors(n)`` is
    ``[n + off for off in pattern]``.

    Pinned node-for-node identical (values *and* order) to
    :class:`RoutingGraph` by the equivalence property suite.
    """

    def __init__(self, fabric: FabricArch):
        super().__init__(fabric)
        width, height = fabric.width, fabric.height
        per_cell = self.per_cell

        # Reachable flag pairs along each axis (width/height 1 and 2
        # collapse edge and corner classes).
        def axis_flags(extent: int) -> List[Tuple[bool, bool]]:
            if extent == 1:
                return [(False, False)]
            flags = [(False, True), (True, False)]
            if extent > 2:
                flags.append((True, True))
            return flags

        # mask -> per-k tuple of node-id offsets (dy*width + dx cells
        # away, local index k2):  neighbour = node + offset.
        self._offsets: Dict[int, List[Tuple[int, ...]]] = {}
        self._degrees: Dict[int, List[int]] = {}
        directed_per_mask: Dict[int, int] = {}
        for hw, he in axis_flags(width):
            for hs, hn in axis_flags(height):
                mask = (hw << 0) | (he << 1) | (hs << 2) | (hn << 3)
                rows = _tile_pattern(fabric.params, hw, he, hs, hn)
                self._offsets[mask] = [
                    tuple(
                        (dy * width + dx) * per_cell + k2 - k
                        for dx, dy, k2 in row
                    )
                    for k, row in enumerate(rows)
                ]
                self._degrees[mask] = [len(row) for row in rows]
                directed_per_mask[mask] = sum(len(row) for row in rows)

        # Edge count without enumerating cells: class populations are a
        # product of the per-axis position counts.
        def axis_counts(extent: int) -> Dict[Tuple[bool, bool], int]:
            if extent == 1:
                return {(False, False): 1}
            counts = {(False, True): 1, (True, False): 1}
            if extent > 2:
                counts[(True, True)] = extent - 2
            return counts

        directed = 0
        for (hw, he), cx in axis_counts(width).items():
            for (hs, hn), cy in axis_counts(height).items():
                mask = (hw << 0) | (he << 1) | (hs << 2) | (hn << 3)
                directed += cx * cy * directed_per_mask[mask]
        self.num_edges = directed // 2

    def _mask_of(self, x: int, y: int) -> int:
        width, height = self.fabric.width, self.fabric.height
        return (
            (x > 0)
            | ((x < width - 1) << 1)
            | ((y > 0) << 2)
            | ((y < height - 1) << 3)
        )

    # -- traversal -------------------------------------------------------------------

    def neighbor_list(self, node: int) -> List[int]:
        cell, k = divmod(node, self.per_cell)
        y, x = divmod(cell, self.fabric.width)
        return [node + off for off in self._offsets[self._mask_of(x, y)][k]]

    def neighbors(self, node: int) -> List[int]:
        """Neighbour node ids (a plain list: same iteration/membership)."""
        return self.neighbor_list(node)

    def degree(self, node: int) -> int:
        cell, k = divmod(node, self.per_cell)
        y, x = divmod(cell, self.fabric.width)
        return self._degrees[self._mask_of(x, y)][k]


# -- fabric-keyed graph cache ----------------------------------------------------

_RRG_CACHE: "OrderedDict[tuple, _RoutingGraphBase]" = OrderedDict()
_RRG_CACHE_CAPACITY = 8


def routing_graph_for(
    fabric: FabricArch, compressed: "bool | None" = None
) -> _RoutingGraphBase:
    """The routing graph of ``fabric``, built once per arch point.

    ``compressed=None`` (the default) picks the representation by size:
    explicit CSR below :data:`COMPRESSED_AUTO_NODES` routing nodes (the
    fastest per-node access for ordinary fabrics), tile patterns above it
    (constant memory for giant fabrics).  Graphs are cached under the
    fabric's structural key — params, dimensions and cell types — so the
    MCW search's repeated widths and the task harness's grids reuse one
    graph per arch point.  Both representations are adjacency-identical,
    so a cache hit can never change a routing result.
    """
    if compressed is None:
        per_cell = 2 * fabric.params.channel_width + fabric.params.num_lb_pins
        compressed = (
            fabric.width * fabric.height * per_cell >= COMPRESSED_AUTO_NODES
        )
    key = fabric.structure_key() + (bool(compressed),)
    graph = _RRG_CACHE.get(key)
    if graph is not None:
        _RRG_CACHE.move_to_end(key)
        return graph
    graph = (
        TilePatternRoutingGraph(fabric) if compressed else RoutingGraph(fabric)
    )
    _RRG_CACHE[key] = graph
    while len(_RRG_CACHE) > _RRG_CACHE_CAPACITY:
        _RRG_CACHE.popitem(last=False)
    return graph


def clear_routing_graph_cache() -> None:
    """Drop every cached graph (tests and memory-measurement harnesses)."""
    _RRG_CACHE.clear()
