"""Simulated-annealing placement (the VPR placer of the paper's flow).

Blocks are assigned to fabric sites — CLBs to interior cells, pads to IOB
perimeter sub-sites — minimizing the classic half-perimeter wirelength
(HPWL) objective with the adaptive VPR annealing schedule: the temperature
multiplier and the move-range window both react to the acceptance rate.

The placer is deterministic for a given (design, fabric, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.fabric import FabricArch
from repro.cad.pack import PackedDesign
from repro.errors import PlacementError
from repro.utils.rng import make_rng

Site = Tuple[int, int, int]  # (x, y, sub-site)
# A net's bounding box with edge counts:
# (xmin, #pins at xmin, xmax, #pins at xmax, ymin, ..., ymax, ...).
Box = Tuple[int, int, int, int, int, int, int, int]


@dataclass
class Placement:
    """Result of placement: every instance bound to a fabric site."""

    design: PackedDesign
    fabric: FabricArch
    locations: Dict[str, Site]
    cost: float
    seed: int

    def site_of(self, inst: str) -> Site:
        try:
            return self.locations[inst]
        except KeyError:
            raise PlacementError(f"instance {inst} was never placed")

    def cell_of(self, inst: str) -> Tuple[int, int]:
        x, y, _sub = self.site_of(inst)
        return x, y

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets."""
        total = 0.0
        for use in self.design.nets.values():
            xs: List[int] = []
            ys: List[int] = []
            for inst, _port in [use.driver] + use.sinks:
                x, y, _ = self.locations[inst]
                xs.append(x)
                ys.append(y)
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total


class _Annealer:
    """Internal annealing engine (split out for testability).

    Instances are indexed by int in ``insts`` order (CLBs, then pads) with
    flat ``xs``/``ys`` coordinate lists.  Each net keeps its bounding box
    with edge counts (Betz & Rose), so a move updates the boxes of the nets
    it touches in O(1) and rebuilds one only when the moved pin was the
    last on an edge.  Costs are exact ints.  A move is proposed
    (:meth:`_propose`), then committed or reverted; ``occupant`` and
    ``sites`` change only on commit.
    """

    def __init__(self, design: PackedDesign, fabric: FabricArch, seed: int):
        self.design = design
        self.fabric = fabric
        self.rng = make_rng(seed)

        self.clb_sites: List[Site] = [
            (p.x, p.y, 0) for p in fabric.cells_of_type("clb")
        ]
        iob_cap = fabric.block_types["iob"].capacity
        self.pad_sites: List[Site] = [
            (p.x, p.y, k)
            for p in fabric.cells_of_type("iob")
            for k in range(iob_cap)
        ]
        if len(self.clb_sites) < design.num_clbs:
            raise PlacementError(
                f"{design.num_clbs} CLBs do not fit {len(self.clb_sites)} "
                f"logic sites"
            )
        if len(self.pad_sites) < design.num_pads:
            raise PlacementError(
                f"{design.num_pads} pads do not fit {len(self.pad_sites)} "
                f"IOB sub-sites"
            )
        # Moves hand out these site tuples, never fresh ones: a move
        # allocates no site, and the placement shares them.
        self.clb_site_at = {site[:2]: site for site in self.clb_sites}

        # The order of ``insts`` decides which instance each move's
        # ``randrange`` pick lands on.
        self.insts: List[str] = [c.name for c in design.clbs] + [
            p.name for p in design.pads
        ]
        self.is_pad: List[bool] = [False] * design.num_clbs + [
            True
        ] * design.num_pads
        index = {name: i for i, name in enumerate(self.insts)}

        # Nets as de-duplicated int pin lists: a CLB feeding its own input
        # appears once, which does not change the bounding box.
        self.net_pins: List[List[int]] = []
        self.nets_of: List[List[int]] = [[] for _ in self.insts]
        for ni, use in enumerate(design.nets.values()):
            pins = list(dict.fromkeys(
                index[inst] for inst, _port in [use.driver] + use.sinks
            ))
            self.net_pins.append(pins)
            for i in pins:
                self.nets_of[i].append(ni)
        self.net_set = [frozenset(nets) for nets in self.nets_of]

        self.sites: List[Site] = []
        self.xs: List[int] = []
        self.ys: List[int] = []
        self.occupant: Dict[Site, int] = {}  # -1 marks an empty site
        self.bb: List[Box] = []  # per net
        self.net_cost: List[int] = []  # per net: its box's half-perimeter
        self.cost = 0

    # -- cost ----------------------------------------------------------------------

    def _net_box(self, ni: int) -> Box:
        """Net ``ni``'s bounding box and edge counts, from scratch."""
        pins = self.net_pins[ni]
        px = [self.xs[i] for i in pins]
        py = [self.ys[i] for i in pins]
        xlo, xhi, ylo, yhi = min(px), max(px), min(py), max(py)
        return (
            xlo, px.count(xlo), xhi, px.count(xhi),
            ylo, py.count(ylo), yhi, py.count(yhi),
        )

    def total_cost(self) -> int:
        total = 0
        for ni in range(len(self.net_pins)):
            xlo, _, xhi, _, ylo, _, yhi, _ = self._net_box(ni)
            total += (xhi - xlo) + (yhi - ylo)
        return total

    # -- moves ---------------------------------------------------------------------

    def _initial_place(self) -> None:
        clb_sites = self.clb_sites[:]
        pad_sites = self.pad_sites[:]
        self.rng.shuffle(clb_sites)
        self.rng.shuffle(pad_sites)
        self.occupant = {site: -1 for site in clb_sites + pad_sites}
        chosen = clb_sites[: self.design.num_clbs] + pad_sites[
            : self.design.num_pads
        ]
        self.sites = chosen
        self.xs = [site[0] for site in chosen]
        self.ys = [site[1] for site in chosen]
        for i, site in enumerate(chosen):
            self.occupant[site] = i
        self.bb = [self._net_box(ni) for ni in range(len(self.net_pins))]
        self.net_cost = [
            (xhi - xlo) + (yhi - ylo)
            for xlo, _, xhi, _, ylo, _, yhi, _ in self.bb
        ]
        self.cost = sum(self.net_cost)

    def _candidate_site(self, inst: int, rlim: float) -> Site:
        """A random same-type site within the ``rlim`` window of ``inst``."""
        x0 = self.xs[inst]
        y0 = self.ys[inst]
        r = max(1, int(rlim))
        rng = self.rng
        if not self.is_pad[inst]:
            # Interior logic cells form a dense grid: sample coordinates
            # directly instead of rejection-sampling the site pool.
            randint = rng.randint
            hi_x, hi_y = self.fabric.width - 2, self.fabric.height - 2
            for _attempt in range(4):
                x = min(max(x0 + randint(-r, r), 1), hi_x)
                y = min(max(y0 + randint(-r, r), 1), hi_y)
                site = self.clb_site_at.get((x, y))
                if site is not None:
                    return site
            pool = self.clb_sites
            return pool[rng.randrange(len(pool))]
        # Pads live on the perimeter ring; the pool is small, so windowed
        # rejection sampling with a uniform fallback is cheap enough.
        pool = self.pad_sites
        for _attempt in range(8):
            site = pool[rng.randrange(len(pool))]
            if abs(site[0] - x0) <= r and abs(site[1] - y0) <= r:
                return site
        return pool[rng.randrange(len(pool))]

    def _shift(
        self, inst: int, ox: int, oy: int, other: int,
        pending: List[Tuple[int, Box, int]],
    ) -> int:
        """Cost delta of ``inst`` moving from ``(ox, oy)`` to its current
        ``xs``/``ys`` entry; appends each changed net's new box to
        ``pending``.  Nets that also hold ``other`` are skipped: a swap of
        two of its pins leaves a net's box as it was."""
        xs, ys = self.xs, self.ys
        nx = xs[inst]
        ny = ys[inst]
        if nx == ox and ny == oy:
            return 0
        skip = self.net_set[other] if other >= 0 else ()
        bb = self.bb
        net_cost = self.net_cost
        net_pins = self.net_pins
        delta = 0
        for ni in self.nets_of[inst]:
            if ni in skip:
                continue
            xlo, cxlo, xhi, cxhi, ylo, cylo, yhi, cyhi = bb[ni]
            # Per axis: rebuild from scratch when the pin was the last on
            # the edge it leaves, else shift the edge counts.
            if nx != ox:
                if (nx > ox and ox == xlo and cxlo == 1) or (
                    nx < ox and ox == xhi and cxhi == 1
                ):
                    px = [xs[i] for i in net_pins[ni]]
                    xlo, xhi = min(px), max(px)
                    cxlo, cxhi = px.count(xlo), px.count(xhi)
                elif nx > ox:
                    if ox == xlo:
                        cxlo -= 1
                    if nx > xhi:
                        xhi, cxhi = nx, 1
                    elif nx == xhi:
                        cxhi += 1
                else:
                    if ox == xhi:
                        cxhi -= 1
                    if nx < xlo:
                        xlo, cxlo = nx, 1
                    elif nx == xlo:
                        cxlo += 1
            if ny != oy:
                if (ny > oy and oy == ylo and cylo == 1) or (
                    ny < oy and oy == yhi and cyhi == 1
                ):
                    py = [ys[i] for i in net_pins[ni]]
                    ylo, yhi = min(py), max(py)
                    cylo, cyhi = py.count(ylo), py.count(yhi)
                elif ny > oy:
                    if oy == ylo:
                        cylo -= 1
                    if ny > yhi:
                        yhi, cyhi = ny, 1
                    elif ny == yhi:
                        cyhi += 1
                else:
                    if oy == yhi:
                        cyhi -= 1
                    if ny < ylo:
                        ylo, cylo = ny, 1
                    elif ny == ylo:
                        cylo += 1
            box = (xlo, cxlo, xhi, cxhi, ylo, cylo, yhi, cyhi)
            cost = (xhi - xlo) + (yhi - ylo)
            delta += cost - net_cost[ni]
            pending.append((ni, box, cost))
        return delta

    def _propose(self, inst: int, new_site: Site) -> int:
        """Move ``inst`` to ``new_site`` tentatively (swapping with its
        occupant) and return the exact cost delta; follow with
        :meth:`_commit` or :meth:`_revert`."""
        old_site = self.sites[inst]
        other = self.occupant[new_site]
        xs, ys = self.xs, self.ys
        ox, oy = xs[inst], ys[inst]
        xs[inst], ys[inst] = new_site[0], new_site[1]
        if other >= 0:
            xs[other], ys[other] = ox, oy
        pending: List[Tuple[int, Box, int]] = []
        delta = self._shift(inst, ox, oy, other, pending)
        if other >= 0:
            delta += self._shift(other, new_site[0], new_site[1], inst, pending)
        self._pending = (inst, other, old_site, new_site, delta, pending)
        return delta

    def _commit(self) -> None:
        inst, other, old_site, new_site, delta, pending = self._pending
        bb, net_cost = self.bb, self.net_cost
        for ni, box, cost in pending:
            bb[ni] = box
            net_cost[ni] = cost
        self.cost += delta
        self.sites[inst] = new_site
        self.occupant[new_site] = inst
        self.occupant[old_site] = other
        if other >= 0:
            self.sites[other] = old_site

    def _revert(self) -> None:
        inst, other, old_site, new_site, _delta, _pending = self._pending
        self.xs[inst], self.ys[inst] = old_site[0], old_site[1]
        if other >= 0:
            self.xs[other], self.ys[other] = new_site[0], new_site[1]

    def _try_move(self, temperature: float, rlim: float) -> bool:
        rng = self.rng
        inst = rng.randrange(len(self.insts))
        new_site = self._candidate_site(inst, rlim)
        if new_site == self.sites[inst]:
            return False
        delta = self._propose(inst, new_site)
        if delta <= 0 or (
            temperature > 0
            and rng.random() < pow(2.718281828, -delta / temperature)
        ):
            self._commit()
            return True
        self._revert()
        return False

    # -- schedule ------------------------------------------------------------------

    def anneal(self, inner_num: float, fast: bool) -> None:
        self._initial_place()

        n_mov = len(self.insts)
        if n_mov <= 1 or not self.net_pins:
            return

        moves_per_t = max(64, int(inner_num * (n_mov ** (4.0 / 3.0))))
        if fast:
            moves_per_t = max(64, moves_per_t // 4)

        # Starting temperature: VPR uses 20x the stddev of random-move deltas;
        # probing with accepted random moves gives the same scale.
        probe = min(moves_per_t, 10 * n_mov)
        deltas: List[int] = []
        for _ in range(probe):
            before = self.cost
            self._try_move(float("inf"), max(self.fabric.width, self.fabric.height))
            deltas.append(self.cost - before)
        if len(deltas) > 1:
            mean = sum(deltas) / len(deltas)
            var = sum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1)
            temperature = 20.0 * (var ** 0.5)
        else:
            temperature = 1.0
        temperature = max(temperature, 1e-3)

        rlim = float(max(self.fabric.width, self.fabric.height))
        exit_t_per_net = 0.005
        while True:
            accepted = 0
            for _ in range(moves_per_t):
                if self._try_move(temperature, rlim):
                    accepted += 1
            racc = accepted / moves_per_t
            # VPR adaptive cooling.
            if racc > 0.96:
                alpha = 0.5
            elif racc > 0.8:
                alpha = 0.9
            elif racc > 0.15:
                alpha = 0.95
            else:
                alpha = 0.8
            temperature *= alpha
            rlim = min(
                max(1.0, rlim * (1.0 - 0.44 + racc)),
                float(max(self.fabric.width, self.fabric.height)),
            )
            # At zero cost the temperature test below can never hold (it
            # would need T < 0), so stop: nothing is left to improve.
            if self.cost == 0 or temperature < (
                exit_t_per_net * self.cost / max(1, len(self.net_pins))
            ):
                break

        # Final greedy pass (temperature 0).
        for _ in range(moves_per_t):
            self._try_move(0.0, rlim)


def place(
    design: PackedDesign,
    fabric: FabricArch,
    seed: int = 0,
    inner_num: float = 0.5,
    fast: bool = False,
) -> Placement:
    """Place ``design`` on ``fabric`` with simulated annealing.

    ``inner_num`` scales moves per temperature step (VPR's ``-inner_num``);
    ``fast`` quarters it for quick experiments.
    """
    engine = _Annealer(design, fabric, seed)
    engine.anneal(inner_num, fast)
    locations = dict(zip(engine.insts, engine.sites))
    return Placement(design, fabric, locations, float(engine.cost), seed)
