"""Simulated-annealing placement."""

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import ArchParams, FabricArch
from repro.cad import pack, place
from repro.cad.pack import ClbInst, PackedDesign, PadInst
from repro.cad.place import _Annealer
from repro.errors import PlacementError
from repro.netlist import CircuitSpec, generate_circuit


@pytest.fixture(scope="module")
def design():
    return pack(
        generate_circuit(CircuitSpec("pl", n_luts=30, n_inputs=8, n_outputs=6)),
        6,
    )


@pytest.fixture(scope="module")
def fabric(params8):
    return FabricArch.island(params8, 7)


class TestPlacement:
    def test_all_instances_placed(self, design, fabric):
        pl = place(design, fabric, seed=1)
        assert len(pl.locations) == design.num_clbs + design.num_pads

    def test_clbs_on_logic_cells_pads_on_ring(self, design, fabric):
        pl = place(design, fabric, seed=1)
        for clb in design.clbs:
            x, y, sub = pl.site_of(clb.name)
            assert fabric.type_name_at(x, y) == "clb" and sub == 0
        for pad in design.pads:
            x, y, sub = pl.site_of(pad.name)
            assert fabric.type_name_at(x, y) == "iob" and sub in (0, 1)

    def test_no_site_shared(self, design, fabric):
        pl = place(design, fabric, seed=2)
        sites = list(pl.locations.values())
        assert len(sites) == len(set(sites))

    def test_deterministic(self, design, fabric):
        a = place(design, fabric, seed=5)
        b = place(design, fabric, seed=5)
        assert a.locations == b.locations

    def test_seed_changes_result(self, design, fabric):
        a = place(design, fabric, seed=1)
        b = place(design, fabric, seed=2)
        assert a.locations != b.locations

    def test_annealing_beats_random(self, design, fabric):
        # The final cost must improve substantially on the initial random
        # placement (compare against a fresh random assignment's HPWL).
        eng = _Annealer(design, fabric, seed=3)
        eng._initial_place()
        random_cost = eng.total_cost()
        pl = place(design, fabric, seed=3)
        assert pl.hpwl() < 0.7 * random_cost

    def test_cost_tracks_hpwl(self, design, fabric):
        pl = place(design, fabric, seed=4)
        assert pl.cost == pl.hpwl()

    def test_too_many_blocks_rejected(self, params8):
        big = pack(
            generate_circuit(CircuitSpec("big", 30, 6, 4)), 6
        )
        tiny_fabric = FabricArch.island(params8, 3)  # 9 logic sites
        with pytest.raises(PlacementError):
            place(big, tiny_fabric, seed=1)

    def test_unplaced_instance_query(self, design, fabric):
        pl = place(design, fabric, seed=1)
        with pytest.raises(PlacementError):
            pl.site_of("nonexistent")

    def test_zero_cost_design_terminates(self):
        """Two pads on one net can share an IOB cell (cost 0), where the
        exit test ``T < 0.005 * cost / nets`` can never hold; the annealer
        used to spin forever there."""
        design = PackedDesign(
            "wire", 6, [], [PadInst("a", "n", True), PadInst("b", "n", False)]
        )
        fabric = FabricArch.island(ArchParams(channel_width=8), 1)
        result = []
        worker = threading.Thread(
            target=lambda: result.append(place(design, fabric, seed=0)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "placement did not terminate"
        assert result[0].cost == 0.0 == result[0].hpwl()


# -- incremental bounding boxes ------------------------------------------------


def _clb(name, inputs, output):
    return ClbInst(name, tuple(inputs) + (None,) * (6 - len(inputs)),
                   output, 0, False)


@pytest.fixture(scope="module")
def box_design():
    """A hand-built design: a 7-pin net ``w`` (c0 to c1..c5 and pad o0),
    and CLB c4 whose output ``s`` feeds its own input, so c4 appears twice
    in net ``s``."""
    return PackedDesign("boxes", 6, [
        _clb("c0", ["a"], "w"),
        _clb("c1", ["w", "b"], "x"),
        _clb("c2", ["w"], "y"),
        _clb("c3", ["w", "x"], "z"),
        _clb("c4", ["w", "s"], "s"),
        _clb("c5", ["w", "y", "z", "s"], "t"),
    ], [
        PadInst("i0", "a", True),
        PadInst("i1", "b", True),
        PadInst("o0", "w", False),
        PadInst("o1", "s", False),
    ])


@pytest.fixture(scope="module")
def box_fabric(params8):
    return FabricArch.island(params8, 6)  # CLBs at 1..6, IOB ring at 0 and 7


def _fresh(design, fabric, seed=0):
    eng = _Annealer(design, fabric, seed)
    eng._initial_place()
    return eng


def _oracle(eng):
    """Every net's box, edge counts and cost straight from the design's
    net list (instance names, duplicates included) and ``xs``/``ys``."""
    index = {name: i for i, name in enumerate(eng.insts)}
    boxes, costs = [], []
    for use in eng.design.nets.values():
        insts = {index[inst] for inst, _ in [use.driver] + use.sinks}
        px = [eng.xs[i] for i in insts]
        py = [eng.ys[i] for i in insts]
        xlo, xhi, ylo, yhi = min(px), max(px), min(py), max(py)
        boxes.append((xlo, px.count(xlo), xhi, px.count(xhi),
                      ylo, py.count(ylo), yhi, py.count(yhi)))
        costs.append((xhi - xlo) + (yhi - ylo))
    return boxes, costs


def _check_state(eng):
    boxes, costs = _oracle(eng)
    assert eng.bb == boxes
    assert eng.net_cost == costs
    assert eng.cost == sum(costs) == eng.total_cost()
    for i, site in enumerate(eng.sites):
        assert (eng.xs[i], eng.ys[i]) == site[:2]
        assert eng.occupant[site] == i
    assert sum(1 for v in eng.occupant.values() if v >= 0) == len(eng.insts)


def _move(eng, inst, site, accept=True):
    """Propose ``inst`` -> ``site``, check the exact delta against the
    oracle, then commit or revert and check every box."""
    i = eng.insts.index(inst) if isinstance(inst, str) else inst
    before = eng.cost
    delta = eng._propose(i, site)
    assert delta == sum(_oracle(eng)[1]) - before
    if accept:
        eng._commit()
    else:
        eng._revert()
    _check_state(eng)
    return delta


def _net(eng, name):
    return list(eng.design.nets).index(name)


def _place_all(eng, where):
    for inst, site in where.items():
        _move(eng, inst, site)


class TestIncrementalBoxes:
    def test_self_loop_pin_deduplicated(self, box_design, box_fabric):
        eng = _fresh(box_design, box_fabric)
        c4 = eng.insts.index("c4")
        ni = _net(eng, "s")
        # c4 drives s and reads it on in1: one pin, not two.
        assert eng.net_pins[ni].count(c4) == 1
        assert len(box_design.nets["s"].sinks) == 3
        assert len(eng.net_pins[ni]) == 3
        for site in [(1, 1, 0), (6, 6, 0), (3, 4, 0), (6, 1, 0)]:
            if site != eng.sites[c4]:
                _move(eng, "c4", site)

    def test_swap_of_two_blocks_on_one_net(self, box_design, box_fabric):
        eng = _fresh(box_design, box_fabric)
        _place_all(eng, {"c1": (1, 1, 0), "c3": (6, 6, 0)})
        ni = _net(eng, "x")  # c1 -> c3 only
        before = eng.bb[ni]
        # Moving c1 onto c3's site swaps them: net x's box is unchanged,
        # while w (also on both) and b/z (on one each) are recomputed.
        _move(eng, "c1", (6, 6, 0), accept=False)
        _move(eng, "c1", (6, 6, 0))
        assert eng.bb[ni] == before
        assert eng.sites[eng.insts.index("c3")] == (1, 1, 0)

    def test_last_pin_leaving_an_edge(self, box_design, box_fabric):
        eng = _fresh(box_design, box_fabric)
        _place_all(eng, {
            "c0": (1, 3, 0), "c1": (2, 3, 0), "c2": (3, 3, 0),
            "c3": (4, 3, 0), "c4": (5, 3, 0), "c5": (6, 3, 0),
            "o0": (0, 3, 0),
        })
        ni = _net(eng, "w")
        # All seven pins on row 3: the y edges count every pin.
        assert eng.bb[ni] == (0, 1, 6, 1, 3, 7, 3, 7)
        # o0 is the last pin on the x-min edge; leaving it rebuilds x.
        _move(eng, "o0", (7, 3, 0), accept=False)
        _move(eng, "o0", (7, 3, 1))
        assert eng.bb[ni] == (1, 1, 7, 1, 3, 7, 3, 7)
        # One pin leaves the row: the y edges shrink their counts, and the
        # box grows only on the side it moved to.
        _move(eng, "c3", (4, 5, 0))
        assert eng.bb[ni] == (1, 1, 7, 1, 3, 6, 5, 1)
        # ... and back: the lone top-edge pin leaves, y is rebuilt.
        _move(eng, "c3", (4, 3, 0))
        assert eng.bb[ni] == (1, 1, 7, 1, 3, 7, 3, 7)
        # A pin sharing an edge with another leaves it: a count drop only.
        _move(eng, "c0", (1, 2, 0))
        _move(eng, "c5", (1, 4, 0))
        assert eng.bb[ni] == (1, 2, 7, 1, 2, 1, 4, 1)

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), moves=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 10**6), st.booleans()),
        max_size=80,
    ))
    def test_random_moves_match_rebuild(
        self, box_design, box_fabric, seed, moves
    ):
        eng = _fresh(box_design, box_fabric, seed)
        _check_state(eng)
        for inst, pick, accept in moves:
            pool = eng.pad_sites if eng.is_pad[inst] else eng.clb_sites
            site = pool[pick % len(pool)]
            if site != eng.sites[inst]:
                _move(eng, inst, site, accept)

    def test_annealer_keeps_boxes_exact(self, design, fabric):
        eng = _Annealer(design, fabric, seed=7)
        eng.anneal(0.5, fast=True)
        _check_state(eng)
