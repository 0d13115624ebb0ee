"""Task-scope shared dictionaries: encode_task + runtime ownership.

A task that loads several containers (replicated instances, partitioned
regions) stores one pattern table in external memory; every VERSION 4
container of the task references it by id.  Pinned here:

* the task-scope keep-if-it-pays decision — the table is kept exactly
  when the summed container payloads plus the external table storage
  beat the independent encodes;
* byte identity of the emitted containers across the serial and
  process encode drivers (the task-scope selection runs after the
  deterministic merges);
* the controller/manager lifecycle — a resident table exists exactly
  while at least one resident task references it, and eviction of the
  last referencing task drops it (external memory keeps it for later
  reloads).
"""

import pytest

from repro.arch import ArchParams, FabricArch
from repro.bitstream import expand_routing
from repro.cad import run_flow
from repro.errors import RuntimeManagementError, VbsError
from repro.netlist import CircuitSpec, generate_circuit
from repro.runtime import ExternalMemory, ReconfigurationController
from repro.runtime.manager import FabricManager
from repro.vbs import VirtualBitstream, decode_vbs, encode_task


@pytest.fixture(scope="module")
def dpath_flow():
    spec = CircuitSpec(
        "dpath-shared", n_luts=40, n_inputs=8, n_outputs=6, pattern_pool=3
    )
    return run_flow(
        generate_circuit(spec), ArchParams(channel_width=8), seed=1
    )


@pytest.fixture(scope="module")
def dpath_config(dpath_flow):
    return expand_routing(
        dpath_flow.design, dpath_flow.placement, dpath_flow.routing,
        dpath_flow.rrg,
    )


@pytest.fixture(scope="module")
def task_result(dpath_flow, dpath_config):
    return encode_task(
        [(dpath_flow, dpath_config)] * 3, dict_id=7, cluster_size=2,
        codecs="auto",
    )


class TestTaskScopeEncode:
    def test_shared_table_pays_at_task_scope(self, task_result):
        assert task_result.shared
        assert task_result.shared_bits < task_result.solo_bits
        # The accounting includes the external table storage once.
        assert task_result.table_bits == sum(
            len(p) for p in task_result.table
        )
        for vbs in task_result.containers:
            assert vbs.wire_version == 4
            assert vbs.layout.shared_dict_id == 7
            assert vbs.layout.dict_table == task_result.table
            assert "dict" in vbs.stats.codec_counts

    def test_byte_identical_across_backends(self, dpath_flow, dpath_config,
                                            task_result):
        jobs = [(dpath_flow, dpath_config)] * 3
        processed = encode_task(jobs, dict_id=7, cluster_size=2,
                                codecs="auto", workers=2)
        for a, c in zip(task_result.containers, processed.containers):
            assert c.to_bits().to_bytes() == a.to_bits().to_bytes()

    def test_shared_containers_decode_like_solo(self, dpath_flow,
                                                dpath_config, task_result):
        from repro.vbs import encode_flow

        solo = encode_flow(dpath_flow, dpath_config, cluster_size=2,
                           codecs="auto")
        resolver = {7: task_result.table}
        for vbs in task_result.containers:
            parsed = VirtualBitstream.from_bits(
                vbs.to_bits(), shared_dicts=resolver
            )
            a, _ = decode_vbs(parsed)
            b, _ = decode_vbs(solo)
            assert a.content_equal(b)

    def test_table_not_kept_when_it_cannot_pay(self, dpath_flow,
                                               dpath_config):
        # Without the dictionary codec there is nothing to share.
        result = encode_task(
            [(dpath_flow, dpath_config)] * 2, dict_id=3, cluster_size=2,
            codecs=("list", "raw"),
        )
        assert not result.shared
        assert result.shared_bits == result.solo_bits
        for vbs in result.containers:
            assert vbs.layout.shared_dict_id is None

    def test_solo_containers_match_encode_design(self, dpath_flow,
                                                 dpath_config):
        """When sharing is off the task containers are byte-identical to
        independent encodes — encode_task adds no side effects."""
        from repro.vbs import encode_flow

        result = encode_task(
            [(dpath_flow, dpath_config)] * 2, dict_id=3, cluster_size=2,
            codecs=("list", "raw"),
        )
        solo = encode_flow(dpath_flow, dpath_config, cluster_size=2,
                           codecs=("list", "raw"))
        for vbs in result.containers:
            assert vbs.to_bits().to_bytes() == solo.to_bits().to_bytes()

    def test_paper_strict_selection_supported(self, dpath_flow,
                                              dpath_config):
        """codecs=None (the paper-strict Table I mode) must work through
        encode_task too — no family pass, no sharing, containers
        byte-identical to encode_design."""
        from repro.vbs import encode_flow

        result = encode_task(
            [(dpath_flow, dpath_config)] * 2, dict_id=2, cluster_size=1,
            codecs=None,
        )
        assert not result.shared
        solo = encode_flow(dpath_flow, dpath_config, cluster_size=1)
        for vbs in result.containers:
            assert vbs.to_bits().to_bytes() == solo.to_bits().to_bytes()
        assert result.solo_bits == 2 * solo.size_bits

    def test_validation(self, dpath_flow, dpath_config):
        with pytest.raises(VbsError, match="at least one"):
            encode_task([], dict_id=1)
        with pytest.raises(VbsError, match="dictionary id"):
            encode_task([(dpath_flow, dpath_config)], dict_id=0)
        with pytest.raises(VbsError, match="dictionary id"):
            encode_task([(dpath_flow, dpath_config)], dict_id=1 << 16)


class TestRuntimeLifecycle:
    def _manager(self, dpath_flow, task_result, capacity=16):
        params = dpath_flow.params
        w, h = dpath_flow.fabric.width, dpath_flow.fabric.height
        fabric = FabricArch(
            params, 3 * w + 4, h + 2,
            {(x, y): "clb"
             for x in range(3 * w + 4) for y in range(h + 2)},
        )
        ctrl = ReconfigurationController(
            fabric, ExternalMemory(bus_bits=32), cache_capacity=capacity
        )
        ctrl.store_task(["t0", "t1", "t2"], task_result)
        return FabricManager(ctrl)

    def test_store_task_publishes_table_and_images(self, dpath_flow,
                                                   task_result):
        mgr = self._manager(dpath_flow, task_result)
        memory = mgr.controller.memory
        assert memory.names() == ["t0", "t1", "t2"]
        assert memory.shared_dict_ids() == [7]
        assert memory.shared_dict(7) == task_result.table
        assert memory.shared_dict_bits == task_result.table_bits

    def test_table_resident_while_any_task_references_it(self, dpath_flow,
                                                         task_result):
        mgr = self._manager(dpath_flow, task_result)
        ctrl = mgr.controller
        for name in ("t0", "t1", "t2"):
            mgr.place_task(name)
        assert mgr.shared_dict_ids == [7]
        ctrl.unload_task("t0")
        assert mgr.shared_dict_ids == [7]
        ctrl.unload_task("t1")
        assert mgr.shared_dict_ids == [7]
        ctrl.unload_task("t2")  # last reference leaves -> table dropped
        assert mgr.shared_dict_ids == []
        # External memory still holds it: reloads fault it back in.
        mgr.place_task("t1")
        assert mgr.shared_dict_ids == [7]

    def test_eviction_through_manager_drops_table_exactly_once_empty(
        self, dpath_flow, task_result
    ):
        """make_room evictions release references like explicit unloads:
        the table survives every eviction but the last."""
        mgr = self._manager(dpath_flow, task_result)
        for name in ("t0", "t1", "t2"):
            mgr.place_task(name)
        image = mgr.controller.memory.image("t0")
        evicted = mgr.make_room(
            mgr.controller.fabric.width, mgr.controller.fabric.height
        )
        if evicted is None:
            evicted = []
            while mgr.controller.resident:
                victim = next(iter(mgr.controller.resident))
                mgr.controller.unload_task(victim)
                evicted.append(victim)
        assert image is not None
        assert set(evicted) <= {"t0", "t1", "t2"}
        assert mgr.shared_dict_ids == ([] if len(evicted) == 3 else [7])

    def test_cache_hit_reload_still_refcounts(self, dpath_flow,
                                              task_result):
        """A cached reload never re-parses the container; the cache entry
        carries the shared-dictionary id so refcounting stays exact."""
        mgr = self._manager(dpath_flow, task_result)
        ctrl = mgr.controller
        first = mgr.place_task("t0")
        assert not first.load_cost.cache_hit
        ctrl.unload_task("t0")
        assert mgr.shared_dict_ids == []
        again = mgr.place_task("t0")
        assert again.load_cost.cache_hit
        assert again.shared_dict_id == 7
        assert mgr.shared_dict_ids == [7]
        ctrl.unload_task("t0")
        assert mgr.shared_dict_ids == []

    def test_missing_table_fails_loudly(self, dpath_flow, task_result):
        mgr = self._manager(dpath_flow, task_result)
        mgr.controller.memory.remove_shared_dict(7)
        with pytest.raises((VbsError, RuntimeManagementError)):
            mgr.place_task("t0")
        # And cleanly: nothing was registered or configured.
        assert mgr.controller.resident == {}
        assert mgr.controller.config.logic == {}

    def test_failed_cached_reload_leaves_no_resident_state(
        self, dpath_flow, task_result
    ):
        """A cache-hit reload whose table left external memory must fail
        without half-registering the task (the retain happens before any
        fabric mutation)."""
        mgr = self._manager(dpath_flow, task_result)
        ctrl = mgr.controller
        mgr.place_task("t0")
        ctrl.unload_task("t0")
        ctrl.memory.remove_shared_dict(7)
        with pytest.raises((VbsError, RuntimeManagementError)):
            mgr.place_task("t0")
        assert ctrl.resident == {}
        assert ctrl.config.logic == {}
        assert mgr.shared_dict_ids == []
        # Re-publishing the table heals the path entirely (the stale
        # cache entry was dropped, so this is a fresh decode).
        ctrl.memory.store_shared_dict(7, task_result.table)
        task = mgr.place_task("t0")
        assert task.shared_dict_id == 7
        assert mgr.shared_dict_ids == [7]

    def test_uncached_decode_path_refcounts_too(self, dpath_flow,
                                                task_result):
        """With the decode cache disabled every load parses the container
        directly — the refcount contract is identical."""
        mgr = self._manager(dpath_flow, task_result, capacity=0)
        assert mgr.controller.decode_cache is None
        mgr.place_task("t0")
        mgr.place_task("t1")
        assert mgr.shared_dict_ids == [7]
        mgr.controller.unload_task("t0")
        assert mgr.shared_dict_ids == [7]
        mgr.controller.unload_task("t1")
        assert mgr.shared_dict_ids == []

    def test_republished_table_invalidates_cached_expansion(
        self, dpath_flow, dpath_config, task_result
    ):
        """The cache key digests only the container bytes (a 16-bit id
        for shared tables), so a republished id must invalidate the
        entry rather than serve the old table's expansion."""
        from repro.utils.bitarray import BitArray

        mgr = self._manager(dpath_flow, task_result)
        ctrl = mgr.controller
        mgr.place_task("t0")
        ctrl.unload_task("t0")
        assert ctrl.decode_cache.stats.misses == 1
        # Republish id 7 with a different (same-shape) table while no
        # task references it.
        mutated = tuple(
            BitArray.from_bits([1 - b for b in p])
            for p in task_result.table
        )
        ctrl.memory.store_shared_dict(7, mutated)
        task = mgr.place_task("t0")
        # Stale entry dropped: this load re-decoded with the new table.
        assert not task.load_cost.cache_hit
        assert ctrl.decode_cache.stats.misses == 2

    def test_republish_while_resident_fails_loudly(
        self, dpath_flow, task_result
    ):
        from repro.utils.bitarray import BitArray

        mgr = self._manager(dpath_flow, task_result)
        ctrl = mgr.controller
        mgr.place_task("t0")
        mutated = tuple(
            BitArray.from_bits([1 - b for b in p])
            for p in task_result.table
        )
        ctrl.memory.store_shared_dict(7, mutated)
        with pytest.raises(RuntimeManagementError, match="republished"):
            mgr.place_task("t1")
        # The already-resident task is untouched.
        assert list(ctrl.resident) == ["t0"]

    def test_migrate_keeps_task_when_table_republished_or_gone(
        self, dpath_flow, task_result
    ):
        """migrate_task validates the shared table like its other
        preconditions — before the unload — so a republished or vanished
        table fails with the task still resident, never lost mid-move."""
        from repro.utils.bitarray import BitArray

        mgr = self._manager(dpath_flow, task_result)
        ctrl = mgr.controller
        task = mgr.place_task("t0")
        origin = (task.region.x, task.region.y)
        w = task.region.w
        mutated = tuple(
            BitArray.from_bits([1 - b for b in p])
            for p in task_result.table
        )
        ctrl.memory.store_shared_dict(7, mutated)
        with pytest.raises(RuntimeManagementError, match="republished"):
            ctrl.migrate_task("t0", (origin[0] + w, origin[1]))
        assert list(ctrl.resident) == ["t0"]
        assert ctrl.resident["t0"].region.x == origin[0]
        # Vanished table: same contract.
        ctrl.memory.remove_shared_dict(7)
        ctrl.shared_dicts.clear()  # simulate the resident copy lost too
        with pytest.raises(RuntimeManagementError, match="no longer"):
            ctrl.migrate_task("t0", (origin[0] + w, origin[1]))
        assert list(ctrl.resident) == ["t0"]

    def test_memory_store_validation(self, task_result):
        memory = ExternalMemory()
        with pytest.raises(RuntimeManagementError, match=">= 1"):
            memory.store_shared_dict(0, task_result.table)
        with pytest.raises(RuntimeManagementError, match="at least one"):
            memory.store_shared_dict(3, ())
        with pytest.raises(RuntimeManagementError, match="no shared"):
            memory.remove_shared_dict(3)
        assert memory.shared_dict(3) is None
        assert memory.shared_dict_bits == 0

    def test_store_task_name_mismatch(self, dpath_flow, task_result):
        ctrl = ReconfigurationController(
            FabricArch(dpath_flow.params, 8, 8,
                       {(x, y): "clb" for x in range(8) for y in range(8)}),
            ExternalMemory(),
        )
        with pytest.raises(RuntimeManagementError, match="names"):
            ctrl.store_task(["only-one"], task_result)
