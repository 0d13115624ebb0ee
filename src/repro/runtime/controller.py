"""The run-time reconfiguration controller (Section II-C, Figure 2).

The controller owns the fabric's configuration layer.  It fetches task
images from external memory, de-virtualizes Virtual Bit-Streams at the
requested position ("decoded and finalized in real-time and at run-time
... to be placed at a given physical location"), writes the expanded
frames, tracks which region every task occupies, and supports unloading
and migration (re-decoding the same VBS at a new origin).

All operations return cycle costs from :mod:`repro.runtime.costmodel`, so
experiments can compare raw-versus-VBS load latency and decoder
parallelism.

Repeated and relocated loads of the same image are served from an LRU
:class:`~repro.runtime.costmodel.DecodeCache` (content-digest keyed,
origin-independent entries) and skip the de-virtualization replay
entirely; see ``docs/architecture.md`` for the cache contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.arch.fabric import FabricArch
from repro.bitstream.config import FabricConfig
from repro.bitstream.raw import RawBitstream
from repro.errors import RuntimeManagementError
from repro.runtime.costmodel import (
    CachedDecode,
    CostParams,
    DecodeCache,
    LoadCost,
    decode_cost,
    write_cost,
)
from repro.runtime.memory import ExternalMemory, StoredImage
from repro.utils.bitarray import BitArray
from repro.utils.geometry import Rect
from repro.vbs.decode import DecodeStats, decode_vbs
from repro.vbs.devirt import DecodeMemo
from repro.vbs.encode import VirtualBitstream

if TYPE_CHECKING:
    from repro.vbs.encode import TaskEncodeResult


@dataclass
class ResidentTask:
    """A task currently configured on the fabric."""

    name: str
    region: Rect
    image: StoredImage
    load_cost: LoadCost
    decode_stats: Optional[DecodeStats]
    #: VERSION 4 shared-dictionary id the image references (None for
    #: self-contained containers).  The controller refcounts resident
    #: tables by this field.
    shared_dict_id: Optional[int] = None


class ReconfigurationController:
    """Decode-and-place engine over one fabric's configuration layer."""

    def __init__(
        self,
        fabric: FabricArch,
        memory: ExternalMemory,
        cost_params: Optional[CostParams] = None,
        decode_cache: "DecodeCache | None" = None,
        cache_capacity: "int | None" = 16,
        cache_capacity_bytes: Optional[int] = None,
        memo_entries: Optional[int] = 4096,
    ):
        self.fabric = fabric
        self.memory = memory
        self.cost_params = cost_params or CostParams(bus_bits=memory.bus_bits)
        #: The fabric-wide configuration layer (all macros, default zeros).
        self.config = FabricConfig(
            fabric.params, Rect(0, 0, fabric.width, fabric.height)
        )
        self.resident: Dict[str, ResidentTask] = {}
        #: Decode cache: repeated/relocated loads of the same image skip
        #: ClusterDecoder replay.  ``cache_capacity`` None or <=0 lifts
        #: the entry-count bound; ``cache_capacity_bytes`` adds an
        #: expanded-image byte budget (then the only bound).  With
        #: neither bound the cache is disabled entirely.
        if decode_cache is not None:
            self.decode_cache: Optional[DecodeCache] = decode_cache
        elif cache_capacity is None or cache_capacity <= 0:
            self.decode_cache = (
                DecodeCache(None, capacity_bytes=cache_capacity_bytes)
                if cache_capacity_bytes is not None
                else None
            )
        else:
            self.decode_cache = DecodeCache(
                cache_capacity, capacity_bytes=cache_capacity_bytes
            )
        #: Cross-task cluster-level result reuse (identical lists decode
        #: once even across different images sharing wiring patterns).
        #: Bounded, unlike an encoder-run memo: the controller lives for
        #: the whole serving session.  ``memo_entries=0`` or ``None``
        #: disables reuse entirely (every decode replays the router).
        self.decode_memo: Optional[DecodeMemo] = (
            DecodeMemo(max_entries=memo_entries) if memo_entries else None
        )
        #: Resident shared-dictionary tables (VERSION 4 task tables),
        #: faulted in from external memory on first reference and held
        #: exactly while at least one resident task references them —
        #: the refcounts below drop a table the moment its last
        #: referencing container leaves the fabric.
        self.shared_dicts: Dict[int, Tuple["BitArray", ...]] = {}
        self._shared_dict_refs: Dict[int, int] = {}
        #: Lifecycle counters of the resident tables (the workload
        #: simulator reports them as per-run deltas): ``faults`` counts
        #: tables brought resident from external memory, ``drops`` counts
        #: tables released when their last referencing task unloaded.
        self.shared_dict_faults = 0
        self.shared_dict_drops = 0

    # -- placement bookkeeping ----------------------------------------------------

    def region_free(self, region: Rect, ignore: Optional[str] = None) -> bool:
        """True when ``region`` is inside the fabric and collision-free.

        ``ignore`` names a resident task whose footprint does not count as
        a collision — the migration/defragmentation case, where a task may
        slide into a region overlapping its own current position.
        """
        if not self.fabric.bounds.contains_rect(region):
            return False
        return all(
            task.name == ignore or not task.region.overlaps(region)
            for task in self.resident.values()
        )

    def _claim_region(self, name: str, region: Rect) -> None:
        if not self.fabric.bounds.contains_rect(region):
            raise RuntimeManagementError(
                f"task {name}: region {region} exceeds fabric "
                f"{self.fabric.width}x{self.fabric.height}"
            )
        for other in self.resident.values():
            if other.region.overlaps(region):
                raise RuntimeManagementError(
                    f"task {name}: region {region} collides with resident "
                    f"task {other.name} at {other.region}"
                )

    # -- configuration writes --------------------------------------------------------

    def _write_config(self, task_config: FabricConfig) -> int:
        region = task_config.region
        for (x, y), logic in task_config.logic.items():
            self.config.set_logic(x, y, logic.copy())
        for (x, y), closed in task_config.closed.items():
            if closed:
                self.config.close_switches(x, y, closed)
        # Every frame of the region is written, occupied or not (Eq. 1).
        return region.w * region.h * self.fabric.params.nraw

    def _clear_region(self, region: Rect) -> None:
        for cell in region.cells():
            self.config.logic.pop((cell.x, cell.y), None)
            self.config.closed.pop((cell.x, cell.y), None)

    # -- shared dictionaries (VERSION 4 task tables) ------------------------------

    def resolve_shared_dict(self, dict_id: int):
        """Shared-dictionary resolver handed to the container parser.

        Serves the resident table when one is held, faulting it in from
        external memory otherwise; returns None for an unknown id (the
        parser turns that into a loud :class:`~repro.errors.VbsError`).

        Republishing an id while resident tasks still reference its old
        table is refused loudly: decoding new containers against the
        stale resident copy (or evicted tasks' images against the new
        one) would silently fabricate logic fields — the caller must
        pick a fresh id or unload the referencing tasks first.
        """
        resident = self.shared_dicts.get(dict_id)
        stored = self.memory.shared_dict(dict_id)
        if resident is not None:
            if stored is not None and stored != resident:
                raise RuntimeManagementError(
                    f"shared dictionary {dict_id} was republished while "
                    f"{self._shared_dict_refs.get(dict_id, 0)} resident "
                    f"task(s) still reference the old table"
                )
            return resident
        return stored

    def _retain_shared_dict(self, dict_id: int) -> None:
        """Count one more resident container referencing ``dict_id``."""
        if dict_id not in self._shared_dict_refs:
            table = self.resolve_shared_dict(dict_id)
            if table is None:
                raise RuntimeManagementError(
                    f"no shared dictionary with id {dict_id} in memory"
                )
            self.shared_dicts[dict_id] = table
            self._shared_dict_refs[dict_id] = 0
            self.shared_dict_faults += 1
        self._shared_dict_refs[dict_id] += 1

    def _release_shared_dict(self, dict_id: int) -> None:
        """Drop the resident table when its last referencing task leaves."""
        refs = self._shared_dict_refs.get(dict_id)
        if refs is None:
            return
        if refs <= 1:
            del self._shared_dict_refs[dict_id]
            self.shared_dicts.pop(dict_id, None)
            self.shared_dict_drops += 1
        else:
            self._shared_dict_refs[dict_id] = refs - 1

    # -- de-virtualization with caching ------------------------------------------

    def _decode_image(
        self, image: StoredImage, origin: Tuple[int, int]
    ) -> Tuple[FabricConfig, DecodeStats, bool, Optional[int]]:
        """De-virtualize a VBS image at ``origin``, through the cache.

        Returns ``(config, stats, cache_hit, shared_dict_id)``.  The
        cache stores the origin-(0, 0) expansion — position abstraction
        makes one entry serve every placement — so a hit performs only a
        translation copy and zero router work (the entry remembers the
        shared-dictionary id so refcounting works without re-parsing).

        A shared-dict entry is validated against the *currently
        published* table before it is served: the container bytes digest
        only the 16-bit id, so a republished id would otherwise hit a
        stale expansion.  The entry holds the table it was decoded with,
        so freshness is a plain equality check.  A stale or unresolvable
        entry counts as a miss and is re-decoded.
        """
        def _entry_fresh(entry: CachedDecode) -> bool:
            if entry.shared_dict_id is None:
                return True
            return self.resolve_shared_dict(entry.shared_dict_id) == entry.table

        if self.decode_cache is None:
            vbs = VirtualBitstream.from_bits(
                image.bits, shared_dicts=self.resolve_shared_dict
            )
            config, stats = decode_vbs(
                vbs, origin=origin, memo=self.decode_memo
            )
            return config, stats, False, vbs.layout.shared_dict_id
        key = DecodeCache.key_for(image)
        entry = self.decode_cache.get(key, validator=_entry_fresh)
        if entry is not None:
            return (
                entry.config_at(origin), entry.stats, True,
                entry.shared_dict_id,
            )
        vbs = VirtualBitstream.from_bits(
            image.bits, shared_dicts=self.resolve_shared_dict
        )
        base, stats = decode_vbs(vbs, origin=(0, 0), memo=self.decode_memo)
        entry = CachedDecode(
            config=base,
            stats=stats,
            codec_tags=tuple(sorted(vbs.codec_tags())),
            layout=(
                vbs.layout.width,
                vbs.layout.height,
                vbs.layout.cluster_size,
                vbs.layout.compact_logic,
            ),
            shared_dict_id=vbs.layout.shared_dict_id,
            table=(
                vbs.layout.dict_table
                if vbs.layout.shared_dict_id is not None
                else None
            ),
        )
        self.decode_cache.put(key, entry)
        # Translate a copy even for origin (0, 0): the cached expansion
        # must never alias the configuration being written to the fabric.
        return entry.config_at(origin), stats, False, vbs.layout.shared_dict_id

    # -- task lifecycle ---------------------------------------------------------------

    def load_task(self, name: str, origin: Tuple[int, int]) -> ResidentTask:
        """Fetch, decode (if virtual) and configure a task at ``origin``."""
        if name in self.resident:
            raise RuntimeManagementError(f"task {name!r} is already loaded")
        image, fetch_cycles = self.memory.fetch(name)
        region = Rect(origin[0], origin[1], image.width, image.height)
        self._claim_region(name, region)

        cost = LoadCost(fetch_cycles=fetch_cycles)
        stats: Optional[DecodeStats] = None
        shared_dict_id: Optional[int] = None
        if image.kind == "vbs":
            task_config, stats, cost.cache_hit, shared_dict_id = (
                self._decode_image(image, origin)
            )
            if not cost.cache_hit:
                cost.decode_cycles, cost.per_unit_cycles = decode_cost(
                    stats, self.cost_params
                )
        else:
            raw = RawBitstream(
                self.fabric.params, image.width, image.height, image.bits
            )
            task_config = raw.to_config(origin)
        # Retain the shared table *before* any fabric/resident mutation:
        # a cache-hit load whose table has left external memory must fail
        # cleanly, not leave a half-registered task behind.
        if shared_dict_id is not None:
            self._retain_shared_dict(shared_dict_id)
        bits_written = self._write_config(task_config)
        cost.write_cycles = write_cost(bits_written, self.cost_params)

        task = ResidentTask(
            name, region, image, cost, stats,
            shared_dict_id=shared_dict_id,
        )
        self.resident[name] = task
        return task

    def unload_task(self, name: str) -> None:
        """Remove a task's configuration from the fabric.

        A task referencing a shared dictionary releases its reference;
        the resident table is dropped exactly when the last referencing
        task leaves (it stays available in external memory for later
        reloads).
        """
        task = self.resident.pop(name, None)
        if task is None:
            raise RuntimeManagementError(f"task {name!r} is not loaded")
        self._clear_region(task.region)
        if task.shared_dict_id is not None:
            self._release_shared_dict(task.shared_dict_id)

    def migrate_task(self, name: str, new_origin: Tuple[int, int]) -> ResidentTask:
        """Relocate a task: clear its region and re-decode at the new origin.

        This is the paper's "decoding the VBS on-the-fly during the task
        migration" — no position-specific bitstream was ever stored.
        """
        task = self.resident.get(name)
        if task is None:
            raise RuntimeManagementError(f"task {name!r} is not loaded")
        new_region = Rect(
            new_origin[0], new_origin[1], task.region.w, task.region.h
        )
        if not self.fabric.bounds.contains_rect(new_region):
            raise RuntimeManagementError(
                f"task {name}: migration target {new_region} exceeds fabric"
            )
        for other in self.resident.values():
            if other.name != name and other.region.overlaps(new_region):
                raise RuntimeManagementError(
                    f"task {name}: migration target collides with "
                    f"{other.name}"
                )
        if task.shared_dict_id is not None:
            # Validate the shared table *before* the unload, like every
            # other migrate precondition: a republished id (the resolver
            # raises) or a vanished table must fail while the task is
            # still resident, never lose it between unload and reload.
            if self.resolve_shared_dict(task.shared_dict_id) is None:
                raise RuntimeManagementError(
                    f"task {name}: shared dictionary "
                    f"{task.shared_dict_id} is no longer available"
                )
        self.unload_task(name)
        return self.load_task(name, new_origin)

    # -- convenience -------------------------------------------------------------------

    def store_vbs(self, name: str, vbs: VirtualBitstream) -> StoredImage:
        """Publish a Virtual Bit-Stream into external memory."""
        return self.memory.store(
            name, vbs.to_bits(), "vbs", vbs.layout.width, vbs.layout.height
        )

    def store_task(
        self, names: "Sequence[str]", result: "TaskEncodeResult"
    ) -> "list[StoredImage]":
        """Publish a task-scope encode: every container plus, when the
        task kept one, its shared dictionary table.

        The table is stored *before* the images so a load can never
        observe a container whose reference is unresolvable.
        """
        if len(names) != len(result.containers):
            raise RuntimeManagementError(
                f"{len(names)} names for {len(result.containers)} containers"
            )
        if result.shared:
            self.memory.store_shared_dict(result.dict_id, result.table)
        return [
            self.store_vbs(name, vbs)
            for name, vbs in zip(names, result.containers)
        ]

    def store_raw(self, name: str, raw: RawBitstream) -> StoredImage:
        """Publish a raw bitstream into external memory (baseline path)."""
        bits: BitArray = raw.bits
        return self.memory.store(name, bits, "raw", raw.width, raw.height)

    def utilization(self) -> float:
        """Fraction of fabric macros covered by resident task regions."""
        covered = sum(t.region.area for t in self.resident.values())
        return covered / self.fabric.bounds.area
