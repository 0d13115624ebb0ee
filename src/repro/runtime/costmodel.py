"""Cycle-cost model of the reconfiguration controller.

The paper evaluates its runtime qualitatively: de-virtualization is a
"simple router" cheap enough for on-line use, per-macro decoding "can be
easily parallelized to process multiple macros at once", and coarser
clusters "need higher computing power to decode".  This model turns those
statements into numbers:

* fetching an image costs ``ceil(bits / bus_bits)`` cycles (memory model);
* de-virtualizing a cluster costs ``work x cycles_per_bfs_step`` cycles,
  where ``work`` is the BFS dequeue count reported by the decoder;
* raw frames (raw images or raw-fallback clusters) are copied at
  ``bus_bits`` per cycle;
* with ``parallel_units`` decoders, per-cluster jobs are dispatched
  longest-first (LPT) and the decode time is the resulting makespan;
* writing frames into the configuration layer costs
  ``ceil(frame bits / config_port_bits)`` cycles;
* the controller's :class:`DecodeCache` (LRU, content-digest keyed) makes
  repeated or relocated loads of the same image skip de-virtualization
  entirely — a cache hit costs zero decode cycles, and
  :class:`DecodeCacheStats` surfaces the hit/miss counters.

The cache is bounded either by entry count (``capacity``) or by the byte
footprint of the cached expansions (``capacity_bytes``, entries weighted
by :attr:`CachedDecode.expanded_bytes`).  Entries live only in the
process that decoded them.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import RuntimeManagementError
from repro.vbs.decode import DecodeStats

if TYPE_CHECKING:
    from repro.bitstream.config import FabricConfig
    from repro.runtime.memory import StoredImage
    from repro.utils.bitarray import BitArray


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the controller model."""

    bus_bits: int = 32
    cycles_per_bfs_step: int = 1
    parallel_units: int = 1
    config_port_bits: int = 32


@dataclass
class LoadCost:
    """Cycle breakdown of one task load."""

    fetch_cycles: int = 0
    decode_cycles: int = 0
    write_cycles: int = 0
    per_unit_cycles: List[int] = field(default_factory=list)
    #: True when de-virtualization was skipped via the decode cache.
    cache_hit: bool = False

    @property
    def total_cycles(self) -> int:
        return self.fetch_cycles + self.decode_cycles + self.write_cycles


# -- the runtime decode cache ---------------------------------------------------


@dataclass
class DecodeCacheStats:
    """Hit/miss counters of the controller's decode cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def expanded_image_bytes(width: int, height: int, nraw: int) -> int:
    """Raw-frame footprint of a ``width x height`` task, in bytes.

    The single definition behind both the cache's byte-budget weights
    and the workload report's decoded-byte accounting — what a hardware
    configuration store would hold for the expansion.
    """
    return -(-(width * height * nraw) // 8)


@dataclass
class CachedDecode:
    """One cached de-virtualization: origin-independent expansion + stats.

    ``config`` is decoded at origin (0, 0); position abstraction makes it
    valid for every placement of the task — consumers translate a copy to
    the target origin.  ``codec_tags`` and ``layout`` record which codings
    and coding geometry produced the entry (cache introspection; the
    digest key already pins them).
    """

    config: "FabricConfig"
    stats: DecodeStats
    codec_tags: Tuple[str, ...]
    layout: Tuple[int, int, int, bool]  # (width, height, cluster_size, compact)
    #: VERSION 4 shared-dictionary id the source container references
    #: (None for self-contained containers).  Kept in the entry so a
    #: cache hit can refcount resident task tables without re-parsing.
    shared_dict_id: Optional[int] = None
    #: The resolved shared table the entry was decoded with.  The cache
    #: key digests only the container *bytes*, which for a shared-dict
    #: container carry just the 16-bit id — the controller validates
    #: hits against the currently-published table so a republished id
    #: can never serve a stale expansion.
    table: Optional[Tuple["BitArray", ...]] = None

    def config_at(self, origin: Tuple[int, int]) -> "FabricConfig":
        """A translated copy of the cached expansion at ``origin``."""
        return self.config.translated(origin[0], origin[1])

    @property
    def expanded_bytes(self) -> int:
        """Byte footprint of the expanded image this entry stands for.

        The raw-frame size of the task rectangle (``w * h * Nraw`` bits,
        rounded up to bytes): what a hardware configuration store would
        hold for the expansion, independent of Python object overhead —
        deterministic, so the byte-budget eviction is reproducible.
        """
        region = self.config.region
        return expanded_image_bytes(
            region.w, region.h, self.config.params.nraw
        )


#: Cache key: (image digest, image kind, origin-independent dimensions).
CacheKey = Tuple[str, str, int, int]

def _entry_weight(entry: object) -> int:
    """Byte weight of a cache entry (0 for foreign test doubles)."""
    weight = getattr(entry, "expanded_bytes", 0)
    return weight if isinstance(weight, int) and weight > 0 else 0


class DecodeCache:
    """LRU cache of de-virtualized task images.

    Repeated or relocated loads of the same image skip the
    :class:`~repro.vbs.devirt.ClusterDecoder` replay entirely: the cached
    origin-(0,0) expansion is translated to the requested origin, so the
    second load of a task costs zero decode cycles.  Keys are content
    digests, so re-publishing a changed image under the same name can
    never serve stale frames.

    Bounds (at least one must be set):

    * ``capacity`` — maximum entry count (``None`` = unbounded count);
    * ``capacity_bytes`` — maximum summed :attr:`CachedDecode.expanded_bytes`
      of the resident entries.  Eviction is LRU under either bound, and an
      entry whose expansion alone exceeds the byte budget is never kept —
      after any operation sequence ``total_bytes <= capacity_bytes`` holds.
    """

    def __init__(
        self,
        capacity: Optional[int] = 16,
        capacity_bytes: Optional[int] = None,
    ):
        if capacity is None and capacity_bytes is None:
            raise ValueError("decode cache needs a capacity or a byte budget")
        if capacity is not None and capacity < 1:
            raise ValueError("decode cache capacity must be >= 1")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError("decode cache byte budget must be >= 1")
        self.capacity = capacity
        self.capacity_bytes = capacity_bytes
        self.stats = DecodeCacheStats()
        self._entries: "OrderedDict[CacheKey, CachedDecode]" = OrderedDict()
        self._total_bytes = 0

    @staticmethod
    def key_for(image: "StoredImage") -> CacheKey:
        """The cache key of a stored image (digest + kind + layout)."""
        return (image.digest(), image.kind, image.width, image.height)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Summed expanded-image footprint of the resident entries."""
        return self._total_bytes

    def keys(self) -> "List[CacheKey]":
        """Resident keys in LRU-to-MRU order (introspection/tests)."""
        return list(self._entries)

    def get(self, key: CacheKey, validator=None) -> Optional[CachedDecode]:
        """Look up ``key``, counting the hit/miss and refreshing recency.

        ``validator`` (entry -> bool) guards hits whose validity depends
        on state outside the keyed bytes — a shared-dictionary entry is
        only as fresh as the external table it was decoded with.  A
        rejected entry is dropped and the lookup counts as a miss, so
        the caller re-decodes and ``put`` installs the fresh expansion.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if validator is not None and not validator(entry):
            self._entries.pop(key)
            self._total_bytes -= _entry_weight(entry)
            self.stats.evictions += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: CacheKey) -> Optional[CachedDecode]:
        """Look up ``key`` without counting stats or refreshing recency.

        The fleet's cross-shard migration uses this to copy a warm entry
        from the hot shard's cache into the destination shard's — an
        administrative transfer, not a decode lookup, so it must not
        perturb either cache's hit/miss accounting.
        """
        return self._entries.get(key)

    def _evict_over_budget(self) -> None:
        over_count = (
            self.capacity is not None and len(self._entries) > self.capacity
        )
        over_bytes = (
            self.capacity_bytes is not None
            and self._total_bytes > self.capacity_bytes
        )
        while self._entries and (over_count or over_bytes):
            _key, victim = self._entries.popitem(last=False)
            self._total_bytes -= _entry_weight(victim)
            self.stats.evictions += 1
            over_count = (
                self.capacity is not None
                and len(self._entries) > self.capacity
            )
            over_bytes = (
                self.capacity_bytes is not None
                and self._total_bytes > self.capacity_bytes
            )

    def put(self, key: CacheKey, entry: CachedDecode) -> None:
        """Insert (or refresh) an entry, evicting the least recently used.

        Under a byte budget an entry whose expansion alone exceeds
        ``capacity_bytes`` is rejected outright (counted as an eviction)
        without disturbing the resident entries — the budget is a hard
        invariant, not advisory.  Hit/miss counters are not touched.
        """
        weight = _entry_weight(entry)
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_bytes -= _entry_weight(old)
        if self.capacity_bytes is not None and weight > self.capacity_bytes:
            # An expansion that can never fit is rejected up front — it
            # must not flush the resident working set on its way out.
            self.stats.evictions += 1
            return
        self._entries[key] = entry
        self._total_bytes += weight
        self._evict_over_budget()

    def clear(self) -> None:
        self._entries.clear()
        self._total_bytes = 0


def percentile(values: "Sequence[int]", p: float) -> int:
    """Nearest-rank percentile of integer cycle samples.

    The open-loop workload reports are sized by latency percentiles; the
    nearest-rank definition (the smallest sample with at least ``p``
    percent of the distribution at or below it) keeps the result an
    actual observed sample — an integer cycle count, deterministic and
    JSON-stable, never an interpolated float.  An empty sample set has
    no percentiles — reporting a fabricated 0 would read as "zero
    latency", so it is rejected loudly; report builders emit ``null``
    latency sections for zero-request traces instead.
    """
    if not values:
        raise RuntimeManagementError(
            "percentile of an empty sample set is undefined"
        )
    ordered = sorted(values)
    rank = min(max(1, math.ceil(p / 100.0 * len(ordered))), len(ordered))
    return ordered[rank - 1]


def lpt_makespan(jobs: List[int], units: int) -> Tuple[int, List[int]]:
    """Longest-processing-time-first schedule; returns (makespan, loads)."""
    loads = [0] * max(1, units)
    for job in sorted(jobs, reverse=True):
        idx = loads.index(min(loads))
        loads[idx] += job
    return max(loads) if loads else 0, loads


def decode_cost(
    stats: DecodeStats, params: CostParams
) -> Tuple[int, List[int]]:
    """Decode cycles of a de-virtualization run under ``params``.

    Smart clusters cost their router work; raw clusters cost a bus-rate
    copy.  Jobs are balanced across the parallel decode units.
    """
    jobs: List[int] = [
        work * params.cycles_per_bfs_step
        for work in stats.per_cluster_work.values()
    ]
    if stats.raw_bits_copied:
        raw_jobs = stats.clusters_raw or 1
        per_raw = -(-stats.raw_bits_copied // raw_jobs)
        jobs.extend(
            -(-per_raw // params.bus_bits) for _ in range(raw_jobs)
        )
    return lpt_makespan(jobs, params.parallel_units)


def write_cost(total_frame_bits: int, params: CostParams) -> int:
    """Cycles to push expanded frames into the configuration layer."""
    return -(-total_frame_bits // params.config_port_bits)
