"""Property tests for the byte-budgeted decode cache.

Invariants pinned over randomized operation sequences:

* the byte budget is a hard bound — after *any* op sequence
  ``total_bytes <= capacity_bytes`` (an entry larger than the whole
  budget is never resident);
* the entry-count bound holds the same way;
* LRU order is preserved under get/put refreshes (checked against a
  reference ``OrderedDict`` model);
* stats counters stay consistent (``hits + misses == lookups``; the
  byte ledger equals the sum of resident entry weights), also when a
  validated lookup rejects a stale entry and drops it as a miss.
"""

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import ArchParams
from repro.bitstream.config import FabricConfig
from repro.runtime import CachedDecode, DecodeCache
from repro.utils.bitarray import BitArray
from repro.utils.geometry import Rect
from repro.vbs.decode import DecodeStats

COMMON = settings(
    deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)

PARAMS = ArchParams(channel_width=5)


def make_entry(w: int, h: int, fill: int = 0) -> CachedDecode:
    """A CachedDecode whose expansion covers a w x h task rectangle."""
    config = FabricConfig(PARAMS, Rect(0, 0, w, h))
    logic = BitArray(PARAMS.nlb)
    logic[fill % PARAMS.nlb] = 1
    config.set_logic(0, 0, logic)
    config.close_switch(0, 0, fill % PARAMS.routing_bits)
    stats = DecodeStats(clusters_decoded=w * h, router_work=fill)
    return CachedDecode(
        config=config,
        stats=stats,
        codec_tags=("list",),
        layout=(w, h, 1, False),
    )


def key_of(i: int):
    return (f"digest{i}", "vbs", 1 + i % 3, 1 + i % 2)


#: One op: ("put", key index, width, height) or ("get", key index).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 9),
                  st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.just("get"), st.integers(0, 9)),
    ),
    max_size=60,
)


def apply_ops(cache: DecodeCache, ops) -> "OrderedDict":
    """Replay ops against the cache and an LRU reference model."""
    model: "OrderedDict" = OrderedDict()
    for op in ops:
        if op[0] == "put":
            _op, i, w, h = op
            entry = make_entry(w, h, fill=i)
            cache.put(key_of(i), entry)
            model.pop(key_of(i), None)
            # An entry that can never fit the byte budget is rejected
            # outright (it must not flush the resident working set).
            if (cache.capacity_bytes is None
                    or entry.expanded_bytes <= cache.capacity_bytes):
                model[key_of(i)] = entry
        else:
            _op, i = op
            hit = cache.get(key_of(i))
            if key_of(i) in model:
                assert hit is model[key_of(i)]
                model.move_to_end(key_of(i))
            else:
                assert hit is None
        # Shrink the model by the same eviction rule (LRU-first) until
        # it satisfies both bounds, mirroring _evict_over_budget.
        def total(m):
            return sum(e.expanded_bytes for e in m.values())
        while model and (
            (cache.capacity is not None and len(model) > cache.capacity)
            or (cache.capacity_bytes is not None
                and total(model) > cache.capacity_bytes)
        ):
            model.popitem(last=False)
    return model


class TestCacheInvariants:
    @COMMON
    @given(OPS, st.integers(1, 6))
    def test_count_bound_and_lru_order(self, ops, capacity):
        cache = DecodeCache(capacity=capacity)
        model = apply_ops(cache, ops)
        assert len(cache) <= capacity
        assert cache.keys() == list(model)
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups

    @COMMON
    @given(OPS, st.integers(200, 20000))
    def test_byte_budget_never_exceeded(self, ops, budget):
        cache = DecodeCache(capacity=None, capacity_bytes=budget)
        model = apply_ops(cache, ops)
        assert cache.total_bytes <= budget
        assert cache.keys() == list(model)
        assert cache.total_bytes == sum(
            e.expanded_bytes for e in model.values()
        )

    @COMMON
    @given(OPS, st.integers(1, 5), st.integers(200, 20000))
    def test_both_bounds_together(self, ops, capacity, budget):
        cache = DecodeCache(capacity=capacity, capacity_bytes=budget)
        model = apply_ops(cache, ops)
        assert len(cache) <= capacity
        assert cache.total_bytes <= budget
        assert cache.keys() == list(model)

    def test_oversized_entry_never_resident(self):
        cache = DecodeCache(capacity=None, capacity_bytes=100)
        big = make_entry(6, 6)
        assert big.expanded_bytes > 100
        cache.put(key_of(0), big)
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats.evictions == 1

    def test_oversized_entry_does_not_flush_residents(self):
        one = make_entry(2, 2).expanded_bytes
        cache = DecodeCache(capacity=None, capacity_bytes=3 * one)
        cache.put(key_of(0), make_entry(2, 2))
        cache.put(key_of(1), make_entry(2, 2))
        big = make_entry(6, 6)
        assert big.expanded_bytes > 3 * one
        cache.put(key_of(2), big)  # rejected, residents untouched
        assert cache.keys() == [key_of(0), key_of(1)]
        assert cache.total_bytes == 2 * one
        assert cache.stats.evictions == 1


class TestCacheLookups:
    @pytest.mark.parametrize("bounds", [
        dict(capacity=None, capacity_bytes=None),
        dict(capacity=0),
        dict(capacity=None, capacity_bytes=0),
    ])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            DecodeCache(**bounds)

    def test_rejected_entry_is_dropped_as_a_miss(self):
        cache = DecodeCache(capacity=4)
        cache.put(key_of(0), make_entry(2, 2))
        cache.put(key_of(1), make_entry(3, 1))
        before = cache.total_bytes
        stale = cache.get(key_of(0), validator=lambda entry: False)
        assert stale is None
        assert cache.keys() == [key_of(1)]
        assert cache.total_bytes == before - make_entry(2, 2).expanded_bytes
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.evictions) == (0, 1, 1)

    def test_accepted_entry_is_a_hit_and_refreshed(self):
        cache = DecodeCache(capacity=4)
        entry = make_entry(2, 2)
        cache.put(key_of(0), entry)
        cache.put(key_of(1), make_entry(3, 1))
        seen = []
        hit = cache.get(key_of(0), validator=lambda e: seen.append(e) or True)
        assert hit is entry and seen == [entry]
        assert cache.keys() == [key_of(1), key_of(0)]
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_peek_counts_nothing_and_keeps_order(self):
        cache = DecodeCache(capacity=4)
        entry = make_entry(2, 2)
        cache.put(key_of(0), entry)
        cache.put(key_of(1), make_entry(3, 1))
        assert cache.peek(key_of(0)) is entry
        assert cache.peek(key_of(5)) is None
        assert cache.keys() == [key_of(0), key_of(1)]
        assert cache.stats.lookups == 0

    def test_clear_empties_the_ledger(self):
        cache = DecodeCache(capacity=None, capacity_bytes=10**6)
        cache.put(key_of(0), make_entry(2, 2))
        cache.put(key_of(1), make_entry(3, 1))
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes == 0
        assert cache.get(key_of(0)) is None

    @COMMON
    @given(OPS, st.integers(1, 6), st.lists(st.booleans(), min_size=1))
    def test_validator_keeps_ledger_consistent(self, ops, capacity, verdicts):
        """Validated lookups that reject entries keep every counter and
        the byte ledger exact."""
        cache = DecodeCache(capacity=capacity)
        apply_ops(cache, ops)
        for i, fresh in zip(range(10), verdicts * 10):
            resident = cache.peek(key_of(i))
            hit = cache.get(key_of(i), validator=lambda e, f=fresh: f)
            assert hit is (resident if fresh else None)
            if not fresh:
                assert key_of(i) not in cache.keys()
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups
        assert cache.total_bytes == sum(
            cache.peek(k).expanded_bytes for k in cache.keys()
        )
