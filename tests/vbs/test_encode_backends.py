"""Encode-pipeline backends: byte identity, pickling, shared memo.

The container a design encodes to must not depend on *how* the pipeline
ran — serial and process pool must emit identical bytes for every codec
selection (the offline/online feedback-loop contract says
decode success is a function of the emitted list, so a backend-dependent
container would be a correctness bug, not a performance detail).
"""

import pickle

import pytest

from repro.vbs.devirt import DecodeMemo
from repro.vbs.encode import (
    PROCESS_CHUNKS_PER_WORKER,
    ClusterWorkItem,
    EncodeContext,
    _chunk_work_items,
    _encode_cluster,
    encode_flow,
)

#: The matrix of the byte-identity guarantee: the paper-strict default,
#: the full cost-driven picker, and the two container-level codecs that
#: exercise the sequential family pass (held-back raw frames included).
CODEC_SELECTIONS = [
    None,
    "auto",
    ("dict", "list", "raw"),
    ("delta", "list", "raw"),
]


def _ids(val):
    return "paper" if val is None else str(val)


class TestByteIdenticalBackends:
    @pytest.mark.parametrize("codecs", CODEC_SELECTIONS, ids=_ids)
    def test_serial_and_process_agree(self, tiny_flow, tiny_config,
                                      codecs):
        serial = encode_flow(
            tiny_flow, tiny_config, cluster_size=2, codecs=codecs
        )
        process = encode_flow(
            tiny_flow, tiny_config, cluster_size=2, codecs=codecs,
            workers=2,
        )
        assert process.to_bits().to_bytes() == serial.to_bits().to_bytes()
        # Deterministic merge: the stats that describe the *container*
        # (not memo luck) agree too.
        assert process.stats.clusters_listed == serial.stats.clusters_listed
        assert process.stats.clusters_raw == serial.stats.clusters_raw
        assert process.stats.codec_counts == serial.stats.codec_counts

    def test_process_backend_cluster1(self, tiny_flow, tiny_config):
        serial = encode_flow(tiny_flow, tiny_config, cluster_size=1,
                             codecs="auto")
        process = encode_flow(tiny_flow, tiny_config, cluster_size=1,
                              codecs="auto", workers=2)
        assert process.to_bits().to_bytes() == serial.to_bits().to_bytes()


class TestProcessChunking:
    """The process backend schedules chunked work items (chunksize > 1):
    one executor submission per chunk instead of one per cluster, with
    the flattened chunk sequence exactly the raster-order item list."""

    def test_chunks_batch_and_preserve_order(self):
        items = list(range(37))  # the chunker never inspects items
        chunks = _chunk_work_items(items, workers=4)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) < len(items)          # chunksize > 1
        sizes = {len(chunk) for chunk in chunks}
        assert max(sizes) == -(-37 // (4 * PROCESS_CHUNKS_PER_WORKER))
        assert _chunk_work_items([], workers=4) == []
        # Tiny inputs degrade to one item per chunk, never zero chunks.
        assert [x for c in _chunk_work_items([1, 2], 8) for x in c] == [1, 2]

    def test_fewer_submissions_and_byte_identity(
        self, tiny_flow, tiny_config, monkeypatch
    ):
        import concurrent.futures as cf

        submissions = []
        real_executor = cf.ProcessPoolExecutor

        class CountingExecutor(real_executor):
            def submit(self, fn, *args, **kwargs):
                submissions.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(cf, "ProcessPoolExecutor", CountingExecutor)
        workers = 2
        pooled = encode_flow(
            tiny_flow, tiny_config, cluster_size=1, codecs="auto",
            workers=workers,
        )
        serial = encode_flow(
            tiny_flow, tiny_config, cluster_size=1, codecs="auto"
        )
        assert pooled.to_bits().to_bytes() == serial.to_bits().to_bytes()
        n_items = serial.stats.clusters_listed
        expected = -(-n_items // max(
            1, -(-n_items // (workers * PROCESS_CHUNKS_PER_WORKER))
        ))
        assert len(submissions) == expected
        assert len(submissions) < n_items


class TestWorkItemPickling:
    def _context_and_item(self, tiny_flow):
        from repro.vbs.format import VbsLayout

        layout = VbsLayout(
            tiny_flow.params, 2, tiny_flow.fabric.width,
            tiny_flow.fabric.height,
        )
        from repro.utils.bitarray import BitArray

        item = ClusterWorkItem(
            pos=(1, 0),
            pairs=((0, 5), (3, 2)),
            logic=BitArray(layout.logic_bits_per_cluster),
            valid_members=tuple(layout.valid_members(1, 0)),
        )
        ctx = EncodeContext(
            layout=layout, codec_names="auto", max_orders=12, order_seed=0
        )
        return ctx, item

    def test_work_item_roundtrips(self, tiny_flow):
        ctx, item = self._context_and_item(tiny_flow)
        clone = pickle.loads(pickle.dumps(item))
        assert clone == item

    def test_context_roundtrips(self, tiny_flow):
        ctx, _item = self._context_and_item(tiny_flow)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.layout == ctx.layout
        assert clone.codec_names == ctx.codec_names

    def test_outcome_roundtrips(self, tiny_flow):
        ctx, item = self._context_and_item(tiny_flow)
        outcome = _encode_cluster(item, ctx, DecodeMemo())
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.pos == outcome.pos
        assert clone.orders_tried == outcome.orders_tried
        assert (clone.record is None) == (outcome.record is None)
        if outcome.record is not None:
            assert clone.record.pairs == outcome.record.pairs
            assert clone.record.logic == outcome.record.logic


class TestSharedMemoSweep:
    def test_cross_invocation_reuse(self, tiny_flow, tiny_config):
        memo = DecodeMemo()
        first = encode_flow(tiny_flow, tiny_config, cluster_size=1,
                            memo=memo)
        second = encode_flow(tiny_flow, tiny_config, cluster_size=1,
                             memo=memo)
        assert second.stats.decode_reuse_hits >= first.stats.decode_reuse_hits
        assert second.stats.decode_reuse_hits > 0
        assert second.to_bits().to_bytes() == first.to_bits().to_bytes()

    def test_shared_memo_does_not_change_bytes_across_sizes(
        self, tiny_flow, tiny_config
    ):
        memo = DecodeMemo()
        swept = [
            encode_flow(tiny_flow, tiny_config, cluster_size=c, memo=memo)
            for c in (1, 2)
        ]
        fresh = [
            encode_flow(tiny_flow, tiny_config, cluster_size=c)
            for c in (1, 2)
        ]
        for a, b in zip(swept, fresh):
            assert a.to_bits().to_bytes() == b.to_bits().to_bytes()

    def test_bounded_memo_refreshes_on_hit(self):
        # LRU, not FIFO: a re-used entry must outlive colder ones.
        from repro.arch import ArchParams, get_cluster_model

        model = get_cluster_model(ArchParams(channel_width=5), 1)
        memo = DecodeMemo(max_entries=2)
        memo.decode(model, [(0, 5)])
        memo.decode(model, [(1, 6)])
        memo.decode(model, [(0, 5)])   # refresh the older entry
        memo.decode(model, [(2, 7)])   # evicts (1, 6), not (0, 5)
        _result, reused = memo.decode(model, [(0, 5)])
        assert reused
        assert len(memo) == 2

    @pytest.mark.parametrize("codecs", CODEC_SELECTIONS, ids=_ids)
    def test_warm_memo_reencode_is_identical(self, tiny_flow, tiny_config,
                                             codecs):
        memo = DecodeMemo()
        cold = encode_flow(tiny_flow, tiny_config, cluster_size=2,
                           codecs=codecs, memo=memo)
        misses = memo.misses
        warm = encode_flow(tiny_flow, tiny_config, cluster_size=2,
                           codecs=codecs, memo=memo)
        assert warm.to_bits().to_bytes() == cold.to_bits().to_bytes()
        # Everything the second run decodes was decoded by the first.
        assert memo.misses == misses
        assert warm.stats.decode_reuse_hits > cold.stats.decode_reuse_hits

    @pytest.mark.parametrize("codecs", CODEC_SELECTIONS, ids=_ids)
    def test_warm_memo_leaves_pooled_bytes_unchanged(
        self, tiny_flow, tiny_config, codecs
    ):
        # Workers start with empty memos of their own: a warm caller
        # memo must not change what the process backend emits.
        memo = DecodeMemo()
        serial = encode_flow(tiny_flow, tiny_config, cluster_size=2,
                             codecs=codecs, memo=memo)
        pooled = encode_flow(tiny_flow, tiny_config, cluster_size=2,
                             codecs=codecs, memo=memo, workers=2)
        assert pooled.to_bits().to_bytes() == serial.to_bits().to_bytes()

    @pytest.mark.parametrize("bound", [1, 3])
    def test_bounded_memo_holds_its_bound_through_an_encode(
        self, tiny_flow, tiny_config, bound
    ):
        memo = DecodeMemo(max_entries=bound)
        bounded = encode_flow(tiny_flow, tiny_config, cluster_size=1,
                              codecs="auto", memo=memo)
        unbounded = encode_flow(tiny_flow, tiny_config, cluster_size=1,
                                codecs="auto")
        assert len(memo) == bound
        assert bounded.to_bits().to_bytes() == \
               unbounded.to_bits().to_bytes()

    def test_task_scope_encode_reuses_shared_memo(self, tiny_flow,
                                                  tiny_config):
        from repro.vbs.encode import encode_task

        jobs = [(tiny_flow, tiny_config)] * 2
        memo = DecodeMemo()
        first = encode_task(jobs, dict_id=3, cluster_size=2, memo=memo)
        misses = memo.misses
        second = encode_task(jobs, dict_id=3, cluster_size=2, memo=memo)
        assert memo.misses == misses and memo.hits > 0
        assert second.table == first.table
        assert [v.to_bits().to_bytes() for v in second.containers] == \
               [v.to_bits().to_bytes() for v in first.containers]

    def test_memo_lives_in_process_only(self, tiny_flow, tiny_config):
        # The memo is an object the caller holds; there is no file to
        # warm it from or dump it to.
        with pytest.raises(TypeError, match="memo_path"):
            encode_flow(tiny_flow, tiny_config, memo_path="memo.bin")
        assert not hasattr(DecodeMemo(), "save")
