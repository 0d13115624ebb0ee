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

class TestPersistedMemo:
    """DecodeMemo save/load: warm starts across processes, bytes pinned.

    The persisted memo mirrors the decode cache's contract one layer
    down: version-stamped, corrupt-tolerant, restored entries skip the
    router replay but can never change the emitted container (the
    router is deterministic; the memo only short-circuits it).
    """

    def _encode(self, tiny_flow, tiny_config, memo, path, **kwargs):
        return encode_flow(
            tiny_flow, tiny_config, cluster_size=1, codecs="auto",
            memo=memo, memo_path=str(path), **kwargs,
        )

    def test_cold_run_writes_versioned_file(self, tiny_flow, tiny_config,
                                            tmp_path):
        import pickle

        from repro.vbs.devirt import MEMO_FILE_FORMAT

        path = tmp_path / "memo.pkl"
        self._encode(tiny_flow, tiny_config, DecodeMemo(), path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == MEMO_FILE_FORMAT
        assert len(payload["entries"]) > 0

    def test_warm_start_bytes_identical_and_hits_grow(
        self, tiny_flow, tiny_config, tmp_path
    ):
        path = tmp_path / "memo.pkl"
        cold_memo = DecodeMemo()
        cold = self._encode(tiny_flow, tiny_config, cold_memo, path)
        warm_memo = DecodeMemo()
        warm = self._encode(tiny_flow, tiny_config, warm_memo, path)
        assert warm.to_bits().to_bytes() == cold.to_bits().to_bytes()
        assert warm_memo.restored > 0
        # Every decode the cold run routed is replayed from the file.
        assert warm_memo.hits > cold_memo.hits
        assert warm_memo.misses == 0

    def test_pooled_backends_unchanged_by_restored_memo(
        self, tiny_flow, tiny_config, tmp_path
    ):
        path = tmp_path / "memo.pkl"
        baseline = encode_flow(
            tiny_flow, tiny_config, cluster_size=1, codecs="auto"
        )
        self._encode(tiny_flow, tiny_config, DecodeMemo(), path)  # seed it
        pooled = self._encode(
            tiny_flow, tiny_config, DecodeMemo(), path, workers=2,
        )
        assert pooled.to_bits().to_bytes() == baseline.to_bits().to_bytes()

    def test_process_run_merges_worker_deltas(
        self, tiny_flow, tiny_config, tmp_path
    ):
        import pickle

        path = tmp_path / "memo.pkl"
        # Cold process run: every persisted entry was discovered inside
        # a pool worker and merged on exit.
        self._encode(
            tiny_flow, tiny_config, DecodeMemo(), path,
            workers=2,
        )
        payload = pickle.loads(path.read_bytes())
        assert len(payload["entries"]) > 0
        # The merged file warms a subsequent serial run completely.
        warm_memo = DecodeMemo()
        self._encode(tiny_flow, tiny_config, warm_memo, path)
        assert warm_memo.restored > 0
        assert warm_memo.misses == 0
        # No merge scratch directory is left behind.
        assert list(tmp_path.glob("memo-merge-*")) == []

    def test_process_run_never_loses_entries(
        self, tiny_flow, tiny_config, tmp_path
    ):
        import pickle

        path = tmp_path / "memo.pkl"
        self._encode(tiny_flow, tiny_config, DecodeMemo(), path)
        before = dict(pickle.loads(path.read_bytes())["entries"])
        self._encode(
            tiny_flow, tiny_config, DecodeMemo(), path,
            workers=2,
        )
        after = dict(pickle.loads(path.read_bytes())["entries"])
        # The parent folds its own warm start and the worker deltas into
        # one file: everything the serial run persisted must survive.
        assert set(before) <= set(after)

    def test_stale_foreign_delta_never_merged(self, tmp_path):
        # Regression: the merge-on-exit fold globbed *every*
        # ``worker-*.pkl`` in the scratch directory, so a delta left by
        # a crashed earlier run was silently folded into this run's
        # memo.  Deltas are now stamped with a per-run id and the fold
        # ignores foreign (or unstamped pre-run-id) files.
        from repro.arch import ArchParams, get_cluster_model
        from repro.vbs.encode import _merge_worker_deltas

        model = get_cluster_model(ArchParams(channel_width=5), 1)
        stale = DecodeMemo()
        stale.decode(model, [(0, 5)])
        assert stale.dump_delta(tmp_path / "worker-deadbeef-41.pkl",
                                frozenset(), run_id="deadbeef") == 1
        unstamped = DecodeMemo()
        unstamped.decode(model, [(1, 6)])
        assert unstamped.dump_delta(tmp_path / "worker-42.pkl",
                                    frozenset()) == 1
        fresh = DecodeMemo()
        fresh.decode(model, [(2, 7)])
        assert fresh.dump_delta(tmp_path / "worker-cafe-43.pkl",
                                frozenset(), run_id="cafe") == 1

        memo = DecodeMemo()
        assert _merge_worker_deltas(memo, tmp_path, "cafe") == 1
        _res, reused = memo.decode(model, [(2, 7)])
        assert reused  # this run's delta was folded
        _res, stale_hit = memo.decode(model, [(0, 5)])
        assert not stale_hit  # the crashed run's delta was not

    def test_load_rejects_foreign_run_stamp(self, tmp_path):
        from repro.arch import ArchParams, get_cluster_model

        model = get_cluster_model(ArchParams(channel_width=5), 1)
        src = DecodeMemo()
        src.decode(model, [(0, 5)])
        path = tmp_path / "worker-abc-7.pkl"
        src.dump_delta(path, frozenset(), run_id="abc")
        assert DecodeMemo().load(path, run_id="other") == 0
        assert DecodeMemo().load(path, run_id="abc") == 1
        # run-agnostic loads (the plain persisted-memo path) still fold.
        assert DecodeMemo().load(path) == 1

    def test_corrupt_memo_file_tolerated(self, tiny_flow, tiny_config,
                                         tmp_path):
        path = tmp_path / "memo.pkl"
        path.write_bytes(b"not a pickle")
        memo = DecodeMemo()
        vbs = self._encode(tiny_flow, tiny_config, memo, path)
        assert memo.restored == 0
        baseline = encode_flow(
            tiny_flow, tiny_config, cluster_size=1, codecs="auto"
        )
        assert vbs.to_bits().to_bytes() == baseline.to_bits().to_bytes()
        # The run repaired the file on its way out.
        memo2 = DecodeMemo()
        self._encode(tiny_flow, tiny_config, memo2, path)
        assert memo2.restored > 0

    def test_wrong_format_version_ignored(self, tmp_path):
        import pickle

        path = tmp_path / "memo.pkl"
        path.write_bytes(pickle.dumps({"format": 999, "entries": []}))
        memo = DecodeMemo()
        assert memo.load(path) == 0

    def test_load_respects_bound_and_existing_keys(self, tmp_path):
        from repro.arch import ArchParams, get_cluster_model

        model = get_cluster_model(ArchParams(channel_width=5), 1)
        big = DecodeMemo()
        big.decode(model, [(0, 5)])
        big.decode(model, [(1, 6)])
        big.decode(model, [(2, 7)])
        path = tmp_path / "memo.pkl"
        assert big.save(path) == 3
        # A bounded memo restores only into its free room, preferring
        # the file's MRU tail.
        bounded = DecodeMemo(max_entries=2)
        assert bounded.load(path) == 2
        assert len(bounded) == 2
        _res, reused = bounded.decode(model, [(2, 7)])  # the MRU entry
        assert reused
        # A live entry is never overwritten by a restore.
        fresh = DecodeMemo()
        fresh.decode(model, [(0, 5)])
        assert fresh.load(path) == 2  # the shared key is skipped
        assert len(fresh) == 3

    def test_load_never_displaces_live_entries(self, tmp_path):
        from repro.arch import ArchParams, get_cluster_model

        model = get_cluster_model(ArchParams(channel_width=5), 1)
        stale = DecodeMemo()
        stale.decode(model, [(1, 6)])
        stale.decode(model, [(2, 7)])
        path = tmp_path / "memo.pkl"
        stale.save(path)
        # A full bounded memo keeps its (fresher) live entries; the
        # file restores nothing rather than evicting them.
        live = DecodeMemo(max_entries=1)
        live.decode(model, [(0, 5)])
        assert live.load(path) == 0
        _res, reused = live.decode(model, [(0, 5)])
        assert reused
        assert len(live) == 1

    def test_task_scope_encode_with_memo_path(self, tiny_flow, tiny_config,
                                              tmp_path):
        from repro.vbs.encode import encode_task

        path = tmp_path / "memo.pkl"
        jobs = [(tiny_flow, tiny_config)] * 2
        cold = encode_task(jobs, dict_id=3, codecs="auto",
                           memo_path=str(path))
        warm_memo = DecodeMemo()
        warm = encode_task(jobs, dict_id=3, codecs="auto", memo=warm_memo,
                           memo_path=str(path))
        assert warm_memo.restored > 0
        for a, b in zip(cold.containers, warm.containers):
            assert a.to_bits().to_bytes() == b.to_bits().to_bytes()
