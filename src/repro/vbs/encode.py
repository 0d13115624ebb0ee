"""vbsgen: the Virtual Bit-Stream generation backend (Section III-B).

``encode_design`` consumes the outputs of the CAD flow (packed design,
placement, routing, and the expanded junction-level configuration) and
produces a :class:`VirtualBitstream`:

* connection lists are extracted per cluster (``repro.vbs.extract``);
* every cluster's list is replayed through the *online* de-virtualization
  router — the offline/online feedback loop of the paper — re-ordering on
  failure (``repro.vbs.order``);
* clusters whose lists cannot be decoded in any tried order, or whose route
  count exceeds the count field, fall back to raw coding, "which can induce
  lesser compression gains but guarantees that the hardware task will be
  handled correctly in all cases";
* empty clusters are omitted entirely (the macro list of Table I carries
  positions, so the decoder zero-fills unlisted fabric).

The encoder is a *batched pipeline*: each non-empty cluster is an
independent work item (logic extraction, order search, record encoding,
codec selection) driven either serially or through a
``concurrent.futures`` worker pool (``workers=``), with output record
ordering deterministic (raster) either way.  Identical cluster decodes
are replayed from a shared :class:`~repro.vbs.devirt.DecodeMemo` instead
of re-running the router.

Record bodies are written and parsed by the pluggable codec registry
(``repro.vbs.codecs``); ``codecs="auto"`` (or an explicit name list)
enables the cost-driven per-cluster codec picker, while the default keeps
the paper's strict Table I behavior (connection list + raw fallback,
or the Section V compact-logic coding when ``compact_logic=True``).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.macro import get_cluster_model
from repro.arch.params import ArchParams
from repro.bitstream.config import FabricConfig
from repro.bitstream.raw import RawBitstream
from repro.cad.flow import FlowResult
from repro.cad.pack import PackedDesign
from repro.cad.place import Placement
from repro.cad.route import RoutingResult
from repro.arch.rrg import RoutingGraph
from repro.errors import DevirtualizationError, VbsError
from repro.utils.bitarray import BitArray, BitReader, BitWriter
from repro.vbs.devirt import DecodeMemo
from repro.vbs.extract import extract_components
from repro.vbs.format import (
    CHANNEL_BITS,
    CLUSTER_BITS,
    CODEC_TAG_BITS,
    COMPACT_BITS,
    DICT_COUNT_BITS,
    DIM_BITS,
    LUT_BITS,
    MAGIC,
    MAGIC_BITS,
    MAX_V2_TAG,
    MAX_V3_TAG,
    SHARED_DICT_ID_BITS,
    SUPPORTED_VERSIONS,
    VERSION_BITS,
    WIDE_CODEC_TAG_BITS,
    ClusterRecord,
    CodecState,
    VbsLayout,
    tag_bits_for_version,
)

Pair = Tuple[int, int]

#: How a VERSION 4 shared-dictionary id resolves to its pattern table: a
#: mapping, a callable ``id -> patterns``, or None (no shared tables).
SharedDictResolver = (
    "Mapping[int, Sequence[BitArray]] | "
    "Callable[[int], Optional[Sequence[BitArray]]] | None"
)


def _resolve_shared_dict(
    shared_dicts: "SharedDictResolver", dict_id: int
) -> Tuple[BitArray, ...]:
    """Resolve a shared-dictionary reference or fail loudly."""
    from repro.errors import SharedDictUnresolvedError

    if shared_dicts is None:
        raise SharedDictUnresolvedError(
            dict_id,
            f"container references shared dictionary id {dict_id} but no "
            f"shared_dicts resolver was provided",
        )
    if callable(shared_dicts):
        table = shared_dicts(dict_id)
    else:
        table = shared_dicts.get(dict_id)
    if table is None:
        raise SharedDictUnresolvedError(
            dict_id,
            f"shared dictionary id {dict_id} is unknown to the resolver",
        )
    return tuple(table)


@dataclass
class EncodeStats:
    """Bookkeeping of one vbsgen run."""

    clusters_listed: int = 0
    clusters_raw: int = 0
    pairs_total: int = 0
    orders_tried: int = 0
    offline_decode_work: int = 0
    decode_reuse_hits: int = 0
    fallback_reasons: Dict[Tuple[int, int], str] = field(default_factory=dict)
    codec_counts: Dict[str, int] = field(default_factory=dict)
    #: Codec cost evaluations performed by the sequential family pass
    #: (every ``record_bits`` trial, across every trial layout), and the
    #: evaluations a warm :class:`~repro.vbs.predictor.CodecPredictor`
    #: shortlist avoided.  ``family_trials`` alone measures the
    #: exhaustive pass; their sum is what it would have cost.
    family_trials: int = 0
    family_trials_skipped: int = 0


class VirtualBitstream:
    """An encoded task: Table I payload plus the container prelude."""

    def __init__(
        self,
        layout: VbsLayout,
        records: List[ClusterRecord],
        stats: Optional[EncodeStats] = None,
    ):
        self.layout = layout
        self.records = records
        self.stats = stats or EncodeStats()
        #: Container version this object was parsed from (``from_bits``),
        #: or None for freshly encoded streams (which serialize at
        #: ``wire_version``).
        self.source_version: Optional[int] = None
        for rec in records:
            rec.validate(layout)

    # -- size accounting -------------------------------------------------------

    @property
    def wire_version(self) -> int:
        """The container version ``to_bits()`` emits by default.

        The lowest version able to carry the stream: VERSION 4 when it
        uses the wide tag field or a shared dictionary reference,
        VERSION 3 when it needs an embedded dictionary section or any
        record coded with a tag above ``MAX_V2_TAG``, plain VERSION 2
        otherwise — so containers using only older codec sets stay
        readable by older builds.
        """
        from repro.vbs.codecs import codec_by_name

        if (
            self.layout.shared_dict_id is not None
            or self.layout.tag_bits == WIDE_CODEC_TAG_BITS
        ):
            return 4
        if self.layout.dict_table:
            return 3
        for rec in self.records:
            if codec_by_name(rec.codec_name(self.layout)).tag > MAX_V2_TAG:
                return 3
        return 2

    @property
    def size_bits(self) -> int:
        """Table I payload size — the quantity plotted in Figures 4 and 5.

        The walk threads the raster-order :class:`CodecState` so stateful
        records cost exactly what ``to_bits`` emits, and it includes the
        VERSION 3 dictionary section (the shared table is real payload —
        the compression figures must pay for it).
        """
        from repro.vbs.codecs import codec_by_name

        state = CodecState()
        total = self.layout.header_bits + self.layout.dict_section_bits
        for rec in self.records:
            codec = codec_by_name(rec.codec_name(self.layout))
            total += codec.record_bits(rec, self.layout, state=state)
            state.observe(rec)
        return total

    @property
    def container_bits(self) -> int:
        """Exact bit length of ``to_bits()`` at the default version.

        Fields that carry no payload information are container framing,
        excluded from the Table I ``size_bits`` accounting like the
        prelude: a VERSION 3/4 container's empty-table count field, and
        a VERSION 4 container's all-zero shared-dictionary id.  A
        *non-zero* id is real payload (``layout.dict_section_bits``) —
        it is what buys the container its external table.
        """
        from repro.vbs.format import PRELUDE_BITS

        version = self.wire_version
        extra = 0
        if version >= 4:
            if self.layout.shared_dict_id is None:
                extra += SHARED_DICT_ID_BITS
                if not self.layout.dict_table:
                    extra += DICT_COUNT_BITS
        elif version == 3 and not self.layout.dict_table:
            extra += DICT_COUNT_BITS
        return PRELUDE_BITS + self.size_bits + extra

    def raw_equivalent_bits(self) -> int:
        """Size of the raw bitstream of the same task (the BS of Figure 4)."""
        return RawBitstream.size_for(
            self.layout.params, self.layout.width, self.layout.height
        )

    def compression_ratio(self) -> float:
        """VBS size as a fraction of raw size (paper reports ~0.41 at c=1)."""
        return self.size_bits / self.raw_equivalent_bits()

    def codec_tags(self) -> Dict[str, int]:
        """Record count per codec name (registry introspection)."""
        counts: Dict[str, int] = {}
        for rec in self.records:
            name = rec.codec_name(self.layout)
            counts[name] = counts.get(name, 0) + 1
        return counts

    # -- serialization ------------------------------------------------------------

    def _require_version(self, version: int, needed: int) -> None:
        """Reject a ``to_bits(version=...)`` the stream cannot satisfy."""
        if version not in SUPPORTED_VERSIONS:
            raise VbsError(
                f"cannot write container version {version}; supported: "
                f"{SUPPORTED_VERSIONS}"
            )
        if version == 1:
            lay = self.layout
            for rec in self.records:
                name = rec.codec_name(lay)
                legacy = "raw" if rec.raw else (
                    "compact" if lay.compact_logic else "list"
                )
                if name != legacy:
                    raise VbsError(
                        f"record at {rec.pos} uses codec {name!r}; a "
                        f"VERSION 1 container can only carry the implicit "
                        f"{legacy!r} coding"
                    )
        elif version < needed:
            reason = (
                f"wide codec tags above {MAX_V3_TAG} or a shared "
                f"dictionary reference"
                if needed >= 4
                else f"dictionary section or codec tags above {MAX_V2_TAG}"
            )
            raise VbsError(
                f"stream needs container version {needed} ({reason}); "
                f"cannot write version {version}"
            )

    def to_bits(self, version: Optional[int] = None) -> BitArray:
        """Assemble the container binary (record bodies via the registry).

        ``version`` defaults to :attr:`wire_version` (the minimal version
        able to carry the stream, never 1); pass 1 or 2 explicitly to
        write a legacy container, which fails loudly when the stream uses
        features that version cannot express.  VERSION 1 containers have
        no codec tags, so their byte size is smaller than
        ``container_bits`` (which reports tagged Table I accounting);
        conversely any stream may be *up-converted* by passing a higher
        supported version — e.g. ``version=4`` writes a legacy stream
        with wide tags, costing 2 extra bits per record.
        """
        from repro.vbs.codecs import codec_by_name

        needed = self.wire_version  # one O(records) walk per serialization
        if version is None:
            version = needed
        self._require_version(version, needed)
        lay = self.layout
        tag_bits = tag_bits_for_version(version)
        w = BitWriter()
        w.write(MAGIC, MAGIC_BITS)
        w.write(version, VERSION_BITS)
        w.write(lay.cluster_size, CLUSTER_BITS)
        w.write(lay.params.channel_width, CHANNEL_BITS)
        w.write(lay.params.lut_size, LUT_BITS)
        w.write(1 if lay.compact_logic else 0, COMPACT_BITS)
        w.write(lay.width, DIM_BITS)
        w.write(lay.height, DIM_BITS)

        if version >= 4:
            w.write(lay.shared_dict_id or 0, SHARED_DICT_ID_BITS)
            if lay.shared_dict_id is None:
                # Embedded dictionary section, exactly as VERSION 3; a
                # shared table writes only the id above.
                w.write(len(lay.dict_table), DICT_COUNT_BITS)
                for pattern in lay.dict_table:
                    w.write_bits(pattern)
        elif version == 3:
            w.write(len(lay.dict_table), DICT_COUNT_BITS)
            for pattern in lay.dict_table:
                w.write_bits(pattern)

        w.write(lay.width - 1, lay.dim_bits)
        w.write(lay.height - 1, lay.dim_bits)
        w.write(len(self.records), lay.count_bits)
        state = CodecState()
        for rec in self.records:
            codec = codec_by_name(rec.codec_name(lay))
            w.write(rec.pos[0], lay.pos_bits)
            w.write(rec.pos[1], lay.pos_bits)
            if version >= 2:
                w.write(codec.tag, tag_bits)
            codec.encode_record(w, rec, lay, state=state)
            state.observe(rec)
        return w.finish()

    @classmethod
    def from_bits(
        cls,
        bits: BitArray,
        params: Optional[ArchParams] = None,
        shared_dicts: "SharedDictResolver" = None,
    ) -> "VirtualBitstream":
        """Parse a container binary back into records.

        Reads every supported version: the legacy tag-less VERSION 1
        layout, the tagged VERSION 2 layout, VERSION 3 with its
        dictionary section and stateful-codec record walk, and VERSION 4
        with wide codec tags and the shared-dictionary reference.
        Unknown versions (a future format this build predates) are
        rejected at the version field, before any payload is touched.

        ``shared_dicts`` resolves a VERSION 4 shared-dictionary id to its
        pattern table — a mapping or a callable ``id -> patterns`` (the
        run-time controller passes its task-table store).  A container
        that references a shared table fails loudly when no resolver is
        given or the id is unknown: decoding without the table would
        fabricate logic fields.  A container cut short anywhere raises
        :class:`VbsError`, like any other malformed input.
        """
        try:
            return cls._parse(BitReader(bits), params, shared_dicts)
        except EOFError as exc:
            raise VbsError(f"truncated VBS container: {exc}") from exc

    @classmethod
    def _parse(
        cls,
        r: BitReader,
        params: Optional[ArchParams],
        shared_dicts: "SharedDictResolver",
    ) -> "VirtualBitstream":
        from repro.vbs.codecs import codec_by_name, codec_by_tag

        from repro.vbs.format import read_prelude

        prelude = read_prelude(r)
        version = prelude.version
        if version not in SUPPORTED_VERSIONS:
            raise VbsError(
                f"unsupported VBS container version {version} (this build "
                f"reads versions {SUPPORTED_VERSIONS}) — refusing to parse "
                f"a future format"
            )
        width, height = prelude.width, prelude.height
        if params is None:
            params = ArchParams(channel_width=prelude.channel_width,
                                lut_size=prelude.lut_size)
        elif (
            params.channel_width != prelude.channel_width
            or params.lut_size != prelude.lut_size
        ):
            raise VbsError(
                "architecture parameters do not match the VBS prelude"
            )
        lay = VbsLayout(params, prelude.cluster_size, width, height,
                        compact_logic=prelude.compact_logic)

        if version >= 4:
            shared_id = r.read(SHARED_DICT_ID_BITS)
            if shared_id:
                lay = lay.with_shared_dict(
                    shared_id, _resolve_shared_dict(shared_dicts, shared_id)
                )
            else:
                n_patterns = r.read(DICT_COUNT_BITS)
                patterns = tuple(
                    r.read_bits(lay.logic_bits_per_cluster)
                    for _ in range(n_patterns)
                )
                lay = lay.with_wide_tags()
                if patterns:
                    lay = lay.with_dict_table(patterns)
        elif version == 3:
            n_patterns = r.read(DICT_COUNT_BITS)
            patterns = tuple(
                r.read_bits(lay.logic_bits_per_cluster)
                for _ in range(n_patterns)
            )
            if patterns:
                lay = lay.with_dict_table(patterns)

        if r.read(lay.dim_bits) != width - 1:
            raise VbsError("payload width disagrees with prelude")
        if r.read(lay.dim_bits) != height - 1:
            raise VbsError("payload height disagrees with prelude")
        count = r.read(lay.count_bits)
        records: List[ClusterRecord] = []
        state = CodecState()
        for _ in range(count):
            cx = r.read(lay.pos_bits)
            cy = r.read(lay.pos_bits)
            if version == 1:
                # Tag-less layout: the route-count field doubles as the
                # codec selector (raw sentinel vs. the layout-wide
                # compact flag), so peek it and rewind.
                mark = r.position
                rc = r.read(lay.route_count_bits)
                r.seek(mark)
                name = "raw" if rc == lay.raw_sentinel else (
                    "compact" if lay.compact_logic else "list"
                )
                codec = codec_by_name(name)
            else:
                codec = codec_by_tag(r.read(tag_bits_for_version(version)))
                if version == 2 and codec.tag > MAX_V2_TAG:
                    raise VbsError(
                        f"codec {codec.name!r} (tag {codec.tag}) requires "
                        f"a VERSION 3 container, found VERSION 2"
                    )
                if version == 3 and codec.tag > MAX_V3_TAG:
                    # Unreachable through a well-formed 3-bit field, but
                    # mirrors the VERSION 2 gate for defense in depth.
                    raise VbsError(
                        f"codec {codec.name!r} (tag {codec.tag}) requires "
                        f"a VERSION 4 container, found VERSION 3"
                    )
            rec = codec.decode_record(r, (cx, cy), lay, state=state)
            state.observe(rec)
            records.append(rec)
        vbs = cls(lay, records)
        vbs.source_version = version
        return vbs

    def __repr__(self) -> str:
        return (
            f"VirtualBitstream({self.layout.width}x{self.layout.height} task, "
            f"c={self.layout.cluster_size}, {len(self.records)} clusters, "
            f"{self.size_bits} bits = {self.compression_ratio():.1%} of raw)"
        )


# -- encoding -------------------------------------------------------------------


def _cluster_logic(
    layout: VbsLayout, config: FabricConfig, cx: int, cy: int
) -> BitArray:
    """The c^2 * NLB logic field of one cluster (raster, zeros when absent)."""
    c = layout.cluster_size
    nlb = layout.params.nlb
    out = BitArray(layout.logic_bits_per_cluster)
    for j in range(c):
        for i in range(c):
            x, y = cx * c + i, cy * c + j
            logic = config.logic.get((x, y))
            if logic is not None:
                out.overwrite((j * c + i) * nlb, logic)
    return out


def _cluster_raw_frames(
    layout: VbsLayout, config: FabricConfig, cx: int, cy: int
) -> BitArray:
    """The c^2 * Nraw raw-fallback field (frames in raster order)."""
    c = layout.cluster_size
    nraw = layout.params.nraw
    out = BitArray(layout.raw_bits_per_cluster)
    for j in range(c):
        for i in range(c):
            x, y = cx * c + i, cy * c + j
            if config.region.contains(x, y):
                out.overwrite((j * c + i) * nraw, config.macro_frame(x, y))
    return out


@dataclass(frozen=True)
class ClusterWorkItem:
    """One picklable encode-pipeline work item (a non-empty cluster).

    Everything a worker needs that is *specific to this cluster*: the
    shared per-run inputs (layout, codec selection, order-search knobs)
    travel once per worker in an :class:`EncodeContext`.  Raw frames are
    deliberately absent — workers never see the full ``FabricConfig``;
    the merge step materializes frames in the parent for outcomes that
    need them, so process workers ship kilobytes, not the whole design.
    """

    pos: Tuple[int, int]
    pairs: Tuple[Pair, ...]
    logic: BitArray
    valid_members: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class EncodeContext:
    """Per-run shared inputs of the encode pipeline (picklable).

    Sent once per worker process (pool initializer) instead of once per
    item; the serial driver passes it by reference.  Codecs travel
    by *name* — registry objects are process-local.
    """

    layout: VbsLayout
    #: The caller's ``codecs`` selection verbatim (``"auto"``, a name
    #: tuple, or None) — resolved against the registry worker-side.
    codec_names: "str | Tuple[str, ...] | None"
    max_orders: int
    order_seed: int
    #: Persisted-memo warm start for process workers: each worker loads
    #: this :meth:`DecodeMemo.save` file into its private memo at pool
    #: init (memos do not cross process boundaries, but a file does).
    #: ``None`` keeps the historical cold per-worker memo.
    memo_path: Optional[str] = None
    #: Merge-on-exit scratch directory: when set, each process worker
    #: dumps the memo entries it discovered beyond its warm start into
    #: ``merge_dir/worker-<run_id>-<pid>.pkl`` at interpreter exit, and
    #: the parent folds the per-worker deltas into the shared memo after
    #: the pool shuts down.  ``None`` (serial runs, or no
    #: ``memo_path``) disables the dump.
    merge_dir: Optional[str] = None
    #: Identity of this pool run, stamped into delta file names and
    #: payloads.  The parent merges only deltas carrying its own stamp,
    #: so stale files left in a scratch directory by a crashed or killed
    #: run are never folded into a later run's memo.
    run_id: Optional[str] = None


@dataclass
class _ClusterOutcome:
    """One pipeline work item's result, merged into EncodeStats in order.

    ``record`` is None when the cluster must be raw-coded — the parent
    owns the configuration and materializes the frames during the merge
    (workers cannot, and raw frames would bloat process-pool results).
    """

    pos: Tuple[int, int]
    record: Optional[ClusterRecord]
    pairs_total: int = 0
    orders_tried: int = 0
    offline_decode_work: int = 0
    reuse_hits: int = 0
    fallback_reason: Optional[str] = None
    #: Raw frames requested for the sequential family pass: set when the
    #: codec selection contains container-level codecs (dictionary /
    #: stateful), so the provisional record may still lose to the
    #: guaranteed raw coding once the family costs are known.  The parent
    #: fills the frames in during the raster-order merge.
    needs_raw_frames: bool = False


def _encode_cluster(
    item: ClusterWorkItem,
    ctx: EncodeContext,
    memo: Optional[DecodeMemo],
) -> _ClusterOutcome:
    """Encode one cluster work item (order search + codec selection).

    Pure with respect to the run: identical items and context produce
    identical outcomes regardless of which driver executes them, which
    is what makes the emitted container byte-identical across the
    serial and process-pool drivers.
    """
    from repro.vbs.codecs import pick_codec, resolve_codecs
    from repro.vbs.order import candidate_orders

    layout = ctx.layout
    allowed = resolve_codecs(ctx.codec_names)
    model = get_cluster_model(layout.params, layout.cluster_size)
    cx, cy = item.pos
    pairs = list(item.pairs)
    outcome = _ClusterOutcome(
        pos=item.pos, record=None, pairs_total=len(pairs)
    )

    record: Optional[ClusterRecord] = None
    if len(pairs) <= layout.max_routes:
        valid = set(item.valid_members)
        for order in candidate_orders(
            pairs, model, max_orders=ctx.max_orders, seed=ctx.order_seed
        ):
            outcome.orders_tried += 1
            try:
                if memo is not None:
                    result, reused = memo.decode(model, order, valid)
                else:
                    from repro.vbs.devirt import ClusterDecoder

                    result = ClusterDecoder(
                        model, valid_macros=valid
                    ).decode(list(order))
                    reused = False
            except DevirtualizationError:
                continue
            if reused:
                outcome.reuse_hits += 1
            else:
                outcome.offline_decode_work += result.work
            record = ClusterRecord(
                (cx, cy),
                raw=False,
                logic=item.logic,
                pairs=list(order),
                orders_tried=outcome.orders_tried,
            )
            break
        else:
            outcome.fallback_reason = "no decodable order"
    else:
        outcome.fallback_reason = (
            f"{len(pairs)} routes exceed the count field"
        )

    if record is not None and allowed is not None:
        stateless = [
            c for c in allowed
            if not c.codes_raw and not c.container_scoped
        ]
        # Container-scoped codecs — including raw-coding ones like
        # ``raw-delta`` — are the sequential family pass's business; here
        # they only decide whether the frames must be held back.
        family = [c for c in allowed if c.container_scoped]
        if stateless:
            best = pick_codec(record, layout, stateless)
            record.codec = best.name
            # Raw competes on size too, but its record size is a layout
            # constant — only materialize the frames when it wins.
            if (
                any(c.codes_raw for c in allowed)
                and layout.raw_record_bits < record.size_bits(layout)
            ):
                if family:
                    # A family codec may still undercut raw (a delta
                    # residue on a dense-but-repetitive cluster, a
                    # dictionary reference) — keep the smart record
                    # and let the sequential pass settle raw-vs-rest
                    # with the frames held back.
                    outcome.needs_raw_frames = True
                else:
                    record = None
        elif family:
            # Only container-level codecs selected: keep the record
            # provisional (codec unassigned) and hold the raw frames
            # back for the sequential family pass, which owns the
            # raw-versus-family decision.
            outcome.needs_raw_frames = True
        else:
            record = None  # raw-only selection: code every cluster raw
    outcome.record = record
    return outcome


# -- process-pool worker plumbing -----------------------------------------------
#
# ``fork``-safe and ``spawn``-safe: the context is shipped through the
# pool initializer exactly once per worker, and each worker keeps its own
# DecodeMemo for the lifetime of the pool (cross-item reuse without
# cross-process coordination; determinism is unaffected — the router is
# deterministic, the memo only skips replays).

_WORKER_CTX: Optional[EncodeContext] = None
_WORKER_MEMO: Optional[DecodeMemo] = None


def _process_worker_init(ctx: EncodeContext) -> None:
    global _WORKER_CTX, _WORKER_MEMO
    _WORKER_CTX = ctx
    _WORKER_MEMO = DecodeMemo()
    if ctx.memo_path is not None:
        # Warm start from the persisted memo (tolerant load: a corrupt
        # or missing file just leaves the worker memo cold).
        _WORKER_MEMO.load(ctx.memo_path)
    if ctx.merge_dir is not None:
        # Merge-on-exit: dump everything discovered beyond the warm
        # start into a per-worker delta file when the worker exits.
        # Pool workers leave through ``os._exit`` (multiprocessing's
        # ``_bootstrap``), which skips ``atexit`` — the hook that does
        # run there is ``multiprocessing.util``'s finalizer registry,
        # on both fork and spawn.  The parent folds the deltas into the
        # persisted memo after the pool shuts down.
        import os as _os
        from multiprocessing import util as _mp_util
        from pathlib import Path as _Path

        memo = _WORKER_MEMO
        baseline = memo.snapshot_keys()
        tag = f"{ctx.run_id}-" if ctx.run_id is not None else ""
        delta_path = _Path(ctx.merge_dir) / f"worker-{tag}{_os.getpid()}.pkl"
        _mp_util.Finalize(
            None, memo.dump_delta,
            args=(delta_path, baseline, ctx.run_id),
            exitpriority=0,
        )


def _merge_worker_deltas(
    memo: DecodeMemo, merge_dir: str, run_id: Optional[str]
) -> int:
    """Fold this run's per-worker delta files into ``memo``; returns count.

    Every ``worker-*.pkl`` in the scratch directory is considered (sorted
    for determinism; overlapping keys carry identical deterministic
    results, first file wins), but only deltas whose payload carries this
    run's ``run_id`` stamp restore anything — a stale delta left behind
    by a crashed or killed pool run, which shares the name pattern but
    not the stamp, is ignored rather than folded into a foreign memo.
    """
    from pathlib import Path

    merged = 0
    for delta in sorted(Path(merge_dir).glob("worker-*.pkl")):
        merged += memo.load(delta, run_id=run_id)
    return merged


#: Work-item chunks handed to each process worker are sized so every
#: worker sees about this many chunks: small enough to balance uneven
#: cluster costs across the pool, large enough to amortize the per-chunk
#: pickle/submission overhead (chunksize 1 paid it per cluster).
PROCESS_CHUNKS_PER_WORKER = 4


def _chunk_work_items(
    items: Sequence[ClusterWorkItem], workers: int
) -> List[Tuple[ClusterWorkItem, ...]]:
    """Contiguous raster-order chunks for the process pool.

    One executor submission per chunk instead of one per cluster; the
    flattened chunk sequence is exactly ``items``, so the merge stays
    deterministic.
    """
    if not items:
        return []
    chunksize = max(
        1, -(-len(items) // (workers * PROCESS_CHUNKS_PER_WORKER))
    )
    return [
        tuple(items[i:i + chunksize])
        for i in range(0, len(items), chunksize)
    ]


def _process_encode_chunk(
    chunk: Tuple[ClusterWorkItem, ...],
) -> List[_ClusterOutcome]:
    assert _WORKER_CTX is not None, "pool initializer did not run"
    return [_encode_cluster(item, _WORKER_CTX, _WORKER_MEMO) for item in chunk]


def _dict_table_candidates(
    per_container: "List[Tuple[List[ClusterRecord], VbsLayout]]",
    trial_for,
    min_occurrences: int = 2,
) -> Tuple[Tuple[BitArray, ...], int]:
    """Iterative keep-if-it-pays pattern selection — the shared core of
    the embedded (per-container) and external (task-scope) dictionary
    builders.

    Patterns are collected from smart records in first-use raster order
    across every container and kept only while their summed per-record
    savings (current coding vs. a dictionary reference, both costed
    under ``trial_for(layout, table)``) exceed the pattern's own
    storage.  Dropping a pattern shrinks the reference field, so the
    selection is re-evaluated until stable.  Returns the stable table
    and its estimated net gain; the callers validate against the fully
    state-threaded selection and keep the table only when the container
    (or the whole task) actually gets smaller.
    """
    from repro.vbs.codecs import codec_by_name

    dict_codec = codec_by_name("dict")
    occurrences: Dict[BitArray, List[Tuple[int, ClusterRecord]]] = {}
    order: List[BitArray] = []
    for idx, (records, _layout) in enumerate(per_container):
        for rec in records:
            if rec.raw:
                continue
            if rec.logic not in occurrences:
                occurrences[rec.logic] = []
                order.append(rec.logic)
            occurrences[rec.logic].append((idx, rec))
    candidates = [p for p in order if len(occurrences[p]) >= min_occurrences]
    max_patterns = (1 << DICT_COUNT_BITS) - 1
    if len(candidates) > max_patterns:
        candidates = sorted(
            candidates, key=lambda p: -len(occurrences[p])
        )[:max_patterns]
        candidates.sort(key=order.index)
    while candidates:
        trials = [
            trial_for(layout, tuple(candidates))
            for _records, layout in per_container
        ]
        keep: List[BitArray] = []
        total_gain = 0
        for pattern in candidates:
            gain = -len(pattern)  # the pattern's own table storage
            for idx, rec in occurrences[pattern]:
                current = rec.size_bits(trials[idx])
                as_dict = dict_codec.record_bits(rec, trials[idx])
                if as_dict < current:
                    gain += current - as_dict
            if gain > 0:
                keep.append(pattern)
                total_gain += gain
        if len(keep) == len(candidates):
            return tuple(keep), total_gain
        candidates = keep
    return (), 0


def _build_dict_table(
    records: List[ClusterRecord],
    layout: VbsLayout,
    min_occurrences: int = 2,
) -> Tuple[BitArray, ...]:
    """Candidate embedded logic-pattern table for one container.

    On top of the shared selection core, the final table must also beat
    the ``DICT_COUNT_BITS`` section framing or it is dropped entirely.
    """
    table, total_gain = _dict_table_candidates(
        [(records, layout)],
        lambda lay, patterns: lay.with_dict_table(patterns),
        min_occurrences,
    )
    if not table or total_gain <= DICT_COUNT_BITS:
        return ()
    return table


def _family_selection(
    records: List[ClusterRecord],
    layout: VbsLayout,
    family: List["object"],
    raw_allowed: bool,
    raw_frames: Dict[Tuple[int, int], BitArray],
    predictor: "Optional[object]" = None,
    stats: Optional[EncodeStats] = None,
) -> Tuple[int, List[str]]:
    """Sequential (raster-order) codec assignment over the whole container.

    For every smart record the candidates are its current per-cluster
    pick (absent for provisional records; skipped when the trial layout
    cannot carry it), every applicable family codec costed against the
    threaded :class:`CodecState` — each codec at most once, even when
    the current pick is also in the family list — and, for records whose
    frames were held back, the guaranteed raw coding.  Raw records
    compete too: raw-coding family codecs (``raw-delta``) may re-code
    them against the raw-side state.  Returns the total payload bits
    (header + dictionary section + records) and the chosen codec name
    per record; nothing is mutated, so the caller can compare selections
    under different layouts.

    ``predictor`` (a :class:`~repro.vbs.predictor.CodecPredictor`)
    shortlists the costed candidates per record from its recorded
    feature→winner cells instead of trialling the whole family, with the
    verify-and-fallback contract documented in ``repro.vbs.predictor``;
    the record's current pick and the raw fallback always stay costed,
    so the monotone guarantees survive any store content.  ``stats``
    accumulates the trial counters either way.
    """
    from repro.vbs.codecs import codec_by_name

    if predictor is not None:
        from repro.vbs.predictor import cluster_key, pool_entropy_bucket

        pool = pool_entropy_bucket(records)
    raw_codec = codec_by_name("raw")
    state = CodecState()
    total = layout.header_bits + layout.dict_section_bits
    assigns: List[str] = []
    for rec in records:
        frames = raw_frames.get(rec.pos)
        if rec.raw:
            raw_rec: Optional[ClusterRecord] = rec
        elif frames is not None:
            raw_rec = ClusterRecord(
                rec.pos, raw=True, raw_frames=frames, codec="raw"
            )
        else:
            raw_rec = None
        # The applicable set: (codec, record-to-cost) pairs, each codec
        # at most once.
        applicable: List[Tuple["object", ClusterRecord]] = []
        seen = set()
        if rec.raw:
            applicable.append((raw_codec, rec))
            seen.add(raw_codec.name)
            for codec in family:
                if (
                    codec.name not in seen
                    and codec.codes_raw
                    and codec.encodable(rec, layout)
                ):
                    applicable.append((codec, rec))
                    seen.add(codec.name)
        else:
            if rec.codec is not None:
                current = codec_by_name(rec.codec)
                # A trial layout can invalidate the per-cluster pick
                # (e.g. a dictionary pick under a table the trial
                # dropped) — never cost a codec that cannot encode.
                if current.encodable(rec, layout):
                    applicable.append((current, rec))
                    seen.add(current.name)
            for codec in family:
                if codec.name in seen:
                    # Dedupe: the current pick may itself be in the
                    # family list; costing it twice would double-count
                    # nothing today but breaks the trial accounting.
                    continue
                if codec.codes_raw:
                    if (
                        raw_rec is not None
                        and raw_allowed
                        and codec.encodable(raw_rec, layout)
                    ):
                        applicable.append((codec, raw_rec))
                        seen.add(codec.name)
                elif codec.encodable(rec, layout):
                    applicable.append((codec, rec))
                    seen.add(codec.name)
            if raw_rec is not None and raw_codec.name not in seen and (
                raw_allowed or not applicable
            ):
                applicable.append((raw_codec, raw_rec))
        if not applicable:
            raise VbsError(
                f"no selected codec can encode the record at {rec.pos}"
            )

        costs: Dict[str, int] = {}

        def bits_of(entry) -> int:
            codec, target = entry
            if codec.name not in costs:
                costs[codec.name] = codec.record_bits(
                    target, layout, state=state
                )
                if stats is not None:
                    stats.family_trials += 1
            return costs[codec.name]

        def best_of(entries):
            return min(entries, key=lambda e: (bits_of(e), e[0].tag))

        if predictor is None or len(applicable) == 1:
            chosen, target = best_of(applicable)
        else:
            key = cluster_key(
                rec, layout, pool, has_frames=raw_rec is not None
            )
            ranked = predictor.shortlist(key)
            if ranked is None:
                # Cold key: the full trial runs and teaches the store.
                predictor.misses += 1
                chosen, target = best_of(applicable)
            else:
                keep = set(ranked)
                keep.add(raw_codec.name)
                if rec.codec is not None:
                    keep.add(rec.codec)
                short = [e for e in applicable if e[0].name in keep]
                chosen, target = best_of(short)
                fallback = False
                if len(short) < len(applicable):
                    predicted = next(
                        (e for e in short if e[0].name == ranked[0]), None
                    )
                    others = [e for e in short if e is not predicted]
                    if predicted is None:
                        fallback = True
                    elif others:
                        upset = bits_of(predicted) - min(
                            bits_of(e) for e in others
                        )
                        fallback = upset > predictor.margin_bits
                if fallback:
                    # The store's pick lost the shortlist by more than
                    # the margin: distrust the cell, re-run everything.
                    predictor.fallbacks += 1
                    chosen, target = best_of(applicable)
                else:
                    predictor.hits += 1
                    if stats is not None:
                        stats.family_trials_skipped += (
                            len(applicable) - len(short)
                        )
            predictor.record(key, chosen.name)

        total += bits_of((chosen, target))
        assigns.append(chosen.name)
        # Advance the state exactly as the decoder will see this record:
        # smart records extend the logic-side references, records that
        # are (or become) raw extend the raw-side reference.
        state.observe(target if chosen.codes_raw else rec)
    return total, assigns


def _apply_family_assignment(
    records: List[ClusterRecord],
    assigns: List[str],
    raw_frames: Dict[Tuple[int, int], BitArray],
) -> List[ClusterRecord]:
    from repro.vbs.codecs import codec_by_name

    out: List[ClusterRecord] = []
    for rec, name in zip(records, assigns):
        if rec.raw:
            # Raw stays raw; a raw-coding family codec (raw-delta) may
            # re-code it.  Never mutate in place — the caller reuses the
            # merged records across trial plans.
            if rec.codec != name:
                rec = ClusterRecord(
                    rec.pos, raw=True, raw_frames=rec.raw_frames,
                    codec=name,
                )
        elif codec_by_name(name).codes_raw:
            # Demoted to the raw side under whichever raw coding won.
            rec = ClusterRecord(
                rec.pos, raw=True, raw_frames=raw_frames[rec.pos],
                codec=name,
            )
        else:
            rec.codec = name
        out.append(rec)
    return out


def _family_choice(
    records: List[ClusterRecord],
    layout: VbsLayout,
    family: List["object"],
    raw_allowed: bool,
    raw_frames: Dict[Tuple[int, int], BitArray],
    predictor: "Optional[object]" = None,
    stats: Optional[EncodeStats] = None,
) -> Tuple[int, List[str], VbsLayout]:
    """Best (total, assigns, layout) under one tag-width regime.

    Runs the container-level selection without a dictionary table, and —
    when a dictionary codec is usable — again with the candidate table;
    keeps the table only when the full container (section included) gets
    strictly smaller.  Codecs whose tag does not fit the regime's tag
    field are excluded.  Nothing is mutated.
    """
    usable = [
        c for c in family
        if not (c.wide_tag and layout.tag_bits == CODEC_TAG_BITS)
    ]
    best_total, best_assigns = _family_selection(
        records, layout, usable, raw_allowed, raw_frames,
        predictor=predictor, stats=stats,
    )
    best_layout = layout
    if any(c.needs_dict for c in usable):
        table = _build_dict_table(records, layout)
        if table:
            trial = layout.with_dict_table(table)
            total, assigns = _family_selection(
                records, trial, usable, raw_allowed, raw_frames,
                predictor=predictor, stats=stats,
            )
            if total < best_total:
                best_total, best_assigns, best_layout = total, assigns, trial
    return best_total, best_assigns, best_layout


def _family_pass_choice(
    records: List[ClusterRecord],
    layout: VbsLayout,
    allowed: "Optional[List[object]]",
    raw_frames: Dict[Tuple[int, int], BitArray],
    predictor: "Optional[object]" = None,
    stats: Optional[EncodeStats] = None,
) -> Optional[Tuple[int, List[str], VbsLayout]]:
    """The family pass as a pure decision: (total, assigns, layout).

    Evaluates the container-level selection under the narrow (VERSION 3)
    tag regime and — when a wide-tag codec is in the selection — again
    under the VERSION 4 wide regime, where every record's framing costs
    ``WIDE_CODEC_TAG_BITS - CODEC_TAG_BITS`` extra bits but the new
    codecs compete.  The wide regime is kept only when the whole
    container gets strictly smaller, so the family never emits a larger
    stream than the per-cluster pick alone and never upgrades the
    container version without paying for it.  Returns None when the
    selection has no container-scoped codec (nothing to decide).
    """
    if allowed is None:
        return None
    family = [c for c in allowed if c.container_scoped]
    if not family:
        return None
    raw_allowed = any(c.codes_raw for c in allowed)
    best_total, best_assigns, best_layout = _family_choice(
        records, layout, family, raw_allowed, raw_frames,
        predictor=predictor, stats=stats,
    )
    if (
        layout.tag_bits == CODEC_TAG_BITS
        and any(c.wide_tag for c in family)
    ):
        wide_total, wide_assigns, wide_layout = _family_choice(
            records, layout.with_wide_tags(), family, raw_allowed,
            raw_frames, predictor=predictor, stats=stats,
        )
        if wide_total < best_total:
            best_total, best_assigns, best_layout = (
                wide_total, wide_assigns, wide_layout
            )
    return best_total, best_assigns, best_layout


def _family_pass(
    records: List[ClusterRecord],
    layout: VbsLayout,
    allowed: List["object"],
    raw_frames: Dict[Tuple[int, int], BitArray],
    predictor: "Optional[object]" = None,
    stats: Optional[EncodeStats] = None,
) -> Tuple[VbsLayout, List[ClusterRecord]]:
    """The sequential second pass of the two-pass family encode."""
    choice = _family_pass_choice(
        records, layout, allowed, raw_frames,
        predictor=predictor, stats=stats,
    )
    if choice is None:
        return layout, records
    _total, assigns, best_layout = choice
    return best_layout, _apply_family_assignment(
        records, assigns, raw_frames
    )


def encode_design(
    design: PackedDesign,
    placement: Placement,
    routing: RoutingResult,
    rrg: RoutingGraph,
    config: FabricConfig,
    cluster_size: int = 1,
    max_orders: int = 12,
    order_seed: int = 0,
    compact_logic: bool = False,
    codecs: "str | Sequence[str] | None" = None,
    workers: Optional[int] = None,
    memo: Optional[DecodeMemo] = None,
    memo_path: "str | None" = None,
    predictor: "Optional[object]" = None,
) -> VirtualBitstream:
    """Run vbsgen over a routed design at the given coding granularity.

    ``compact_logic`` enables the future-work coding of Section V (logic
    data only for macros that carry any); the default is the strict
    Table I layout used in the paper's figures.

    ``codecs`` opts into the cost-driven codec picker: ``"auto"`` lets it
    choose the smallest registered coding per cluster, an explicit name
    sequence restricts the choice.  The raw coding is always available as
    the guaranteed fallback — a cluster with no decodable order is coded
    raw even when ``"raw"`` is not in the selection (Section III-B's
    correctness guarantee), and a raw-only selection codes every cluster
    raw.  ``workers`` > 1 ships picklable :class:`ClusterWorkItem`\\ s
    to a ``ProcessPoolExecutor`` — real parallelism for the
    router-heavy order search; anything else runs serially.  Records
    come back in raster order and the emitted container is
    byte-identical to a serial run.  Process workers keep a private
    per-process memo; the caller-supplied ``memo`` is not consulted for
    work items on that path (live memos do not cross process
    boundaries), though with ``memo_path`` set the worker deltas are
    folded back into it after the pool exits.

    ``memo`` shares a :class:`DecodeMemo` *across* encode invocations —
    a cluster-size or codec sweep over the same design replays identical
    (order, mask) decodes from the first run instead of re-routing.
    Ignored as a work-item cache under ``workers`` > 1 (memos do not
    cross process boundaries); pass it for serial sweeps.

    Container-level codecs (the dictionary codec's shared pattern table,
    the stateful delta codecs, the wide-tag VERSION 4 codings) are
    assigned by a *sequential second pass* over the merged raster-order
    records — they cannot be chosen inside the parallel pipeline because
    their cost depends on the whole container.  The pass only ever
    switches a record to a strictly smaller coding, only keeps a
    dictionary table that pays for its own section, and only adopts the
    VERSION 4 wide tag field when the container shrinks despite the +2
    framing bits per record — so ``codecs="auto"`` output is monotone:
    never larger than the stateless codec set alone, and still
    byte-identical across worker counts.  Containers serialize at the
    lowest version able to carry them (2, 3 or 4).

    ``memo_path`` persists the memo across *processes* the way ``memo``
    shares it across invocations: the run warm-starts from the file
    (tolerantly — a missing or corrupt file restores nothing) and saves
    the extended memo back when done.  Process workers mirror the warm
    start into their private per-worker memos through the pool
    initializer and dump what they discovered beyond it into per-worker
    delta files at exit; the parent folds the deltas into the shared
    memo after the pool shuts down, so pool discoveries warm subsequent
    runs exactly like serial ones.  Never changes the emitted
    bytes — the memo only skips deterministic router replays.

    ``predictor`` shares a :class:`~repro.vbs.predictor.CodecPredictor`
    across invocations the way ``memo`` shares decode work: the family
    pass shortlists its per-record codec trials from the store's
    recorded winners (full trial on cold keys, verify-and-fallback on
    warm ones) and files every settled winner back.  A warm store cuts
    the trial count — tracked in ``stats.family_trials`` /
    ``family_trials_skipped`` — and replaying a corpus the store was
    warmed on emits byte-identical containers to the exhaustive pass.
    Consultation is frozen at entry (``begin_session``): wins recorded
    during this encode teach the next one, so a cold store *is* the
    exhaustive pass, bit for bit.
    """
    if predictor is not None:
        predictor.begin_session()
    if memo is None:
        memo = DecodeMemo()
    if memo_path is not None:
        # On the pooled process path the parent memo is not consulted
        # for work items (workers warm-start themselves through the pool
        # initializer), but the parent still loads the file so the
        # post-pool save preserves its entries alongside the merged
        # worker deltas.
        memo.load(memo_path)
    pipeline = _encode_pipeline(
        design, placement, routing, rrg, config,
        cluster_size=cluster_size,
        max_orders=max_orders,
        order_seed=order_seed,
        compact_logic=compact_logic,
        codecs=codecs,
        workers=workers,
        memo=memo,
        memo_path=memo_path,
    )
    layout, records = pipeline.layout, pipeline.records
    if pipeline.allowed is not None:
        layout, records = _family_pass(
            records, layout, pipeline.allowed, pipeline.raw_frames,
            predictor=predictor, stats=pipeline.stats,
        )
    if memo_path is not None:
        memo.save(memo_path)
    return _finalize_container(layout, records, pipeline.stats)


@dataclass
class _PipelineResult:
    """The merged, pre-family state of one container's encode pipeline.

    ``records`` carry their per-cluster stateless picks; ``raw_frames``
    holds the frames the parallel pass held back for the sequential
    family selection.  ``allowed`` is the resolved codec selection
    (None = paper-strict legacy behavior, no family pass).
    """

    layout: VbsLayout
    records: List[ClusterRecord]
    stats: EncodeStats
    raw_frames: Dict[Tuple[int, int], BitArray]
    allowed: "Optional[List[object]]"


def _finalize_container(
    layout: VbsLayout,
    records: List[ClusterRecord],
    stats: EncodeStats,
) -> VirtualBitstream:
    """Count the final codec mix and assemble the container object."""
    from repro.vbs.codecs import codec_by_name

    for rec in records:
        if rec.raw:
            stats.clusters_raw += 1
        name = rec.codec_name(layout)
        stats.codec_counts[name] = stats.codec_counts.get(name, 0) + 1
        # Fail fast on a codec that cannot carry its record.
        codec_by_name(name)
    return VirtualBitstream(layout, records, stats)


def _encode_pipeline(
    design: PackedDesign,
    placement: Placement,
    routing: RoutingResult,
    rrg: RoutingGraph,
    config: FabricConfig,
    *,
    cluster_size: int,
    max_orders: int,
    order_seed: int,
    compact_logic: bool,
    codecs: "str | Sequence[str] | None",
    workers: Optional[int],
    memo: Optional[DecodeMemo],
    memo_path: "str | None" = None,
) -> _PipelineResult:
    """Everything before the sequential family pass: work-item
    construction, the (possibly pooled) per-cluster encode, and the
    deterministic raster-order merge."""
    from repro.vbs.codecs import resolve_codecs

    fabric = placement.fabric
    params = fabric.params
    layout = VbsLayout(params, cluster_size, fabric.width, fabric.height,
                       compact_logic=compact_logic)
    components = extract_components(design, placement, routing, rrg, layout)
    if codecs is None or isinstance(codecs, str):
        codec_selection: "str | Tuple[str, ...] | None" = codecs
    else:
        codec_selection = tuple(codecs)
    allowed = resolve_codecs(codec_selection)
    ctx = EncodeContext(
        layout=layout,
        codec_names=codec_selection,
        max_orders=max_orders,
        order_seed=order_seed,
        memo_path=str(memo_path) if memo_path is not None else None,
    )
    if memo is None:
        memo = DecodeMemo()

    # Work-item construction is serial and cheap (bit extraction); the
    # expensive order-search/router replay is what the pool runs.
    cgw, cgh = layout.cluster_grid
    items: List[ClusterWorkItem] = []
    for cy in range(cgh):
        for cx in range(cgw):
            comps = components.get((cx, cy), [])
            logic = _cluster_logic(layout, config, cx, cy)
            if not comps and logic.count() == 0:
                continue  # empty cluster: omitted from the macro list
            items.append(ClusterWorkItem(
                pos=(cx, cy),
                pairs=tuple(p for comp in comps for p in comp.pairs()),
                logic=logic,
                valid_members=tuple(layout.valid_members(cx, cy)),
            ))

    if workers is not None and workers > 1:
        import shutil
        import tempfile
        from concurrent.futures import ProcessPoolExecutor
        from dataclasses import replace as _dc_replace
        from pathlib import Path as _Path

        merge_dir: Optional[str] = None
        run_id: Optional[str] = None
        if ctx.memo_path is not None:
            # Stage per-worker delta files next to the persisted memo so
            # the atomic renames stay on one filesystem.
            merge_dir = tempfile.mkdtemp(
                prefix="memo-merge-", dir=str(_Path(ctx.memo_path).parent)
            )
            run_id = uuid.uuid4().hex
            ctx = _dc_replace(ctx, merge_dir=merge_dir, run_id=run_id)
        chunks = _chunk_work_items(items, workers)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_process_worker_init,
                initargs=(ctx,),
            ) as pool:
                outcomes = [
                    outcome
                    for batch in pool.map(_process_encode_chunk, chunks)
                    for outcome in batch
                ]
            if merge_dir is not None:
                _merge_worker_deltas(memo, merge_dir, run_id)
        finally:
            if merge_dir is not None:
                shutil.rmtree(merge_dir, ignore_errors=True)
    else:
        outcomes = [_encode_cluster(item, ctx, memo) for item in items]

    # Deterministic merge in raster order; raw frames are materialized
    # here (the parent owns the configuration) for outcomes that fell
    # back to raw coding or held frames back for the family pass.
    stats = EncodeStats()
    records: List[ClusterRecord] = []
    raw_frames: Dict[Tuple[int, int], BitArray] = {}
    for outcome in outcomes:
        cx, cy = outcome.pos
        rec = outcome.record
        if rec is None:
            rec = ClusterRecord(
                (cx, cy),
                raw=True,
                raw_frames=_cluster_raw_frames(layout, config, cx, cy),
                codec="raw",
            )
        stats.clusters_listed += 1
        stats.pairs_total += outcome.pairs_total
        stats.orders_tried += outcome.orders_tried
        stats.offline_decode_work += outcome.offline_decode_work
        stats.decode_reuse_hits += outcome.reuse_hits
        if outcome.fallback_reason is not None:
            stats.fallback_reasons[rec.pos] = outcome.fallback_reason
        if outcome.needs_raw_frames:
            raw_frames[rec.pos] = _cluster_raw_frames(layout, config, cx, cy)
        records.append(rec)

    return _PipelineResult(layout, records, stats, raw_frames, allowed)


def encode_flow(
    flow: FlowResult,
    config: FabricConfig,
    cluster_size: int = 1,
    **kwargs,
) -> VirtualBitstream:
    """Convenience wrapper over :func:`encode_design` for a FlowResult."""
    return encode_design(
        flow.design,
        flow.placement,
        flow.routing,
        flow.rrg,
        config,
        cluster_size=cluster_size,
        **kwargs,
    )


# -- task-scope encoding (shared dictionary across containers) -------------------


@dataclass
class TaskEncodeResult:
    """The containers of one multi-container task and their shared table.

    ``table`` is empty when task-scope sharing did not pay — the
    containers are then exactly the independent :func:`encode_design`
    outputs and reference no external dictionary.  ``solo_bits`` and
    ``shared_bits`` record both sides of the keep-if-it-pays decision in
    Table I accounting (the shared side includes the external table's
    storage once, since external memory holds it once per task).
    """

    containers: List[VirtualBitstream]
    dict_id: int
    table: Tuple[BitArray, ...]
    solo_bits: int
    shared_bits: int

    @property
    def shared(self) -> bool:
        """True when the containers reference the external table."""
        return bool(self.table)

    @property
    def table_bits(self) -> int:
        """External storage of the shared table (0 when not kept)."""
        return sum(len(pattern) for pattern in self.table)


def _build_shared_dict_table(
    per_container: List[Tuple[List[ClusterRecord], VbsLayout]],
    dict_id: int,
    min_occurrences: int = 2,
) -> Tuple[BitArray, ...]:
    """Candidate task-scope pattern table: the shared selection core with
    occurrences counted *across* every container of the task, costs
    evaluated under the shared trial layouts (wide tags, id reference),
    and each pattern's external storage paid once.  The caller validates
    the final table against the full state-threaded selection and keeps
    it only when the whole task shrinks.
    """
    table, _total_gain = _dict_table_candidates(
        per_container,
        lambda lay, patterns: lay.with_shared_dict(dict_id, patterns),
        min_occurrences,
    )
    return table


def encode_task(
    jobs: "Sequence[Tuple[FlowResult, FabricConfig]]",
    dict_id: int,
    cluster_size: int = 1,
    max_orders: int = 12,
    order_seed: int = 0,
    compact_logic: bool = False,
    codecs: "str | Sequence[str] | None" = "auto",
    workers: Optional[int] = None,
    memo: Optional[DecodeMemo] = None,
    memo_path: "str | None" = None,
    predictor: "Optional[object]" = None,
) -> TaskEncodeResult:
    """Encode several routed designs as *one task* sharing a dictionary.

    The run-time manager's multi-task workloads load several containers
    of the same task (replicated instances, multi-region partitions); a
    pattern that repeats across those containers is stored once in
    external memory under ``dict_id`` instead of once per container.
    The encoder's keep-if-it-pays logic runs at task scope: every
    container is first encoded independently (the solo baseline, byte
    for byte what :func:`encode_design` would emit), then the
    whole-task selection is re-evaluated with a shared candidate table —
    and kept only when the summed container payloads *plus the external
    table storage* get strictly smaller than the solo sum.  Containers
    that adopt the table serialize as VERSION 4 with a non-zero
    shared-dictionary id and must be decoded with a resolver that knows
    ``dict_id`` (``VirtualBitstream.from_bits(..., shared_dicts=...)``;
    the run-time controller wires its task-table store in
    automatically).

    All jobs must share architecture parameters, cluster size and the
    compact-logic flag — a pattern table only makes sense over one
    coding geometry.  The result is byte-identical serial or pooled
    (``workers`` > 1): the task-scope selection runs after the
    deterministic raster-order merges.  ``memo``/``memo_path``
    behave exactly as in :func:`encode_design` (cross-invocation and
    persisted warm starts; bytes never change).
    """
    if not jobs:
        raise VbsError("encode_task needs at least one (flow, config) job")
    if predictor is not None:
        predictor.begin_session()
    if not (1 <= dict_id < (1 << SHARED_DICT_ID_BITS)):
        raise VbsError(
            f"shared dictionary id {dict_id} outside "
            f"[1, {1 << SHARED_DICT_ID_BITS})"
        )
    if memo is None:
        memo = DecodeMemo()
    if memo_path is not None:
        # Same contract as encode_design: worker deltas are merged into
        # this memo by each pipeline, and the save below persists the
        # union.
        memo.load(memo_path)
    pipelines = [
        _encode_pipeline(
            flow.design, flow.placement, flow.routing, flow.rrg, config,
            cluster_size=cluster_size,
            max_orders=max_orders,
            order_seed=order_seed,
            compact_logic=compact_logic,
            codecs=codecs,
            workers=workers,
            memo=memo,
            memo_path=memo_path,
        )
        for flow, config in jobs
    ]
    base = pipelines[0].layout
    for p in pipelines[1:]:
        if (
            p.layout.params != base.params
            or p.layout.cluster_size != base.cluster_size
            or p.layout.compact_logic != base.compact_logic
        ):
            raise VbsError(
                "task containers must share architecture parameters, "
                "cluster size and logic coding to share a dictionary"
            )

    # Solo baseline: the per-container family decision, not yet applied.
    # Selections without container-scoped codecs (including the
    # paper-strict ``codecs=None``) have nothing to decide — their total
    # is a plain state-threaded size walk over the merged records.
    solo_choices = [
        _family_pass_choice(
            p.records, p.layout, p.allowed, p.raw_frames,
            predictor=predictor, stats=p.stats,
        )
        for p in pipelines
    ]
    solo_totals: List[int] = []
    for p, choice in zip(pipelines, solo_choices):
        if choice is not None:
            solo_totals.append(choice[0])
        else:
            state = CodecState()
            total = p.layout.header_bits + p.layout.dict_section_bits
            for rec in p.records:
                total += rec.size_bits(p.layout, state=state)
                state.observe(rec)
            solo_totals.append(total)

    # Task-scope trial: one table shared by every container.
    dict_allowed = pipelines[0].allowed is not None and any(
        c.needs_dict and not c.codes_raw for c in pipelines[0].allowed
    )
    table: Tuple[BitArray, ...] = ()
    shared_sum = sum(solo_totals)
    shared_plan: Optional[List[Tuple[List[str], VbsLayout]]] = None
    if dict_allowed:
        candidates = _build_shared_dict_table(
            [(p.records, p.layout) for p in pipelines], dict_id
        )
        if candidates:
            plan: List[Tuple[List[str], VbsLayout]] = []
            trial_sum = sum(len(pattern) for pattern in candidates)
            for p in pipelines:
                trial = p.layout.with_shared_dict(dict_id, candidates)
                family = [c for c in p.allowed if c.container_scoped]
                raw_allowed = any(c.codes_raw for c in p.allowed)
                total, assigns = _family_selection(
                    p.records, trial, family, raw_allowed, p.raw_frames,
                    predictor=predictor, stats=p.stats,
                )
                trial_sum += total
                plan.append((assigns, trial))
            if trial_sum < sum(solo_totals):
                table, shared_sum, shared_plan = candidates, trial_sum, plan

    containers: List[VirtualBitstream] = []
    for i, p in enumerate(pipelines):
        if shared_plan is not None:
            assigns, layout = shared_plan[i]
            records = _apply_family_assignment(
                p.records, assigns, p.raw_frames
            )
        elif solo_choices[i] is not None:
            _total, assigns, layout = solo_choices[i]
            records = _apply_family_assignment(
                p.records, assigns, p.raw_frames
            )
        else:
            records, layout = p.records, p.layout
        containers.append(_finalize_container(layout, records, p.stats))

    if memo_path is not None:
        memo.save(memo_path)
    return TaskEncodeResult(
        containers=containers,
        dict_id=dict_id,
        table=table,
        solo_bits=sum(solo_totals),
        shared_bits=shared_sum,
    )
