"""Golden-vector regression tests for the container wire format.

Small canned ``.vbs`` byte strings for VERSION 1, 2 and 3 containers,
checked in as hex.  Both directions are pinned: the encoder must emit
these exact bytes for the canonical record sets, and the decoder must
recover the exact pre-encode fields from them.  Any drift in field
widths, field order, codec bodies, the dictionary section, or the
raster state walk fails loudly here before it can corrupt containers
already written to external memory.

When a change *intentionally* alters the wire format, it must bump the
container version and add a new golden vector — never rewrite an old
one: old vectors are the promise that existing containers stay
readable.
"""

import pytest

from repro.arch import ArchParams
from repro.errors import VbsError
from repro.utils.bitarray import BitArray, BitWriter
from repro.vbs.encode import VirtualBitstream
from repro.vbs.format import (
    CHANNEL_BITS,
    CLUSTER_BITS,
    CODEC_TAG_BITS,
    COMPACT_BITS,
    DIM_BITS,
    LUT_BITS,
    MAGIC,
    MAGIC_BITS,
    VERSION_BITS,
    ClusterRecord,
    VbsLayout,
)

#: Canonical containers: one 4x2-macro task at the paper's worked-example
#: architecture (W = 5, 6-LUT), cluster size 1.
GOLDEN_V1 = (
    "b510415800080005a4050200000000000001014624f8000000000000000000000000"
    "0000000000000000000000000000000000000000000001"
)
GOLDEN_V2 = (
    "b520415800080005a60cb02030146243f00000000000000000000000000000000000"
    "0000000000000000000000000000000000032860040000000000000084"
)
GOLDEN_V3 = "b530415800080004008820000000400000350208014a0041546106a47221ef0028"
GOLDEN_V4 = (
    "b5404158000800040000006a02043249fc17e8224480081ee03e80000000000000"
    "000000000010000000000000000000000000000000000000000000001a01810000"
    "000000000000a0"
)
GOLDEN_V4_SHARED = "b5404158000800040013a60410028404a40020a8"
#: The shared-dictionary id and table GOLDEN_V4_SHARED references.
SHARED_ID = 9
#: The codec-frontier additions (dict-delta, raw-delta) in one VERSION 4
#: container: a near-miss dictionary reference plus a raw-delta chain.
GOLDEN_V4_FRONTIER = (
    "b540415800080004000000882000000040000034c142020b4024580a011b95804064"
    "80"
)


def _bits_with(n, positions):
    arr = BitArray(n)
    for p in positions:
        arr[p] = 1
    return arr


@pytest.fixture(scope="module")
def layout(params5):
    return VbsLayout(params5, 1, 4, 2)


def _v1_records(layout):
    nlb = layout.logic_bits_per_cluster
    nraw = layout.raw_bits_per_cluster
    return [
        ClusterRecord((0, 0), raw=False, logic=_bits_with(nlb, [0, 7, 64]),
                      pairs=[(0, 5), (3, 2)]),
        ClusterRecord((1, 0), raw=True,
                      raw_frames=_bits_with(nraw, [0, 283])),
    ]


def _v2_records(layout):
    nlb = layout.logic_bits_per_cluster
    nraw = layout.raw_bits_per_cluster
    return [
        ClusterRecord((0, 0), raw=False, logic=_bits_with(nlb, [0, 7, 64]),
                      pairs=[(0, 5), (3, 2)], codec="rle"),
        ClusterRecord((1, 0), raw=True,
                      raw_frames=_bits_with(nraw, [0, 283]), codec="raw"),
        ClusterRecord((2, 1), raw=False, logic=_bits_with(nlb, [10]),
                      pairs=[(1, 1)], codec="compact"),
    ]


def _v3_layout_and_records(layout):
    nlb = layout.logic_bits_per_cluster
    pattern = _bits_with(nlb, [3, 9, 40])
    lay = layout.with_dict_table((pattern,))
    records = [
        ClusterRecord((0, 0), raw=False, logic=pattern.copy(),
                      pairs=[(0, 1)], codec="dict"),
        ClusterRecord((1, 0), raw=False,
                      logic=_bits_with(nlb, [3, 9, 40, 41]),
                      pairs=[], codec="delta"),
        ClusterRecord((2, 0), raw=False, logic=_bits_with(nlb, [5, 6, 20]),
                      pairs=[(2, 3)], codec="golomb"),
        ClusterRecord((3, 1), raw=False, logic=_bits_with(nlb, [1]),
                      pairs=[], codec="eliasg"),
    ]
    return lay, records


def _v4_layout_and_records(layout):
    nlb = layout.logic_bits_per_cluster
    nraw = layout.raw_bits_per_cluster
    lay = layout.with_wide_tags()
    records = [
        ClusterRecord((0, 0), raw=False,
                      logic=_bits_with(nlb, [2, 5, 9, 30, 33, 60]),
                      pairs=[(1, 2)], codec="rice-a"),
        ClusterRecord((1, 0), raw=False,
                      logic=_bits_with(nlb, [2, 5, 9, 30, 33, 61]),
                      pairs=[], codec="delta-k"),
        ClusterRecord((2, 0), raw=True,
                      raw_frames=_bits_with(nraw, [1, 100]), codec="raw"),
        ClusterRecord((3, 1), raw=False, logic=_bits_with(nlb, [0, 7]),
                      pairs=[(0, 5)], codec="list"),
    ]
    return lay, records


def _v4_shared_layout_and_records(layout):
    nlb = layout.logic_bits_per_cluster
    pattern = _bits_with(nlb, [3, 9, 40])
    lay = layout.with_shared_dict(SHARED_ID, (pattern,))
    records = [
        ClusterRecord((0, 0), raw=False, logic=pattern.copy(),
                      pairs=[(0, 1)], codec="dict"),
        ClusterRecord((1, 0), raw=False, logic=pattern.copy(),
                      pairs=[], codec="dict"),
        ClusterRecord((2, 1), raw=False,
                      logic=_bits_with(nlb, [3, 9, 40, 41]),
                      pairs=[], codec="delta-k"),
    ]
    return lay, records


def _v4_frontier_layout_and_records(layout):
    nlb = layout.logic_bits_per_cluster
    nraw = layout.raw_bits_per_cluster
    pattern = _bits_with(nlb, [3, 9, 40])
    lay = layout.with_dict_table((pattern,)).with_wide_tags()
    records = [
        # One extra set bit off the dictionary pattern: a dict-delta
        # reference (index + 1-bit XOR residue).
        ClusterRecord((0, 0), raw=False,
                      logic=_bits_with(nlb, [3, 9, 40, 44]),
                      pairs=[(0, 2)], codec="dict-delta"),
        # A raw-delta chain: the first record deltas against the
        # all-zero reference, the second against the first's frames.
        ClusterRecord((1, 0), raw=True,
                      raw_frames=_bits_with(nraw, [0, 283]),
                      codec="raw-delta"),
        ClusterRecord((2, 1), raw=True,
                      raw_frames=_bits_with(nraw, [0, 200, 283]),
                      codec="raw-delta"),
    ]
    return lay, records


def _assert_same_fields(parsed, expected):
    assert len(parsed) == len(expected)
    for a, b in zip(parsed, expected):
        assert a.pos == b.pos
        assert a.raw == b.raw
        if b.raw:
            assert a.raw_frames == b.raw_frames
        else:
            assert a.logic == b.logic
            assert a.pairs == b.pairs


class TestGoldenEncode:
    """The encoder must reproduce the canned bytes bit for bit."""

    def test_v1_bytes_exact(self, layout):
        vbs = VirtualBitstream(layout, _v1_records(layout))
        assert vbs.to_bits(version=1).to_bytes().hex() == GOLDEN_V1

    def test_v2_bytes_exact(self, layout):
        vbs = VirtualBitstream(layout, _v2_records(layout))
        assert vbs.wire_version == 2
        assert vbs.to_bits(version=2).to_bytes().hex() == GOLDEN_V2
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V2  # default = auto

    def test_v3_bytes_exact(self, layout):
        lay, records = _v3_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        assert vbs.wire_version == 3
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V3

    def test_v4_bytes_exact(self, layout):
        lay, records = _v4_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        assert vbs.wire_version == 4
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V4
        assert len(vbs.to_bits()) == vbs.container_bits

    def test_v4_frontier_bytes_exact(self, layout):
        lay, records = _v4_frontier_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        assert vbs.wire_version == 4
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V4_FRONTIER
        assert len(vbs.to_bits()) == vbs.container_bits

    def test_v4_shared_bytes_exact(self, layout):
        lay, records = _v4_shared_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        assert vbs.wire_version == 4
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V4_SHARED
        assert len(vbs.to_bits()) == vbs.container_bits
        # The shared table is *not* embedded: the same records with an
        # embedded table cost a full pattern more on the wire.
        embedded = VirtualBitstream(
            layout.with_dict_table(lay.dict_table).with_wide_tags(), [
                ClusterRecord(r.pos, raw=False, logic=r.logic.copy(),
                              pairs=list(r.pairs), codec=r.codec)
                for r in records
            ],
        )
        assert embedded.container_bits > vbs.container_bits


class TestGoldenDecode:
    """The canned bytes must decode to the exact pre-encode fields."""

    def test_v1_fields_exact(self, layout):
        vbs = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V1))
        )
        assert vbs.source_version == 1
        assert vbs.layout.cluster_size == 1
        assert (vbs.layout.width, vbs.layout.height) == (4, 2)
        _assert_same_fields(vbs.records, _v1_records(layout))
        # Legacy records resolve to the implicit codec names.
        assert [r.codec for r in vbs.records] == ["list", "raw"]
        # And the archival re-encode is byte-identical.
        assert vbs.to_bits(version=1).to_bytes().hex() == GOLDEN_V1

    def test_v2_fields_exact(self, layout):
        vbs = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V2))
        )
        assert vbs.source_version == 2
        _assert_same_fields(vbs.records, _v2_records(layout))
        assert [r.codec for r in vbs.records] == ["rle", "raw", "compact"]
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V2

    def test_v3_fields_exact(self, layout):
        lay, records = _v3_layout_and_records(layout)
        vbs = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V3))
        )
        assert vbs.source_version == 3
        assert vbs.layout.dict_table == lay.dict_table
        # Dictionary references and delta residues expand back to the
        # exact pre-encode logic fields (normalization contract).
        _assert_same_fields(vbs.records, records)
        assert [r.codec for r in vbs.records] == [
            "dict", "delta", "golomb", "eliasg",
        ]
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V3


    def test_v4_fields_exact(self, layout):
        lay, records = _v4_layout_and_records(layout)
        vbs = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V4))
        )
        assert vbs.source_version == 4
        assert vbs.layout.tag_bits == lay.tag_bits
        assert vbs.layout.shared_dict_id is None
        _assert_same_fields(vbs.records, records)
        assert [r.codec for r in vbs.records] == [
            "rice-a", "delta-k", "raw", "list",
        ]
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V4

    def test_v4_frontier_fields_exact(self, layout):
        lay, records = _v4_frontier_layout_and_records(layout)
        vbs = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V4_FRONTIER))
        )
        assert vbs.source_version == 4
        assert vbs.layout.dict_table == lay.dict_table
        # The dict-delta residue and both raw-delta links expand back to
        # the exact pre-encode fields (normalization contract).
        _assert_same_fields(vbs.records, records)
        assert [r.codec for r in vbs.records] == [
            "dict-delta", "raw-delta", "raw-delta",
        ]
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V4_FRONTIER

    def test_v4_shared_fields_exact(self, layout):
        lay, records = _v4_shared_layout_and_records(layout)
        vbs = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V4_SHARED)),
            shared_dicts={SHARED_ID: lay.dict_table},
        )
        assert vbs.source_version == 4
        assert vbs.layout.shared_dict_id == SHARED_ID
        assert vbs.layout.dict_table == lay.dict_table
        _assert_same_fields(vbs.records, records)
        assert vbs.to_bits().to_bytes().hex() == GOLDEN_V4_SHARED
        # A callable resolver works too (the runtime controller's path).
        again = VirtualBitstream.from_bits(
            BitArray.from_bytes(bytes.fromhex(GOLDEN_V4_SHARED)),
            shared_dicts=lambda i: lay.dict_table if i == SHARED_ID else None,
        )
        assert again.to_bits().to_bytes().hex() == GOLDEN_V4_SHARED

    def test_v4_shared_without_resolver_rejected(self):
        bits = BitArray.from_bytes(bytes.fromhex(GOLDEN_V4_SHARED))
        with pytest.raises(VbsError, match="shared dictionary"):
            VirtualBitstream.from_bits(bits)
        with pytest.raises(VbsError, match="unknown"):
            VirtualBitstream.from_bits(bits, shared_dicts={SHARED_ID + 1: ()})


class TestVersionGates:
    """Safe rejection across format generations."""

    def test_future_version_rejected(self):
        data = bytearray(bytes.fromhex(GOLDEN_V1))
        data[1] = (data[1] & 0x0F) | 0x50  # version nibble -> 5 (future)
        with pytest.raises(VbsError, match="version"):
            VirtualBitstream.from_bits(BitArray.from_bytes(bytes(data)))

    def test_family_codec_cannot_write_v2(self, layout):
        lay, records = _v3_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        with pytest.raises(VbsError, match="version 3"):
            vbs.to_bits(version=2)
        with pytest.raises(VbsError):
            vbs.to_bits(version=1)

    def test_v2_container_with_family_tag_rejected(self, params5):
        # Hand-craft a VERSION 2 container whose first record claims the
        # delta tag — a correct VERSION 2 reader must refuse before it
        # touches the record body.
        lay = VbsLayout(params5, 1, 4, 2)
        w = BitWriter()
        w.write(MAGIC, MAGIC_BITS)
        w.write(2, VERSION_BITS)
        w.write(lay.cluster_size, CLUSTER_BITS)
        w.write(lay.params.channel_width, CHANNEL_BITS)
        w.write(lay.params.lut_size, LUT_BITS)
        w.write(0, COMPACT_BITS)
        w.write(lay.width, DIM_BITS)
        w.write(lay.height, DIM_BITS)
        w.write(lay.width - 1, lay.dim_bits)
        w.write(lay.height - 1, lay.dim_bits)
        w.write(1, lay.count_bits)
        w.write(0, lay.pos_bits)
        w.write(0, lay.pos_bits)
        w.write(5, CODEC_TAG_BITS)  # delta: a VERSION 3 codec
        with pytest.raises(VbsError, match="VERSION 3"):
            VirtualBitstream.from_bits(w.finish())

    def test_v1_cannot_carry_tagged_codec(self, layout):
        vbs = VirtualBitstream(layout, _v2_records(layout))
        with pytest.raises(VbsError, match="VERSION 1"):
            vbs.to_bits(version=1)

    def test_unsupported_write_version_rejected(self, layout):
        vbs = VirtualBitstream(layout, _v1_records(layout))
        with pytest.raises(VbsError):
            vbs.to_bits(version=5)

    def test_wide_codec_cannot_write_v3_or_below(self, layout):
        lay, records = _v4_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        for version in (1, 2, 3):
            with pytest.raises(VbsError):
                vbs.to_bits(version=version)

    def test_shared_dict_cannot_write_v3_or_below(self, layout):
        lay, records = _v4_shared_layout_and_records(layout)
        vbs = VirtualBitstream(lay, records)
        for version in (1, 2, 3):
            with pytest.raises(VbsError):
                vbs.to_bits(version=version)

    def test_wide_codec_rejected_on_narrow_layout(self, layout):
        """The wide-tag guard mirrors the VERSION 2 tag gate: a codec
        whose tag does not fit the 3-bit field cannot join a narrow
        container."""
        nlb = layout.logic_bits_per_cluster
        rec = ClusterRecord((0, 0), raw=False, logic=_bits_with(nlb, [1]),
                            pairs=[], codec="rice-a")
        with pytest.raises(VbsError, match="VERSION 4"):
            VirtualBitstream(layout, [rec])

    def test_v4_container_with_unknown_tag_rejected(self, params5):
        # A VERSION 4 container claiming an unregistered 5-bit tag must
        # be refused before the record body is touched.
        from repro.vbs.format import SHARED_DICT_ID_BITS, DICT_COUNT_BITS

        lay = VbsLayout(params5, 1, 4, 2)
        w = BitWriter()
        w.write(MAGIC, MAGIC_BITS)
        w.write(4, VERSION_BITS)
        w.write(lay.cluster_size, CLUSTER_BITS)
        w.write(lay.params.channel_width, CHANNEL_BITS)
        w.write(lay.params.lut_size, LUT_BITS)
        w.write(0, COMPACT_BITS)
        w.write(lay.width, DIM_BITS)
        w.write(lay.height, DIM_BITS)
        w.write(0, SHARED_DICT_ID_BITS)
        w.write(0, DICT_COUNT_BITS)
        w.write(lay.width - 1, lay.dim_bits)
        w.write(lay.height - 1, lay.dim_bits)
        w.write(1, lay.count_bits)
        w.write(0, lay.pos_bits)
        w.write(0, lay.pos_bits)
        w.write(31, 5)  # unregistered wide tag
        with pytest.raises(VbsError, match="unknown codec tag"):
            VirtualBitstream.from_bits(w.finish())

    def test_corrupted_gap_count_raises_vbs_error(self, layout):
        """A gap-coded record whose count field claims more set bits than
        the logic field holds must fail as a wire-format error, not an
        internal IndexError."""
        lay, _records = _v3_layout_and_records(layout)
        nlb = lay.logic_bits_per_cluster
        w = BitWriter()
        w.write(MAGIC, MAGIC_BITS)
        w.write(3, VERSION_BITS)
        w.write(lay.cluster_size, CLUSTER_BITS)
        w.write(lay.params.channel_width, CHANNEL_BITS)
        w.write(lay.params.lut_size, LUT_BITS)
        w.write(0, COMPACT_BITS)
        w.write(lay.width, DIM_BITS)
        w.write(lay.height, DIM_BITS)
        w.write(0, 10)  # empty dictionary section (DICT_COUNT_BITS)
        w.write(lay.width - 1, lay.dim_bits)
        w.write(lay.height - 1, lay.dim_bits)
        w.write(1, lay.count_bits)
        w.write(0, lay.pos_bits)
        w.write(0, lay.pos_bits)
        w.write(7, CODEC_TAG_BITS)           # eliasg
        w.write(0, lay.route_count_bits)
        count_bits = (nlb + 1 - 1).bit_length()
        w.write((1 << count_bits) - 1, count_bits)  # count > NLB
        for _ in range(2 * nlb):
            w.write(1, 1)                    # gaps of 1, then overrun
        with pytest.raises(VbsError):
            VirtualBitstream.from_bits(w.finish(), params=layout.params)


class TestTruncation:
    """A container cut short anywhere is a wire-format error.

    The bit reader signals exhaustion with ``EOFError``; ``from_bits``
    must surface that as :class:`VbsError` like any other malformed
    input.  A cut that only drops the final byte's zero padding still
    parses — to the very same container.
    """

    @pytest.mark.parametrize("name", [
        "GOLDEN_V1", "GOLDEN_V2", "GOLDEN_V3", "GOLDEN_V4",
        "GOLDEN_V4_SHARED", "GOLDEN_V4_FRONTIER",
    ])
    def test_every_cut_raises_vbs_error(self, layout, name):
        hexstr = globals()[name]
        data = bytes.fromhex(hexstr)
        shared = {SHARED_ID: _v4_shared_layout_and_records(layout)[0]
                  .dict_table}
        rejected = 0
        for cut in range(8 * len(data)):
            bits = BitArray.from_bytes(data, nbits=cut)
            try:
                vbs = VirtualBitstream.from_bits(bits, shared_dicts=shared)
            except VbsError:
                rejected += 1
                continue
            version = vbs.source_version
            assert vbs.to_bits(version=version).to_bytes().hex() == hexstr
        assert rejected >= 8 * len(data) - 7


class TestCrossVersionConformance:
    """Every codec x every writable container version round-trips; every
    unwritable pair raises the documented rejection.

    The version gates under test: VERSION 1 carries only the implicit
    legacy codings, VERSION 2 tops out at ``MAX_V2_TAG``, VERSION 3 at
    ``MAX_V3_TAG`` (and owns the dictionary section), VERSION 4 carries
    everything (any stream may be up-converted to it).  A build that
    reads only versions <= 3 rejects VERSION 4 streams at the version
    field — the same gate ``test_future_version_rejected`` pins one
    generation up.
    """

    def _stream_for(self, codec, params):
        """A one-record stream exercising ``codec`` plus its layout."""
        compact = codec.name == "compact"
        lay = VbsLayout(params, 1, 4, 2, compact_logic=compact)
        nlb = lay.logic_bits_per_cluster
        if codec.codes_raw:
            rec = ClusterRecord(
                (0, 0), raw=True,
                raw_frames=_bits_with(lay.raw_bits_per_cluster, [0, 9]),
                codec=codec.name,
            )
        else:
            rec = ClusterRecord(
                (0, 0), raw=False, logic=_bits_with(nlb, [1, 8, 30]),
                pairs=[(0, 3)], codec=codec.name,
            )
        if codec.needs_dict:
            lay = lay.with_dict_table((rec.logic,))
        if codec.wide_tag:
            lay = lay.with_wide_tags()
        return lay, [rec]

    def _writable_versions(self, codec, lay):
        if codec.wide_tag:
            return {4}
        if codec.tag > 3 or lay.dict_table:  # MAX_V2_TAG
            return {3, 4}
        legacy = {1} if codec.name in ("list", "raw", "compact") else set()
        return legacy | {2, 3, 4}

    def test_matrix(self, params5):
        from repro.vbs.codecs import registered_codecs

        for codec in registered_codecs():
            lay, records = self._stream_for(codec, params5)
            vbs = VirtualBitstream(lay, records)
            writable = self._writable_versions(codec, lay)
            for version in (1, 2, 3, 4):
                if version not in writable:
                    with pytest.raises(VbsError):
                        vbs.to_bits(version=version)
                    continue
                bits = vbs.to_bits(version=version)
                parsed = VirtualBitstream.from_bits(bits)
                assert parsed.source_version == version, codec.name
                _assert_same_fields(parsed.records, records)
                # Re-encoding the parse at the same version is the
                # identity on bytes.
                assert parsed.to_bits(version=version) == bits, (
                    codec.name, version,
                )

    def test_matrix_covers_every_codec_and_version(self):
        from repro.vbs.codecs import registered_codecs
        from repro.vbs.format import SUPPORTED_VERSIONS

        names = {c.name for c in registered_codecs()}
        assert {"list", "raw", "compact", "rle", "dict", "delta",
                "golomb", "eliasg", "rice-a", "delta-k",
                "dict-delta", "raw-delta"} <= names
        assert SUPPORTED_VERSIONS == (1, 2, 3, 4)
