"""The feature→codec predictor of the family pass (knowledge-base idiom).

``codecs="auto"`` settles every container with an exhaustive per-record
trial: ten-plus ``record_bits`` evaluations per record, repeated under
every trial layout (no-table vs. table, narrow vs. wide tags).  That is
the right thing to do exactly once per *kind* of cluster — the winning
codec is a stable function of a few cheap cluster features, so the
fleet/sweep workloads re-derive the same answers millions of times.

:class:`CodecPredictor` applies the recorded-knowledge idiom of Zhou
et al. 2022 (PAPERS.md) at encode time: a persistable store mapping a
quantized **feature key** to the codecs that have ever won a full trial
under it, with win counts.
The family pass (``repro.vbs.encode._family_selection``) consults it to
shortlist candidates instead of costing the whole family:

* **cold key** → the full trial runs and its winner is recorded; the
  predictor never guesses without evidence.  Warmth is judged against
  the store as it stood when the encode *began*
  (:meth:`CodecPredictor.begin_session`): wins recorded during an
  encode teach the next session, never the current one, so an encode
  under a cold store is the exhaustive pass, bit for bit.
* **warm key** → only the shortlist (every recorded winner for the key),
  plus the record's current per-cluster pick and the guaranteed raw
  fallback, is costed.  Because the shortlist contains *every* codec
  that has ever won under the key, replaying a corpus the store was
  warmed on costs the true winner again — the output is byte-identical
  to the exhaustive pass.
* **verify-and-fallback** → after the shortlist is costed, the store's
  top-ranked pick must win it by at least ``margin_bits`` against the
  runner-up; when it loses by more, the full trial re-runs and the real
  winner is recorded.  With the default margin of 0 any shortlist upset
  triggers the full trial, so drifting workloads re-teach the store
  instead of locking in stale picks.

Keys quantize backend-deterministic features (pure ``BitArray`` bit
counting — identical under ``REPRO_NO_NUMPY=1``): set-bit density, run
structure (contiguous one-blocks), connection-pair count, distance to
the nearest dictionary pattern, a container-level pattern-pool entropy
proxy, and the tag-width regime.  Everything that changes a record's
cost landscape is either in the key or explicitly re-verified.

The store serializes to JSON (``save``/``load``; loads are tolerant — a
missing or corrupt file leaves the store cold) and is wired through
``encode_design(..., predictor=...)`` / ``repro vbsgen
--predictor-store``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.utils.bitarray import BitArray
from repro.vbs.format import (
    WIDE_CODEC_TAG_BITS,
    ClusterRecord,
    VbsLayout,
)

#: Store schema version; a mismatching file restores nothing.
STORE_VERSION = 1


def _bucket(value: int) -> int:
    """Log2 bucket of a non-negative count (0 -> 0, 1 -> 1, 2-3 -> 2...)."""
    return value.bit_length()


def _one_blocks(field: BitArray) -> int:
    """Number of contiguous runs of set bits (the run-structure proxy)."""
    blocks = 0
    prev = -2
    for i in field.ones():
        if i != prev + 1:
            blocks += 1
        prev = i
    return blocks


def pool_entropy_bucket(records: Sequence[ClusterRecord]) -> int:
    """Container-level pattern-pool entropy proxy, bucketed 0..8.

    The ratio of distinct logic patterns to smart records: 0 means one
    pattern tiles the whole container (dictionary territory), 8 means
    every cluster is unique (delta/Rice territory).  Deterministic and
    cheap — ``BitArray`` hashing over fields already in memory.
    """
    logics = [
        rec.logic for rec in records
        if not rec.raw and rec.logic is not None
    ]
    if not logics:
        return 0
    return (len(set(logics)) * 8) // len(logics)


def cluster_key(
    rec: ClusterRecord,
    layout: VbsLayout,
    pool_bucket: int,
    has_frames: bool = False,
) -> str:
    """The quantized feature key of one record under one trial layout.

    Pure function of (record, layout, container pool bucket): set-bit
    density in sixteenths, log2 buckets of the one-block count and the
    pair count, the popcount distance to the nearest dictionary pattern
    (15 = no table), the tag-width regime, and whether the raw fallback
    frames are on the table for this record.  Raw records key on their
    frames under an ``r`` prefix — a disjoint feature space from smart
    records' ``s``.
    """
    if rec.raw and rec.raw_frames is not None:
        field = rec.raw_frames
        kind = "r"
    else:
        field = rec.logic
        kind = "s"
    n = len(field) if field is not None else 0
    density = (field.count() * 16) // n if field is not None and n else 0
    blocks = _bucket(_one_blocks(field)) if field is not None else 0
    pairs = _bucket(len(rec.pairs or []))
    if not rec.raw and rec.logic is not None and layout.dict_table:
        dist = min(
            (rec.logic ^ pattern).count() for pattern in layout.dict_table
        )
        dict_hit = min(15, _bucket(dist))
    else:
        dict_hit = 15
    wide = 1 if layout.tag_bits == WIDE_CODEC_TAG_BITS else 0
    raw_opt = 1 if (rec.raw or has_frames) else 0
    return (
        f"{kind}{density}.{blocks}.{pairs}.{dict_hit}."
        f"{pool_bucket}.{wide}{raw_opt}"
    )


class CodecPredictor:
    """Persistable (feature key -> winning codec) store with win counts."""

    def __init__(self, margin_bits: int = 0) -> None:
        if margin_bits < 0:
            raise ValueError("verify margin must be >= 0 bits")
        #: Verify-and-fallback tolerance: the store's top pick may lose
        #: the shortlist by up to this many bits before the full trial
        #: re-runs.  0 = any upset re-trials (the safe default).
        self.margin_bits = margin_bits
        self._cells: Dict[str, Dict[str, int]] = {}
        #: The consultation snapshot (see :meth:`begin_session`); None
        #: means reads see the live cells.
        self._frozen: Optional[Dict[str, Dict[str, int]]] = None
        #: Session counters (not persisted): shortlist hits, cold
        #: misses, and verify-and-fallback full re-trials.
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def samples(self) -> int:
        """Total recorded wins across every cell."""
        return sum(sum(c.values()) for c in self._cells.values())

    def begin_session(self) -> None:
        """Freeze the consultation view at the current store content.

        The feature key is deliberately lossy, so two records sharing a
        key can have different true winners.  If shortlists were read
        from the *live* cells, a win recorded earlier in the same encode
        would hide a later same-key record's better codec without the
        verify-and-fallback check ever seeing it — and a cold store
        would stop being byte-identical to the exhaustive pass halfway
        through its own first container.  ``encode_design``/
        ``encode_task`` therefore freeze the store at entry: every
        consultation during the encode sees the pre-encode state (cold
        keys stay cold for the whole session → full trials everywhere),
        while :meth:`record` keeps teaching the live cells for the
        *next* session.
        """
        self._frozen = {
            key: dict(cell) for key, cell in self._cells.items()
        }

    def shortlist(self, key: str) -> Optional[List[str]]:
        """Every codec that ever won under ``key``, most wins first
        (name as the deterministic tie-break); None when cold.

        Inside an encode session (:meth:`begin_session`) the answer
        comes from the frozen snapshot, not the live cells.
        """
        cells = self._frozen if self._frozen is not None else self._cells
        cell = cells.get(key)
        if not cell:
            return None
        return sorted(cell, key=lambda name: (-cell[name], name))

    def predict(self, key: str) -> Optional[str]:
        """The store's top-ranked codec for ``key``, or None when cold."""
        ranked = self.shortlist(key)
        return ranked[0] if ranked else None

    def record(self, key: str, winner: str) -> None:
        """File one full-trial (or verified shortlist) win."""
        cell = self._cells.setdefault(key, {})
        cell[winner] = cell.get(winner, 0) + 1

    # -- persistence -----------------------------------------------------------

    def save(self, path: "str | Path") -> None:
        """Write the store as JSON (schema-versioned, sorted keys)."""
        payload = {
            "version": STORE_VERSION,
            "margin_bits": self.margin_bits,
            "cells": {
                key: dict(sorted(cell.items()))
                for key, cell in sorted(self._cells.items())
            },
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    def load(self, path: "str | Path") -> int:
        """Merge a saved store into this one; returns cells restored.

        Tolerant like :meth:`DecodeMemo.load`: a missing, corrupt or
        schema-mismatched file restores nothing — the predictor is an
        accelerator, never a correctness dependency.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(payload, dict)
            or payload.get("version") != STORE_VERSION
            or not isinstance(payload.get("cells"), dict)
        ):
            return 0
        restored = 0
        for key, cell in payload["cells"].items():
            if not isinstance(cell, dict):
                continue
            target = self._cells.setdefault(str(key), {})
            for name, wins in cell.items():
                if isinstance(wins, int) and wins > 0:
                    target[str(name)] = target.get(str(name), 0) + wins
            restored += 1
        return restored

    def snapshot(self) -> dict:
        """A JSON-safe digest (cell/sample counts + session counters)."""
        return {
            "cells": len(self),
            "samples": self.samples,
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
        }

    def __repr__(self) -> str:
        return (
            f"CodecPredictor({len(self)} cells, {self.samples} wins, "
            f"margin={self.margin_bits})"
        )
