"""The de-virtualization router (Section II-C).

Expands a cluster's connection list into concrete pass-transistor closures.
The algorithm is the paper's "simple router", deliberately cheap enough for
a run-time reconfiguration controller, and *stateful*: connections are
processed in list order over a persistent occupancy map, which is exactly
why the offline encoder replays this same code in its feedback loop and
re-orders lists that fail (Section III-B).

Routing rules:

* a connection ``(in, out)`` whose endpoints already belong to the same
  in-progress net is a no-op;
* if either endpoint belongs to an existing net, the router extends that
  net's tree to the other endpoint (breadth-first, so shortest in segment
  count);
* otherwise a new net is opened and routed endpoint-to-endpoint;
* segments occupied by other nets are blocked; *terminal* segments
  (cluster-boundary crossings and block pins) are blocked unless they are
  an endpoint of the current connection — passing through one would leak
  the net into a neighbouring macro or onto a block pin;
* the decoder pre-scans its connection list and *protects* the pin lines of
  every listed block pin: a block pin is reachable only through its own
  line's segments, so letting an earlier connection dogleg through them
  would strand the pin.  Protected segments are avoided in a first
  breadth-first pass and only considered in a second pass when no
  unprotected path exists;
* when both passes fail, the router performs a bounded, deterministic
  *rip-up*: a discovery search ignoring other nets identifies the blocking
  nets, those nets are torn down, the stuck connection is routed, and the
  victims' connections re-enter the queue.  Every connection may be
  retried a fixed number of times and the total rip-up budget is linear in
  the list length, so decoding always terminates; exhausting the budget
  raises :class:`DevirtualizationError`, which the offline encoder answers
  with re-ordering and ultimately the raw-coding fallback.

``work`` counts BFS dequeues: the decode-effort metric behind the paper's
observation that coarser clusters need "higher computing power to decode".
Both the offline feedback loop and the run-time controller execute this
exact code, so offline success guarantees online success.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.macro import ClusterModel
from repro.errors import DevirtualizationError

Pair = Tuple[int, int]

#: Maximum times one connection may be re-attempted after rip-ups.
MAX_TRIES_PER_CONNECTION = 4

#: Version stamp of the persisted memo file; files written by a different
#: format version are silently ignored on ``load`` (mirrors the decode
#: cache's ``CACHE_FILE_FORMAT`` convention).
MEMO_FILE_FORMAT = 1


class DecodeMemo:
    """Result reuse across identical cluster decodes.

    Two clusters with the same connection list (same order) and the same
    valid-member mask de-virtualize to identical closures — the router is
    deterministic.  Both the offline feedback loop (which replays many
    clusters and candidate orders) and the run-time decoder (tasks are
    full of repeated wiring patterns) hit the same keys over and over;
    the memo returns the first run's :class:`DevirtResult` instead of
    re-running the router.  Failed decodes are memoized too, so the
    encoder's order search never retries a known-bad order.

    Callers must treat returned results as immutable (they are shared).

    ``max_entries`` bounds the memo for long-lived owners (the runtime
    controller, a sweep-shared encoder memo): insertion past the bound
    evicts the least recently *used* entry — hits refresh recency, so a
    hot wiring pattern survives a sweep over many containers.  The
    default is unbounded, which suits one-shot encoder runs.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("memo bound must be >= 1")
        self.max_entries = max_entries
        #: (params, cluster size, connection order, member mask) ->
        #: (result, None) on success or (None, error message) on failure.
        #: Insertion-ordered; hits re-insert, so iteration order is LRU.
        self._entries: Dict[
            tuple,
            Tuple[Optional[DevirtResult], Optional[str]],
        ] = {}
        self.hits = 0
        self.misses = 0
        #: Entries restored from a persisted memo file (``load``).
        self.restored = 0

    def _insert(
        self,
        key: tuple,
        value: Tuple[Optional[DevirtResult], Optional[str]],
    ) -> None:
        while (
            self.max_entries is not None
            and key not in self._entries
            and len(self._entries) >= self.max_entries
        ):
            del self._entries[next(iter(self._entries))]
        self._entries[key] = value

    def _refresh(self, key: tuple) -> None:
        """Move ``key`` to the recent end (bounded memos evict LRU-first)."""
        if self.max_entries is not None:
            self._entries[key] = self._entries.pop(key)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe history)."""
        self._entries.clear()

    # -- persistence -------------------------------------------------------------

    def save(self, path: "Path | str") -> int:
        """Persist every entry into one version-stamped file; returns count.

        The memo is the cross-run complement of the decode cache's
        per-entry files: one pickle holding the whole LRU-ordered entry
        map (keys embed the architecture parameters, so one file can mix
        entries from different archs safely).  Written to a temporary
        name and atomically renamed, like the cache files, so concurrent
        savers never expose a torn file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        entries = list(self._entries.items())
        payload = {"format": MEMO_FILE_FORMAT, "entries": entries}
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(pickle.dumps(payload))
        os.replace(tmp, path)
        return len(entries)

    def load(self, path: "Path | str", run_id: Optional[str] = None) -> int:
        """Restore persisted entries from ``path``; returns count.

        Tolerant by construction: a missing, corrupt, truncated,
        wrongly-typed or version-mismatched file restores nothing and is
        never fatal.  Live entries are never displaced: keys already
        resident are left untouched (the live entry is at least as
        fresh) and a bounded memo only restores into its *free room*,
        preferring the file's most-recently-used tail (the file is
        LRU-to-MRU ordered).  The hit/miss counters are not disturbed —
        ``restored`` counts entries that became resident.

        ``run_id`` restricts the load to delta files stamped by that
        pool run (:meth:`dump_delta`): a file carrying a different stamp
        — or none, like a stale delta left behind by a crashed run —
        restores nothing.  ``None`` accepts any file (the regular
        persisted-memo case).
        """
        try:
            payload = pickle.loads(Path(path).read_bytes())
        except Exception:
            return 0  # corrupt/truncated/missing file: never fatal
        if (
            not isinstance(payload, dict)
            or payload.get("format") != MEMO_FILE_FORMAT
            or not isinstance(payload.get("entries"), list)
        ):
            return 0
        if run_id is not None and payload.get("run") != run_id:
            return 0  # foreign/stale delta: never merged
        fresh: List[tuple] = []
        for item in payload["entries"]:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            key, value = item
            if not (isinstance(key, tuple) and len(key) == 4):
                continue
            if not (isinstance(value, tuple) and len(value) == 2):
                continue
            if key in self._entries:
                continue
            fresh.append((key, value))
        if self.max_entries is not None:
            room = self.max_entries - len(self._entries)
            if room <= 0:
                return 0
            fresh = fresh[-room:]
        for key, value in fresh:
            self._insert(key, value)
        self.restored += len(fresh)
        return len(fresh)

    def snapshot_keys(self) -> frozenset:
        """The keys currently resident — a baseline for :meth:`dump_delta`."""
        return frozenset(self._entries)

    def dump_delta(
        self,
        path: "Path | str",
        baseline: frozenset,
        run_id: Optional[str] = None,
    ) -> int:
        """Persist only the entries gained since ``baseline``; returns count.

        Same file format as :meth:`save` (so :meth:`load` folds a delta
        file like any other memo file), same atomic rename.  Process-pool
        workers use this at exit: each dumps what it discovered beyond
        its warm start into a private per-worker file, and the parent
        merges the deltas into the shared persisted memo.  Writes nothing
        when there is nothing new.

        ``run_id`` stamps the payload with the pool run that produced it;
        the parent merges with ``load(path, run_id=...)`` so a stale
        delta left behind by a crashed or killed run can never be folded
        into a later run's memo.
        """
        entries = [
            (key, value)
            for key, value in self._entries.items()
            if key not in baseline
        ]
        if not entries:
            return 0
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": MEMO_FILE_FORMAT, "entries": entries}
        if run_id is not None:
            payload["run"] = run_id
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(pickle.dumps(payload))
        os.replace(tmp, path)
        return len(entries)

    def decode(
        self,
        model: ClusterModel,
        pairs: Sequence[Pair],
        valid_macros: Optional[Set[Tuple[int, int]]] = None,
    ) -> Tuple[DevirtResult, bool]:
        """Decode (or replay) one list; returns ``(result, was_reused)``."""
        # The model belongs in the key: a shared memo sees decodes of
        # containers with different arch params or cluster sizes, whose
        # identical-looking lists expand to different switch offsets.
        key = (
            model.params,
            model.c,
            tuple(pairs),
            None if valid_macros is None else frozenset(valid_macros),
        )
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._refresh(key)
            result, error = entry
            if error is not None:
                raise DevirtualizationError(error)
            return result, True
        self.misses += 1
        decoder = ClusterDecoder(model, valid_macros=valid_macros)
        try:
            result = decoder.decode(list(pairs))
        except DevirtualizationError as exc:
            self._insert(key, (None, str(exc)))
            raise
        self._insert(key, (result, None))
        return result, False


@dataclass
class DevirtResult:
    """Switch closures (per cluster-local macro) plus effort counters."""

    closed: Dict[Tuple[int, int], Set[int]] = field(default_factory=dict)
    work: int = 0
    connections_routed: int = 0
    connections_skipped: int = 0
    ripups: int = 0

    def close(self, macro: Tuple[int, int], offset: int) -> None:
        self.closed.setdefault(macro, set()).add(offset)

    def open(self, macro: Tuple[int, int], offset: int) -> None:
        self.closed.get(macro, set()).discard(offset)


class ClusterDecoder:
    """Stateful de-virtualization of one cluster's connection list."""

    def __init__(
        self,
        model: ClusterModel,
        valid_macros: Optional[Set[Tuple[int, int]]] = None,
    ):
        self.model = model
        nsegs = model.num_segments
        #: Net id per segment (None = free).  Flat per-segment arrays keep
        #: the BFS inner loop to plain list indexing — no hashing.
        self._seg_net: List[Optional[int]] = [None] * nsegs
        self._net_segs: Dict[int, List[int]] = {}
        self._net_switches: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
        self._net_pairs: Dict[int, List[Pair]] = {}
        self._net_of_io: Dict[int, int] = {}
        self._next_net = 0
        self._result = DevirtResult()
        #: Protecting pin I/O per segment (None = unprotected).
        self._protected: List[Optional[int]] = [None] * nsegs
        self._own_mask: Dict[int, int] = {}
        #: Generation-stamped visited/predecessor arrays reused across BFS
        #: runs: bumping ``_gen`` invalidates every stamp at once, so no
        #: per-search allocation or clearing.
        self._stamp = [0] * nsegs
        self._prev = [0] * nsegs
        self._via = [0] * nsegs
        self._gen = 0
        #: Segments outside the task rectangle are unusable (partial edge
        #: clusters); both encoder and decoder derive the same mask from the
        #: task dimensions, keeping the feedback-loop contract exact.
        if valid_macros is None:
            self._blocked_cells: Optional[Set[Tuple[int, int]]] = None
        else:
            all_cells = {
                (i, j) for i in range(model.c) for j in range(model.c)
            }
            self._blocked_cells = all_cells - set(valid_macros)
        if not self._blocked_cells:
            usable = [True] * nsegs
            clear_mask = model.clear_mask_full
        else:
            blocked = self._blocked_cells
            usable = [True] * nsegs
            clear_mask = model.clear_mask_full
            for seg, key in enumerate(model.seg_keys):
                if (key[0], key[1]) in blocked:
                    usable[seg] = False
                    clear_mask &= ~(1 << seg)
        self._usable = usable
        #: Bit s set iff segment s is usable AND not endpoint-only — the
        #: static part of the BFS pass/skip decision for a non-target
        #: neighbour.
        self._clear_mask = clear_mask
        #: ``_clear_mask`` AND currently unoccupied, maintained by claim/
        #: rip-up.  Valid as the whole non-target filter because every
        #: segment of the searching net is a BFS seed (already visited), so
        #: an unvisited neighbour is either free or owned by another net.
        self._free_mask = clear_mask
        #: ``_free_mask`` AND not pin-protected; kept in lockstep so the
        #: protection-pass BFS starts from one value.
        self._free_unprot_mask = clear_mask

    # -- helpers -----------------------------------------------------------------

    def _seg_usable(self, seg: int) -> bool:
        return self._usable[seg]

    def _io_seg(self, io: int) -> int:
        try:
            seg = self.model.io_to_seg[io]
        except IndexError:
            raise DevirtualizationError(
                f"I/O number {io} outside space [0,{self.model.io_count})"
            )
        if not self._seg_usable(seg):
            raise DevirtualizationError(
                f"I/O {self.model.io_name(io)} lies outside the task rectangle"
            )
        return seg

    def _claim(self, seg: int, net: int) -> None:
        self._seg_net[seg] = net
        bit = ~(1 << seg)
        self._free_mask &= bit
        self._free_unprot_mask &= bit
        self._net_segs[net].append(seg)

    def _new_net(self) -> int:
        net = self._next_net
        self._next_net += 1
        self._net_segs[net] = []
        self._net_switches[net] = []
        self._net_pairs[net] = []
        return net

    def protect_pins(self, connections: Sequence[Pair]) -> None:
        """Pre-scan the list and protect the pin lines of listed block pins."""
        model = self.model
        pin_io_base = model.pin_io_base
        io_count = model.io_count
        pin_line_segments = model.pin_line_segments
        protected: List[Optional[int]] = [None] * model.num_segments
        own_mask: Dict[int, int] = {}
        prot_mask = 0
        for pair in connections:
            for io in pair:
                if pin_io_base <= io < io_count and io not in own_mask:
                    owned = 0
                    for seg in pin_line_segments(io):
                        if protected[seg] is None:
                            protected[seg] = io
                            owned |= 1 << seg
                    own_mask[io] = owned
                    prot_mask |= owned
        self._protected = protected
        #: Per pin I/O: bitmask of the pin-line segments it protects (first
        #: listed pin wins a contested segment) — the BFS re-allows these
        #: with two mask ops instead of walking the line.
        self._own_mask = own_mask
        self._free_unprot_mask = self._free_mask & ~prot_mask

    # -- single connection ---------------------------------------------------------

    def _commit_path(self, path: List[Tuple[int, int]], net: int) -> None:
        switch_cells = self.model.switch_cells
        closed = self._result.closed
        net_switches = self._net_switches[net]
        net_segs = self._net_segs[net]
        seg_net = self._seg_net
        for seg, switch_id in path[1:]:
            macro, offset = switch_cells[switch_id]
            members = closed.get(macro)
            if members is None:
                members = closed[macro] = set()
            members.add(offset)
            net_switches.append((macro, offset))
            if seg_net[seg] is None:
                seg_net[seg] = net
                bit = ~(1 << seg)
                self._free_mask &= bit
                self._free_unprot_mask &= bit
                net_segs.append(seg)

    def _route_pair(self, in_io: int, out_io: int) -> "Optional[List[int]]":
        """Route one pair.

        Returns ``None`` on success and the sorted list of blocking net ids
        when a rip-up is required.  Raises when the pair is unroutable even
        through occupied fabric.
        """
        model = self.model
        a = self._io_seg(in_io)
        b = self._io_seg(out_io)
        net_a = self._seg_net[a]
        net_b = self._seg_net[b]

        if net_a is not None and net_a == net_b:
            self._result.connections_skipped += 1
            self._net_pairs[net_a].append((in_io, out_io))
            return None
        if net_a is not None and net_b is not None:
            raise DevirtualizationError(
                f"connection ({model.io_name(in_io)} -> "
                f"{model.io_name(out_io)}) would merge two distinct nets"
            )

        if net_a is not None:
            net, target = net_a, b
        elif net_b is not None:
            net, target = net_b, a
        else:
            net = self._new_net()
            self._claim(a, net)
            self._net_of_io[in_io] = net
            target = b

        sources = self._net_segs[net]
        pin_io_base = model.pin_io_base
        allowed = {
            io
            for io in (in_io, out_io)
            if pin_io_base <= io < model.io_count
        }
        path = self._bfs(sources, target, net, allowed, protection=True)
        if path is None:
            path = self._bfs(sources, target, net, allowed, protection=False)
        if path is None:
            blockers = self._find_blockers(sources, target, net, allowed)
            if blockers is None:
                raise DevirtualizationError(
                    f"no path for connection ({model.io_name(in_io)} -> "
                    f"{model.io_name(out_io)}), even through occupied fabric"
                )
            # Undo the tentative net creation before reporting the conflict.
            if net_a is None and net_b is None:
                self._rip_up(net, keep_pairs=False)
            return blockers
        self._commit_path(path, net)
        self._net_of_io[out_io] = net
        self._net_of_io[in_io] = net
        self._net_pairs[net].append((in_io, out_io))
        self._result.connections_routed += 1
        return None

    # -- searches ---------------------------------------------------------------------

    def _bfs(
        self,
        sources: Sequence[int],
        target: int,
        net: int,
        allowed_pin_ios: Set[int],
        protection: bool,
        through_others: bool = False,
    ) -> "Optional[List[Tuple[int, int]]]":
        """Deterministic BFS; ``[(seed, -1), (seg, switch), ...]`` or None."""
        model = self.model
        adjacency = model.adjacency
        prev = self._prev
        via = self._via
        queue = sorted(sources)
        push = queue.append
        head = 0
        found = False

        if through_others:
            # Discovery pass (rare): the original predicate chain, verbatim,
            # with the generation-stamped visited set.
            stamp = self._stamp
            self._gen += 1
            gen = self._gen
            for seed in queue:
                stamp[seed] = gen
                prev[seed] = -1
                via[seed] = -1
            seg_net = self._seg_net
            terminal = model.terminal_mask
            protected = self._protected
            usable = self._usable
            while head < len(queue):
                seg = queue[head]
                head += 1
                if seg == target:
                    found = True
                    break
                for nbr, switch_id in adjacency[seg]:
                    if stamp[nbr] == gen:
                        continue
                    if nbr != target and terminal[nbr]:
                        continue  # endpoint-only segments
                    if protection:
                        owner = protected[nbr]
                        if owner is not None and owner not in allowed_pin_ios:
                            continue  # reserved for a listed block pin
                    if not usable[nbr]:
                        continue
                    stamp[nbr] = gen
                    prev[nbr] = seg
                    via[nbr] = switch_id
                    push(nbr)
        else:
            # The common passes fold every accept/reject predicate into one
            # per-search bitmask: bit s of ``ok`` is set iff s may still be
            # pushed.  Exact because (a) an unvisited neighbour is never
            # own-net occupied — every own-net segment is a seed; (b) the
            # target is always free, usable, and (when protection is on)
            # protected only by a pin of this very connection, so its bit is
            # forced on; (c) clearing bits on push doubles as the visited
            # set; (d) ascending bit order equals the sorted adjacency
            # order, and ``switch_to`` keeps the first switch of a pair just
            # as the first visit would.
            if protection:
                ok = self._free_unprot_mask
                free = self._free_mask
                own_mask = self._own_mask
                for io in allowed_pin_ios:
                    owned = own_mask.get(io)
                    if owned:
                        ok |= free & owned
            else:
                ok = self._free_mask
            for seed in queue:
                ok &= ~(1 << seed)
                prev[seed] = -1
                via[seed] = -1
            ok |= 1 << target
            nbr_masks = model.nbr_masks
            switch_to = model.switch_to
            while head < len(queue):
                seg = queue[head]
                head += 1
                if seg == target:
                    found = True
                    break
                cand = nbr_masks[seg] & ok
                if cand:
                    ok ^= cand
                    first_sw = switch_to[seg]
                    while cand:
                        bit = cand & -cand
                        cand ^= bit
                        nbr = bit.bit_length() - 1
                        prev[nbr] = seg
                        via[nbr] = first_sw[nbr]
                        push(nbr)

        self._result.work += head
        if not found:
            return None
        path = []
        seg = target
        while seg != -1:
            path.append((seg, via[seg]))
            seg = prev[seg]
        path.reverse()
        return path

    def _find_blockers(
        self,
        sources: Sequence[int],
        target: int,
        net: int,
        allowed: Set[int],
    ) -> "Optional[List[int]]":
        """Nets obstructing the only available corridors (discovery pass)."""
        path = self._bfs(
            sources, target, net, allowed, protection=False, through_others=True
        )
        if path is None:
            return None
        seg_net = self._seg_net
        blockers = {
            seg_net[seg]
            for seg, _sw in path
            if seg_net[seg] is not None and seg_net[seg] != net
        }
        return sorted(blockers)

    # -- rip-up ------------------------------------------------------------------------

    def _rip_up(self, net: int, keep_pairs: bool = True) -> List[Pair]:
        """Tear a net down; return its processed pairs for re-queueing."""
        for seg in self._net_segs.pop(net, []):
            self._seg_net[seg] = None
            free_bit = self._clear_mask & (1 << seg)
            self._free_mask |= free_bit
            if self._protected[seg] is None:
                self._free_unprot_mask |= free_bit
        for macro, offset in self._net_switches.pop(net, []):
            self._result.open(macro, offset)
        pairs = self._net_pairs.pop(net, [])
        for io in [io for io, owner in self._net_of_io.items() if owner == net]:
            del self._net_of_io[io]
        return pairs if keep_pairs else []

    # -- the full list -------------------------------------------------------------------

    def decode(self, connections: Sequence[Pair]) -> DevirtResult:
        """Route the whole list in order; return closures and counters."""
        self.protect_pins(connections)
        queue = deque((pair, 0) for pair in connections)
        ripup_budget = max(16, 3 * len(connections))
        while queue:
            (in_io, out_io), tries = queue.popleft()
            blockers = self._route_pair(in_io, out_io)
            if blockers is None:
                continue
            if tries + 1 >= MAX_TRIES_PER_CONNECTION or ripup_budget <= 0:
                raise DevirtualizationError(
                    f"connection ({self.model.io_name(in_io)} -> "
                    f"{self.model.io_name(out_io)}) unroutable after "
                    f"{tries + 1} attempts and {self._result.ripups} rip-ups"
                )
            requeued: List[Tuple[Pair, int]] = []
            for victim in blockers:
                for pair in self._rip_up(victim):
                    requeued.append((pair, tries + 1))
                self._result.ripups += 1
                ripup_budget -= 1
            # The stuck connection routes first, then the victims retry.
            queue.appendleft(((in_io, out_io), tries + 1))
            for item in reversed(requeued):
                queue.insert(1, item)
        return self._result

    # Backwards-compatible single-connection entry point (tests, examples).
    def route_connection(self, in_io: int, out_io: int) -> None:
        blockers = self._route_pair(in_io, out_io)
        if blockers is not None:
            raise DevirtualizationError(
                f"connection ({self.model.io_name(in_io)} -> "
                f"{self.model.io_name(out_io)}) blocked by nets {blockers}"
            )
