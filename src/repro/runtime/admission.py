"""Admission control and the recorded-latency policy store.

The open-loop simulator models the reconfiguration controller as k
parallel FIFO servers; past the saturation knee a FIFO queue grows
without bound and every request — including the cheap cache-warm
re-arrivals the runtime exists to serve — pays the full backlog.  This
module supplies the QoS layer that decides *at the door* what happens
to a request when the queue is deep, plus the knowledge base those
decisions (and the fleet's load-aware router) read.

Policies (:data:`POLICY_KINDS`):

* ``none`` — every request is admitted; the pre-policy FIFO behavior.
* ``drop-cold`` — a *cold* request (its task neither fabric-resident
  nor decode-cache warm) arriving while the queue depth is at or past
  ``queue_threshold`` is rejected outright: its events never reach the
  fabric manager.  Hot requests always pass.
* ``defer-cold`` — same trigger, but the cold request is re-enqueued to
  retry once a server frees (bounded by ``max_defers`` attempts, after
  which it is admitted regardless — deferral must shed load, never
  livelock).
* ``priority`` — nothing is dropped or deferred; instead requests are
  dispatched on two lanes.  Hot requests take the earliest-free server
  (the FIFO behavior); cold requests run in the background lane — they
  start only once *every* server has drained its current backlog, so
  queued hot work is never stuck behind a cold decode.

Every policy carries a :class:`PolicyStore` — a small recorded-latency
knowledge base keyed on (task temperature, queue-depth bucket), the
runtime idiom of Zhou et al. 2022 (PAPERS.md): record what each class
of request actually cost under each observed load, and let schedulers
read the distribution back instead of guessing.  The simulator records
every serviced request into the store;
:class:`~repro.runtime.fleet.LoadAwareRouter` folds the store's
expected cold-request latency into its shard ordering whenever its
fleet carries one, and admission thresholds can be tuned from
:meth:`PolicyStore.tail_latency`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RuntimeManagementError

#: Supported admission policies of the open-loop virtual clock.
POLICY_KINDS = ("none", "drop-cold", "defer-cold", "priority")


def validate_policy_request(policy: str, queue_threshold: int = 4) -> None:
    """Reject unknown policy names and bad thresholds.

    Shared by :func:`make_policy` and the entry points that do expensive
    work before the replay (``run_scenario`` synthesizes full CAD flows
    first) — a typo'd policy name must fail in milliseconds, exit 2 at
    the CLI.
    """
    if policy not in POLICY_KINDS:
        raise RuntimeManagementError(
            f"unknown admission policy {policy!r}; known: {POLICY_KINDS}"
        )
    if queue_threshold < 1:
        raise RuntimeManagementError(
            "admission queue threshold must be at least one request"
        )


class PolicyStore:
    """Recorded request latencies keyed on (temperature, depth bucket).

    The Zhou-style knowledge base behind policy decisions: every
    serviced request is filed under whether it was *hot* (fabric
    resident or decode-cache warm — the cheap class) and the queue
    depth observed at its admission, bucketed to the powers of two in
    :data:`BUCKETS` so a handful of cells cover any load level.  Readers
    ask for the expected (mean) or tail latency of a class under a
    load; an empty cell falls back to the temperature's pooled samples,
    so a cautious answer exists as soon as anything was recorded.
    """

    #: Queue-depth bucket lower bounds (a depth files under the largest
    #: bound at or below it).
    BUCKETS = (0, 1, 2, 4, 8, 16)

    def __init__(self) -> None:
        self._samples: Dict[Tuple[bool, int], List[int]] = {}

    @classmethod
    def bucket(cls, depth: int) -> int:
        """The store cell a queue depth files under."""
        return max(b for b in cls.BUCKETS if b <= max(0, depth))

    def __len__(self) -> int:
        return sum(len(s) for s in self._samples.values())

    def record(self, hot: bool, depth: int, latency: int) -> None:
        """File one serviced request's end-to-end latency."""
        key = (bool(hot), self.bucket(depth))
        self._samples.setdefault(key, []).append(latency)

    def _pooled(self, hot: bool) -> List[int]:
        return [
            latency
            for (h, _b), samples in self._samples.items()
            if h == bool(hot)
            for latency in samples
        ]

    def has_samples(self, hot: bool, depth: int) -> bool:
        """Whether the exact (temperature, depth bucket) cell was measured.

        :meth:`expected_latency` answers *something* for any class as
        soon as one sample of the temperature exists (pooled fallback)
        and 0.0 before that — readers comparing classes must be able to
        tell a measured prediction from a pooled guess or the
        no-knowledge zero, or a never-measured class looks infinitely
        fast (the load-aware router bug this method fixes).
        """
        return bool(self._samples.get((bool(hot), self.bucket(depth))))

    def expected_latency(self, hot: bool, depth: int) -> float:
        """Mean recorded latency of a (temperature, load) class.

        Falls back to the temperature's pooled mean when the exact
        bucket is empty, and to 0.0 when nothing was recorded at all —
        a reader with no knowledge must not prefer any shard or
        threshold over another.  Use :meth:`has_samples` to distinguish
        a measured answer from those fallbacks.
        """
        samples = self._samples.get((bool(hot), self.bucket(depth)))
        if not samples:
            samples = self._pooled(hot)
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def tail_latency(self, hot: bool, depth: int, p: float = 99) -> Optional[int]:
        """Recorded p-th percentile latency of a class, or None."""
        from repro.runtime.costmodel import percentile

        samples = self._samples.get((bool(hot), self.bucket(depth)))
        if not samples:
            samples = self._pooled(hot)
        if not samples:
            return None
        return percentile(samples, p)

    def snapshot(self) -> dict:
        """A JSON-safe digest of the store (per-cell count/mean/p99)."""
        from repro.runtime.costmodel import percentile

        cells = {}
        for (hot, bucket), samples in self._samples.items():
            label = f"{'hot' if hot else 'cold'}@{bucket}"
            cells[label] = {
                "count": len(samples),
                "mean": sum(samples) / len(samples),
                "p99": percentile(samples, 99),
            }
        return {
            "samples": len(self),
            "cells": {label: cells[label] for label in sorted(cells)},
        }


class AdmissionPolicy:
    """Base admission policy: admit everything (the ``none`` behavior).

    :meth:`decide` returns one of ``"admit"``, ``"drop"`` or
    ``"defer"`` for a request observed at the door with a temperature
    (``hot``) and the current queue depth; a subclass sets ``shed``,
    what a cold request at or past the threshold gets.  ``store`` is
    the policy's :class:`PolicyStore` (a fresh one unless shared
    explicitly); the simulator records every serviced request into it.
    """

    kind = "none"
    shed: Optional[str] = None

    def __init__(
        self,
        queue_threshold: int = 4,
        store: Optional[PolicyStore] = None,
        max_defers: int = 8,
    ) -> None:
        validate_policy_request(self.kind, queue_threshold)
        if max_defers < 1:
            raise RuntimeManagementError(
                "deferral bound must be at least one attempt"
            )
        self.queue_threshold = queue_threshold
        self.store = store if store is not None else PolicyStore()
        self.max_defers = max_defers

    def decide(self, hot: bool, depth: int) -> str:
        if self.shed is not None and not hot and depth >= self.queue_threshold:
            return self.shed
        return "admit"


class DropColdPolicy(AdmissionPolicy):
    """Reject cold requests past the queue-depth threshold."""

    kind = "drop-cold"
    shed = "drop"


class DeferColdPolicy(AdmissionPolicy):
    """Re-enqueue cold requests past the threshold (bounded retries)."""

    kind = "defer-cold"
    shed = "defer"


class PriorityPolicy(AdmissionPolicy):
    """Two dispatch lanes: hot takes the earliest-free server, cold
    yields to all queued work (background lane).  Never drops."""

    kind = "priority"


_POLICY_CLASSES = {
    "drop-cold": DropColdPolicy,
    "defer-cold": DeferColdPolicy,
    "priority": PriorityPolicy,
}


def make_policy(
    policy: "str | AdmissionPolicy | None",
    queue_threshold: int = 4,
    store: Optional[PolicyStore] = None,
) -> Optional[AdmissionPolicy]:
    """Resolve a policy name to an instance (None for none/``"none"``).

    A pre-built :class:`AdmissionPolicy` passes through untouched, so
    callers can share one store across replays.
    """
    if policy is None:
        return None
    if isinstance(policy, AdmissionPolicy):
        return policy
    validate_policy_request(policy, queue_threshold)
    if policy == "none":
        return None
    cls = _POLICY_CLASSES[policy]
    return cls(queue_threshold=queue_threshold, store=store)
