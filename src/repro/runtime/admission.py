"""Admission control at the arrival door of the open-loop clock.

The open-loop simulator models the reconfiguration controller as k
parallel FIFO servers; past the saturation point a FIFO queue grows
without bound and every request — including the cheap cache-warm
re-arrivals the runtime exists to serve — pays the full backlog.  This
module decides *at the door* what happens to a request when the queue
is deep.

Policies (:data:`POLICY_KINDS`):

* ``none`` — every request is admitted; the plain FIFO behavior.
* ``defer-cold`` — a *cold* request (its task neither fabric-resident
  nor decode-cache warm) arriving while the queue depth is at or past
  ``queue_threshold`` is re-enqueued to retry once a server frees,
  at most :data:`MAX_DEFERS` times, after which it is admitted
  regardless — deferral must shed load, never livelock.  Hot requests
  always pass.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RuntimeManagementError

#: Supported admission policies of the open-loop virtual clock.
POLICY_KINDS = ("none", "defer-cold")

#: Deferrals a cold request may take before it is admitted regardless.
MAX_DEFERS = 8


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


def make_policy(
    policy: Optional[str], queue_threshold: int = 4
) -> Optional[str]:
    """The armed policy name, or None for ``None``/``"none"``."""
    if policy is None:
        return None
    validate_policy_request(policy, queue_threshold)
    return None if policy == "none" else policy


def defers(hot: bool, depth: int, queue_threshold: int, attempts: int) -> bool:
    """Whether ``defer-cold`` re-enqueues a request met at the door.

    ``attempts`` counts the deferrals the request already took.
    """
    return not hot and depth >= queue_threshold and attempts < MAX_DEFERS
