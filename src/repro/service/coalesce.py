"""In-flight request coalescing for the decomposition service.

When several clients ask for the same decomposition at the same time,
only the first should pay for it.  The :class:`Coalescer` keys in-flight
work by the request's canonical cache key — backend-free, so a ``bdd``
and a ``bitset`` request for the same function coalesce soundly (the
engine guarantees identical results on every backend) — and parks every
duplicate on the shared flight.

Each flight runs as a **detached task owned by the coalescer**, not by
the arrival that started it: every waiter (leader and followers alike)
awaits the task through :func:`asyncio.shield`, so one cancelled client
— a hangup, or a connection torn down by the server — never cancels the
shared computation under the others.  Even if *every* waiter is
cancelled, the flight runs to completion and retires cleanly, so a
later request on the same key starts a fresh flight instead of
inheriting a corpse.  A flight's failure is shared too — every parked
duplicate sees the same exception, matching what N independent
computations would have raised — and retires the key just as cleanly.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.obs import trace as _obs


class Coalescer:
    """Single-flight gate over an async computation, keyed by string."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Task] = {}
        self.stats = {"leaders": 0, "followers": 0}

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: str, compute: Callable[[], Awaitable]
    ) -> tuple[object, bool]:
        """Run ``compute`` once per concurrent ``key``; share the value.

        Returns ``(value, coalesced)`` — ``coalesced`` is ``False`` for
        the arrival that started the flight and ``True`` for every
        duplicate served from it.
        """
        flight = self._inflight.get(key)
        if flight is not None and not flight.done():
            self.stats["followers"] += 1
            # The follower's trace records only the wait; the span links
            # to the leader's trace id so a reader can jump to the trace
            # that actually holds the compute spans.
            with _obs.span("coalesce.follower", key=key[:16]) as sp:
                sp.annotate(leader_trace=getattr(flight, "_obs_trace_id", None))
                return await asyncio.shield(flight), True

        # Chaos window: failing the leader *here* — after the key was
        # checked but before the flight exists — must not poison the key
        # for later arrivals (nothing was registered yet).
        _obs.fire("coalesce.flight", key=key)

        async def traced_compute():
            # create_task copied the leader's context, so this span — and
            # every compute span beneath it — nests under the leader's
            # request trace even though the flight task is detached from
            # (and outlives) its waiters.
            with _obs.span("coalesce.leader", key=key[:16]):
                return await compute()

        flight = asyncio.get_running_loop().create_task(traced_compute())
        flight._obs_trace_id = _obs.current_trace_id()
        self._inflight[key] = flight
        self.stats["leaders"] += 1

        def _retire(task: asyncio.Task) -> None:
            # Only retire our own entry: a completed flight may already
            # have been replaced by a newer one for the same key.
            if self._inflight.get(key) is task:
                del self._inflight[key]
            # Mark a failure retrieved so a flight whose waiters were
            # all cancelled does not log "exception was never retrieved".
            if not task.cancelled():
                task.exception()

        flight.add_done_callback(_retire)
        return await asyncio.shield(flight), False

    def coalesce_rate(self) -> float:
        """Fraction of arrivals that were absorbed into another flight."""
        total = self.stats["leaders"] + self.stats["followers"]
        return self.stats["followers"] / total if total else 0.0

    def __repr__(self) -> str:
        return f"Coalescer(inflight={len(self._inflight)}, stats={self.stats})"


__all__ = ["Coalescer"]
