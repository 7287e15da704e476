"""Contextvar-scoped span tracing and the process-wide site hook.

A :class:`Tracer` and a :class:`~repro.obs.faults.FaultPlan` install
here side by side (:func:`install`); forked fleet workers inherit both.
A site opens a span (:func:`span` fires the plan for it, then opens the
span) or, where nothing is timed, calls :func:`fire`.  With nothing
installed a span is a shared no-op singleton, costing two global reads.

Spans form trees: the first span opened in a context starts a new
trace; nested spans (same task, thread, or ``contextvars`` copy) become
children.  Timing uses :data:`CLOCK` (``time.perf_counter`` —
``CLOCK_MONOTONIC``, shared by parent and forked children on Linux);
finished spans are serialized immediately to plain JSON-safe dicts with
epoch timestamps via the tracer's ``(epoch, clock)`` anchor, so worker
and server spans align on one host timeline.

Crossing process boundaries:

* the parent captures :func:`current_context` — a small
  ``{"trace_id", "span_id"}`` dict — and ships it over the fleet pipe;
* the worker wraps its compute in :meth:`Tracer.remote`, which grafts
  new spans under the shipped parent, then returns
  :meth:`Tracer.pop_trace` payloads on the reply envelope;
* the server calls :func:`absorb` to merge them back into the live
  trace before the request's root span closes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.obs.faults import FaultPlan

#: The span clock.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux:
#: system-wide, unaffected by clock steps, and valid across ``fork()``
#: — which is what lets worker spans share the server's timeline.
CLOCK: Callable[[], float] = time.perf_counter

#: Span statuses a site may report.
STATUSES = ("ok", "error", "timeout")

#: Every named site across the stack: one vocabulary for spans, fault
#: plans, histograms and bench breakdowns (any other name works too).
#: :meth:`~repro.obs.faults.FaultPlan.generate` draws from it by default,
#: so the fault sites must keep their relative order.
SITES = (
    "server.request",
    "server.admission",
    "coalesce.leader",
    "coalesce.follower",
    "cache.get",
    "cache.put",
    "cache.journal",
    "fleet.call.sent",  # point site, fired with the slot in context
    "fleet.checkout",
    "fleet.roundtrip",
    "worker.compute",
    # point sites: the coalescer flight boundary, the cache-write steps
    "coalesce.flight",
    "server.compute.start",
    "server.compute.computed",
    "cache.put.serialized",
    "cache.put.journaled",
    "cache.put.entry_written",
    "cache.put.renamed",
    "engine.dispatch",
    "engine.approximate",
    "engine.quotient",
    "engine.minimize",
    "engine.verify",
    "bdd.reorder",
    "netsyn.synthesize",
    "netsyn.cover",
)

_CURRENT: ContextVar[Any] = ContextVar("repro_obs_current_span", default=None)


class _NullSpan:
    """Shared do-nothing span returned when no tracer is installed."""

    __slots__ = ()

    trace_id = None
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **attrs: object) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


_NULL = _NullSpan()


class _RemoteParent:
    """Stand-in parent for spans grafted under a shipped context."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


class _ActiveSpan:
    """A live span; also the context manager returned by :func:`span`."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "site",
        "attrs",
        "status",
        "_start",
        "_tracer",
        "_token",
    )

    def __init__(self, tracer: "Tracer", site: str, attrs: dict) -> None:
        parent = _CURRENT.get()
        if parent is None:
            self.trace_id = tracer._new_id("t")
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = tracer._new_id("s")
        self.site = site
        self.attrs = attrs
        self.status: str | None = None
        self._tracer = tracer
        self._start = CLOCK()
        self._token = _CURRENT.set(self)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def annotate(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def set_status(self, status: str) -> None:
        self.status = status

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = CLOCK()
        _CURRENT.reset(self._token)
        if self.status is None:
            self.status = "error" if exc_type is not None else "ok"
        self._tracer._finish(self, end)
        return False


class Tracer:
    """Process-wide span collector with a bounded per-trace buffer.

    Finished spans are serialized to plain dicts immediately and grouped
    by ``trace_id`` until someone (the service's request wrapper, or a
    worker's reply path) pops the whole trace.  Traces that are never
    popped — orphan spans from detached flight tasks, in-process engine
    use — are evicted oldest-first once ``capacity`` traces are
    buffered, so an installed-but-unharvested tracer cannot grow without
    bound.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = max(1, int(capacity))
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._by_trace: dict[str, list[dict]] = {}
        self.spans_finished = 0
        self.traces_dropped = 0
        # Epoch anchor: perf_counter deltas are rebased onto time.time()
        # at construction, so serialized spans carry epoch seconds that
        # agree between the server and its forked workers.
        self.anchor_epoch = time.time()
        self.anchor_clock = CLOCK()

    # -- span lifecycle -------------------------------------------------

    def span(self, site: str, **attrs: object) -> _ActiveSpan:
        return _ActiveSpan(self, site, attrs)

    def _new_id(self, prefix: str) -> str:
        return f"{prefix}{os.getpid():x}-{next(self._seq):x}"

    def to_epoch(self, clock_t: float) -> float:
        return self.anchor_epoch + (clock_t - self.anchor_clock)

    def _finish(self, span: _ActiveSpan, end: float) -> None:
        payload = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "site": span.site,
            "t0": self.to_epoch(span._start),
            "t1": self.to_epoch(end),
            "status": span.status,
            "pid": os.getpid(),
            "attrs": span.attrs,
        }
        with self._lock:
            self.spans_finished += 1
            self._bucket(span.trace_id).append(payload)

    def _bucket(self, trace_id: str) -> list[dict]:
        """Span list of ``trace_id``; a new trace evicts the oldest (lock held)."""
        bucket = self._by_trace.get(trace_id)
        if bucket is None:
            while len(self._by_trace) >= self.capacity:
                del self._by_trace[next(iter(self._by_trace))]
                self.traces_dropped += 1
            bucket = self._by_trace[trace_id] = []
        return bucket

    # -- harvesting -----------------------------------------------------

    def pop_trace(self, trace_id: str) -> list[dict]:
        """Remove and return every finished span of ``trace_id``."""
        with self._lock:
            return self._by_trace.pop(trace_id, [])

    def absorb(self, spans: Iterable[dict]) -> None:
        """Merge spans serialized by another process into the buffer."""
        with self._lock:
            for payload in spans:
                trace_id = payload.get("trace_id")
                if not isinstance(trace_id, str):
                    continue
                self.spans_finished += 1
                self._bucket(trace_id).append(payload)

    def remote(self, ctx: dict) -> "_RemoteScope":
        """Graft spans opened inside the scope under a shipped parent.

        ``ctx`` is the dict produced by :func:`current_context` on the
        other side of a pipe.  Used by fleet workers so their
        ``worker.compute`` / engine spans become children of the
        server's ``fleet.roundtrip`` span.
        """
        return _RemoteScope(ctx)

    # -- bookkeeping ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "spans_finished": self.spans_finished,
                "traces_buffered": len(self._by_trace),
                "traces_dropped": self.traces_dropped,
            }

    def _after_fork(self) -> None:
        # Locks and buffered spans belong to the parent; a freshly
        # forked worker starts clean (its contextvar slate is wiped too
        # so prewarm-time spans don't attach to a stale parent trace).
        self._lock = threading.Lock()
        self._by_trace = {}
        self.spans_finished = 0
        self.traces_dropped = 0
        _CURRENT.set(None)


class _RemoteScope:
    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: dict) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> "_RemoteScope":
        parent = _RemoteParent(str(self._ctx["trace_id"]), str(self._ctx["span_id"]))
        self._token = _CURRENT.set(parent)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


# -- the process-wide site hook -----------------------------------------

_TRACER: Tracer | None = None
_PLAN: FaultPlan | None = None


def _swap(hook: Tracer | FaultPlan | None, tracer_slot: bool):
    """Put ``hook`` in the tracer or plan slot; return the slot's old value."""
    global _TRACER, _PLAN
    if tracer_slot:
        previous, _TRACER = _TRACER, hook
    else:
        previous, _PLAN = _PLAN, hook
    return previous


def install(hook: Tracer | FaultPlan | None = None) -> Tracer | FaultPlan:
    """Install a :class:`Tracer` or a ``FaultPlan`` process-wide; return it.

    With no argument, installs and returns a fresh :class:`Tracer`.
    Install before constructing a fleet so forked workers inherit it
    (their plan counters start from the parent's, zero before traffic).
    """
    hook = Tracer() if hook is None else hook
    _swap(hook, isinstance(hook, Tracer))
    return hook


def uninstall() -> None:
    """Remove the tracer and the plan; every site reverts to a no-op."""
    global _TRACER, _PLAN
    _TRACER = _PLAN = None


def active() -> Tracer | None:
    """Return the installed tracer, or ``None``."""
    return _TRACER


def active_plan() -> FaultPlan | None:
    """Return the installed fault plan, or ``None``."""
    return _PLAN


@contextmanager
def installed(hook: Tracer | FaultPlan | None = None):
    """Install ``hook`` for the scope; restore the previous one on exit.

    ``hook`` is a :class:`Tracer` (a fresh one by default) or a
    ``FaultPlan``; each kind restores only its own slot, so the two
    nest freely::

        with obs.installed(FaultPlan.generate(seed=1)):
            with obs.installed() as tracer:
                ...  # faults fire and spans record into `tracer`
    """
    hook = Tracer() if hook is None else hook
    tracer_slot = isinstance(hook, Tracer)
    previous = _swap(hook, tracer_slot)
    try:
        yield hook
    finally:
        _swap(previous, tracer_slot)


def fire(site: str, **context: object) -> None:
    """A point site: deliver ``site`` to the installed plan, if any."""
    plan = _PLAN
    if plan is not None:
        plan.fire(site, **context)


def span(site: str, **attrs: object):
    """Fire the plan for ``site``, then open a span there.

    The plan fires with no context, so span attributes never reach a
    fault action.  With no tracer installed the span is the shared
    no-op singleton.
    """
    fire(site)
    tracer = _TRACER
    if tracer is None:
        return _NULL
    return tracer.span(site, **attrs)


def current_context() -> dict | None:
    """The ``{"trace_id", "span_id"}`` of the current span, for shipping."""
    if _TRACER is None:
        return None
    current = _CURRENT.get()
    if current is None:
        return None
    return {"trace_id": current.trace_id, "span_id": current.span_id}


def current_trace_id() -> str | None:
    current = _CURRENT.get()
    return None if current is None else current.trace_id


def absorb(spans: Iterable[dict] | None) -> None:
    """Merge remotely-serialized spans into the installed tracer."""
    if spans and _TRACER is not None:
        _TRACER.absorb(spans)


def _reset_after_fork() -> None:
    if _TRACER is not None:
        _TRACER._after_fork()


os.register_at_fork(after_in_child=_reset_after_fork)
