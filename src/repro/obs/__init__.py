"""Span tracing and fault injection over one set of named sites.

``repro.obs`` is deliberately standalone — it imports nothing from the
rest of :mod:`repro` — so every layer (engine, BDD manager, netsyn,
service) can instrument itself by importing :func:`span` or
:func:`fire` directly without creating dependency cycles or dragging
the service stack into engine-only processes.

* :func:`install` / :func:`installed` / :func:`uninstall` manage the one
  process-wide site hook: a :class:`Tracer` and a :class:`FaultPlan`
  side by side (:func:`active` / :func:`active_plan`).  Forked workers
  inherit both, so worker spans join the server's traces and
  ``worker.compute`` faults reach the far side of the pipe.
* :func:`span` is the instrumentation primitive: it fires the plan for
  its site, then opens a span.  With nothing installed it returns a
  shared no-op singleton.  :func:`fire` is the point-site form, for
  passages that are not timed.
* :data:`SITES` is the one site vocabulary.

Higher layers add :class:`~repro.obs.store.TraceStore` (bounded ring
buffer of reassembled traces), :class:`~repro.obs.hist.LatencyHistograms`
(fixed-bucket per-site latency with exemplar trace ids), and
:func:`~repro.obs.export.chrome_trace` (Perfetto-loadable Chrome
trace-event JSON).
"""

from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.faults import GENERATED_ACTIONS, FaultEvent, FaultPlan, InjectedFault
from repro.obs.hist import DEFAULT_BUCKETS, LatencyHistograms
from repro.obs.store import TraceStore
from repro.obs.trace import (
    CLOCK,
    SITES,
    Tracer,
    absorb,
    active,
    active_plan,
    current_context,
    current_trace_id,
    fire,
    install,
    installed,
    span,
    uninstall,
)

__all__ = [
    "CLOCK",
    "DEFAULT_BUCKETS",
    "GENERATED_ACTIONS",
    "SITES",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "LatencyHistograms",
    "TraceStore",
    "Tracer",
    "absorb",
    "active",
    "active_plan",
    "chrome_trace",
    "current_context",
    "current_trace_id",
    "fire",
    "install",
    "installed",
    "span",
    "uninstall",
    "validate_chrome_trace",
]
