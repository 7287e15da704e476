"""Decomposition-as-a-service: asyncio server, warm fleet, shared caches.

A long-lived front end over the strategy engine: requests in the
existing wire formats (``decompose``, ``decompose_many``, ``netsyn``)
arrive as ``repro-svc/1`` JSON lines and are served through a
single-flight coalescer, a sharded LRU-bounded result store, and a
pre-warmed multiprocessing fleet whose workers keep managers, engines,
and synthesizers warm across requests.  Results are byte-identical to
in-process runs (informational counters aside) — the service changes
*where and how often* work runs, never what it computes.

The stack's failure handling is testable by schedule: a seeded
:class:`FaultPlan` installed process-wide through :mod:`repro.obs`
delivers worker kills, pipe drops, slow responses, and cache-write
crashes at named sites, deterministically.
"""

from repro.obs.faults import FaultEvent, FaultPlan, InjectedFault
from repro.service.client import ServiceClient, ServiceError
from repro.service.coalesce import Coalescer
from repro.service.fleet import FleetTimeout, WorkerCrashed, WorkerFleet
from repro.service.metrics import render_prometheus
from repro.service.server import (
    DecompositionService,
    RateLimiter,
    ServerThread,
    ServiceServer,
    WorkerError,
)
from repro.service.shards import ShardedResultCache

__all__ = [
    "Coalescer",
    "DecompositionService",
    "FaultEvent",
    "FaultPlan",
    "FleetTimeout",
    "InjectedFault",
    "RateLimiter",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardedResultCache",
    "WorkerCrashed",
    "WorkerError",
    "WorkerFleet",
    "render_prometheus",
]
