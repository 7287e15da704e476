"""Multiprocessing worker pool for batch decomposition.

Work items cross the process boundary as plain dicts: the function in
canonical :mod:`repro.bdd.serialize` form plus registry-name strategy
specs.  Each worker rebuilds the function in a fresh BDD manager that
declares exactly the variables of the parent's shared manager, runs a
fresh :class:`~repro.engine.decomposer.Decomposer`, and returns the
result as a :mod:`repro.engine.wire` payload.  Because every strategy is
deterministic (seeded RNGs, deterministic heuristics) and the managers
agree on the variable slice, a worker's payload is identical to what the
in-process path would produce — ``jobs=1`` and ``jobs=N`` runs yield the
same covers and metrics, in the same input order.

The bootstrap is split so long-lived workers (the service fleet of
:mod:`repro.service`) can reuse it with *warm* state:
:func:`build_engine` constructs the engine an item asks for, and
:func:`decompose_item` accepts an existing manager/engine pair — a
pre-warmed worker skips manager construction and keeps the engine's
divisor/cover memos across requests.

:func:`run_parallel` is the one pool for one-shot batches: it serves
``decompose_many(jobs>1)`` and the paper-table rows of
``run_benchmarks(jobs>1)`` alike.  Worker exceptions (e.g.
:class:`~repro.engine.decomposer.VerificationError`) propagate to the
parent with their own type and fail the batch, matching the serial
path.
"""

from __future__ import annotations

import multiprocessing


def make_work_item(
    name: str,
    f_payload: dict,
    op: str,
    approximator: str,
    minimizer: str,
    verify: bool,
    operators: tuple[str, ...],
    backend: str = "auto",
    reorder_threshold: int | None = None,
) -> dict:
    """Bundle one request as a picklable work item.

    ``operators`` is the parent engine's search space (canonical names),
    forwarded so a worker's ``op="auto"`` ranks the same candidate set.
    ``backend`` is the parent's backend spec; a worker re-resolves
    ``"auto"`` against the rebuilt function — same function, same
    support, same decision — so per-item dispatch survives the process
    boundary (and cannot change the result either way).
    ``reorder_threshold`` forwards the parent's reorder policy so warm
    workers (the service fleet) bound their managers the same way; it
    never affects results, only worker memory.
    """
    return {
        "name": name,
        "f": f_payload,
        "op": op,
        "approximator": approximator,
        "minimizer": minimizer,
        "verify": verify,
        "operators": list(operators),
        "backend": backend,
        "reorder_threshold": reorder_threshold,
    }


def engine_spec_key(item: dict) -> tuple:
    """Hashable identity of the engine a work item needs.

    Two items with the same key can share one warm
    :class:`~repro.engine.decomposer.Decomposer` (and its memos) without
    changing either result.
    """
    return (
        item["approximator"],
        item["minimizer"],
        tuple(item["operators"]),
        bool(item["verify"]),
        item.get("backend", "auto"),
        item.get("reorder_threshold"),
    )


def build_engine(item: dict):
    """Construct the engine one work item asks for (the bootstrap)."""
    from repro.engine.decomposer import Decomposer

    return Decomposer(
        approximator=item["approximator"],
        minimizer=item["minimizer"],
        operators=item["operators"],
        verify=item["verify"],
        backend=item.get("backend", "auto"),
        reorder_threshold=item.get("reorder_threshold"),
    )


def decompose_item(item: dict, mgr=None, engine=None) -> dict:
    """Run one work item and return its wire payload.

    ``mgr`` rebuilds the function into an existing (warm) manager
    instead of a fresh one — it must declare the item's variables in
    the same relative order; ``engine`` reuses an existing engine whose
    configuration matches :func:`engine_spec_key` of the item.  Both
    default to fresh construction (the one-shot pool path).  Warm or
    cold, the payload is identical: strategies are deterministic and
    memo hits return exactly what recomputation would.
    """
    from repro.engine import wire

    f = wire.isf_from_payload(item["f"], mgr)
    if engine is None:
        engine = build_engine(item)
    result = engine.decompose(f, item["op"], name=item["name"])
    return wire.result_to_payload(result)


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, POSIX) and fall back to the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_parallel(func, items: list, jobs: int) -> list:
    """Map ``func`` over ``items`` on a fresh pool of ``jobs`` workers.

    The one process pool for one-shot batches: it forks
    ``min(jobs, len(items))`` workers, hands them one item at a time and
    tears them down on return.  ``Pool.map`` returns results in
    submission order regardless of worker scheduling, so reassembly is
    deterministic by construction, and a worker's exception is re-raised
    here with its own type.
    """
    if not items:
        return []
    with pool_context().Pool(processes=min(jobs, len(items))) as pool:
        return pool.map(func, items, chunksize=1)


__all__ = [
    "build_engine",
    "decompose_item",
    "engine_spec_key",
    "make_work_item",
    "pool_context",
    "run_parallel",
]
