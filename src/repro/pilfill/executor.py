"""Persistent process-pool executor with chunked tile batches.

``BENCH_2026-08-05.json`` showed the process backend *losing* to serial
(greedy 0.09x, dp 0.49x) for a reason that has nothing to do with the
solves: every ``engine.run()`` cold-started a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` and submitted one future
per tile. The per-tile MDFC instances are embarrassingly parallel — the
dispatch was the bottleneck. This module removes both overheads while
keeping the bit-identity contract intact:

* **Persistent pools.** :func:`get_pool` lazily creates one pool per
  worker count and keeps it alive across ``engine.run()`` calls (the
  executor-reuse shape window-parallel density passes use in FFTPL-style
  placers, arXiv 1312.4587). Pools are parent-side state: worker
  processes re-import this module and see an empty registry, which is
  correct — they never dispatch. :func:`shutdown_pools` tears everything
  down explicitly; an ``atexit`` hook covers one-shot CLI use. A pool
  broken by a worker death is discarded and lazily rebuilt on the next
  dispatch.
* **Chunked dispatch.** Tiles ship in :class:`TileBatch` groups of
  dozens per submit (:func:`chunk_payloads`), so a 2 700-tile grid costs
  ~85 futures instead of 2 700. Results are unpacked in payload order
  regardless of completion order, preserving the deterministic merge.
* **Self-contained batches.** Each tile's MDFC instance needs only its
  own cost columns, so each batch carries exactly those:
  :func:`dispatch_batches` turns a batch's prepared
  :class:`~repro.pilfill.costs.ColumnCosts` into their picklable
  :class:`~repro.pilfill.costs.PayloadColumnCosts` views as it submits
  the batch — the one place that conversion happens. A worker is a pure
  function of the batch it is handed: no shared segment, no per-process
  cache, nothing that can go stale between runs or outlive a pool.

**Fork-safety.** Pools are created lazily on first dispatch, from the
dispatching (main) thread. Module state mutated in the parent *after*
that first fork is invisible to the workers — by design, nothing the
workers read lives in module state: every input arrives in the batch.
Telemetry stays single-owner: each worker builds per-tile buffers and
ships them back inside the outcome; exactly one outcome per tile is
merged by the parent (a batch that is re-solved after a worker death
discards the dead attempt's buffers wholesale rather than merging them
twice).
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import FillError, WorkerDeathError
from repro.obs.metrics import NULL_METRICS, MetricsLike
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pilfill.costs import ColumnCosts, PayloadColumnCosts
    from repro.pilfill.parallel import TileKey, TileOutcome, TilePayload

#: Upper bound on the auto-chosen tiles-per-batch (see :func:`chunk_payloads`).
MAX_AUTO_BATCH = 64

#: Batches per worker the auto chunking aims for — enough slack that a
#: fast worker is never idle waiting for one straggler batch.
BATCHES_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Worker entry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TileBatch:
    """Dozens of tile tasks shipped as one pool submit: the payloads and,
    index for index, the picklable cost columns of their tiles."""

    payloads: tuple[TilePayload, ...]
    columns: tuple[tuple[PayloadColumnCosts, ...], ...]


def solve_tile_batch(batch: TileBatch) -> list[TileOutcome]:
    """Solve one batch inside a pool worker.

    Per-tile policy, the same as the serial dispatcher's: a deadline
    expiry is recorded as a ``TIME_LIMIT`` failed outcome (a deadline
    that fired will fire again, and the batch's remaining tiles still
    deserve their turn); any other solve error is retried once in place
    with the same derived RNG and then recorded as failed. Only
    :class:`~repro.errors.WorkerDeathError` escapes — nothing inside a
    dead worker can run recovery code, so the *parent* re-solves the
    whole batch (see :func:`dispatch_batches`). Exactly one outcome per
    tile ever leaves this function, so the parent can never merge a
    failed attempt's telemetry buffers alongside the retry's.
    """
    from repro.pilfill.parallel import _solve_payload_isolated

    return [
        _solve_payload_isolated(payload, columns, escalate=(WorkerDeathError,))
        for payload, columns in zip(batch.payloads, batch.columns)
    ]


# ---------------------------------------------------------------------------
# Persistent pool registry (parent side)
# ---------------------------------------------------------------------------


class _PoolRegistry:
    """Lazily-created process pools keyed by worker count.

    Parent-side state: dispatchers in the main process borrow pools from
    here; worker processes never touch the registry (a freshly imported
    copy in a worker is empty, which is correct). All mutation happens
    under the lock, per the C2xx concurrency rules.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: dict[int, ProcessPoolExecutor] = {}
        self._created = 0

    def get(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool for ``workers``, created on first use."""
        if workers < 2:
            raise FillError(f"persistent pools need workers >= 2, got {workers}")
        with self._lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
                self._pools[workers] = pool
                self._created += 1
            return pool

    def discard(self, workers: int) -> None:
        """Drop (and shut down) the pool for ``workers`` — called after a
        :class:`BrokenProcessPool` so the next dispatch rebuilds it."""
        with self._lock:
            pool = self._pools.pop(workers, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Shut every pool down and empty the registry (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> dict[str, int]:
        """Live pool count and lifetime creations (test/obs hook)."""
        with self._lock:
            return {"live": len(self._pools), "created": self._created}


#: The process-wide registry (parent-only; see :class:`_PoolRegistry`).
_REGISTRY = _PoolRegistry()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool for ``workers`` (created lazily, reused across
    ``engine.run()`` calls until :func:`shutdown_pools`)."""
    return _REGISTRY.get(workers)


def discard_pool(workers: int) -> None:
    """Forget a broken pool so the next dispatch starts a fresh one."""
    _REGISTRY.discard(workers)


def shutdown_pools() -> None:
    """Explicitly shut down every persistent pool.

    Long-lived embedders should call this when parallel filling is done;
    one-shot CLI runs are covered by the ``atexit`` registration below.
    """
    _REGISTRY.shutdown()


def pool_stats() -> dict[str, int]:
    """Registry introspection: live pools and lifetime pool creations."""
    return _REGISTRY.stats()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Chunked dispatch (parent side)
# ---------------------------------------------------------------------------


def chunk_payloads(
    payloads: Sequence[TilePayload], workers: int
) -> list[tuple[TilePayload, ...]]:
    """Split ``payloads`` into submit-sized chunks, preserving order.

    Enough batches that every worker gets ~:data:`BATCHES_PER_WORKER` of
    them (so one slow batch cannot idle the rest of the pool), capped at
    :data:`MAX_AUTO_BATCH` tiles per submit. Chunking never affects
    results — only how many futures carry them.
    """
    n = len(payloads)
    per_batch = -(-n // (workers * BATCHES_PER_WORKER))  # ceil div
    size = max(1, min(MAX_AUTO_BATCH, per_batch))
    return [tuple(payloads[i : i + size]) for i in range(0, n, size)]


def dispatch_batches(
    payloads: Sequence[TilePayload],
    workers: int,
    *,
    costs: Mapping[TileKey, Sequence[ColumnCosts]],
    tracer: TracerLike = NULL_TRACER,
    metrics: MetricsLike = NULL_METRICS,
) -> dict[TileKey, TileOutcome]:
    """Solve ``payloads`` on the persistent process pool in chunked batches.

    Each :class:`TileBatch` carries the picklable columns of its own
    tiles, converted from ``costs`` as the batch is submitted, so the
    first batches are solving while later ones are still being built.
    The parent waits for the batches in submission order and re-keys
    outcomes by payload order — the merge is deterministic no matter how
    the pool schedules batches. Failure policy per batch future:

    * :class:`BrokenProcessPool` (a worker actually died): the broken
      pool is discarded from the registry, and this batch — plus any
      batch stranded behind it — is re-solved *in the parent* at attempt
      1 of the same deterministic contract (payload RNGs re-derive from
      ``(seed, key)``, so results match what the worker would have
      produced).
    * any other escaping exception (e.g. an injected
      :class:`~repro.errors.WorkerDeathError`): same parent-side attempt-1
      re-solve, pool kept.

    The re-solve *replaces* the batch wholesale; outcomes (and their
    telemetry buffers) from the failed attempt never reach the caller,
    so span/metric totals count every tile exactly once.
    """
    from repro.pilfill.parallel import payload_columns

    chunks = chunk_payloads(payloads, workers)
    if not chunks:
        return {}

    pool = get_pool(workers)
    batches: list[TileBatch] = []
    futures: list[Future[list[TileOutcome]]] = []
    for chunk in chunks:
        batch = TileBatch(
            payloads=chunk,
            columns=tuple(payload_columns(costs[p.key]) for p in chunk),
        )
        metrics.count("pool.batches")
        metrics.count("pool.tiles_submitted", len(chunk))
        if metrics is not NULL_METRICS:
            # What actually crosses the pickle boundary per submit.
            metrics.count("pool.payload_bytes", len(pickle.dumps(batch)))
        batches.append(batch)
        futures.append(pool.submit(solve_tile_batch, batch))

    by_key: dict[TileKey, TileOutcome] = {}
    for index, (batch, future) in enumerate(zip(batches, futures)):
        with tracer.span("solve.batch", index=index, tiles=len(batch.payloads)):
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                discard_pool(workers)
                metrics.count("pool.broken")
                outcomes = _resolve_batch_in_parent(batch)
            except Exception:  # noqa: BLE001 - isolation is the point
                outcomes = _resolve_batch_in_parent(batch)
        for outcome in outcomes:
            by_key[outcome.key] = outcome
    # Re-key in payload order for the deterministic merge.
    return {p.key: by_key[p.key] for p in payloads}


def _resolve_batch_in_parent(batch: TileBatch) -> list[TileOutcome]:
    """Re-solve a whole batch in the parent process.

    Used when the batch's worker died (really, or via an injected
    :class:`~repro.errors.WorkerDeathError`). The failed attempt returned
    nothing, so every outcome built here is the *only* one the caller
    sees for these tiles — the single-merge guarantee the telemetry
    totals rely on.

    Each tile replays the standard isolated policy from attempt 0:
    batchmates of the dying tile (whose own solves never failed) come
    back with ``retries=0``, exactly as the pre-batching per-tile
    dispatcher reported them, while the tile whose injected death
    re-fires on attempt 0 spends its one retry — matching the
    deterministic retry contract across process boundaries. A fault that
    persists into attempt 1 is recorded as failed rather than raised.
    """
    from repro.pilfill.parallel import _solve_payload_isolated

    return [
        _solve_payload_isolated(payload, columns)
        for payload, columns in zip(batch.payloads, batch.columns)
    ]


def worker_pids(outcomes: Mapping[TileKey, TileOutcome]) -> frozenset[int]:
    """Distinct worker PIDs that produced ``outcomes`` (excluding the
    current process — i.e. excluding serial/parent-retry solves)."""
    me = os.getpid()
    return frozenset(
        o.pid for o in outcomes.values() if o.pid is not None and o.pid != me
    )
