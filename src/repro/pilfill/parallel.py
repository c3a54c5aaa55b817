"""Parallel per-tile dispatch for the PIL-Fill solve phase.

The per-tile MDFC instances are independent — the paper's tiled
formulation (and follow-ups such as the timing-aware fill flow of
arXiv:1711.01407) exploits exactly this. This module fans the tile
solves out over a worker pool and merges the outcomes deterministically:

* **Determinism.** Tiles carry their own RNG (seeded from the run seed
  and the tile key, see :func:`tile_rng`), so a stochastic method like
  the Normal baseline draws the same samples no matter which worker
  solves the tile or in which order tiles finish. The caller merges
  outcomes in dissection order, so any worker count / backend is
  bit-identical to the serial path.
* **One solve path, two backends.** Every tile is a
  :class:`TilePayload` (budget + seed + deadlines, *not* layout objects
  or cost tables) solved by :func:`solve_tile_payload` against its
  tile's cost columns. ``backend="thread"`` (and any serial dispatch)
  hands the solver the caller's prepared cost tables directly and fans
  out over a thread pool — right for the numeric solvers (scipy/HiGHS)
  that release the GIL during their solves. ``backend="process"`` ships
  the payloads to a process pool — right for the pure-Python methods
  (Greedy, DP, Normal, bundled branch-and-bound) whose hot loops hold
  the GIL and gain nothing from threads. The pool is *persistent*
  (reused across runs), and tiles travel in chunked batches that carry
  their own picklable columns — see :mod:`repro.pilfill.executor` for
  the dispatch machinery.
* **Per-tile timing.** Every outcome records its solve seconds so the
  hot tiles are visible from the CLI and harness.
* **Fault isolation.** A tile whose solve raises — or whose pool worker
  dies — never aborts the sweep: the dispatcher retries the tile once
  with the same derived RNG (attempt numbers, not shared counters, drive
  the retry so the contract holds across process boundaries), and
  records a failed :class:`TileOutcome` (``value=None``, ``error`` set)
  if the retry also fails. Timeouts are the exception: a deadline that
  fired once will fire again, so :class:`~repro.errors.SolveTimeoutError`
  fails the tile without a retry.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import FillError, SolveTimeoutError
from repro.obs.metrics import NULL_METRICS, Metrics, MetricsLike, MetricsSnapshot
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer, TracerLike

from repro.pilfill.costlike import TileCosts
from repro.pilfill.costs import ColumnCosts, PayloadColumnCosts
from repro.pilfill.robust import SolveReport, solve_tile_robust
from repro.pilfill.solution import TileSolution
from repro.testing.faults import FaultSpec

TileKey = tuple[int, int]

#: Accepted values of the ``backend`` knob.
PARALLEL_BACKENDS = ("thread", "process")

#: Dispatcher attempts per tile (1 + one retry).
MAX_ATTEMPTS = 2


def tile_rng(seed: int, key: TileKey) -> random.Random:
    """An RNG owned by one tile, reproducible regardless of solve order.

    String seeds hash through SHA-512 inside :class:`random.Random`, so
    the stream is stable across processes and interpreter hash
    randomization.
    """
    return random.Random(f"pilfill:{seed}:{key[0]}:{key[1]}")


@dataclass(frozen=True)
class TileOutcome:
    """One tile's solve result plus its wall-clock cost.

    ``value`` is ``None`` when every attempt failed (``error`` then holds
    the last failure — prefixed ``TIME_LIMIT:`` for deadline expiries —
    ``error_chain`` the fallback-rung history that preceded it, and
    ``retries`` how many retries were spent); otherwise ``report`` carries
    the tile's :class:`~repro.pilfill.robust.SolveReport`. ``spans`` / ``metrics``
    marshal the tile-local telemetry buffer back from pool workers; both
    stay empty when telemetry is off. ``pid`` records the process that
    produced the outcome, so pool reuse (stable worker PIDs across
    consecutive runs) is observable from the results.
    """

    key: TileKey
    value: TileSolution | None
    seconds: float
    report: SolveReport | None = None
    error: str | None = None
    retries: int = 0
    error_chain: tuple[str, ...] = ()
    spans: tuple[SpanRecord, ...] = ()
    metrics: MetricsSnapshot | None = None
    pid: int | None = None

    @property
    def failed(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class TilePayload:
    """Everything but the cost columns a worker needs to solve one tile.

    Built by :func:`make_tile_payload`; deliberately contains no layout,
    engine, dissection or cost-table objects, so pickling stays cheap and
    the columns travel exactly once, in the batch (see
    :class:`~repro.pilfill.executor.TileBatch`). MVDC payloads carry
    ``method="mvdc"`` and their ``delay_budget_ps`` (budget then acts as
    the feature-count cap).
    """

    key: TileKey
    method: str
    budget: int
    weighted: bool
    ilp_backend: str
    seed: int
    delay_budget_ps: float | None = None
    tile_deadline_s: float | None = None
    run_deadline: float | None = None  # absolute time.time() epoch
    fault_spec: FaultSpec | None = None
    telemetry: bool = False


def payload_columns(costs: Sequence[ColumnCosts]) -> tuple[PayloadColumnCosts, ...]:
    """Picklable column tables for one tile's :class:`ColumnCosts` list.

    Called only by the process dispatcher
    (:func:`~repro.pilfill.executor.dispatch_batches`), for each tile of
    each batch it submits; in-process dispatch needs no conversion. The
    views are cached on the prepared tables
    (:attr:`~repro.pilfill.costs.ColumnCosts.payload`), so a repeated run
    over one prepared instance does not rebuild them.
    """
    return tuple(cc.payload for cc in costs)


def make_tile_payload(
    key: TileKey,
    budget: int,
    *,
    method: str,
    weighted: bool,
    ilp_backend: str,
    seed: int,
    delay_budget_ps: float | None = None,
    tile_deadline_s: float | None = None,
    run_deadline: float | None = None,
    fault_spec: FaultSpec | None = None,
    telemetry: bool = False,
) -> TilePayload:
    """Compact payload for one tile (its cost columns travel separately,
    see :func:`dispatch_tile_payloads`)."""
    return TilePayload(
        key=key,
        method=method,
        budget=budget,
        weighted=weighted,
        ilp_backend=ilp_backend,
        seed=seed,
        delay_budget_ps=delay_budget_ps,
        tile_deadline_s=tile_deadline_s,
        run_deadline=run_deadline,
        fault_spec=fault_spec,
        telemetry=telemetry,
    )


def solve_tile_payload(
    payload: TilePayload, columns: TileCosts, attempt: int = 0
) -> TileOutcome:
    """Solve one tile through the robust fallback chain — in a pool worker
    or in the dispatching process.

    ``columns`` are the tile's cost tables: the prepared
    :class:`~repro.pilfill.costs.ColumnCosts` list in-process, or their
    :class:`~repro.pilfill.costs.PayloadColumnCosts` views in a pool
    worker. Either way the tables are bit-identical and the RNG is
    re-derived from ``(seed, key)``, so the solve is order-, host-,
    backend- and attempt-independent. ``attempt`` is the dispatcher attempt number
    (threaded to the fault hooks so transient faults fire on the first
    attempt only, regardless of which process runs the retry).

    With ``payload.telemetry`` the worker builds a tile-local tracer and
    metrics registry (single-owner, lock-free) and marshals the frozen
    snapshot back on the outcome for the dispatcher to merge.
    """
    tracer: TracerLike = Tracer() if payload.telemetry else NULL_TRACER
    metrics = Metrics() if payload.telemetry else None
    t0 = time.perf_counter()
    robust = solve_tile_robust(
        columns,
        payload.method,
        payload.budget,
        payload.weighted,
        payload.ilp_backend,
        tile_rng(payload.seed, payload.key),
        key=payload.key,
        delay_budget_ps=payload.delay_budget_ps,
        tile_deadline_s=payload.tile_deadline_s,
        run_deadline=payload.run_deadline,
        fault_spec=payload.fault_spec,
        attempt=attempt,
        tracer=tracer,
        metrics=metrics,
    )
    return TileOutcome(
        key=payload.key,
        value=robust.solution,
        seconds=time.perf_counter() - t0,
        report=robust.report,
        retries=attempt,
        spans=tracer.records(),
        metrics=metrics.snapshot() if metrics is not None else None,
        pid=os.getpid(),
    )


def _failed_outcome(key: TileKey, exc: BaseException, seconds: float, retries: int) -> TileOutcome:
    """Classify a terminal failure into a failed outcome.

    Deadline expiries are marked ``TIME_LIMIT:`` so reports (and readers
    of ``--trace-out`` output) can tell a timeout from a solver crash;
    the rung error history riding on :class:`SolveTimeoutError` is
    preserved in ``error_chain``.
    """
    if isinstance(exc, SolveTimeoutError):
        return TileOutcome(
            key=key,
            value=None,
            seconds=seconds,
            error=f"TIME_LIMIT: {exc}",
            retries=retries,
            error_chain=tuple(exc.rung_errors),
            pid=os.getpid(),
        )
    return TileOutcome(
        key=key,
        value=None,
        seconds=seconds,
        error=f"{type(exc).__name__}: {exc}",
        retries=retries,
        pid=os.getpid(),
    )


def _solve_payload_isolated(
    payload: TilePayload,
    columns: TileCosts,
    escalate: tuple[type[BaseException], ...] = (),
) -> TileOutcome:
    """In-process payload solve with the retry-then-fail policy applied.

    ``escalate`` lists exception types that must propagate instead of
    being retried here — the batch worker passes
    :class:`~repro.errors.WorkerDeathError` so a simulated worker death
    escapes to the *dispatcher*, whose parent-side retry is the
    contract being exercised (nothing inside a dead worker can run
    recovery code).
    """
    t0 = time.perf_counter()
    last: BaseException | None = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            return solve_tile_payload(payload, columns, attempt)
        except SolveTimeoutError as exc:
            return _failed_outcome(payload.key, exc, time.perf_counter() - t0, attempt)
        except escalate:
            raise
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            last = exc
    return _failed_outcome(payload.key, last, time.perf_counter() - t0, MAX_ATTEMPTS - 1)


def dispatch_tile_payloads(
    payloads: Sequence[TilePayload],
    workers: int = 1,
    *,
    costs: Mapping[TileKey, Sequence[ColumnCosts]],
    backend: str = "process",
    tracer: TracerLike = NULL_TRACER,
    metrics: MetricsLike = NULL_METRICS,
) -> dict[TileKey, TileOutcome]:
    """Solve tile payloads serially, on a thread pool, or on the
    persistent process pool.

    ``costs`` maps every payload's tile key to its prepared cost tables;
    a key missing from it raises :class:`~repro.errors.FillError` before
    anything is solved or submitted. An empty payload list returns an
    empty mapping before any pool is touched (a no-fill-needed run must
    not cost a pool). The returned mapping is ordered by ``payloads``
    regardless of completion order, giving a deterministic merge; results
    never depend on the backend or worker count.

    * ``backend="process"`` with ``workers > 1`` (and more than one
      payload) dispatches chunked :class:`~repro.pilfill.executor.
      TileBatch` submits on the persistent pool for that worker count;
      each batch carries picklable copies of its own tiles' columns
      (chunk sizes are auto-chosen, see
      :func:`~repro.pilfill.executor.chunk_payloads`).
      ``tracer``/``metrics`` receive per-batch spans and dispatch-cost
      metrics (payload bytes, batches, broken pools).
    * Otherwise the payloads are solved in this process against the
      prepared tables themselves — serially, or over a ``workers``-thread
      pool for ``backend="thread"``.

    A failing tile is retried once and then recorded as a failed
    :class:`TileOutcome` instead of aborting the sweep; a deadline expiry
    fails the tile without a retry. A pool worker that *dies* (broken
    pool) has its batch — and any batch stranded by the broken pool —
    re-solved in the parent process, which is attempt 1 of the same
    deterministic contract.
    """
    from repro.pilfill.executor import dispatch_batches

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend not in PARALLEL_BACKENDS:
        raise FillError(
            f"unknown parallel backend {backend!r}; expected one of {PARALLEL_BACKENDS}"
        )
    missing = [p.key for p in payloads if p.key not in costs]
    if missing:
        raise FillError(f"no cost tables for tile(s) {missing[:5]}")
    if not payloads:
        return {}
    if backend == "process" and workers > 1 and len(payloads) > 1:
        return dispatch_batches(
            payloads, workers, costs=costs, tracer=tracer, metrics=metrics
        )

    def solve(payload: TilePayload) -> TileOutcome:
        return _solve_payload_isolated(payload, costs[payload.key])

    if workers == 1 or len(payloads) <= 1:
        return {p.key: solve(p) for p in payloads}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map() preserves input order, giving the deterministic merge.
        return {outcome.key: outcome for outcome in pool.map(solve, payloads)}
