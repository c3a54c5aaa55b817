"""End-to-end PIL-Fill engine (paper Sections 5-6 flow).

Pipeline per layer:

1. build the fixed r-dissection and (lazily) the pre-fill density map,
2. compute per-tile fill budgets with the density-control baseline
   (Min-Var LP or Monte-Carlo, ref [3]),
3. run the scan-line to extract slack columns (definition I/II/III),
4. clamp budgets to column capacity (the definition-I/II shortfall the
   paper describes surfaces here),
5. solve each tile's MDFC instance with the chosen method and place the
   features into column sites,
6. return the placement plus bookkeeping (budgets, per-tile solutions,
   phase and per-tile runtimes).

Steps 1 and 3 (plus cost-table construction) depend only on the layout
geometry and rules, not on the method: they live in a
:class:`~repro.pilfill.prepare.PreparedInstance` that is built once and
shared across runs — pass one to the constructor to reuse it (the
experiment harness does this so every method of a configuration shares a
single preprocessing pass). Step 5 is embarrassingly parallel across
tiles; ``EngineConfig.workers`` fans it out over a worker pool with a
deterministic merge, so ``workers=N`` output is bit-identical to serial.
``EngineConfig.parallel_backend`` picks the pool flavor: ``"thread"``
(shared read-only cost tables; right for GIL-releasing numeric solvers)
or ``"process"`` (compact picklable tile payloads shipped to worker
processes; right for the pure-Python methods, which hold the GIL).

The engine never mutates the input layout; callers evaluate placements
with :func:`repro.pilfill.evaluate.evaluate_impact` and may attach the
features via ``layout.add_fill`` afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dissection.density import DENSITY_BACKENDS
from repro.errors import FillError, SolveTimeoutError
from repro.layout.layout import FillFeature, RoutedLayout
from repro.obs.metrics import NULL_METRICS, MetricsLike
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.pilfill.budgeted import (
    build_cap_tables,
    solve_tile_budgeted_greedy,
    solve_tile_budgeted_ilp,
)
from repro.pilfill.columns import SlackColumnDef
from repro.pilfill.costs import ColumnCosts
from repro.pilfill.incremental import (
    SolutionCache,
    cache_eligible,
    run_context_digest,
    tile_digest,
)
from repro.pilfill.mvdc import derive_tile_delay_budgets
from repro.pilfill.parallel import (
    PARALLEL_BACKENDS,
    TileOutcome,
    dispatch_tile_payloads,
    make_tile_payload,
)
from repro.pilfill.prepare import PreparedInstance, prepare
from repro.pilfill.robust import SolveReport, effective_time_limit, failed_report
from repro.pilfill.shard import plan_shards
from repro.pilfill.solution import TileSolution
from repro.tech.rules import DensityRules, FillRules
from repro.testing.faults import FaultSpec

#: The method names the engine accepts.
METHODS = ("normal", "ilp1", "ilp2", "greedy", "greedy_marginal", "dp")

#: Phase keys every run reports (per-tile solve times live in
#: ``FillResult.tile_seconds``).
PHASES = ("setup", "scanline", "density", "costs", "budget", "solve")


@dataclass
class EngineConfig:
    """Configuration of one PIL-Fill run.

    Solving is always robust (:mod:`repro.pilfill.robust`): per-tile
    failures degrade to cheaper methods, crashed workers are retried
    once with the same derived RNG, and the sweep always completes, with
    every substitution recorded in ``FillResult.solve_reports``.

    Attributes:
        fill_rules: fill feature size / gap / buffer distance.
        density_rules: window size, dissection value r, density bounds.
        method: one of :data:`METHODS`.
        weighted: sink-weighted (True, Table 2) or per-segment (False,
            Table 1) objective.
        column_def: slack-column definition (paper §5.1); III by default.
        density_backend: how window densities are aggregated —
            ``"direct"`` (summed-area table, the scalar oracle) or
            ``"fft"`` (one FFT convolution pass; bit-identical on the
            integer-valued tile-area maps real layouts produce, and the
            only comfortable choice at chip scale). Excluded from the
            incremental-cache :func:`run_context_digest` because it
            never changes budgets or placements.
        budget_mode: ``"lp"`` (Min-Var LP), ``"montecarlo"`` (randomized
            greedy), or ``"hybrid"`` (LP first, Monte-Carlo top-up of the
            rounding shortfall — the iterated back-end of ref [3]).
        target_density: density floor the budget step aims for. A float is
            used directly; ``"mean"`` resolves to the pre-fill mean window
            density; None maximizes uniformity with no cap (can consume all
            slack, leaving the methods little freedom).
        capacity_margin: fraction of each tile's slack capacity the budget
            step may prescribe (≤ 1). Real flows keep headroom below 100%
            utilization; for the reproduction it also guarantees every
            budgeted tile retains site choice, so methods stay
            distinguishable at fine dissections.
        backend: ILP backend for the ILP methods.
        seed: seed for the Normal placement / Monte-Carlo budget. Each
            tile derives its own RNG from ``(seed, tile key)``, so
            stochastic methods are reproducible regardless of tile
            iteration order or worker count.
        workers: per-tile solver parallelism. 1 (default) solves tiles
            serially; N > 1 fans tiles out over N workers with a
            deterministic merge that is bit-identical to the serial path.
        parallel_backend: ``"thread"`` (default) or ``"process"``. Every
            backend solves the same per-tile payloads (budget + seed +
            deadlines, no layout objects). Serial and thread runs hand
            the solver the prepared cost tables directly; the process
            backend ships payloads in auto-sized batches (a few per
            worker, at most 64 tiles; see :func:`~repro.pilfill.executor.
            chunk_payloads`) to a persistent pool (created lazily per
            worker count, released via :func:`repro.pilfill.executor.
            shutdown_pools`); each batch carries picklable copies of its
            own tiles' cost columns. Results are bit-identical to serial
            for every method.
        tile_deadline_s: wall-clock deadline per tile solve (seconds).
            An ILP attempt exceeding it surfaces ``TIME_LIMIT`` and the
            tile degrades down the fallback chain (ILP-II → ILP-I →
            Greedy). ``None`` (default) → unlimited.
        run_deadline_s: wall-clock deadline for the whole solve phase.
            Each tile's effective limit is the smaller of the tile
            deadline and the remaining run time; tiles starting after
            the deadline are recorded as failed (zero features), never
            solved. ``None`` (default) → unlimited.
        fault_spec: deterministic fault injection for tests (see
            :mod:`repro.testing.faults`); ``None`` in production.
        telemetry: True → record tracing spans and metrics for the run
            (see :mod:`repro.obs`) and attach them to the result for
            ``FillResult.to_report()``. False (default) → the no-op fast
            path; solver results are bit-identical either way.
        solution_cache: content-addressed tile-solution cache for
            incremental ECO re-fill (see
            :mod:`repro.pilfill.incremental`). Tiles whose solve inputs
            hash to a cached entry are merged from the cache and never
            dispatched (chunked process batches shrink accordingly);
            misses are solved normally and recorded. Cached results are
            bit-identical to cold solves by construction. ``None``
            (default) → no caching. Ignored (with zeroed counters) when
            a tile/run deadline makes outcomes wall-clock-dependent.
            :meth:`PILFillEngine.run_mvdc` and
            :meth:`PILFillEngine.run_budgeted` reject it.
        shards: partition the solve phase into this many row-band shards
            along the dissection's window cut lines (see
            :mod:`repro.pilfill.shard`). Each shard builds only its own
            cost tables, so peak memory holds one band instead of the
            grid; all shards share one warm persistent pool, and the
            merge is bit-identical to the unsharded run — sharding is a
            scheduling knob, excluded from
            :func:`~repro.pilfill.incremental.run_context_digest` like
            ``workers``. 1 (default) → one shard over the whole grid.
            :meth:`PILFillEngine.run_budgeted` rejects values above 1.
    """

    fill_rules: FillRules
    density_rules: DensityRules
    method: str = "ilp2"
    weighted: bool = True
    column_def: SlackColumnDef = SlackColumnDef.FULL_LAYOUT
    density_backend: str = "direct"
    budget_mode: str = "lp"
    target_density: float | str | None = "mean"
    capacity_margin: float = 0.7
    backend: str = "auto"
    seed: int = 0
    workers: int = 1
    parallel_backend: str = "thread"
    tile_deadline_s: float | None = None
    run_deadline_s: float | None = None
    fault_spec: FaultSpec | None = None
    telemetry: bool = False
    solution_cache: SolutionCache | None = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise FillError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.density_backend not in DENSITY_BACKENDS:
            raise FillError(
                f"unknown density backend {self.density_backend!r}; "
                f"expected one of {DENSITY_BACKENDS}"
            )
        if self.budget_mode not in ("lp", "montecarlo", "hybrid"):
            raise FillError(f"unknown budget mode {self.budget_mode!r}")
        if isinstance(self.target_density, str) and self.target_density != "mean":
            raise FillError(
                f"target_density must be a float, None, or 'mean'; got {self.target_density!r}"
            )
        if not 0.0 < self.capacity_margin <= 1.0:
            raise FillError(
                f"capacity_margin must be in (0, 1], got {self.capacity_margin}"
            )
        if self.workers < 1:
            raise FillError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise FillError(f"shards must be >= 1, got {self.shards}")
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise FillError(
                f"unknown parallel backend {self.parallel_backend!r}; "
                f"expected one of {PARALLEL_BACKENDS}"
            )
        for name in ("tile_deadline_s", "run_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise FillError(f"{name} must be positive, got {value}")


@dataclass
class FillResult:
    """Outcome of one engine run.

    ``phase_seconds`` covers every phase in :data:`PHASES`; preprocessing
    phases report the (once-paid) cost recorded on the shared
    :class:`PreparedInstance`, so a run that reuses preparation still
    shows what that preparation cost. ``tile_seconds`` breaks the solve
    phase down per tile. ``telemetry`` holds the run's tracer + metrics
    when ``EngineConfig.telemetry`` was set (``None`` otherwise).
    ``cache_stats`` holds this run's solution-cache counter deltas
    (hits/misses/stores/invalidated) when a cache was active, ``None``
    otherwise.
    """

    features: list[FillFeature] = field(default_factory=list)
    requested_budget: dict[tuple[int, int], int] = field(default_factory=dict)
    effective_budget: dict[tuple[int, int], int] = field(default_factory=dict)
    tile_solutions: dict[tuple[int, int], TileSolution] = field(default_factory=dict)
    model_objective_ps: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    tile_seconds: dict[tuple[int, int], float] = field(default_factory=dict)
    solve_reports: dict[tuple[int, int], SolveReport] = field(default_factory=dict)
    telemetry: Telemetry | None = None
    cache_stats: dict[str, int] | None = None

    def to_report(self, config: EngineConfig | None = None) -> dict[str, object]:
        """Export the run as a ``pilfill-run-report/v1`` JSON-ready dict
        (see :mod:`repro.obs.report`); ``config`` adds the configuration
        section when given."""
        from repro.obs.report import run_report

        return run_report(self, config)

    @property
    def total_features(self) -> int:
        return len(self.features)

    @property
    def degraded_tiles(self) -> list[tuple[int, int]]:
        """Tiles solved by a cheaper method than requested (sorted)."""
        return sorted(k for k, r in self.solve_reports.items() if r.degraded)

    @property
    def failed_tiles(self) -> list[tuple[int, int]]:
        """Tiles where every method/attempt failed — zero features placed
        there, the rest of the sweep unaffected (sorted)."""
        return sorted(k for k, r in self.solve_reports.items() if r.failed)

    @property
    def retried_tiles(self) -> list[tuple[int, int]]:
        """Tiles whose outcome needed at least one dispatcher retry."""
        return sorted(k for k, r in self.solve_reports.items() if r.retries > 0)

    @property
    def clean(self) -> bool:
        """True when no tile degraded, failed, or needed a retry."""
        return not any(
            r.degraded or r.failed or r.retries > 0 for r in self.solve_reports.values()
        )

    @property
    def shortfall(self) -> int:
        """Features the density step asked for that no slack column could
        hold (the paper's definition-I/II weakness)."""
        return sum(self.requested_budget.values()) - sum(self.effective_budget.values())

    @property
    def solve_seconds(self) -> float:
        """Time in the per-tile optimization phase (the paper's CPU
        column measures the method, not the shared preprocessing)."""
        return self.phase_seconds.get("solve", 0.0)


class PILFillEngine:
    """Runs the full PIL-Fill flow on one layer of a layout.

    Args:
        layout: the routed design (never mutated).
        layer: routing layer to fill.
        config: run configuration.
        prepared: shared preprocessing to reuse. When omitted, it is
            built on first use (and exposed as :attr:`prepared` so a
            caller can hand it to further engines). A prepared instance
            whose geometry keys disagree with ``config`` is rejected.
    """

    def __init__(
        self,
        layout: RoutedLayout,
        layer: str,
        config: EngineConfig,
        prepared: PreparedInstance | None = None,
    ):
        if not layout.stack.has_layer(layer):
            raise FillError(f"layout stack has no layer {layer!r}")
        if prepared is not None:
            if prepared.layout is not layout or prepared.layer != layer:
                raise FillError("prepared instance belongs to a different layout/layer")
            prepared.check_config(config)
        self.layout = layout
        self.layer = layer
        self.config = config
        self._prepared = prepared

    @property
    def prepared(self) -> PreparedInstance:
        """The shared preprocessing, building it on first access."""
        if self._prepared is None:
            self._prepared = self.prepare()
        return self._prepared

    def prepare(self, tracer: TracerLike | None = None) -> PreparedInstance:
        """Build a fresh :class:`PreparedInstance` for this engine's key."""
        cfg = self.config
        return prepare(
            self.layout, self.layer, cfg.fill_rules, cfg.density_rules, cfg.column_def,
            tracer=tracer, density_backend=cfg.density_backend,
        )

    def _prepared_traced(self, tracer: TracerLike) -> PreparedInstance:
        """Like :attr:`prepared`, but a first-time build records spans."""
        if self._prepared is None:
            self._prepared = self.prepare(tracer=tracer)
        return self._prepared

    def _finish_phases(self, result: FillResult, solve_seconds: float) -> None:
        """Fill ``phase_seconds`` from the shared preparation + this solve."""
        for phase in PHASES:
            result.phase_seconds[phase] = self.prepared.phase_seconds.get(phase, 0.0)
        result.phase_seconds["solve"] = solve_seconds

    def _placed(self, costs: list[ColumnCosts], solution: TileSolution) -> list[FillFeature]:
        """The solution's placements (explicit sampled sites when the
        method recorded them, column-prefix sites otherwise)."""
        return [
            FillFeature(layer=self.layer, rect=cc.column.sites[s])
            for k, cc in enumerate(costs)
            for s in solution.sites_for(k)
        ]

    def run(self, budget: dict[tuple[int, int], int] | None = None) -> FillResult:
        """Execute the flow. ``budget`` overrides the density step when
        given (used to hold density control identical across methods);
        the override also skips building the density map entirely.

        The solve phase runs over a :class:`~repro.pilfill.shard.
        ShardPlan` of ``config.shards`` row bands (one band by default) —
        bounded peak memory, bit-identical results for any shard count."""
        return self._solve_plan(budget)

    def run_mvdc(self, slack_fraction: float = 0.25) -> FillResult:
        """Run the MVDC (minimum variation with delay constraint) variant
        — the formulation the paper mentions in footnote ‡ but does not
        develop.

        Per tile, the density step's prescription becomes a *ceiling*
        rather than an obligation: the solver packs as many features as a
        per-tile delay budget allows (derived as ``slack_fraction`` of the
        worst-case impact of the prescribed count). Tiles with generous
        free space still fill fully; tiles where every site is expensive
        stop early — trading density uniformity for timing safety.

        Runs through the same shard-plan solver as :meth:`run` (every
        backend, shard count and telemetry knob applies), with each
        tile's delay budget riding its payload. The solution cache is
        rejected: tile digests do not cover the delay budget, so a cached
        MDFC solution could be replayed for an MVDC tile.
        """
        if self.config.solution_cache is not None:
            raise FillError(
                "run_mvdc does not support solution_cache: tile digests do "
                "not cover the MVDC delay budget"
            )
        result = self._solve_plan(None, mvdc_fraction=slack_fraction)
        # MVDC may place fewer features than prescribed; the effective
        # budget is what it actually placed.
        for key, solution in result.tile_solutions.items():
            result.effective_budget[key] = solution.total_features
        return result

    def _solve_plan(
        self,
        budget: dict[tuple[int, int], int] | None,
        mvdc_fraction: float | None = None,
    ) -> FillResult:
        """The one solve pipeline behind :meth:`run` and :meth:`run_mvdc`.

        Per shard of the plan: effective budgets (the prescription clamped
        to column capacity), the solution-cache partition, payload
        dispatch of the misses, and buffered placement while the shard's
        cost tables are alive. One final pass in global dissection order
        then merges every tile — the same feature order, float
        accumulation order and telemetry absorption for any shard count.

        A one-shard plan uses the memoized whole-grid cost tables; a
        multi-shard plan builds each shard's tables on demand and drops
        them when the shard completes.
        ``mvdc_fraction`` switches the payloads to ``method="mvdc"`` with
        per-tile delay budgets derived from that slack fraction.
        """
        cfg = self.config
        method = cfg.method if mvdc_fraction is None else "mvdc"
        telemetry = Telemetry() if cfg.telemetry else None
        tracer: TracerLike = telemetry.tracer if telemetry is not None else NULL_TRACER
        metrics: MetricsLike = telemetry.metrics if telemetry is not None else NULL_METRICS
        prep = self._prepared_traced(tracer)
        plan = plan_shards(prep, n_shards=cfg.shards)
        result = FillResult(telemetry=telemetry)

        with tracer.span(
            "engine.run", method=method, backend=cfg.backend,
            workers=cfg.workers, parallel_backend=cfg.parallel_backend,
            shards=plan.n_shards,
        ):
            if budget is None:
                budget = prep.budget_for(cfg, tracer=tracer)
            result.requested_budget = dict(budget)

            t0 = time.perf_counter()
            run_deadline = self._run_deadline()
            # Incremental re-fill: tiles whose content digest hits the
            # cache become ready-made outcomes; only misses are dispatched,
            # so an all-hit run never touches a pool.
            cache = (
                cfg.solution_cache
                if cfg.solution_cache is not None and cache_eligible(cfg)
                else None
            )
            stats_before = cache.stats() if cache is not None else {}
            context = run_context_digest(cfg, self.layer) if cache is not None else ""
            digests: dict[tuple[int, int], str] = {}
            dispatched: list[tuple[int, int]] = []
            effective: dict[tuple[int, int], int] = {}
            # Per-tile merge inputs, buffered while the owning shard's
            # cost tables are alive: (outcome, placed features, columns).
            solved: dict[tuple[int, int], tuple[TileOutcome, list[FillFeature], int]] = {}

            for shard in plan.shards:
                with tracer.span(
                    "shard", key=shard.key, rows=shard.rows, tiles=shard.tile_count
                ):
                    if plan.n_shards == 1:
                        costs_by_tile = prep.costs_for(cfg.weighted, tracer=tracer)
                    else:
                        costs_by_tile = prep.costs_for_tiles(
                            cfg.weighted, shard.tile_keys, tracer=tracer
                        )
                    solve_keys = []
                    for key in shard.tile_keys:
                        want = budget.get(key, 0)
                        capacity = sum(c.capacity for c in costs_by_tile.get(key, []))
                        effective[key] = min(want, capacity)
                        if effective[key] > 0:
                            solve_keys.append(key)

                    outcomes: dict[tuple[int, int], TileOutcome] = {}
                    misses = solve_keys
                    if cache is not None:
                        misses = []
                        for key in solve_keys:
                            digest = tile_digest(
                                context, key, costs_by_tile[key], effective[key]
                            )
                            digests[key] = digest
                            hit = cache.lookup(digest)
                            if hit is None:
                                misses.append(key)
                            else:
                                solution, report = hit
                                outcomes[key] = TileOutcome(
                                    key=key, value=solution, seconds=0.0, report=report
                                )
                    dispatched.extend(misses)
                    delay_budgets = (
                        derive_tile_delay_budgets(
                            budget, {key: costs_by_tile[key] for key in misses},
                            mvdc_fraction,
                        )
                        if mvdc_fraction is not None
                        else {}
                    )

                    payloads = [
                        make_tile_payload(
                            key,
                            effective[key],
                            method=method,
                            weighted=cfg.weighted,
                            ilp_backend=cfg.backend,
                            seed=cfg.seed,
                            delay_budget_ps=delay_budgets.get(key),
                            tile_deadline_s=cfg.tile_deadline_s,
                            run_deadline=run_deadline,
                            fault_spec=cfg.fault_spec,
                            telemetry=cfg.telemetry,
                        )
                        for key in misses
                    ]
                    with tracer.span(
                        "solve", tiles=len(solve_keys),
                        cached=len(solve_keys) - len(misses), shard=shard.key,
                    ):
                        outcomes.update(dispatch_tile_payloads(
                            payloads,
                            workers=cfg.workers,
                            backend=cfg.parallel_backend,
                            costs=costs_by_tile,
                            tracer=tracer,
                            metrics=metrics,
                        ))
                    for key in solve_keys:
                        outcome = outcomes[key]
                        costs = costs_by_tile[key]
                        placed = [] if outcome.failed else self._placed(costs, outcome.value)
                        solved[key] = (outcome, placed, len(costs))
                    # A multi-shard run releases this shard's tables here,
                    # before the next shard builds its own.
                    del costs_by_tile

            for tile in prep.dissection.tiles():
                result.effective_budget[tile.key] = effective[tile.key]
                if tile.key in solved:
                    self._merge_outcome(
                        result, tile.key, *solved[tile.key], method, tracer, metrics
                    )

            if cache is not None:
                # Record only non-failed fresh solves: failures must
                # re-run (deterministically) rather than replay, and the
                # stored report keeps the priming run's retry history so
                # a warm merge reproduces the cold report bit-for-bit.
                for key in dispatched:
                    if not solved[key][0].failed:
                        cache.record(
                            digests[key],
                            result.tile_solutions[key],
                            result.solve_reports[key],
                        )
                cache.remember_run(digests)
                stats_after = cache.stats()
                result.cache_stats = {
                    name: stats_after[name] - stats_before.get(name, 0)
                    for name in stats_after
                }
                for name, delta in result.cache_stats.items():
                    metrics.count(f"cache.{name}", delta)
            self._finish_phases(result, time.perf_counter() - t0)
            metrics.count("features.placed", result.total_features)
            for name, hits in prep.lut_stats.items():
                metrics.count(f"lut.{name}", hits)
            for phase, seconds in result.phase_seconds.items():
                metrics.observe(f"phase.{phase}.seconds", seconds)
        return result

    def _run_deadline(self) -> float | None:
        """Absolute epoch the solve phase must finish by (``time.time()``
        based so worker processes share the same clock)."""
        if self.config.run_deadline_s is None:
            return None
        return time.time() + self.config.run_deadline_s

    def _merge_outcome(
        self,
        result: FillResult,
        key: tuple[int, int],
        outcome: TileOutcome,
        placed: list[FillFeature],
        n_columns: int,
        method: str,
        tracer: TracerLike = NULL_TRACER,
        metrics: MetricsLike = NULL_METRICS,
    ) -> None:
        """Fold one tile's outcome into the result: append its buffered
        ``placed`` features, record timings and the solve report, absorb
        the tile's telemetry buffer, and turn a failed tile into an
        explicit empty solution (``n_columns`` zeros) with a failed
        report requesting ``method``, rather than a crash. A solved tile
        keeps the report its robust solve (or cache hit) produced.
        """
        tracer.absorb(outcome.spans)
        metrics.merge(outcome.metrics)
        if outcome.failed:
            solution = TileSolution(counts=[0] * n_columns)
            result.solve_reports[key] = failed_report(
                key, method, outcome.retries, outcome.error,
                prior_errors=outcome.error_chain,
            )
            metrics.count("tiles.failed")
        else:
            solution = outcome.value
            report = outcome.report
            result.solve_reports[key] = report
            metrics.count("tiles.solved")
            if report.degraded:
                metrics.count("tiles.degraded")
        if outcome.retries > 0:
            metrics.count("tiles.retried")
        metrics.observe("tile.seconds", outcome.seconds)
        result.tile_solutions[key] = solution
        result.tile_seconds[key] = outcome.seconds
        result.model_objective_ps += solution.model_objective_ps
        result.features.extend(placed)

    def run_budgeted(
        self,
        net_budgets_ff: dict[str, float],
        exact: bool = True,
    ) -> FillResult:
        """Run the per-net capacitance-budgeted variant (paper §7).

        Like :meth:`run`, but each net's total added coupling capacitance
        (across *all* tiles) must stay within ``net_budgets_ff``. Budgets
        are consumed tile by tile: each tile solve sees the remaining
        budget of every net it touches and what it uses is deducted before
        the next tile. Tiles are visited in increasing total-capacity
        order so constrained tiles claim budget before generous ones.

        This sequential budget hand-off is inherently serial and runs
        outside the shard-plan solver, so the knobs that only that solver
        implements — ``workers > 1``, ``shards > 1``, ``fault_spec``,
        ``telemetry`` and ``solution_cache`` — are rejected with
        :class:`~repro.errors.FillError` rather than silently ignored.

        Args:
            net_budgets_ff: ΔC budget per net name, fF (see
                :func:`repro.pilfill.budgeted.derive_net_cap_budgets`).
                Nets absent from the mapping are unconstrained.
            exact: True → per-tile ILP; False → budget-aware greedy (may
                fall short of a tile's prescription; the shortfall is
                visible via ``FillResult.shortfall``).
        """
        cfg = self.config
        unsupported = [
            name
            for name, set_ in (
                ("workers > 1", cfg.workers > 1),
                ("shards > 1", cfg.shards > 1),
                ("fault_spec", cfg.fault_spec is not None),
                ("telemetry", cfg.telemetry),
                ("solution_cache", cfg.solution_cache is not None),
            )
            if set_
        ]
        if unsupported:
            raise FillError(
                f"run_budgeted is serial and uncached; unsupported: {', '.join(unsupported)}"
            )
        prep = self.prepared
        result = FillResult()

        budget = prep.budget_for(cfg)
        result.requested_budget = dict(budget)

        t0 = time.perf_counter()
        costs_by_tile = prep.costs_for(cfg.weighted)
        run_deadline = self._run_deadline()
        remaining = dict(net_budgets_ff)
        order = sorted(
            prep.dissection.tiles(),
            key=lambda t: sum(c.capacity for c in prep.columns_by_tile.get(t.key, [])),
        )
        for tile in order:
            tick = time.perf_counter()
            want = budget.get(tile.key, 0)
            costs = costs_by_tile.get(tile.key, [])
            cap_total = sum(c.capacity for c in costs)
            effective = min(want, cap_total)
            if effective == 0:
                result.effective_budget[tile.key] = 0
                continue
            try:
                time_limit = effective_time_limit(cfg.tile_deadline_s, run_deadline)
            except SolveTimeoutError as exc:
                # Run deadline exhausted: skip (don't solve) the remaining
                # tiles, recording each as failed rather than aborting.
                result.effective_budget[tile.key] = 0
                result.solve_reports[tile.key] = failed_report(
                    tile.key,
                    "budgeted_ilp" if exact else "budgeted_greedy",
                    0,
                    f"TIME_LIMIT: {exc}",
                )
                continue
            cap_tables = build_cap_tables(costs, cfg.weighted)
            if exact:
                outcome = solve_tile_budgeted_ilp(
                    costs, cap_tables, effective, remaining,
                    backend=cfg.backend, time_limit=time_limit,
                )
                if not outcome.feasible:
                    # Fall back to the largest feasible count via greedy
                    # (covers infeasible budgets and ILP timeouts alike).
                    outcome = solve_tile_budgeted_greedy(
                        costs, cap_tables, effective, remaining
                    )
                    result.solve_reports[tile.key] = SolveReport(
                        key=tile.key,
                        requested_method="budgeted_ilp",
                        used_method="budgeted_greedy",
                        errors=("budgeted_ilp: not feasible within budgets/deadline",),
                    )
            else:
                outcome = solve_tile_budgeted_greedy(
                    costs, cap_tables, effective, remaining
                )
            for net, used in outcome.cap_used_ff.items():
                if net in remaining:
                    remaining[net] -= used
            solution = outcome.solution
            result.effective_budget[tile.key] = solution.total_features
            result.tile_solutions[tile.key] = solution
            result.tile_seconds[tile.key] = time.perf_counter() - tick
            result.model_objective_ps += solution.model_objective_ps
            result.features.extend(self._placed(costs, solution))
        self._finish_phases(result, time.perf_counter() - t0)
        return result
