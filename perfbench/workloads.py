"""The benchmark's workloads: ``table1``, ``chip`` and ``eco``.

Each workload drives the program through its public API only. It builds
its inputs in :meth:`setup`, then :meth:`iterate` runs one timed
iteration from loaded inputs to a signed-off result (``evaluate_impact``
on the placed fill). Output checks run untimed, in :meth:`check`.

With a real :class:`~perfbench.spans.Tracer` an iteration records one span
per call into a layer, named after the per-layer metric it feeds, under
one ``iteration`` root; the root's self time is ``unattributed_s``. The
layer functions are looked up through their modules at call time, so a
test can substitute a slowed copy of one of them.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import repro.pilfill.evaluate as pf_evaluate
from repro.experiments.harness import ConfigResult, MethodOutcome
from repro.experiments.tables import TableResult, TableSpec, run_table1
from repro.geometry import Rect
from repro.io.deflite import parse_def
from repro.pilfill.engine import EngineConfig, FillResult, PILFillEngine
from repro.pilfill.executor import get_pool, pool_stats, shutdown_pools
from repro.pilfill.incremental import SolutionCache
from repro.pilfill.scanline import ColumnGridder, layer_sweep_lines, sweep_gap_blocks
from repro.pilfill.shard import plan_shards, result_digest
from repro.synth import (
    default_fill_rules,
    density_rules_for,
    edit_window,
    iter_banded_def_lines,
    make_t1,
    make_t2,
    t3_spec,
)
from repro.tech.process import default_stack

from perfbench.spans import NullTracer
from perfbench.usage import cpu_seconds, peak_rss_mb, reset_peak_rss

# ``repro.pilfill`` re-exports the function ``prepare`` under the module's
# name, so the module is fetched by its full name.
pf_prepare = importlib.import_module("repro.pilfill.prepare")

LAYER = "metal3"
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Iteration:
    """One timed iteration: its cost, its output, and (traced) its layers."""

    wall_s: float
    cpu_s: float
    #: Peak RSS of this process and its live workers during the iteration.
    peak_rss_mb: float
    #: Tiles whose solve the iteration completed (cache hits included).
    tile_solves: int
    #: Degraded + failed + retried tiles.
    bad_tiles: int
    #: τ of the run's own objective, summed over the iteration's fills.
    tau_ps: float
    #: Latency of each signed-off fill inside the iteration.
    fill_s: list[float]
    #: Per-layer values (traced iterations only).
    layers: dict[str, float] = field(default_factory=dict)


class Counters:
    """Per-layer counts of one traced iteration."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.pools_before = pool_stats()["created"]
        self.features_scored = 0
        self.tile_ms: list[float] = []
        self.tile_busy_s = 0.0
        self.solve_capacity_s = 0.0

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, 0.0), value)

    def prepared(self, prep: pf_prepare.PreparedInstance) -> None:
        """Exact counts of the scan-line output and the dissection."""
        cols = [c for cs in prep.columns_by_tile.values() for c in cs]
        self.add("pilfill.scanline.columns", len(cols))
        self.add("pilfill.scanline.sites", sum(len(c.sites) for c in cols))
        self.add("dissection.tiles", prep.dissection.tile_count)
        self.add("dissection.windows", prep.dissection.window_count)

    def budget_lp(self, prep: pf_prepare.PreparedInstance) -> None:
        """Size of the Min-Var LP behind ``budget_for`` (computed, not
        measured): one variable per tile plus M; two rows per window plus
        the phase-2 bound on M; the dense ``A_ub`` it compiles to."""
        rows = 2 * prep.dissection.window_count + 1
        cols = prep.dissection.tile_count + 1
        self.peak("fillsynth.budget_lp_rows", rows)
        self.peak("fillsynth.budget_lp_vars", cols)
        self.peak("fillsynth.budget_lp_dense_mb", rows * cols * 8 / 1e6)

    def costs(self, prep: pf_prepare.PreparedInstance, costs: dict) -> None:
        """Cost-table columns (``costs`` is empty when the sharded solve
        built them, counted as they were built) and the capacitance-LUT
        cache counts, which every build accumulates on ``prep``."""
        self.add("pilfill.costs.columns", sum(len(cs) for cs in costs.values()))
        for name in ("hits", "misses"):
            self.add(f"cap.lut_{name}", prep.lut_stats.get(name, 0))

    def fill(self, result: FillResult, workers: int) -> None:
        seconds = list(result.tile_seconds.values())
        self.add("pilfill.engine.tiles", len(seconds))
        self.add("pilfill.engine.features", result.total_features)
        self.add("pilfill.engine.degraded", len(result.degraded_tiles))
        self.add("pilfill.engine.failed", len(result.failed_tiles))
        self.add("pilfill.engine.retried", len(result.retried_tiles))
        self.tile_ms.extend(1e3 * s for s in seconds if s > 0.0)
        self.tile_busy_s += sum(seconds)
        self.solve_capacity_s += workers * result.solve_seconds
        if result.cache_stats is not None:
            self.add("pilfill.incremental.hits", result.cache_stats["hits"])
            self.add("pilfill.incremental.misses", result.cache_stats["misses"])

    def shards(self, prep: pf_prepare.PreparedInstance, shards: int) -> None:
        plan = plan_shards(prep, n_shards=shards)
        self.peak("pilfill.shard.count", plan.n_shards)
        self.peak("pilfill.shard.max_tiles", max(s.tile_count for s in plan.shards))

    def finish(self, self_times: dict[str, float]) -> dict[str, float]:
        out = dict(self.values)
        out.update(self_times)
        out["unattributed_s"] = out.pop("iteration")
        out["pilfill.engine.tile_p50_ms"] = _pct(self.tile_ms, 50)
        out["pilfill.engine.tile_p99_ms"] = _pct(self.tile_ms, 99)
        out["pilfill.executor.busy_ratio"] = (
            self.tile_busy_s / self.solve_capacity_s if self.solve_capacity_s else 0.0
        )
        out["pilfill.executor.pools_created"] = pool_stats()["created"] - self.pools_before
        looked_up = out.get("pilfill.incremental.hits", 0.0) + out.get(
            "pilfill.incremental.misses", 0.0
        )
        out["pilfill.incremental.hit_ratio"] = (
            out.get("pilfill.incremental.hits", 0.0) / looked_up if looked_up else 0.0
        )
        evaluate_s = out.get("pilfill.evaluate.s", 0.0)
        out["pilfill.evaluate.features_per_s"] = (
            self.features_scored / evaluate_s if evaluate_s else 0.0
        )
        return out


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _timed(workload, tracer, body) -> Iteration:
    """Run ``body(counters)`` as one iteration under an ``iteration`` span.

    ``body`` returns ``(tile_solves, bad_tiles, tau_ps, fill_s)``; a
    ``fill_s`` of ``None`` means the iteration is one fill. Peak RSS is
    reset before the body and read after it, so it is the iteration's own.
    Counting the layers' work and probing the scan-line (traced runs), and
    the output digests (every run), happen after the iteration, untimed.
    """
    counters = Counters()
    reset_peak_rss()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with tracer.span("iteration") as root:
        tiles, bad, tau, fill_s = body(counters)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()
    if tracer.enabled:
        wall = root["end"] - root["start"]
    iteration = Iteration(
        wall, cpu, rss, tiles, bad, tau, [wall] if fill_s is None else fill_s
    )
    if tracer.enabled:
        workload.count(counters)
        iteration.layers = counters.finish(tracer.self_times(root["id"]))
        workload.probe(tracer, iteration.layers)
    workload.after()
    return iteration


def probe_scanline(tracer, layout, prep, layers: dict[str, float]) -> None:
    """Split the scan-line layer into its sweep and its gridding.

    Runs after the iteration, so its spans stay out of the attributed
    sum: ``layer_sweep_lines`` + ``sweep_gap_blocks`` over the layout the
    iteration prepared, then a :class:`ColumnGridder` over the same
    blocks — the two steps ``extract_columns`` chains for the full-layout
    column definition.
    """
    with tracer.span("pilfill.scanline.sweep_s") as sweep:
        lines, horizontal = layer_sweep_lines(layout, LAYER)
        blocks = sweep_gap_blocks(lines, layout.die, horizontal)
    with tracer.span("pilfill.scanline.grid_s") as grid:
        gridder = ColumnGridder(
            LAYER, prep.dissection, prep.legality, prep.fill_rules, horizontal,
            layout.stack.dbu_per_micron,
        )
        gridder.grid(blocks)
    columns = sum(len(cs) for cs in gridder.out.values())
    if columns != sum(len(cs) for cs in prep.columns_by_tile.values()):
        raise AssertionError("scan-line probe gridded another column count than prepare")
    values = {
        "pilfill.scanline.sweep_s": sweep["end"] - sweep["start"],
        "pilfill.scanline.grid_s": grid["end"] - grid["start"],
        "pilfill.scanline.lines": len(lines),
        "pilfill.scanline.blocks": len(blocks),
    }
    for name, value in values.items():
        layers[name] = layers.get(name, 0.0) + value


def _evaluate(tracer, counters: Counters, layout, result: FillResult, fill_rules):
    with tracer.span("pilfill.evaluate.s"):
        impact = pf_evaluate.evaluate_impact(layout, LAYER, result.features, fill_rules)
    counters.add("pilfill.evaluate.calls", 1)
    counters.features_scored += impact.features_scored
    return impact


def _bad_tiles(result: FillResult) -> int:
    return len(result.degraded_tiles) + len(result.failed_tiles) + len(result.retried_tiles)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

#: The slice of paper Table 1 frozen in ``tests/golden/results_table1.csv``.
GOLDEN_SPEC = TableSpec(testcases=("T1",), windows_um=(32,), r_values=(2, 4))
_MAKERS = {"T1": make_t1, "T2": make_t2}


def _golden_rules():
    """The golden-table test module, whose comparison rules the check reuses."""
    path = ROOT / "tests" / "test_golden_tables.py"
    spec = importlib.util.spec_from_file_location("perfbench_golden_rules", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_without_cpu(csv_text: str) -> list[list[str]]:
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    cpu = rows[0].index("cpu_s")
    return [row[:cpu] + row[cpu + 1 :] for row in rows]


class Table1:
    """Paper Table 1 through ``run_table1``: unweighted, serial, HiGHS.

    The untraced iteration calls ``run_table1`` whole. The traced one, and
    the untimed warm-up of every run, call what ``run_table`` and
    ``run_config`` call, in the same order, so each layer gets its span;
    :meth:`check` proves the two give the same CSV.
    """

    name = "table1"
    workers = 1
    shards = 1

    def __init__(self, spec: TableSpec = GOLDEN_SPEC) -> None:
        self.spec = spec
        self.layouts: dict = {}
        self.csvs: list[tuple[str, str]] = []
        self.tile_solves = 0
        self._done: list = []

    def setup(self) -> dict[str, float]:
        self.layouts = {tc: _MAKERS[tc]() for tc in self.spec.testcases}
        return {}

    def warmup(self) -> None:
        # Tile solves per iteration are a count of the decomposed run;
        # the CSV check proves run_table1 does the same work.
        self.tile_solves = _timed(self, NullTracer(), self._decomposed(NullTracer())).tile_solves

    def iterate(self, tracer) -> Iteration:
        body = self._decomposed(tracer) if tracer.enabled else self._harness
        return _timed(self, tracer, body)

    def _harness(self, counters: Counters):
        marks = [time.perf_counter()]
        table = run_table1(
            self.spec, layouts=self.layouts,
            progress=lambda _label: marks.append(time.perf_counter()),
        )
        self.csvs.append(("run_table1", table.to_csv()))
        outcomes = [o for row in table.rows for o in row.outcomes.values()]
        bad = sum(o.degraded_tiles + o.failed_tiles + o.retried_tiles for o in outcomes)
        tau = sum(o.tau_ps for o in outcomes)
        return self.tile_solves, bad, tau, list(np.diff(marks))

    def _decomposed(self, tracer):
        def body(counters: Counters):
            self._done = []
            table = TableResult(weighted=False)
            fill_s = []
            for testcase in self.spec.testcases:
                layout = self.layouts[testcase]
                for window_um in self.spec.windows_um:
                    for r in self.spec.r_values:
                        start = time.perf_counter()
                        row = self._config(tracer, counters, layout, testcase, window_um, r)
                        with tracer.span("experiments.assemble_s"):
                            table.rows.append(row)
                        fill_s.append(time.perf_counter() - start)
            with tracer.span("experiments.assemble_s"):
                csv = table.to_csv()
            self.csvs.append(("decomposed", csv))
            runs = [run for _layout, _prep, runs in self._done for run in runs]
            tiles = sum(len(run.tile_seconds) for run in runs)
            bad = sum(_bad_tiles(run) for run in runs)
            tau = sum(o.tau_ps for row in table.rows for o in row.outcomes.values())
            return tiles, bad, tau, fill_s

        return body

    def _config(self, tracer, counters, layout, testcase, window_um, r) -> ConfigResult:
        spec = self.spec
        fill_rules = default_fill_rules(layout.stack)
        density_rules = density_rules_for(window_um, r, layout.stack)
        with tracer.span("pilfill.prepare.s"):
            prepared = pf_prepare.prepare(
                layout, spec.layer, fill_rules, density_rules,
                density_backend=spec.density_backend,
            )
        configs = {
            method: EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules, method=method,
                weighted=False, density_backend=prepared.density_backend,
                backend=spec.backend, seed=spec.seed,
            )
            for method in spec.methods
        }
        with tracer.span("dissection.density_s"):
            prepared.density  # noqa: B018 - builds the lazy density map
        with tracer.span("fillsynth.budget_s"):
            prepared.budget_for(configs[spec.methods[0]])
        with tracer.span("pilfill.costs.s"):
            prepared.costs_for(False)
        row = ConfigResult(testcase=testcase, window_um=window_um, r=r, budget_total=0)
        runs = []
        budget = None
        for method, cfg in configs.items():
            with tracer.span(f"pilfill.engine.solve_s.{method}"):
                run = PILFillEngine(layout, spec.layer, cfg, prepared=prepared).run(
                    budget=budget
                )
            impact = _evaluate(tracer, counters, layout, run, fill_rules)
            with tracer.span("experiments.assemble_s"):
                if budget is None:
                    budget = run.requested_budget
                    row.budget_total = sum(budget.values())
                row.outcomes[method] = MethodOutcome(
                    method=method, tau_ps=impact.total_ps,
                    weighted_tau_ps=impact.weighted_total_ps, cpu_s=run.solve_seconds,
                    features=run.total_features, model_objective_ps=run.model_objective_ps,
                    degraded_tiles=len(run.degraded_tiles),
                    failed_tiles=len(run.failed_tiles),
                    retried_tiles=len(run.retried_tiles),
                )
            runs.append(run)
        with tracer.span("experiments.assemble_s"):
            row.prepare_seconds = dict(prepared.phase_seconds)
        self._done.append((layout, prepared, runs))
        return row

    def count(self, counters: Counters) -> None:
        for _layout, prepared, runs in self._done:
            counters.prepared(prepared)
            counters.budget_lp(prepared)
            counters.costs(prepared, prepared.costs_for(False))
            counters.shards(prepared, self.shards)
            for run in runs:
                counters.fill(run, self.workers)

    def probe(self, tracer, layers: dict[str, float]) -> None:
        for layout, prepared, _runs in self._done:
            probe_scanline(tracer, layout, prepared, layers)

    def after(self) -> None:
        self._done = []

    def check(self) -> list[str]:
        """Every CSV matches the golden file under the golden test's rules
        (exact counters, τ within 1e-6, ``cpu_s`` ignored), and every CSV
        equals the first one in all but ``cpu_s``."""
        failures = []
        rules = _golden_rules()
        golden = self._golden_slice()
        for origin, csv in self.csvs:
            try:
                rules.assert_csv_matches_golden(csv, golden, f"table1 ({origin})")
            except AssertionError as exc:
                failures.append(str(exc))
        reference = _csv_without_cpu(self.csvs[0][1])
        failures.extend(
            f"table1: {origin} CSV differs from the first one"
            for origin, csv in self.csvs[1:]
            if _csv_without_cpu(csv) != reference
        )
        return failures

    def _golden_slice(self) -> str:
        """The golden CSV rows of the configurations this run covers."""
        configs = {
            (tc, str(w), str(r))
            for tc in self.spec.testcases for w in self.spec.windows_um for r in self.spec.r_values
        }
        header, *rows = (ROOT / "tests" / "golden" / "results_table1.csv").read_text().splitlines()
        kept = [row for row in rows if tuple(row.split(",")[:3]) in configs]
        return "\n".join([header, *kept]) + "\n"

    def close(self) -> None:
        self._done = []


# ---------------------------------------------------------------------------
# chip
# ---------------------------------------------------------------------------


#: The chip workload's density rules and pool: W = 20 µm, r = 4, two
#: workers, two shards.
CHIP_WINDOW_UM = 20
CHIP_R = 4
CHIP_WORKERS = 2
CHIP_SHARDS = 2
#: Digests and τ of each chip size, recorded by ``perfbench/record_chip.py``.
CHIP_EXPECTED = Path(__file__).resolve().parent / "chip_expected.json"


def chip_spec(die_um: float):
    """T3's recipe on a ``die_um`` die at the full chip's net density
    (3 000 nets on 768 µm)."""
    n_nets = max(1, round(3000 * (die_um / 768.0) ** 2))
    return replace(t3_spec(n_nets=n_nets), die_um=die_um)


def chip_config(stack) -> EngineConfig:
    """Weighted ILP-II on the chip workload's pool and shards."""
    return EngineConfig(
        fill_rules=default_fill_rules(stack),
        density_rules=density_rules_for(CHIP_WINDOW_UM, CHIP_R, stack),
        method="ilp2", weighted=True, density_backend="fft", backend="auto",
        workers=CHIP_WORKERS, parallel_backend="process", shards=CHIP_SHARDS,
    )


class Chip:
    """A T3 slice streamed from a band-sorted DEF and solved on a pool."""

    name = "chip"
    workers = CHIP_WORKERS
    shards = CHIP_SHARDS

    def __init__(self, work_dir: Path, die_um: float = 160.0) -> None:
        self.die_um = die_um
        self.spec = chip_spec(die_um)
        self.stack = default_stack()
        self.config = chip_config(self.stack)
        self.fill_rules = self.config.fill_rules
        self.density_rules = self.config.density_rules
        self.def_path = work_dir / "chip.def"
        self.layout = None
        self.prepared_digests: list[str] = []
        self.result_digests: list[str] = []
        self.taus: list[float] = []
        self._last = None

    def setup(self) -> dict[str, float]:
        """Write the band-sorted DEF, parse it for signoff, spin the pool up."""
        shutdown_pools()
        self.def_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.def_path, "w") as fh:
            for line in iter_banded_def_lines(self.spec, self.stack):
                fh.write(line + "\n")
        t0 = time.perf_counter()
        self.layout = parse_def(self.def_path.read_text(), self.stack)
        parse_s = time.perf_counter() - t0
        pool = get_pool(self.workers)
        list(pool.map(abs, range(4 * self.workers)))
        return {"io.parse_s": parse_s}

    def warmup(self) -> None:
        self.iterate(NullTracer())

    def iterate(self, tracer) -> Iteration:
        return _timed(self, tracer, lambda counters: self._fill(tracer, counters))

    def _fill(self, tracer, counters: Counters):
        with tracer.span("pilfill.prepare.s"):
            with open(self.def_path) as source:
                prep = pf_prepare.prepare_streaming(
                    source, self.stack, LAYER, self.fill_rules, self.density_rules,
                    density_backend="fft", banded=True,
                )
        if tracer.enabled:
            _span_shard_costs(tracer, counters, prep)
        with tracer.span("dissection.density_s"):
            prep.density  # noqa: B018 - built eagerly by prepare_streaming
        with tracer.span("fillsynth.budget_s"):
            budget = prep.budget_for(self.config)
        with tracer.span("pilfill.engine.solve_s.ilp2"):
            result = PILFillEngine(prep.layout, LAYER, self.config, prepared=prep).run(
                budget=budget
            )
        impact = _evaluate(tracer, counters, self.layout, result, self.fill_rules)
        prep.close()
        self._last = (prep, budget, result)
        self.taus.append(impact.weighted_total_ps)
        return len(result.tile_seconds), _bad_tiles(result), impact.weighted_total_ps, None

    def count(self, counters: Counters) -> None:
        prep, _budget, result = self._last
        counters.prepared(prep)
        counters.budget_lp(prep)
        counters.costs(prep, {})
        counters.shards(prep, self.shards)
        counters.fill(result, self.workers)

    def probe(self, tracer, layers: dict[str, float]) -> None:
        probe_scanline(tracer, self.layout, self._last[0], layers)

    def after(self) -> None:
        prep, _budget, result = self._last
        self.prepared_digests.append(prep.digest())
        self.result_digests.append(result_digest(result))

    def check(self) -> list[str]:
        """Every iteration's streamed ``PreparedInstance.digest()``,
        ``result_digest`` and τ equal the values recorded for this die in
        ``chip_expected.json`` (from ``prepare`` over the parsed layout and
        a serial, unsharded solve), and an untimed serial, unsharded
        re-solve of the last iteration gives the recorded ``result_digest``."""
        expected = json.loads(CHIP_EXPECTED.read_text()).get(f"{self.die_um:g}")
        if expected is None:
            return [f"chip: no expected digests recorded for a {self.die_um:g} um die"]
        failures = []
        if any(d != expected["prepared_digest"] for d in self.prepared_digests):
            failures.append("chip: prepare_streaming digest differs from the recorded one")
        if any(d != expected["result_digest"] for d in self.result_digests):
            failures.append("chip: result_digest differs from the recorded one")
        if any(not math.isclose(t, expected["tau_ps"], rel_tol=1e-6) for t in self.taus):
            failures.append("chip: tau_ps differs from the recorded one by more than 1e-6")
        prep, budget, _result = self._last
        serial = replace(self.config, workers=1, parallel_backend="thread", shards=1)
        again = PILFillEngine(prep.layout, LAYER, serial, prepared=prep).run(budget=budget)
        prep.close()
        if result_digest(again) != expected["result_digest"]:
            failures.append("chip: serial unsharded re-solve gives another result_digest")
        return failures

    def close(self) -> None:
        shutdown_pools()
        # The pool's shared cost stores started multiprocessing's resource
        # tracker process; stop it and wait for it, so nothing outlives
        # the run. It is restarted on demand.
        resource_tracker._resource_tracker._stop()
        self.def_path.unlink(missing_ok=True)
        if self.def_path.parent.is_dir() and not any(self.def_path.parent.iterdir()):
            self.def_path.parent.rmdir()


def _span_shard_costs(bench_tracer, counters: Counters, prep) -> None:
    """Give each per-shard cost-table build of the sharded solve a span."""
    build = prep.costs_for_tiles

    def costs_for_tiles(weighted, keys, tracer=None):
        with bench_tracer.span("pilfill.costs.s"):
            costs = build(weighted, keys, tracer=tracer)
        counters.add("pilfill.costs.columns", sum(len(cs) for cs in costs.values()))
        return costs

    prep.costs_for_tiles = costs_for_tiles


# ---------------------------------------------------------------------------
# eco
# ---------------------------------------------------------------------------


class Eco:
    """Accumulating seeded ECO edits on T2, each re-filled through a warm
    solution cache from the priming fill's budget."""

    name = "eco"
    workers = 1
    shards = 1

    def __init__(self, seed: int, window_um: int = 20, r: int = 8) -> None:
        self.seed = seed
        self.window_um = window_um
        self.r = r
        self.result_digests: list[str] = []
        self._last = None

    def setup(self) -> dict[str, float]:
        """T2 and its signed-off priming fill, which fills the cache."""
        layout = make_t2()
        self.fill_rules = default_fill_rules(layout.stack)
        self.density_rules = density_rules_for(self.window_um, self.r, layout.stack)
        base = pf_prepare.prepare(layout, LAYER, self.fill_rules, self.density_rules)
        # A fixed float target keeps the cached run context edit-independent.
        target = float(base.density.window_density().mean())
        self.cache = SolutionCache()
        self.config = EngineConfig(
            fill_rules=self.fill_rules, density_rules=self.density_rules, method="ilp2",
            weighted=True, backend="scipy", seed=0, target_density=target,
            solution_cache=self.cache,
        )
        prime = PILFillEngine(layout, LAYER, self.config, prepared=base).run()
        pf_evaluate.evaluate_impact(layout, LAYER, prime.features, self.fill_rules)
        self.budget = dict(prime.requested_budget)
        self.tile_index = base.tile_index()
        self.layout = layout
        self._rng = random.Random(self.seed)
        return {}

    def warmup(self) -> None:
        """None: the priming fill already ran every layer once."""

    def _next_edit(self) -> tuple[Rect, int]:
        """The next seeded edit: a window of 1/10 the die side (~1% of
        its area) anywhere on the die, and the edit's own seed."""
        die = self.layout.die
        side = max(1, die.width // 10)
        x = self._rng.randrange(die.xlo, die.xhi - side)
        y = self._rng.randrange(die.ylo, die.yhi - side)
        return Rect(x, y, x + side, y + side), self._rng.randrange(1 << 30)

    def iterate(self, tracer) -> Iteration:
        return _timed(self, tracer, lambda counters: self._refill(tracer, counters))

    def _refill(self, tracer, counters: Counters):
        window, edit_seed = self._next_edit()
        layout, summary = edit_window(self.layout, window, seed=edit_seed, layer=LAYER)
        with tracer.span("pilfill.incremental.invalidate_s"):
            dirty = self.cache.invalidate_window(self.tile_index, summary.rect)
        with tracer.span("pilfill.prepare.s"):
            prep = pf_prepare.prepare(layout, LAYER, self.fill_rules, self.density_rules)
        with tracer.span("pilfill.costs.s"):
            prep.costs_for(True)
        with tracer.span("pilfill.engine.solve_s.ilp2"):
            result = PILFillEngine(layout, LAYER, self.config, prepared=prep).run(
                budget=dict(self.budget)
            )
        impact = _evaluate(tracer, counters, layout, result, self.fill_rules)
        counters.add("pilfill.incremental.dirty_tiles", len(dirty))
        self.layout = layout
        self._last = (prep, result)
        return len(result.tile_seconds), _bad_tiles(result), impact.weighted_total_ps, None

    def count(self, counters: Counters) -> None:
        prep, result = self._last
        counters.prepared(prep)
        counters.costs(prep, prep.costs_for(True))
        counters.shards(prep, self.shards)
        counters.fill(result, self.workers)

    def probe(self, tracer, layers: dict[str, float]) -> None:
        probe_scanline(tracer, self.layout, self._last[0], layers)

    def after(self) -> None:
        self.result_digests.append(result_digest(self._last[1]))

    def check(self) -> list[str]:
        """A cold (cache-less) re-fill of the final edited layout gives the
        warm re-fill's ``result_digest``."""
        prep = pf_prepare.prepare(self.layout, LAYER, self.fill_rules, self.density_rules)
        cold_cfg = replace(self.config, solution_cache=None)
        cold = PILFillEngine(self.layout, LAYER, cold_cfg, prepared=prep).run(
            budget=dict(self.budget)
        )
        if result_digest(cold) != self.result_digests[-1]:
            return ["eco: cold re-fill of the final edit gives another result_digest"]
        return []

    def close(self) -> None:
        self._last = None
