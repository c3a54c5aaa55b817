"""Persistent process pool and chunked dispatch of self-contained batches.

Regression targets of the persistent-pool executor PR:

* an empty payload/key list returns an empty mapping without ever
  creating a pool (the ``ProcessPoolExecutor(max_workers=0)`` ValueError
  a no-fill-needed run used to risk), under all three backends,
* chunked dispatch is bit-identical to serial for every worker and tile
  count, for the table methods and MVDC alike,
* the persistent pool actually persists: consecutive ``engine.run()``
  calls reuse one pool (stable worker PIDs, one lifetime creation),
* a worker death mid-batch retries only the dying tile — batchmates
  keep ``retries=0`` and the merged result stays bit-identical,
* a deadline expiry mid-batch fails only the expiring tile and is never
  retried,
* telemetry merges each tile exactly once (solved+failed == dispatched,
  even when a batch is re-solved in the parent after a worker death),
* a batch carries its own tiles' columns and solves like the in-process
  path; a payload without cost tables is rejected before any submit,
* a real worker death is recovered in the parent, and the pool is
  rebuilt on the next dispatch,
* a pool warmed before the first run survives a shutdown-and-rerun of
  the same prepared instance, and no run leaves a ``resource_tracker``
  warning behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.pilfill.executor as executor_module
from repro.errors import FillError
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    chunk_payloads,
    dispatch_tile_payloads,
    make_tile_payload,
    payload_columns,
    pool_stats,
    prepare,
    shutdown_pools,
    worker_pids,
)
from repro.pilfill.executor import TileBatch, dispatch_batches, solve_tile_batch
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultSpec

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)

#: (workers, parallel_backend) triples covering all three dispatch paths.
BACKENDS = [
    pytest.param(1, "thread", id="serial"),
    pytest.param(2, "thread", id="thread"),
    pytest.param(2, "process", id="process"),
]


def make_cfg(method="greedy", **kwargs):
    kwargs.setdefault("backend", "scipy")
    return EngineConfig(fill_rules=FILL, density_rules=DENSITY, method=method, **kwargs)


@pytest.fixture(scope="module")
def prepared(small_generated_layout):
    prep = prepare(
        small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
    )
    yield prep
    prep.close()


@pytest.fixture(scope="module")
def baseline(small_generated_layout, prepared):
    """Serial greedy reference run."""
    return PILFillEngine(
        small_generated_layout, "metal3", make_cfg(), prepared=prepared
    ).run()


@pytest.fixture
def one_batch(monkeypatch):
    """Ship every payload in a single batch, so one worker death
    strands all of its batchmates."""
    monkeypatch.setattr(
        executor_module, "chunk_payloads", lambda payloads, workers: [tuple(payloads)]
    )


#: Barrier shared with the pool workers by :func:`rendezvous` (set
#: before the workers fork, so each inherits it).
_RENDEZVOUS = None


def _rendezvous_solve(batch):
    """Hold a batch until another worker holds one too, then solve it."""
    _RENDEZVOUS.wait(timeout=60)
    return solve_tile_batch(batch)


@pytest.fixture
def rendezvous(monkeypatch):
    """Every pair of batches is served by two distinct workers: a worker
    blocked on the barrier cannot take the second batch, so which worker
    serves what no longer depends on the pool's scheduling."""
    shutdown_pools()  # the next pool forks after the barrier exists
    monkeypatch.setattr(sys.modules[__name__], "_RENDEZVOUS", multiprocessing.Barrier(2))
    monkeypatch.setattr(executor_module, "solve_tile_batch", _rendezvous_solve)
    yield
    shutdown_pools()


def make_payloads(prepared, baseline, method="greedy", **overrides):
    """Payloads for every solved tile of the baseline (their cost tables
    are ``prepared.costs_for(True)``)."""
    kwargs = dict(method=method, weighted=True, ilp_backend="scipy", seed=0)
    kwargs.update(overrides)
    return [
        make_tile_payload(key, baseline.effective_budget[key], **kwargs)
        for key in sorted(baseline.tile_solutions)
    ]


def make_batch(prepared, payloads):
    """One :class:`TileBatch` of ``payloads``, as the process dispatcher
    builds it."""
    costs = prepared.costs_for(True)
    return TileBatch(
        payloads=tuple(payloads),
        columns=tuple(payload_columns(costs[p.key]) for p in payloads),
    )


class TestEmptyDispatch:
    """A run that needs no fill must not cost (or crash on) a pool."""

    def test_empty_payloads_return_empty_before_any_pool(self):
        created_before = pool_stats()["created"]
        assert dispatch_tile_payloads([], workers=2, costs={}) == {}
        assert dispatch_tile_payloads([], workers=8, backend="thread", costs={}) == {}
        assert pool_stats()["created"] == created_before

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_empty_keys_return_empty(self, backend):
        outcome = dispatch_tile_payloads([], workers=4, backend=backend, costs={})
        assert outcome == {}

    @pytest.mark.parametrize("workers,backend", BACKENDS)
    def test_engine_zero_budget_run_completes(
        self, small_generated_layout, prepared, workers, backend
    ):
        """Engine-level regression: a zero budget everywhere dispatches
        zero payloads; the run completes with zero features."""
        cfg = make_cfg(workers=workers, parallel_backend=backend)
        engine = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        )
        result = engine.run(budget={})
        assert result.total_features == 0
        assert result.tile_solutions == {}


class TestChunking:
    def test_auto_chunking_bounds(self):
        payloads = list(range(300))  # chunker only len()s and slices
        chunks = chunk_payloads(payloads, workers=2)
        assert [x for chunk in chunks for x in chunk] == payloads
        sizes = {len(c) for c in chunks}
        assert max(sizes) <= 64
        # ~4 batches per worker: 300/(2*4) -> 38 per chunk.
        assert max(sizes) == 38

    def test_explicit_chunk_size(self):
        """The auto size, spelled out: ceil(tiles / (4 × workers)),
        capped at 64 tiles per batch."""
        sizes = {
            (tiles, workers): [len(c) for c in chunk_payloads(list(range(tiles)), workers)]
            for tiles, workers in ((10, 1), (10, 4), (9, 2), (1000, 2))
        }
        assert sizes[(10, 1)] == [3, 3, 3, 1]
        assert sizes[(10, 4)] == [1] * 10
        assert sizes[(9, 2)] == [2, 2, 2, 2, 1]
        assert sizes[(1000, 2)] == [64] * 15 + [40]

    def test_empty_and_invalid(self):
        assert chunk_payloads([], workers=4) == []
        # The chunk size is not a knob: neither the chunker nor (below)
        # the engine configuration accepts one.
        with pytest.raises(TypeError):
            chunk_payloads([1], workers=1, batch_tiles=1)

    def test_engine_batch_tiles_validated(self):
        with pytest.raises(TypeError):
            make_cfg(batch_tiles=1)

    @pytest.mark.parametrize("method", ["greedy", "normal", "dp"])
    @pytest.mark.parametrize("n_tiles", [1, 2, None])
    def test_chunked_bit_identical_to_serial(
        self, small_generated_layout, prepared, method, n_tiles
    ):
        """Chunking varies with the worker count and the number of tiles
        dispatched (``n_tiles`` budgeted tiles; None = all of them); the
        merge never does."""
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(method), prepared=prepared
        ).run()
        keys = sorted(k for k, v in serial.requested_budget.items() if v > 0)[:n_tiles]
        budget = {key: serial.requested_budget[key] for key in keys}
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(method), prepared=prepared
        ).run(budget=budget)
        for workers in (2, 3):
            cfg = make_cfg(method, workers=workers, parallel_backend="process")
            chunked = PILFillEngine(
                small_generated_layout, "metal3", cfg, prepared=prepared
            ).run(budget=budget)
            assert chunked.features == serial.features
            assert chunked.model_objective_ps == serial.model_objective_ps
            assert {k: s.counts for k, s in chunked.tile_solutions.items()} == {
                k: s.counts for k, s in serial.tile_solutions.items()
            }
        shutdown_pools()

    def test_chunked_mvdc_bit_identical(self, small_generated_layout, prepared):
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run_mvdc(slack_fraction=0.3)
        cfg = make_cfg(workers=3, parallel_backend="process")
        chunked = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run_mvdc(slack_fraction=0.3)
        assert chunked.features == serial.features
        assert chunked.effective_budget == serial.effective_budget


class TestPoolPersistence:
    def test_pool_survives_across_engine_runs(self, small_generated_layout, prepared):
        """Two engine.run() calls, one pool creation — and the same pool
        means the same worker processes (stable PIDs)."""
        shutdown_pools()
        created_before = pool_stats()["created"]
        cfg = make_cfg(workers=2, parallel_backend="process")
        engine = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        )
        first = engine.run()
        second = engine.run()
        assert first.features == second.features
        stats = pool_stats()
        assert stats["created"] == created_before + 1
        assert stats["live"] >= 1
        shutdown_pools()
        assert pool_stats()["live"] == 0

    def test_worker_pids_stable_across_dispatches(
        self, prepared, baseline, rendezvous
    ):
        """Dispatch-level PID check: consecutive dispatches on the
        persistent pool are served by the same worker processes. Two
        tiles make two one-tile batches, each held until both workers
        have one, so both workers serve both dispatches."""
        payloads = make_payloads(prepared, baseline)[:2]
        assert len(chunk_payloads(payloads, 2)) == 2
        costs = prepared.costs_for(True)
        first = dispatch_tile_payloads(payloads, workers=2, costs=costs)
        second = dispatch_tile_payloads(payloads, workers=2, costs=costs)
        pids_a, pids_b = worker_pids(first), worker_pids(second)
        assert len(pids_a) == 2 and pids_a == pids_b
        assert os.getpid() not in pids_a

    def test_registry_rejects_serial_worker_count(self):
        from repro.pilfill import get_pool

        with pytest.raises(FillError, match="workers"):
            get_pool(1)


class TestFaultsMidBatch:
    def test_worker_death_mid_batch_retries_only_dying_tile(
        self, prepared, baseline, one_batch
    ):
        """One tile's worker dies inside a multi-tile batch: the parent
        re-solves the batch, the dying tile spends its retry, batchmates
        come back retries=0, and the merge is bit-identical."""
        keys = sorted(baseline.tile_solutions)
        assert len(keys) >= 3
        dying = keys[1]
        spec = FaultSpec.single("worker_death", tiles=[dying], attempts=(0,))
        payloads = make_payloads(prepared, baseline, fault_spec=spec)
        clean = make_payloads(prepared, baseline)
        # One big batch: the death strands every batchmate behind it.
        costs = prepared.costs_for(True)
        faulted = dispatch_tile_payloads(payloads, workers=2, costs=costs)
        reference = dispatch_tile_payloads(clean, workers=2, costs=costs)
        assert set(faulted) == set(reference)
        for key in keys:
            assert faulted[key].value.counts == reference[key].value.counts
            assert faulted[key].retries == (1 if key == dying else 0), key
        shutdown_pools()

    def test_persistent_death_fails_tile_batchmates_survive(
        self, prepared, baseline, one_batch
    ):
        keys = sorted(baseline.tile_solutions)
        dying = keys[0]
        spec = FaultSpec.single("worker_death", tiles=[dying], attempts=None)
        payloads = make_payloads(prepared, baseline, fault_spec=spec)
        outcomes = dispatch_tile_payloads(
            payloads, workers=2, costs=prepared.costs_for(True)
        )
        assert outcomes[dying].failed
        assert "WorkerDeathError" in outcomes[dying].error
        for key in keys[1:]:
            assert not outcomes[key].failed, key
        shutdown_pools()

    def test_deadline_expiry_mid_batch_fails_tile_without_retry(
        self, prepared, baseline, one_batch
    ):
        """An injected timeout exhausting one tile's chain mid-batch:
        TIME_LIMIT failed outcome, retries=0, batchmates untouched."""
        keys = sorted(baseline.tile_solutions)
        expiring = keys[1]
        spec = FaultSpec.single(
            "timeout", tiles=[expiring], methods=("greedy",), attempts=None
        )
        payloads = make_payloads(prepared, baseline, fault_spec=spec)
        outcomes = dispatch_tile_payloads(
            payloads, workers=2, costs=prepared.costs_for(True)
        )
        assert outcomes[expiring].failed
        assert outcomes[expiring].error.startswith("TIME_LIMIT")
        assert outcomes[expiring].retries == 0
        for key in keys:
            if key != expiring:
                assert not outcomes[key].failed, key
        shutdown_pools()


class TestTelemetrySingleMerge:
    @pytest.mark.parametrize("fault", [None, "worker_death"])
    def test_metric_totals_count_each_tile_once(
        self, small_generated_layout, prepared, fault, one_batch
    ):
        """tiles.solved + tiles.failed must equal the dispatched tile
        count even when a batch is re-solved in the parent after a worker
        death — a double merge of the dead attempt's buffers would
        overcount."""
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run()
        keys = sorted(serial.tile_solutions)
        spec = (
            FaultSpec.single("worker_death", tiles=[keys[0]], attempts=(0,))
            if fault
            else None
        )
        cfg = make_cfg(
            workers=2, parallel_backend="process",
            telemetry=True, fault_spec=spec,
        )
        result = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=serial.requested_budget)
        counters = dict(result.telemetry.metrics.snapshot().counters)
        timers = dict(result.telemetry.metrics.snapshot().timers)
        n = len(keys)
        assert counters.get("tiles.solved", 0) + counters.get("tiles.failed", 0) == n
        assert timers["tile.seconds"].count == n
        assert counters.get("tiles.retried", 0) == (1 if fault else 0)
        assert counters.get("pool.tiles_submitted") == n
        assert result.features == serial.features
        shutdown_pools()


class TestBatches:
    def test_batch_solves_like_in_process(self, prepared, baseline):
        """solve_tile_batch on a batch's own picklable columns — the path
        pool workers run — equals the in-process solve on the prepared
        tables."""
        payloads = make_payloads(prepared, baseline)
        in_process = dispatch_tile_payloads(
            payloads, workers=1, costs=prepared.costs_for(True)
        )
        via_batch = solve_tile_batch(make_batch(prepared, payloads))
        assert [o.key for o in via_batch] == [p.key for p in payloads]
        assert [o.value for o in via_batch] == [
            in_process[p.key].value for p in payloads
        ]

    @pytest.mark.parametrize("workers,backend", BACKENDS)
    def test_missing_costs_raise_before_any_submit(
        self, prepared, baseline, monkeypatch, workers, backend
    ):
        """A payload whose tile has no cost tables is a caller error, not
        a tile to solve against zero columns: FillError, and no pool is
        ever asked for."""
        def no_pool(workers):
            raise AssertionError("a pool was requested")

        monkeypatch.setattr(executor_module, "get_pool", no_pool)
        payloads = make_payloads(prepared, baseline)
        costs = dict(prepared.costs_for(True))
        del costs[payloads[1].key]
        with pytest.raises(FillError, match="no cost tables"):
            dispatch_tile_payloads(
                payloads, workers=workers, backend=backend, costs=costs
            )

    def test_batches_pickle(self, prepared, baseline):
        batch = make_batch(prepared, make_payloads(prepared, baseline)[:2])
        assert pickle.loads(pickle.dumps(batch)) == batch


def _exit_worker(batch):
    """Stand-in pool entry that hard-kills its worker: a *real* worker
    death (not the injected WorkerDeathError), so the future raises
    BrokenProcessPool and the dispatcher walks its recovery path."""
    os._exit(1)


class TestBrokenPool:
    def test_broken_pool_recovers(self, prepared, baseline, monkeypatch, one_batch):
        """One real worker death: every batch is re-solved in the parent
        (bit-identical), and the broken pool is discarded and rebuilt on
        the next dispatch."""
        shutdown_pools()
        payloads = make_payloads(prepared, baseline)
        costs = prepared.costs_for(True)
        created_before = pool_stats()["created"]
        try:
            with monkeypatch.context() as patch:
                # The dispatcher submits the module-level pool entry, so
                # swapping it sends every batch to a dying worker.
                patch.setattr(executor_module, "solve_tile_batch", _exit_worker)
                outcomes = dispatch_batches(payloads, workers=2, costs=costs)
            reference = {
                o.key: o for o in solve_tile_batch(make_batch(prepared, payloads))
            }
            assert set(outcomes) == set(reference)
            for key, outcome in outcomes.items():
                assert not outcome.failed, key
                assert outcome.value.counts == reference[key].value.counts

            # The broken pool is gone; the next dispatch rebuilds one.
            stats = pool_stats()
            assert stats["created"] == created_before + 1
            assert stats["live"] == 0
            rebuilt = dispatch_tile_payloads(payloads, workers=2, costs=costs)
            assert len(rebuilt) == len(payloads)
            assert pool_stats()["created"] == created_before + 2
        finally:
            shutdown_pools()


class TestPreparedClose:
    def test_close_drops_memoized_costs(self, small_generated_layout):
        """``close()`` releases the memoized cost tables (idempotently); a
        later run rebuilds them bit-identically."""
        prep = prepare(
            small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
        )
        engine = PILFillEngine(small_generated_layout, "metal3", make_cfg(), prepared=prep)
        before = engine.run()
        tables = prep.costs_for(True)
        prep.close()
        prep.close()
        assert prep.costs_for(True) is not tables
        assert prep.costs_for(True) == tables
        assert engine.run().features == before.features


#: Runs a process fill on a pool warmed before the first run, the way an
#: embedder (or a benchmark set-up) warms one: ``get_pool`` first, then
#: fills on one prepared instance. Prints a JSON summary on stdout.
_WARM_POOL_SCRIPT = textwrap.dedent(
    """
    import json, sys, time
    from repro.pilfill import (
        EngineConfig, PILFillEngine, SlackColumnDef, get_pool, prepare,
        result_digest, shutdown_pools,
    )
    from repro.synth import GeneratorSpec, generate_layout
    from repro.tech import DensityRules, FillRules, default_stack

    spec = GeneratorSpec(
        name="small", die_um=48.0, n_nets=24, seed=7,
        trunk_len_um=(8.0, 24.0), branch_len_um=(2.0, 8.0), sinks_per_net=(1, 3),
    )
    layout = generate_layout(spec, default_stack())
    fill = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
    density = DensityRules(window_size=16000, r=2, max_density=0.6)
    prep = prepare(layout, "metal3", fill, density, SlackColumnDef.FULL_LAYOUT)

    def run(**kwargs):
        cfg = EngineConfig(
            fill_rules=fill, density_rules=density, method="greedy",
            backend="scipy", **kwargs,
        )
        result = PILFillEngine(layout, "metal3", cfg, prepared=prep).run()
        return result_digest(result), len(result.failed_tiles)

    serial = run()
    runs = []
    for shards in json.loads(sys.argv[1]):
        list(get_pool(2).map(abs, range(8)))  # warm the pool first
        runs.append(run(workers=2, parallel_backend="process", shards=shards))
        shutdown_pools()
        # Idle time between runs: whatever the exited workers left behind
        # (helper processes included) has finished by the next run.
        time.sleep(1.0)
    print(json.dumps({"serial": serial, "runs": runs}))
    """
)


def _run_warm_pool_script(shards):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _WARM_POOL_SCRIPT, json.dumps(shards)],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestWarmPoolReruns:
    """A pool forked before the first run used to break the next run:
    each worker started its own ``multiprocessing`` resource tracker,
    and when the workers exited those trackers unlinked the parent's
    live cost-table segments. Both checks run in a fresh interpreter, so
    no earlier test has already started a tracker in the parent."""

    def test_rerun_after_shutdown_matches_serial(self):
        """Warm pool, process fill, ``shutdown_pools()``, the same fill
        again on the same prepared instance: both equal the serial run."""
        proc = _run_warm_pool_script([1, 1])
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        serial_digest, serial_failed = summary["serial"]
        assert serial_failed == 0
        assert summary["runs"] == [[serial_digest, 0], [serial_digest, 0]]

    def test_no_resource_tracker_warnings(self):
        proc = _run_warm_pool_script([1, 2])
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
