"""One benchmark run: set up a workload, measure it, check its outputs.

:func:`run` is what ``perfbench/run.py`` calls and what the benchmark's
tests call in-process. It returns the run's record: the result fields
(``correct``, ``attempted``, ``failed``, ``metrics``) plus what ``compare``
and a reader need (per-iteration samples, τ, the failure messages).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench.spans import NullTracer, Tracer
from perfbench.workloads import Chip, Eco, Table1
from repro.experiments.tables import TableSpec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-ups before the timed part and after the output checks; ``setup_s``
#: is the mean of every set-up in the run. Set-ups made back to back all
#: land in one state of the shared host's drifting speed, so they are
#: spread over the run.
SETUP_REPS = {"table1": (3, 0), "chip": (3, 0), "eco": (2, 1)}

#: Workloads that also set up again after every timed iteration: their
#: set-up takes milliseconds. (``eco`` sets up for seconds, priming its
#: cache, and sets up once more after its checks instead.)
SETUP_BETWEEN = {"table1", "chip"}

#: Reduced sizes for the benchmark's own smoke tests.
SMALL = {
    "table1": {"spec": TableSpec(testcases=("T1",), windows_um=(32,), r_values=(2,))},
    "chip": {"die_um": 96.0},
    "eco": {"window_um": 32, "r": 2},
}


def contract() -> dict:
    """``BENCHMARK.json``: the metric names and units every run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def make_workload(name: str, seed: int, small: bool = False):
    """Workload ``name``; only ``eco`` draws its inputs from ``seed``.

    ``table1`` runs the paper's fixed T1, so the golden CSV applies to
    every run. ``chip`` runs T3's own recipe (generator seed 3): layouts
    drawn per seed differ by ~6% in solved tiles, a third of the
    regression bound, so there the seed is only recorded.
    """
    sizes = SMALL[name] if small else {}
    if name == "table1":
        return Table1(**sizes)
    if name == "chip":
        return Chip(OUT_DIR / f"work-{os.getpid()}", **sizes)
    if name == "eco":
        return Eco(seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")


def _set_up(workload, setups: list[tuple[float, dict]]) -> None:
    """Set ``workload`` up once, timed, after collecting earlier garbage."""
    gc.collect()
    t0 = time.perf_counter()
    layers = workload.setup()
    setups.append((time.perf_counter() - t0, layers))


def _measure(
    workload, tracer, seconds: float, max_iterations: int | None,
    setups: list[tuple[float, dict]] | None,
) -> list:
    """Iterations until ``seconds`` have passed (at least one), each
    followed by a set-up when ``setups`` collects them.

    Garbage left by the previous iteration is collected before the next
    starts, untimed, so no iteration pays for another's.
    """
    iterations = []
    end = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < end:
        if max_iterations is not None and len(iterations) >= max_iterations:
            break
        gc.collect()
        iterations.append(workload.iterate(tracer))
        if setups is not None:
            _set_up(workload, setups)
    return iterations


def run(
    name: str, seed: int, seconds: float, trace: bool, small: bool = False,
    max_iterations: int | None = None,
) -> dict:
    """Run workload ``name`` once; see the module docstring."""
    spec = contract()
    workload = make_workload(name, seed, small)
    setups: list[tuple[float, dict]] = []
    between = setups if name in SETUP_BETWEEN else None
    before, after = SETUP_REPS[name]
    try:
        for _ in range(before):
            _set_up(workload, setups)
        workload.warmup()
        # A traced run measures untraced for half its time, then traced,
        # so the tracing overhead is read off one process.
        untraced = _measure(
            workload, NullTracer(), seconds / 2 if trace else seconds, max_iterations, between
        )
        tracer = Tracer(f"{name}-{seed}-{os.getpid()}")
        traced = (
            _measure(workload, tracer, seconds / 2, max_iterations, between) if trace else []
        )
        failures = workload.check()
        for _ in range(after):
            _set_up(workload, setups)
    finally:
        workload.close()

    iterations = untraced + traced
    attempted = sum(it.tile_solves for it in iterations)
    failed = sum(it.bad_tiles for it in iterations) + len(failures)
    walls = [it.wall_s for it in untraced]
    fills = [s for it in untraced for s in it.fill_s]
    setup_s = [took for took, _layers in setups]
    # Means, not medians, over a run's iterations and set-ups: the shared
    # host switches between a fast and a ~1.5x slower state for seconds at
    # a time, so a run's samples fall into two groups and their median
    # jumps between them from run to run, while the mean moves with the
    # share of the run spent in each.
    e2e = {
        "run_s": statistics.fmean(walls),
        "setup_s": statistics.fmean(setup_s),
        "cpu_s": statistics.fmean(it.cpu_s for it in untraced),
        "peak_rss_mb": max(it.peak_rss_mb for it in untraced),
        "tiles_per_s": sum(it.tile_solves for it in untraced) / sum(walls),
    }
    extra = {
        "refill_p50_s": float(np.percentile(fills, 50)),
        "refill_p95_s": float(np.percentile(fills, 95)),
        "tau_ps": statistics.median(it.tau_ps for it in iterations),
        "fail_ratio": failed / max(1, attempted),
    }
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "correct": not failures, "attempted": max(1, attempted), "failed": failed,
        "failures": failures, "iterations": len(untraced),
        "samples": {"run_s": walls, "fill_s": fills, "setup_s": setup_s},
        "extra": extra,
    }
    if trace:
        layers = _layers(traced, [layers for _took, layers in setups], walls)
        record["layers"] = layers
        record["traced_run_s"] = statistics.fmean(it.wall_s for it in traced)
        record["metrics"] = _pick(spec["per_layer"], layers)
        _write_trace(tracer, name, seed, layers, record["traced_run_s"])
    else:
        record["metrics"] = _pick(spec["end_to_end"], e2e)
    return record


def _layers(traced: list, setup_layers: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer values: means over the traced iterations, so the layer
    self times plus ``unattributed_s`` add up to the mean traced run."""
    names = sorted({name for it in traced for name in it.layers})
    layers = {
        name: statistics.fmean(it.layers.get(name, 0.0) for it in traced) for name in names
    }
    parse = [s.get("io.parse_s", 0.0) for s in setup_layers]
    layers["io.parse_s"] = statistics.fmean(parse)
    layers["trace_overhead_s"] = statistics.fmean(it.wall_s for it in traced) - statistics.fmean(
        untraced_walls
    )
    return layers


def _pick(declared: list[dict], values: dict) -> dict:
    """The declared metrics, in contract order, with their units."""
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


#: Span names that are layer self times (the rest of the per-layer table
#: are counts, ratios and the excluded probe spans).
SELF_TIMES = (
    "pilfill.prepare.s", "dissection.density_s", "fillsynth.budget_s", "pilfill.costs.s",
    "pilfill.engine.solve_s.normal", "pilfill.engine.solve_s.ilp1",
    "pilfill.engine.solve_s.ilp2", "pilfill.engine.solve_s.greedy",
    "pilfill.incremental.invalidate_s", "pilfill.evaluate.s", "experiments.assemble_s",
    "unattributed_s",
)


def layer_table(layers: dict, traced_run_s: float) -> str:
    """The per-layer table: self times that sum to the traced run, then
    every other per-layer value."""
    lines = [f"{'layer':<36}{'value':>14}  share"]
    for name in SELF_TIMES:
        value = layers.get(name, 0.0)
        lines.append(f"{name:<36}{value:>14.6f}  {value / traced_run_s:6.1%}")
    total = sum(layers.get(name, 0.0) for name in SELF_TIMES)
    lines.append(f"{'sum = traced run_s':<36}{total:>14.6f}  ({traced_run_s:.6f})")
    lines.extend(
        f"{name:<36}{value:>14.6f}"
        for name, value in sorted(layers.items())
        if name not in SELF_TIMES
    )
    return "\n".join(lines)


def _write_trace(tracer: Tracer, name: str, seed: int, layers: dict, traced_run_s: float) -> None:
    stem = f"{name}-seed{seed}"
    tracer.write(OUT_DIR / f"spans-{stem}.json")
    (OUT_DIR / f"layers-{stem}.txt").write_text(layer_table(layers, traced_run_s) + "\n")
