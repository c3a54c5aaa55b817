"""Tests of the benchmark itself, at reduced sizes.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

* each workload, untraced and traced, reports exactly the metrics
  ``BENCHMARK.json`` declares and passes its output checks, and the traced
  layer self times add up to the traced iteration time;
* ``compare`` flags a 2x slowdown injected into one layer's function and
  stays quiet on two reruns of unchanged code;
* ``compare`` calls an end-to-end median past its bound ``worse`` however
  many pairs it loses, and a gain ``better`` only with 9 in 10 pairs won.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import bench, compare, workloads  # noqa: E402


@pytest.mark.parametrize("name", ["table1", "chip", "eco"])
def test_workload_smoke(name):
    contract = bench.contract()
    for trace, declared in ((False, contract["end_to_end"]), (True, contract["per_layer"])):
        record = bench.run(name, seed=5, seconds=60.0, trace=trace, small=True, max_iterations=2)
        assert record["correct"], record["failures"]
        assert record["failed"] == 0 and record["attempted"] > 0
        assert list(record["metrics"]) == [m["name"] for m in declared]
        for metric, spec in zip(record["metrics"].values(), declared):
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"])
    layers = record["layers"]
    attributed = sum(layers.get(n, 0.0) for n in bench.SELF_TIMES)
    assert attributed == pytest.approx(record["traced_run_s"], rel=1e-9)
    assert layers["unattributed_s"] < 0.05 * record["traced_run_s"]
    assert layers["pilfill.scanline.columns"] == layers["pilfill.costs.columns"]


def test_table1_check_catches_a_changed_csv():
    table1 = bench.make_workload("table1", seed=0, small=True)
    table1.setup()
    table1.warmup()
    header, first, *rest = table1.csvs[0][1].splitlines()
    cells = first.split(",")
    cells[7] = str(int(cells[7]) + 1)  # features
    table1.csvs.append(("tampered", "\n".join([header, ",".join(cells), *rest]) + "\n"))
    failures = table1.check()
    assert len(failures) == 2 and "features" in failures[0]


@contextmanager
def _slowed_prepare(monkeypatch):
    """Make the chip workload's prepare layer do its work twice."""
    original = workloads.pf_prepare.prepare_streaming

    def twice(source, *args, **kwargs):
        text = source.read()
        original(text, *args, **kwargs)
        return original(text, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(workloads.pf_prepare, "prepare_streaming", twice)
        yield


def test_compare_flags_a_2x_layer_slowdown_and_not_a_rerun(monkeypatch):
    contract = bench.contract()
    base, rerun, slowed = [], [], []
    for seed in range(8):
        # Interleaved, so drift of the host hits all three sides alike.
        for side in (base, rerun):
            side.append(bench.run("chip", seed, 60.0, False, small=True, max_iterations=2))
        with _slowed_prepare(monkeypatch):
            slowed.append(bench.run("chip", seed, 60.0, False, small=True, max_iterations=2))

    quiet = [r for r in compare.compare(base, rerun, contract) if r.verdict in ("worse", "better")]
    assert not quiet, compare.format_rows(quiet)
    verdicts = {r.metric: r.verdict for r in compare.compare(base, slowed, contract)}
    assert verdicts["run_s"] == "worse"
    assert verdicts["tiles_per_s"] == "worse"


def test_compare_calls_a_median_past_the_bound_worse_without_consistent_losses():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]
    # Eight of ten pairs lose, the median is 30% worse: past a 0.25 bound.
    change = [1.3 * p for p in parent[:8]] + [0.8, 0.7]
    assert compare.verdict(parent, change, "lower", 0.25) == "worse"
    # Eight of ten pairs win by 30%: not the 9 in 10 a gain needs.
    faster = [p / 1.3 for p in parent[:8]] + [1.2, 1.3]
    assert compare.verdict(parent, faster, "lower", 0.25) != "better"
