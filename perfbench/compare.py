"""Compare two sets of benchmark runs, one row per workload and metric.

Run from the root of a checkout::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --results FILE`` appends, one per
run. Runs of one workload are paired in seed order (run the same seeds on
both sides, alternating which side runs first). For each end-to-end
metric (``--trace 0`` runs) and per-layer metric (``--trace 1`` runs) the
table gives each side's quartiles and median, the pairs the change won,
and a verdict:

* ``better``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's spread (its quartile distance);
* ``worse``: for an end-to-end metric, the change's median is worse than
  the parent's by more than the metric's bound in ``BENCHMARK.json``,
  however many pairs it loses; for a per-layer metric, the ``better``
  rule the other way;
* ``unresolved``: neither, but the spread of either side is wider than the
  bound (or, per layer, than the difference);
* ``unchanged``: otherwise.

The exit code is 1 when some end-to-end row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics`` method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """The verdict for one metric; ``bound`` is ``None`` for a per-layer one."""
    if parent == change:
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    qp, qc = quartiles(parent), quartiles(change)
    worse_by = sign * (qc[1] - qp[1])
    beyond_spread = abs(worse_by) > qp[2] - qp[0]
    if beyond_spread and worse_by < 0 and wins >= 0.9 * len(pairs):
        return "better"
    if bound is None:
        if beyond_spread and worse_by > 0 and losses >= 0.9 * len(pairs):
            return "worse"
        return "unresolved" if beyond_spread else "unchanged"
    if worse_by > bound * abs(qp[1]):
        return "worse"
    spread = max(_relative_spread(qp), _relative_spread(qc))
    if spread > bound:
        all_better = all(sign * (c - p) < 0 for p in parent for c in change)
        return "better" if all_better else "unresolved"
    return "unchanged"


def _relative_spread(q: tuple[float, float, float]) -> float:
    if q[1] == 0:
        return 0.0 if q[2] == q[0] else float("inf")
    return (q[2] - q[0]) / abs(q[1])


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str
    end_to_end: bool


def compare(parent: list[dict], change: list[dict], contract: dict) -> list[Row]:
    """Rows for every workload and metric present on both sides."""
    rows = []
    for trace, declared in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
        workloads = sorted(
            {r["workload"] for r in parent if r["trace"] == trace}
            & {r["workload"] for r in change if r["trace"] == trace}
        )
        for workload in workloads:
            a = _runs(parent, workload, trace)
            b = _runs(change, workload, trace)
            n = min(len(a), len(b))
            for metric in declared:
                name = metric["name"]
                pa = [r["metrics"][name]["value"] for r in a[:n]]
                pb = [r["metrics"][name]["value"] for r in b[:n]]
                sign = 1.0 if metric["better"] == "lower" else -1.0
                rows.append(Row(
                    workload=workload, metric=name, unit=metric["unit"],
                    parent=quartiles(pa), change=quartiles(pb),
                    wins=sum(1 for p, c in zip(pa, pb) if sign * (c - p) < 0), pairs=n,
                    verdict=verdict(pa, pb, metric["better"], metric.get("bound")),
                    end_to_end=trace == 0,
                ))
    return rows


def _runs(records: list[dict], workload: str, trace: int) -> list[dict]:
    return sorted(
        (r for r in records if r["workload"] == workload and r["trace"] == trace),
        key=lambda r: r["seed"],
    )


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<8} {'metric':<32} {'unit':<6} "
        f"{'parent q1 / median / q3':>36} {'change q1 / median / q3':>36} {'wins':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<8} {row.metric:<32} {row.unit:<6} "
            f"{_fmt(row.parent):>36} {_fmt(row.change):>36} "
            f"{row.wins:>3}/{row.pairs:<2}  {row.verdict}"
        )
    return "\n".join(lines)


def _fmt(q: tuple[float, float, float]) -> str:
    return " / ".join(f"{v:.4g}" for v in q)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change), contract)
    print(format_rows(rows))
    return 1 if any(r.end_to_end and r.verdict == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
