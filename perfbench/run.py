"""PIL-Fill benchmark: run one workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

Workloads: ``table1``, ``chip``, ``eco`` (see ``perfbench/README.md``).
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs half its time untraced and half traced, prints the
per-layer table, and writes the spans to ``perfbench/out/``. The last line
of standard output is the run's JSON result. The exit code is 1 when an
output check failed, 2 when the program's source is missing.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the only parallelism is the chip workload's
# pool. Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table1", "chip", "eco"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="append the run's full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: no program source under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import layer_table, run

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        print(layer_table(record["layers"], record["traced_run_s"]))
    else:
        for name, metric in record["metrics"].items():
            print(f"{name:<16}{metric['value']:>16.6f} {metric['unit']}")
        fills = len(record["samples"]["fill_s"])
        extra = record["extra"]
        print(f"{'refill_p50_s':<16}{extra['refill_p50_s']:>16.6f} s  ({fills} fills)")
        print(f"{'refill_p95_s':<16}{extra['refill_p95_s']:>16.6f} s  ({fills} fills)")
        print(f"{'tau_ps':<16}{extra['tau_ps']:>16.6f} ps")
        print(f"{'fail_ratio':<16}{extra['fail_ratio']:>16.6f} -")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    if args.results is not None:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
