"""Record the ``chip`` workload's expected digests and τ.

Run from the root of a checkout::

    python3 perfbench/record_chip.py

For each chip size the benchmark runs (the 160 µm workload and the 96 µm
die of its smoke test) this parses the band-sorted DEF whole, runs
``prepare`` with the direct density backend, and solves serially without
shards: the reference path, none of the streaming, FFT, pool or shard code
the benchmark times. It writes ``PreparedInstance.digest()``, the
``result_digest`` and the weighted τ to ``perfbench/chip_expected.json``,
which the ``chip`` check compares every run against. Re-record only when a
change of the program is meant to change these values.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIES_UM = (160.0, 96.0)


def record(die_um: float) -> dict:
    from perfbench.workloads import LAYER, chip_config, chip_spec
    from repro.io.deflite import parse_def
    from repro.pilfill.engine import PILFillEngine
    from repro.pilfill.evaluate import evaluate_impact
    from repro.pilfill.prepare import prepare
    from repro.pilfill.shard import result_digest
    from repro.synth import iter_banded_def_lines
    from repro.tech.process import default_stack

    stack = default_stack()
    text = "".join(line + "\n" for line in iter_banded_def_lines(chip_spec(die_um), stack))
    layout = parse_def(text, stack)
    config = replace(
        chip_config(stack), workers=1, parallel_backend="thread", shards=1,
        density_backend="direct",
    )
    prep = prepare(layout, LAYER, config.fill_rules, config.density_rules)
    result = PILFillEngine(layout, LAYER, config, prepared=prep).run(
        budget=prep.budget_for(config)
    )
    impact = evaluate_impact(layout, LAYER, result.features, config.fill_rules)
    return {
        "prepared_digest": prep.digest(),
        "result_digest": result_digest(result),
        "tau_ps": impact.weighted_total_ps,
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import CHIP_EXPECTED

    expected = {f"{die:g}": record(die) for die in DIES_UM}
    CHIP_EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    print(json.dumps(expected, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
