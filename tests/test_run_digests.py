"""Pinned ``result_digest`` values for every run variant and dispatch path.

``tests/golden/run_digests.json`` freezes the placement digest (see
:func:`repro.pilfill.shard.result_digest`) of:

* ``run`` on T1 and T2 (window 32 µm, r = 8) for greedy, dp, normal and
  ilp2 with the bundled ILP backend, at 1 and 3 shards, on the serial,
  thread×2 and process×2 backends;
* ``run_mvdc(0.3)`` on the serial and process×2 backends;
* ``run_budgeted`` in exact and greedy mode.

Any refactor of the solve pipeline must reproduce every digest bit for
bit. Regenerate deliberately (after a change that legitimately moves a
placement) with::

    PYTHONPATH=src python tests/test_run_digests.py --regenerate

and review the diff like any other golden update.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    derive_net_cap_budgets,
    prepare,
    result_digest,
    shutdown_pools,
)
from repro.synth import make_t1, make_t2
from repro.synth.testcases import default_fill_rules, density_rules_for

GOLDEN = Path(__file__).parent / "golden" / "run_digests.json"

TESTCASES = {"T1": make_t1, "T2": make_t2}
METHODS = ("greedy", "dp", "normal", "ilp2")
SHARDS = (1, 3)
#: name -> (workers, parallel_backend)
BACKENDS = {"serial": (1, "thread"), "thread2": (2, "thread"), "process2": (2, "process")}
MVDC_BACKENDS = ("serial", "process2")
WINDOW_UM = 32
R = 8
MVDC_FRACTION = 0.3
BUDGET_SLACK_FRACTION = 0.05


def _config(layout, **kwargs) -> EngineConfig:
    kwargs.setdefault("backend", "bundled")
    return EngineConfig(
        fill_rules=default_fill_rules(layout.stack),
        density_rules=density_rules_for(WINDOW_UM, R, layout.stack),
        **kwargs,
    )


def compute() -> dict[str, str]:
    """Every pinned digest, keyed ``variant/testcase/...``."""
    digests: dict[str, str] = {}
    try:
        for name, make in TESTCASES.items():
            layout = make()
            base = _config(layout)
            prep = prepare(
                layout, "metal3", base.fill_rules, base.density_rules,
                SlackColumnDef.FULL_LAYOUT,
            )
            try:
                for method in METHODS:
                    for shards in SHARDS:
                        for label, (workers, backend) in BACKENDS.items():
                            cfg = _config(
                                layout, method=method, shards=shards,
                                workers=workers, parallel_backend=backend,
                            )
                            run = PILFillEngine(layout, "metal3", cfg, prepared=prep).run()
                            key = f"run/{name}/{method}/shards{shards}/{label}"
                            digests[key] = result_digest(run)
                for label in MVDC_BACKENDS:
                    workers, backend = BACKENDS[label]
                    cfg = _config(layout, method="greedy", workers=workers,
                                  parallel_backend=backend)
                    run = PILFillEngine(layout, "metal3", cfg, prepared=prep).run_mvdc(
                        MVDC_FRACTION
                    )
                    digests[f"mvdc/{name}/{label}"] = result_digest(run)
                net_budgets = derive_net_cap_budgets(layout, BUDGET_SLACK_FRACTION)
                for exact in (True, False):
                    engine = PILFillEngine(
                        layout, "metal3", _config(layout, method="ilp2"), prepared=prep
                    )
                    run = engine.run_budgeted(net_budgets, exact=exact)
                    mode = "exact" if exact else "greedy"
                    digests[f"budgeted/{name}/{mode}"] = result_digest(run)
            finally:
                prep.close()
    finally:
        shutdown_pools()
    return digests


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return compute()


def test_every_pinned_digest_is_reproduced(computed):
    pinned = json.loads(GOLDEN.read_text())["digests"]
    assert sorted(computed) == sorted(pinned)
    mismatched = sorted(k for k in pinned if computed[k] != pinned[k])
    assert not mismatched, f"digests moved: {mismatched}"


def test_backends_and_shards_agree(computed):
    """Within one method and testcase every shard count and backend
    digests equal — the bit-identity contract the pins freeze."""
    for name in TESTCASES:
        for method in METHODS:
            group = {
                v for k, v in computed.items()
                if k.startswith(f"run/{name}/{method}/")
            }
            assert len(group) == 1, (name, method)
        assert computed[f"mvdc/{name}/serial"] == computed[f"mvdc/{name}/process2"]


if __name__ == "__main__":  # pragma: no cover - manual regeneration
    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_run_digests.py --regenerate")
    GOLDEN.write_text(
        json.dumps({"digests": compute()}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
