"""Run-report exporter: engine results + telemetry → one JSON document.

The report schema (``pilfill-run-report/v1``) bundles everything a
post-mortem needs: the engine configuration, per-tile budgets, every
:class:`~repro.pilfill.robust.SolveReport` (including the rung error
history of degraded/failed tiles), the merged metrics snapshot, and the
nested span tree.  ``FillResult.to_report()`` and the CLI's
``--trace-out`` / ``--metrics-out`` flags are thin wrappers over
:func:`run_report` / :func:`write_report`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.io.atomic import atomic_write_json
from repro.obs.trace import span_tree

if TYPE_CHECKING:  # engine types only for annotations — no runtime cycle
    from repro.pilfill.engine import EngineConfig, FillResult
    from repro.pilfill.robust import SolveReport

#: Version tag embedded in every exported report.
REPORT_SCHEMA = "pilfill-run-report/v1"


def config_dict(config: EngineConfig) -> dict[str, Any]:
    """JSON-ready summary of the run configuration."""
    return {
        "method": config.method,
        "weighted": config.weighted,
        "column_def": config.column_def.name,
        "density_backend": config.density_backend,
        "budget_mode": config.budget_mode,
        "target_density": config.target_density,
        "capacity_margin": config.capacity_margin,
        "backend": config.backend,
        "seed": config.seed,
        "workers": config.workers,
        "parallel_backend": config.parallel_backend,
        "shards": config.shards,
        "tile_deadline_s": config.tile_deadline_s,
        "run_deadline_s": config.run_deadline_s,
        "fault_spec": config.fault_spec is not None,
        "telemetry": config.telemetry,
        "solution_cache": config.solution_cache is not None,
    }


def solve_report_dict(report: SolveReport) -> dict[str, Any]:
    """JSON-ready view of one tile's solve report."""
    status = "failed" if report.failed else ("degraded" if report.degraded else "ok")
    return {
        "tile": list(report.key),
        "requested_method": report.requested_method,
        "used_method": report.used_method,
        "retries": report.retries,
        "errors": list(report.errors),
        "status": status,
    }


def run_report(result: FillResult, config: EngineConfig | None = None) -> dict[str, Any]:
    """Assemble the full ``pilfill-run-report/v1`` document."""
    telemetry = result.telemetry
    return {
        "schema": REPORT_SCHEMA,
        "config": config_dict(config) if config is not None else None,
        "totals": {
            "features": result.total_features,
            "shortfall": result.shortfall,
            "model_objective_ps": result.model_objective_ps,
            "tiles_solved": len(result.tile_solutions),
            "degraded_tiles": len(result.degraded_tiles),
            "failed_tiles": len(result.failed_tiles),
            "retried_tiles": len(result.retried_tiles),
            "clean": result.clean,
        },
        "budgets": {
            "requested": sum(result.requested_budget.values()),
            "effective": sum(result.effective_budget.values()),
        },
        "phase_seconds": dict(result.phase_seconds),
        "solve_reports": [
            solve_report_dict(result.solve_reports[key])
            for key in sorted(result.solve_reports)
        ],
        "tile_seconds": {
            f"{key[0]},{key[1]}": seconds
            for key, seconds in sorted(result.tile_seconds.items())
        },
        "cache": dict(result.cache_stats) if result.cache_stats is not None else None,
        "metrics": telemetry.metrics.snapshot().as_dict() if telemetry is not None else None,
        "spans": span_tree(telemetry.tracer.records()) if telemetry is not None else None,
    }


def write_report(path: str | Path, payload: dict[str, Any]) -> None:
    """Write a report dict as pretty-printed JSON, creating parent dirs.

    Atomic (temp file + rename): CI artifact collectors and warm-cache
    consumers never observe a torn report.
    """
    atomic_write_json(Path(path), payload)
