"""Engine-level per-net capacitance-budgeted flow (paper §7 extension)."""

import pytest

from repro.errors import FillError
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SolutionCache,
    derive_net_cap_budgets,
    evaluate_impact,
)
from repro.tech import DensityRules
from repro.testing.faults import FaultSpec


@pytest.fixture
def engine(small_generated_layout, fill_rules):
    cfg = EngineConfig(
        fill_rules=fill_rules,
        density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
        method="ilp2",
        backend="scipy",
    )
    return PILFillEngine(small_generated_layout, "metal3", cfg)


class TestRunBudgeted:
    def test_unconstrained_matches_plain_run_count(self, engine):
        plain = engine.run()
        budgeted = engine.run_budgeted({})
        assert budgeted.total_features == plain.total_features

    def test_generous_budgets_keep_count(self, engine, small_generated_layout):
        budgets = derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=100.0)
        result = engine.run_budgeted(budgets)
        plain = engine.run()
        assert result.total_features == plain.total_features

    def test_tight_budgets_reduce_per_net_impact(self, engine, small_generated_layout, fill_rules):
        plain = engine.run()
        plain_impact = evaluate_impact(
            small_generated_layout, "metal3", plain.features, fill_rules
        )
        # Pick the worst-hit net and cut its allowance to near zero.
        if not plain_impact.per_net_weighted_ps:
            pytest.skip("no coupled fill in this layout")
        victim = max(plain_impact.per_net_weighted_ps,
                     key=plain_impact.per_net_weighted_ps.get)
        result = engine.run_budgeted({victim: 1e-9})
        impact = evaluate_impact(
            small_generated_layout, "metal3", result.features, fill_rules
        )
        before = plain_impact.per_net_weighted_ps[victim]
        after = impact.per_net_weighted_ps.get(victim, 0.0)
        assert after < before * 0.5

    def test_greedy_mode_runs(self, engine, small_generated_layout):
        budgets = derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=0.01)
        result = engine.run_budgeted(budgets, exact=False)
        assert result.total_features >= 0
        assert result.shortfall >= 0

    def test_exact_beats_or_ties_greedy_on_objective(self, engine, small_generated_layout):
        budgets = derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=0.05)
        exact = engine.run_budgeted(budgets, exact=True)
        greedy = engine.run_budgeted(budgets, exact=False)
        # Compare only when both placed the same feature count (otherwise
        # objectives aren't comparable).
        if exact.total_features == greedy.total_features:
            assert exact.model_objective_ps <= greedy.model_objective_ps * (1 + 1e-3) + 1e-9


class TestRejectedKnobs:
    """Every EngineConfig knob a run variant cannot honour is rejected
    with FillError instead of being silently ignored."""

    @pytest.mark.parametrize(
        "variant,knobs",
        [
            pytest.param("budgeted", {"workers": 2}, id="budgeted-workers"),
            pytest.param("budgeted", {"shards": 2}, id="budgeted-shards"),
            pytest.param(
                "budgeted", {"fault_spec": FaultSpec.single("error")},
                id="budgeted-fault_spec",
            ),
            pytest.param("budgeted", {"telemetry": True}, id="budgeted-telemetry"),
            pytest.param(
                "budgeted", {"solution_cache": SolutionCache()},
                id="budgeted-solution_cache",
            ),
            pytest.param(
                "mvdc", {"solution_cache": SolutionCache()}, id="mvdc-solution_cache"
            ),
        ],
    )
    def test_unsupported_knob_rejected(
        self, small_generated_layout, fill_rules, variant, knobs
    ):
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
            method="greedy",
            backend="scipy",
            **knobs,
        )
        engine = PILFillEngine(small_generated_layout, "metal3", cfg)
        name = next(iter(knobs))
        with pytest.raises(FillError, match=name):
            if variant == "budgeted":
                engine.run_budgeted({})
            else:
                engine.run_mvdc(slack_fraction=0.3)
