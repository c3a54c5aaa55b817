"""The delay-impact scorer: one reusable model against the one-shot
``evaluate_impact``, marginal costs, and the harness's one model per
configuration."""

import dataclasses

import pytest

from repro.errors import FillError
from repro.experiments import run_config
from repro.geometry import Rect
from repro.layout import FillFeature
from repro.pilfill import EngineConfig, ImpactModel, PILFillEngine, evaluate_impact
from repro.tech import DensityRules
from tests.test_vertical_layer import build_two_vertical_lines


def engine_placement(layout, layer, method, window, fill_rules):
    cfg = EngineConfig(
        fill_rules=fill_rules,
        density_rules=DensityRules(window_size=window, r=2, max_density=0.6),
        method=method,
        backend="scipy",
    )
    return PILFillEngine(layout, layer, cfg).run().features


class TestAgainstBatchEvaluator:
    def test_identical_on_engine_placement(self, stack, small_generated_layout, fill_rules):
        """On a horizontal (metal3) and a vertical (metal4) layer, a reused
        model (warm locate cache) scores exactly like the one-shot
        ``evaluate_impact``."""
        vertical_layout = build_two_vertical_lines(stack)
        cases = [
            (small_generated_layout, "metal3", "greedy", 16000),
            (vertical_layout, "metal4", "normal", 20000),
        ]
        for layout, layer, method, window in cases:
            features = engine_placement(layout, layer, method, window, fill_rules)
            batch = evaluate_impact(layout, layer, features, fill_rules)
            model = ImpactModel(layout, layer, fill_rules)
            model.score(features[::2])
            incremental = model.score(features)
            assert incremental.total_ps > 0.0
            assert dataclasses.asdict(incremental) == dataclasses.asdict(batch)
            assert list(incremental.per_net_ps) == list(batch.per_net_ps)

    def test_empty_placement(self, two_line_layout, fill_rules):
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        report = model.score([])
        assert report.total_ps == 0.0

    def test_model_reusable(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        f1 = FillFeature("metal3", Rect(10000, gap_lo + 1000, 10500, gap_lo + 1500))
        f2 = FillFeature("metal3", Rect(30000, gap_lo + 1000, 30500, gap_lo + 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        a = model.score([f1])
        b = model.score([f2])
        both = model.score([f1, f2])
        assert both.total_ps == pytest.approx(a.total_ps + b.total_ps)


class TestMarginalCost:
    def test_first_feature_cost(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        feature = FillFeature("metal3", Rect(20000, gap_lo + 1000, 20500, gap_lo + 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        marginal = model.marginal_cost_ps(feature)
        assert marginal == pytest.approx(model.score([feature]).weighted_total_ps)

    def test_marginal_respects_nonlinearity(self, two_line_layout, fill_rules):
        """Second feature in the same column costs more than the first."""
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        pitch = fill_rules.pitch
        f1 = FillFeature("metal3", Rect(20000, gap_lo + 500, 20500, gap_lo + 1000))
        f2 = FillFeature(
            "metal3", Rect(20000, gap_lo + 500 + pitch, 20500, gap_lo + 1000 + pitch)
        )
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        first = model.marginal_cost_ps(f1)
        second = model.marginal_cost_ps(f2, existing=[f1])
        assert second > first

    def test_marginals_sum_to_total(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        pitch = fill_rules.pitch
        feats = [
            FillFeature("metal3", Rect(20000, gap_lo + 500 + i * pitch,
                                       20500, gap_lo + 1000 + i * pitch))
            for i in range(3)
        ]
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        total = 0.0
        for i, f in enumerate(feats):
            total += model.marginal_cost_ps(f, existing=feats[:i])
        assert total == pytest.approx(model.score(feats).weighted_total_ps)

    def test_other_layer_zero_marginal(self, two_line_layout, fill_rules):
        """A metal2 feature inside the metal3 gap is not scored on metal3."""
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        feature = FillFeature("metal2", Rect(20000, gap_lo + 1000, 20500, gap_lo + 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        assert model.score([feature]).weighted_total_ps == 0.0
        assert evaluate_impact(two_line_layout, "metal3", [feature], fill_rules).total_ps == 0.0
        assert model.marginal_cost_ps(feature) == 0.0
        on_layer = FillFeature("metal3", feature.rect)
        assert model.marginal_cost_ps(feature, existing=[on_layer]) == 0.0

    def test_free_feature_zero_marginal(self, two_line_layout, fill_rules):
        feature = FillFeature("metal3", Rect(20000, 1000, 20500, 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        assert model.marginal_cost_ps(feature) == 0.0

    def test_feature_on_active_rejected(self, two_line_layout, fill_rules):
        rect = two_line_layout.segments_on_layer("metal3")[0].rect
        bad = FillFeature("metal3", Rect(rect.xlo + 100, rect.ylo, rect.xlo + 600, rect.ylo + 500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        with pytest.raises(FillError):
            model.locate(bad)

    def test_block_count_positive(self, two_line_layout, fill_rules):
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        assert model.block_count >= 3


class TestHarnessScoring:
    def test_one_model_per_configuration(self, small_generated_layout, monkeypatch):
        built = []
        scored = []
        init, score = ImpactModel.__init__, ImpactModel.score

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def recording_score(self, features):
            scored.append(list(features))
            return score(self, features)

        monkeypatch.setattr(ImpactModel, "__init__", counting_init)
        monkeypatch.setattr(ImpactModel, "score", recording_score)
        methods = ("normal", "ilp1", "ilp2", "greedy")
        result = run_config(small_generated_layout, "small", window_um=16, r=2,
                            methods=methods)
        assert len(built) == 1
        assert len(scored) == len(methods)
        model = built[0]
        for method, features in zip(methods, scored):
            reference = evaluate_impact(
                small_generated_layout, model.layer, features, model.rules
            )
            outcome = result.outcomes[method]
            assert outcome.features == len(features)
            assert outcome.tau_ps == reference.total_ps
            assert outcome.weighted_tau_ps == reference.weighted_total_ps
