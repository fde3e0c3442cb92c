"""Tests for bootstrap robustness analysis."""

import pytest

from repro.studies import robustness


class TestBootstrapModels:
    def test_replicate_count(self, ctx):
        models = robustness.bootstrap_models(ctx, "gzip", replicates=4, seed=1)
        assert len(models) == 4

    def test_models_differ_across_replicates(self, ctx):
        models = robustness.bootstrap_models(ctx, "gzip", replicates=2, seed=1)
        a = models[0].bips.coefficients
        b = models[1].bips.coefficients
        assert not (a == b).all()

    def test_deterministic_with_seed(self, ctx):
        a = robustness.bootstrap_models(ctx, "gzip", replicates=2, seed=9)
        b = robustness.bootstrap_models(ctx, "gzip", replicates=2, seed=9)
        assert (a[0].bips.coefficients == b[0].bips.coefficients).all()

    def test_rejects_zero_replicates(self, ctx):
        with pytest.raises(ValueError):
            robustness.bootstrap_models(ctx, "gzip", replicates=0)

    def test_models_remain_predictive(self, ctx):
        models = robustness.bootstrap_models(ctx, "gzip", replicates=3, seed=2)
        for replicate in models:
            assert replicate.bips.r_squared > 0.6
            assert replicate.watts.r_squared > 0.85


class TestEnginePredictions:
    """The studies predict replicates through the sweep engine; the
    engine must reproduce the dense encode-and-predict path exactly."""

    def test_replicate_matches_dense_prediction(self, ctx):
        from repro.designspace import DesignEncoder
        from repro.harness.sweep import PointSweepSource, predict_source
        from repro.studies.depth import depth_levels

        models = robustness.bootstrap_models(ctx, "mcf", replicates=1, seed=3)[0]
        encoder = DesignEncoder(ctx.exploration_space)
        baseline = ctx.baseline
        point_sets = {
            "exploration": (ctx.exploration_points(), ctx.exploration_source()),
            "depth": (
                [baseline.replace(depth=d) for d in depth_levels(ctx)],
                None,
            ),
        }
        for points, source in point_sets.values():
            source = source or PointSweepSource(ctx.exploration_space, points)
            matrix = encoder.encode(points)
            columns = {
                n: matrix[:, j] for j, n in enumerate(encoder.feature_names)
            }
            bips, watts = predict_source(models.predictor("mcf"), source)
            assert bips.tobytes() == models.bips.predict(columns).tobytes()
            assert watts.tobytes() == models.watts.predict(columns).tobytes()


class TestOptimumStability:
    def test_report_fields(self, ctx):
        stability = robustness.optimum_stability(ctx, "mcf", replicates=6, seed=3)
        assert stability.replicates == 6
        assert 0.0 < stability.modal_fraction <= 1.0
        assert set(stability.parameter_agreement) == set(
            ctx.exploration_space.names
        )
        assert stability.efficiency_cv >= 0.0

    def test_agreement_fractions_bounded(self, ctx):
        stability = robustness.optimum_stability(ctx, "mcf", replicates=6, seed=3)
        for fraction in stability.parameter_agreement.values():
            assert 0.0 <= fraction <= 1.0

    def test_points_live_in_exploration_space(self, ctx):
        stability = robustness.optimum_stability(ctx, "gzip", replicates=5, seed=3)
        assert stability.nominal_point in ctx.exploration_space
        assert stability.modal_point in ctx.exploration_space

    def test_mcf_l2_choice_is_stable(self, ctx):
        """mcf's defining conclusion — it wants a big L2 — should survive
        bootstrap resampling far better than the exact design point."""
        stability = robustness.optimum_stability(ctx, "mcf", replicates=8, seed=3)
        assert stability.parameter_agreement["l2_mb"] >= 0.6


class TestDepthStability:
    def test_histogram_is_distribution(self, ctx):
        stability = robustness.depth_optimum_stability(
            ctx, replicates=6, seed=4, benchmarks=["gzip", "mcf"]
        )
        total = sum(stability.depth_histogram.values())
        assert total == pytest.approx(1.0)
        assert stability.nominal_depth in stability.depth_histogram

    def test_within_one_level_bounded(self, ctx):
        stability = robustness.depth_optimum_stability(
            ctx, replicates=6, seed=4, benchmarks=["gzip", "mcf"]
        )
        assert 0.0 <= stability.within_one_level <= 1.0

    def test_depth_optimum_reasonably_stable(self, ctx):
        """Figure 6's claim that the optimum is resolved within ~3 FO4
        implies bootstrap replicates should cluster near the nominal."""
        stability = robustness.depth_optimum_stability(
            ctx, replicates=8, seed=4, benchmarks=["gzip", "gcc", "mesa"]
        )
        assert stability.within_one_level >= 0.5
