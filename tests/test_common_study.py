"""Tests for StudyContext and PredictionTable."""

import dataclasses

import numpy as np
import pytest

from repro.designspace import sample_uar
from repro.experiments import run_experiment
from repro.obs.metrics import isolated_registry
from repro.studies import depth, pareto
from repro.studies.common import PredictionTable, StudyContext


class TestPredictionTable:
    def make(self, ctx, count=5):
        points = ctx.exploration_points()[:count]
        return ctx.predict_points("gzip", points)

    def test_lengths_align(self, ctx):
        table = self.make(ctx)
        assert len(table) == 5
        assert table.bips.shape == (5,)
        assert table.watts.shape == (5,)

    def test_delay_consistent_with_bips(self, ctx):
        table = self.make(ctx)
        manual = table.ref_instructions / (table.bips * 1e9)
        assert table.delay == pytest.approx(manual)

    def test_efficiency_consistent(self, ctx):
        table = self.make(ctx)
        assert table.efficiency == pytest.approx(table.bips**3 / table.watts)

    def test_subset(self, ctx):
        table = self.make(ctx)
        subset = table.subset([0, 3])
        assert len(subset) == 2
        assert subset.points[1] == table.points[3]
        assert subset.bips[1] == table.bips[3]

    def test_mismatched_columns_rejected(self, ctx):
        points = ctx.exploration_points()[:3]
        with pytest.raises(ValueError):
            PredictionTable(
                benchmark="x",
                points=points,
                bips=np.ones(2),
                watts=np.ones(3),
                ref_instructions=1e9,
            )


class TestStudyContext:
    def test_exploration_points_respect_limit(self, ctx):
        points = ctx.exploration_points()
        assert len(points) == ctx.scale.exploration_limit

    def test_exploration_points_memoized(self, ctx):
        assert ctx.exploration_points() is ctx.exploration_points()

    def test_exploration_points_in_exploration_space(self, ctx):
        for point in ctx.exploration_points()[:50]:
            assert point in ctx.exploration_space

    def test_per_depth_points_balanced(self, ctx):
        points = ctx.per_depth_points()
        depths = [p["depth"] for p in points]
        from collections import Counter

        counts = Counter(depths)
        assert set(counts) == set(ctx.exploration_space.parameter("depth").values)
        assert len(set(counts.values())) == 1  # equal strata

    def test_prediction_tables_memoized(self, ctx):
        assert ctx.predict_exploration("gzip") is ctx.predict_exploration("gzip")

    def test_predictions_positive(self, ctx):
        table = ctx.predict_exploration("mcf")
        assert (table.bips > 0).all()
        assert (table.watts > 0).all()

    def test_baseline_in_exploration_space(self, ctx):
        assert ctx.baseline in ctx.exploration_space

    def test_model_accessor(self, ctx):
        assert ctx.model("gzip", "bips").spec.response == "bips"
        assert ctx.model("gzip", "watts").spec.response == "watts"

    def test_simulate_uses_scale_trace_length(self, ctx):
        result = ctx.simulate("gzip", ctx.baseline)
        assert result.instructions == ctx.scale.trace_length


def assert_results_equal(result, expected):
    assert result.cycles == expected.cycles
    assert result.counts.as_dict() == expected.counts.as_dict()
    assert result.watts == expected.watts


def assert_depth_validations_equal(first, second):
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, dict):
            assert a.keys() == b.keys()
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
        else:
            np.testing.assert_array_equal(a, b)


class TestSimulationMemo:
    """StudyContext simulates each (benchmark, design) at most once."""

    @pytest.fixture
    def fresh(self, ctx, test_scale, simulator):
        ctx.campaign  # built once per session; fresh contexts load it
        return StudyContext(scale=test_scale, simulator=simulator)

    def test_duplicates_and_overlap_match_scalar_oracle(self, fresh):
        a, b, c, d = sample_uar(fresh.exploration_space, 4, seed=21)
        trace = fresh.trace("gzip")

        def oracle(point):
            return fresh.simulator.simulate_point(
                fresh.exploration_space, point, trace
            )

        # Distinct outcomes, so a result in the wrong slot would show.
        assert len({oracle(p).cycles for p in (a, b, c, d)}) == 4
        for request in ([a, b, a, c, a], [c, d, a, d]):
            results = fresh.simulate_many("gzip", request)
            assert len(results) == len(request)
            for point, result in zip(request, results):
                assert_results_equal(result, oracle(point))
        assert_results_equal(fresh.simulate("gzip", d), oracle(d))

    def test_counts_hits_and_misses(self, fresh):
        a, b = sample_uar(fresh.exploration_space, 2, seed=22)
        with isolated_registry() as registry:
            first = fresh.simulate_many("mcf", [a, b, a])
            assert fresh.simulate("mcf", b) is first[1]
            assert fresh.simulate("gzip", b) is not first[1]
            counters = registry.snapshot()["counters"]
        assert counters["studies.simulate.misses"] == 3
        assert counters["studies.simulate.hits"] == 2
        assert counters["simulator.simulations"] == 3

    def test_repeat_depth_validation_simulates_nothing(self, ctx):
        first = depth.validate_depth_study(ctx)
        requested = sum(
            len(depth.enhanced_analysis(ctx, b).original.points)
            + len(depth.depth_levels(ctx))
            for b in ctx.benchmarks
        )
        with isolated_registry() as registry:
            second = depth.validate_depth_study(ctx)
            counters = registry.snapshot()["counters"]
        assert_depth_validations_equal(first, second)
        assert counters.get("simulator.instructions", 0) == 0
        assert counters["studies.simulate.hits"] == requested
        assert counters.get("studies.simulate.misses", 0) == 0

    def test_frontier_figures_simulate_each_point_once(self, fresh):
        with isolated_registry() as registry:
            run_experiment("F3", ctx=fresh)
            run_experiment("F4", ctx=fresh)
            counters = registry.snapshot()["counters"]
        frontier = {
            (b, point)
            for b in fresh.benchmarks
            for point in pareto.validate_frontier(fresh, b).points
        }
        simulated = counters.get("simulator.simulations", 0) + counters.get(
            "simulator.batch.points", 0
        )
        assert counters["studies.simulate.misses"] == len(frontier)
        assert simulated == len(frontier)
        assert counters["studies.simulate.hits"] > 0


class TestSimulatorFacadeMore:
    def test_simulate_many(self, ctx):
        from repro.workloads import generate_trace, get_profile

        trace = generate_trace(get_profile("gzip"), 800, seed=2)
        points = ctx.exploration_points()[:3]
        results = ctx.simulator.simulate_many(
            ctx.exploration_space, points, trace
        )
        assert len(results) == 3
        assert all(r.bips > 0 for r in results)
