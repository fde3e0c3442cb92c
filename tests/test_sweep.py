"""Tests for the blockwise sweep engine (repro.harness.sweep).

The engine's contract is *partition independence*: any block size, any
worker count, and any source backing (mixed-radix enumeration or an
explicit point list) must reduce to the same results as a monolithic
whole-table pass.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.designspace import DesignEncoder
from repro.designspace.parameters import ParameterError
from repro.harness.sweep import (
    CollectReducer,
    GroupedMetricReducer,
    ParetoFrontierReducer,
    PointSweepSource,
    SpaceSweepSource,
    SweepBlock,
    SweepError,
    TopKReducer,
    discretized_frontier,
    pareto_indices,
    predict_source,
    run_sweep,
    strict_pareto_mask,
)


@pytest.fixture(scope="module")
def predictor(ctx):
    return ctx.predictor("gzip")


@pytest.fixture(scope="module")
def exploration(ctx):
    return ctx.exploration_points()


class TestSources:
    def test_space_source_matches_point_at(self, ctx):
        space = ctx.exploration_space
        source = SpaceSweepSource(space)
        encoder = DesignEncoder(space)
        positions = [0, 1, 7, len(space) // 2, len(space) - 1]
        for pos in positions:
            point = source.point_at(pos)
            assert point == space.point_at(pos)
            features = source.feature_block(pos, pos + 1)
            expected = encoder.encode_point(point)
            got = np.array([features[name][0] for name in space.names])
            assert np.array_equal(got, expected)

    def test_space_source_subset_and_slice(self, ctx):
        space = ctx.exploration_space
        indices = np.array([5, 17, 101, 999], dtype=np.int64)
        source = SpaceSweepSource(space, indices)
        assert len(source) == 4
        assert source.point_at(2) == space.point_at(101)
        sliced = source.slice(1, 3)
        assert len(sliced) == 2
        assert sliced.point_at(0) == space.point_at(17)

    def test_space_source_rejects_bad_indices(self, ctx):
        space = ctx.exploration_space
        with pytest.raises(SweepError):
            SpaceSweepSource(space, np.array([len(space)]))
        with pytest.raises(SweepError):
            SpaceSweepSource(space, np.array([-1]))

    def test_point_source_encoding_matches_encoder(self, ctx, exploration):
        space = ctx.exploration_space
        points = exploration[:64]
        source = PointSweepSource(space, points)
        expected = DesignEncoder(space).encode(points)
        features = source.feature_block(0, len(points))
        got = np.column_stack([features[name] for name in space.names])
        assert np.array_equal(got, expected)

    def test_point_source_rejects_off_grid(self, ctx):
        space = ctx.exploration_space
        bad = space.point_at(0).replace(depth=13)  # 13 FO4 is not a level
        source = PointSweepSource(space, [bad])
        with pytest.raises(ParameterError):
            source.feature_block(0, 1)

    def test_sources_agree(self, ctx, predictor):
        space = ctx.exploration_space
        indices = np.arange(0, len(space), len(space) // 200, dtype=np.int64)
        by_index = SpaceSweepSource(space, indices)
        by_list = PointSweepSource(
            space, [space.point_at(int(i)) for i in indices]
        )
        bips_a, watts_a = predict_source(predictor, by_index, block_size=64)
        bips_b, watts_b = predict_source(predictor, by_list, block_size=64)
        assert np.array_equal(bips_a, bips_b)
        assert np.array_equal(watts_a, watts_b)


class TestBlockwisePrediction:
    def test_matches_predict_points(self, ctx, exploration):
        """Blockwise == whole-table: same values, bit for bit, when the
        block decomposition matches (one monolithic block)."""
        table = ctx.predict_points("gzip", exploration)
        source = PointSweepSource(ctx.exploration_space, exploration)
        bips, watts = predict_source(
            ctx.predictor("gzip"), source, block_size=len(exploration)
        )
        assert np.array_equal(bips, table.bips)
        assert np.array_equal(watts, table.watts)

    def test_block_size_invariance(self, ctx, predictor, exploration):
        """Any block size reproduces the same reductions: identical
        frontier indices and argmax, values equal to float tolerance."""
        source = PointSweepSource(ctx.exploration_space, exploration)
        baseline = None
        for block_size in (len(exploration), 256, 101, 7):
            report = run_sweep(
                predictor,
                source,
                [ParetoFrontierReducer(bins=50), TopKReducer()],
                block_size=block_size,
            )
            front, best = report.results
            if baseline is None:
                baseline = (front, best)
                continue
            assert np.array_equal(front.indices, baseline[0].indices)
            assert best.indices[0] == baseline[1].indices[0]
            np.testing.assert_allclose(
                front.delay, baseline[0].delay, rtol=1e-12
            )
            np.testing.assert_allclose(
                best.values, baseline[1].values, rtol=1e-12
            )

    def test_parallel_matches_serial(self, ctx, predictor, exploration):
        """Two workers, chunk-aligned blocks: bit-identical reductions."""
        source = PointSweepSource(ctx.exploration_space, exploration)
        reducers = lambda: [  # noqa: E731 - test-local factory
            ParetoFrontierReducer(bins=50),
            TopKReducer(metric="efficiency", k=3),
            CollectReducer(metrics=("bips", "watts")),
        ]
        serial = run_sweep(predictor, source, reducers(), block_size=100)
        parallel = run_sweep(
            predictor, source, reducers(), block_size=100, workers=2
        )
        s_front, s_top, s_all = serial.results
        p_front, p_top, p_all = parallel.results
        assert np.array_equal(s_front.indices, p_front.indices)
        assert np.array_equal(s_front.delay, p_front.delay)
        assert np.array_equal(s_top.indices, p_top.indices)
        assert np.array_equal(s_top.values, p_top.values)
        assert np.array_equal(s_all.metric("bips"), p_all.metric("bips"))
        assert np.array_equal(s_all.metric("watts"), p_all.metric("watts"))

    def test_progress_stream(self, ctx, predictor, exploration):
        source = PointSweepSource(ctx.exploration_space, exploration)
        calls = []
        run_sweep(
            predictor,
            source,
            [TopKReducer()],
            block_size=256,
            progress=lambda *args: calls.append(args),
        )
        assert calls[0][0] == "gzip"
        assert calls[-1][1] == len(exploration)
        done = [c[1] for c in calls]
        assert done == sorted(done)

    def test_rejects_bad_config(self, ctx, predictor, exploration):
        source = PointSweepSource(ctx.exploration_space, exploration[:8])
        with pytest.raises(SweepError):
            run_sweep(predictor, source, [], block_size=0)
        with pytest.raises(SweepError):
            run_sweep(predictor, source, [], workers=0)


def _subset_indices(space, n):
    """``n`` spread-out space indices (an index subset, not a prefix)."""
    return np.linspace(0, len(space) - 1, n).astype(np.int64)


def _oracle_sources(space, n):
    indices = _subset_indices(space, n)
    return {
        "space": SpaceSweepSource(space, indices),
        "points": PointSweepSource(
            space, [space.point_at(int(i)) for i in indices]
        ),
    }


class TestLevelGather:
    """The level path's block predictions against row-wise evaluation."""

    @pytest.mark.parametrize("kind", ["space", "points"])
    @pytest.mark.parametrize(
        "block_size, n_points",
        [(1, 300), (7, 300), (64, 300), (8192, 10_000)],
    )
    def test_blocks_match_rowwise_bases(self, ctx, kind, block_size, n_points):
        """Each block's gathered (bips, watts) equals the spline bases
        evaluated per design on the same block, bit for bit, including
        the partial tail block."""
        space = ctx.exploration_space
        source = _oracle_sources(space, n_points)[kind]
        predictor = ctx.predictor("gzip")
        blocks = 0
        for start in range(0, n_points, block_size):
            stop = min(start + block_size, n_points)
            got = predictor.predict_levels(
                source.level_block(start, stop), space
            )
            want = predictor.predict(source.feature_block(start, stop))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (start, stop)
            blocks += 1
        assert blocks == -(-n_points // block_size)

    def test_level_block_is_parameter_major(self, ctx):
        space = ctx.exploration_space
        for source in _oracle_sources(space, 50).values():
            levels = source.level_block(10, 30)
            assert levels.shape == (len(space.names), 20)
            assert all(row.flags.c_contiguous for row in levels)

    def test_scratch_reuse_across_sources(self, ctx):
        """One predictor sweeping a 10,000-point source (tail 1,808) and
        then a 300-point source equals fresh predictors on each."""
        space = ctx.exploration_space
        large = SpaceSweepSource(space, _subset_indices(space, 10_000))
        small = PointSweepSource(
            space, [space.point_at(int(i)) for i in range(0, 3000, 10)]
        )
        reused = ctx.predictor("mcf")
        for source in (large, small):
            got = predict_source(reused, source, block_size=8192)
            want = predict_source(ctx.predictor("mcf"), source, block_size=8192)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_pickled_predictor_carries_no_scratch(self, ctx):
        """A full-space sweep leaves block scratch on the predictor; the
        pickled form (a pool or resilient chunk payload) drops it."""
        fresh = ctx.predictor("gzip")
        swept = ctx.predictor("gzip")
        source = SpaceSweepSource(ctx.exploration_space)
        run_sweep(swept, source, [TopKReducer()])
        assert len(pickle.dumps(swept)) == len(pickle.dumps(fresh))
        revived = pickle.loads(pickle.dumps(swept))
        head = source.slice(0, 100)
        for g, w in zip(
            predict_source(revived, head), predict_source(fresh, head)
        ):
            assert g.tobytes() == w.tobytes()


def _topk_blocks(values, block_size):
    """Synthetic sweep blocks: ``values`` as efficiency, distinct others."""
    values = np.asarray(values, dtype=float)
    n = values.size
    rows = np.arange(n, dtype=float)
    blocks = []
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        blocks.append(
            SweepBlock(
                benchmark="synthetic",
                indices=np.arange(start, stop, dtype=np.int64),
                bips=rows[start:stop] + 0.5,
                watts=rows[start:stop] + 1000.25,
                delay=-rows[start:stop],
                efficiency=values[start:stop],
            )
        )
    return blocks


class _Positions:
    """Stand-in source whose "points" are the sweep positions."""

    def point_at(self, position):
        return position


def _reduce_topk(blocks, k):
    reducer = TopKReducer("efficiency", k=k)
    for block in blocks:
        reducer.update(block)
    return reducer.finalize(_Positions())


def _merge_all_topk(blocks, k):
    """The unfloored reduction: every block entry enters the merge."""
    fields = ("efficiency", "bips", "watts", "delay")
    state = {name: np.array([]) for name in fields}
    indices = np.array([], dtype=np.int64)
    for block in blocks:
        merged = {
            name: np.concatenate([state[name], block.metric(name)])
            for name in fields
        }
        indices = np.concatenate([indices, block.indices])
        order = np.lexsort((indices, -merged["efficiency"]))[:k]
        indices = indices[order]
        state = {name: merged[name][order] for name in fields}
    return indices, state


def _assert_topk_equals(result, indices, columns):
    assert np.array_equal(result.indices, indices)
    assert result.points == list(indices)
    assert result.values.tobytes() == columns["efficiency"].tobytes()
    for name in ("bips", "watts", "delay", "efficiency"):
        assert getattr(result, name).tobytes() == columns[name].tobytes()


class TestTopKFloor:
    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(0, 3), min_size=1, max_size=120),
        block_size=st.integers(1, 16),
        k=st.integers(1, 40),
    )
    @example(values=[5, 3, 3, 3, 3, 1], block_size=3, k=3)
    @example(values=[5, 3, 3, 3, 3, 1], block_size=3, k=4)
    @example(values=[2, 2, 2, 2, 2, 2, 2], block_size=2, k=5)
    def test_matches_whole_table_lexsort(self, values, block_size, k):
        """Heavily duplicated values in many small blocks, k smaller and
        larger than a block, ties at the k-th value across a boundary."""
        blocks = _topk_blocks(values, block_size)
        result = _reduce_topk(blocks, k)
        table = {
            name: np.concatenate([b.metric(name) for b in blocks])
            for name in ("bips", "watts", "delay", "efficiency")
        }
        order = np.lexsort(
            (np.arange(len(values)), -table["efficiency"])
        )[:k]
        _assert_topk_equals(
            result, order, {name: col[order] for name, col in table.items()}
        )

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 1.0, 2.0, float("nan")]),
            min_size=1,
            max_size=60,
        ),
        block_size=st.integers(1, 12),
        k=st.integers(1, 20),
    )
    @example(values=[1.0, float("nan"), 2.0, 0.0, 2.0, 1.0], block_size=2, k=2)
    def test_nan_blocks_match_unfloored_merge(self, values, block_size, k):
        blocks = _topk_blocks(values, block_size)
        result = _reduce_topk(blocks, k)
        indices, state = _merge_all_topk(blocks, k)
        _assert_topk_equals(result, indices, state)


class TestReducers:
    def test_frontier_reducer_matches_whole_table(self, ctx, exploration):
        table = ctx.predict_points("gzip", exploration)
        expected = discretized_frontier(table.delay, table.watts, bins=50)
        result = ctx.sweep_exploration(
            "gzip", [ParetoFrontierReducer(bins=50)], block_size=128
        )[0]
        assert np.array_equal(np.sort(result.indices), np.sort(expected))

    def test_topk_matches_argmax(self, ctx, exploration):
        table = ctx.predict_points("gzip", exploration)
        best = ctx.sweep_exploration(
            "gzip", [TopKReducer(metric="efficiency", k=1)], block_size=128
        )[0]
        assert best.indices[0] == int(table.efficiency.argmax())
        assert best.points[0] == table.points[int(table.efficiency.argmax())]

    def test_topk_first_occurrence_tie_break(self, ctx, predictor):
        """Duplicated points tie exactly; argmax keeps the first."""
        space = ctx.exploration_space
        point = space.point_at(42)
        source = PointSweepSource(space, [point] * 10)
        best = run_sweep(
            predictor, source, [TopKReducer(k=1)], block_size=3
        ).results[0]
        assert best.indices[0] == 0

    def test_grouped_matches_masked_table(self, ctx):
        table = ctx.predict_per_depth("gzip")
        grouped = ctx.sweep_per_depth(
            "gzip", [GroupedMetricReducer("depth", "efficiency")],
            block_size=64,
        )[0]
        depths = np.array([p["depth"] for p in table.points], dtype=float)
        for level in grouped.levels():
            mask = depths == level
            np.testing.assert_allclose(
                grouped.values[level], table.efficiency[mask], rtol=1e-12
            )
            local = np.flatnonzero(mask)
            best_local = int(local[table.efficiency[mask].argmax()])
            assert grouped.argmax_indices[level] == best_local
            assert grouped.argmax_points[level] == table.points[best_local]

    def test_collect_matches_table(self, ctx, exploration):
        table = ctx.predict_points("gzip", exploration)
        collected = ctx.sweep_exploration(
            "gzip",
            [CollectReducer(metrics=("bips", "delay"), columns=("depth",))],
            block_size=173,
        )[0]
        np.testing.assert_allclose(
            collected.metric("bips"), table.bips, rtol=1e-12
        )
        np.testing.assert_allclose(
            collected.metric("delay"), table.delay, rtol=1e-12
        )
        expected_depth = np.array(
            [p["depth"] for p in table.points], dtype=float
        )
        assert np.array_equal(collected.column("depth"), expected_depth)

    def test_reducer_results_memoized(self, ctx):
        a = ctx.sweep_exploration("gzip", [ParetoFrontierReducer(bins=50)])[0]
        b = ctx.sweep_exploration("gzip", [ParetoFrontierReducer(bins=50)])[0]
        assert a is b  # cached finalized result, not a re-run


class TestFrontierMath:
    def test_strict_pareto_mask_keeps_ties(self):
        delay = np.array([1.0, 1.0, 2.0, 3.0])
        power = np.array([5.0, 5.0, 5.0, 4.0])
        mask = strict_pareto_mask(delay, power)
        # both delay=1 ties survive; delay=2/power=5 is only weakly
        # dominated (equal power) and survives; delay=3 improves power.
        assert mask.tolist() == [True, True, True, True]
        mask2 = strict_pareto_mask(
            np.array([1.0, 2.0]), np.array([1.0, 2.0])
        )
        assert mask2.tolist() == [True, False]

    def test_pareto_reexports_preserved(self):
        from repro.studies.pareto import discretized_frontier as df
        from repro.studies.pareto import pareto_indices as pi

        assert df is discretized_frontier
        assert pi is pareto_indices


class TestStudyContextIntegration:
    def test_exploration_sweep_indices_align_with_table(self, ctx):
        """Sweep positions index predict_exploration rows."""
        table = ctx.predict_exploration("gzip")
        front = ctx.sweep_exploration(
            "gzip", [ParetoFrontierReducer(bins=50)]
        )[0]
        for idx, point in zip(front.indices, front.points):
            assert table.points[int(idx)] == point

    def test_trace_built_once_per_benchmark(self, test_scale, simulator):
        """StudyContext.simulate must not rebuild the trace per call."""
        from repro.studies import StudyContext

        fresh = StudyContext(scale=test_scale, simulator=simulator,
                             benchmarks=["gzip"])
        calls = []
        original = simulator.trace_for

        def spying_trace_for(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        simulator.trace_for = spying_trace_for
        try:
            baseline = fresh.baseline
            for _ in range(4):
                fresh.simulate("gzip", baseline)
        finally:
            simulator.trace_for = original
        assert len(calls) == 1
