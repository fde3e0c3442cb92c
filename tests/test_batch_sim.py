"""Batched timing kernel: equivalence contract, blocks, and trace LRU.

The batch kernel's contract is *exact* equivalence with the scalar
pipeline — identical cycles, identical ActivityCounts field by field,
identical watts — not agreement within tolerance.  The property test
drives randomized configs, trace lengths, memory modes, warming, and
prefetch through both paths; the campaign tests check the contract
survives chunking, journaling, and resume.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designspace import sample_uar, sampling_space
from repro.harness import ResilienceConfig, get_scale, run_campaign
from repro.harness.resilience import ChunkFailure, Fault, FaultPlan
from repro.obs.metrics import isolated_registry
from repro.simulator import Simulator
from repro.simulator.config import MachineConfig
from repro.simulator.batch import _BatchLimiter, _BatchWindow, _MaskedWindow
from repro.simulator.resources import (
    OccupancyWindow,
    ResourceError,
    ThroughputLimiter,
)
from repro.simulator.simulator import BLOCK_SIZE_BUCKETS, SCALAR_BLOCK_LIMIT
from repro.workloads import BENCHMARK_NAMES, get_profile

SPACE = sampling_space()


def assert_identical(batch_results, scalar_results):
    """The equivalence contract: exact, field-by-field, no tolerances."""
    assert len(batch_results) == len(scalar_results)
    for got, want in zip(batch_results, scalar_results):
        assert got.cycles == want.cycles
        assert got.counts.as_dict() == want.counts.as_dict()
        assert float(got.watts) == float(want.watts)
        assert got.benchmark == want.benchmark


class TestEquivalenceProperty:
    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_points=st.integers(min_value=1, max_value=6),
        trace_length=st.integers(min_value=150, max_value=600),
        memory_mode=st.sampled_from(["stack", "functional"]),
        warm=st.booleans(),
        prefetch=st.booleans(),
        benchmark=st.sampled_from(("gzip", "mesa", "mcf")),
    )
    def test_batch_matches_scalar(
        self, seed, n_points, trace_length, memory_mode, warm, prefetch,
        benchmark,
    ):
        simulator = Simulator(memory_mode=memory_mode, warm=warm)
        trace = simulator.trace_for(
            get_profile(benchmark), trace_length, seed=seed % 3
        )
        points = sample_uar(SPACE, n_points, seed=seed)
        batch = simulator.simulate_batch(
            SPACE, points, trace, prefetch=prefetch
        )
        scalar = [
            simulator.simulate_point(SPACE, point, trace, prefetch=prefetch)
            for point in points
        ]
        assert_identical(batch, scalar)


def capacity_vectors():
    """Random per-config capacities, plus the edge shapes named outright:
    every capacity 1, every capacity equal, and a lone capacity at R."""
    random = st.lists(
        st.integers(min_value=1, max_value=12), min_size=1, max_size=8
    )
    equal = st.tuples(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=8),
    ).map(lambda pair: [pair[0]] * pair[1])
    lone_max = st.lists(
        st.integers(min_value=1, max_value=3), min_size=1, max_size=7
    ).map(lambda caps: caps + [12])
    return st.one_of(random, equal, lone_max, st.just([1]), st.just([1, 1, 1]))


def release_times(draw, batch):
    return np.array(
        draw(st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=batch, max_size=batch,
        )),
        dtype=np.int64,
    )


class TestBatchWindows:
    """Each block window against one scalar window per config, exactly,
    at every step of at least 3R acquisitions (R = max capacity)."""

    @settings(deadline=None, max_examples=60)
    @given(capacities=capacity_vectors(), data=st.data())
    def test_window_matches_scalar_windows(self, capacities, data):
        window = _BatchWindow(np.array(capacities, dtype=np.int64))
        scalars = [OccupancyWindow(c) for c in capacities]
        for _ in range(3 * max(capacities) + 2):
            assert window.next_free().tolist() == [
                s.next_free() for s in scalars
            ]
            release = release_times(data.draw, len(capacities))
            window.acquire(release)
            for scalar, value in zip(scalars, release.tolist()):
                scalar.acquire(value)

    @settings(deadline=None, max_examples=60)
    @given(capacities=capacity_vectors(), data=st.data())
    def test_limiter_matches_scalar_limiters(self, capacities, data):
        limiter = _BatchLimiter(np.array(capacities, dtype=np.int64))
        scalars = [ThroughputLimiter(c) for c in capacities]
        for _ in range(3 * max(capacities) + 2):
            earliest = release_times(data.draw, len(capacities)) % 50
            got = limiter.next_slot(earliest).tolist()
            assert got == [
                s.next_slot(e) for s, e in zip(scalars, earliest.tolist())
            ]

    @settings(deadline=None, max_examples=60)
    @given(capacities=capacity_vectors(), data=st.data())
    def test_masked_window_matches_scalar_windows(self, capacities, data):
        window = _MaskedWindow(np.array(capacities, dtype=np.int64))
        scalars = [OccupancyWindow(c) for c in capacities]
        batch = len(capacities)
        for _ in range(3 * max(capacities) + 2):
            assert window.next_free().tolist() == [
                s.next_free() for s in scalars
            ]
            mask = np.array(
                data.draw(st.lists(
                    st.booleans(), min_size=batch, max_size=batch
                )),
                dtype=bool,
            )
            release = release_times(data.draw, batch)
            window.acquire_where(mask, release)
            for scalar, take, value in zip(
                scalars, mask.tolist(), release.tolist()
            ):
                if take:
                    scalar.acquire(value)

    @pytest.mark.parametrize(
        "cls", [_BatchWindow, _MaskedWindow, _BatchLimiter]
    )
    @pytest.mark.parametrize("capacities", [[0], [4, 0, 2], [3, -1]])
    def test_rejects_capacity_below_one(self, cls, capacities):
        """The scalar windows' ResourceError, for any config in a block."""
        with pytest.raises(ResourceError, match="must be >= 1"):
            cls(np.array(capacities, dtype=np.int64))
        with pytest.raises(ResourceError):
            OccupancyWindow(min(capacities))


class TestBatchAPI:
    def test_every_benchmark_matches_scalar(self):
        simulator = Simulator()
        points = sample_uar(SPACE, 4, seed=13)
        for benchmark in BENCHMARK_NAMES:
            trace = simulator.trace_for(get_profile(benchmark), 400, seed=1)
            batch = simulator.simulate_batch(SPACE, points, trace)
            scalar = [
                simulator.simulate_point(SPACE, p, trace) for p in points
            ]
            assert_identical(batch, scalar)

    def test_block_split_matches_single_block(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 400, seed=2)
        points = sample_uar(SPACE, 8, seed=3)
        whole = simulator.simulate_batch(SPACE, points, trace)
        for batch_size in (1, 3, 8, 64):
            split = simulator.simulate_batch(
                SPACE, points, trace, batch_size=batch_size
            )
            assert_identical(split, whole)

    def test_empty_points_returns_empty(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 200, seed=0)
        assert simulator.simulate_batch(SPACE, [], trace) == []

    def test_rejects_bad_batch_size(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 200, seed=0)
        points = sample_uar(SPACE, 2, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            simulator.simulate_batch(SPACE, points, trace, batch_size=0)

    def test_simulate_many_delegates_to_batch(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 300, seed=4)
        points = sample_uar(SPACE, 3, seed=5)
        assert_identical(
            simulator.simulate_many(SPACE, points, trace),
            simulator.simulate_batch(SPACE, points, trace),
        )

    @pytest.mark.parametrize(
        "n_points",
        [1, SCALAR_BLOCK_LIMIT - 1, SCALAR_BLOCK_LIMIT, SCALAR_BLOCK_LIMIT + 1],
    )
    def test_simulate_many_matches_batch_at_fallback_edge(self, n_points):
        """Blocks under SCALAR_BLOCK_LIMIT run scalar, the rest batched;
        either way the results equal the always-kernel simulate_batch."""
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 300, seed=4)
        points = sample_uar(SPACE, n_points, seed=5)
        with isolated_registry() as registry:
            many = simulator.simulate_many(SPACE, points, trace)
            counters = registry.snapshot()["counters"]
        assert_identical(many, simulator.simulate_batch(SPACE, points, trace))
        batched = n_points if n_points >= SCALAR_BLOCK_LIMIT else 0
        assert counters.get("simulator.batch.points", 0) == batched
        assert counters.get("simulator.simulations", 0) == n_points - batched

    def test_simulate_many_runs_small_tail_scalar(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 300, seed=4)
        points = sample_uar(SPACE, 40, seed=6)
        with isolated_registry() as registry:
            many = simulator.simulate_many(SPACE, points, trace, batch_size=16)
            counters = registry.snapshot()["counters"]
        assert_identical(many, simulator.simulate_batch(SPACE, points, trace))
        assert counters["simulator.batch.points"] == 32
        assert counters["simulator.batch.blocks"] == 2
        assert counters["simulator.simulations"] == 8

    def test_rejects_latency_outside_int32(self, monkeypatch):
        """The kernel narrows latency columns to int32 and must refuse a
        config whose latency would not survive the narrowing."""
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 200, seed=0)
        points = sample_uar(SPACE, 2, seed=0)
        monkeypatch.setattr(
            MachineConfig, "memory_latency", property(lambda self: 2**31)
        )
        with pytest.raises(ValueError, match="does not fit int32"):
            simulator.simulate_batch(SPACE, points, trace)

    def test_batch_metrics_are_reported(self):
        with isolated_registry() as registry:
            simulator = Simulator()
            trace = simulator.trace_for(get_profile("gzip"), 300, seed=6)
            points = sample_uar(SPACE, 5, seed=7)
            simulator.simulate_batch(SPACE, points, trace, batch_size=2)
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            assert counters["simulator.batch.points"] == 5
            assert counters["simulator.batch.blocks"] == 3
            assert counters["simulator.instructions"] == 5 * len(trace)
            # Two full blocks of 2 and a tail of 1, one observation each.
            sizes = snapshot["histograms"]["simulator.batch.block_size"]
            assert sizes["buckets"] == list(BLOCK_SIZE_BUCKETS)
            assert sizes["count"] == 3
            assert sizes["sum"] == 5
            assert sizes["counts"][:2] == [1, 2]
            assert sum(sizes["counts"]) == 3


class TestTraceCacheLRU:
    def test_rejects_bad_cache_size(self):
        with pytest.raises(ValueError, match="trace_cache_size"):
            Simulator(trace_cache_size=0)

    def test_hit_miss_evict_counters(self):
        with isolated_registry() as registry:
            simulator = Simulator(trace_cache_size=2)
            profile = get_profile("gzip")
            simulator.trace_for(profile, 200, seed=0)   # miss
            simulator.trace_for(profile, 200, seed=0)   # hit
            simulator.trace_for(profile, 200, seed=1)   # miss
            simulator.trace_for(profile, 200, seed=2)   # miss, evicts seed=0
            counters = registry.snapshot()["counters"]
            assert counters["sim.trace_cache.hit"] == 1
            assert counters["sim.trace_cache.miss"] == 3
            assert counters["sim.trace_cache.evict"] == 1
            assert len(simulator._trace_cache) == 2

    def test_eviction_order_is_least_recently_used(self):
        simulator = Simulator(trace_cache_size=2)
        profile = get_profile("gzip")
        simulator.trace_for(profile, 200, seed=0)
        simulator.trace_for(profile, 200, seed=1)
        simulator.trace_for(profile, 200, seed=0)   # refresh seed=0
        simulator.trace_for(profile, 200, seed=2)   # evicts seed=1, not 0
        keys = list(simulator._trace_cache)
        assert ("gzip", 200, 0) in keys
        assert ("gzip", 200, 1) not in keys

    def test_evicted_trace_regenerates_identically(self):
        simulator = Simulator(trace_cache_size=1)
        profile = get_profile("gzip")
        first = simulator.trace_for(profile, 200, seed=0)
        simulator.trace_for(profile, 200, seed=1)   # evicts seed=0
        again = simulator.trace_for(profile, 200, seed=0)
        assert first is not again
        assert np.array_equal(first.op, again.op)
        assert np.array_equal(first.mem_block, again.mem_block)
        assert np.array_equal(first.taken, again.taken)


def scalar_oracle(scale, benchmarks, memory_mode="stack"):
    """Campaign metrics from an explicit per-point ``simulate_point`` loop:
    the reference every campaign path must reproduce bit for bit."""
    space = sampling_space()
    points = sample_uar(space, scale.n_train + scale.n_validation, seed=scale.seed)
    splits = {
        "train": points[: scale.n_train],
        "validation": points[scale.n_train :],
    }
    simulator = Simulator(memory_mode=memory_mode)
    expected = {}
    for benchmark in benchmarks:
        trace = simulator.trace_for(
            get_profile(benchmark), scale.trace_length, seed=scale.seed
        )
        for split, split_points in splits.items():
            results = [
                simulator.simulate_point(space, point, trace)
                for point in split_points
            ]
            expected[benchmark, split] = {
                "bips": np.array([r.bips for r in results]),
                "watts": np.array([float(r.watts) for r in results]),
            }
    return expected


def assert_matches_oracle(campaign, expected):
    for (benchmark, split), want in expected.items():
        got = campaign.dataset(benchmark, split).metrics
        assert np.array_equal(got["bips"], want["bips"])
        assert np.array_equal(got["watts"], want["watts"])


class TestCampaignBatchPath:
    """Every campaign path runs on the batch kernel, so each is checked
    against the scalar oracle: serial and chunked, both memory modes,
    several batch sizes, and journaled resume."""

    @pytest.fixture(scope="class")
    def tiny_scale(self):
        return get_scale("ci").with_overrides(
            name="tiny-batch", trace_length=400, n_train=6, n_validation=2
        )

    @pytest.fixture(scope="class")
    def oracle(self, tiny_scale):
        return scalar_oracle(tiny_scale, ["gzip"])

    @pytest.mark.parametrize("memory_mode", ["stack", "functional"])
    def test_serial_and_chunked_match_scalar_oracle(self, memory_mode):
        scale = get_scale("ci").with_overrides(
            name="tiny-oracle", trace_length=300, n_train=9, n_validation=4
        )
        benchmarks = ["gzip", "mcf"]
        expected = scalar_oracle(scale, benchmarks, memory_mode)
        for resilience in (None, ResilienceConfig()):
            campaign = run_campaign(
                Simulator(memory_mode=memory_mode),
                scale=scale,
                benchmarks=benchmarks,
                resilience=resilience,
            )
            assert_matches_oracle(campaign, expected)

    def test_serial_path_is_one_batch_per_benchmark(self, tiny_scale, oracle):
        with isolated_registry() as registry:
            campaign = run_campaign(
                Simulator(), scale=tiny_scale, benchmarks=["gzip"]
            )
            counters = registry.snapshot()["counters"]
        assert_matches_oracle(campaign, oracle)
        assert counters["simulator.batch.blocks"] == 1
        assert counters["simulator.batch.points"] == 8
        assert "simulator.simulations" not in counters

    def test_chunked_batch_path_matches_scalar_serial(self, tiny_scale, oracle):
        """Blocks smaller than a chunk (or a benchmark) change no result."""
        for resilience in (None, ResilienceConfig()):
            campaign = run_campaign(
                Simulator(),
                scale=tiny_scale,
                benchmarks=["gzip"],
                resilience=resilience,
                batch_size=2,
            )
            assert_matches_oracle(campaign, oracle)

    def test_resumed_journaled_run_is_bitwise_identical(
        self, tiny_scale, oracle, tmp_path
    ):
        path = tmp_path / "campaign.journal.jsonl"
        faults = FaultPlan([Fault(chunk=5, kind="permanent")])
        with pytest.raises(ChunkFailure):
            run_campaign(
                Simulator(),
                scale=tiny_scale,
                benchmarks=["gzip"],
                resilience=ResilienceConfig(
                    journal_path=path, faults=faults
                ),
            )
        assert path.exists()
        resumed = run_campaign(
            Simulator(),
            scale=tiny_scale,
            benchmarks=["gzip"],
            resilience=ResilienceConfig(journal_path=path, resume=True),
        )
        assert resumed.run_report.resumed >= 1
        assert_matches_oracle(resumed, oracle)
