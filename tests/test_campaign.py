"""Tests for simulation campaigns and model fitting."""

import pytest

from repro.harness import fit_campaign_models, get_scale, run_campaign
from repro.simulator import Simulator


@pytest.fixture(scope="module")
def mini_campaign():
    scale = get_scale("ci").with_overrides(
        name="mini", trace_length=800, n_train=50, n_validation=8
    )
    return run_campaign(Simulator(), scale=scale, benchmarks=["gzip", "mcf"])


class TestCampaignShape:
    def test_point_counts(self, mini_campaign):
        assert len(mini_campaign.train_points) == 50
        assert len(mini_campaign.validation_points) == 8

    def test_train_and_validation_disjoint(self, mini_campaign):
        assert not set(mini_campaign.train_points) & set(
            mini_campaign.validation_points
        )

    def test_datasets_per_benchmark(self, mini_campaign):
        assert set(mini_campaign.train) == {"gzip", "mcf"}
        assert set(mini_campaign.validation) == {"gzip", "mcf"}

    def test_all_benchmarks_share_points(self, mini_campaign):
        # the paper simulates every sampled design on every benchmark
        assert (
            mini_campaign.train["gzip"].points is mini_campaign.train_points
            or mini_campaign.train["gzip"].points == mini_campaign.train_points
        )
        assert mini_campaign.train["gzip"].points == mini_campaign.train["mcf"].points

    def test_dataset_accessor(self, mini_campaign):
        assert mini_campaign.dataset("gzip").benchmark == "gzip"
        assert mini_campaign.dataset("gzip", "validation").benchmark == "gzip"
        with pytest.raises(KeyError):
            mini_campaign.dataset("ammp")

    def test_dataset_rejects_unknown_split(self, mini_campaign):
        # "test" used to silently fall through to the validation table
        with pytest.raises(ValueError):
            mini_campaign.dataset("gzip", "test")
        with pytest.raises(ValueError):
            mini_campaign.dataset("gzip", "Validation")

    def test_metrics_positive(self, mini_campaign):
        for split in ("train", "validation"):
            for bench in ("gzip", "mcf"):
                dataset = mini_campaign.dataset(bench, split)
                assert (dataset.metrics["bips"] > 0).all()
                assert (dataset.metrics["watts"] > 0).all()

    def test_sampling_deterministic_at_same_scale(self, mini_campaign):
        scale = mini_campaign.scale
        again = run_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        assert again.train_points == mini_campaign.train_points


class TestSeedSensitivity:
    def test_different_seed_similar_accuracy(self, mini_campaign):
        """Model quality should be a property of the protocol, not the
        particular random sample: an independent draw trains models of
        comparable fit."""
        other_scale = mini_campaign.scale.with_overrides(seed=99)
        other = run_campaign(Simulator(), scale=other_scale, benchmarks=["gzip"])
        a = fit_campaign_models(mini_campaign)["gzip"]["bips"].r_squared
        b = fit_campaign_models(other)["gzip"]["bips"].r_squared
        assert abs(a - b) < 0.2
        assert other.train_points != mini_campaign.train_points


class TestBenchmarkSubsets:
    def test_context_with_two_benchmarks(self, test_scale, simulator, tmp_path,
                                         monkeypatch):
        from repro.studies import StudyContext, heterogeneity

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = test_scale.with_overrides(name="duo", n_train=60, n_validation=10)
        ctx = StudyContext(scale=scale, simulator=simulator,
                           benchmarks=["gzip", "mcf"])
        optima = heterogeneity.benchmark_optima(ctx)
        assert set(optima) == {"gzip", "mcf"}
        sweep = heterogeneity.k_sweep(ctx)
        assert sweep.cluster_counts[-1] == 2


class TestModelFitting:
    def test_fit_campaign_models_structure(self, mini_campaign):
        models = fit_campaign_models(mini_campaign)
        assert set(models) == {"gzip", "mcf"}
        assert set(models["gzip"]) == {"bips", "watts"}

    def test_models_explain_training_data(self, mini_campaign):
        models = fit_campaign_models(mini_campaign)
        for bench in ("gzip", "mcf"):
            assert models[bench]["bips"].r_squared > 0.7
            assert models[bench]["watts"].r_squared > 0.9

    def test_parallel_matches_serial(self, mini_campaign):
        """Workers rebuild deterministic traces: results are bit-identical."""
        import numpy as np

        parallel = run_campaign(
            Simulator(),
            scale=mini_campaign.scale,
            benchmarks=["gzip", "mcf"],
            workers=2,
        )
        for bench in ("gzip", "mcf"):
            for split in ("train", "validation"):
                serial_metrics = mini_campaign.dataset(bench, split).metrics
                parallel_metrics = parallel.dataset(bench, split).metrics
                assert np.array_equal(
                    serial_metrics["bips"], parallel_metrics["bips"]
                )
                assert np.array_equal(
                    serial_metrics["watts"], parallel_metrics["watts"]
                )

    @staticmethod
    def assert_progress_contract(calls, totals):
        """Cumulative ``(benchmark, split, done, total)`` stream that ends at
        ``done == total`` for every split."""
        assert calls, "run_campaign dropped progress callbacks"
        per_split = {}
        for benchmark, split, done, total in calls:
            assert benchmark == "gzip"
            assert split in totals
            previous = per_split.get(split, 0)
            assert done > previous  # cumulative and increasing
            per_split[split] = done
            assert total == totals[split]
        assert per_split == totals

    def test_progress_callback(self):
        """The serial path fires once per (benchmark, split), after the
        benchmark's single batched replay."""
        scale = get_scale("ci").with_overrides(
            name="tiny", trace_length=500, n_train=5, n_validation=2
        )
        calls = []
        run_campaign(
            Simulator(),
            scale=scale,
            benchmarks=["gzip"],
            progress=lambda *args: calls.append(args),
        )
        self.assert_progress_contract(calls, {"train": 5, "validation": 2})
        assert len(calls) == 2

    def test_parallel_progress_callback(self):
        """The parallel path fires the same (benchmark, split, done, total)
        stream as the serial path, advancing per completed chunk."""
        scale = get_scale("ci").with_overrides(
            name="tiny-par", trace_length=500, n_train=6, n_validation=3
        )
        calls = []
        run_campaign(
            Simulator(),
            scale=scale,
            benchmarks=["gzip"],
            progress=lambda *args: calls.append(args),
            workers=2,
        )
        self.assert_progress_contract(calls, {"train": 6, "validation": 3})
