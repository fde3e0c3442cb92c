"""The benchmark's workloads over simulate -> fit -> predict.

Every workload drives the program through its public entry points on
the default execution path (serial, no worker, backend or batch-size
knobs), in one process with one caller, and applies the workload seed
with ``ScalePreset.with_overrides(seed=...)``.  A workload has four
steps:

- ``prepare()`` builds what the timed section needs (set-up; timed);
- ``begin(state)`` makes the per-pass objects, such as a fresh
  ``StudyContext`` and an empty artifact cache (untimed);
- ``run(pass_state, span)`` is the timed section; it returns one result
  per *operation* (an experiment, the campaign, or one benchmark's
  campaign or sweep) and the errors operations raised;
- ``check(state, pass_state, results)`` verifies the outputs (untimed)
  and returns, per operation, a digest and a list of mismatches.

``span(name, fn, *args, attrs=..., **kwargs)`` calls ``fn``; in a traced
pass it also records a span.
"""

from __future__ import annotations

import os
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import harness
from repro.experiments import EXPERIMENTS, run_experiment
from repro.harness import sweep
from repro.harness.scale import ScalePreset, get_scale
from repro.metrics import bips3_per_watt, delay_seconds
from repro.simulator import Simulator
from repro.studies import StudyContext
from repro.workloads import BENCHMARK_NAMES, get_profile

from . import checks

#: Checked outcome of one operation: (digest or None, mismatches).
Checked = Tuple[Optional[str], List[str]]

#: Designs per split and benchmark that the output check re-simulates.
ORACLE_SAMPLE = 2
#: Points of the seeded UAR list ``full-space`` predicts per benchmark.
POINT_LIST_SIZE = 20_000
TOP_K = 10


def _fresh_cache(root: Path) -> Path:
    path = Path(tempfile.mkdtemp(prefix="cache-", dir=root))
    os.environ["REPRO_CACHE_DIR"] = str(path)
    return path


def _guarded(errors: Dict[str, str], op: str, fn: Callable, *args, **kwargs):
    """Run one operation; an exception fails the operation, not the run."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - every failure counts in failed_ratio
        errors[op] = traceback.format_exc(limit=3)
        return None


class Workload:
    name = ""
    why = ""
    #: Set-up repetitions per measured run; setup_s is their median.
    setup_repeats = 5
    #: Fewest timed passes per measured run; wall_s is their median.
    min_passes = 3
    #: Why a per-layer metric (by name prefix) reads zero here.
    absent: Dict[str, str] = {}

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def absent_reason(self, metric: str) -> str:
        for prefix, reason in self.absent.items():
            if metric.startswith(prefix):
                return reason
        return ""

    def ci_scale(self) -> ScalePreset:
        return get_scale("ci").with_overrides(seed=self.seed)


@dataclass
class StudyPass:
    ctx: StudyContext
    cache: Path


class CiCold(Workload):
    """All 27 registry experiments in order, at ``ci`` scale, from an
    empty artifact cache, so the campaign is simulated every pass."""

    name = "ci-cold"
    why = (
        "repro run all at ci scale from an empty artifact cache, so the "
        "campaign is simulated every pass: the ROADMAP's unit of account"
    )
    min_passes = 2
    experiments = tuple(EXPERIMENTS)
    absent = {
        "artifacts.load": "the cache starts empty: saved, never loaded",
        "artifacts.cache.hit_ratio": "the cache starts empty",
    }

    def prepare(self) -> ScalePreset:
        return self.ci_scale()

    def begin(self, scale: ScalePreset) -> StudyPass:
        cache = _fresh_cache(self.root)
        return StudyPass(StudyContext(scale=scale), cache)

    def operations(self) -> List[str]:
        return list(self.experiments) + ["campaign"]

    def run(self, state: StudyPass, span) -> Tuple[dict, Dict[str, str]]:
        os.environ["REPRO_CACHE_DIR"] = str(state.cache)
        results, errors = {}, {}
        for eid in self.experiments:
            results[eid] = _guarded(
                errors, eid, span, "experiment", run_experiment, eid,
                ctx=state.ctx, attrs={"id": eid},
            )
        return results, errors

    def check(self, scale, run_state: StudyPass, results) -> Dict[str, Checked]:
        checked: Dict[str, Checked] = {}
        for eid in self.experiments:
            result = results.get(eid)
            if result is None:
                continue
            if result.id != eid or not result.text:
                checked[eid] = (None, [f"{eid}: malformed result"])
            else:
                checked[eid] = (checks.digest(result.data), [])
        campaign = run_state.ctx.campaign
        models = run_state.ctx.models
        refit = harness.fit_campaign_models(campaign)
        problems = []
        for benchmark in campaign.benchmarks:
            problems += checks.oracle_mismatches(
                campaign, benchmark, ORACLE_SAMPLE, self.seed
            )
            problems += checks.refit_mismatches(models, refit, benchmark)
        checked["campaign"] = (
            checks.digest({
                b: (checks.campaign_data(campaign, b),
                    checks.model_coefficients(models, b))
                for b in campaign.benchmarks
            }),
            problems,
        )
        return checked


@dataclass
class SpaceState:
    scale: ScalePreset
    cache: Path
    built: harness.Campaign
    indices: np.ndarray
    points: list
    expected: Optional[Dict[str, dict]] = None


@dataclass
class SpacePass:
    ctx: StudyContext
    points: list


class FullSpace(Workload):
    """Predict instead of simulate, from a campaign pre-built in set-up."""

    name = "full-space"
    setup_repeats = 2
    why = (
        "predict instead of simulate: load the pre-built ci campaign, fit, "
        "stream all 262,500 designs and a seeded 20k-point list for nine "
        "benchmarks, simulate each optimum once"
    )
    absent = {
        "campaign.": "the campaign is simulated in set-up and loaded here",
        "artifacts.save": "the campaign is simulated in set-up and loaded here",
        "simulator.batch": "each optimum is validated by one scalar simulation",
        "sweep.memo": "sweeps are called directly, not through the memo",
        "studies.self_s": "runs no registry experiment",
        "experiments.": "runs no registry experiment",
    }

    def prepare(self) -> SpaceState:
        scale = self.ci_scale()
        cache = _fresh_cache(self.root)
        ctx = StudyContext(scale=scale)
        space = ctx.exploration_space
        indices = checks.space_indices(space, POINT_LIST_SIZE, self.seed)
        points = [space.point_at(int(i)) for i in indices]
        return SpaceState(scale, cache, ctx.campaign, indices, points)

    def begin(self, state: SpaceState) -> SpacePass:
        os.environ["REPRO_CACHE_DIR"] = str(state.cache)
        return SpacePass(StudyContext(scale=state.scale), state.points)

    def operations(self) -> List[str]:
        return list(BENCHMARK_NAMES)

    def run(self, state: SpacePass, span) -> Tuple[dict, Dict[str, str]]:
        ctx = state.ctx
        try:
            ctx.models  # load the campaign from the artifact cache and fit
        except Exception:  # noqa: BLE001 - fails every benchmark's operation
            failure = traceback.format_exc(limit=3)
            return {}, {b: failure for b in self.operations()}
        results, errors = {}, {}
        for benchmark in ctx.benchmarks:
            results[benchmark] = _guarded(
                errors, benchmark, self._one, state, benchmark
            )
        return results, errors

    def _one(self, state: SpacePass, benchmark: str):
        ctx = state.ctx
        report = sweep.run_sweep(
            ctx.predictor(benchmark),
            sweep.SpaceSweepSource(ctx.exploration_space),
            [
                sweep.ParetoFrontierReducer(),
                sweep.TopKReducer("efficiency", k=TOP_K),
                sweep.GroupedMetricReducer("depth", "efficiency"),
            ],
        )
        frontier, top, per_depth = report.results
        table = ctx.predict_points(benchmark, state.points)
        optimum = ctx.simulate(benchmark, top.points[0])
        return frontier, top, per_depth, table, optimum

    def _expected(self, ctx: StudyContext, benchmark: str) -> dict:
        """Frontier, top-k and per-depth optima from ``predict_source``."""
        source = sweep.SpaceSweepSource(ctx.exploration_space)
        bips, watts = sweep.predict_source(ctx.predictor(benchmark), source)
        ref = get_profile(benchmark).ref_instructions
        delay = delay_seconds(bips, ref)
        efficiency = bips3_per_watt(bips, watts)
        order = np.lexsort((np.arange(efficiency.size), -efficiency))
        depth = source.column_block("depth", 0, len(source))
        per_depth = {}
        for level in np.unique(depth):
            members = np.flatnonzero(depth == level)
            per_depth[float(level)] = int(members[efficiency[members].argmax()])
        return {
            "frontier": sweep.discretized_frontier(delay, watts),
            "top": order[:TOP_K],
            "per_depth": per_depth,
            "bips": bips,
            "watts": watts,
        }

    def check(self, state: SpaceState, run_state: SpacePass, results):
        ctx = run_state.ctx
        # The models are the same in every pass, so the reference
        # predictions are computed once per run.
        if state.expected is None:
            state.expected = {b: self._expected(ctx, b) for b in results}
        checked: Dict[str, Checked] = {}
        for benchmark, result in results.items():
            if result is None:
                continue
            frontier, top, per_depth, table, optimum = result
            want = state.expected[benchmark]
            levels = sorted(want["per_depth"])
            problems = (
                checks.same_campaign(ctx.campaign, state.built, benchmark)
                + checks.equal_arrays(
                    f"{benchmark} frontier", frontier.indices, want["frontier"]
                )
                + checks.equal_arrays(
                    f"{benchmark} top-k", top.indices, want["top"]
                )
                + checks.equal_arrays(
                    f"{benchmark} per-depth optima",
                    [per_depth.argmax_indices.get(k, -1) for k in levels],
                    [want["per_depth"][k] for k in levels],
                )
                + checks.equal_arrays(
                    f"{benchmark} point-list bips",
                    table.bips, want["bips"][state.indices],
                )
                + checks.equal_arrays(
                    f"{benchmark} point-list watts",
                    table.watts, want["watts"][state.indices],
                )
            )
            checked[benchmark] = (
                checks.digest({
                    "models": checks.model_coefficients(ctx.models, benchmark),
                    "frontier": frontier.indices,
                    "top": (top.indices, top.values),
                    "per_depth": per_depth.argmax_indices,
                    "points": (table.bips, table.watts),
                    "optimum": (optimum.bips, optimum.watts),
                }),
                problems,
            )
        return checked


@dataclass
class CampaignPass:
    scale: ScalePreset
    simulator: Simulator


class DefaultCampaign(Workload):
    """The default-preset campaign and fit on two contrasting benchmarks."""

    name = "default-campaign"
    why = (
        "run_campaign + fit_campaign_models at the default preset on gzip "
        "(compute-bound) and mcf (memory-bound): 720 simulations at trace "
        "length 8,000"
    )
    min_passes = 1
    benchmarks = ("gzip", "mcf")
    absent = {
        "artifacts.": "run_campaign is called without the artifact cache",
        "simulator.batch": "the serial campaign runs the scalar kernel",
        "sweep.memo": "predictions are called directly, not through the memo",
        "studies.": "runs no registry experiment",
        "experiments.": "runs no registry experiment",
    }

    def prepare(self) -> ScalePreset:
        return get_scale("default").with_overrides(seed=self.seed)

    def begin(self, scale: ScalePreset) -> CampaignPass:
        return CampaignPass(scale, Simulator())

    def operations(self) -> List[str]:
        return list(self.benchmarks)

    def run(self, state: CampaignPass, span) -> Tuple[dict, Dict[str, str]]:
        try:
            campaign = harness.run_campaign(
                state.simulator, scale=state.scale, benchmarks=self.benchmarks
            )
            models = harness.fit_campaign_models(campaign)
        except Exception:  # noqa: BLE001 - fails every benchmark's operation
            failure = traceback.format_exc(limit=3)
            return {}, {b: failure for b in self.benchmarks}
        results, errors = {}, {}
        for benchmark in self.benchmarks:
            predictions = _guarded(
                errors, benchmark, self._predict, campaign, models, benchmark
            )
            if predictions is not None:
                results[benchmark] = (campaign, models, predictions)
        return results, errors

    @staticmethod
    def _predict(campaign, models, benchmark: str):
        """Predict the validation designs through the sweep engine."""
        predictor = sweep.BlockPredictor(
            benchmark=benchmark,
            bips_model=models[benchmark]["bips"],
            watts_model=models[benchmark]["watts"],
            ref_instructions=get_profile(benchmark).ref_instructions,
        )
        source = sweep.PointSweepSource(campaign.space, campaign.validation_points)
        return sweep.predict_source(predictor, source)

    def check(self, scale, run_state: CampaignPass, results):
        checked: Dict[str, Checked] = {}
        refit = None
        for benchmark, (campaign, models, predictions) in results.items():
            refit = refit or harness.fit_campaign_models(campaign)
            problems = checks.oracle_mismatches(
                campaign, benchmark, ORACLE_SAMPLE, self.seed
            ) + checks.refit_mismatches(models, refit, benchmark)
            columns = campaign.dataset(benchmark, "validation").columns()
            for metric, predicted in zip(("bips", "watts"), predictions):
                direct = models[benchmark][metric].predict(columns)
                if not np.allclose(predicted, direct, rtol=1e-9, atol=0.0):
                    problems.append(
                        f"{benchmark}: swept {metric} predictions disagree "
                        "with the model"
                    )
            checked[benchmark] = (
                checks.digest({
                    "campaign": checks.campaign_data(campaign, benchmark),
                    "models": checks.model_coefficients(models, benchmark),
                    "predictions": predictions,
                }),
                problems,
            )
        return checked


WORKLOADS = {w.name: w for w in (CiCold, FullSpace, DefaultCampaign)}
