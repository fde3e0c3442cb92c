"""Simulation campaigns (Section 2.3's protocol).

A campaign samples designs uniformly at random from the Table 1 space,
simulates every sampled design on every benchmark, and assembles training
and validation datasets — the inputs to model fitting and Figure 1.

Serially, each benchmark's trace is replayed once through the batched
timing kernel for all of its train and validation designs.  Campaigns are
also embarrassingly parallel across design points; pass ``workers > 1``
to spread simulations over processes (each worker rebuilds its
deterministic trace, so results are bit-identical to a serial run).
Parallel runs go through :mod:`repro.harness.resilience`: chunks are
retried on transient failures, optionally journaled to disk for
checkpoint/resume, and the run degrades to in-process execution when the
worker pool breaks repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..designspace import DesignPoint, DesignSpace, sample_uar, sampling_space
from ..obs.tracing import get_tracer
from ..regression import FittedModel, fit_ols, performance_spec, power_spec
from ..simulator import Simulator
from ..workloads import BENCHMARK_NAMES, get_profile
from .dataset import Dataset
from .resilience import (
    ChunkTask,
    CorruptResultError,
    Journal,
    ResilienceConfig,
    RunReport,
    fingerprint_payload,
    run_chunks,
)
from .scale import ScalePreset, get_scale

#: Chunks per (benchmark, split) on the resilient path.  A constant — not
#: a function of ``workers`` — so a journal written at one worker count
#: resumes cleanly at another.
CAMPAIGN_CHUNKS_PER_SPLIT = 8


@dataclass
class Campaign:
    """Everything a study context needs from the simulation phase."""

    space: DesignSpace
    scale: ScalePreset
    benchmarks: tuple
    train_points: List[DesignPoint]
    validation_points: List[DesignPoint]
    train: Dict[str, Dataset] = field(default_factory=dict)
    validation: Dict[str, Dataset] = field(default_factory=dict)
    #: Execution accounting when the run went through the resilient
    #: executor (retries, resumes, degradation); None on the serial path.
    run_report: Optional[RunReport] = None

    def dataset(self, benchmark: str, split: str = "train") -> Dataset:
        if split not in ("train", "validation"):
            raise ValueError(
                f"unknown split {split!r}; choices are 'train'/'validation'"
            )
        table = self.train if split == "train" else self.validation
        try:
            return table[benchmark]
        except KeyError:
            raise KeyError(
                f"no {split} data for {benchmark!r}; have {sorted(table)}"
            ) from None


def _simulate_chunk(
    space: DesignSpace,
    benchmark: str,
    trace_length: int,
    seed: int,
    memory_mode: str,
    warm: bool,
    points: List[DesignPoint],
    batch_size: Optional[int] = None,
) -> List[Tuple[float, float]]:
    """Worker: simulate ``points`` for one benchmark; returns (bips, watts).

    Runs in a separate process: rebuilds the deterministic trace and a
    fresh simulator, so outputs are identical to an in-process run.  The
    chunk goes through the batched timing kernel — one trace replay per
    block of configs — whose results are bit-identical to the per-point
    scalar path (``batch_size`` only changes speed, never values, so it
    stays out of the campaign fingerprint and journals remain portable
    across batch sizes).
    """
    simulator = Simulator(memory_mode=memory_mode, warm=warm)
    trace = simulator.trace_for(get_profile(benchmark), trace_length, seed=seed)
    results = simulator.simulate_batch(
        space, points, trace, batch_size=batch_size
    )
    return [(r.bips, float(r.watts)) for r in results]


def _chunked(points: List[DesignPoint], chunks: int) -> List[List[DesignPoint]]:
    size = max(1, (len(points) + chunks - 1) // chunks)
    return [points[i : i + size] for i in range(0, len(points), size)]


def _campaign_fingerprint(
    scale: ScalePreset,
    space: DesignSpace,
    names: Sequence[str],
    memory_mode: str,
    warm: bool,
    chunk_sizes: Sequence[int],
) -> str:
    """Digest of everything that determines the chunk layout and results."""
    return fingerprint_payload(
        {
            "kind": "campaign",
            "scale": {
                "trace_length": scale.trace_length,
                "n_train": scale.n_train,
                "n_validation": scale.n_validation,
                "seed": scale.seed,
            },
            "space": {
                "name": space.name,
                "parameters": [
                    [p.name, list(p.values)] for p in space.parameters
                ],
            },
            "benchmarks": list(names),
            "memory_mode": memory_mode,
            "warm": warm,
            "chunk_sizes": list(chunk_sizes),
        }
    )


def _validate_campaign_payload(task: ChunkTask, payload) -> None:
    """Reject worker payloads that are not ``task.size`` (bips, watts) pairs."""
    if not isinstance(payload, list) or len(payload) != task.size:
        got = len(payload) if isinstance(payload, list) else type(payload)
        raise CorruptResultError(
            f"chunk {task.index} returned {got} results, expected {task.size}"
        )
    for pair in payload:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise CorruptResultError(
                f"chunk {task.index} returned a malformed result pair"
            )


def _run_campaign_resilient(
    campaign: Campaign,
    simulator: Simulator,
    scale: ScalePreset,
    space: DesignSpace,
    names: Sequence[str],
    splits,
    progress,
    workers: int,
    resilience: ResilienceConfig,
    batch_size: Optional[int] = None,
) -> Campaign:
    """The chunked path: fan out, retry, journal, and assemble datasets."""
    tasks: List[ChunkTask] = []
    chunk_sizes: List[int] = []
    for benchmark in names:
        for split, split_points in splits:
            for chunk in _chunked(split_points, CAMPAIGN_CHUNKS_PER_SPLIT):
                tasks.append(
                    ChunkTask(
                        index=len(tasks),
                        fn=_simulate_chunk,
                        args=(
                            space,
                            benchmark,
                            scale.trace_length,
                            scale.seed,
                            simulator.memory_mode,
                            simulator.warm,
                            chunk,
                            batch_size,
                        ),
                        size=len(chunk),
                        meta=(benchmark, split),
                    )
                )
                chunk_sizes.append(len(chunk))

    fingerprint = _campaign_fingerprint(
        scale, space, names, simulator.memory_mode, simulator.warm,
        chunk_sizes,
    )
    journal = None
    if resilience.journal_path is not None:
        if not resilience.resume and resilience.journal_path.exists():
            resilience.journal_path.unlink()
        journal = Journal.open(
            resilience.journal_path, fingerprint, strict=resilience.resume
        )

    split_totals = {split: len(pts) for split, pts in splits}
    done_counts = {
        (benchmark, split): 0 for benchmark in names for split, _ in splits
    }

    def on_chunk(task, record, payload):
        if progress is None:
            return
        benchmark, split = task.meta
        done_counts[task.meta] += task.size
        progress(benchmark, split, done_counts[task.meta], split_totals[split])

    results, report = run_chunks(
        tasks,
        workers=workers,
        policy=resilience.policy,
        journal=journal,
        faults=resilience.faults,
        validate=_validate_campaign_payload,
        on_chunk=on_chunk,
        backend=resilience.backend,
        distributed=resilience.distributed,
        fingerprint=fingerprint,
    )
    campaign.run_report = report

    by_group: Dict[tuple, List] = {}
    for task, payload in zip(tasks, results):
        by_group.setdefault(task.meta, []).extend(payload)
    for (benchmark, split), pairs in by_group.items():
        split_points = dict(splits)[split]
        getattr(campaign, split)[benchmark] = Dataset(
            benchmark=benchmark,
            space=space,
            points=list(split_points),
            metrics={
                "bips": np.array([float(p[0]) for p in pairs]),
                "watts": np.array([float(p[1]) for p in pairs]),
            },
        )
    if journal is not None:
        journal.discard()
    return campaign


def run_campaign(
    simulator: Simulator,
    scale: Optional[ScalePreset] = None,
    space: Optional[DesignSpace] = None,
    benchmarks: Optional[Sequence[str]] = None,
    progress=None,
    workers: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    batch_size: Optional[int] = None,
) -> Campaign:
    """Sample, simulate, and assemble datasets.

    The training and validation samples are drawn disjointly UAR from the
    *sampling* space (which is wider in depth than the exploration space —
    Section 3.5's guard against extrapolation).  Every sampled design is
    simulated for every benchmark, as in the paper.

    ``workers > 1`` parallelizes over processes (results identical to the
    serial run).  ``progress`` callbacks fire on both paths with the same
    cumulative ``(benchmark, split, done, total)`` stream: once per
    (benchmark, split) serially, per completed chunk in parallel.

    ``resilience`` (or any ``workers > 1`` run, which uses the default
    policy) routes execution through :func:`repro.harness.resilience.run_chunks`:
    transient worker failures retry with backoff, a journal path enables
    checkpoint/resume, and the finished campaign carries a ``run_report``.

    Every path simulates through the batched timing kernel, replaying
    each trace once per block of up to ``batch_size`` configs (``None``:
    one block).  The serial path batches each benchmark's train and
    validation designs together; the chunked path batches each chunk.
    Results (and the chunked path's journal layout) are bit-identical for
    every batch size, and to a per-point scalar ``simulate_point`` loop:
    the oracle the campaign tests check against.
    """
    scale = scale or get_scale()
    space = space or sampling_space()
    names = tuple(benchmarks or BENCHMARK_NAMES)

    total = scale.n_train + scale.n_validation
    points = sample_uar(space, total, seed=scale.seed)
    train_points = points[: scale.n_train]
    validation_points = points[scale.n_train :]

    campaign = Campaign(
        space=space,
        scale=scale,
        benchmarks=names,
        train_points=train_points,
        validation_points=validation_points,
    )
    splits = (("train", train_points), ("validation", validation_points))
    tracer = get_tracer()
    with tracer.span(
        "campaign.run",
        benchmarks=list(names),
        n_train=scale.n_train,
        n_validation=scale.n_validation,
        workers=workers,
    ):
        if workers > 1 or resilience is not None:
            return _run_campaign_resilient(
                campaign,
                simulator,
                scale,
                space,
                names,
                splits,
                progress,
                workers,
                resilience or ResilienceConfig(),
                batch_size,
            )

        # One trace replay per benchmark covers both splits: the batch
        # kernel's fixed cost is paid once per block, not once per design.
        for benchmark in names:
            trace = simulator.trace_for(
                get_profile(benchmark), scale.trace_length, seed=scale.seed
            )
            results = simulator.simulate_batch(
                space, points, trace, batch_size=batch_size
            )
            by_split = (results[: scale.n_train], results[scale.n_train :])
            for (split, split_points), split_results in zip(splits, by_split):
                getattr(campaign, split)[benchmark] = Dataset.from_results(
                    benchmark, space, split_points, split_results
                )
                if progress is not None:
                    progress(
                        benchmark, split, len(split_points), len(split_points)
                    )
    return campaign


def fit_campaign_models(
    campaign: Campaign,
) -> Dict[str, Dict[str, FittedModel]]:
    """Fit the paper's performance and power models per benchmark.

    Returns ``{benchmark: {"bips": model, "watts": model}}``.
    """
    models: Dict[str, Dict[str, FittedModel]] = {}
    for benchmark in campaign.benchmarks:
        data = campaign.dataset(benchmark, "train").columns()
        models[benchmark] = {
            "bips": fit_ols(performance_spec(), data),
            "watts": fit_ols(power_spec(), data),
        }
    return models
