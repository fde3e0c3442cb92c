"""In-memory spans around the program's public entry points.

The benchmark's traced run patches each layer's entry point *where it is
looked up* (a module global such as ``repro.studies.common.run_sweep``,
or a class attribute such as ``Simulator.simulate_batch``) with a wrapper
that records one span per call: name, start, end, parent and a few
attributes.  Spans stay in memory; :func:`layer_metrics` derives the
per-layer numbers from them after the run.

Patching a name that no longer exists raises, and the benchmark's own
tests require every wrapper to fire on the workload named in its
:class:`Patch` entry, so a refactor that rebinds a name fails loudly
instead of silently zeroing a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                      #: index of the enclosing span, -1 at top
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans for one traced pass (single thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.calls: Dict[str, int] = {}    #: calls per patch label

    def call(self, name: str, fn: Callable, *args, attrs=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, dict(attrs or {}))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()


@dataclass(frozen=True)
class Patch:
    """One wrapped lookup site of a layer entry point."""

    owner: str          #: "module" or "module:Class"
    attribute: str
    span: str           #: span name recorded per call
    exercised_by: str   #: workload on which the wrapper must fire
    sizes: Tuple[str, ...] = ()  #: parameters recorded as len() attributes

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attribute}"


PATCHES: Tuple[Patch, ...] = (
    Patch("repro.simulator.simulator:Simulator", "trace_for",
          "workloads.trace_for", "ci-cold"),
    Patch("repro.simulator.simulator:Simulator", "simulate_point",
          "simulator.scalar", "ci-cold"),
    Patch("repro.simulator.simulator:Simulator", "simulate_batch",
          "simulator.batch", "ci-cold", sizes=("points",)),
    Patch("repro.harness.artifacts", "run_campaign", "campaign.run", "ci-cold"),
    Patch("repro.harness", "run_campaign", "campaign.run", "default-campaign"),
    Patch("repro.harness.artifacts", "load_campaign", "artifacts.load",
          "full-space"),
    Patch("repro.harness.artifacts", "save_campaign", "artifacts.save",
          "ci-cold"),
    Patch("repro.studies.common", "fit_campaign_models", "regression.fit",
          "ci-cold"),
    Patch("repro.harness", "fit_campaign_models", "regression.fit",
          "default-campaign"),
    Patch("repro.studies.common", "run_sweep", "sweep.run", "ci-cold",
          sizes=("reducers",)),
    Patch("repro.harness.sweep", "run_sweep", "sweep.run", "full-space",
          sizes=("reducers",)),
    Patch("repro.studies.common", "predict_source", "sweep.predict_source",
          "full-space"),
    Patch("repro.harness.sweep", "predict_source", "sweep.predict_source",
          "default-campaign"),
    Patch("repro.studies.common:StudyContext", "simulate",
          "studies.validation", "full-space"),
    Patch("repro.studies.common:StudyContext", "simulate_many",
          "studies.validation", "ci-cold", sizes=("points",)),
    Patch("repro.studies.common:StudyContext", "sweep_exploration",
          "studies.sweep_request", "ci-cold", sizes=("reducers",)),
    Patch("repro.studies.common:StudyContext", "sweep_per_depth",
          "studies.sweep_request", "ci-cold", sizes=("reducers",)),
)

#: Span names that mark a request rather than a layer's work; they are
#: left out of time coverage.
MARKERS = frozenset({"studies.sweep_request"})
EXPERIMENT = "experiment"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _wrapper(recorder: SpanRecorder, patch: Patch, original: Callable):
    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.calls[patch.label] = recorder.calls.get(patch.label, 0) + 1
        attrs = {}
        if patch.sizes:
            bound = signature.bind(*args, **kwargs)
            for name in patch.sizes:
                value = bound.arguments[name]
                if not isinstance(value, (list, tuple)):
                    value = bound.arguments[name] = list(value)
                attrs[name] = len(value)
            args, kwargs = bound.args, bound.kwargs
        return recorder.call(patch.span, original, *args, attrs=attrs, **kwargs)

    return wrapper


@contextmanager
def patched(
    recorder: SpanRecorder, patches: Sequence[Patch] = PATCHES
) -> Iterator[SpanRecorder]:
    """Install every wrapper for the ``with`` block, then restore."""
    installed = []
    try:
        for patch in patches:
            owner = _resolve(patch.owner)
            original = owner.__dict__.get(patch.attribute)
            if original is None:
                raise AttributeError(
                    f"layer entry point {patch.label} no longer exists; "
                    "update perfbench/spans.py PATCHES"
                )
            installed.append((owner, patch.attribute, original))
            setattr(owner, patch.attribute, _wrapper(recorder, patch, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


# -- derived metrics ----------------------------------------------------------


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _covered(spans: Sequence[Span], names) -> float:
    return _union([(s.start, s.end) for s in spans if s.name in names])


def _histogram_sum(snapshot: dict, name: str) -> float:
    return float(snapshot.get("histograms", {}).get(name, {}).get("sum", 0.0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    registry: dict,
    wall_s: float,
    experiment_ids: Sequence[str],
) -> Dict[str, float]:
    """Per-layer numbers from one traced pass.

    ``registry`` is the ``repro.obs`` registry snapshot of the pass
    and ``wall_s`` its traced wall time.  Layer times are inclusive (a
    campaign's seconds contain its simulations) and count overlapping
    spans of one layer once.
    """
    spans = recorder.spans
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    counters = registry.get("counters", {})

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def seconds(*names: str) -> float:
        return _covered(spans, set(names))

    scalar_s = seconds("simulator.scalar")
    blocks = [s.attrs["points"] for s in by_name.get("simulator.batch", [])]
    batch_points = sum(blocks)
    batch_s = seconds("simulator.batch")
    metrics: Dict[str, float] = {
        "workloads.trace_for.calls": calls("workloads.trace_for"),
        "workloads.trace_for.s": seconds("workloads.trace_for"),
        "workloads.trace_cache.hit_ratio": _ratio(
            counters.get("sim.trace_cache.hit", 0.0),
            counters.get("sim.trace_cache.hit", 0.0)
            + counters.get("sim.trace_cache.miss", 0.0),
        ),
        "simulator.scalar.calls": calls("simulator.scalar"),
        "simulator.scalar.s": scalar_s,
        "simulator.scalar.ms_per_sim": 1000 * _ratio(
            scalar_s, calls("simulator.scalar")
        ),
        "simulator.batch.calls": len(blocks),
        "simulator.batch.points": batch_points,
        "simulator.batch.s": batch_s,
        "simulator.batch.ms_per_sim": 1000 * _ratio(batch_s, batch_points),
        "simulator.batch.block_p50": statistics.median(blocks) if blocks else 0,
        "simulator.batch.block_max": max(blocks, default=0),
        "simulator.batch.small_block_share": _ratio(
            sum(b for b in blocks if b < 16), batch_points
        ),
        "simulator.instructions": counters.get("simulator.instructions", 0.0),
        "campaign.run.s": seconds("campaign.run"),
        "campaign.sims": _campaign_sims(spans),
        "artifacts.load.s": seconds("artifacts.load"),
        "artifacts.save.s": seconds("artifacts.save"),
        "artifacts.cache.hit_ratio": _ratio(
            counters.get("artifacts.cache.hits", 0.0),
            counters.get("artifacts.cache.hits", 0.0)
            + counters.get("artifacts.cache.misses", 0.0),
        ),
        "regression.fit.calls": calls("regression.fit"),
        "regression.fit.s": seconds("regression.fit"),
    }
    sweep_s = seconds("sweep.run", "sweep.predict_source")
    sweep_points = counters.get("sweep.points", 0.0)
    requested = sum(
        s.attrs["reducers"] for s in by_name.get("studies.sweep_request", [])
    )
    computed = sum(
        s.attrs["reducers"]
        for s in by_name.get("sweep.run", [])
        if s.parent >= 0 and spans[s.parent].name == "studies.sweep_request"
    )
    metrics.update({
        "sweep.run.calls": calls("sweep.run"),
        "sweep.run.s": sweep_s,
        "sweep.points": sweep_points,
        "sweep.points_per_s": _ratio(sweep_points, sweep_s),
        "sweep.predict.s": _histogram_sum(
            registry, "sweep.predict_block.seconds"
        ),
        "sweep.reduce.s": _histogram_sum(registry, "sweep.reduce_block.seconds"),
        "sweep.memo.hit_ratio": _ratio(requested - computed, requested),
        "studies.validation.calls": calls("studies.validation"),
        "studies.validation.points": sum(
            s.attrs.get("points", 1)
            for s in by_name.get("studies.validation", [])
        ),
        "studies.validation.s": seconds("studies.validation"),
    })

    layer_names = {s.name for s in spans} - MARKERS - {EXPERIMENT}
    experiment_s = {eid: 0.0 for eid in experiment_ids}
    self_s = 0.0
    for index, span in enumerate(spans):
        if span.name != EXPERIMENT:
            continue
        experiment_s[span.attrs["id"]] += span.seconds
        inside = [
            (s.start, s.end)
            for s in _descendants(spans, index)
            if s.name in layer_names
        ]
        self_s += span.seconds - _union(inside)
    metrics["studies.self_s"] = self_s
    for eid, value in experiment_s.items():
        metrics[f"experiments.{eid}.s"] = value
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    metrics["obs.unattributed_share"] = _ratio(wall_s - _union(top), wall_s)
    return metrics


def _descendants(spans: Sequence[Span], root: int) -> Iterator[Span]:
    # Children are recorded after their parent and before the parent's
    # next sibling, so a forward scan with an ancestor set finds them all.
    family = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in family:
            family.add(index)
            yield spans[index]
        elif spans[index].start >= spans[root].end:
            return


def _campaign_sims(spans: Sequence[Span]) -> int:
    """Simulations run inside a campaign span (scalar calls + batch points)."""
    inside = set()
    total = 0
    for index, span in enumerate(spans):
        if span.name == "campaign.run" or span.parent in inside:
            inside.add(index)
            if span.name == "simulator.scalar":
                total += 1
            elif span.name == "simulator.batch":
                total += span.attrs["points"]
    return total


def expected_labels(workload: str) -> List[str]:
    """Patch labels whose wrapper must fire on ``workload``."""
    return [p.label for p in PATCHES if p.exercised_by == workload]
