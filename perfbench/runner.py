"""Runner behind ``perfbench/run.py``: passes, output checks, report."""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments import EXPERIMENTS
from repro.obs.metrics import isolated_registry

from . import spans, speed
from .checks import digest
from .workloads import Workload

#: Every registry experiment has a per-layer time on every workload (0
#: where the workload runs none), so all runs report the same metrics.
EXPERIMENT_IDS = tuple(EXPERIMENTS)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instr_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(".ms_per_sim"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def per_layer_names(experiment_ids) -> List[str]:
    """Every per-layer metric name, in report order."""
    empty = spans.layer_metrics(spans.SpanRecorder(), {}, 1.0, experiment_ids)
    return list(empty) + ["obs.trace_overhead_ratio"]


@dataclass
class Pass:
    """What one timed section produced."""

    results: dict
    errors: Dict[str, str]
    registry: dict
    wall_s: float                   #: host seconds, less in-pass probe time
    probes: List[float]             #: probe seconds sampled during the pass
    recorder: Optional[spans.SpanRecorder] = None

    @property
    def gross_s(self) -> float:
        """Host seconds including the in-pass probe samples, which spans
        contain."""
        return self.wall_s + sum(self.probes)


def _direct(name, fn, *args, attrs=None, **kwargs):
    return fn(*args, **kwargs)


def timed_pass(workload: Workload, pass_state, traced: bool = False) -> Pass:
    """One timed section, in a metrics registry of its own."""
    gc.collect()  # garbage of earlier passes is not this pass's cost
    recorder = spans.SpanRecorder() if traced else None
    wrappers = spans.patched(recorder) if traced else nullcontext()
    call = recorder.call if traced else _direct
    with isolated_registry() as registry, wrappers, speed.PassProbe() as probe:
        start = time.perf_counter()
        results, errors = workload.run(pass_state, call)
        wall_s = time.perf_counter() - start - probe.spent_s
    return Pass(
        results, errors, registry.snapshot(), wall_s, probe.samples, recorder
    )


class Ledger:
    """Operations attempted and failed, with per-operation digests.

    An operation fails when it raised, when its output check found a
    mismatch, or when its digest differs from the one its first pass in
    this run produced.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, state, pass_state, outcome: Pass) -> None:
        missing = "no checked output"
        try:
            checked = self.workload.check(state, pass_state, outcome.results)
        except Exception as error:  # noqa: BLE001 - fails every operation
            checked, missing = {}, f"output check raised {error!r}"
        for op in self.workload.operations():
            self.attempted += 1
            if op in outcome.errors:
                problems = [outcome.errors[op].strip()]
            elif op not in checked:
                problems = [missing]
            else:
                value, problems = checked[op]
                if self.digests.setdefault(op, value) != value:
                    problems = problems + ["digest differs from the first pass"]
            if problems:
                self.failures.append(f"{op}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def digest(self) -> str:
        return digest(dict(sorted(self.digests.items())))


def _measured_enough(walls: List[float], passes: int, seconds: float) -> bool:
    return len(walls) >= passes and sum(walls) >= seconds


def _at_reference(metrics: Dict[str, float], probes) -> Dict[str, float]:
    """Rescale every time and rate in ``metrics`` to reference speed."""
    factor = speed.to_reference(1.0, *probes)
    scaled = {}
    for name, value in metrics.items():
        unit = _unit(name)
        if unit in ("s", "ms"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        scaled[name] = value
    return scaled


def measure(
    workload: Workload, seconds: float, ledger: Ledger, import_s: float
) -> dict:
    """Untraced passes: the end-to-end metrics."""
    setups = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        state = workload.prepare()
        pending = workload.begin(state)
        setups.append(time.perf_counter() - start)
    before = speed.probe_seconds()
    raw: List[float] = []
    probes: List[float] = [before]
    in_pass: List[float] = []
    passes: List[Dict[str, float]] = []
    while not _measured_enough(raw, workload.min_passes, seconds):
        pass_state = pending or workload.begin(state)
        pending = None
        outcome = timed_pass(workload, pass_state)
        after = speed.probe_seconds()
        ledger.record(state, pass_state, outcome)
        counters = outcome.registry["counters"]
        passes.append(_at_reference({
            "wall_s": outcome.wall_s,
            "sim_instr_per_s": counters.get("simulator.instructions", 0.0)
            / outcome.wall_s,
            "points_per_s": counters.get("sweep.points", 0.0) / outcome.wall_s,
        }, (before, *outcome.probes, after)))
        raw.append(outcome.wall_s)
        in_pass.append(statistics.mean(outcome.probes or [after]))
        probes.append(after)
        before = after
        del outcome, pass_state  # keep one pass's outputs alive at a time
    metrics = {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
    metrics.update({
        "setup_s": speed.to_reference(
            import_s + statistics.median(setups), probes[0]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": len(raw),
        "raw_walls": raw,
        "probes": probes,
        "in_pass_probes": in_pass,
    })
    return metrics


def trace(workload: Workload, seconds: float, ledger: Ledger) -> dict:
    """Pairs of untraced and traced passes: the per-layer metrics."""
    state = workload.prepare()
    pending = workload.begin(state)
    traced: List[Tuple[Pass, tuple]] = []
    ratios: List[float] = []
    raw: List[float] = []
    probes = [speed.probe_seconds()]
    while not _measured_enough(raw, 2, seconds):
        pair = {}
        # Alternate which side runs first, so warm-up favours neither.
        order = (False, True) if len(ratios) % 2 == 0 else (True, False)
        for is_traced in order:
            pass_state = pending or workload.begin(state)
            pending = None
            outcome = timed_pass(workload, pass_state, traced=is_traced)
            probes.append(speed.probe_seconds())
            ledger.record(state, pass_state, outcome)
            pair[is_traced] = (outcome, (*probes[-2:], *outcome.probes))
            raw.append(outcome.wall_s)
        traced.append(pair[True])
        ratios.append(
            speed.to_reference(pair[True][0].wall_s, *pair[True][1])
            / speed.to_reference(pair[False][0].wall_s, *pair[False][1])
        )
    per_pass = [
        _at_reference(
            spans.layer_metrics(
                p.recorder, p.registry, p.gross_s, EXPERIMENT_IDS
            ),
            around,
        )
        for p, around in traced
    ]
    metrics = {
        name: statistics.median(values[name] for values in per_pass)
        for name in per_pass[0]
    }
    metrics["obs.trace_overhead_ratio"] = statistics.median(ratios)
    metrics.update({"passes": len(traced), "raw_walls": raw, "probes": probes})
    metrics["silent_wrappers"] = [
        label for label in spans.expected_labels(workload.name)
        if not any(p.recorder.calls.get(label) for p, _ in traced)
    ]
    return metrics


def report(workload: Workload, args, metrics: dict, ledger: Ledger) -> dict:
    """Write the readable report to stderr; return the JSON result."""
    out = sys.stderr
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} passes={metrics['passes']}",
        file=out,
    )
    if args.trace:
        names = per_layer_names(EXPERIMENT_IDS)
        units = {name: _unit(name) for name in names}
    else:
        names, units = list(END_TO_END_UNITS), END_TO_END_UNITS
    result = {}
    for name in names:
        value = float(metrics[name])
        result[name] = {"value": value, "unit": units[name]}
        note = workload.absent_reason(name) if args.trace and not value else ""
        print(f"  {name:<36} {value:>14.6g} {units[name]:<6} {note}", file=out)
    print(
        f"  {'failed_ratio':<36} {ledger.failed / ledger.attempted:>14.6g} "
        f"ratio  ({ledger.failed} of {ledger.attempted} operations)",
        file=out,
    )
    print(f"  output digest {ledger.digest()}", file=out)
    walls = " ".join(f"{w:.3f}" for w in metrics["raw_walls"])
    probes = " ".join(f"{p * 1000:.1f}" for p in metrics["probes"])
    print(f"  raw host pass walls (s): {walls}", file=out)
    print(f"  speed probes between passes (ms, reference "
          f"{speed.REFERENCE_S * 1000:g}): {probes}", file=out)
    if "in_pass_probes" in metrics:
        in_pass = " ".join(f"{p * 1000:.1f}" for p in metrics["in_pass_probes"])
        print(f"  mean speed probe during each pass (ms): {in_pass}", file=out)
    for label in metrics.get("silent_wrappers", ()):
        print(f"  WARNING: wrapper {label} never fired", file=out)
    for failure in ledger.failures:
        print(f"  FAILED {failure}", file=out)
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result,
    }
