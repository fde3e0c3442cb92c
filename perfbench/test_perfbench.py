"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

They take about a minute: the wrapper self-test runs one traced pass of
every workload.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, runner, spans, speed
from perfbench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def cache_env(monkeypatch):
    """Workloads point REPRO_CACHE_DIR at their caches; restore it after."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "unused")


def _workload(name: str, tmp_path: Path) -> Workload:
    workload = WORKLOADS[name](seed=3, root=tmp_path)
    workload.setup_repeats = 1
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_wrapper_fires_on_the_workload_that_exercises_it(
    name, tmp_path, cache_env
):
    workload = _workload(name, tmp_path)
    state = workload.prepare()
    outcome = runner.timed_pass(workload, workload.begin(state), traced=True)
    assert not outcome.errors
    expected = spans.expected_labels(name)
    assert expected, f"no wrapper is assigned to {name}"
    silent = [label for label in expected if not outcome.recorder.calls.get(label)]
    assert not silent, f"wrappers never fired on {name}: {silent}"
    metrics = spans.layer_metrics(
        outcome.recorder, outcome.registry, outcome.gross_s, runner.EXPERIMENT_IDS
    )
    assert 0 <= metrics["obs.unattributed_share"] < 0.05


def test_patching_a_missing_name_fails_loudly():
    missing = spans.Patch("repro.harness", "no_such_entry", "x", "ci-cold")
    with pytest.raises(AttributeError, match="no longer exists"):
        with spans.patched(spans.SpanRecorder(), [missing]):
            pass


def test_patches_are_restored():
    from repro.simulator.simulator import Simulator

    original = Simulator.__dict__["simulate_batch"]
    with spans.patched(spans.SpanRecorder()):
        assert Simulator.__dict__["simulate_batch"] is not original
    assert Simulator.__dict__["simulate_batch"] is original


def test_layer_metrics_from_nested_spans():
    recorder = spans.SpanRecorder()
    recorder.spans = [
        spans.Span("experiment", 0.0, 10.0, -1, {"id": "F4"}),
        spans.Span("studies.validation", 1.0, 5.0, 0, {"points": 12}),
        spans.Span("simulator.batch", 1.5, 4.5, 1, {"points": 12}),
        spans.Span("simulator.batch", 5.0, 6.0, 0, {"points": 40}),
        spans.Span("experiment", 10.0, 11.0, -1, {"id": "T1"}),
    ]
    metrics = spans.layer_metrics(recorder, {}, 12.0, ("F4", "T1"))
    assert metrics["simulator.batch.calls"] == 2
    assert metrics["simulator.batch.s"] == 4.0
    assert metrics["simulator.batch.block_max"] == 40
    assert metrics["simulator.batch.small_block_share"] == 12 / 52
    assert metrics["studies.validation.points"] == 12
    # F4: 10 s minus validation (1-5) and the second batch (5-6); T1: 1 s.
    assert metrics["studies.self_s"] == 6.0
    assert metrics["experiments.F4.s"] == 10.0
    assert metrics["obs.unattributed_share"] == 1 / 12


def test_times_and_rates_rescale_to_reference_speed():
    slow_probe = 2 * speed.REFERENCE_S  # the host ran at half speed
    assert speed.to_reference(4.0, slow_probe) == 2.0
    scaled = runner._at_reference(
        {"wall_s": 4.0, "sweep.points_per_s": 100.0,
         "simulator.batch.ms_per_sim": 8.0, "sweep.points": 7.0,
         "obs.unattributed_share": 0.5},
        (slow_probe, slow_probe),
    )
    assert scaled == {"wall_s": 2.0, "sweep.points_per_s": 200.0,
                      "simulator.batch.ms_per_sim": 4.0, "sweep.points": 7.0,
                      "obs.unattributed_share": 0.5}


def test_pass_probe_samples_during_a_pass_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with speed.PassProbe(interval_s=0.05) as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 2
    assert probe.spent_s == sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_digest_ignores_host_time_and_sees_one_ulp():
    base = {"ann_fit_s": 0.5, "err": 1.0}
    assert checks.digest(base) == checks.digest({**base, "ann_fit_s": 9.0})
    assert checks.digest(base) != checks.digest(
        {**base, "err": float.fromhex("0x1.0000000000001p+0")}
    )


class _Fake(Workload):
    """Two operations whose results are their own digests."""

    name = "fake"

    def operations(self):
        return ["a", "b"]

    def check(self, state, pass_state, results):
        return {op: (digest, []) for op, digest in results.items()}


def _record(ledger, results, errors=None):
    ledger.record(None, None, runner.Pass(results, errors or {}, {}, 1.0, []))


def test_ledger_counts_raised_missing_and_unstable_operations():
    ledger = runner.Ledger(_Fake(seed=0, root=Path(".")))
    _record(ledger, {"a": "x", "b": "y"})
    assert (ledger.attempted, ledger.failed) == (2, 0)
    _record(ledger, {"a": "x", "b": "changed"})
    _record(ledger, {"a": "x"}, errors={"b": "Traceback: boom"})
    assert (ledger.attempted, ledger.failed) == (6, 2)
    assert "digest differs" in ledger.failures[0]


@pytest.fixture(scope="module")
def space_run(tmp_path_factory):
    """One prepared full-space state shared by the tests below."""
    import os

    saved = os.environ.get("REPRO_CACHE_DIR")
    workload = _workload("full-space", tmp_path_factory.mktemp("space"))
    state = workload.prepare()
    yield workload, state
    if saved is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = saved


def _one_pass(workload, state):
    ledger = runner.Ledger(workload)
    pass_state = workload.begin(state)
    ledger.record(state, pass_state, runner.timed_pass(workload, pass_state))
    return ledger


def test_full_space_outputs_check_and_digest_repeats(space_run):
    workload, state = space_run
    first, second = _one_pass(workload, state), _one_pass(workload, state)
    assert first.failures == [] and second.failures == []
    assert first.digest() == second.digest()


def test_perturbed_output_makes_failed_ratio_nonzero(space_run, monkeypatch):
    from repro.harness import sweep

    finalize = sweep.TopKReducer.finalize

    def reversed_top_k(self, source):
        result = finalize(self, source)
        result.indices = result.indices[::-1].copy()
        return result

    monkeypatch.setattr(sweep.TopKReducer, "finalize", reversed_top_k)
    workload, state = space_run
    ledger = _one_pass(workload, state)
    assert ledger.failed == ledger.attempted == 9
    assert all("top-k" in failure for failure in ledger.failures)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ci-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
