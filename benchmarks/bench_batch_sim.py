"""Batched timing kernel throughput: simulate_batch vs the scalar loop.

Times the same block of design points two ways for every benchmark:

- **scalar** — the seed protocol: one :meth:`Simulator.simulate_point`
  call per design, each replaying the trace through the per-instruction
  python pipeline;
- **batch** — :meth:`Simulator.simulate_batch`, replaying the trace once
  with pipeline state carried as numpy arrays over the config axis.

Asserts the hard equivalence contract (identical cycles, ActivityCounts
and watts per design) and a 4x speedup floor on every benchmark at a
batch of 64, then writes ``BENCH_batchsim.json`` with per-benchmark
timings, simulations per second, and the speedup ratios.

It also records the block-size curve: scalar vs batch time for blocks of
1 to 360 configs on a compute-bound and a memory-bound benchmark, and the
crossover block from which the kernel wins at every larger size — the
measurement behind ``SCALAR_BLOCK_LIMIT``, the block size below which
``Simulator.simulate_many`` falls back to the scalar pipeline.

Run with ``REPRO_SCALE=ci PYTHONPATH=src python -m pytest
benchmarks/bench_batch_sim.py -q -s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.designspace import sample_uar, sampling_space
from repro.simulator import Simulator
from repro.simulator.simulator import SCALAR_BLOCK_LIMIT
from repro.workloads import BENCHMARK_NAMES, get_profile

REPEATS = 3
BATCH = 64
SPEEDUP_FLOOR = 4.0
#: Block sizes of the scalar-vs-batch curve: the validation shapes (2-11),
#: the fallback edge (16), the default campaign's block (360).
CURVE_BLOCKS = (1, 2, 4, 7, 11, 16, 24, 32, 64, 128, 360)
CURVE_BENCHMARKS = ("gzip", "mcf")
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batchsim.json"
COMMAND = (
    "REPRO_SCALE=ci PYTHONPATH=src python -m pytest "
    "benchmarks/bench_batch_sim.py -q -s"
)


def _scalar_pass(simulator, space, points, trace):
    return [
        simulator.simulate_point(space, point, trace) for point in points
    ]


def _batch_pass(simulator, space, points, trace):
    return simulator.simulate_batch(space, points, trace)


def _timed(fn, *args):
    best = None
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def _block_curve(simulator, space, trace, points):
    rows = []
    for block in CURVE_BLOCKS:
        subset = points[:block]
        _, scalar_elapsed = _timed(_scalar_pass, simulator, space, subset, trace)
        _, batch_elapsed = _timed(_batch_pass, simulator, space, subset, trace)
        rows.append({
            "block": block,
            "scalar_seconds": scalar_elapsed,
            "batch_seconds": batch_elapsed,
            "speedup": scalar_elapsed / batch_elapsed,
        })
    return rows


def _crossover(rows):
    """Smallest block from which the batch kernel wins at every larger one."""
    crossover = None
    for row in reversed(rows):
        if row["speedup"] < 1.0:
            break
        crossover = row["block"]
    return crossover


def test_batch_kernel_throughput(bench_scale):
    space = sampling_space()
    simulator = Simulator()
    points = sample_uar(space, BATCH, seed=bench_scale.seed + 11)

    record = {
        "command": COMMAND,
        "scale": bench_scale.name,
        "trace_length": bench_scale.trace_length,
        "batch": BATCH,
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "benchmarks": {},
    }
    ratios = []
    for benchmark in BENCHMARK_NAMES:
        trace = simulator.trace_for(
            get_profile(benchmark), bench_scale.trace_length,
            seed=bench_scale.seed,
        )
        # Prime trace-derived state (access streams, predictor replays,
        # branch-warming streams) so both passes time steady-state work.
        _scalar_pass(simulator, space, points[:1], trace)
        _batch_pass(simulator, space, points[:1], trace)

        scalar_results, scalar_elapsed = _timed(
            _scalar_pass, simulator, space, points, trace
        )
        batch_results, batch_elapsed = _timed(
            _batch_pass, simulator, space, points, trace
        )

        # The hard equivalence contract, per design: exact, no tolerances.
        for got, want in zip(batch_results, scalar_results):
            assert got.cycles == want.cycles
            assert got.counts.as_dict() == want.counts.as_dict()
            assert float(got.watts) == float(want.watts)

        scalar_sps = BATCH / scalar_elapsed if scalar_elapsed > 0 else float("inf")
        batch_sps = BATCH / batch_elapsed if batch_elapsed > 0 else float("inf")
        ratio = scalar_elapsed / batch_elapsed if batch_elapsed > 0 else float("inf")
        ratios.append(ratio)
        record["benchmarks"][benchmark] = {
            "scalar_seconds": scalar_elapsed,
            "batch_seconds": batch_elapsed,
            "scalar_sims_per_second": scalar_sps,
            "batch_sims_per_second": batch_sps,
            "speedup": ratio,
        }

    record["mean_speedup"] = float(np.mean(ratios))
    record["min_speedup"] = float(np.min(ratios))

    curve_points = sample_uar(space, max(CURVE_BLOCKS), seed=bench_scale.seed + 17)
    curves = {}
    for benchmark in CURVE_BENCHMARKS:
        trace = simulator.trace_for(
            get_profile(benchmark), bench_scale.trace_length,
            seed=bench_scale.seed,
        )
        curves[benchmark] = _block_curve(simulator, space, trace, curve_points)
    record["block_curve"] = {
        "scalar_block_limit": SCALAR_BLOCK_LIMIT,
        "crossover": {b: _crossover(rows) for b, rows in curves.items()},
        "benchmarks": curves,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for benchmark, row in record["benchmarks"].items():
        print(
            f"{benchmark:>6s}: scalar {row['scalar_sims_per_second']:>7,.0f} sims/s"
            f"  batch {row['batch_sims_per_second']:>7,.0f} sims/s"
            f"  speedup {row['speedup']:.1f}x"
        )
    for benchmark, rows in curves.items():
        print(
            f"{benchmark:>6s} block curve (batch speedup): "
            + "  ".join(f"{r['block']}:{r['speedup']:.2f}x" for r in rows)
        )
    print(
        f"crossover {record['block_curve']['crossover']}, "
        f"SCALAR_BLOCK_LIMIT {SCALAR_BLOCK_LIMIT}"
    )
    print(f"wrote {RESULT_PATH.name} (mean speedup {record['mean_speedup']:.1f}x)")
    assert record["min_speedup"] >= SPEEDUP_FLOOR, record["benchmarks"]
