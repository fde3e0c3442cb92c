"""Batched multi-config timing kernel.

Replays one :class:`~repro.workloads.trace.Trace` against a whole block of
:class:`~repro.simulator.config.MachineConfig` designs in a single pass —
the access pattern of a campaign, where every chunk simulates many sampled
designs on the *same* benchmark trace.  The scalar
:func:`~repro.simulator.pipeline.run_pipeline` visits each instruction
once per design; this kernel visits each instruction once per *block*,
carrying the fetch/dispatch/issue/complete/retire state as int64 numpy
arrays over the config axis.  The per-instruction work is therefore a
fixed number of O(B) vector operations instead of B repetitions of the
scalar bookkeeping.

Two properties of the scalar model make the vectorization exact rather
than approximate:

- **Op classes are shared.**  The op class at instruction ``i`` comes from
  the trace, not the config, so every design takes the same code path per
  instruction; only the *values* (latencies, capacities, outcome streams)
  differ across the block.
- **The memory and branch streams are timing-independent.**  The scalar
  pipeline consults the cache model and the predictor in program order
  regardless of the cycles it assigns, so service levels, mispredict
  outcomes, fetch penalties and prefetch coverage can all be precomputed
  per block (and the trace-only parts once per trace, memoized via
  :meth:`~repro.workloads.trace.Trace.derived`) before the timing loop
  runs.

The equivalence contract is *hard*: for every config in the block,
:func:`run_pipeline_batch` returns bit-identical cycles and
:class:`~repro.simulator.results.ActivityCounts` to the scalar
``run_pipeline`` reference path (see ``tests/test_batch_sim.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workloads.trace import (
    OP_BRANCH,
    OP_FP,
    OP_FP_DIV,
    OP_INT,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
    Trace,
)
from .branch import build_predictor
from .caches import build_hierarchy
from .config import MachineConfig
from .memory import FunctionalMemory, StackDistanceMemory
from .pipeline import PipelineOutcome
from .resources import ResourceError
from .results import ActivityCounts

_LEVEL_CODES = {"l1": 0, "l2": 1, "mem": 2}


class _TraceView:
    """Config-independent precomputation, built once per trace.

    Everything here depends only on the trace columns: python-scalar
    copies of the hot columns, the program-order access streams consumed
    by the memory models, per-load next-line-sequential flags, and the
    activity counts that are identical for every config.
    """

    __slots__ = (
        "n", "ops", "src1", "src2", "max_dep", "fetch_flags",
        "instr_reuse", "mem_reuse", "mem_is_load", "load_sequential",
        "branch_sites", "branch_takens",
        "access_is_data", "access_blocks",
        "warm_data_blocks", "warm_instr_blocks",
        "base_counts",
    )

    def __init__(self, trace: Trace):
        op = trace.op.astype(np.int64)
        n = len(trace)
        self.n = n
        self.ops = op.tolist()
        self.src1 = trace.src1.tolist()
        self.src2 = trace.src2.tolist()
        self.max_dep = int(max(trace.src1.max(), trace.src2.max()))

        # Fetch-event stream (new instruction blocks, in program order).
        fetch_mask = trace.instr_reuse >= 0
        self.fetch_flags = fetch_mask.tolist()
        self.instr_reuse = trace.instr_reuse[fetch_mask].astype(np.int64)

        # Data-access stream: the scalar pipeline calls ``data_access``
        # for every load (at resolve) and store (at execute), i.e. for
        # memory-class ops in program order.
        is_mem_op = np.isin(op, (OP_LOAD, OP_STORE))
        self.mem_reuse = trace.data_reuse[is_mem_op].astype(np.int64)
        is_load = op == OP_LOAD
        self.mem_is_load = op[is_mem_op] == OP_LOAD

        # Next-line prefetch flags, exactly as the scalar path derives
        # them: over the concrete block stream (``mem_block >= 0``), then
        # sliced down to loads (the only consumers).
        block_mask = trace.mem_block >= 0
        blocks = trace.mem_block[block_mask]
        flags = np.zeros(blocks.size, dtype=bool)
        if blocks.size > 1:
            flags[1:] = blocks[1:] == blocks[:-1] + 1
        sequential_full = np.zeros(n, dtype=bool)
        sequential_full[np.flatnonzero(block_mask)] = flags
        self.load_sequential = sequential_full[is_load]

        # Branch stream for predictor replay.
        branch_mask = op == OP_BRANCH
        self.branch_sites = trace.branch_site[branch_mask].tolist()
        self.branch_takens = trace.taken[branch_mask].tolist()

        # Interleaved program-order access sequence for the stateful
        # functional hierarchy: within one instruction, the fetch access
        # precedes the data access, matching the scalar loop's order.
        f_pos = np.flatnonzero(fetch_mask) * 2
        d_pos = np.flatnonzero(is_mem_op) * 2 + 1
        order = np.argsort(np.concatenate([f_pos, d_pos]), kind="stable")
        self.access_is_data = np.concatenate(
            [np.zeros(f_pos.size, dtype=bool), np.ones(d_pos.size, dtype=bool)]
        )[order].tolist()
        self.access_blocks = np.concatenate(
            [
                trace.iblock[fetch_mask].astype(np.int64),
                trace.mem_block[is_mem_op].astype(np.int64),
            ]
        )[order].tolist()

        # Warm-up replay streams (Simulator._warm_structures order: the
        # full data stream first, then the full instruction stream).
        self.warm_data_blocks = trace.mem_block[block_mask].tolist()
        self.warm_instr_blocks = trace.iblock[fetch_mask].tolist()

        # Activity counts that depend only on the trace.
        reads = (trace.src1 != 0).astype(np.int64) + (trace.src2 != 0)
        fp_mask = (op == OP_FP) | (op == OP_FP_DIV)
        self.base_counts = {
            "instructions": n,
            "int_ops": int((op == OP_INT).sum()),
            "int_mul_ops": int((op == OP_INT_MUL).sum()),
            "fp_ops": int((op == OP_FP).sum()),
            "fp_div_ops": int((op == OP_FP_DIV).sum()),
            "loads": int(is_load.sum()),
            "stores": int((op == OP_STORE).sum()),
            "branches": int(branch_mask.sum()),
            "fpr_reads": int(reads[fp_mask].sum()),
            "fpr_writes": int(fp_mask.sum()),
            "gpr_reads": int(reads[~fp_mask].sum()),
            "gpr_writes": int(
                np.isin(op, (OP_INT, OP_INT_MUL, OP_LOAD)).sum()
            ),
        }


def _trace_view(trace: Trace) -> _TraceView:
    return trace.derived(("batch", "view"), lambda: _TraceView(trace))


def _mispredict_stream(
    trace: Trace, view: _TraceView, name: str, entries: int, warm: bool
) -> np.ndarray:
    """Per-branch mispredict outcomes for one predictor geometry.

    The scalar pipeline updates the predictor for every branch in program
    order regardless of timing, so one replay of the branch stream fixes
    the outcome of every branch for every config sharing the predictor.
    ``warm`` replays the stream once beforehand (the warming pass resets
    only the stats, never the tables, so outcomes shift accordingly).
    """

    def build() -> np.ndarray:
        predictor = build_predictor(name, entries)
        predict_and_update = predictor.predict_and_update
        sites = view.branch_sites
        takens = view.branch_takens
        if warm:
            for site, taken in zip(sites, takens):
                predict_and_update(site, taken)
        return np.array(
            [not predict_and_update(s, t) for s, t in zip(sites, takens)],
            dtype=bool,
        )

    return trace.derived(("batch", "mispredict", name, entries, warm), build)


def _cascade_levels(
    reuse: np.ndarray, l1_capacity: np.ndarray, l2_capacity: np.ndarray
) -> np.ndarray:
    """``[event x config]`` int8 service levels for one reuse stream.

    Filled in place, from the outermost level in: level 2 everywhere,
    then 1 below the L2 capacity, then 0 below the L1 capacity — the
    scalar threshold cascade, whichever capacity is larger.
    """
    reuse = reuse[:, None]
    levels = np.full((reuse.shape[0], l1_capacity.size), 2, dtype=np.int8)
    np.copyto(levels, 1, where=reuse < l2_capacity)
    np.copyto(levels, 0, where=reuse < l1_capacity)
    return levels


def _stack_levels(
    view: _TraceView, configs: Sequence[MachineConfig]
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Service levels + hierarchy counters under the stack-distance model.

    Broadcasting the shared reuse-distance streams against each config's
    effective capacities replicates the scalar threshold cascade exactly:
    level 0 below the L1 capacity, 1 below the L2 share, else 2.  Levels
    come back ``[event x config]``, the layout the timing loop reads.
    """
    models = [StackDistanceMemory(config) for config in configs]

    def column(attr: str) -> np.ndarray:
        return np.array([getattr(m, attr) for m in models], dtype=np.float64)
    data_levels = _cascade_levels(
        view.mem_reuse, column("dl1_effective"), column("l2_data_effective")
    )
    instr_levels = _cascade_levels(
        view.instr_reuse, column("il1_effective"), column("l2_instr_effective")
    )
    batch = len(configs)
    dl1_misses = (data_levels > 0).sum(axis=0)
    il1_misses = (instr_levels > 0).sum(axis=0)
    data_mem = (data_levels == 2).sum(axis=0)
    instr_mem = (instr_levels == 2).sum(axis=0)
    counters = {
        "dl1_accesses": np.full(batch, data_levels.shape[0], dtype=np.int64),
        "dl1_misses": dl1_misses,
        "il1_accesses": np.full(batch, instr_levels.shape[0], dtype=np.int64),
        "il1_misses": il1_misses,
        "l2_accesses": dl1_misses + il1_misses,
        "l2_misses": data_mem + instr_mem,
        "memory_accesses": data_mem + instr_mem,
    }
    return data_levels, instr_levels, counters


def _functional_replay(
    view: _TraceView,
    geometry: tuple,
    warm: bool,
    cache: Optional[Dict[tuple, tuple]],
) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
    """Replay the interleaved access stream through one concrete hierarchy.

    The unified L2 couples the instruction and data streams, so the
    stateful hierarchy is replayed once per distinct cache geometry in the
    block (``cache`` shares replays across sub-blocks of one call).
    """
    if cache is not None and geometry in cache:
        return cache[geometry]
    il1_kb, il1_assoc, dl1_kb, dl1_assoc, l2_mb, l2_assoc = geometry
    hierarchy = build_hierarchy(
        il1_kb,
        dl1_kb,
        l2_mb,
        il1_assoc=il1_assoc,
        dl1_assoc=dl1_assoc,
        l2_assoc=l2_assoc,
    )
    if warm:
        data_access = hierarchy.data_access
        for block in view.warm_data_blocks:
            data_access(block)
        instruction_access = hierarchy.instruction_access
        for block in view.warm_instr_blocks:
            instruction_access(block)
        hierarchy.il1.stats.reset()
        hierarchy.dl1.stats.reset()
        hierarchy.l2.stats.reset()
        hierarchy.memory_accesses = 0
    data_codes: List[int] = []
    instr_codes: List[int] = []
    data_access = hierarchy.data_access
    instruction_access = hierarchy.instruction_access
    for is_data, block in zip(view.access_is_data, view.access_blocks):
        if is_data:
            data_codes.append(_LEVEL_CODES[data_access(block)])
        else:
            instr_codes.append(_LEVEL_CODES[instruction_access(block)])
    counts = FunctionalMemory(hierarchy).counts()
    result = (
        np.array(data_codes, dtype=np.int8),
        np.array(instr_codes, dtype=np.int8),
        counts,
    )
    if cache is not None:
        cache[geometry] = result
    return result


def _functional_levels(
    view: _TraceView,
    configs: Sequence[MachineConfig],
    warm: bool,
    cache: Optional[Dict[tuple, tuple]],
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """``[event x config]`` level streams + counters, functional model."""
    geometries = [
        (
            config.il1_kb,
            config.il1_assoc,
            config.dl1_kb,
            config.dl1_assoc,
            config.l2_mb,
            config.l2_assoc,
        )
        for config in configs
    ]
    replays = {
        geometry: _functional_replay(view, geometry, warm, cache)
        for geometry in dict.fromkeys(geometries)
    }
    data_levels = np.stack([replays[g][0] for g in geometries], axis=1)
    instr_levels = np.stack([replays[g][1] for g in geometries], axis=1)
    counters = {
        key: np.array([replays[g][2][key] for g in geometries], dtype=np.int64)
        for key in replays[geometries[0]][2]
    }
    return data_levels, instr_levels, counters


def _checked_capacities(capacities: np.ndarray) -> np.ndarray:
    """The scalar windows' capacity guard, applied to a whole block."""
    if int(capacities.min()) < 1:
        raise ResourceError(
            f"capacity must be >= 1, got {int(capacities.min())}"
        )
    return capacities


class _BatchWindow:
    """:class:`~repro.simulator.resources.OccupancyWindow` over a block.

    Every acquire is shared by the whole block (the instruction stream is
    common), so one ring of ``R = max(capacity)`` rows of release times
    serves all configs with a single python-int head ``k``: acquire ``k``
    stores its releases as one contiguous row ``k % R``.  Config ``b``
    reads the row written ``capacity[b]`` acquires earlier,
    ``ring[(k - capacity[b]) % R, b]`` — one ``take`` through a
    precomputed ``[R x B]`` flat-offset table.  The row is intact: it is
    next overwritten at acquire ``k - capacity[b] + R >= k``, and a row not
    written yet still holds the initial 0, as in the scalar ring.
    """

    __slots__ = ("_depth", "_rows", "_flat", "_reads", "_k")

    def __init__(self, capacities: np.ndarray):
        capacities = _checked_capacities(capacities)
        depth = self._depth = int(capacities.max())
        batch = capacities.size
        ring = np.zeros((depth, batch), dtype=np.int64)
        self._rows = list(ring)
        self._flat = ring.reshape(-1)
        offsets = (np.arange(depth)[:, None] - capacities) % depth
        offsets = offsets * batch + np.arange(batch)
        self._reads = list(offsets.astype(np.intp))
        self._k = 0

    def next_free(self) -> np.ndarray:
        return self._flat.take(self._reads[self._k])

    def acquire_row(self) -> np.ndarray:
        """Acquire the next slot; return the ring row its releases go in.

        Lets a caller compute the releases straight into the ring
        (``np.add(..., out=window.acquire_row())``) without a temporary.
        """
        k = self._k
        self._k = k + 1 if k + 1 < self._depth else 0
        return self._rows[k]

    def acquire(self, release_time: np.ndarray) -> None:
        self.acquire_row()[...] = release_time


class _MaskedWindow:
    """A block window whose acquires may skip configs (the MSHRs).

    Only the configs in ``mask`` consume a slot in :meth:`acquire_where`,
    so the heads diverge and each config keeps its own.
    """

    __slots__ = ("_capacity", "_releases", "_head", "_configs")

    def __init__(self, capacities: np.ndarray):
        self._capacity = _checked_capacities(capacities)
        self._releases = np.zeros(
            (capacities.size, int(capacities.max())), dtype=np.int64
        )
        self._head = np.zeros(capacities.size, dtype=np.int64)
        self._configs = np.arange(capacities.size)

    def next_free(self) -> np.ndarray:
        return self._releases[self._configs, self._head]

    def acquire_where(self, mask: np.ndarray, release_time: np.ndarray) -> None:
        configs = self._configs[mask]
        head = self._head[configs]
        self._releases[configs, head] = release_time[mask]
        head += 1
        np.remainder(head, self._capacity[configs], out=head)
        self._head[configs] = head


class _BatchLimiter:
    """:class:`~repro.simulator.resources.ThroughputLimiter` over a block."""

    __slots__ = ("_window",)

    def __init__(self, rates: np.ndarray):
        self._window = _BatchWindow(rates)

    def next_slot(self, earliest: np.ndarray) -> np.ndarray:
        window = self._window
        time = window.next_free()
        np.maximum(earliest, time, out=time)
        np.add(time, 1, out=window.acquire_row())
        return time


def _int32_column(
    configs: Sequence[MachineConfig], method: str, level: str
) -> np.ndarray:
    """Per-config ``config.<method>(level)`` as int32, refusing overflow."""
    values = np.array(
        [getattr(config, method)(level) for config in configs], dtype=np.int64
    )
    info = np.iinfo(np.int32)
    low, high = int(values.min()), int(values.max())
    if low < info.min or high > info.max:
        raise ValueError(
            f"{method}({level!r}) column does not fit int32 "
            f"(range {low}..{high})"
        )
    return values.astype(np.int32)


def _level_values(
    levels: np.ndarray, l1: np.ndarray, l2: np.ndarray, mem: np.ndarray
) -> np.ndarray:
    """``[event x config]`` int32 per-level values, filled in place."""
    out = np.empty(levels.shape, dtype=np.int32)
    out[...] = mem
    np.copyto(out, l2, where=levels == 1)
    np.copyto(out, l1, where=levels == 0)
    return out


def _memory_columns(
    view: _TraceView,
    configs: Sequence[MachineConfig],
    memory_mode: str,
    warm: bool,
    functional_cache: Optional[Dict[tuple, tuple]],
) -> tuple:
    """The memory side of one block, in the layout the timing loop reads.

    Returns ``(load_lat, load_miss, fetch_pen, prefetch_covered,
    counters)``: ``[load x config]`` int32 load-to-use latencies and
    bool memory misses, ``[fetch x config]`` int32 fetch penalties, and
    per-config prefetch and hierarchy counters.  The per-event service
    levels are dropped on return, so the timing loop holds only these
    columns.  The int32 columns are filled in place; they only ever add
    into int64 pipeline state, so the narrowing never changes a result.
    """
    if memory_mode == "stack":
        data_levels, instr_levels, counters = _stack_levels(view, configs)
    else:
        data_levels, instr_levels, counters = _functional_levels(
            view, configs, warm, functional_cache
        )
    lat_l1 = _int32_column(configs, "data_latency", "l1")
    lat_l2 = _int32_column(configs, "data_latency", "l2")
    lat_mem = _int32_column(configs, "data_latency", "mem")
    pen_l2 = _int32_column(configs, "fetch_penalty", "l2")
    pen_mem = _int32_column(configs, "fetch_penalty", "mem")

    # Next-line prefetch coverage applies by *latency value* (not level),
    # as the scalar does.
    load_levels = data_levels[view.mem_is_load]
    load_lat = _level_values(load_levels, lat_l1, lat_l2, lat_mem)
    load_miss = load_levels == 2
    prefetch = np.array([c.prefetch for c in configs], dtype=bool)
    prefetch_covered = np.zeros(len(configs), dtype=np.int64)
    if prefetch.any():
        covered = view.load_sequential[:, None] & prefetch
        covered &= load_lat != lat_l1
        np.copyto(load_lat, lat_l1, where=covered)
        load_miss &= ~covered
        prefetch_covered = covered.sum(axis=0)

    fetch_pen = _level_values(
        instr_levels, np.zeros(len(configs), dtype=np.int32), pen_l2, pen_mem
    )
    return load_lat, load_miss, fetch_pen, prefetch_covered, counters


def run_pipeline_batch(
    trace: Trace,
    configs: Sequence[MachineConfig],
    memory_mode: str = "stack",
    warm: bool = True,
    _functional_cache: Optional[Dict[tuple, tuple]] = None,
) -> List[PipelineOutcome]:
    """Schedule ``trace`` on every config at once; one outcome per config.

    Bit-identical to calling the scalar
    :func:`~repro.simulator.pipeline.run_pipeline` per config with the
    matching memory model and a warmed/unwarmed predictor — the hard
    equivalence contract of the batch kernel.  ``memory_mode`` and
    ``warm`` mirror the :class:`~repro.simulator.simulator.Simulator`
    settings; ``_functional_cache`` optionally shares functional-hierarchy
    replays across consecutive blocks of one caller.
    """
    configs = list(configs)
    if not configs:
        return []
    if memory_mode not in ("stack", "functional"):
        raise ValueError(
            f"unknown memory mode {memory_mode!r}; choices are "
            "('stack', 'functional')"
        )
    view = _trace_view(trace)
    batch = len(configs)

    # ---- per-block precompute (timing-independent) -----------------------
    load_lat, load_miss, fetch_pen, prefetch_covered, mem_counters = (
        _memory_columns(view, configs, memory_mode, warm, _functional_cache)
    )

    predictor_keys = [(c.predictor, c.predictor_entries) for c in configs]
    uniform_predictor = len(set(predictor_keys)) == 1
    if uniform_predictor:
        stream = _mispredict_stream(trace, view, *predictor_keys[0], warm)
        mispredict_rows = stream.tolist()
        mispredict_totals = np.full(batch, int(stream.sum()), dtype=np.int64)
    else:
        matrix = np.stack(
            [
                _mispredict_stream(trace, view, name, entries, warm)
                for name, entries in predictor_keys
            ],
            axis=1,
        )
        mispredict_rows = matrix
        mispredict_totals = matrix.sum(axis=0).astype(np.int64)

    # ---- per-config scalars and resource state ---------------------------
    def int_column(get) -> np.ndarray:
        return np.array([get(config) for config in configs], dtype=np.int64)
    frontend = int_column(lambda c: c.frontend_stages)
    lat_int = int_column(lambda c: c.op_latency(OP_INT))
    lat_mul = int_column(lambda c: c.op_latency(OP_INT_MUL))
    lat_fp = int_column(lambda c: c.op_latency(OP_FP))
    lat_div = int_column(lambda c: c.op_latency(OP_FP_DIV))
    lat_store = int_column(lambda c: c.op_latency(OP_STORE))
    lat_branch = int_column(lambda c: c.op_latency(OP_BRANCH))
    dl1_latency = int_column(lambda c: c.dl1_latency)
    in_order = np.array([c.in_order for c in configs], dtype=bool)
    any_in_order = bool(in_order.any())

    fetch_limiter = _BatchLimiter(int_column(lambda c: c.width))
    dispatch_limiter = _BatchLimiter(int_column(lambda c: c.dispatch_rate))
    retire_limiter = _BatchLimiter(int_column(lambda c: c.width))
    rob = _BatchWindow(int_column(lambda c: c.rob_size))
    gpr = _BatchWindow(int_column(lambda c: c.gpr_rename))
    fpr = _BatchWindow(int_column(lambda c: c.fpr_rename))
    fx_rs = _BatchWindow(int_column(lambda c: c.fx_resv))
    fp_rs = _BatchWindow(int_column(lambda c: c.fp_resv))
    br_rs = _BatchWindow(int_column(lambda c: c.br_resv))
    load_queue = _BatchWindow(int_column(lambda c: c.ls_queue))
    store_q = _BatchWindow(int_column(lambda c: c.store_queue))
    units = int_column(lambda c: c.functional_units)
    fxu = _BatchWindow(units)
    fpu = _BatchWindow(units.copy())
    lsu = _BatchWindow(units.copy())
    bru = _BatchWindow(units.copy())
    mshrs = _MaskedWindow(int_column(lambda c: c.mshr_count))

    ops = view.ops
    src1 = view.src1
    src2 = view.src2
    fetch_flags = view.fetch_flags
    n = view.n
    ring = view.max_dep + 1
    completion = np.zeros((ring, batch), dtype=np.int64)
    fetch_available = np.zeros(batch, dtype=np.int64)
    last_dispatch = np.zeros(batch, dtype=np.int64)
    last_issue = np.zeros(batch, dtype=np.int64)
    last_retire = np.zeros(batch, dtype=np.int64)
    maximum = np.maximum

    # Per-event rows as python-level iterators/lists: cheaper per
    # instruction than 2-D row indexing with a running counter.
    load_rows = zip(load_lat, load_miss, load_miss.any(axis=1).tolist())
    fetch_rows = iter(fetch_pen)
    mispredict_rows = iter(mispredict_rows)
    completion_rows = list(completion)

    # ---- the timing loop: one pass, O(B) vector work per instruction -----
    for i in range(n):
        op = ops[i]

        # fetch
        if fetch_flags[i]:
            fetch_available = fetch_available + next(fetch_rows)
        fetch_time = fetch_limiter.next_slot(fetch_available)

        # dispatch
        disp = fetch_time + frontend
        maximum(disp, last_dispatch, out=disp)
        maximum(disp, rob.next_free(), out=disp)
        any_miss = False
        if op == OP_INT:
            rs_window, fu, reg, latency = fx_rs, fxu, gpr, lat_int
        elif op == OP_LOAD:
            rs_window, fu, reg = load_queue, lsu, gpr
            latency, miss, any_miss = next(load_rows)
        elif op == OP_BRANCH:
            rs_window, fu, reg, latency = br_rs, bru, None, lat_branch
        elif op == OP_STORE:
            rs_window, fu, reg, latency = load_queue, lsu, None, lat_store
            maximum(disp, store_q.next_free(), out=disp)
        elif op == OP_FP:
            rs_window, fu, reg, latency = fp_rs, fpu, fpr, lat_fp
        elif op == OP_INT_MUL:
            rs_window, fu, reg, latency = fx_rs, fxu, gpr, lat_mul
        else:  # OP_FP_DIV
            rs_window, fu, reg, latency = fp_rs, fpu, fpr, lat_div
        maximum(disp, rs_window.next_free(), out=disp)
        if reg is not None:
            maximum(disp, reg.next_free(), out=disp)
        disp = dispatch_limiter.next_slot(disp)
        last_dispatch = disp

        # issue
        ready = disp + 1
        distance = src1[i]
        if distance:
            maximum(ready, completion_rows[(i - distance) % ring], out=ready)
        distance = src2[i]
        if distance:
            maximum(ready, completion_rows[(i - distance) % ring], out=ready)
        if any_in_order:
            maximum(ready, last_issue, out=ready, where=in_order)
        issue = fu.next_free()
        maximum(issue, ready, out=issue)
        if any_miss:
            maximum(issue, mshrs.next_free(), out=issue, where=miss)
        # Written straight into the completion ring; the row is next
        # reused ``ring`` instructions later, long after its last read.
        comp = completion_rows[i % ring]
        np.add(issue, latency, out=comp)
        if any_miss:
            mshrs.acquire_where(miss, comp)
        if op == OP_FP_DIV or op == OP_INT_MUL:
            fu.acquire(comp)
        else:
            np.add(issue, 1, out=fu.acquire_row())
        last_issue = issue

        if op == OP_BRANCH:
            mispredicted = next(mispredict_rows)
            if uniform_predictor:
                if mispredicted:
                    maximum(fetch_available, comp + 1, out=fetch_available)
            elif mispredicted.any():
                maximum(
                    fetch_available, comp + 1, out=fetch_available,
                    where=mispredicted,
                )

        # retire
        retire = comp + 1
        maximum(retire, last_retire, out=retire)
        retire = retire_limiter.next_slot(retire)
        last_retire = retire

        # release resources
        rob.acquire(retire)
        if reg is not None:
            reg.acquire(retire)
        if op == OP_LOAD:
            rs_window.acquire(comp)
        elif op == OP_STORE:
            rs_window.acquire(comp)
            np.add(retire, dl1_latency, out=store_q.acquire_row())
        else:
            np.add(issue, 1, out=rs_window.acquire_row())

    # ---- assemble per-config outcomes ------------------------------------
    base = view.base_counts
    outcomes: List[PipelineOutcome] = []
    for b in range(batch):
        cycles = int(last_retire[b])
        counts = ActivityCounts(
            instructions=base["instructions"],
            cycles=cycles,
            int_ops=base["int_ops"],
            int_mul_ops=base["int_mul_ops"],
            fp_ops=base["fp_ops"],
            fp_div_ops=base["fp_div_ops"],
            loads=base["loads"],
            stores=base["stores"],
            branches=base["branches"],
            mispredicts=int(mispredict_totals[b]),
            gpr_reads=base["gpr_reads"],
            gpr_writes=base["gpr_writes"],
            fpr_reads=base["fpr_reads"],
            fpr_writes=base["fpr_writes"],
            prefetch_covered=int(prefetch_covered[b]),
            il1_accesses=int(mem_counters["il1_accesses"][b]),
            il1_misses=int(mem_counters["il1_misses"][b]),
            dl1_accesses=int(mem_counters["dl1_accesses"][b]),
            dl1_misses=int(mem_counters["dl1_misses"][b]),
            l2_accesses=int(mem_counters["l2_accesses"][b]),
            l2_misses=int(mem_counters["l2_misses"][b]),
            memory_accesses=int(mem_counters["memory_accesses"][b]),
        )
        outcomes.append(PipelineOutcome(cycles=cycles, counts=counts))
    return outcomes
