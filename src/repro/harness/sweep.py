"""Blockwise exhaustive-sweep engine (the paper's Section 1 promise).

The whole argument of Lee & Brooks is that regression predictions are
cheap enough to characterize the *entire* 262,500-point exploration space
exhaustively.  This module delivers that sweep without ever materializing
the space: design points are visited in fixed-size blocks, each block is
encoded into predictor columns with vectorized mixed-radix decoding (or
level-table lookups for explicit point lists), the fitted bips/watts
models evaluate their design matrices in one batched numpy call per
block, and *streaming reducers* fold every block into a compact running
state — the pareto frontier by delay bin, the efficiency argmax/top-k,
per-depth efficiency distributions — so peak memory stays proportional
to the block size, not ``|S|``.

Blocks are embarrassingly parallel; ``workers > 1`` fans chunks of
blocks out through :mod:`repro.harness.resilience` mirroring
``run_campaign``'s worker model — with chunk retries, optional
journaling for checkpoint/resume, and serial degradation when the pool
breaks.  Reduction stays in-process and consumes chunks in sweep order,
so reducers are partition independent: results are identical for any
block size or worker count, and identical to reducing a monolithic
whole-space prediction table.

The frontier construction (``pareto_indices`` / ``discretized_frontier``)
lives here — below the studies layer — so both the streaming engine and
the Study-1 code share one implementation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..designspace import DesignPoint, DesignSpace
from ..designspace.parameters import ParameterError
from ..metrics import bips3_per_watt, delay_seconds
from ..obs.metrics import get_registry, merge_snapshots
from ..obs.tracing import Stopwatch, get_tracer
from ..regression import FittedModel
from .resilience import (
    ChunkTask,
    CorruptResultError,
    Journal,
    ResilienceConfig,
    RunReport,
    fingerprint_payload,
    run_chunks,
)

#: Default number of design points predicted per block.
DEFAULT_BLOCK_SIZE = 8192

#: Target chunk count on the resilient path.  A constant — not a function
#: of ``workers`` — so a sweep journal resumes at any worker count.
SWEEP_CHUNKS = 8


class SweepError(ValueError):
    """Raised for malformed sweep configurations."""


# -- frontier mathematics ------------------------------------------------------


def pareto_indices(delay: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Indices of non-dominated points (minimize delay and power).

    Sort by delay then sweep with a running power minimum: a design is on
    the frontier iff no faster-or-equal design needs less-or-equal power.
    """
    delay = np.asarray(delay, dtype=float)
    power = np.asarray(power, dtype=float)
    if delay.shape != power.shape:
        raise ValueError("delay and power must align")
    order = np.lexsort((power, delay))  # by delay, ties by power
    kept = []
    best_power = np.inf
    last_delay = None
    for index in order:
        if power[index] < best_power:
            # Strictly better power than anything at least as fast.
            if last_delay is not None and delay[index] == last_delay:
                pass  # same delay, higher power was filtered by lexsort
            kept.append(index)
            best_power = power[index]
            last_delay = delay[index]
    return np.array(sorted(kept), dtype=int)


def _binned_power_minima(
    delay: np.ndarray, power: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Index of the power-minimizing point within each delay bin.

    Bins are half-open except the last (closed), matching the paper's
    delay discretization; empty bins are skipped.  Ties resolve to the
    lowest index, as ``argmin`` does.
    """
    bins = edges.size - 1
    chosen = []
    for b in range(bins):
        low, high = edges[b], edges[b + 1]
        if b == bins - 1:
            mask = (delay >= low) & (delay <= high)
        else:
            mask = (delay >= low) & (delay < high)
        candidates = np.flatnonzero(mask)
        if candidates.size:
            chosen.append(candidates[power[candidates].argmin()])
    return np.array(chosen, dtype=int)


def discretized_frontier(
    delay: np.ndarray, power: np.ndarray, bins: int = 50
) -> np.ndarray:
    """The paper's construction: min-power design per delay bin, pruned.

    The delay range is discretized into ``bins`` targets; within each bin
    the power-minimizing design is selected, and dominated selections are
    pruned afterwards.
    """
    delay = np.asarray(delay, dtype=float)
    power = np.asarray(power, dtype=float)
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    edges = np.linspace(delay.min(), delay.max(), bins + 1)
    chosen = _binned_power_minima(delay, power, edges)
    keep = pareto_indices(delay[chosen], power[chosen])
    return chosen[keep]


def strict_pareto_mask(delay: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Boolean mask of points not *strictly* dominated in both axes.

    A point is dropped only when some other point has strictly smaller
    delay *and* strictly smaller power.  Weakly dominated points (ties in
    either axis) are retained, which is exactly the invariant the
    streaming frontier reducer needs: every design that
    :func:`discretized_frontier` can emit for the full set survives this
    filter (see :class:`ParetoFrontierReducer`).
    """
    delay = np.asarray(delay, dtype=float)
    power = np.asarray(power, dtype=float)
    if delay.shape != power.shape:
        raise ValueError("delay and power must align")
    n = delay.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(delay, kind="stable")
    sorted_delay = delay[order]
    sorted_power = power[order]
    prefix_min = np.minimum.accumulate(sorted_power)
    # For each point, the best power among *strictly* smaller delays:
    # the prefix minimum just before its delay-group starts.
    first_of_group = np.searchsorted(sorted_delay, sorted_delay, side="left")
    best_before = np.where(
        first_of_group > 0,
        prefix_min[np.maximum(first_of_group - 1, 0)],
        np.inf,
    )
    keep_sorted = sorted_power <= best_before
    mask = np.zeros(n, dtype=bool)
    mask[order[keep_sorted]] = True
    return mask


# -- point sources -------------------------------------------------------------


class SweepSource:
    """An ordered, block-addressable set of design points.

    Subclasses expose encoded predictor columns and raw parameter columns
    per block plus point materialization by sweep position, so reducers
    can resolve the (few) designs they keep without the engine ever
    holding the full point list.
    """

    space: DesignSpace

    def __len__(self) -> int:
        raise NotImplementedError

    def feature_block(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        """Encoded predictor columns for sweep positions [start, stop)."""
        raise NotImplementedError

    def column_block(self, name: str, start: int, stop: int) -> np.ndarray:
        """Raw (un-encoded) values of one parameter over [start, stop)."""
        raise NotImplementedError

    def level_block(self, start: int, stop: int) -> Optional[np.ndarray]:
        """Per-parameter grid level indices over [start, stop), or None.

        A parameter-major ``(P, n)`` integer matrix (one contiguous row of
        levels per parameter) enables the predictor's level-table gather
        fast path; sources that cannot provide it return None and blocks
        fall back to :meth:`feature_block` evaluation.
        """
        return None

    def point_at(self, position: int) -> DesignPoint:
        """The design point at one sweep position."""
        raise NotImplementedError

    def slice(self, start: int, stop: int) -> "SweepSource":
        """A standalone source covering positions [start, stop)."""
        raise NotImplementedError


def _encoded_level_tables(space: DesignSpace) -> List[np.ndarray]:
    """Per-parameter lookup table: level index -> encoded coordinate.

    Built with :meth:`Parameter.encode` so lookups are bitwise identical
    to :class:`~repro.designspace.DesignEncoder`.
    """
    return [
        np.array([parameter.encode(value) for value in parameter.values])
        for parameter in space.parameters
    ]


def _raw_level_tables(space: DesignSpace) -> List[np.ndarray]:
    return [
        np.array(parameter.values, dtype=float)
        for parameter in space.parameters
    ]


class SpaceSweepSource(SweepSource):
    """Sweep a :class:`DesignSpace` (or an index subset) by mixed radix.

    Blocks decode integer indices directly into per-parameter level
    arrays — no :class:`DesignPoint` objects are created — which makes
    full-space enumeration at paper scale (262,500 designs) both fast and
    memory-flat.
    """

    def __init__(self, space: DesignSpace, indices: Optional[np.ndarray] = None):
        self.space = space
        if indices is None:
            self._indices = None
            self._length = len(space)
        else:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.ndim != 1:
                raise SweepError("indices must be one-dimensional")
            if indices.size and (
                indices.min() < 0 or indices.max() >= len(space)
            ):
                raise SweepError(
                    f"indices out of range for |S|={len(space)}"
                )
            self._indices = indices
            self._length = int(indices.size)
        self._radices = np.array(space.radices, dtype=np.int64)
        self._cardinalities = np.array(
            [p.cardinality for p in space.parameters], dtype=np.int64
        )
        self._encoded = _encoded_level_tables(space)
        self._raw = _raw_level_tables(space)

    def __len__(self) -> int:
        return self._length

    def _index_block(self, start: int, stop: int) -> np.ndarray:
        if self._indices is None:
            return np.arange(start, stop, dtype=np.int64)
        return self._indices[start:stop]

    def _level_block(self, j: int, start: int, stop: int) -> np.ndarray:
        indices = self._index_block(start, stop)
        return (indices // self._radices[j]) % self._cardinalities[j]

    def feature_block(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        return {
            name: self._encoded[j][self._level_block(j, start, stop)]
            for j, name in enumerate(self.space.names)
        }

    def column_block(self, name: str, start: int, stop: int) -> np.ndarray:
        j = self.space.names.index(name)
        return self._raw[j][self._level_block(j, start, stop)]

    def level_block(self, start: int, stop: int) -> np.ndarray:
        indices = self._index_block(start, stop)
        return (indices // self._radices[:, None]) % self._cardinalities[
            :, None
        ]

    def point_at(self, position: int) -> DesignPoint:
        if self._indices is None:
            return self.space.point_at(int(position))
        return self.space.point_at(int(self._indices[position]))

    def slice(self, start: int, stop: int) -> "SpaceSweepSource":
        return SpaceSweepSource(self.space, self._index_block(start, stop))


class PointSweepSource(SweepSource):
    """Sweep an explicit point list (e.g. a UAR exploration subsample).

    The raw and encoded matrices are built once, lazily, with per-column
    level-table lookups — the encoded coordinates are bitwise identical
    to per-point :class:`~repro.designspace.DesignEncoder` output, but
    the build is vectorized over the whole list.  Points must lie on the
    space's grid (as :class:`DesignEncoder` also requires).
    """

    def __init__(self, space: DesignSpace, points: Sequence[DesignPoint]):
        self.space = space
        self.points = list(points)
        if self.points and tuple(self.points[0].names) != space.names:
            raise ParameterError(
                f"point parameters {self.points[0].names} do not match "
                f"space {space.names}"
            )
        self._raw_matrix: Optional[np.ndarray] = None
        self._encoded_matrix: Optional[np.ndarray] = None
        self._level_matrix: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.points)

    def _raw(self) -> np.ndarray:
        if self._raw_matrix is None:
            if not self.points:
                width = len(self.space.names)
                self._raw_matrix = np.empty((0, width))
            else:
                self._raw_matrix = np.array(
                    [point.values for point in self.points], dtype=float
                )
        return self._raw_matrix

    def _encoded(self) -> np.ndarray:
        if self._encoded_matrix is None:
            raw = self._raw()
            columns = []
            level_columns = []
            encoded_tables = _encoded_level_tables(self.space)
            raw_tables = _raw_level_tables(self.space)
            for j, parameter in enumerate(self.space.parameters):
                levels = raw_tables[j]
                positions = np.searchsorted(levels, raw[:, j])
                positions = np.minimum(positions, levels.size - 1)
                if raw.shape[0] and not np.array_equal(
                    levels[positions], raw[:, j]
                ):
                    bad = raw[:, j][levels[positions] != raw[:, j]][0]
                    raise ParameterError(
                        f"{bad!r} is not a level of parameter "
                        f"{parameter.name!r}; levels are {parameter.values}"
                    )
                columns.append(encoded_tables[j][positions])
                level_columns.append(positions.astype(np.int64))
            self._encoded_matrix = (
                np.column_stack(columns)
                if columns
                else np.empty((len(self.points), 0))
            )
            # Parameter-major, so each block's level rows are contiguous.
            self._level_matrix = (
                np.stack(level_columns)
                if level_columns
                else np.empty((0, len(self.points)), dtype=np.int64)
            )
        return self._encoded_matrix

    def _levels(self) -> np.ndarray:
        if self._level_matrix is None:
            self._encoded()
        return self._level_matrix

    def feature_block(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        encoded = self._encoded()
        return {
            name: encoded[start:stop, j]
            for j, name in enumerate(self.space.names)
        }

    def column_block(self, name: str, start: int, stop: int) -> np.ndarray:
        j = self.space.names.index(name)
        return self._raw()[start:stop, j]

    def level_block(self, start: int, stop: int) -> np.ndarray:
        return self._levels()[:, start:stop]

    def point_at(self, position: int) -> DesignPoint:
        return self.points[position]

    def slice(self, start: int, stop: int) -> "PointSweepSource":
        return PointSweepSource(self.space, self.points[start:stop])


# -- prediction ---------------------------------------------------------------


class _LevelGather:
    """Both models' design columns as gathers from grid level indices.

    Every predictor takes a handful of grid levels, so each bound term's
    design columns — which depend only on the term's one or two
    predictors — are precomputed on the encoded level values (or the
    level cross product) once per model, and stored as one contiguous
    1-D table per design column.  A block's level matrix then indexes
    them: a one-predictor column by that parameter's level row, a
    two-predictor column by the pair row ``la * nb + lb``, computed once
    per block and shared by the bips and watts models.

    Each block assembles into reused scratch: one ``take`` per design
    column into a parameter-major ``(width, n)`` buffer (contiguous
    rows), one ``copyto`` into a C-contiguous ``(n, width)`` buffer, then
    the same ``X @ coefficients`` as :meth:`FittedModel.predict`.
    Results are bitwise identical to row-wise evaluation: every design
    column holds the values the spline bases give for that row's
    encoded levels, and ``X`` has the shape and memory layout a
    monolithic ``design_matrix`` of the block would have, so the same
    BLAS call runs on the same numbers.  Scratch is sized to the largest
    block seen and shared by both models through flat buffers.
    """

    def __init__(self, models: Sequence[FittedModel], space: DesignSpace):
        self.models = tuple(models)
        names = list(space.names)
        encoded = _encoded_level_tables(space)
        #: ``(ja, jb, nb)`` per pair row; row ``P + i`` of a block's
        #: index rows holds pair ``i``'s cross-product level index.
        self.pairs: List[Tuple[int, int, int]] = []
        #: Per model, ``(index row, 1-D table)`` per non-intercept column.
        self.gathers: List[List[Tuple[int, np.ndarray]]] = []
        self._capacity = 0
        self._columns_t = np.empty(0)
        self._design = np.empty(0)
        self.supported = True
        for model in self.models:
            gathers = self._model_gathers(model, names, encoded)
            if gathers is None:
                self.supported = False
                return
            self.gathers.append(gathers)

    def _model_gathers(
        self,
        model: FittedModel,
        names: List[str],
        encoded: List[np.ndarray],
    ) -> Optional[List[Tuple[int, np.ndarray]]]:
        """One model's column gathers, or None if a term is unsupported."""
        gathers: List[Tuple[int, np.ndarray]] = []
        for term in model.bound_terms:
            try:
                predictors = term.predictors
            except NotImplementedError:
                return None
            if not predictors or any(p not in names for p in predictors):
                return None
            if len(predictors) == 1:
                row = names.index(predictors[0])
                table = term.design_columns({predictors[0]: encoded[row]})
            elif len(predictors) == 2:
                ja = names.index(predictors[0])
                jb = names.index(predictors[1])
                va, vb = encoded[ja], encoded[jb]
                table = term.design_columns(
                    {
                        predictors[0]: np.repeat(va, vb.size),
                        predictors[1]: np.tile(vb, va.size),
                    }
                )
                key = (ja, jb, vb.size)
                if key not in self.pairs:
                    self.pairs.append(key)
                row = len(names) + self.pairs.index(key)
            else:
                return None
            gathers.extend(
                (row, np.ascontiguousarray(table[:, c]))
                for c in range(table.shape[1])
            )
        return gathers

    def _scratch(self, n: int) -> None:
        """Grow the shared flat scratch to hold an ``n``-row block."""
        if n > self._capacity:
            width = 1 + max(len(gathers) for gathers in self.gathers)
            self._columns_t = np.empty(n * width)
            self._design = np.empty(n * width)
            self._capacity = n

    def predict(self, levels: np.ndarray) -> List[np.ndarray]:
        """Each model's predictions for a ``(P, n)`` block of levels."""
        n = levels.shape[1]
        self._scratch(n)
        rows = list(levels)
        rows.extend(levels[ja] * nb + levels[jb] for ja, jb, nb in self.pairs)
        predictions = []
        for model, gathers in zip(self.models, self.gathers):
            width = 1 + len(gathers)
            columns_t = self._columns_t[: width * n].reshape(width, n)
            columns_t[0] = 1.0
            for column, (row, table) in enumerate(gathers, start=1):
                np.take(table, rows[row], out=columns_t[column])
            design = self._design[: n * width].reshape(n, width)
            np.copyto(design, columns_t.T)
            predictions.append(
                model.spec.transform.inverse(design @ model.coefficients)
            )
        return predictions


@dataclass
class BlockPredictor:
    """One benchmark's fitted bips/watts models, evaluated blockwise."""

    benchmark: str
    bips_model: FittedModel
    watts_model: FittedModel
    ref_instructions: float

    def predict(
        self, features: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bips, watts) for one block of encoded predictor columns."""
        return (
            self.bips_model.predict(features),
            self.watts_model.predict(features),
        )

    def _level_gather(self, space: DesignSpace) -> Optional[_LevelGather]:
        """Per-space gather tables, built lazily (e.g. once per worker)."""
        cached = self.__dict__.get("_gather")
        if cached is None or cached[0] is not space:
            gather = _LevelGather((self.bips_model, self.watts_model), space)
            cached = (space, gather if gather.supported else None)
            self.__dict__["_gather"] = cached
        return cached[1]

    def predict_levels(
        self, levels: np.ndarray, space: DesignSpace
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(bips, watts) for a ``(P, n)`` block of level indices, or None.

        Returns None when some term cannot be gathered from level tables
        (the engine then falls back to encoded-feature evaluation).
        """
        gather = self._level_gather(space)
        if gather is None:
            return None
        bips, watts = gather.predict(levels)
        return bips, watts

    def __getstate__(self) -> dict:
        # The gather tables and their block scratch are per-process
        # working state, rebuilt on first use: pool and resilient chunk
        # payloads ship only the models.
        state = dict(self.__dict__)
        state.pop("_gather", None)
        return state


@dataclass
class SweepBlock:
    """Predictions for one contiguous chunk of sweep positions."""

    benchmark: str
    indices: np.ndarray      #: sweep positions (global, ascending)
    bips: np.ndarray
    watts: np.ndarray
    delay: np.ndarray
    efficiency: np.ndarray
    raw: Dict[str, np.ndarray] = field(default_factory=dict)

    def metric(self, name: str) -> np.ndarray:
        """One of the four predicted metric columns by name."""
        try:
            return {
                "bips": self.bips,
                "watts": self.watts,
                "delay": self.delay,
                "efficiency": self.efficiency,
            }[name]
        except KeyError:
            raise SweepError(
                f"unknown sweep metric {name!r}; choices are "
                "bips/watts/delay/efficiency"
            ) from None

    def __len__(self) -> int:
        return int(self.indices.size)


# -- streaming reducers --------------------------------------------------------


class SweepReducer:
    """Folds prediction blocks into a compact running state.

    Reducers must be *partition independent*: feeding the same points in
    any block decomposition (including one monolithic block) yields the
    same finalized result.  ``columns`` names the raw parameter columns
    the reducer needs on each block; ``cache_key`` (when not None) lets
    :class:`~repro.studies.common.StudyContext` memoize finalized results
    per benchmark and point set.
    """

    columns: Tuple[str, ...] = ()

    @property
    def cache_key(self) -> Optional[tuple]:
        return None

    def update(self, block: SweepBlock) -> None:
        raise NotImplementedError

    def finalize(self, source: SweepSource):
        """Finish the reduction, materializing any retained designs."""
        raise NotImplementedError


@dataclass
class FrontierResult:
    """Finalized pareto frontier: sweep indices plus their coordinates."""

    indices: np.ndarray
    points: List[DesignPoint]
    delay: np.ndarray
    power: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


class ParetoFrontierReducer(SweepReducer):
    """Streaming pareto-frontier-by-delay-bin (Section 4.2's construction).

    Per block only the strictly-non-dominated (delay, power) candidates
    are retained — for smooth power/delay surfaces that is a vanishing
    fraction of the block — together with the running global delay range.
    Finalization re-runs the paper's min-power-per-delay-bin selection
    and pareto prune over the candidate set with bin edges spanning the
    *global* delay range, which provably reproduces
    ``discretized_frontier`` over the full sweep: any full-set per-bin
    power minimum that the final prune would keep is never strictly
    dominated (a strict dominator selects an even better design into an
    earlier bin, which would prune it), so it survives candidate
    filtering; and ties break identically because candidates stay in
    sweep order.
    """

    def __init__(self, bins: int = 50):
        if bins < 1:
            raise SweepError(f"bins must be positive, got {bins}")
        self.bins = bins
        self._indices: List[np.ndarray] = []
        self._delay: List[np.ndarray] = []
        self._power: List[np.ndarray] = []
        self._delay_min = np.inf
        self._delay_max = -np.inf

    @property
    def cache_key(self) -> tuple:
        return ("pareto", self.bins)

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        delay, power = block.delay, block.watts
        self._delay_min = min(self._delay_min, float(delay.min()))
        self._delay_max = max(self._delay_max, float(delay.max()))
        keep = strict_pareto_mask(delay, power)
        self._indices.append(block.indices[keep])
        self._delay.append(delay[keep])
        self._power.append(power[keep])

    def finalize(self, source: SweepSource) -> FrontierResult:
        if not self._indices:
            empty = np.array([], dtype=float)
            return FrontierResult(
                indices=np.array([], dtype=int),
                points=[],
                delay=empty,
                power=empty,
            )
        indices = np.concatenate(self._indices)
        delay = np.concatenate(self._delay)
        power = np.concatenate(self._power)
        edges = np.linspace(self._delay_min, self._delay_max, self.bins + 1)
        chosen = _binned_power_minima(delay, power, edges)
        keep = pareto_indices(delay[chosen], power[chosen])
        final = chosen[keep]
        return FrontierResult(
            indices=indices[final],
            points=[source.point_at(int(i)) for i in indices[final]],
            delay=delay[final],
            power=power[final],
        )


@dataclass
class TopKResult:
    """Finalized argmax/top-k: the best designs with all four metrics."""

    metric: str
    indices: np.ndarray
    points: List[DesignPoint]
    values: np.ndarray
    bips: np.ndarray
    watts: np.ndarray
    delay: np.ndarray
    efficiency: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


class TopKReducer(SweepReducer):
    """Streaming per-benchmark argmax / top-k of one predicted metric.

    ``k=1`` reproduces ``table.<metric>.argmax()`` over a monolithic
    prediction table exactly, including first-occurrence tie-breaking
    (candidates are ordered by value descending, then sweep index
    ascending).

    Each update merges only the block entries at or above a *floor*: the
    running k-th best value once k candidates are held, else the block's
    own k-th largest value.  An entry below the floor has at least k
    entries strictly better than it, so it can never be selected; entries
    equal to the floor are kept, so ties still resolve by sweep index.
    Blocks containing NaN (and a NaN floor) merge in full, as without
    the floor.
    """

    _FIELDS = ("values", "bips", "watts", "delay", "efficiency")

    def __init__(self, metric: str = "efficiency", k: int = 1):
        if k < 1:
            raise SweepError(f"k must be positive, got {k}")
        self.metric = metric
        self.k = k
        self._indices = np.array([], dtype=np.int64)
        self._state = {name: np.array([], dtype=float) for name in self._FIELDS}

    @property
    def cache_key(self) -> tuple:
        return ("topk", self.metric, self.k)

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        values = block.metric(self.metric)
        columns = {
            "values": values,
            "bips": block.bips,
            "watts": block.watts,
            "delay": block.delay,
            "efficiency": block.efficiency,
        }
        indices = block.indices
        keep = self._above_floor(values)
        if keep is not None:
            columns = {name: column[keep] for name, column in columns.items()}
            indices = indices[keep]
        merged = {
            name: np.concatenate([self._state[name], columns[name]])
            for name in self._FIELDS
        }
        indices = np.concatenate([self._indices, indices])
        # Highest value first; ties resolve to the lowest sweep index,
        # matching argmax over a whole-space table.
        order = np.lexsort((indices, -merged["values"]))[: self.k]
        self._indices = indices[order]
        self._state = {name: merged[name][order] for name in self._FIELDS}

    def _above_floor(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Mask of block entries that can still enter the top k, or None.

        None means merge the whole block: it has at most k entries and k
        are not held yet, or the floor is undefined because of NaN.
        """
        if self._indices.size == self.k:
            floor = self._state["values"][-1]
        elif values.size > self.k:
            cut = values.size - self.k
            floor = np.partition(values, cut)[cut]
        else:
            return None
        if np.isnan(floor) or np.isnan(values).any():
            return None
        return values >= floor

    def finalize(self, source: SweepSource) -> TopKResult:
        return TopKResult(
            metric=self.metric,
            indices=self._indices.copy(),
            points=[source.point_at(int(i)) for i in self._indices],
            values=self._state["values"].copy(),
            bips=self._state["bips"].copy(),
            watts=self._state["watts"].copy(),
            delay=self._state["delay"].copy(),
            efficiency=self._state["efficiency"].copy(),
        )


@dataclass
class GroupedResult:
    """Finalized per-level reduction of one metric along one parameter."""

    parameter: str
    metric: str
    values: Dict[float, np.ndarray]       #: per level, in sweep order
    argmax_indices: Dict[float, int]      #: sweep position of each level's best
    argmax_points: Dict[float, DesignPoint]
    argmax_values: Dict[float, float]

    def levels(self) -> List[float]:
        return list(self.values)


class GroupedMetricReducer(SweepReducer):
    """Streaming per-depth (or any parameter) metric distributions.

    Keeps, per parameter level, the metric values in sweep order — the
    exact inputs the depth study's boxplot statistics and exceedance
    fractions need — plus the running per-level argmax.  Value arrays
    are floats only, so even the paper-scale stratified sweep stays
    small; no design points or design matrices are retained.
    """

    def __init__(self, parameter: str = "depth", metric: str = "efficiency"):
        self.parameter = parameter
        self.metric = metric
        self.columns = (parameter,)
        self._values: Dict[float, List[np.ndarray]] = {}
        self._best_value: Dict[float, float] = {}
        self._best_index: Dict[float, int] = {}

    @property
    def cache_key(self) -> tuple:
        return ("grouped", self.parameter, self.metric)

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        levels = block.raw[self.parameter]
        values = block.metric(self.metric)
        for level in np.unique(levels):
            level = float(level)
            mask = levels == level
            chunk = values[mask]
            self._values.setdefault(level, []).append(chunk)
            local_best = int(chunk.argmax())
            best = float(chunk[local_best])
            # Strictly-greater keeps the first occurrence across blocks,
            # matching argmax over the concatenated whole.
            if level not in self._best_value or best > self._best_value[level]:
                self._best_value[level] = best
                self._best_index[level] = int(
                    block.indices[np.flatnonzero(mask)[local_best]]
                )

    def finalize(self, source: SweepSource) -> GroupedResult:
        levels = sorted(self._values)
        return GroupedResult(
            parameter=self.parameter,
            metric=self.metric,
            values={
                level: np.concatenate(self._values[level]) for level in levels
            },
            argmax_indices={
                level: self._best_index[level] for level in levels
            },
            argmax_points={
                level: source.point_at(self._best_index[level])
                for level in levels
            },
            argmax_values={
                level: self._best_value[level] for level in levels
            },
        )


@dataclass
class CollectedColumns:
    """Finalized full-length metric vectors and raw parameter columns."""

    metrics: Dict[str, np.ndarray]
    columns: Dict[str, np.ndarray]

    def metric(self, name: str) -> np.ndarray:
        return self.metrics[name]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class CollectReducer(SweepReducer):
    """Accumulates whole-sweep metric vectors (and raw columns).

    The escape hatch for analyses that genuinely need every prediction
    (Figure 2's characterization scatter, the suite-average percentile
    cut of Figure 5b): floats only — a paper-scale sweep costs a few MB
    — while points and design matrices still never accumulate.
    """

    def __init__(
        self,
        metrics: Sequence[str] = ("bips", "watts"),
        columns: Sequence[str] = (),
    ):
        self.metric_names = tuple(metrics)
        self.columns = tuple(columns)
        self._metrics: Dict[str, List[np.ndarray]] = {
            name: [] for name in self.metric_names
        }
        self._columns: Dict[str, List[np.ndarray]] = {
            name: [] for name in self.columns
        }

    @property
    def cache_key(self) -> tuple:
        return ("collect", self.metric_names, self.columns)

    def update(self, block: SweepBlock) -> None:
        for name in self.metric_names:
            self._metrics[name].append(block.metric(name))
        for name in self.columns:
            self._columns[name].append(block.raw[name])

    def finalize(self, source: SweepSource) -> CollectedColumns:
        def _concat(chunks: List[np.ndarray]) -> np.ndarray:
            if not chunks:
                return np.array([], dtype=float)
            return np.concatenate(chunks)

        return CollectedColumns(
            metrics={
                name: _concat(chunks)
                for name, chunks in self._metrics.items()
            },
            columns={
                name: _concat(chunks)
                for name, chunks in self._columns.items()
            },
        )


# -- the engine ----------------------------------------------------------------


@dataclass
class SweepReport:
    """Outcome of one sweep: reducer results plus throughput accounting."""

    benchmark: str
    n_points: int
    block_size: int
    workers: int
    elapsed_seconds: float
    results: List[object]
    #: Execution accounting when the sweep went through the resilient
    #: executor (retries, resumes, degradation); None on the serial path.
    run_report: Optional[RunReport] = None
    #: Merged :mod:`repro.obs` metrics for this sweep: the driver's own
    #: contribution (reduction, serial prediction) plus every worker
    #: chunk's snapshot shipped back through the resilient executor.
    metrics: Optional[dict] = None

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_points / self.elapsed_seconds


def _block_ranges(total: int, block_size: int) -> List[Tuple[int, int]]:
    return [
        (start, min(start + block_size, total))
        for start in range(0, total, block_size)
    ]


def _evaluate_range(
    predictor: BlockPredictor,
    source: SweepSource,
    start: int,
    stop: int,
    columns: Tuple[str, ...],
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Predict one contiguous range; returns (bips, watts, raw columns).

    Prefers the level-index gather fast path; sources (or models) that
    cannot provide it fall back to encoded-feature evaluation, which is
    bitwise identical for the same block decomposition.
    """
    pair = None
    levels = source.level_block(start, stop)
    if levels is not None:
        pair = predictor.predict_levels(levels, source.space)
    if pair is None:
        features = source.feature_block(start, stop)
        pair = predictor.predict(features)
    bips, watts = pair
    raw = {name: source.column_block(name, start, stop) for name in columns}
    return bips, watts, raw


def _sweep_chunk(
    predictor: BlockPredictor,
    chunk: SweepSource,
    offset: int,
    block_size: int,
    columns: Tuple[str, ...],
) -> List[Tuple[int, np.ndarray, np.ndarray, Dict[str, np.ndarray]]]:
    """Worker: evaluate one sliced chunk block-by-block.

    Runs in a separate process; the chunk source carries only its own
    points/indices, so fan-out ships O(chunk) data per task.  Returns
    ``(global_start, bips, watts, raw)`` per block.
    """
    registry = get_registry()
    payloads = []
    for start, stop in _block_ranges(len(chunk), block_size):
        with Stopwatch() as watch:
            bips, watts, raw = _evaluate_range(
                predictor, chunk, start, stop, columns
            )
        payloads.append((offset + start, bips, watts, raw))
        registry.increment("sweep.points", stop - start)
        registry.increment("sweep.blocks")
        registry.observe("sweep.predict_block.seconds", watch.wall_s)
    return payloads


def _encode_sweep_payload(payload) -> list:
    """Chunk payload → JSON for the journal (dtypes preserved)."""
    return [
        [
            start,
            bips.tolist(),
            watts.tolist(),
            {
                name: {"dtype": str(col.dtype), "values": col.tolist()}
                for name, col in raw.items()
            },
        ]
        for start, bips, watts, raw in payload
    ]


def _decode_sweep_payload(encoded) -> list:
    """Journaled JSON → chunk payload (bitwise: JSON floats round-trip)."""
    return [
        (
            int(start),
            np.asarray(bips, dtype=float),
            np.asarray(watts, dtype=float),
            {
                name: np.asarray(col["values"], dtype=np.dtype(col["dtype"]))
                for name, col in raw.items()
            },
        )
        for start, bips, watts, raw in encoded
    ]


def _validate_sweep_payload(task: ChunkTask, payload) -> None:
    """Reject chunk payloads that do not cover exactly ``task.size`` points."""
    if not isinstance(payload, list):
        raise CorruptResultError(
            f"chunk {task.index} returned {type(payload).__name__}, "
            "expected a list of blocks"
        )
    covered = sum(len(bips) for _, bips, _, _ in payload)
    if covered != task.size:
        raise CorruptResultError(
            f"chunk {task.index} covered {covered} points, "
            f"expected {task.size}"
        )


def _sweep_fingerprint(
    predictor: BlockPredictor,
    total: int,
    block_size: int,
    chunk_size: int,
    columns: Tuple[str, ...],
) -> str:
    """Digest binding a sweep journal to one layout *and* one model fit."""
    coeffs = hashlib.sha256(
        predictor.bips_model.coefficients.tobytes()
        + predictor.watts_model.coefficients.tobytes()
    ).hexdigest()[:16]
    return fingerprint_payload(
        {
            "kind": "sweep",
            "benchmark": predictor.benchmark,
            "n_points": total,
            "block_size": block_size,
            "chunk_size": chunk_size,
            "columns": list(columns),
            "ref_instructions": float(predictor.ref_instructions),
            "coefficients": coeffs,
        }
    )


def _make_block(
    predictor: BlockPredictor,
    start: int,
    bips: np.ndarray,
    watts: np.ndarray,
    raw: Dict[str, np.ndarray],
) -> SweepBlock:
    return SweepBlock(
        benchmark=predictor.benchmark,
        indices=np.arange(start, start + bips.size, dtype=np.int64),
        bips=bips,
        watts=watts,
        delay=delay_seconds(bips, predictor.ref_instructions),
        efficiency=bips3_per_watt(bips, watts),
        raw=raw,
    )


def _run_sweep_resilient(
    predictor: BlockPredictor,
    source: SweepSource,
    reducers: Sequence[SweepReducer],
    block_size: int,
    workers: int,
    progress,
    columns: Tuple[str, ...],
    resilience: ResilienceConfig,
) -> RunReport:
    """Chunked fan-out with retries/journal; in-order streaming reduction."""
    total = len(source)
    # Chunk boundaries must land on block boundaries: block decomposition
    # then matches the serial path exactly, which keeps predictions (and
    # hence reducer results) bitwise identical — BLAS kernels can round
    # differently for different matrix row counts.
    chunk_size = -(-total // SWEEP_CHUNKS)  # ceil division
    chunk_size = max(
        block_size, -(-chunk_size // block_size) * block_size
    )
    tasks = [
        ChunkTask(
            index=i,
            fn=_sweep_chunk,
            args=(predictor, source.slice(start, stop), start, block_size,
                  columns),
            size=stop - start,
            meta=(start, stop),
        )
        for i, (start, stop) in enumerate(_block_ranges(total, chunk_size))
    ]

    fingerprint = _sweep_fingerprint(
        predictor, total, block_size, chunk_size, columns
    )
    journal = None
    if resilience.journal_path is not None:
        if not resilience.resume and resilience.journal_path.exists():
            resilience.journal_path.unlink()
        journal = Journal.open(
            resilience.journal_path, fingerprint, strict=resilience.resume
        )

    # Reducers are streaming and order-sensitive (running argmaxes break
    # ties by first occurrence), so chunks completing out of order park
    # in a buffer until their predecessors arrive.
    state = {"next": 0, "done": 0}
    parked: Dict[int, list] = {}

    def consume(payload) -> None:
        registry = get_registry()
        for start, bips, watts, raw in payload:
            block = _make_block(predictor, start, bips, watts, raw)
            with get_tracer().span(
                "sweep.reduce_block", start=start, size=len(block)
            ) as reduce_span:
                for reducer in reducers:
                    reducer.update(block)
            registry.observe(
                "sweep.reduce_block.seconds", reduce_span.wall_s
            )
            state["done"] += len(block)
        if progress is not None:
            progress(predictor.benchmark, state["done"], total)

    def on_chunk(task, record, payload) -> None:
        parked[task.index] = payload
        while state["next"] in parked:
            consume(parked.pop(state["next"]))
            state["next"] += 1

    _, report = run_chunks(
        tasks,
        workers=workers,
        policy=resilience.policy,
        journal=journal,
        faults=resilience.faults,
        validate=_validate_sweep_payload,
        on_chunk=on_chunk,
        encode=_encode_sweep_payload,
        decode=_decode_sweep_payload,
        keep_results=False,
        backend=resilience.backend,
        distributed=resilience.distributed,
        fingerprint=fingerprint,
    )
    if journal is not None:
        journal.discard()
    return report


def run_sweep(
    predictor: BlockPredictor,
    source: SweepSource,
    reducers: Sequence[SweepReducer],
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    progress=None,
    resilience: Optional[ResilienceConfig] = None,
) -> SweepReport:
    """Sweep ``source`` through ``predictor``, folding into ``reducers``.

    Blocks are evaluated in sweep order and every reducer sees every
    block exactly once; with ``workers > 1`` chunks of blocks evaluate
    in parallel processes while reduction stays in-process and ordered,
    so results are identical to a serial run.  ``progress`` (if given)
    is called as ``progress(benchmark, done_points, total_points)`` after
    each consumed block or chunk.

    ``resilience`` (or any multi-worker run, which uses the default
    policy) routes the fan-out through
    :func:`repro.harness.resilience.run_chunks`: transient chunk failures
    retry with backoff, a journal path enables checkpoint/resume, and the
    report carries a ``run_report``.
    """
    if block_size < 1:
        raise SweepError(f"block_size must be positive, got {block_size}")
    if workers < 1:
        raise SweepError(f"workers must be positive, got {workers}")
    columns: Tuple[str, ...] = tuple(
        dict.fromkeys(name for r in reducers for name in r.columns)
    )
    total = len(source)
    tracer = get_tracer()
    registry = get_registry()
    mark = registry.snapshot()
    run_report = None

    with tracer.span(
        "sweep.run",
        benchmark=predictor.benchmark,
        n_points=total,
        block_size=block_size,
        workers=workers,
    ) as root:
        if resilience is not None or (workers > 1 and total > block_size):
            run_report = _run_sweep_resilient(
                predictor,
                source,
                reducers,
                block_size,
                workers,
                progress,
                columns,
                resilience or ResilienceConfig(),
            )
        else:
            done = 0
            for start, stop in _block_ranges(total, block_size):
                with tracer.span(
                    "sweep.predict_block", start=start, size=stop - start
                ) as predict_span:
                    bips, watts, raw = _evaluate_range(
                        predictor, source, start, stop, columns
                    )
                    block = _make_block(predictor, start, bips, watts, raw)
                with tracer.span(
                    "sweep.reduce_block", start=start, size=len(block)
                ) as reduce_span:
                    for reducer in reducers:
                        reducer.update(block)
                registry.increment("sweep.points", len(block))
                registry.increment("sweep.blocks")
                registry.observe(
                    "sweep.predict_block.seconds", predict_span.wall_s
                )
                registry.observe(
                    "sweep.reduce_block.seconds", reduce_span.wall_s
                )
                done += len(block)
                if progress is not None:
                    progress(predictor.benchmark, done, total)

    return SweepReport(
        benchmark=predictor.benchmark,
        n_points=total,
        block_size=block_size,
        workers=workers,
        elapsed_seconds=root.wall_s,
        results=[reducer.finalize(source) for reducer in reducers],
        run_report=run_report,
        metrics=merge_snapshots(
            registry.delta(mark),
            run_report.metrics if run_report is not None else None,
        ),
    )


def predict_source(
    predictor: BlockPredictor,
    source: SweepSource,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Full (bips, watts) vectors for a source, computed blockwise."""
    report = run_sweep(
        predictor,
        source,
        [CollectReducer(metrics=("bips", "watts"))],
        block_size=block_size,
        workers=workers,
    )
    collected = report.results[0]
    return collected.metric("bips"), collected.metric("watts")
