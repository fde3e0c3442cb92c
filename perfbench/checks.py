"""Output checks, run outside the timed section.

Each check returns a list of human-readable mismatches; an empty list
means the output is correct.  :func:`digest` hashes structured results
exactly (floats by their hex form), so two runs of one seed agree
bit for bit or not at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List

import numpy as np

from repro.designspace import DesignSpace
from repro.harness import Campaign
from repro.simulator import Simulator
from repro.workloads import get_profile

#: Result fields that hold host time, not model output (X6 fit times).
HOST_TIME_KEYS = frozenset({"regression_fit_s", "ann_fit_s"})


def _feed(hasher, value) -> None:
    if isinstance(value, dict):
        hasher.update(b"{")
        for key, item in value.items():
            if key in HOST_TIME_KEYS:
                continue
            _feed(hasher, key)
            _feed(hasher, item)
        hasher.update(b"}")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        hasher.update(type(value).__name__.encode())
        _feed(hasher, {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        })
    elif isinstance(value, (list, tuple)):
        hasher.update(b"[")
        for item in value:
            _feed(hasher, item)
        hasher.update(b"]")
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            _feed(hasher, value.tolist())
        else:
            hasher.update(f"{value.dtype.str}{value.shape}".encode())
            hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        hasher.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        hasher.update(f"i{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(f"f{float(value).hex()};".encode())
    elif isinstance(value, str):
        hasher.update(f"s{len(value)}:{value}".encode())
    elif value is None:
        hasher.update(b"N")
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """Exact sha256 of a structure of dicts, sequences, arrays, numbers."""
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()


def campaign_data(campaign: Campaign, benchmark: str) -> dict:
    """One benchmark's campaign observations, for digests and comparisons."""
    return {
        split: {
            name: campaign.dataset(benchmark, split).metrics[name]
            for name in ("bips", "watts")
        }
        for split in ("train", "validation")
    }


def model_coefficients(models: Dict[str, dict], benchmark: str) -> dict:
    return {
        metric: models[benchmark][metric].coefficients
        for metric in ("bips", "watts")
    }


def oracle_mismatches(
    campaign: Campaign, benchmark: str, per_split: int, seed: int
) -> List[str]:
    """Re-simulate a seeded sample of one benchmark's campaign designs with
    the scalar ``simulate_point`` oracle; require bitwise-equal bips and
    watts."""
    rng = np.random.default_rng(seed)
    simulator = Simulator()
    scale = campaign.scale
    trace = simulator.trace_for(
        get_profile(benchmark), scale.trace_length, seed=scale.seed
    )
    problems = []
    for split in ("train", "validation"):
        dataset = campaign.dataset(benchmark, split)
        count = min(per_split, len(dataset))
        for row in rng.choice(len(dataset), count, replace=False):
            result = simulator.simulate_point(
                campaign.space, dataset.points[row], trace
            )
            got = (dataset.metrics["bips"][row], dataset.metrics["watts"][row])
            if (result.bips, result.watts) != got:
                problems.append(
                    f"{benchmark}/{split}[{row}]: campaign {got} != "
                    f"oracle {(result.bips, result.watts)}"
                )
    return problems


def refit_mismatches(
    models: Dict[str, dict], refit: Dict[str, dict], benchmark: str
) -> List[str]:
    """Models refitted from the same campaign must match bitwise."""
    if digest(model_coefficients(refit, benchmark)) != digest(
        model_coefficients(models, benchmark)
    ):
        return [f"{benchmark}: refitted coefficients differ"]
    return []


def same_campaign(actual: Campaign, expected: Campaign, benchmark: str) -> List[str]:
    """Bitwise comparison of one benchmark's observations in two campaigns."""
    if digest(campaign_data(actual, benchmark)) != digest(
        campaign_data(expected, benchmark)
    ):
        return [f"{benchmark}: campaign data differs from the one built"]
    return []


def space_indices(space: DesignSpace, count: int, seed: int) -> np.ndarray:
    """A seeded uniform-at-random sample of distinct space indices."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(len(space), count, replace=False))


def equal_arrays(label: str, actual, expected) -> List[str]:
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape == expected.shape and np.array_equal(actual, expected):
        return []
    return [f"{label}: {actual.shape} values differ from {expected.shape}"]
