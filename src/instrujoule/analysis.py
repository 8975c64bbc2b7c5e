"""Verification statistics for comparing measurement methods.

MAPE and RMSE between a prediction series and a reference series, plus a
per-item comparison suitable for bar-chart style reporting of each
instruction's relative error against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, ZeroReference


def _paired(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.ndim != 1 or t.ndim != 1:
        raise LengthMismatch("inputs must be 1-d series")
    if p.size != t.size:
        raise LengthMismatch(f"length {p.size} vs {t.size}")
    if p.size == 0:
        raise LengthMismatch("series must be non-empty")
    return p, t


def mape(pred, truth) -> float:
    """Mean absolute percentage error, in percent: (100/n) * sum |p-t| / |t|."""
    p, t = _paired(pred, truth)
    if bool(np.any(t == 0)):
        raise ZeroReference("percentage error undefined for zero reference values")
    return float(100.0 / p.size * np.sum(np.abs(p - t) / np.abs(t)))


def rmse(pred, truth) -> float:
    """Root mean square error, in the units of the inputs."""
    p, t = _paired(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


@dataclass(frozen=True)
class ComparisonStats:
    mape: float  # percent
    rmse: float  # input units
    n: int


@dataclass(frozen=True)
class ComparisonItem:
    label: str
    predicted: float
    reference: float
    relative_error: float  # percent, signed


@dataclass(frozen=True)
class StrategyComparison:
    stats: ComparisonStats
    items: tuple[ComparisonItem, ...]


def compare_strategies(results: list[tuple[str, float, float]]) -> StrategyComparison:
    """Aggregate MAPE/RMSE plus per-item relative errors.

    ``results`` holds (label, predicted_energy, reference_energy) triples,
    e.g. one per instruction with a software strategy as prediction and the
    sensing rig as reference.
    """
    if not results:
        raise LengthMismatch("no comparison pairs")
    labels = [r[0] for r in results]
    pred = [r[1] for r in results]
    ref = [r[2] for r in results]
    stats = ComparisonStats(mape=mape(pred, ref), rmse=rmse(pred, ref), n=len(results))
    items = tuple(
        ComparisonItem(label, p, r, relative_error=100.0 * (p - r) / r)
        for label, p, r in zip(labels, pred, ref)
    )
    return StrategyComparison(stats, items)
