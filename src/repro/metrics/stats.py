"""Statistics helpers used by reports and comparisons.

Small, dependency-light functions: summary statistics and Jain's fairness
index (used to quantify FELARE's cross-task-type fairness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "jain_fairness",
]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "max": self.maximum,
        }


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics of a non-empty sample (ddof=1 std; 0 when n=1)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SummaryStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²) ∈ (0, 1]; 1 = perfectly fair.

    All-zero inputs count as perfectly fair (nothing to be unfair about).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("fairness of an empty sample is undefined")
    if np.any(arr < 0):
        raise ValueError("Jain's index requires non-negative values")
    denom = arr.size * float((arr**2).sum())
    if denom == 0:
        return 1.0
    return float(arr.sum()) ** 2 / denom
