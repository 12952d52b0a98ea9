"""Score comparison: normalisation, distances, rank correlations.

Scores produced by different methods live on different scales, so every
comparison first applies the same two-step normalisation: shift the
minimum to zero, then divide by the mean of the shifted vector.  A
constant vector has nothing left after the shift and normalises to all
zeros, flagged as degenerate; correlations against a constant vector are
reported as 0 with the same flag rather than NaN.

Spearman's average ranks are computed in numpy; they are exact halves,
so they match ``scipy.stats.rankdata(method="average")`` bit for bit
without making scipy a runtime dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import ScoreVector


class MetricError(ValueError):
    """Invalid metric input."""


@dataclass(frozen=True)
class NormalizedScores:
    """A normalised score vector plus a degeneracy flag."""

    scores: np.ndarray
    degenerate: bool

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)


@dataclass(frozen=True)
class RankCorrelation:
    """Spearman, Kendall tau-b, and Pearson between two score vectors.

    ``degenerate`` marks that at least one input was constant, in which
    case all three coefficients are reported as 0.
    """

    spearman: float
    kendall: float
    pearson: float
    degenerate: bool = False


def _as_array(scores) -> np.ndarray:
    if isinstance(scores, ScoreVector):
        arr = np.asarray(scores.scores, dtype=np.float64)
    else:
        arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise MetricError(f"expected a nonempty score vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MetricError("scores contain non-finite values")
    return arr


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    x, y = _as_array(a), _as_array(b)
    if x.size != y.size:
        raise MetricError(f"score vectors disagree in length: {x.size} vs {y.size}")
    if x.size < 2:
        raise MetricError("need at least two clients to correlate scores")
    return x, y


def normalize_scores(scores) -> NormalizedScores:
    """Shift the minimum to zero, then divide by the mean of the result.

    A constant vector (zero mean after the shift) comes back as all zeros
    with ``degenerate=True``.
    """
    arr = _as_array(scores)
    shifted = arr - arr.min()
    mean = float(shifted.mean())
    if mean == 0.0:
        return NormalizedScores(np.zeros_like(shifted), degenerate=True)
    return NormalizedScores(shifted / mean, degenerate=False)


def l2_distance(a, b) -> float:
    """Euclidean distance between the two vectors after normalisation."""
    x, y = _paired(a, b)
    return float(np.linalg.norm(normalize_scores(x).scores - normalize_scores(y).scores))


def pearson(a, b) -> float:
    """Pearson correlation; 0 if either side is constant."""
    return rank_correlation(a, b).pearson


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks for ties; 0 if either
    side is constant."""
    return rank_correlation(a, b).spearman


def kendall(a, b) -> float:
    """Kendall tau-b; 0 if either side is constant."""
    return rank_correlation(a, b).kendall


def _pearson_raw(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt(np.sum(xc**2) * np.sum(yc**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * yc) / denom)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group given the mean of its positions."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # sorted positions where a tie group starts, plus the end
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def rank_correlation(a, b) -> RankCorrelation:
    """All three correlation coefficients in one pass.

    Kendall is the tau-b variant: concordant minus discordant pairs over
    the geometric mean of the pair counts not tied in each vector.  The
    pair counts are kept as exact integers so small cases match a naive
    recount bit for bit.
    """
    x, y = _paired(a, b)
    n = x.size
    degenerate = bool(np.all(x == x[0]) or np.all(y == y[0]))
    if degenerate:
        return RankCorrelation(0.0, 0.0, 0.0, degenerate=True)

    iu, ju = np.triu_indices(n, k=1)
    sx = np.sign(x[ju] - x[iu]).astype(np.int64)
    sy = np.sign(y[ju] - y[iu]).astype(np.int64)
    concordant_minus_discordant = int(np.sum(sx * sy))
    n0 = n * (n - 1) // 2
    ties_x = n0 - int(np.sum(np.abs(sx)))
    ties_y = n0 - int(np.sum(np.abs(sy)))
    denom = float(np.sqrt(float(n0 - ties_x) * float(n0 - ties_y)))
    tau = concordant_minus_discordant / denom

    rho = _pearson_raw(_average_ranks(x), _average_ranks(y))

    return RankCorrelation(
        spearman=rho,
        kendall=float(tau),
        pearson=_pearson_raw(x, y),
        degenerate=False,
    )


def detection_rate(score_runs: Sequence, attacker: int) -> float:
    """Fraction of runs whose lowest-scored client is the attacker.

    Ties break toward the lowest client index, which is also how a real
    exclusion rule would break them.
    """
    runs = [_as_array(r) for r in score_runs]
    if not runs:
        raise MetricError("no runs to evaluate")
    n = runs[0].size
    for r in runs:
        if r.size != n:
            raise MetricError("runs disagree in client count")
    if not 0 <= attacker < n:
        raise MetricError(f"attacker index {attacker} out of range for {n} clients")
    hits = sum(1 for r in runs if int(np.argmin(r)) == attacker)
    return hits / len(runs)
