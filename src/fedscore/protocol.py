"""The reporting surface between clients and the scoring server.

A client influences scoring through exactly two numbers each round: the
utility of the start model plus its own update, and the utility of the
aggregate minus its own update.  This module models a client lying about
them (equivalently, shipping a doctored update), quantifies how much each
client's honest reports feed everyone else's EE mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import GameError
from .scoring import (
    RoundUtilities,
    ScoringError,
    _ee_masses,
    _efficient_rescale,
    _fp_masses,
)

_STRATEGY_KINDS = ("honest", "additive_bias", "scale", "deflate_to")


class ProtocolError(ValueError):
    """Invalid report set or misreport description."""


@dataclass(frozen=True)
class MisreportStrategy:
    """How one client distorts its two reportable values.

    kinds:
        honest         -- no change (value ignored);
        additive_bias  -- adds ``value`` to both;
        scale          -- multiplies both by ``value``;
        deflate_to     -- replaces both with ``value``.
    """

    kind: str
    target: int
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _STRATEGY_KINDS:
            raise ProtocolError(
                f"unknown misreport kind {self.kind!r}, expected one of "
                f"{_STRATEGY_KINDS}"
            )
        if self.target < 0:
            raise ProtocolError(f"negative client index {self.target}")
        if not np.isfinite(self.value):
            raise ProtocolError(f"non-finite strategy value {self.value!r}")

    def apply(self, v_with: float, v_without: float) -> tuple[float, float]:
        if self.kind == "honest":
            return v_with, v_without
        if self.kind == "additive_bias":
            return v_with + self.value, v_without + self.value
        if self.kind == "scale":
            return v_with * self.value, v_without * self.value
        return self.value, self.value

    def describe(self) -> str:
        if self.kind == "honest":
            return "honest"
        return f"{self.kind}({self.value!r})"


def _check_target(strategy: MisreportStrategy, n_clients: int) -> None:
    if strategy.target >= n_clients:
        raise ProtocolError(
            f"strategy targets client {strategy.target}, but there are only "
            f"{n_clients} clients"
        )


def collect_reports(
    utilities: RoundUtilities, strategies: Sequence[MisreportStrategy] = ()
) -> RoundUtilities:
    """Assemble the utilities the server actually sees.

    Starts from honest reports and lets each strategy rewrite its target
    client's pair.  At most one strategy per client.
    """
    seen = set()
    for s in strategies:
        _check_target(s, utilities.n_clients)
        if s.target in seen:
            raise ProtocolError(f"two strategies target client {s.target}")
        seen.add(s.target)
    out = utilities
    for s in strategies:
        v_w, v_wo = s.apply(
            float(utilities.v_with[s.target]), float(utilities.v_without[s.target])
        )
        out = out.replace_client(s.target, v_w, v_wo)
    return out


def influence(utilities: RoundUtilities, client: int) -> float:
    """Total mass client ``client``'s two reports feed into each other
    client's EE numerator, before the 1/(2(N-1)^2) scaling:
    (v_grand - v_with[i]) + (v_without[i] - v_empty)."""
    if not 0 <= client < utilities.n_clients:
        raise ProtocolError(f"client {client} out of range")
    return float(
        (utilities.v_grand - utilities.v_with[client])
        + (utilities.v_without[client] - utilities.v_empty)
    )


@dataclass(frozen=True)
class InfluenceMatrix:
    """Who feeds whose EE mass.

    entries[i, j] is the contribution of client i's reports to client j's
    EE numerator m(j); the diagonal is exactly zero because no client's
    reports enter its own numerator.  ``normalized`` rescales every column
    to sum to 1; columns that sum to zero are left zero, columns with a
    negative sum are divided by the sum of absolute entries, and both
    cases are listed in ``flagged_columns``.
    """

    entries: np.ndarray
    normalized: np.ndarray
    flagged_columns: tuple[int, ...]

    def __post_init__(self):
        for name in ("entries", "normalized"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "flagged_columns", tuple(self.flagged_columns))

    @property
    def n_clients(self) -> int:
        return int(self.entries.shape[0])


def influence_matrix(utilities: RoundUtilities) -> InfluenceMatrix:
    """Per-pair influence: entry (i, j) = influence(i) / (2(N-1)^2) off the
    diagonal, zero on it.  Each column j then sums to m(j)."""
    n = utilities.n_clients
    if n < 2:
        raise ProtocolError("influence needs at least two clients")
    scale = 2.0 * (n - 1) ** 2
    per_client = np.array([influence(utilities, i) for i in range(n)]) / scale
    entries = np.tile(per_client[:, None], (1, n))
    np.fill_diagonal(entries, 0.0)

    normalized = np.zeros_like(entries)
    flagged = []
    for j in range(n):
        total = float(np.sum(entries[:, j]))
        if total > 0.0:
            normalized[:, j] = entries[:, j] / total
        elif total == 0.0:
            flagged.append(j)
        else:
            abs_total = float(np.sum(np.abs(entries[:, j])))
            normalized[:, j] = entries[:, j] / abs_total
            flagged.append(j)
    return InfluenceMatrix(entries, normalized, tuple(flagged))


@dataclass(frozen=True)
class SweepRow:
    """Effect of one misreport on one scorer."""

    scorer: str
    attacker: int
    strategy: str
    own_delta: float
    max_other_delta: float
    numerator_delta: float


def _loo_stack(v_grand, v_empty, v_with, v_without):
    mass = v_grand - v_without
    return mass, mass


def _rescaled_stack(candidates, first):
    def scorer(v_grand, v_empty, v_with, v_without):
        masses = candidates(v_grand, v_empty, v_with, v_without)
        return _efficient_rescale(masses, v_grand)[0], masses[first]
    return scorer


# Each sweep scorer maps an (S, N) stack of report rows to its (S, N)
# scores and the unnormalised mass behind them, with the same rules (and
# bits) as loo, fp and ee applied to one row at a time.
_SWEEP_SCORERS = {
    "LOO": _loo_stack,
    "FP": _rescaled_stack(_fp_masses, "alpha"),
    "EE": _rescaled_stack(_ee_masses, "m"),
}


def manipulation_sweep(
    utilities: RoundUtilities,
    strategies: Sequence[MisreportStrategy],
    scorers: Sequence[str] = tuple(_SWEEP_SCORERS),
) -> list[SweepRow]:
    """Apply each misreport in isolation and record, per scorer, how much
    the attacker's own score moved, the largest move of anyone else's
    score, and the change in the attacker's unnormalised mass.

    Row 0 of one report stack holds the honest reports and row k+1 those
    the server sees under strategy k alone; each scorer scores the whole
    stack in one pass, bit for bit as if row by row.  When strategies
    fail, the first failing one in input order decides what is raised.
    """
    for scorer in scorers:
        if scorer not in _SWEEP_SCORERS:
            raise ProtocolError(
                f"sweep scorer must be one of {tuple(_SWEEP_SCORERS)}, "
                f"got {scorer!r}"
            )
    strategies = list(strategies)
    v_with = [utilities.v_with]
    v_without = [utilities.v_without]
    stop = None
    for strategy in strategies:
        try:
            _check_target(strategy, utilities.n_clients)
            i = strategy.target
            pair = strategy.apply(float(v_with[0][i]), float(v_without[0][i]))
            if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                raise ScoringError("utilities contain non-finite values")
        except (ProtocolError, ScoringError) as exc:
            stop = exc  # raised once every earlier strategy is scored
            break
        v_with.append(v_with[0].copy())
        v_without.append(v_without[0].copy())
        v_with[-1][i], v_without[-1][i] = pair
    stack = (utilities.v_grand, utilities.v_empty, np.array(v_with), np.array(v_without))
    strategies = strategies[: len(v_with) - 1]
    lied = np.arange(len(strategies))
    targets = np.array([s.target for s in strategies], dtype=np.intp)
    scored = []
    for scorer in scorers:
        try:
            scores, mass = _SWEEP_SCORERS[scorer](*stack)
        except ScoringError as exc:  # EE with one client fails every row
            scored.append(exc)
            continue
        moved = np.abs(scores[1:] - scores[0])
        moved[lied, targets] = 0.0
        scored.append((
            np.all(np.isfinite(scores), axis=1).tolist(),
            (scores[lied + 1, targets] - scores[0, targets]).tolist(),
            moved.max(axis=1).tolist(),
            (mass[lied + 1, targets] - mass[0, targets]).tolist(),
        ))
    rows = []
    for k, strategy in enumerate(strategies):
        described = strategy.describe()
        for scorer, result in zip(scorers, scored):
            if isinstance(result, Exception):
                raise result
            finite, own, other, numer = result
            if not (finite[0] and finite[k + 1]):
                raise GameError("scores contain non-finite values")
            rows.append(SweepRow(scorer, strategy.target, described, own[k], other[k], numer[k]))
    if stop is not None:
        raise stop
    return rows

