"""Coalition games over a fixed client set and exact reference scores.

A game assigns a real utility to every subset of clients.  Coalitions are
bitmasks over client indices 0..N-1, so a full game is a table of 2^N
values indexed by mask.  Everything downstream (contribution scores, the
federated simulator's retraining games, the per-round aggregate games)
speaks to a game only through :class:`CoalitionOracle`, by one batch
request for a list of masks: the 2N+2 probe set is one request, and a
full tabulation the request for all 2^N masks.  The oracle counts and
logs every evaluation.  That audit trail is what lets tests pin down the
exact evaluation budget of each scoring method.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# Exact enumeration walks all 2^N subsets; past this the table alone is
# over a million entries and "exact" stops being a desk-scale idea.
MAX_ENUM_CLIENTS = 20

# The Shapley references over trained models, MR-SV and true SV, evaluate
# or retrain 2^N coalition models per game.  At N=12 one true-SV game on
# the retrain benchmark's data took 16 to 19 s and about 100 MB (2 vCPU).
SHAPLEY_MAX_CLIENTS = 12

# Recognised score provenance labels, one per method.
METHOD_LABELS = ("SV", "MR-SV", "LOO", "IOI", "FP", "EE", "COS")


class GameError(ValueError):
    """Invalid game description or misuse of a coalition oracle."""


def coalition_members(mask: int) -> tuple[int, ...]:
    """The clients in the coalition with bitmask ``mask`` (bit i set means
    client i is a member), ascending; a negative mask is refused."""
    if mask < 0:
        raise GameError(f"coalition mask must be nonnegative, got {mask}")
    return tuple(i for i in range(int(mask).bit_length()) if mask >> i & 1)


class CoalitionOracle:
    """Wraps a game's batch utility function and audits every evaluation.

    ``call_count`` goes up by exactly one per evaluated coalition and the
    mask of every evaluated coalition lands in the audit log, so a test can
    assert both how many utility evaluations a method consumed and which
    coalitions it was allowed to see.  Not to be shared between threads;
    :func:`shapley_exact_all` tabulates forked copies on worker processes,
    and once a worker's 2^N audit has passed the parent records masks
    0..2^N-1 on the original.

    Args:
        n_clients: size of the player set; coalitions must stay within it.
        utilities: the game, called with a sequence of masks; it yields
            utility arrays whose concatenation is each mask's utility, in
            request order.  Round games evaluate stacked coalition models,
            retraining games train every coalition in lockstep.
        evaluator: optional model evaluator that the game counts its
            evaluations on (anything with ``call_count`` and
            ``add_calls``); :func:`shapley_exact_all` adds a worker's
            count to it.
    """

    def __init__(
        self,
        n_clients: int,
        utilities: Callable[[Sequence[int]], Iterable[np.ndarray]],
        evaluator=None,
    ):
        if n_clients < 1:
            raise GameError(f"need at least one client, got {n_clients}")
        self.n_clients = int(n_clients)
        self._utilities = utilities
        self.evaluator = evaluator
        self._audit: list[int] = []

    def _record(self, masks: Sequence[int]) -> None:
        self._audit.extend(masks)

    def utilities(self, masks: Sequence[int]) -> np.ndarray:
        """The utility of each mask in ``masks``, in request order, each
        evaluated and audited as its utility arrives; a repeated mask is
        evaluated and counted again.  Raises GameError before evaluating
        anything when a mask lies outside the game (a ``range`` is checked
        at its ends), at the first non-finite utility, and when the game
        yields more utilities than were asked for.  A short answer is
        returned short."""
        n = self.n_clients
        checked = (masks[0], masks[-1]) if isinstance(masks, range) and masks else masks
        for mask in checked:
            if not 0 <= mask < 1 << n:
                raise GameError(f"coalition {coalition_members(mask)} has members "
                                f"outside 0..{n - 1}")
        values = np.empty(len(masks))
        done = 0
        for chunk in self._utilities(masks):
            chunk = np.asarray(chunk, dtype=np.float64)
            if done + len(chunk) > len(values):
                raise GameError(f"a game of {n} clients yielded more than "
                                f"{len(values)} utilities for {len(values)} masks")
            self._record(masks[done : done + len(chunk)])
            finite = np.isfinite(chunk)
            if not finite.all():
                k = int(np.argmin(finite))
                _finite_utility(masks[done + k], chunk[k])
            values[done : done + len(chunk)] = chunk
            done += len(chunk)
        return values[:done]

    def tabulate(self) -> np.ndarray:
        """Every coalition's utility, indexed by mask: :meth:`utilities` of
        ``range(2^N)``, capped at MAX_ENUM_CLIENTS clients.  A short table
        fails the 2^N audit of :func:`shapley_exact`."""
        if self.n_clients > MAX_ENUM_CLIENTS:
            raise GameError(f"exact enumeration capped at {MAX_ENUM_CLIENTS} "
                            f"clients, got {self.n_clients}")
        return self.utilities(range(2**self.n_clients))

    @property
    def call_count(self) -> int:
        return len(self._audit)

    @property
    def audit_log(self) -> tuple[int, ...]:
        """Masks of all evaluated coalitions, in call order."""
        return tuple(self._audit)


def _finite_utility(mask: int, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise GameError(
            f"utility of coalition {coalition_members(mask)} is not finite: {value!r}"
        )
    return value


def _table_entry(n_clients: int, mask: int, value) -> float:
    """A table entry's utility; refuses a mask outside the game and a
    non-finite utility."""
    if not 0 <= mask < 2**n_clients:
        raise GameError(f"coalition mask {mask} out of range for {n_clients} clients")
    return _finite_utility(mask, value)


def _check_table_clients(n_clients, where=""):
    """Reject a table size before a 2^n table is allocated for it."""
    if not 1 <= n_clients <= MAX_ENUM_CLIENTS:
        raise GameError(
            f"{where}table games support 1..{MAX_ENUM_CLIENTS} clients, "
            f"got {n_clients}"
        )


@dataclass(frozen=True)
class TableGame:
    """Explicit utility table over all 2^N coalitions.

    ``table[mask]`` is the utility of the coalition with that bitmask.
    """

    n_clients: int
    table: np.ndarray

    def __post_init__(self):
        _check_table_clients(self.n_clients)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (2**self.n_clients,):
            raise GameError(
                f"expected {2**self.n_clients} utilities for {self.n_clients} "
                f"clients, got shape {table.shape}"
            )
        finite = np.isfinite(table)
        if not finite.all():
            mask = int(np.argmin(finite))
            _finite_utility(mask, table[mask])
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_values(
        cls, n_clients: int, values: Mapping[int, float]
    ) -> "TableGame":
        """Build a game from a mapping of integer bitmasks to utilities.
        Every one of the 2^n_clients masks must appear.
        """
        _check_table_clients(n_clients)
        table = np.empty(2**n_clients)
        given = np.zeros(2**n_clients, dtype=bool)
        for key, value in values.items():
            if not isinstance(key, (int, np.integer)):
                raise GameError(f"coalition key {key!r} is not an integer bitmask")
            mask = int(key)
            table[mask], given[mask] = _table_entry(n_clients, mask, value), True
        if not given.all():
            raise GameError(f"missing utility for coalition mask {int(np.argmin(given))}")
        return cls(n_clients, table)

    def oracle(self) -> CoalitionOracle:
        """A fresh auditing oracle over this table; it answers a request
        by indexing the table."""
        return CoalitionOracle(self.n_clients, lambda masks: [np.take(self.table, masks)])


@dataclass(frozen=True)
class ScoreVector:
    """Per-client scores with provenance.

    Args:
        method: one of METHOD_LABELS.
        scores: one finite float per client.
        round: 1-based round the scores refer to, if any.
    """

    method: str
    scores: np.ndarray
    round: int | None = None

    def __post_init__(self):
        if self.method not in METHOD_LABELS:
            raise GameError(
                f"unknown method label {self.method!r}, expected one of "
                f"{METHOD_LABELS}"
            )
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size < 1:
            raise GameError(f"scores must be a nonempty vector, got shape {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise GameError("scores contain non-finite values")
        scores = scores.copy()
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        if self.round is not None and self.round < 1:
            raise GameError(f"round indices are 1-based, got {self.round}")

    @property
    def n_clients(self) -> int:
        return int(self.scores.size)


def _subset_sizes(n: int) -> np.ndarray:
    """Population count of every mask 0..2^n-1."""
    idx = np.arange(2**n, dtype=np.uint32)
    sizes = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        sizes += (idx >> bit) & 1
    return sizes


def shapley_exact(oracle: CoalitionOracle) -> ScoreVector:
    """Exact Shapley scores by full enumeration.

    Tabulates all 2^N coalition utilities once, and raises GameError
    unless the oracle counted exactly 2^N evaluations doing so.  Then for
    each client sums the marginal over every subset S not containing it,
    weighted by 1 / (N * C(N-1, |S|)).  The result distributes
    v(grand) - v(empty) across clients.
    """
    n = oracle.n_clients
    before = oracle.call_count
    values = oracle.tabulate()
    used = oracle.call_count - before
    if used != 2**n:
        raise GameError(
            f"Shapley audit failed: {used} evaluations, expected {2**n}"
        )
    sizes = _subset_sizes(n)
    weights = np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)])
    idx = np.arange(2**n, dtype=np.int64)
    out = np.empty(n)
    for i in range(n):
        without = idx[(idx >> i) & 1 == 0]
        gains = values[without | (1 << i)] - values[without]
        out[i] = float(np.sum(weights[sizes[without]] * gains))
    return ScoreVector("SV", out)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A worker process's forked copies of the parent's oracles, set when the
# worker starts (initargs are inherited by fork, never pickled).
_worker_oracles: Sequence[CoalitionOracle] = ()


def _adopt(oracles: Sequence[CoalitionOracle]) -> None:
    global _worker_oracles
    _worker_oracles = oracles


def _counted(oracle: CoalitionOracle) -> int:
    return 0 if oracle.evaluator is None else oracle.evaluator.call_count


def _shapley_in_worker(k: int):
    """Game k's exact Shapley scores and the evaluations it counted on
    its evaluator."""
    oracle = _worker_oracles[k]
    counted = _counted(oracle)
    scores = shapley_exact(oracle).scores
    return scores, _counted(oracle) - counted


def shapley_exact_all(oracles: Sequence[CoalitionOracle]) -> list[ScoreVector]:
    """:func:`shapley_exact` of independent games, in order.

    The games are tabulated on ``min(games, usable CPUs)`` forked worker
    processes, one task per game; the chunk loops hold the GIL between
    their numpy kernels, so threads could not share the work.  They run
    here one after another instead when that is one worker, when the
    platform cannot fork, or when this process runs other threads (a
    fork would copy the locks they hold).

    Each worker audits its game at 2^N evaluations; once that passed, the
    parent records masks 0..2^N-1 on the oracle and adds the worker's
    count to the oracle's evaluator, so every count reads as if the
    games had run here.  A failure is raised as running the games in
    order would meet it first: the lowest failing game's exception,
    type, message and attributes kept, after the games before it are
    counted.  No worker outlives the call.
    """
    oracles = list(oracles)
    workers = min(len(oracles), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [shapley_exact(oracle) for oracle in oracles]
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt, initargs=(oracles,),
    )
    try:
        tasks = [pool.submit(_shapley_in_worker, k) for k in range(len(oracles))]
        out = []
        for oracle, task in zip(oracles, tasks):
            scores, counted = task.result()
            oracle._record(range(2**oracle.n_clients))
            if counted:
                oracle.evaluator.add_calls(counted)
            out.append(ScoreVector("SV", scores))
        return out
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def load_table_game(path) -> TableGame:
    """Read a game from text: the client count, then one '<bitmask>
    <utility>' line per coalition, in any order; '#' starts a comment.
    A fault is refused as a GameError that names the path, and the line
    where one is at fault; each entry is checked once, on its line."""
    entries: dict[int, float] = {}
    n_clients = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n_clients is None:
                try:
                    n_clients = int(line)
                except ValueError:
                    raise GameError(
                        f"{path}:{lineno}: expected the client count, got {line!r}"
                    ) from None
                _check_table_clients(n_clients, f"{path}:{lineno}: ")
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GameError(
                    f"{path}:{lineno}: expected '<bitmask> <utility>', got {line!r}"
                )
            try:
                mask, value = int(parts[0]), float(parts[1])
            except ValueError:
                raise GameError(
                    f"{path}:{lineno}: could not parse '<bitmask> <utility>' "
                    f"from {line!r}"
                ) from None
            if mask in entries:
                raise GameError(f"{path}:{lineno}: duplicate coalition mask {mask}")
            try:
                entries[mask] = _table_entry(n_clients, mask, value)
            except GameError as exc:
                raise GameError(f"{path}:{lineno}: {exc}") from None
    if n_clients is None:
        raise GameError(f"{path}: empty game file")
    # Every entry is checked, in range and distinct, so NaN marks exactly
    # the coalitions that no line gives.
    table = np.full(2**n_clients, np.nan)
    table[list(entries)] = list(entries.values())
    if len(entries) < len(table):
        raise GameError(f"{path}: missing utility for coalition mask "
                        f"{int(np.argmax(np.isnan(table)))}")
    return TableGame(n_clients, table)
