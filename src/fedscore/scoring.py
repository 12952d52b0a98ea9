"""Contribution scores computable under secure aggregation, plus baselines.

Under secure aggregation the server can only evaluate models it can
actually form: the round's start model m0, the full aggregate m, and the
two per-client probes m0 + U_i and m - U_i.  That is 2N + 2 utilities per
round, collected in :class:`RoundUtilities`.  Every score here is a
function of those numbers alone:

* LOO(i) = v(m) - v(m - U_i), the classical leave-one-out drop;
* IOI(i) = v(m0 + U_i) - v(m0), the include-one-in gain;
* FP(i)  rescales the mean of the two so the scores sum to v(m);
* EE(i)  uses only the 2(N-1) probe values of the *other* clients, which
  is what makes it impossible for a client to move its own score by
  misreporting its update.

The multi-round Shapley reference and the cosine heuristic live here too,
along with (de)serialisation of score tables.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import Coalition, ScoreVector, TableGame, shapley_exact
from .fedsim.federation import RoundTranscript, round_oracle

# Sums this close to zero make the efficiency rescale meaningless; the
# fallback chain below takes over.  Absolute, not relative: the utilities
# in play are O(1) test-set numbers.
ZERO_SUM_TOL = 1e-12

# Exact per-round Shapley walks 2^N coalitions per round.
MR_SV_MAX_CLIENTS = 12


class ScoringError(ValueError):
    """Invalid utilities or scoring request."""


@dataclass(frozen=True)
class RoundUtilities:
    """The 2N+2 model utilities observable in one round.

    v_with[i] is the utility of m0 + U_i (the start model plus client i's
    scaled update alone); v_without[i] that of m - U_i (the aggregate with
    client i's update removed).
    """

    v_empty: float
    v_grand: float
    v_with: np.ndarray
    v_without: np.ndarray

    def __post_init__(self):
        v_with = np.asarray(self.v_with, dtype=np.float64)
        v_without = np.asarray(self.v_without, dtype=np.float64)
        if v_with.ndim != 1 or v_with.size < 1:
            raise ScoringError(f"v_with must be a nonempty vector, got shape {v_with.shape}")
        if v_without.shape != v_with.shape:
            raise ScoringError(
                f"v_with and v_without disagree: {v_with.shape} vs {v_without.shape}"
            )
        values = np.concatenate([[self.v_empty, self.v_grand], v_with, v_without])
        if not np.all(np.isfinite(values)):
            raise ScoringError("utilities contain non-finite values")
        v_with = v_with.copy()
        v_without = v_without.copy()
        v_with.setflags(write=False)
        v_without.setflags(write=False)
        object.__setattr__(self, "v_empty", float(self.v_empty))
        object.__setattr__(self, "v_grand", float(self.v_grand))
        object.__setattr__(self, "v_with", v_with)
        object.__setattr__(self, "v_without", v_without)

    @property
    def n_clients(self) -> int:
        return int(self.v_with.size)

    def replace_client(self, client: int, v_with: float, v_without: float) -> "RoundUtilities":
        """A copy with one client's two reportable values overwritten."""
        if not 0 <= client < self.n_clients:
            raise ScoringError(f"client {client} out of range")
        with_ = self.v_with.copy()
        without = self.v_without.copy()
        with_[client] = v_with
        without[client] = v_without
        return RoundUtilities(self.v_empty, self.v_grand, with_, without)


@dataclass(frozen=True)
class FpAlpha:
    """Unnormalised per-client mass behind the FP score."""

    alpha: np.ndarray
    loo_terms: np.ndarray
    ioi_terms: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "loo_terms", "ioi_terms"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class EeNumerators:
    """Unnormalised per-client mass behind the EE score.

    beta[i] averages how much the aggregate beats the other clients' solo
    probes; gamma[i] averages how much the other clients' drop-one probes
    beat the start model.  Client i's own probe values appear in neither.
    """

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("beta", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> np.ndarray:
        return (self.beta + self.gamma) / 2.0


def game_round_utilities(game: TableGame) -> RoundUtilities:
    """The secure-aggregation view of an explicit game: empty, grand,
    singletons, and drop-one coalitions."""
    n = game.n_clients
    grand = Coalition.grand(n)
    v_with = np.array([game.value(Coalition.of([i])) for i in range(n)])
    v_without = np.array([game.value(grand.remove(i)) for i in range(n)])
    return RoundUtilities(
        v_empty=game.value(Coalition(0)),
        v_grand=game.value(grand),
        v_with=v_with,
        v_without=v_without,
    )


def loo(utilities: RoundUtilities) -> ScoreVector:
    """Leave-one-out: v(grand) - v(grand minus i)."""
    return ScoreVector("LOO", utilities.v_grand - utilities.v_without)


def ioi(utilities: RoundUtilities) -> ScoreVector:
    """Include-one-in: v(empty plus i) - v(empty)."""
    return ScoreVector("IOI", utilities.v_with - utilities.v_empty)


def _fp_masses(v_grand, v_empty, v_with, v_without) -> dict:
    """FP's candidate masses in fallback order, elementwise in the probes."""
    loo_terms = v_grand - v_without
    ioi_terms = v_with - v_empty
    return {"alpha": (loo_terms + ioi_terms) / 2.0, "loo": loo_terms, "ioi": ioi_terms}


def _excluded_sums(terms: np.ndarray) -> np.ndarray:
    """Entry (s, i) is the sum of terms[s, j] over j != i, in increasing j.

    Deliberately not computed as sum(terms[s]) - terms[s, i]: that
    round-trip is only equal in exact arithmetic, and the
    manipulation-resistance guarantee is that client i's own term never
    enters its score at all, bit for bit.  Each sum is one row of a 2-D
    C-contiguous array, which numpy reduces with the same pairwise loop as
    a 1-D sum of that row; a 3-D reduction changes low bits.
    """
    s, n = terms.shape
    k = np.arange(n - 1)
    others = k + (k >= np.arange(n)[:, None])
    return terms[:, others].reshape(s * n, n - 1).sum(axis=1).reshape(s, n)


def _ee_masses(v_grand, v_empty, v_with, v_without) -> dict:
    """EE's candidate masses in fallback order for an (S, N) stack of
    report rows, each from the other clients' probes only."""
    n = v_with.shape[1]
    if n < 2:
        raise ScoringError("EE needs at least two clients")
    denom = float((n - 1) ** 2)
    beta = _excluded_sums(v_grand - v_with) / denom
    gamma = _excluded_sums(v_without - v_empty) / denom
    return {"m": (beta + gamma) / 2.0, "beta": beta, "gamma": gamma}


def _efficient_rescale(masses: dict, v_grand: float) -> tuple[np.ndarray, list[str]]:
    """Rescale each row's first candidate (S, N) mass that does not sum to
    ~zero so the row sums to v_grand, splitting v_grand uniformly where all
    collapse.  Returns the scores and the name of the mass each row used."""
    names = [*masses, "uniform"]
    rows, n = masses[names[0]].shape
    scores = np.empty((rows, n))
    used = np.full(rows, len(masses))
    todo = np.ones(rows, dtype=bool)
    for k, mass in enumerate(masses.values()):
        total = mass.sum(axis=1)
        take = todo & (np.abs(total) > ZERO_SUM_TOL)
        scores[take] = mass[take] * (v_grand / total[take])[:, None]
        used[take] = k
        todo &= ~take
    scores[todo] = v_grand / n
    return scores, [names[k] for k in used]


def _stack_of_one(utilities: RoundUtilities) -> tuple:
    u = utilities
    return u.v_grand, u.v_empty, u.v_with[None], u.v_without[None]


def fp_alpha(utilities: RoundUtilities) -> FpAlpha:
    """The two observable marginals per client and their mean."""
    masses = _fp_masses(*_stack_of_one(utilities))
    return FpAlpha(masses["alpha"][0], masses["loo"][0], masses["ioi"][0])


def fp(utilities: RoundUtilities) -> ScoreVector:
    """Fair-Private score: efficiency-rescaled mean of LOO and IOI terms.

    If the alpha mass sums to zero the rescale degenerates; the score then
    falls back to the LOO terms alone, then the IOI terms alone, then a
    uniform split of v(grand).
    """
    return fp_scored(utilities)[0]


def fp_scored(utilities: RoundUtilities) -> tuple[ScoreVector, str]:
    """Like :func:`fp` but also names the mass used ("alpha", "loo",
    "ioi", or "uniform")."""
    masses = _fp_masses(*_stack_of_one(utilities))
    scores, used = _efficient_rescale(masses, utilities.v_grand)
    return ScoreVector("FP", scores[0]), used[0]


def ee_numerators(utilities: RoundUtilities) -> EeNumerators:
    """Per-client EE mass from the other clients' probes only."""
    masses = _ee_masses(*_stack_of_one(utilities))
    return EeNumerators(beta=masses["beta"][0], gamma=masses["gamma"][0])


def ee(utilities: RoundUtilities) -> ScoreVector:
    """Everybody-Else score: efficiency-rescaled mean of beta and gamma.

    Falls back, when the mass sums to zero, to beta alone, then gamma
    alone, then a uniform split of v(grand).
    """
    return ee_scored(utilities)[0]


def ee_scored(utilities: RoundUtilities) -> tuple[ScoreVector, str]:
    """Like :func:`ee` but also names the mass used ("m", "beta", "gamma",
    or "uniform")."""
    masses = _ee_masses(*_stack_of_one(utilities))
    scores, used = _efficient_rescale(masses, utilities.v_grand)
    return ScoreVector("EE", scores[0]), used[0]


def cos_score(transcript: RoundTranscript) -> ScoreVector:
    """Cosine similarity between each probe model m0 + U_i and the
    aggregate m.  A zero-norm vector on either side scores 0."""
    m = transcript.m.values
    m0 = transcript.m0.values
    out = np.empty(transcript.n_clients)
    norm_m = float(np.linalg.norm(m))
    for i, update in enumerate(transcript.updates):
        probe = m0 + update.delta.values
        norm_p = float(np.linalg.norm(probe))
        if norm_m == 0.0 or norm_p == 0.0:
            out[i] = 0.0
        else:
            out[i] = float(np.dot(probe, m)) / (norm_p * norm_m)
    return ScoreVector("COS", out, round=transcript.round)


def cos_accumulated(transcripts: Sequence[RoundTranscript]) -> ScoreVector:
    """Per-round cosine scores summed over the given rounds."""
    transcripts = list(transcripts)
    if not transcripts:
        raise ScoringError("no transcripts to score")
    n = transcripts[0].n_clients
    total = np.zeros(n)
    for t in transcripts:
        if t.n_clients != n:
            raise ScoringError(
                f"round {t.round} has {t.n_clients} clients, expected {n}"
            )
        total += cos_score(t).scores
    return ScoreVector("COS", total, round=transcripts[-1].round)


def utilities_from_transcript(
    transcript: RoundTranscript, evaluator: Callable
) -> RoundUtilities:
    """Collect the round's 2N+2 observable utilities.

    Evaluates, in order: the empty coalition, the grand coalition, each
    singleton, each drop-one coalition.  Exactly 2N+2 oracle calls.
    """
    oracle = round_oracle(transcript, evaluator)
    n = transcript.n_clients
    grand = Coalition.grand(n)
    v_empty = oracle.evaluate(Coalition(0))
    v_grand = oracle.evaluate(grand)
    v_with = np.array([oracle.evaluate(Coalition.of([i])) for i in range(n)])
    v_without = np.array([oracle.evaluate(grand.remove(i)) for i in range(n)])
    return RoundUtilities(v_empty, v_grand, v_with, v_without)


def _round_shapley(transcript: RoundTranscript, evaluator: Callable) -> np.ndarray:
    """Exact Shapley of one round game, audited at 2^N evaluations."""
    oracle = round_oracle(transcript, evaluator)
    scores = shapley_exact(oracle).scores
    expect = 2**transcript.n_clients
    if oracle.call_count != expect:
        raise ScoringError(
            f"round-game audit failed: {oracle.call_count} evaluations, "
            f"expected {expect}"
        )
    return scores


def mr_shapley_rows(
    transcripts: Sequence[RoundTranscript], evaluator: Callable
) -> np.ndarray:
    """Exact Shapley of every round game, one row per round in round order.

    The round games are independent, so they run on a thread pool bounded
    by the CPU count; the stacked model evaluations release the GIL.
    """
    transcripts = list(transcripts)
    if not transcripts:
        raise ScoringError("no transcripts to score")
    n = transcripts[0].n_clients
    for t in transcripts:
        if t.n_clients != n:
            raise ScoringError(
                f"round {t.round} has {t.n_clients} clients, expected {n}"
            )
    workers = min(len(transcripts), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.array(list(pool.map(
            lambda t: _round_shapley(t, evaluator), transcripts
        )))


def mr_shapley(
    transcripts: Sequence[RoundTranscript],
    evaluator: Callable,
    combine: str = "mean",
) -> ScoreVector:
    """Multi-round Shapley: exact Shapley on every round's coalition game,
    combined across rounds by mean (default) or sum.

    Costs exactly 2^N evaluator calls per round, so it is capped at
    ``MR_SV_MAX_CLIENTS`` clients.
    """
    transcripts = list(transcripts)
    if not transcripts:
        raise ScoringError("no transcripts to score")
    if combine not in ("mean", "sum"):
        raise ScoringError(f"combine must be 'mean' or 'sum', got {combine!r}")
    n = transcripts[0].n_clients
    if n > MR_SV_MAX_CLIENTS:
        raise ScoringError(
            f"multi-round Shapley enumerates 2^N coalitions per round and is "
            f"capped at {MR_SV_MAX_CLIENTS} clients, got {n}"
        )
    stacked = mr_shapley_rows(transcripts, evaluator)
    scores = stacked.mean(axis=0) if combine == "mean" else stacked.sum(axis=0)
    return ScoreVector("MR-SV", scores, round=transcripts[-1].round)


# ---------------------------------------------------------------------------
# score table (de)serialisation


def _score_rows(vectors: Sequence[ScoreVector]) -> tuple[int, list[list[str]]]:
    vectors = list(vectors)
    if not vectors:
        raise ScoringError("no score vectors to write")
    n = vectors[0].n_clients
    rows = []
    for vec in vectors:
        if vec.n_clients != n:
            raise ScoringError("all score vectors in a table need the same width")
        rows.append(
            [vec.method, "" if vec.round is None else str(vec.round)]
            + [repr(float(s)) for s in vec.scores]
        )
    return n, rows


def scores_to_csv(vectors: Sequence[ScoreVector], path) -> None:
    """Write score vectors as CSV with header
    method,round,client_0,...,client_{N-1}."""
    n, rows = _score_rows(vectors)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "round"] + [f"client_{i}" for i in range(n)])
        writer.writerows(rows)


def scores_from_csv(path) -> list[ScoreVector]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScoringError(f"{path}: empty score table") from None
        if header[:2] != ["method", "round"] or len(header) < 3:
            raise ScoringError(f"{path}: unexpected header {header!r}")
        n = len(header) - 2
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != n + 2:
                raise ScoringError(f"{path}: row width {len(row)} != {n + 2}")
            out.append(
                ScoreVector(
                    method=row[0],
                    round=None if row[1] == "" else int(row[1]),
                    scores=np.array([float(v) for v in row[2:]]),
                )
            )
    return out


def scores_to_json(vectors: Sequence[ScoreVector], path) -> None:
    """JSON mirror of the CSV table."""
    payload = [
        {
            "method": vec.method,
            "round": vec.round,
            "scores": [float(s) for s in vec.scores],
        }
        for vec in vectors
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def scores_from_json(path) -> list[ScoreVector]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        ScoreVector(
            method=entry["method"],
            round=entry.get("round"),
            scores=np.array(entry["scores"], dtype=np.float64),
        )
        for entry in payload
    ]
