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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .games import (
    SHAPLEY_MAX_CLIENTS,
    CoalitionOracle,
    ScoreVector,
    TableGame,
    shapley_exact_all,
)
from .fedsim.federation import RoundTranscript, round_oracle

# Sums this close to zero make the efficiency rescale meaningless; the
# fallback chain below takes over.  Absolute, not relative: the utilities
# in play are O(1) test-set numbers.
ZERO_SUM_TOL = 1e-12


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


class FpAlpha(NamedTuple):
    """FP's candidate masses for one round, in fallback order: the mean of
    each client's LOO and IOI terms, then each term alone."""

    alpha: np.ndarray
    loo_terms: np.ndarray
    ioi_terms: np.ndarray


class EeNumerators(NamedTuple):
    """EE's candidate masses for one round, in fallback order: m, the mean
    of beta and gamma, then each alone.

    beta[i] averages how much the aggregate beats the other clients' solo
    probes; gamma[i] averages how much the other clients' drop-one probes
    beat the start model.  Client i's own probe values appear in none.
    """

    m: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def _probe_set(oracle: CoalitionOracle) -> RoundUtilities:
    """The 2N+2 utilities secure aggregation exposes, from one request of
    exactly 2N+2 masks in this order: the empty coalition, the grand
    coalition, each singleton, each drop-one coalition."""
    n = oracle.n_clients
    grand = (1 << n) - 1
    masks = [0, grand, *(1 << i for i in range(n)), *(grand ^ (1 << i) for i in range(n))]
    values = oracle.utilities(masks)
    return RoundUtilities(values[0], values[1], values[2 : n + 2], values[n + 2 :])


def game_round_utilities(game: TableGame) -> RoundUtilities:
    """The secure-aggregation view of an explicit game: empty, grand,
    singletons, and drop-one coalitions."""
    return _probe_set(game.oracle())


def _loo_masses(v_grand, v_empty, v_with, v_without) -> dict:
    return {"loo": v_grand - v_without}


def _ioi_masses(v_grand, v_empty, v_with, v_without) -> dict:
    return {"ioi": v_with - v_empty}


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


# The probe-set rules.  Each maps the four probe arrays of an (S, N) stack
# of report rows (v_with and v_without (S, N), the two scalars shared) to
# its candidate masses by name, in fallback order, and says whether the
# rule is efficiency-rescaled (see _efficient_rescale); an unrescaled rule
# has one mass, and that mass is its score.
SCORING_RULES = {
    "LOO": (_loo_masses, False),
    "IOI": (_ioi_masses, False),
    "FP": (_fp_masses, True),
    "EE": (_ee_masses, True),
}


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


def score_stack(rule: str, v_grand, v_empty, v_with, v_without) -> tuple:
    """Score an (S, N) stack of report rows by one of ``SCORING_RULES``.

    Returns the (S, N) scores, the name of the mass each row's scores came
    from ("uniform" when every candidate sums to ~zero), and the candidate
    masses by name.  Each row gets the bits it would get scored alone.
    """
    candidates, rescaled = SCORING_RULES[rule]
    masses = candidates(v_grand, v_empty, v_with, v_without)
    if rescaled:
        scores, used = _efficient_rescale(masses, v_grand)
        return scores, used, masses
    ((name, scores),) = masses.items()
    return scores, [name] * len(scores), masses


class RuleRow(NamedTuple):
    """One round scored by one rule, with read-only arrays: the scores, the
    name of the mass they came from, and the candidate masses by name."""

    scores: np.ndarray
    used: str
    masses: dict


def score_row(rule: str, utilities: RoundUtilities) -> RuleRow:
    """:func:`score_stack` on the one report row of ``utilities``."""
    u = utilities
    scores, used, masses = score_stack(
        rule, u.v_grand, u.v_empty, u.v_with[None], u.v_without[None]
    )
    scores, rows = scores[0], {name: mass[0] for name, mass in masses.items()}
    for row in (scores, *rows.values()):
        row.setflags(write=False)
    return RuleRow(scores, used[0], rows)


def loo(utilities: RoundUtilities) -> ScoreVector:
    """Leave-one-out: v(grand) - v(grand minus i)."""
    return ScoreVector("LOO", score_row("LOO", utilities).scores)


def ioi(utilities: RoundUtilities) -> ScoreVector:
    """Include-one-in: v(empty plus i) - v(empty)."""
    return ScoreVector("IOI", score_row("IOI", utilities).scores)


def fp_alpha(utilities: RoundUtilities) -> FpAlpha:
    """The two observable marginals per client and their mean."""
    return FpAlpha(*score_row("FP", utilities).masses.values())


def fp(utilities: RoundUtilities) -> ScoreVector:
    """Fair-Private score: efficiency-rescaled mean of LOO and IOI terms.

    If the alpha mass sums to zero the rescale degenerates; the score then
    falls back to the LOO terms alone, then the IOI terms alone, then a
    uniform split of v(grand).
    """
    return ScoreVector("FP", score_row("FP", utilities).scores)


def ee_numerators(utilities: RoundUtilities) -> EeNumerators:
    """Per-client EE mass from the other clients' probes only."""
    return EeNumerators(*score_row("EE", utilities).masses.values())


def ee(utilities: RoundUtilities) -> ScoreVector:
    """Everybody-Else score: efficiency-rescaled mean of beta and gamma.

    Falls back, when the mass sums to zero, to beta alone, then gamma
    alone, then a uniform split of v(grand).
    """
    return ScoreVector("EE", score_row("EE", utilities).scores)


def cos_score(transcript: RoundTranscript) -> ScoreVector:
    """Cosine similarity between each probe model m0 + U_i and the
    aggregate m.  A zero-norm vector on either side scores 0."""
    m = transcript.m.values
    m0 = transcript.m0.values
    out = np.empty(transcript.n_clients)
    norm_m = float(np.linalg.norm(m))
    for i, update in enumerate(transcript.updates):
        probe = m0 + update
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

    One request to the round game (:func:`_probe_set`): the empty
    coalition, the grand coalition, each singleton, each drop-one
    coalition.  Exactly 2N+2 evaluator calls.
    """
    return _probe_set(round_oracle(transcript, evaluator))


def mr_shapley_games(
    transcripts: Sequence[RoundTranscript], evaluator: Callable
) -> list[CoalitionOracle]:
    """The round games of an MR-SV reference, one per transcript in order.

    Each costs exactly 2^N evaluator calls to solve, so N is capped at
    ``SHAPLEY_MAX_CLIENTS`` clients; every round needs the same N.
    """
    transcripts = list(transcripts)
    if not transcripts:
        raise ScoringError("no transcripts to score")
    n = transcripts[0].n_clients
    if n > SHAPLEY_MAX_CLIENTS:
        raise ScoringError(
            f"multi-round Shapley enumerates 2^N coalitions per round and is "
            f"capped at {SHAPLEY_MAX_CLIENTS} clients, got {n}"
        )
    for t in transcripts:
        if t.n_clients != n:
            raise ScoringError(
                f"round {t.round} has {t.n_clients} clients, expected {n}"
            )
    return [round_oracle(t, evaluator) for t in transcripts]


def mr_shapley(
    transcripts: Sequence[RoundTranscript], evaluator: Callable
) -> ScoreVector:
    """Multi-round Shapley: exact Shapley on every round's coalition game,
    averaged across rounds.

    Costs exactly 2^N evaluator calls per round, audited by
    :func:`shapley_exact`.  The round games are independent, so
    :func:`shapley_exact_all` runs them on worker processes; the counts
    on ``evaluator`` read as if they had run here.
    """
    transcripts = list(transcripts)
    games = mr_shapley_games(transcripts, evaluator)
    rows = np.array([vector.scores for vector in shapley_exact_all(games)])
    return ScoreVector("MR-SV", rows.mean(axis=0), round=transcripts[-1].round)


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


def scores_to_csv(vectors: Sequence[ScoreVector], out) -> None:
    """Write score vectors as CSV with header
    method,round,client_0,...,client_{N-1} to a path or an open text
    stream."""
    n, rows = _score_rows(vectors)
    rows.insert(0, ["method", "round"] + [f"client_{i}" for i in range(n)])
    if hasattr(out, "write"):
        csv.writer(out).writerows(rows)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def scores_from_csv(path) -> list[ScoreVector]:
    """Read a scores_to_csv table; a bad row is a ScoringError naming path:line."""
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
            try:  # every error below is a ValueError, GameError included
                if len(row) != n + 2:
                    raise ScoringError(f"row width {len(row)} != {n + 2}")
                out.append(
                    ScoreVector(
                        method=row[0],
                        round=None if row[1] == "" else int(row[1]),
                        scores=np.array([float(v) for v in row[2:]]),
                    )
                )
            except ValueError as exc:
                raise ScoringError(f"{path}:{reader.line_num}: {exc}") from None
    return out
