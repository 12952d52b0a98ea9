"""Experiment operations over scenarios.

Each operation scores federations, one per repeat (seeds derived from
the master seed), and returns its bundle tables as (name, header, rows)
triples, each header declared next to the code that builds its rows.
An operation that runs a scenario block takes that block; only
``bundle.run_scenario`` maps block types to operations.  Rank fidelity,
a round ablation, influence and manipulation score the base federations
they are handed (``run_repeats``, trained once per bundle); weighted
aggregation, misbehavior and an n_clients or mu ablation train their
own.  Every (method, repeat) pair is scored by :func:`method_scores`
over a window of rounds.  Heavier invariants are enforced inline on
every run:

- scoring a round through RoundUtilities must cost exactly 2N+2 model
  evaluations, and every exact Shapley, each MR-SV round game and each
  true-SV retraining game, exactly 2^N coalition evaluations (the
  linear-vs-exponential separation, made measurable);
- the weighted aggregate with all weights 1 must reproduce the plain
  FedAvg model bit-exactly.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..fedsim import (
    ModelEvaluator,
    RetrainingGame,
    model_eval_oracle,
    run_federations,
)
from ..fedsim.mlp import MlpArch, ModelParams
from ..games import ScoreVector, shapley_exact_all
from ..metrics import (
    detection_rate,
    l2_distance,
    normalize_scores,
    rank_correlation,
)
from ..protocol import MisreportStrategy, influence_matrix, manipulation_sweep
from ..scoring import (
    cos_accumulated,
    ee,
    fp,
    ioi,
    loo,
    mr_shapley_games,
    utilities_from_transcript,
)
from .scenario import (
    ABLATION_FIELDS,
    REFERENCE_METHODS,
    linear_rates,
    scenario_with,
)

METRIC_NAMES = ("l2", "spearman", "kendall", "pearson")


class ExperimentError(RuntimeError):
    """An experiment failed an inline invariant or budget check."""


def derive_seeds(master_seed, repeats):
    """Per-repeat seeds from (master seed, repeat index).

    Uses numpy's SeedSequence so repeat streams are independent and the
    mapping is stable across platforms and versions of this package.
    """
    return [
        int(np.random.SeedSequence([int(master_seed), r]).generate_state(1)[0])
        for r in range(repeats)
    ]


@dataclass(frozen=True)
class RepeatContext:
    """One repeat's training artifacts, shared by the scoring passes.

    cache holds what scoring derives from them (round utilities, MR-SV
    rows, true SV), so every pass over the same context pays for each once.
    """

    repeat: int
    config: object
    transcripts: tuple
    evaluator: ModelEvaluator
    cache: dict = dataclasses.field(default_factory=dict, compare=False)

    @property
    def seed(self):
        return self.config.seed


def run_repeats(scenario):
    """All repeats' federations: the scenario's federation config under
    each derived seed, trained in lockstep (``run_federations``)."""
    seeds = derive_seeds(scenario.master_seed, scenario.repeats)
    return [
        RepeatContext(
            repeat=repeat,
            config=dataclasses.replace(scenario.federation, seed=seed),
            transcripts=tuple(transcripts),
            evaluator=model_eval_oracle(test, scenario.federation.utility_kind),
        )
        for repeat, (seed, (transcripts, test)) in enumerate(
            zip(seeds, run_federations(scenario.federation, seeds))
        )
    ]


def round_utilities(ctx, rnd):
    """Round rnd's 2N+2 utilities, extracted once per context and proven
    to have cost exactly 2N+2 evaluations."""
    key = ("utilities", rnd)
    if key not in ctx.cache:
        transcript = ctx.transcripts[rnd - 1]
        n = transcript.n_clients
        before = ctx.evaluator.call_count
        utilities = utilities_from_transcript(transcript, ctx.evaluator)
        used = ctx.evaluator.call_count - before
        if used != 2 * n + 2:
            raise ExperimentError(
                f"scoring cost audit failed: {used} model evaluations for "
                f"{n} clients, expected {2 * n + 2}"
            )
        ctx.cache[key] = utilities
    return ctx.cache[key]


def _missing_games(ctx, method, rounds):
    """(cache key, game) for each exact-Shapley game a reference over the
    window ``rounds`` still needs: MR-SV's round games, cached per round
    so windows share them, or SV's retraining game of rounds 1 through
    the window's last."""
    if method == "MR-SV":
        todo = [r for r in rounds if ("MR-SV", r) not in ctx.cache]
        if not todo:
            return []
        games = mr_shapley_games(
            [ctx.transcripts[r - 1] for r in todo], ctx.evaluator
        )
        return [(("MR-SV", r), game) for r, game in zip(todo, games)]
    if method == "SV" and ("SV", rounds[-1]) not in ctx.cache:
        config = dataclasses.replace(ctx.config, rounds=rounds[-1])
        return [(("SV", rounds[-1]), RetrainingGame(config).oracle())]
    return []


def _tabulate_references(contexts, methods, rounds):
    """Cache every context's MR-SV rows and SV over the window ``rounds``,
    for the methods among ``methods``, unless cached already.

    The games are built context by context in method order, and all are
    solved in one :func:`shapley_exact_all` call, so they run on worker
    processes together and a failure is the first in that order.
    """
    todo = [
        (ctx, key, game)
        for ctx in contexts
        for method in dict.fromkeys(methods)
        for key, game in _missing_games(ctx, method, rounds)
    ]
    vectors = shapley_exact_all([game for *_, game in todo])
    for (ctx, key, _), vector in zip(todo, vectors):
        ctx.cache[key] = vector.scores


def _utility_rule(method):
    """The rule scoring one round from its 2N+2 utilities, or None.

    Built on every call, so each rule is looked up by its module-level
    name at the time it runs.
    """
    return {"LOO": loo, "IOI": ioi, "FP": fp, "EE": ee}.get(method)


def method_scores(method, ctx, eval_round, rounds):
    """One repeat's ScoreVector for a method label.

    LOO, IOI, FP and EE score round eval_round from its 2N+2 utilities.
    The others cover ``rounds``, a window of consecutive rounds: COS sums
    their per-round scores and MR-SV averages their rows, which
    ``ctx.cache`` holds under ``("MR-SV", round)``; SV is the exact
    Shapley value of the game that retrains rounds 1 through the
    window's last, held under ``("SV", rounds[-1])``.
    ``_tabulate_references`` solves only what the components did not
    tabulate up front.
    """
    rule = _utility_rule(method)
    if rule is not None:
        vector = rule(round_utilities(ctx, eval_round))
        return dataclasses.replace(vector, round=eval_round)
    if method == "COS":
        return cos_accumulated([ctx.transcripts[r - 1] for r in rounds])
    if method not in ("MR-SV", "SV"):
        raise ExperimentError(f"unknown method {method!r}")
    _tabulate_references([ctx], [method], rounds)
    if method == "MR-SV":
        scores = np.array([ctx.cache[("MR-SV", r)] for r in rounds]).mean(axis=0)
    else:
        scores = ctx.cache[("SV", rounds[-1])]
    return ScoreVector(method, scores, round=rounds[-1])


def _reference_rounds(scenario):
    """The window the reference covers: rounds 1..R or 1..eval_round."""
    if scenario.reference_rounds == "all":
        return range(1, scenario.federation.rounds + 1)
    return range(1, scenario.eval_round + 1)


def _mean_var(values):
    """Mean and sample variance (0.0 for one value), in list order."""
    vals = np.array(values)
    return float(vals.mean()), (float(vals.var(ddof=1)) if vals.size > 1 else 0.0)


def _summarize(methods, per_repeat):
    return [
        (method, metric,
         *_mean_var([r[3 + k] for r in per_repeat if r[2] == method]))
        for method in methods
        for k, metric in enumerate(METRIC_NAMES)
    ]


def rank_fidelity(scenario, contexts):
    """Score every repeat's context at the eval round and compare to the
    reference.

    Per method, rank_fidelity holds each metric's mean and sample
    variance across repeats; rank_fidelity_per_seed keeps every repeat.
    """
    rounds = _reference_rounds(scenario)
    reference = REFERENCE_METHODS[scenario.reference]
    _tabulate_references(contexts, (reference, *scenario.methods), rounds)
    per_repeat = []
    for ctx in contexts:
        ref = method_scores(reference, ctx, scenario.eval_round, rounds).scores
        for method in scenario.methods:
            vec = method_scores(method, ctx, scenario.eval_round, rounds).scores
            corr = rank_correlation(vec, ref)
            per_repeat.append((
                ctx.repeat,
                ctx.seed,
                method,
                float(l2_distance(vec, ref)),
                float(corr.spearman),
                float(corr.kendall),
                float(corr.pearson),
            ))
    return [
        ("rank_fidelity", ("method", "metric", "mean", "variance"),
         _summarize(scenario.methods, per_repeat)),
        ("rank_fidelity_per_seed", ("repeat", "seed", "method") + METRIC_NAMES,
         per_repeat),
    ]


def ablation(scenario, block, contexts):
    """Repeat rank_fidelity along the ablation block's axis.

    Axis "round" re-scores the base federations ``contexts`` at each
    round; "n_clients" and "mu" change the federation, so they train
    each value's own and ignore contexts.
    """
    # The variants only feed rank_fidelity; the blocks were checked
    # against the scenario's own federation, not the varied one.
    base = dataclasses.replace(scenario, ablation=None, downstream=())
    rows = []
    for value in block.values:
        if block.axis == "round":
            variant = dataclasses.replace(base, eval_round=int(value))
        else:
            variant = scenario_with(base, **{ABLATION_FIELDS[block.axis]: value})
        (_, header, summary), _ = rank_fidelity(
            variant, contexts if block.axis == "round" else run_repeats(variant)
        )
        rows += [(block.axis, value) + row for row in summary]
    return [("ablation", ("axis", "value") + header, rows)]


def weights_from_scores(basis):
    """normalize -> clamp at zero -> rescale to mean 1.

    Returns (weights, degenerate).  A degenerate basis (all clamped to
    zero) falls back to uniform weights and is flagged to the caller.
    """
    clamped = np.clip(np.asarray(basis, dtype=np.float64), 0.0, None)
    total = clamped.sum()
    if total <= 0.0:
        return np.ones(clamped.size), True
    return clamped * (clamped.size / total), False


def _weighted_model(transcript, weights):
    deltas = transcript.updates * weights[:, None]
    return ModelParams(transcript.m0.values + deltas.sum(axis=0))


def _relabeled(scenario, rates, rounds):
    """The federations of an IID copy of the scenario in which client i
    flips labels at rates[i], trained through the last round of the
    window ``rounds`` only, the scenario's methods other than SV, and
    their references over that window, tabulated.  The copy evaluates
    that last round, and its ablation and downstream blocks are dropped:
    they were checked against the scenario's own federation, and an
    n_clients value would not fit the per-client rates."""
    federation = dataclasses.replace(scenario.federation, iid=True, noise_rates=rates,
                                     rounds=rounds[-1])
    contexts = run_repeats(dataclasses.replace(
        scenario, federation=federation, eval_round=rounds[-1], ablation=None, downstream=()
    ))
    methods = tuple(m for m in scenario.methods if m != "SV")
    _tabulate_references(contexts, methods, rounds)
    return contexts, methods


def weighted_aggregation(scenario, block):
    """Per-round score-weighted aggregates evaluated by negative test loss.

    All methods share one plain FedAvg training run per repeat; weighting
    happens only at a side aggregation step, so curves isolate the effect
    of the weights.  The run self-checks that uniform weights reproduce
    the transcript's aggregate bit-exactly.  Settings come from the
    weighted block.  weighted_flagged lists the (repeat, round, method)
    whose weights degenerated to uniform.  weighted_curves_mean and, at
    the last round, weighted_summary read one grouping of weighted_curves
    by (round, method), each list in repeat order.
    """
    n = scenario.federation.n_clients
    rounds = scenario.federation.rounds
    rates = block.rates if block.rates is not None else linear_rates(n)
    contexts, methods = _relabeled(scenario, rates, range(1, rounds + 1))

    curves = []
    flagged = []
    for ctx in contexts:
        arch = MlpArch.for_data(ctx.evaluator.test)
        neg_loss = ModelEvaluator(arch, ctx.evaluator.test, "neg_loss")
        history = {m: [] for m in methods}
        for t in ctx.transcripts:
            uniform = _weighted_model(t, np.ones(n))
            if not np.array_equal(uniform.values, t.m.values):
                raise ExperimentError(
                    f"uniform weights failed to reproduce FedAvg in round "
                    f"{t.round}"
                )
            for method in methods:
                window = range(t.round, t.round + 1)
                raw = method_scores(method, ctx, t.round, window).scores
                history[method].append(normalize_scores(raw).scores)
                if block.weight_mode == "cumulative":
                    basis = np.mean(history[method], axis=0)
                else:
                    basis = history[method][-1]
                weights, degenerate = weights_from_scores(basis)
                if degenerate:
                    flagged.append((ctx.repeat, t.round, method))
                value = float(neg_loss(_weighted_model(t, weights)))
                curves.append((ctx.repeat, t.round, method, value))
            curves.append((ctx.repeat, t.round, "FedAvg", float(neg_loss(t.m))))

    grouped = {}
    for _, rnd, method, value in curves:
        grouped.setdefault((rnd, method), []).append(value)
    aggregate = [
        (rnd, method, *_mean_var(grouped[rnd, method]))
        for rnd in range(1, rounds + 1)
        for method in (*methods, "FedAvg")
    ]
    fedavg = grouped[rounds, "FedAvg"]
    summary = [
        (method,
         sum(f >= b for f, b in zip(grouped[rounds, method], fedavg)),
         len(contexts),
         float(np.mean(grouped[rounds, method])),
         float(np.mean(fedavg)))
        for method in methods
    ]
    return [
        ("weighted_curves", ("repeat", "round", "method", "neg_loss"), curves),
        ("weighted_curves_mean",
         ("round", "method", "mean_neg_loss", "variance"), aggregate),
        ("weighted_summary",
         ("method", "wins_vs_fedavg", "repeats", "mean_final_neg_loss",
          "fedavg_mean_final_neg_loss"), summary),
        ("weighted_flagged", ("repeat", "round", "method"), flagged),
    ]


def misbehavior(scenario, block):
    """IID federation with the misbehavior block's label-flipping
    attacker; per method, how often the attacker lands strictly lowest
    (ties break low, so a tie at index 0 counts only for attacker 0),
    with box statistics of its normalized score across repeats."""
    n = scenario.federation.n_clients
    eval_round = (
        block.eval_round if block.eval_round is not None else scenario.eval_round
    )
    rates = tuple(
        block.rate if i == block.attacker else 0.0 for i in range(n)
    )
    window = range(1, eval_round + 1)
    contexts, methods = _relabeled(scenario, rates, window)
    score_runs = {m: [] for m in methods}
    per_repeat = []
    for ctx in contexts:
        for method in methods:
            vec = method_scores(method, ctx, eval_round, window).scores
            score_runs[method].append(vec)
            detected = int(np.argmin(vec)) == block.attacker
            per_repeat.append((
                ctx.repeat,
                ctx.seed,
                method,
                float(normalize_scores(vec).scores[block.attacker]),
                bool(detected),
            ))

    summary = []
    for method in methods:
        rate = detection_rate(score_runs[method], block.attacker)
        att = np.array([
            r[3] for r in per_repeat if r[2] == method
        ])
        qs = np.percentile(att, [0, 25, 50, 75, 100])
        summary.append((method, float(rate)) + tuple(float(q) for q in qs))
    return [
        ("misbehavior",
         ("method", "detection_rate", "attacker_score_min", "q1", "median",
          "q3", "attacker_score_max"), summary),
        ("misbehavior_per_seed",
         ("repeat", "seed", "method", "attacker_score", "detected"),
         per_repeat),
    ]


def influence_summary(scenario, block, contexts):
    """Influence matrices of the contexts at the influence block's round,
    averaged across repeats; the diagonal is exactly zero.
    influence_flagged lists each repeat's degenerate columns."""
    rnd = block.round if block.round is not None else scenario.eval_round
    n = scenario.federation.n_clients
    total = np.zeros((n, n))
    flagged = []
    for ctx in contexts:
        matrix = influence_matrix(round_utilities(ctx, rnd))
        total += matrix.normalized
        for col in matrix.flagged_columns:
            flagged.append((ctx.repeat, int(col), "degenerate column"))
    mean = total / len(contexts)
    rows = [(i, j, float(mean[i, j])) for i in range(n) for j in range(n)]
    return [
        ("influence", ("source", "target", "mean_normalized_influence"), rows),
        ("influence_flagged", ("repeat", "column", "reason"), flagged),
    ]


_SWEEP_KINDS = (
    ("honest", 0.0),
    ("additive_bias", 0.25),
    ("scale", 2.0),
    ("deflate_to", 0.0),
)


def manipulation_summary(scenario, contexts):
    """Standard misreport sweep of the contexts at the eval round, every
    client as the attacker in turn, aggregated over repeats and targets.
    The EE rows' numerator column must be exactly zero; that is the
    manipulation-resistance claim in table form."""
    n = scenario.federation.n_clients
    strategies = [
        MisreportStrategy(kind=kind, target=i, value=value)
        for i in range(n)
        for kind, value in _SWEEP_KINDS
    ]
    own = {}
    numer = {}
    for ctx in contexts:
        utilities = round_utilities(ctx, scenario.eval_round)
        for row in manipulation_sweep(utilities, strategies):
            kind = row.strategy.split("(")[0]
            key = (row.scorer, kind)
            own.setdefault(key, []).append(row.own_delta)
            numer.setdefault(key, []).append(abs(row.numerator_delta))
    rows = [
        (scorer, kind, float(np.mean(own[(scorer, kind)])),
         float(np.max(numer[(scorer, kind)])))
        for scorer, kind in sorted(own)
    ]
    return [
        ("manipulation",
         ("scorer", "kind", "mean_own_delta", "max_abs_numerator_delta"),
         rows),
    ]
