"""Experiment operations over scenarios.

Each operation runs the scenario's federation once per repeat (seeds
derived from the master seed), scores the transcripts, and returns its
bundle tables as (name, header, rows) triples, each header declared next
to the code that builds its rows.  Heavier invariants are enforced
inline on every run:

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
    cos_score,
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
    InfluenceBlock,
    MisbehaviorBlock,
    WeightedBlock,
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
    seed: int
    config: object
    transcripts: tuple
    evaluator: ModelEvaluator
    cache: dict = dataclasses.field(default_factory=dict, compare=False)


def run_repeats(scenario):
    """All repeats' federations, trained in lockstep (``run_federations``)."""
    seeds = derive_seeds(scenario.master_seed, scenario.repeats)
    configs = [
        dataclasses.replace(scenario.federation, seed=int(seed)) for seed in seeds
    ]
    return [
        RepeatContext(
            repeat=repeat,
            seed=cfg.seed,
            config=cfg,
            transcripts=tuple(transcripts),
            evaluator=model_eval_oracle(test, cfg.utility_kind),
        )
        for repeat, (cfg, (transcripts, test)) in enumerate(
            zip(configs, run_federations(configs))
        )
    ]


def audited_round_utilities(transcript, evaluator):
    """RoundUtilities plus proof that they cost exactly 2N+2 evaluations."""
    n = transcript.n_clients
    before = evaluator.call_count
    utilities = utilities_from_transcript(transcript, evaluator)
    used = evaluator.call_count - before
    if used != 2 * n + 2:
        raise ExperimentError(
            f"scoring cost audit failed: {used} model evaluations for "
            f"{n} clients, expected {2 * n + 2}"
        )
    return utilities


def round_utilities(ctx, rnd):
    """Round rnd's audited 2N+2 utilities, extracted once per context."""
    key = ("utilities", rnd)
    if key not in ctx.cache:
        ctx.cache[key] = audited_round_utilities(
            ctx.transcripts[rnd - 1], ctx.evaluator
        )
    return ctx.cache[key]


def _reference_games(ctx, key):
    """The exact-Shapley games behind a cached reference: MR-SV's round
    games of rounds 1..horizon, or SV's horizon-round retraining game."""
    method, horizon = key
    if method == "MR-SV":
        return mr_shapley_games(ctx.transcripts[:horizon], ctx.evaluator)
    return [RetrainingGame(dataclasses.replace(ctx.config, rounds=horizon)).oracle()]


def _tabulate_references(contexts, methods, horizon):
    """Cache every context's MR-SV rows and SV at this horizon, for the
    methods among ``methods``, unless cached already.

    The games are built context by context in method order, and all are
    solved in one :func:`shapley_exact_all` call, so they run on worker
    processes together and a failure is the first in that order.
    """
    todo = []
    for ctx in contexts:
        for method in dict.fromkeys(methods):
            key = (method, horizon)
            if method in ("MR-SV", "SV") and key not in ctx.cache:
                todo.append((ctx, key, _reference_games(ctx, key)))
    vectors = iter(shapley_exact_all([g for *_, games in todo for g in games]))
    for ctx, key, games in todo:
        rows = np.array([next(vectors).scores for _ in games])
        ctx.cache[key] = rows if key[0] == "MR-SV" else rows[0]


def _reference(ctx, method, horizon):
    """MR-SV's per-round rows or SV's scores at this horizon, computed
    once per context."""
    _tabulate_references([ctx], [method], horizon)
    return ctx.cache[(method, horizon)]


def _utility_rule(method):
    """The rule scoring one round from its 2N+2 utilities, or None.

    Built on every call, so each rule is looked up by its module-level
    name at the time it runs.
    """
    return {"LOO": loo, "IOI": ioi, "FP": fp, "EE": ee}.get(method)


def method_scores(method, ctx, eval_round, horizon):
    """One repeat's ScoreVector for a method label.

    LOO, IOI, FP and EE score round eval_round from its 2N+2 utilities;
    COS sums and MR-SV averages the per-round scores of rounds
    1..horizon; SV is the exact Shapley value of the horizon-round
    retraining game.  Utilities, MR-SV rows and SV are computed at most
    once per context; the components tabulate every context's MR-SV and
    SV games up front (``_tabulate_references``).
    """
    rule = _utility_rule(method)
    if rule is not None:
        vector = rule(round_utilities(ctx, eval_round))
        return dataclasses.replace(vector, round=eval_round)
    if method == "COS":
        return cos_accumulated(ctx.transcripts[:horizon])
    if method == "MR-SV":
        scores = _reference(ctx, method, horizon).mean(axis=0)
    elif method == "SV":
        scores = _reference(ctx, method, horizon)
    else:
        raise ExperimentError(f"unknown method {method!r}")
    return ScoreVector(method, scores, round=horizon)


def _horizon(scenario):
    if scenario.reference_rounds == "all":
        return scenario.federation.rounds
    return scenario.eval_round




def _block(scenario, kind):
    """The scenario's downstream block of this type, or None."""
    return next((b for b in scenario.downstream if isinstance(b, kind)), None)


def _summarize(methods, per_repeat):
    rows = []
    for method in methods:
        cols = [r for r in per_repeat if r[2] == method]
        for k, metric in enumerate(METRIC_NAMES):
            vals = np.array([r[3 + k] for r in cols])
            var = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
            rows.append((method, metric, float(vals.mean()), var))
    return rows


def rank_fidelity(scenario, contexts=None):
    """Score every repeat at the eval round and compare to the reference.

    Per method, rank_fidelity holds each metric's mean and sample
    variance across repeats; rank_fidelity_per_seed keeps every repeat.
    contexts lets the round-axis ablation reuse one set of trained
    federations; when omitted the federations are trained here.
    """
    if contexts is None:
        contexts = run_repeats(scenario)
    horizon = _horizon(scenario)
    reference = REFERENCE_METHODS[scenario.reference]
    _tabulate_references(contexts, (reference, *scenario.methods), horizon)
    per_repeat = []
    for ctx in contexts:
        ref = method_scores(reference, ctx, scenario.eval_round, horizon).scores
        for method in scenario.methods:
            vec = method_scores(method, ctx, scenario.eval_round, horizon).scores
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


def ablation(scenario, contexts=None):
    """Repeat rank_fidelity along the scenario's ablation axis.

    Axis "round" re-scores one set of trained federations at each round,
    reusing contexts when given; "n_clients" and "mu" change the
    federation, so they retrain per value and ignore contexts.
    """
    block = scenario.ablation
    if block is None:
        raise ExperimentError("scenario has no ablation block")
    # The variants only feed rank_fidelity; the blocks were checked
    # against the scenario's own federation, not the varied one.
    base = dataclasses.replace(scenario, ablation=None, downstream=())
    if block.axis == "round" and contexts is None:
        contexts = run_repeats(base)
    rows = []
    for value in block.values:
        if block.axis == "round":
            variant = dataclasses.replace(base, eval_round=int(value))
            shared = contexts
        else:
            field = ABLATION_FIELDS[block.axis]
            variant, shared = scenario_with(base, **{field: value}), None
        (_, header, summary), _ = rank_fidelity(variant, shared)
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
    deltas = [
        u.delta.values * weights[u.client] for u in transcript.updates
    ]
    return ModelParams(transcript.m0.values + np.sum(deltas, axis=0))


def _round_scores(method, ctx, t):
    """Round t's own scores for the weighting pipeline: a single-round
    rule on round t's utilities, COS of round t, or MR-SV row t of the
    full-length rows."""
    rule = _utility_rule(method)
    if rule is not None:
        return rule(round_utilities(ctx, t.round)).scores
    per_round = {
        "COS": lambda: cos_score(t).scores,
        "MR-SV": lambda: _reference(ctx, method, len(ctx.transcripts))[t.round - 1],
    }
    return per_round[method]()


def _relabeled(scenario, rates):
    """IID copy of the scenario in which client i flips labels at
    rates[i].  The ablation is dropped: it was checked against the
    scenario's own federation, and an n_clients value would not fit the
    per-client rates."""
    return scenario_with(
        dataclasses.replace(scenario, ablation=None), iid=True, noise_rates=rates
    )


def weighted_aggregation(scenario):
    """Per-round score-weighted aggregates evaluated by negative test loss.

    All methods share one plain FedAvg training run per repeat; weighting
    happens only at a side aggregation step, so curves isolate the effect
    of the weights.  The run self-checks that uniform weights reproduce
    the transcript's aggregate bit-exactly.  Settings come from the
    scenario's weighted block, or its defaults when there is none.
    weighted_flagged lists the (repeat, round, method) whose weights
    degenerated to uniform.
    """
    block = _block(scenario, WeightedBlock) or WeightedBlock()
    n = scenario.federation.n_clients
    rates = block.rates if block.rates is not None else linear_rates(n)
    contexts = run_repeats(_relabeled(scenario, rates))
    methods = tuple(m for m in scenario.methods if m != "SV")
    _tabulate_references(contexts, methods, scenario.federation.rounds)

    curves = []
    flagged = []
    finals = {m: [] for m in methods}
    fedavg_finals = []
    for ctx in contexts:
        arch = MlpArch.for_data(ctx.evaluator.test)
        neg_loss = ModelEvaluator(arch, ctx.evaluator.test, "neg_loss")
        history = {m: [] for m in methods}
        for t_index, t in enumerate(ctx.transcripts):
            uniform = _weighted_model(t, np.ones(n))
            if not np.array_equal(uniform.values, t.m.values):
                raise ExperimentError(
                    f"uniform weights failed to reproduce FedAvg in round "
                    f"{t.round}"
                )
            for method in methods:
                raw = _round_scores(method, ctx, t)
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
                if t_index == len(ctx.transcripts) - 1:
                    finals[method].append(value)
            base = float(neg_loss(t.m))
            curves.append((ctx.repeat, t.round, "FedAvg", base))
            if t_index == len(ctx.transcripts) - 1:
                fedavg_finals.append(base)

    aggregate = []
    for rnd in range(1, scenario.federation.rounds + 1):
        for method in list(methods) + ["FedAvg"]:
            vals = np.array([
                v for rep, r, m, v in curves if r == rnd and m == method
            ])
            var = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
            aggregate.append((rnd, method, float(vals.mean()), var))

    summary = []
    for method in methods:
        wins = sum(
            1 for f, b in zip(finals[method], fedavg_finals) if f >= b
        )
        summary.append((
            method,
            wins,
            len(contexts),
            float(np.mean(finals[method])),
            float(np.mean(fedavg_finals)),
        ))
    return [
        ("weighted_curves", ("repeat", "round", "method", "neg_loss"), curves),
        ("weighted_curves_mean",
         ("round", "method", "mean_neg_loss", "variance"), aggregate),
        ("weighted_summary",
         ("method", "wins_vs_fedavg", "repeats", "mean_final_neg_loss",
          "fedavg_mean_final_neg_loss"), summary),
        ("weighted_flagged", ("repeat", "round", "method"), flagged),
    ]


def misbehavior(scenario):
    """IID federation with the misbehavior block's label-flipping
    attacker; per method, how often the attacker lands strictly lowest
    (ties break low, so a tie at index 0 counts only for attacker 0),
    with box statistics of its normalized score across repeats."""
    block = _block(scenario, MisbehaviorBlock)
    if block is None:
        raise ExperimentError("scenario has no misbehavior block")
    n = scenario.federation.n_clients
    eval_round = (
        block.eval_round if block.eval_round is not None else scenario.eval_round
    )
    rates = tuple(
        block.rate if i == block.attacker else 0.0 for i in range(n)
    )
    contexts = run_repeats(_relabeled(scenario, rates))

    methods = tuple(m for m in scenario.methods if m != "SV")
    _tabulate_references(contexts, methods, eval_round)
    score_runs = {m: [] for m in methods}
    per_repeat = []
    for ctx in contexts:
        for method in methods:
            vec = method_scores(method, ctx, eval_round, eval_round).scores
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


def influence_summary(scenario, contexts=None):
    """Influence matrices at the influence block's round, averaged across
    repeats; the diagonal is exactly zero.  influence_flagged lists each
    repeat's degenerate columns."""
    block = _block(scenario, InfluenceBlock) or InfluenceBlock()
    rnd = block.round if block.round is not None else scenario.eval_round
    if contexts is None:
        contexts = run_repeats(scenario)
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


def manipulation_summary(scenario, contexts=None):
    """Standard misreport sweep at the eval round, every client as the
    attacker in turn, aggregated over repeats and targets.  The EE rows'
    numerator column must be exactly zero; that is the
    manipulation-resistance claim in table form."""
    if contexts is None:
        contexts = run_repeats(scenario)
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
