"""Experiment operations over scenarios.

Each operation runs the scenario's federation once per repeat (seeds
derived from the master seed), scores the transcripts, and returns a
small result object whose rows are plain tuples ready for the bundle
writer.  Heavier invariants are enforced inline on every run:

- scoring a round through RoundUtilities must cost exactly 2N+2 model
  evaluations, and a per-round Shapley must cost exactly 2^N (the
  linear-vs-exponential separation, made measurable);
- the weighted aggregate with all weights 1 must reproduce the plain
  FedAvg model bit-exactly.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..fedsim import (
    ModelEvaluator,
    RetrainingGame,
    model_eval_oracle,
    run_federation,
)
from ..fedsim.mlp import MlpArch, ModelParams
from ..games import shapley_exact
from ..metrics import (
    detection_rate,
    kendall,
    l2_distance,
    normalize_scores,
    pearson,
    spearman,
)
from ..protocol import MisreportStrategy, influence_matrix, manipulation_sweep
from ..scoring import (
    cos_accumulated,
    cos_score,
    ee,
    fp,
    ioi,
    loo,
    mr_shapley_rows,
    utilities_from_transcript,
)
from .scenario import (
    InfluenceBlock,
    MisbehaviorBlock,
    WeightedBlock,
    scenario_with,
)

METRIC_NAMES = ("l2", "spearman", "kendall", "pearson")
TRUE_SV_MAX_CLIENTS = 9
_SINGLE_ROUND = ("LOO", "IOI", "FP", "EE")


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
    """One repeat's training artifacts, shared by the scoring passes."""

    repeat: int
    seed: int
    config: object
    transcripts: tuple
    evaluator: ModelEvaluator
    mr_cache: dict = dataclasses.field(default_factory=dict, compare=False)


def _run_one_repeat(scenario, repeat, seed):
    cfg = dataclasses.replace(scenario.federation, seed=int(seed))
    transcripts, test = run_federation(cfg)
    evaluator = model_eval_oracle(test, cfg.utility_kind)
    return RepeatContext(
        repeat=repeat,
        seed=int(seed),
        config=cfg,
        transcripts=tuple(transcripts),
        evaluator=evaluator,
    )


def run_repeats(scenario):
    """All repeats' federations, trained concurrently, in repeat order."""
    seeds = derive_seeds(scenario.master_seed, scenario.repeats)
    if scenario.repeats == 1:
        return [_run_one_repeat(scenario, 0, seeds[0])]
    with ThreadPoolExecutor(max_workers=min(scenario.repeats, 4)) as pool:
        futures = [
            pool.submit(_run_one_repeat, scenario, r, s)
            for r, s in enumerate(seeds)
        ]
        return [f.result() for f in futures]


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


def _cached_mr_rows(ctx, horizon):
    """Per-round Shapley rows up to horizon, computed once per context.

    Re-scoring the same trained federation at another eval round (the
    round-axis ablation) reuses the rows instead of paying 2^N per round
    again, and the weighting pipeline gets every round's row from one
    call, so the round games run concurrently.
    """
    if horizon not in ctx.mr_cache:
        ctx.mr_cache[horizon] = mr_shapley_rows(
            ctx.transcripts[:horizon], ctx.evaluator
        )
    return ctx.mr_cache[horizon]


def _true_shapley(scenario, ctx, horizon):
    n = scenario.federation.n_clients
    if n > TRUE_SV_MAX_CLIENTS:
        raise ExperimentError(
            f"true-SV reference budget: needs n_clients <= "
            f"{TRUE_SV_MAX_CLIENTS}, scenario has {n}"
        )
    cfg = dataclasses.replace(ctx.config, rounds=horizon)
    game = RetrainingGame(cfg)
    return shapley_exact(game.oracle()).scores


def _horizon(scenario):
    if scenario.reference_rounds == "all":
        return scenario.federation.rounds
    return scenario.eval_round


def _method_vectors(scenario, ctx, mr_rows, horizon):
    """Score vectors for every requested method, sharing one utilities
    extraction across the single-round scorers."""
    vectors = {}
    utilities = None
    if any(m in _SINGLE_ROUND for m in scenario.methods):
        utilities = audited_round_utilities(
            ctx.transcripts[scenario.eval_round - 1], ctx.evaluator
        )
    for method in scenario.methods:
        if method == "LOO":
            vectors[method] = loo(utilities).scores
        elif method == "IOI":
            vectors[method] = ioi(utilities).scores
        elif method == "FP":
            vectors[method] = fp(utilities).scores
        elif method == "EE":
            vectors[method] = ee(utilities).scores
        elif method == "COS":
            vectors[method] = cos_accumulated(ctx.transcripts[:horizon]).scores
        elif method == "MR-SV":
            vectors[method] = mr_rows.mean(axis=0)
        elif method == "SV":
            vectors[method] = _true_shapley(scenario, ctx, horizon)
    return vectors


def _reference_vector(scenario, ctx, mr_rows, horizon):
    if scenario.reference == "MR-SV":
        return mr_rows.mean(axis=0)
    return _true_shapley(scenario, ctx, horizon)


@dataclass(frozen=True)
class FidelityResult:
    """Rank-fidelity metrics against the reference.

    per_repeat rows: (repeat, seed, method, l2, spearman, kendall, pearson).
    summary rows: (method, metric, mean, variance) with sample variance.
    """

    scenario_name: str
    reference: str
    methods: tuple
    seeds: tuple
    per_repeat: tuple
    summary: tuple

    def mean(self, method, metric):
        for m, met, mean, _ in self.summary:
            if m == method and met == metric:
                return mean
        raise KeyError(f"no summary entry for {method}/{metric}")


def _summarize(methods, per_repeat):
    rows = []
    for method in methods:
        cols = [r for r in per_repeat if r[2] == method]
        for k, metric in enumerate(METRIC_NAMES):
            vals = np.array([r[3 + k] for r in cols])
            var = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
            rows.append((method, metric, float(vals.mean()), var))
    return tuple(rows)


def rank_fidelity(scenario, contexts=None):
    """Score every repeat at the eval round and compare to the reference.

    contexts lets the round-axis ablation reuse one set of trained
    federations; when omitted the federations are trained here.
    """
    if contexts is None:
        contexts = run_repeats(scenario)
    horizon = _horizon(scenario)
    need_mr = scenario.reference == "MR-SV" or "MR-SV" in scenario.methods
    per_repeat = []
    for ctx in contexts:
        mr_rows = _cached_mr_rows(ctx, horizon) if need_mr else None
        ref = _reference_vector(scenario, ctx, mr_rows, horizon)
        vectors = _method_vectors(scenario, ctx, mr_rows, horizon)
        for method in scenario.methods:
            vec = vectors[method]
            per_repeat.append((
                ctx.repeat,
                ctx.seed,
                method,
                float(l2_distance(vec, ref)),
                float(spearman(vec, ref)),
                float(kendall(vec, ref)),
                float(pearson(vec, ref)),
            ))
    return FidelityResult(
        scenario_name=scenario.name,
        reference=scenario.reference,
        methods=tuple(scenario.methods),
        seeds=tuple(ctx.seed for ctx in contexts),
        per_repeat=tuple(per_repeat),
        summary=_summarize(scenario.methods, per_repeat),
    )


@dataclass(frozen=True)
class AblationResult:
    """rank_fidelity repeated along one axis, one consolidated table.

    rows: (axis, value, method, metric, mean, variance).
    """

    scenario_name: str
    axis: str
    values: tuple
    rows: tuple


def ablation(scenario, axis=None, values=None, contexts=None):
    """Repeat rank_fidelity along an axis.

    axis "round" re-scores one set of trained federations at several
    rounds; "n_clients" and "mu" retrain per value.  axis/values default
    to the scenario's ablation block.  Pre-trained contexts are only
    reusable on the round axis; the other axes change the federation.
    """
    if axis is None or values is None:
        if scenario.ablation is None:
            raise ExperimentError("scenario has no ablation block")
        axis = scenario.ablation.axis
        values = scenario.ablation.values
    rows = []
    if axis == "round":
        for v in values:
            if not (1 <= v <= scenario.federation.rounds):
                raise ExperimentError(
                    f"ablation round {v} outside 1..{scenario.federation.rounds}"
                )
        if contexts is None:
            contexts = run_repeats(scenario)
        for v in values:
            sub = dataclasses.replace(scenario, eval_round=int(v))
            res = rank_fidelity(sub, contexts=contexts)
            for method, metric, mean, var in res.summary:
                rows.append((axis, v, method, metric, mean, var))
    elif axis in ("n_clients", "mu"):
        field = "n_clients" if axis == "n_clients" else "dirichlet_mu"
        for v in values:
            sub = scenario_with(scenario, **{field: v})
            res = rank_fidelity(sub)
            for method, metric, mean, var in res.summary:
                rows.append((axis, v, method, metric, mean, var))
    else:
        raise ExperimentError(f"unknown ablation axis {axis!r}")
    return AblationResult(
        scenario_name=scenario.name,
        axis=axis,
        values=tuple(values),
        rows=tuple(rows),
    )


def _linear_rates(n):
    return tuple(i / (n - 1) for i in range(n))


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


def _round_scores(method, utilities, t, ctx):
    """One method's raw scores for one round, for the weighting pipeline.

    The single-round scorers share one utilities extraction per round;
    the 2N+2 evaluations pay for all of them at once.
    """
    if method in _SINGLE_ROUND:
        fn = {"LOO": loo, "IOI": ioi, "FP": fp, "EE": ee}[method]
        return fn(utilities).scores
    if method == "COS":
        return cos_score(t).scores
    if method == "MR-SV":
        return _cached_mr_rows(ctx, len(ctx.transcripts))[t.round - 1]
    raise ExperimentError(
        f"method {method!r} cannot drive weighted aggregation"
    )


@dataclass(frozen=True)
class WeightedResult:
    """Score-weighted aggregation curves.

    curves rows: (repeat, round, method, neg_loss) where method includes
    the FedAvg baseline.  aggregate rows: (round, method, mean, variance).
    summary rows: (method, wins_vs_fedavg, repeats, mean_final, fedavg_final).
    flagged rows: (repeat, round, method) where weights degenerated.
    """

    scenario_name: str
    weight_mode: str
    methods: tuple
    seeds: tuple
    curves: tuple
    aggregate: tuple
    summary: tuple
    flagged: tuple


def weighted_aggregation(scenario, block=None):
    """Per-round score-weighted aggregates evaluated by negative test loss.

    All methods share one plain FedAvg training run per repeat; weighting
    happens only at a side aggregation step, so curves isolate the effect
    of the weights.  The run self-checks that uniform weights reproduce
    the transcript's aggregate bit-exactly.
    """
    if block is None:
        block = next(
            (b for b in scenario.downstream if isinstance(b, WeightedBlock)),
            WeightedBlock(),
        )
    n = scenario.federation.n_clients
    rates = block.rates if block.rates is not None else _linear_rates(n)
    noisy = scenario_with(scenario, iid=True, noise_rates=rates)
    contexts = run_repeats(noisy)
    methods = tuple(m for m in scenario.methods if m != "SV")

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
            utilities = None
            if any(m in _SINGLE_ROUND for m in methods):
                utilities = audited_round_utilities(t, ctx.evaluator)
            for method in methods:
                raw = _round_scores(method, utilities, t, ctx)
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
    return WeightedResult(
        scenario_name=scenario.name,
        weight_mode=block.weight_mode,
        methods=methods,
        seeds=tuple(ctx.seed for ctx in contexts),
        curves=tuple(curves),
        aggregate=tuple(aggregate),
        summary=tuple(summary),
        flagged=tuple(flagged),
    )


@dataclass(frozen=True)
class MisbehaviorResult:
    """Detection of a label-flipping client.

    summary rows: (method, detection_rate, min, q1, median, q3, max) with
    box statistics over the attacker's normalized score across repeats.
    per_repeat rows: (repeat, seed, method, attacker_score, detected).
    """

    scenario_name: str
    attacker: int
    eval_round: int
    methods: tuple
    seeds: tuple
    summary: tuple
    per_repeat: tuple


def misbehavior(scenario, block=None):
    """IID federation with one label-flipping attacker; per method, how
    often the attacker lands strictly lowest (ties break low, so a tie at
    index 0 counts only for attacker 0)."""
    if block is None:
        blocks = [
            b for b in scenario.downstream if isinstance(b, MisbehaviorBlock)
        ]
        if not blocks:
            raise ExperimentError("scenario has no misbehavior block")
        block = blocks[0]
    n = scenario.federation.n_clients
    eval_round = (
        block.eval_round if block.eval_round is not None else scenario.eval_round
    )
    if not (1 <= eval_round <= scenario.federation.rounds):
        raise ExperimentError(
            f"misbehavior eval_round {eval_round} outside "
            f"1..{scenario.federation.rounds}"
        )
    rates = tuple(
        block.rate if i == block.attacker else 0.0 for i in range(n)
    )
    attacked = scenario_with(scenario, iid=True, noise_rates=rates)
    contexts = run_repeats(attacked)

    methods = tuple(m for m in scenario.methods if m != "SV")
    score_runs = {m: [] for m in methods}
    per_repeat = []
    for ctx in contexts:
        utilities = None
        if any(m in _SINGLE_ROUND for m in methods):
            utilities = audited_round_utilities(
                ctx.transcripts[eval_round - 1], ctx.evaluator
            )
        for method in methods:
            if method in _SINGLE_ROUND:
                fn = {"LOO": loo, "IOI": ioi, "FP": fp, "EE": ee}[method]
                vec = fn(utilities).scores
            elif method == "COS":
                vec = cos_accumulated(ctx.transcripts[:eval_round]).scores
            elif method == "MR-SV":
                vec = _cached_mr_rows(ctx, eval_round).mean(axis=0)
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
    return MisbehaviorResult(
        scenario_name=scenario.name,
        attacker=block.attacker,
        eval_round=eval_round,
        methods=methods,
        seeds=tuple(ctx.seed for ctx in contexts),
        summary=tuple(summary),
        per_repeat=tuple(per_repeat),
    )


@dataclass(frozen=True)
class InfluenceResult:
    """Mean normalized influence of reporters on EE numerators.

    rows: (source, target, mean_normalized_influence); the diagonal is
    exactly zero.  flagged rows: (repeat, column, reason).
    """

    scenario_name: str
    round: int
    n_clients: int
    seeds: tuple
    rows: tuple
    flagged: tuple


def influence_summary(scenario, block=None, contexts=None):
    """Influence matrices at one round, averaged across repeats."""
    if block is None:
        block = next(
            (b for b in scenario.downstream if isinstance(b, InfluenceBlock)),
            InfluenceBlock(),
        )
    rnd = block.round if block.round is not None else scenario.eval_round
    if not (1 <= rnd <= scenario.federation.rounds):
        raise ExperimentError(
            f"influence round {rnd} outside 1..{scenario.federation.rounds}"
        )
    if contexts is None:
        contexts = run_repeats(scenario)
    n = scenario.federation.n_clients
    total = np.zeros((n, n))
    flagged = []
    for ctx in contexts:
        utilities = audited_round_utilities(
            ctx.transcripts[rnd - 1], ctx.evaluator
        )
        matrix = influence_matrix(utilities)
        total += matrix.normalized
        for col in matrix.flagged_columns:
            flagged.append((ctx.repeat, int(col), "degenerate column"))
    mean = total / len(contexts)
    rows = tuple(
        (i, j, float(mean[i, j])) for i in range(n) for j in range(n)
    )
    return InfluenceResult(
        scenario_name=scenario.name,
        round=rnd,
        n_clients=n,
        seeds=tuple(ctx.seed for ctx in contexts),
        rows=rows,
        flagged=tuple(flagged),
    )


@dataclass(frozen=True)
class ManipulationResult:
    """Misreport sweep aggregated over repeats and targets.

    rows: (scorer, kind, mean_own_delta, max_abs_numerator_delta).  The
    EE rows' numerator column must be exactly zero; that is the
    manipulation-resistance claim in table form.
    """

    scenario_name: str
    seeds: tuple
    rows: tuple


_SWEEP_KINDS = (
    ("honest", 0.0),
    ("additive_bias", 0.25),
    ("scale", 2.0),
    ("deflate_to", 0.0),
)


def manipulation_summary(scenario, contexts=None):
    """Standard misreport sweep at the eval round, every client as the
    attacker in turn."""
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
        utilities = audited_round_utilities(
            ctx.transcripts[scenario.eval_round - 1], ctx.evaluator
        )
        for row in manipulation_sweep(utilities, strategies):
            kind = row.strategy.split("(")[0]
            key = (row.scorer, kind)
            own.setdefault(key, []).append(row.own_delta)
            numer.setdefault(key, []).append(abs(row.numerator_delta))
    rows = tuple(
        (scorer, kind, float(np.mean(own[(scorer, kind)])),
         float(np.max(numer[(scorer, kind)])))
        for scorer, kind in sorted(own)
    )
    return ManipulationResult(
        scenario_name=scenario.name,
        seeds=tuple(ctx.seed for ctx in contexts),
        rows=rows,
    )
