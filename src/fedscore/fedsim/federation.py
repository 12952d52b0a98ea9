"""Deterministic cross-silo federation on synthetic data.

One communication round: every client trains locally from the shared start
model, reports the scaled update U_i = (local - start) / N, and the server
aggregates m = start + sum(U_i).  That makes the aggregate exactly the
uniform average of the local models, and it makes "the model a coalition S
would have produced this round" the simple vector start + sum_{i in S} U_i,
which is what the per-round coalition games evaluate.  A round's transcript
holds the N updates as one (N, dim) array whose row i is client i's U_i.

Every random draw comes from a stream derived from (seed, fixed tag,
round, client), so reruns are bit-identical and a retrained sub-federation
reuses exactly the per-client streams of the full run.

Local training runs in lockstep: all clients of a round, of every seed
one config runs under and of every coalition a retraining game trains, go
through one stacked SGD trainer (``mlp.sgd_train_rows``), each row on its
own stream, and each ends bit-identical to training it alone.  Failures
are reported as the sequential order would meet them first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..games import SHAPLEY_MAX_CLIENTS, CoalitionOracle, GameError, coalition_members
from .data import (
    LabeledDataset,
    SyntheticSpec,
    dirichlet_partition,
    flip_labels,
    generate_synthetic,
    iid_partition,
)
from .mlp import (
    MlpArch,
    ModelError,
    ModelParams,
    TrainingDiverged,
    _ROW_CAP,
    accuracy_screen,
    coalition_screen,
    init_params,
    sgd_train_rows,
    stack_accuracy,
    stack_mean_loss,
)

# Tags keeping the derived RNG streams of unrelated stages disjoint.
_SEED_DATA = 1
_SEED_PARTITION = 2
_SEED_NOISE = 3
_SEED_INIT = 4
_SEED_TRAIN = 5

# Aggregation is float sums of float sums; transcripts must reproduce the
# server model from the updates to this tolerance, coordinate-wise.
AGGREGATION_TOL = 1e-9

UTILITY_KINDS = ("accuracy", "neg_loss")

# Coalition models per stacked evaluation when a game is tabulated, by
# utility kind.  At the bundled sizes (24 features, 1,000 test samples,
# 4 classes), with two processes evaluating at once as two Shapley
# workers do (2-vCPU Xeon, median of 5 over the 10 round games of one
# default repeat at master seed 3), accuracy took 17.8-18.1, 15.6-16.2,
# 14.8-14.9 and 15.1-15.3 ms per game in stacks of 16, 32, 64 and 128,
# now that coalition_screen leaves each stack about a third of the
# samples; the loss took 253-268, 261-267 and 287-305 us per model in
# stacks of 8, 16 and 32.
_TABULATION_CHUNK = {"accuracy": 64, "neg_loss": 8}


class FederationError(ValueError):
    """Invalid federation configuration or transcript."""


@dataclass(frozen=True)
class FederationConfig:
    """Everything needed to rerun a federation bit-for-bit.

    noise_rates, when given, lists one label-flip probability per client,
    applied to that client's shard before any training.  flip_target
    switches the corruption from uniform relabelling to a fixed class.
    """

    n_clients: int
    rounds: int
    dirichlet_mu: float = 0.5
    iid: bool = False
    local_epochs: int = 3
    lr: float = 0.2
    batch_size: int = 16
    seed: int = 0
    noise_rates: tuple[float, ...] | None = None
    flip_target: int | None = None
    utility_kind: str = "neg_loss"
    dataset: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if self.n_clients < 1:
            raise FederationError(f"need at least one client, got {self.n_clients}")
        if self.rounds < 1:
            raise FederationError(f"need at least one round, got {self.rounds}")
        if not (self.dirichlet_mu > 0 and np.isfinite(self.dirichlet_mu)):
            raise FederationError(
                f"dirichlet_mu must be positive, got {self.dirichlet_mu}"
            )
        if self.local_epochs < 0:
            raise FederationError(f"local_epochs must be nonnegative, got {self.local_epochs}")
        if self.seed < 0:
            raise FederationError(f"seed must be nonnegative, got {self.seed}")
        if not (self.lr > 0 and np.isfinite(self.lr)) or self.batch_size < 1:
            raise FederationError(
                f"bad training settings: lr={self.lr} batch_size={self.batch_size}"
            )
        if self.noise_rates is not None:
            rates = tuple(float(r) for r in self.noise_rates)
            if len(rates) != self.n_clients:
                raise FederationError(
                    f"noise_rates has {len(rates)} entries for "
                    f"{self.n_clients} clients"
                )
            if any(not 0.0 <= r <= 1.0 for r in rates):
                raise FederationError(f"noise rates must lie in [0, 1]: {rates}")
            object.__setattr__(self, "noise_rates", rates)
        if self.utility_kind not in UTILITY_KINDS:
            raise FederationError(
                f"utility_kind must be one of {UTILITY_KINDS}, got "
                f"{self.utility_kind!r}"
            )
        if self.flip_target is not None and not (
            0 <= self.flip_target < self.dataset.n_classes
        ):
            raise FederationError(
                f"flip_target {self.flip_target} out of range for "
                f"{self.dataset.n_classes} classes"
            )


@dataclass(frozen=True)
class RoundTranscript:
    """What the server knows after one round: the start model m0, the
    scaled updates as one read-only float64 (N, dim) array whose row k is
    client k's, and the aggregate m.  Validates m = m0 + sum of the rows."""

    round: int
    m0: ModelParams
    updates: np.ndarray
    m: ModelParams

    def __post_init__(self):
        if self.round < 1:
            raise FederationError(f"round indices are 1-based, got {self.round}")
        updates = np.array(self.updates, dtype=np.float64)
        if updates.ndim != 2 or not len(updates):
            raise FederationError(
                f"updates must be a (clients, dim) array with a row per client, "
                f"got shape {updates.shape}"
            )
        dim = self.m0.dim
        if updates.shape[1] != dim:
            raise FederationError(f"updates have dim {updates.shape[1]}, expected {dim}")
        finite = np.isfinite(updates).all(axis=1)
        if not finite.all():
            raise FederationError(
                f"update of client {int(np.argmin(finite))} contains non-finite values"
            )
        updates.setflags(write=False)
        object.__setattr__(self, "updates", updates)
        if self.m.dim != dim:
            raise FederationError(f"aggregate has dim {self.m.dim}, expected {dim}")
        total = self.m0.values + updates.sum(axis=0)
        if not np.allclose(self.m.values, total, rtol=0.0, atol=AGGREGATION_TOL):
            raise FederationError(
                "aggregate does not equal start model plus the sum of updates"
            )

    @property
    def n_clients(self) -> int:
        return len(self.updates)

    @property
    def dim(self) -> int:
        return self.m0.dim


class ModelEvaluator:
    """Fixed-test-set utility v(model); counts every evaluation.

    utility_kind "accuracy" is the mean test accuracy, "neg_loss" the
    negative mean test cross-entropy.  Not to be shared between threads;
    a forked copy that evaluates on a worker process counts there, and
    ``add_calls`` adds that count back.
    """

    def __init__(self, arch: MlpArch, test: LabeledDataset, utility_kind: str = "neg_loss"):
        if utility_kind not in UTILITY_KINDS:
            raise FederationError(
                f"utility_kind must be one of {UTILITY_KINDS}, got {utility_kind!r}"
            )
        if test.dim != arch.in_dim or test.n_classes != arch.n_classes:
            raise FederationError("test set does not match the architecture")
        self.arch = arch
        self.test = test
        self.utility_kind = utility_kind
        self._count = 0
        self._screen = None  # accuracy_screen(test), on first use
        # The flat offset of each sample's label logit in a (n, K) block,
        # for stack_mean_loss's gather.
        self._offsets = test.labels + arch.n_classes * np.arange(test.n_samples)

    def __call__(self, model: ModelParams) -> float:
        return float(self.evaluate_stack(model.values[None])[0])

    def evaluate_stack(self, stack: np.ndarray, coalitions=None) -> np.ndarray:
        """Utilities of the models in the rows of a (c, n_params) stack;
        counts c evaluations.  ``coalitions`` is None, or the
        :meth:`round_screen` of the round game whose coalition models the
        stack holds.  Raises ModelError, counting nothing, when the stack
        is not 2-D with one column per parameter."""
        if stack.ndim != 2 or stack.shape[1] != self.arch.n_params:
            raise ModelError(
                f"model stack of shape {stack.shape} is not "
                f"(models, {self.arch.n_params})"
            )
        self._count += len(stack)
        if self.utility_kind == "accuracy":
            return stack_accuracy(self.arch, stack, self.test, self._accuracy_screen(),
                                  coalitions)
        return -stack_mean_loss(self.arch, stack, self.test, self._offsets)

    def round_screen(self, transcript: RoundTranscript):
        """The test samples that a round's coalition models all get right,
        or all get wrong, proven at once (``mlp.coalition_screen``); None
        under neg_loss, or when none is proven.  Evaluates and counts
        nothing."""
        if self.utility_kind != "accuracy":
            return None
        terms = np.vstack([transcript.m0.values, transcript.updates])
        return coalition_screen(self.arch, terms, self.test, self._accuracy_screen())

    def _accuracy_screen(self):
        if self._screen is None:
            self._screen = accuracy_screen(self.test)
        return self._screen

    @property
    def call_count(self) -> int:
        return self._count

    def add_calls(self, count: int) -> None:
        """Count evaluations that a forked copy of this evaluator made."""
        self._count += count


def model_eval_oracle(test: LabeledDataset, utility_kind: str = "neg_loss") -> ModelEvaluator:
    """Evaluator over models for the fixed test set; the architecture is
    implied by the data (input width from features, fixed hidden width)."""
    return ModelEvaluator(MlpArch.for_data(test), test, utility_kind)


def round_oracle(transcript: RoundTranscript, evaluator: ModelEvaluator) -> CoalitionOracle:
    """The round's coalition game: v(S) = evaluator(m0 + sum_{i in S} U_i).

    Client i here means row i of the transcript's updates.  The empty
    coalition evaluates the unmodified start model.  Every model and
    utility is bit-identical to building its coalition alone by the
    ascending fold and evaluating it alone.  A request for the whole game,
    ``range(2^N)``, evaluates the coalition table in stacked chunks; under
    accuracy it first settles the test samples that an interval bound over
    all 2^N coalition models decides (:meth:`ModelEvaluator.round_screen`),
    and the chunks evaluate only the samples left open; each coalition
    still counts once.  Any other request builds its models one at a
    time, in request order: a copy of m0 adds its members' updates in
    ascending order, in place, and is evaluated by one
    ``ModelEvaluator.__call__`` before the next mask's model is built, so
    a request holds one model however many masks it names.  The model's
    ``ModelParams`` check is its one finite scan: a non-finite model is
    refused by its coalition after the masks before it were evaluated.
    """

    def utilities(masks):
        if isinstance(masks, range) and masks == range(1 << transcript.n_clients):
            yield from _evaluate_chunks(evaluator, masks, _coalition_table(transcript),
                                        evaluator.round_screen(transcript))
            return
        # One ModelEvaluator.__call__ per model: the benchmark's tracer
        # (perfbench/tracing.py) counts those calls to audit the 2N+2
        # probe set, so a request other than the whole game is not stacked.
        for mask in masks:
            members = coalition_members(mask)
            model = transcript.m0.values.copy()
            for i in members:
                model += transcript.updates[i]
            try:
                params = ModelParams(model)
            except ModelError:
                raise ModelError(f"model of coalition {members} contains "
                                 "non-finite values") from None
            yield [evaluator(params)]

    return CoalitionOracle(transcript.n_clients, utilities, evaluator)


def _check_models(masks: Sequence[int], stack: np.ndarray) -> None:
    """Refuse a non-finite coalition model, naming its coalition."""
    finite = np.isfinite(stack).all(axis=1)
    if not finite.all():
        members = coalition_members(masks[int(np.argmin(finite))])
        raise ModelError(f"model of coalition {members} contains non-finite values")


def _coalition_table(transcript: RoundTranscript) -> np.ndarray:
    """Every coalition's model as one (2^N, n_params) table, row = mask.

    Rows 2^j..2^(j+1)-1 are rows 0..2^j-1 plus U_j, one block add per
    client: model(S) = model(S - {max S}) + U_{max S}, the ascending left
    fold the per-coalition game computes, so each row is bit-identical
    to it.
    """
    table = np.empty((1 << transcript.n_clients, transcript.dim))
    table[0] = transcript.m0.values
    for j, delta in enumerate(transcript.updates):
        np.add(table[: 1 << j], delta, out=table[1 << j : 2 << j])
    return table


def _evaluate_chunks(
    evaluator: ModelEvaluator, masks: Sequence[int], models: np.ndarray, coalitions=None,
):
    """Yield the utilities of the coalition models in the rows of a
    stack, ``models`` (a round game's coalition table, or a retraining
    game's final models), in row order; ``masks`` names each row's
    coalition.  The rows are checked finite once: those before the first
    non-finite one are evaluated in stacks of contiguous rows
    (_TABULATION_CHUNK), and then its coalition is refused by name, as
    the per-coalition game meets them.  ``coalitions``, a round game's
    :meth:`ModelEvaluator.round_screen`, goes to every stack, which then
    screens only the test samples it left open."""
    finite = np.isfinite(models).all(axis=1)
    stop = len(models) if finite.all() else int(np.argmin(finite))
    chunk = _TABULATION_CHUNK[evaluator.utility_kind]
    for lo in range(0, stop, chunk):
        yield evaluator.evaluate_stack(models[lo : min(lo + chunk, stop)], coalitions)
    _check_models(masks[stop:], models[stop:])


def _noisy_shards(config: FederationConfig, shards: list[LabeledDataset]) -> list[LabeledDataset]:
    if config.noise_rates is None:
        return shards
    return [
        flip_labels(
            shard,
            config.noise_rates[i],
            seed=[config.seed, _SEED_NOISE, i],
            target=config.flip_target,
        )
        for i, shard in enumerate(shards)
    ]


def _prepare(config: FederationConfig):
    """Data, shards (noise applied), init model, arch, and test set."""
    train, test = generate_synthetic(
        config.dataset, config.n_clients, seed=[config.seed, _SEED_DATA]
    )
    if config.iid:
        shards = iid_partition(train, config.n_clients, seed=[config.seed, _SEED_PARTITION])
    else:
        shards = dirichlet_partition(
            train, config.n_clients, config.dirichlet_mu,
            seed=[config.seed, _SEED_PARTITION],
        )
    shards = _noisy_shards(config, shards)
    arch = MlpArch(in_dim=config.dataset.dim, n_classes=config.dataset.n_classes)
    m_init = init_params(arch, seed=[config.seed, _SEED_INIT])
    return shards, test, arch, m_init


def test_set_for(config: FederationConfig) -> LabeledDataset:
    """The deterministic test split a config implies (no training)."""
    return _prepare(config)[1]


def run_federations(
    config: FederationConfig, seeds: Sequence[int]
) -> list[tuple[list[RoundTranscript], LabeledDataset]]:
    """Run ``config`` once per seed; return each run's transcripts and test set.

    The runs train in lockstep: in each round, every client of every run
    still training trains from its run's start model in one
    :func:`sgd_train_rows` call, each on its own stream, so every run is
    bit-identical to :func:`run_federation` on ``config`` with its seed.
    Updates are scaled by 1/n_clients.

    A failure is the one running the seeds in list order would raise
    first: the lowest failing run, its first failing round, its lowest
    failing client.  Runs from a failing one on stop training; those
    below it run to the end.
    """
    prepared = [_prepare(replace(config, seed=seed)) for seed in seeds]
    n = config.n_clients
    scale = 1.0 / n
    m0 = [m_init for *_, m_init in prepared]
    transcripts: list[list[RoundTranscript]] = [[] for _ in seeds]
    failure = None
    live = len(seeds)
    for t in range(1, config.rounds + 1):
        if not live:
            break
        streams = [
            (prepared[f][0][i], [seeds[f], _SEED_TRAIN, t, i])
            for f in range(live) for i in range(n)
        ]
        # The start rows are references to each run's model, so the
        # trainer's copy is the round's only start stack.
        starts = [m0[f].values for f in range(live) for _ in range(n)]
        local, diverged = sgd_train_rows(
            prepared[0][2], starts, streams, epochs=config.local_epochs,
            lr=config.lr, batch_size=config.batch_size,
        )
        for f in range(live):
            # Row i is client i's scaled update; a diverged client i fails
            # unless a lower client's update is already non-finite.
            block = (local[f * n : (f + 1) * n] - m0[f].values) * scale
            i = n if diverged is None else diverged.row - f * n
            try:
                if i < n and np.isfinite(block[:i]).all():
                    raise TrainingDiverged(
                        f"client {i} diverged in round {t}: {diverged}", round=t
                    ) from diverged
                m = ModelParams(m0[f].values + block.sum(axis=0))
                transcripts[f].append(RoundTranscript(round=t, m0=m0[f], updates=block, m=m))
                m0[f] = m
            except (TrainingDiverged, ModelError, FederationError) as exc:
                # every later failure belongs to a lower run, and wins
                failure, live = exc, f
                break
    if failure is not None:
        raise failure
    return [(run, test) for run, (_, test, *_) in zip(transcripts, prepared)]


def run_federation(config: FederationConfig) -> tuple[list[RoundTranscript], LabeledDataset]:
    """Run the full federation and return its transcripts plus the test set.

    Bit-identical across reruns of the same config.
    """
    return run_federations(config, [config.seed])[0]


class RetrainingGame:
    """Ground-truth coalition utility by actually retraining.

    v(S) trains a fresh federation restricted to the members of S (same
    data shards, same init, same per-client training streams as the full
    run) and evaluates the final model; v(empty) is the utility of the
    initial model.  Nothing is memoised: the experiment runs cache each
    repeat's SV, so no value is asked for twice.  More than
    ``SHAPLEY_MAX_CLIENTS`` clients are refused before any data is
    generated.

    Within a round, client i trains on the same batches in every coalition
    that contains it; only the start model differs.  So coalitions train
    in lockstep, round by round, through one round loop (:meth:`_retrain`)
    over their (client, coalition) pairs, and each coalition ends
    bit-identical to its own federation run.  Tabulating the oracle
    trains all 2^N coalitions this way; ``value(mask)`` trains just the
    one with that bitmask.
    """

    def __init__(self, config: FederationConfig):
        if config.n_clients > SHAPLEY_MAX_CLIENTS:
            raise FederationError(f"true SV is capped at {SHAPLEY_MAX_CLIENTS} "
                                  f"clients, got {config.n_clients}")
        self.config = config
        self._shards, test, self._arch, self._m_init = _prepare(config)
        self._evaluator = ModelEvaluator(self._arch, test, config.utility_kind)

    @property
    def n_clients(self) -> int:
        return self.config.n_clients

    def value(self, mask: int) -> float:
        if mask >> self.n_clients:
            raise GameError(
                f"coalition {coalition_members(mask)} out of range for "
                f"{self.n_clients} clients"
            )
        ((utility,),) = self._retrain([mask])
        return float(utility)

    def oracle(self) -> CoalitionOracle:
        """A fresh auditing oracle over this game; a request retrains its
        coalitions in lockstep."""
        return CoalitionOracle(self.n_clients, self._retrain, self._evaluator)

    def _retrain(self, masks: Sequence[int]):
        """Train the coalitions in ``masks`` in lockstep, then yield their
        utilities, in ``masks`` order, in evaluated chunks.

        Each round trains a list of (client, coalition) pairs, client-major,
        :data:`_ROW_CAP` at a time by :func:`sgd_train_rows`, each from its
        coalition's start model.  From round 2 on that list is every pair,
        and each pair's update serves its own coalition.  In round 1 every
        coalition starts from the initial model, so a client's update is
        the same in all of them: the list is each client's first pair, and
        its update serves every coalition that holds the client.  Either
        way a served coalition adds the update scaled by its own 1/|S| to
        its round total, which starts at 0.0 and takes its members in
        ascending client order: the sequential fold ``np.sum(deltas,
        axis=0)`` performs in :func:`run_federations`.  A divergence names
        the lowest diverging pair in that order; in round 1 a client
        diverges alike in all its pairs, so that is its first coalition.
        """
        cfg = self.config
        trained = [mask for mask in masks if mask]
        models = np.tile(self._m_init.values, (len(trained), 1))
        scales = 1.0 / np.array([mask.bit_count() for mask in trained])
        pairs = np.array(
            [(i, k) for i in range(self.n_clients)
             for k, mask in enumerate(trained) if mask >> i & 1],
            dtype=np.int64,
        ).reshape(-1, 2)
        firsts = pairs[np.unique(pairs[:, 0], return_index=True)[1]]
        total = np.empty_like(models)
        for t in range(1, cfg.rounds + 1):
            total.fill(0.0)
            streams = [(shard, [cfg.seed, _SEED_TRAIN, t, i])
                       for i, shard in enumerate(self._shards)]
            todo = firsts if t == 1 else pairs
            for lo in range(0, len(todo), _ROW_CAP):
                clients, rows = todo[lo : lo + _ROW_CAP].T
                start = models[rows]
                local, diverged = sgd_train_rows(
                    self._arch, start, [streams[i] for i in clients],
                    epochs=cfg.local_epochs,
                    lr=cfg.lr,
                    batch_size=cfg.batch_size,
                )
                if diverged is not None:
                    i = clients[diverged.row]
                    members = coalition_members(trained[rows[diverged.row]])
                    raise TrainingDiverged(
                        f"client {i} diverged in round {t} in coalition "
                        f"{members}: {diverged}",
                        round=t,
                    ) from diverged
                local -= start
                # Clients go in ascending order, so each total folds its
                # members in order; one client's served rows are distinct.
                for i in np.unique(clients):
                    mine = clients == i
                    served = pairs[pairs[:, 0] == i, 1] if t == 1 else rows[mine]
                    total[served] += local[mine] * scales[served, None]
            models += total
            _check_models(trained, models)
        del total  # not needed while the chunks below are evaluated

        row = {mask: k for k, mask in enumerate(trained)}
        final = np.stack([models[row[mask]] if mask else self._m_init.values
                          for mask in masks])
        del models
        yield from _evaluate_chunks(self._evaluator, masks, final)
