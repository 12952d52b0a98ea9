"""Deterministic cross-silo federation on synthetic data.

One communication round: every client trains locally from the shared start
model, reports the scaled update U_i = (local - start) / N, and the server
aggregates m = start + sum(U_i).  That makes the aggregate exactly the
uniform average of the local models, and it makes "the model a coalition S
would have produced this round" the simple vector start + sum_{i in S} U_i,
which is what the per-round coalition games evaluate.

Every random draw comes from a stream derived from (seed, fixed tag,
round, client), so reruns are bit-identical and a retrained sub-federation
reuses exactly the per-client streams of the full run.

Local training runs in lockstep: all clients of a round, of every
federation in a list and of every coalition a retraining game trains, go
through one stacked SGD trainer (``mlp.sgd_train_rows``), each row on its
own stream, and each ends bit-identical to training it alone.  Failures
are reported as the sequential order would meet them first.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..games import SHAPLEY_MAX_CLIENTS, Coalition, CoalitionOracle, GameError
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

# Coalition models per stacked evaluation when a game is tabulated.
_TABULATION_CHUNK = 4


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
class ClientUpdate:
    """One client's scaled update for one round."""

    client: int
    delta: ModelParams

    def __post_init__(self):
        if self.client < 0:
            raise FederationError(f"negative client index {self.client}")


@dataclass(frozen=True)
class RoundTranscript:
    """What the server knows after one round: start model, the scaled
    updates, and the aggregate.  Validates m = m0 + sum(deltas)."""

    round: int
    m0: ModelParams
    updates: tuple[ClientUpdate, ...]
    m: ModelParams

    def __post_init__(self):
        if self.round < 1:
            raise FederationError(f"round indices are 1-based, got {self.round}")
        if not self.updates:
            raise FederationError("a round needs at least one client update")
        updates = tuple(self.updates)
        object.__setattr__(self, "updates", updates)
        dim = self.m0.dim
        for u in updates:
            if u.delta.dim != dim:
                raise FederationError(
                    f"update of client {u.client} has dim {u.delta.dim}, "
                    f"expected {dim}"
                )
        if self.m.dim != dim:
            raise FederationError(f"aggregate has dim {self.m.dim}, expected {dim}")
        total = self.m0.values + np.sum([u.delta.values for u in updates], axis=0)
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
    negative mean test cross-entropy.  Thread safe, so threads may share
    one evaluator; a forked copy that evaluates on a worker process
    counts there, and ``add_calls`` adds that count back.
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
        self._lock = threading.Lock()
        self._count = 0

    def __call__(self, model: ModelParams) -> float:
        return float(self.evaluate_stack(model.values[None])[0])

    def evaluate_stack(self, stack: np.ndarray) -> np.ndarray:
        """Utilities of the models in the rows of a (c, n_params) stack;
        counts c evaluations.  Raises ModelError, counting nothing, when
        the stack is not 2-D with one column per parameter."""
        if stack.ndim != 2 or stack.shape[1] != self.arch.n_params:
            raise ModelError(
                f"model stack of shape {stack.shape} is not "
                f"(models, {self.arch.n_params})"
            )
        with self._lock:
            self._count += len(stack)
        if self.utility_kind == "accuracy":
            return stack_accuracy(self.arch, stack, self.test)
        return -stack_mean_loss(self.arch, stack, self.test)

    @property
    def call_count(self) -> int:
        with self._lock:
            return self._count

    def add_calls(self, count: int) -> None:
        """Count evaluations that a forked copy of this evaluator made."""
        with self._lock:
            self._count += count


def model_eval_oracle(test: LabeledDataset, utility_kind: str = "neg_loss") -> ModelEvaluator:
    """Evaluator over models for the fixed test set; the architecture is
    implied by the data (input width from features, fixed hidden width)."""
    return ModelEvaluator(MlpArch.for_data(test), test, utility_kind)


def round_oracle(
    transcript: RoundTranscript, evaluator: Callable[[ModelParams], float]
) -> CoalitionOracle:
    """The round's coalition game: v(S) = evaluator(m0 + sum_{i in S} U_i).

    Client i here means the i-th update in the transcript.  The empty
    coalition evaluates the unmodified start model.  With a
    :class:`ModelEvaluator`, tabulating the whole game evaluates the
    coalition models in stacked chunks; every model and utility is
    bit-identical to evaluating its coalition alone.
    """
    deltas = [u.delta.values for u in transcript.updates]
    m0 = transcript.m0

    def value(coalition: Coalition) -> float:
        model = m0.values
        for i in coalition.members:
            model = model + deltas[i]
        _check_models([coalition.mask], model[None])
        return float(evaluator(ModelParams(model)))

    if not isinstance(evaluator, ModelEvaluator):
        return CoalitionOracle(transcript.n_clients, value)

    def chunks():
        return _evaluate_chunks(evaluator, _coalition_models(transcript))

    return CoalitionOracle(transcript.n_clients, value, chunks, evaluator)


def _check_models(masks: Sequence[int], stack: np.ndarray) -> None:
    """Refuse a non-finite coalition model, naming its coalition."""
    finite = np.isfinite(stack).all(axis=1)
    if not finite.all():
        members = Coalition(masks[int(np.argmin(finite))]).members
        raise ModelError(f"model of coalition {members} contains non-finite values")


def _coalition_models(transcript: RoundTranscript):
    """Yield (mask, model) for every coalition, depth first from the empty one.

    model(S) = model(S - {max S}) + U_{max S}: the ascending left fold the
    per-coalition game computes, so each model is bit-identical to it.
    Only the models on the current path stay referenced.
    """
    deltas = [u.delta.values for u in transcript.updates]
    n = len(deltas)
    yield 0, transcript.m0.values
    todo = [(0, transcript.m0.values, j) for j in reversed(range(n))]
    while todo:
        parent, base, j = todo.pop()
        mask = parent | 1 << j
        model = base + deltas[j]
        yield mask, model
        todo.extend((mask, model, k) for k in reversed(range(j + 1, n)))


def _evaluate_chunks(evaluator: ModelEvaluator, models):
    """Yield (masks, utilities) for an iterator of (mask, model) pairs,
    stacking _TABULATION_CHUNK models per evaluation, each stack checked
    finite before it is evaluated."""
    while chunk := list(itertools.islice(models, _TABULATION_CHUNK)):
        masks = [mask for mask, _ in chunk]
        stack = np.stack([model for _, model in chunk])
        _check_models(masks, stack)
        yield masks, evaluator.evaluate_stack(stack)


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


def _federate(
    configs: Sequence[FederationConfig], prepared: Sequence[tuple]
) -> tuple[list[list[RoundTranscript]], dict[int, Exception]]:
    """Run the round loops of several federations in lockstep.

    ``prepared`` holds each config's :func:`_prepare` output, and every
    config shares the architecture, epochs, lr and batch size.  In each
    round, every client of every federation still running trains from its
    federation's start model in one :func:`sgd_train_rows` call, each on
    its own stream, so every federation is bit-identical to running it
    alone.  Updates are scaled by 1/n_clients.

    Returns the transcripts and the failures by federation index.  The
    lowest-indexed failure is the one running the federations one after
    another would raise: its first failing round, its lowest failing
    client.  Federations from a failing one on stop training, so a higher
    one may be missing from the failures; those below it run to the end.
    """
    first = configs[0]
    arch = prepared[0][2]
    m0 = [m_init for *_, m_init in prepared]
    transcripts: list[list[RoundTranscript]] = [[] for _ in configs]
    failures: dict[int, Exception] = {}
    live = range(len(configs))
    for t in range(1, max(config.rounds for config in configs) + 1):
        running = [f for f in live if configs[f].rounds >= t]
        if not running:
            break
        streams = [
            (prepared[f][0][i], [configs[f].seed, _SEED_TRAIN, t, i])
            for f in running for i in range(configs[f].n_clients)
        ]
        # The start rows are references to each federation's model, so
        # the trainer's copy is the round's only start stack.
        starts = [m0[f].values for f in running for _ in range(configs[f].n_clients)]
        local, diverged = sgd_train_rows(
            arch, starts, streams, epochs=first.local_epochs, lr=first.lr,
            batch_size=first.batch_size,
        )
        row = 0
        for f in running:
            scale = 1.0 / configs[f].n_clients
            try:
                updates = []
                for i in range(configs[f].n_clients):
                    if diverged is not None and diverged.row == row:
                        raise TrainingDiverged(
                            f"client {i} diverged in round {t}: {diverged}", round=t
                        ) from diverged
                    delta = ModelParams((local[row] - m0[f].values) * scale)
                    updates.append(ClientUpdate(client=i, delta=delta))
                    row += 1
                m = ModelParams(
                    m0[f].values + np.sum([u.delta.values for u in updates], axis=0)
                )
                transcripts[f].append(
                    RoundTranscript(round=t, m0=m0[f], updates=tuple(updates), m=m)
                )
                m0[f] = m
            except (TrainingDiverged, ModelError, FederationError) as exc:
                failures[f] = exc
                live = [g for g in live if g < f]
                break
    return transcripts, failures


def test_set_for(config: FederationConfig) -> LabeledDataset:
    """The deterministic test split a config implies (no training)."""
    return _prepare(config)[1]


def run_federations(
    configs: Sequence[FederationConfig],
) -> list[tuple[list[RoundTranscript], LabeledDataset]]:
    """Run several federations; return each one's transcripts and test set.

    Federations that share the architecture, local epochs, lr and batch
    size train in lockstep (see :func:`_federate`); each result is
    bit-identical to :func:`run_federation` on its config, and a failure
    is the one running them in list order would raise first.
    """
    prepared = [_prepare(config) for config in configs]
    groups: dict[tuple, list[int]] = {}
    for f, config in enumerate(configs):
        key = (prepared[f][2], config.local_epochs, config.lr, config.batch_size)
        groups.setdefault(key, []).append(f)
    transcripts: list = [None] * len(configs)
    failures = {}
    for members in groups.values():
        runs, failed = _federate(
            [configs[f] for f in members], [prepared[f] for f in members]
        )
        for k, run in enumerate(runs):
            transcripts[members[k]] = run
        failures.update((members[k], exc) for k, exc in failed.items())
    if failures:
        raise failures[min(failures)]
    return [(transcripts[f], prepared[f][1]) for f in range(len(configs))]


def run_federation(config: FederationConfig) -> tuple[list[RoundTranscript], LabeledDataset]:
    """Run the full federation and return its transcripts plus the test set.

    Bit-identical across reruns of the same config.
    """
    return run_federations([config])[0]


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
    in lockstep, round by round: a round's (client, coalition) rows go
    through :func:`sgd_train_rows`, client-major, and each coalition ends
    bit-identical to its own federation run.  Tabulating the oracle trains
    all 2^N coalitions this way; ``value`` trains just one.
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

    def value(self, coalition: Coalition) -> float:
        if coalition.mask >> self.n_clients:
            raise GameError(
                f"coalition {coalition.members} out of range for "
                f"{self.n_clients} clients"
            )
        ((_, utilities),) = self._retrain([coalition.mask])
        return float(utilities[0])

    def oracle(self) -> CoalitionOracle:
        """A fresh auditing oracle over this game; tabulating it retrains
        every coalition in lockstep."""
        return CoalitionOracle(
            self.n_clients, self.value,
            lambda: self._retrain(range(1 << self.n_clients)),
            self._evaluator,
        )

    def _retrain(self, masks: Sequence[int]):
        """Train the coalitions in ``masks`` in lockstep, then yield their
        (masks, utilities) in evaluated chunks.

        A round's rows are the (client, coalition) pairs, client-major,
        trained :data:`_ROW_CAP` at a time by :func:`sgd_train_rows`.
        Every coalition's round total starts at 0.0 and adds its members'
        scaled updates in ascending client order: the sequential fold
        ``np.sum(deltas, axis=0)`` performs in ``_federate``.  A divergence
        names the lowest diverging pair in that order.
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
        total = np.empty_like(models)
        for t in range(1, cfg.rounds + 1):
            total.fill(0.0)
            streams = [(shard, [cfg.seed, _SEED_TRAIN, t, i])
                       for i, shard in enumerate(self._shards)]
            for lo in range(0, len(pairs), _ROW_CAP):
                clients, rows = pairs[lo : lo + _ROW_CAP].T
                start = models[rows]
                local, diverged = sgd_train_rows(
                    self._arch, start, [streams[i] for i in clients],
                    epochs=cfg.local_epochs,
                    lr=cfg.lr,
                    batch_size=cfg.batch_size,
                )
                if diverged is not None:
                    i = clients[diverged.row]
                    members = Coalition(trained[rows[diverged.row]]).members
                    raise TrainingDiverged(
                        f"client {i} diverged in round {t} in coalition "
                        f"{members}: {diverged}",
                        round=t,
                    ) from diverged
                local -= start
                local *= scales[rows, None]
                # One client's rows name distinct coalitions; clients go in
                # ascending order, so each total folds its members in order.
                for i in np.unique(clients):
                    mine = clients == i
                    total[rows[mine]] += local[mine]
            models += total
            _check_models(trained, models)
        del total  # not needed while the chunks below are evaluated

        final = dict(zip(trained, models))
        final[0] = self._m_init.values
        yield from _evaluate_chunks(
            self._evaluator, ((mask, final[mask]) for mask in masks)
        )
