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
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..games import Coalition, CoalitionOracle, GameError
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
    init_params,
    sgd_train,
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

# Coalition models per stacked evaluation when a round game is tabulated.
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
        if self.lr <= 0 or self.batch_size < 1:
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

    def update_for(self, client: int) -> ClientUpdate:
        for u in self.updates:
            if u.client == client:
                return u
        raise FederationError(f"no update from client {client} in round {self.round}")


class ModelEvaluator:
    """Fixed-test-set utility v(model); counts every evaluation.

    utility_kind "accuracy" is the mean test accuracy, "neg_loss" the
    negative mean test cross-entropy.  Thread safe.
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
        counts c evaluations."""
        with self._lock:
            self._count += len(stack)
        if self.utility_kind == "accuracy":
            return stack_accuracy(self.arch, stack, self.test)
        return -stack_mean_loss(self.arch, stack, self.test)

    @property
    def call_count(self) -> int:
        with self._lock:
            return self._count


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

    chunks = None
    if isinstance(evaluator, ModelEvaluator):
        def chunks():
            for masks, stack in _coalition_model_chunks(transcript):
                yield masks, evaluator.evaluate_stack(stack)

    return CoalitionOracle(transcript.n_clients, value, chunks)


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


def _coalition_model_chunks(transcript: RoundTranscript):
    """The coalition models in (masks, stack) chunks of _TABULATION_CHUNK,
    each checked finite before it is evaluated."""
    models = _coalition_models(transcript)
    while chunk := list(itertools.islice(models, _TABULATION_CHUNK)):
        masks = [mask for mask, _ in chunk]
        stack = np.stack([model for _, model in chunk])
        _check_models(masks, stack)
        yield masks, stack


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
    config: FederationConfig,
    arch: MlpArch,
    m_init: ModelParams,
    shards: Sequence[LabeledDataset],
    members: Sequence[int],
) -> list[RoundTranscript]:
    """Run the round loop for the given subset of clients.

    ``members`` are global client ids; each keeps its own training stream,
    so the grand-coalition run is bit-identical to run_federation.  Updates
    are scaled by 1/len(members).
    """
    scale = 1.0 / len(members)
    m0 = m_init
    transcripts = []
    for t in range(1, config.rounds + 1):
        updates = []
        for i in members:
            try:
                local = sgd_train(
                    arch, m0, shards[i],
                    epochs=config.local_epochs,
                    lr=config.lr,
                    batch_size=config.batch_size,
                    seed=[config.seed, _SEED_TRAIN, t, i],
                )
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"client {i} diverged in round {t}: {exc}", round=t
                ) from exc
            updates.append(ClientUpdate(client=i, delta=(local - m0).scale(scale)))
        m = ModelParams(m0.values + np.sum([u.delta.values for u in updates], axis=0))
        transcripts.append(RoundTranscript(round=t, m0=m0, updates=tuple(updates), m=m))
        m0 = m
    return transcripts


def test_set_for(config: FederationConfig) -> LabeledDataset:
    """The deterministic test split a config implies (no training)."""
    return _prepare(config)[1]


def run_federation(config: FederationConfig) -> tuple[list[RoundTranscript], LabeledDataset]:
    """Run the full federation and return its transcripts plus the test set.

    Bit-identical across reruns of the same config.
    """
    shards, test, arch, m_init = _prepare(config)
    transcripts = _federate(config, arch, m_init, shards, range(config.n_clients))
    return transcripts, test


class RetrainingGame:
    """Ground-truth coalition utility by actually retraining.

    v(S) trains a fresh federation restricted to the members of S (same
    data shards, same init, same per-client training streams as the full
    run) and evaluates the final model; v(empty) is the utility of the
    initial model.  Values are memoised per coalition, so asking twice is
    free and exactly reproducible.
    """

    def __init__(self, config: FederationConfig):
        self.config = config
        self._shards, test, self._arch, self._m_init = _prepare(config)
        self._evaluator = ModelEvaluator(self._arch, test, config.utility_kind)
        self._memo: dict[int, float] = {}
        self._lock = threading.Lock()

    @property
    def n_clients(self) -> int:
        return self.config.n_clients

    def value(self, coalition: Coalition) -> float:
        if coalition.mask >> self.n_clients:
            raise GameError(
                f"coalition {coalition.members} out of range for "
                f"{self.n_clients} clients"
            )
        with self._lock:
            if coalition.mask in self._memo:
                return self._memo[coalition.mask]
        if coalition.mask == 0:
            out = self._evaluator(self._m_init)
        else:
            transcripts = _federate(
                self.config, self._arch, self._m_init, self._shards,
                coalition.members,
            )
            out = self._evaluator(transcripts[-1].m)
        with self._lock:
            self._memo[coalition.mask] = out
        return out

    def oracle(self) -> CoalitionOracle:
        """A fresh auditing oracle over this (memoised) game."""
        return CoalitionOracle(self.n_clients, self.value)
