"""A deliberately small MLP trained with plain mini-batch SGD.

One tanh hidden layer of fixed width, softmax cross-entropy loss, and
analytic gradients written out by hand.  Parameters live in a single flat
float64 vector (:class:`ModelParams`) so that federated aggregation is
ordinary vector arithmetic and transcripts serialise as raw floats.

Packing order: W1 (dim x hidden, row-major), b1, W2 (hidden x classes,
row-major), b2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset

HIDDEN_UNITS = 32

# Weight init scale; tanh saturates fast, keep early activations tame.
_INIT_SCALE = 0.1


class ModelError(ValueError):
    """Invalid parameter vector or architecture mismatch."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during local training.

    ``round`` is filled in by the federation loop when it knows which
    communication round was running.
    """

    def __init__(self, message: str, round: int | None = None):
        super().__init__(message)
        self.round = round


@dataclass(frozen=True)
class ModelParams:
    """A flat, immutable float64 parameter vector.

    Supports the vector arithmetic federated aggregation needs: addition,
    subtraction, and scalar scaling.  Every operation validates finiteness
    so a diverged model cannot propagate silently.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ModelError(f"parameters must be a nonempty vector, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ModelError("parameters contain non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def __add__(self, other: "ModelParams") -> "ModelParams":
        self._check_peer(other)
        return ModelParams(self.values + other.values)

    def __sub__(self, other: "ModelParams") -> "ModelParams":
        self._check_peer(other)
        return ModelParams(self.values - other.values)

    def scale(self, factor: float) -> "ModelParams":
        return ModelParams(self.values * float(factor))

    def __mul__(self, factor: float) -> "ModelParams":
        return self.scale(factor)

    __rmul__ = __mul__

    def _check_peer(self, other: "ModelParams") -> None:
        if not isinstance(other, ModelParams):
            raise ModelError(f"expected ModelParams, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ModelError(f"dimension mismatch: {self.dim} vs {other.dim}")


@dataclass(frozen=True)
class MlpArch:
    """Shape of the network; the hidden width is fixed."""

    in_dim: int
    n_classes: int
    hidden: int = HIDDEN_UNITS

    def __post_init__(self):
        if self.in_dim < 1 or self.n_classes < 2 or self.hidden < 1:
            raise ModelError(
                f"bad architecture: in_dim={self.in_dim} "
                f"n_classes={self.n_classes} hidden={self.hidden}"
            )

    @property
    def n_params(self) -> int:
        return (self.in_dim + 1) * self.hidden + (self.hidden + 1) * self.n_classes

    @classmethod
    def for_data(cls, data: LabeledDataset) -> "MlpArch":
        return cls(in_dim=data.dim, n_classes=data.n_classes)


def init_params(arch: MlpArch, seed) -> ModelParams:
    """Gaussian init scaled for a tanh hidden layer; deterministic in seed."""
    rng = np.random.default_rng(seed)
    return ModelParams(rng.normal(0.0, _INIT_SCALE, size=arch.n_params))


def unpack(arch: MlpArch, params: ModelParams):
    """Split a flat vector into (W1, b1, W2, b2) views."""
    return _split(arch, params.values)


def _split(arch: MlpArch, flat: np.ndarray):
    """(W1, b1, W2, b2) views of the parameters along the last axis of
    ``flat``: one model as a vector, or a (c, n_params) stack of models."""
    if flat.shape[-1] != arch.n_params:
        raise ModelError(
            f"parameter vector of size {flat.shape[-1]} does not fit "
            f"architecture needing {arch.n_params}"
        )
    lead = flat.shape[:-1]
    d, h, k = arch.in_dim, arch.hidden, arch.n_classes
    i = 0
    w1 = flat[..., i : i + d * h].reshape(lead + (d, h))
    i += d * h
    b1 = flat[..., i : i + h]
    i += h
    w2 = flat[..., i : i + h * k].reshape(lead + (h, k))
    i += h * k
    b2 = flat[..., i : i + k]
    return w1, b1, w2, b2


def _layers(features: np.ndarray, w1, b1, w2, b2):
    """Hidden activations and logits; weights may carry a leading stack
    axis, in which case ``np.matmul`` runs the same GEMM on every slice."""
    # Bias and tanh in place, so a call allocates one (stack, samples,
    # hidden) array, not three: arrays that large come back from the
    # allocator as fresh pages, and faulting them in costs system time.
    hidden = features @ w1
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    return hidden, hidden @ w2 + b2[..., None, :]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward_stack(arch: MlpArch, stack: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Logits of every model in a (c, n_params) stack, shape (c, n, classes).

    Every slice goes through exactly the float operations a lone model
    does: one GEMM per layer, then elementwise bias and tanh.
    """
    return _layers(features, *_split(arch, stack))[1]


def forward_logits(arch: MlpArch, params: ModelParams, features: np.ndarray) -> np.ndarray:
    return _forward_stack(arch, params.values[None], features)[0]


def stack_mean_loss(arch: MlpArch, stack: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Mean softmax cross-entropy of every model in a stack."""
    logp = _log_softmax(_forward_stack(arch, stack, data.features))
    # The gathered view is not contiguous, and a row mean over it sums in
    # a different order than the mean over one model's 1-D gather.
    picked = np.ascontiguousarray(logp[:, np.arange(data.n_samples), data.labels])
    return -picked.mean(axis=1)


def stack_accuracy(arch: MlpArch, stack: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Accuracy of every model in a stack (ties toward the lower class)."""
    logits = _forward_stack(arch, stack, data.features)
    return np.mean(np.argmax(logits, axis=-1) == data.labels, axis=1)


def mean_loss(arch: MlpArch, params: ModelParams, data: LabeledDataset) -> float:
    """Mean softmax cross-entropy over the dataset."""
    return float(stack_mean_loss(arch, params.values[None], data)[0])


def accuracy(arch: MlpArch, params: ModelParams, data: LabeledDataset) -> float:
    """Fraction of correct argmax predictions (ties toward the lower class)."""
    return float(stack_accuracy(arch, params.values[None], data)[0])


def loss_and_grad(
    arch: MlpArch, params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy on a batch and its gradient as one flat vector."""
    w1, b1, w2, b2 = unpack(arch, params)
    n = features.shape[0]
    hidden, logits = _layers(features, w1, b1, w2, b2)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(n), labels].mean())

    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ w2.T
    dz1 = dhidden * (1.0 - hidden**2)
    dw1 = features.T @ dz1
    db1 = dz1.sum(axis=0)

    grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])
    return loss, grad


def sgd_train(
    arch: MlpArch,
    params: ModelParams,
    data: LabeledDataset,
    epochs: int,
    lr: float,
    batch_size: int,
    seed,
) -> ModelParams:
    """Run plain mini-batch SGD and return the trained parameters.

    Batches are drawn by reshuffling the shard each epoch; the last batch
    may be short.  epochs=0 returns the input unchanged.  Deterministic in
    (params, data, seed).  Raises TrainingDiverged on a non-finite loss.
    """
    if epochs < 0:
        raise ModelError(f"epochs must be nonnegative, got {epochs}")
    if lr <= 0 or batch_size < 1:
        raise ModelError(f"bad SGD settings: lr={lr} batch_size={batch_size}")
    rng = np.random.default_rng(seed)
    vec = params.values.copy()
    n = data.n_samples
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grad = loss_and_grad(
                arch, ModelParams(vec), data.features[batch], data.labels[batch]
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(f"local loss became {loss!r}")
            vec -= lr * grad
            if not np.all(np.isfinite(vec)):
                raise TrainingDiverged("parameters became non-finite after an update")
    return ModelParams(vec)
