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
    communication round was running; ``row`` is the diverging model's
    index in a stacked training call.
    """

    def __init__(self, message: str, round: int | None = None, row: int | None = None):
        super().__init__(message)
        self.round = round
        self.row = row


@dataclass(frozen=True)
class ModelParams:
    """A flat, immutable float64 parameter vector.

    Construction validates finiteness, so a diverged model cannot
    propagate silently; aggregation works on ``values`` directly.
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


def _row_max(logits: np.ndarray) -> np.ndarray:
    """``logits.max(axis=-1)``, bit for bit, folded over the class columns.

    numpy reduces a short last axis one row at a time; K-1 elementwise
    passes over the strided (c, n) class columns are several times
    faster.  A max does no rounding, and ``np.maximum`` propagates NaN
    and picks between +0.0 and -0.0 just as the reduction does, so the
    result is exact for every K >= 2 (every architecture has two classes).
    """
    out = np.maximum(logits[..., 0], logits[..., 1])
    for j in range(2, logits.shape[-1]):
        np.maximum(out, logits[..., j], out=out)
    return out


def stack_mean_loss(arch: MlpArch, stack: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Mean softmax cross-entropy of every model in a stack.

    Bit-identical to gathering ``_log_softmax(logits)`` at the labels,
    and cheaper on a test set of many samples and few classes:

    * the row max goes column by column (:func:`_row_max`): a max does
      no rounding, and numpy's row-wise reduction of the short class
      axis costs more than the first-layer GEMM;
    * the exp-sum stays a reduction over the class axis, because from 8
      classes on numpy sums it pairwise, which a fold over the columns
      would not reproduce;
    * only the label column of the shifted logits is gathered, and the
      log-sum-exp is subtracted from it, so the (c, n, K) log-softmax is
      never built.

    Local SGD keeps :func:`_log_softmax`: its gradient needs every class,
    and on a 16-row batch the column max is slower than the reduction.
    """
    logits = _forward_stack(arch, stack, data.features)
    shifted = logits - _row_max(logits)[..., None]
    # The gather comes back in column order, and a row mean over it sums
    # in a different order than the mean over one model's 1-D gather.
    picked = np.ascontiguousarray(shifted[:, np.arange(data.n_samples), data.labels])
    picked -= np.log(np.exp(shifted).sum(axis=-1))
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
    grad = np.empty((1, arch.n_params))
    loss = _stack_loss_and_grad(
        _split(arch, params.values[None]), _split(arch, grad), features, labels
    )
    return float(loss[0]), grad[0]


def _stack_loss_and_grad(params, grads, features, labels) -> np.ndarray:
    """Mean cross-entropy on one batch of every model in a stack.

    ``params`` and ``grads`` are the :func:`_split` views of a
    (c, n_params) stack and of its gradient buffer, which is overwritten.
    Returns the (c,) losses.  Every row goes through exactly the float
    operations a lone model does: one GEMM per product, its loss from a
    contiguous gather, and the bias gradients summed along the batch axis.
    """
    w1, b1, w2, b2 = params
    dw1, db1, dw2, db2 = grads
    n = features.shape[0]
    hidden, logits = _layers(features, w1, b1, w2, b2)
    logp = _log_softmax(logits)
    rows = np.arange(n)
    losses = -np.ascontiguousarray(logp[:, rows, labels]).mean(axis=1)

    dlogits = np.exp(logp)
    dlogits[:, rows, labels] -= 1.0
    dlogits /= n
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=dw2)
    dlogits.sum(axis=1, out=db2)
    dz1 = dlogits @ w2.transpose(0, 2, 1)
    dz1 *= 1.0 - hidden**2
    np.matmul(features.T, dz1, out=dw1)
    dz1.sum(axis=1, out=db1)
    return losses


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
    stack = sgd_train_stack(
        arch, params.values[None], data, epochs, lr, batch_size, seed
    )
    return ModelParams(stack[0])


def sgd_train_stack(
    arch: MlpArch,
    stack: np.ndarray,
    data: LabeledDataset,
    epochs: int,
    lr: float,
    batch_size: int,
    seed,
) -> np.ndarray:
    """:func:`sgd_train` on every model of a (c, n_params) stack at once.

    Every row trains on the same batches, drawn from ``seed`` alone, and
    ends bit-identical to training it by itself.  Returns a new stack.
    Raises ModelError if the stack is not finite on entry, and
    TrainingDiverged, with ``row`` set, when a row's loss or parameters
    become non-finite.
    """
    if epochs < 0:
        raise ModelError(f"epochs must be nonnegative, got {epochs}")
    if lr <= 0 or batch_size < 1:
        raise ModelError(f"bad SGD settings: lr={lr} batch_size={batch_size}")
    stack = np.array(stack, dtype=np.float64)
    if not np.isfinite(stack).all():
        row = _first_nonfinite_row(stack)
        raise ModelError(f"parameters of row {row} contain non-finite values")
    rng = np.random.default_rng(seed)
    grad = np.empty_like(stack)
    # Views into the two buffers, which are only ever updated in place.
    params, grads = _split(arch, stack), _split(arch, grad)
    n = data.n_samples
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            losses = _stack_loss_and_grad(
                params, grads, data.features[batch], data.labels[batch]
            )
            finite = np.isfinite(losses)
            if not finite.all():
                row = int(np.argmin(finite))
                loss = float(losses[row])
                raise TrainingDiverged(f"local loss became {loss!r}", row=row)
            grad *= lr
            stack -= grad
            if not np.isfinite(stack).all():
                raise TrainingDiverged(
                    "parameters became non-finite after an update",
                    row=_first_nonfinite_row(stack),
                )
    return stack


def _first_nonfinite_row(stack: np.ndarray) -> int:
    return int(np.argmin(np.isfinite(stack).all(axis=1)))
