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
from typing import Sequence

import numpy as np

from .data import LabeledDataset

HIDDEN_UNITS = 32

# Weight init scale; tanh saturates fast, keep early activations tame.
_INIT_SCALE = 0.1

# Most rows in one stacked SGD step, and in one call of a retraining
# game.  On 16-sample batches (24 features, 4 classes; 2-vCPU Xeon,
# OpenBLAS 0.3.31, best of 5) a step cost 12-17 us per row at 8 rows,
# 9-14 us at 16 to 32, and 18-23 us at 48 and 64.
_ROW_CAP = 32


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
    # Biases and tanh in place, so a call allocates one (stack, samples,
    # hidden) array, not three: arrays that large come back from the
    # allocator as fresh pages, and faulting them in costs system time.
    hidden = features @ w1
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2
    logits += b2[..., None, :]
    return hidden, logits


# Local SGD and the test-set loss call the ufuncs' reductions directly:
# ``ndarray.max``, ``sum`` and ``mean`` run the same reductions behind a
# Python wrapper that costs more than the arithmetic on one 16-sample batch.
_max, _sum = np.maximum.reduce, np.add.reduce


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - _max(logits, axis=-1, keepdims=True)
    return shifted - np.log(_sum(np.exp(shifted), axis=-1, keepdims=True))


def _forward_stack(arch: MlpArch, stack: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Logits of every model in a (c, n_params) stack, shape (c, n, classes).

    Every slice goes through exactly the float operations a lone model
    does: one GEMM per layer, then elementwise bias and tanh.  A one-row
    stack runs the 2-D GEMMs, the same BLAS call as the (1, n, d)
    broadcast without its stacked dispatch.
    """
    if len(stack) == 1:
        return _layers(features, *_split(arch, stack[0]))[1][None]
    return _layers(features, *_split(arch, stack))[1]


def _row_max(logits: np.ndarray) -> np.ndarray:
    """``logits.max(axis=-1)``, folded over the class columns.

    numpy reduces a short last axis one row at a time; K-1 elementwise
    passes over the strided (c, n) class columns are several times
    faster.  A max does no rounding and ``np.maximum`` propagates NaN, so
    the result is exact for every K >= 2 (every architecture has two
    classes) up to the sign of a zero max.  On numpy's X86_V3-and-up
    kernels ``np.maximum`` picks between +0.0 and -0.0 as the reduction
    does; on the baseline kernels (``NPY_DISABLE_CPU_FEATURES="AVX512_SPR
    AVX512_ICL X86_V4 X86_V3"``) 8 of the 4,096 4-tuples over
    {±0, ±1, ±inf, nan, 5e-324} give a zero max of the other sign: the
    fold gives -0.0 and the reduction 0.0 for (0.0, -0.0, -1.0, -1.0).
    There a loss can differ only in the sign of an exact zero.
    """
    out = np.maximum(logits[..., 0], logits[..., 1])
    for j in range(2, logits.shape[-1]):
        np.maximum(out, logits[..., j], out=out)
    return out


def stack_mean_loss(
    arch: MlpArch, stack: np.ndarray, data: LabeledDataset, offsets=None
) -> np.ndarray:
    """Mean softmax cross-entropy of every model in a stack.

    Bit-identical to gathering ``_log_softmax(logits)`` at the labels,
    and cheaper on a test set of many samples and few classes:

    * the row max goes column by column (:func:`_row_max`): a max does
      no rounding, and numpy's row-wise reduction of the short class
      axis costs more than the first-layer GEMM;
    * the logits are shifted by the row max in place, and one
      ``np.take`` of the flat offsets ``labels + K * arange(n)``
      (``offsets``, which an evaluator computes once) gathers the
      shifted label logits, so neither the log-softmax nor a copy of the
      logits is built;
    * the exp then overwrites the shifted logits.  Below 8 classes the
      exp-sum folds the class columns left to right: numpy reduces a
      contiguous axis that short as a left fold, so the sum has the same
      bits.  From 8 classes on numpy sums pairwise, which a fold would
      not reproduce, so the sum stays its reduction over the class axis;
    * the log is taken in place, and the mean is ``np.add.reduce`` over
      the samples divided by n, which is what ``ndarray.mean`` computes.

    Local SGD keeps :func:`_log_softmax`: its gradient needs every class,
    and on a 16-row batch the column max is slower than the reduction.
    """
    n, k = data.n_samples, arch.n_classes
    if offsets is None:
        offsets = data.labels + k * np.arange(n)
    logits = _forward_stack(arch, stack, data.features)
    logits -= _row_max(logits)[..., None]
    picked = np.take(logits.reshape(len(stack), n * k), offsets, axis=1)
    exps = np.exp(logits, out=logits)
    if k < 8:
        total = exps[..., 0] + exps[..., 1]
        for j in range(2, k):
            total += exps[..., j]
    else:
        total = _sum(exps, axis=-1)
    picked -= np.log(total, out=total)
    # -(sum / n): a correctly rounded division is symmetric in sign.
    return _sum(picked, axis=1) / -n


# The most float32 and float64 ``np.tanh`` may miss ``tanh`` by: 16 units
# in the last place of a value in [0.5, 1), eight times the largest error
# measured on either of numpy's tanh kernels (tests/test_accuracy_screen.py).
_TANH32_ERR = 2.0**-20
_TANH64_ERR = 2.0**-49

# Open (model, sample) pairs refined at once.  Each pair takes copies of
# its model's parameters (15 KB at the bundled sizes), so a stack whose
# every sample is open, as when all logits tie, stays within a few MB.
_REFINED_PAIRS = 256


def accuracy_screen(data: LabeledDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`stack_accuracy`'s float32 screen needs of a test set:
    every sample's feature norm ||x_i||_2, the flat offset y_i*n + i of
    its label logit in a class-major (K, n) block of logits, and the
    features transposed to float32 with a row of ones below, (d+1, n).
    An evaluator computes them once and keeps them."""
    x, n = data.features, data.n_samples
    # A norm past float64's range reads inf, which sends every model
    # exact, and then the cast, which may overflow too, goes unused.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        x32t = np.ones((data.dim + 1, n), dtype=np.float32)
        x32t[:-1] = x.T
    return norms, data.labels * n + np.arange(n), x32t


def coalition_screen(
    arch: MlpArch,
    terms: np.ndarray,
    data: LabeledDataset,
    screen: tuple[np.ndarray, np.ndarray, np.ndarray],
):
    """Settle test samples for every coalition of a round game at once.

    ``terms`` is (N+1, n_params): the round's start model m0, then its N
    scaled updates U_j.  Coalition S's model is m0 + sum_{j in S} U_j,
    formed in float64 by an ascending fold (the rows of
    ``federation._coalition_table``).  A sample is settled correct when
    its label's float64 logit beats every other class's for all 2^N
    coalition models, and settled wrong when one other class beats the
    label's for all of them.  Returns None when nothing settles, else
    ``(open, screen, correct)``: the samples left open as a dataset, their
    part of ``screen`` (the test set's :func:`accuracy_screen`) and the
    count settled correct, which :func:`stack_accuracy` takes as
    ``coalitions``.

    With u = 2^-53, x^_i = [x_i, 1], V = [W1; b1] as one (d+1, H) block,
    M = |m0| + sum_j |U_j| and, for each sample,
    r(i) = (||x_i||_2 + 1) max_h ||M_V[:,h]||_2 >= max_h |x^_i| M_V[:,h],
    the bound is built term by term:

    * first layer: every coalition's pre-activation is a_0 + sum_{j in S}
      c_j, with a_0 = x^ V_0 and c_j = x^ V_j, so it lies in
      centre +- radius, centre = x^ (V_0 + sum_j V_j / 2) and radius =
      sum_j |c_j| / 2: one GEMM per update, each small enough that
      OpenBLAS runs it on one thread.  Both are formed within
      e_1(i) = 2.02 (d+N+2) u r(i);
    * tanh: it is monotone and 1-Lipschitz, so every hidden unit lies in
      [tanh(centre - radius), tanh(centre + radius)], widened by
      e_1(i) + eps_64 (float64 ``np.tanh``'s error) and clipped to
      [-1, 1], and then in mid +- half, half taking 2^-50 more for
      forming mid and half;
    * second layer: the difference of the label's logit and class k's is
      sum_h D_h t_h + beta with D = W2[:,y] - W2[:,k] and beta = b2_y - b2_k,
      each in its own centre +- radius over the coalitions as above, so it
      lies in gap +- spread, gap = mid D_c + beta_c and
      spread = half (|D_c| + D_r) + |mid| D_r + beta_r.  With
      w = max_k (||M_W2[:,k]||_1 + M_b2[k]) and every factor of mid and half
      within 1 + 2^-49, forming them rounds by at most
      e_2 = 8.08 (N+H+5) u w.

    The gap must then clear the margin

        m(i) = 2.02 (fold(i) + B64(i)) + e_2 + 2^-990

    on the side it settles: gap - spread > m(i) against every other class
    (correct), or gap + spread < -m(i) against one (wrong), where, with
    w' = max_k ||M_W2[:,k]||_1,

    * fold(i) = 1.01 N u (w + w' r(i)): the table's fold puts each
      coalition's parameters within N u M of its exact sum, which moves a
      logit by at most that much through W2 and b2 and through the first
      layer (tanh is 1-Lipschitz, |tanh| <= 1);
    * B64(i) = 1.02 [w' ((d+2) u r(i) + eps_64) + (H+2) u w]: the bound of
      :func:`stack_accuracy` on any float64 logit of a model no larger
      than M, which covers the full float64 pass and the refinement;
    * e_2 the bound's own rounding, 2.02 the rounding of m(i) and of the
      other terms, and 2^-990 underflow.

    Two logits each move by fold + B64, so the label leads alone in the
    float64 pass of every coalition, or trails there.  Nothing settles on
    a tie (the margin is positive), on a non-finite value (no comparison
    holds), or when M or a feature norm reaches 2^60/(d+H); below that no
    step overflows and no coalition model can.
    """
    norms, _, x32t = screen
    right, wrong = _coalition_bound(arch, terms, data, norms)
    settled = right | wrong
    if not settled.any():
        return None
    left = np.flatnonzero(~settled)
    part = LabeledDataset(data.features[left], data.labels[left], data.n_classes)
    part_screen = (norms[left], part.labels * len(left) + np.arange(len(left)),
                   np.ascontiguousarray(x32t[:, left]))
    return part, part_screen, int(np.count_nonzero(right))


def _coalition_bound(arch, terms, data, norms):
    """(right, wrong), each (samples,): the samples :func:`coalition_screen`
    proves correct, and wrong, for every coalition; ``norms`` are the
    samples' feature norms."""
    u = 2.0**-53
    c, n = len(terms), data.n_samples
    d, h, k = arch.in_dim, arch.hidden, arch.n_classes
    limit = 2.0**60 / (d + h)
    with np.errstate(over="ignore"):
        mag = np.abs(terms).sum(axis=0)
    if not (mag.max() < limit and norms.max(initial=0.0) < limit):
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    m_v = mag[: (d + 1) * h].reshape(d + 1, h)
    reach = (norms + 1.0) * np.sqrt(np.einsum("dh,dh->h", m_v, m_v).max())
    _, _, m_w2, m_b2 = _split(arch, mag)
    w2_l1 = m_w2.sum(axis=0)
    w_lin, w_all = w2_l1.max(), (w2_l1 + m_b2).max()

    # First layer, centre and radius over the coalitions.  b1 follows W1
    # in the packing, so x^ = [x, 1] takes it into each GEMM.
    xhat = np.ones((n, d + 1))
    xhat[:, :d] = data.features
    v = terms[:, : (d + 1) * h].reshape(c, d + 1, h)
    parts = xhat @ v[1:]
    centre = xhat @ (v[0] + 0.5 * np.add.reduce(v[1:], axis=0))
    np.abs(parts, out=parts)
    radius = np.add.reduce(parts, axis=0)
    radius *= 0.5
    widen = (2.02 * (d + c + 1) * u * reach + _TANH64_ERR)[:, None]
    low = np.tanh(centre - radius)
    low -= widen
    np.maximum(low, -1.0, out=low)
    high = np.tanh(np.add(centre, radius, out=centre), out=centre)
    high += widen
    np.minimum(high, 1.0, out=high)
    mid = high + low
    mid *= 0.5
    half = np.subtract(high, low, out=high)
    half *= 0.5
    half += 2.0**-50

    # Second layer: every class pair's column difference, y*K + k for
    # label y against class k, in centre and radius over the coalitions.
    _, _, w2, b2 = _split(arch, terms)
    w_gaps = (w2[..., :, None] - w2[..., None, :]).reshape(c, h, k * k)
    b_gaps = (b2[:, :, None] - b2[:, None, :]).reshape(c, k * k)
    w_mid = w_gaps[0] + 0.5 * np.add.reduce(w_gaps[1:], axis=0)
    w_half = 0.5 * np.add.reduce(np.abs(w_gaps[1:]), axis=0)
    b_mid = b_gaps[0] + 0.5 * np.add.reduce(b_gaps[1:], axis=0)
    b_half = 0.5 * np.add.reduce(np.abs(b_gaps[1:]), axis=0)
    spread = half @ (np.abs(w_mid) + w_half)
    spread += np.abs(mid) @ w_half
    spread += b_half
    gap = mid @ w_mid
    gap += b_mid
    pairs = (data.labels * k)[:, None] + np.arange(k)
    gap = np.take_along_axis(gap, pairs, axis=1)
    spread = np.take_along_axis(spread, pairs, axis=1)

    fold = 1.01 * (c - 1) * u * (w_all + w_lin * reach)
    b64 = 1.02 * (w_lin * ((d + 2) * u * reach + _TANH64_ERR) + (h + 2) * u * w_all)
    margin = 2.02 * (fold + b64) + 8.08 * (c + h + 4) * u * w_all + 2.0**-990
    low_gap, high_gap = gap - spread, gap + spread
    # The label's own column (gap and spread 0) joins neither test.
    own = data.labels == 0
    right = own | (low_gap[:, 0] > margin)
    wrong = ~own & (high_gap[:, 0] < -margin)
    for j in range(1, k):
        own = data.labels == j
        right &= own | (low_gap[:, j] > margin)
        wrong |= ~own & (high_gap[:, j] < -margin)
    return right, wrong


def stack_accuracy(
    arch: MlpArch,
    stack: np.ndarray,
    data: LabeledDataset,
    screen: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    coalitions: tuple[LabeledDataset, tuple, int] | None = None,
) -> np.ndarray:
    """Accuracy of every model in a stack (ties toward the lower class),
    bit-identical to the argmax of its float64 logits.

    Accuracy needs only each sample's argmax, so each sample is decided
    in the cheapest precision that can prove it.

    The stack first runs in float32, class-major: hidden units as
    W1^T x^T, (c, H, n), and logits as W2^T hidden, (c, K, n), so the
    bias add and the fold over the classes run along rows of samples.
    With u = 2^-24, eps_t = 2^-20 (the most float32 ``np.tanh`` may miss
    ``tanh`` by), d = in_dim and H = hidden, every float32 logit lies
    within

        e_z(i) = (d+4) u (||x_i||_2 max_h ||W1[:,h]||_2 + max_h |b1_h|)
        B(i)   = 1.01 [max_j ||W2[:,j]||_1 (e_z(i) + eps_t)
                       + (H+4) u max_j (||W2[:,j]||_1 + |b2_j|)] + 2^-100

    of the float64 one, in any summation order: e_z bounds the hidden
    pre-activations' error from the casts and the first GEMM, which takes
    b1 as its (d+1)-th term; tanh is 1-Lipschitz and |tanh| <= 1; the
    second layer adds its own cast and rounding terms.  The factor 1.01
    covers the second-order terms, the float64 path's own rounding and
    the rounding of B itself, and 2^-100 any underflow.  B and the band
    are formed in float64, where float32 values are exact.  A sample is
    settled when the smaller of its label's logit and the runner-up (the
    top again, on a tie) lies below top - 2B: the label then leads in
    neither precision, or leads alone in both.

    The samples the screen leaves open run again in float64, only those.
    With u = 2^-53, eps_64 = 2^-49 (float64 ``np.tanh``'s bound) and
    r(i) = max_h (sum_k |x_ik| |W1[k,h]| + |b1_h|), both that computation
    and the full float64 pass lie within

        B64(i) = 1.01 [max_j ||W2[:,j]||_1 ((d+2) u r(i) + eps_64)
                       + (H+2) u max_j (||W2[:,j]||_1 + |b2_j|)] + 2^-1000

    of the exact logits: B's terms without the casts, the first layer's
    sum bounded sample by sample rather than through Cauchy-Schwarz, and
    2^-1000 for underflow.  Two of the refined logits may each lie 2 B64
    from the full pass's, in opposite directions, so a refined sample is
    settled when min(label, runner-up) < top - 4 B64.

    A model whose samples are all settled takes the mean of (label logit
    == top) over them; near-ties among classes that are not the label
    cannot change it.  Every other model takes the float64 pass, the only
    exact path: a model with a sample still open (a true tie, a NaN), and
    every model when ``screen`` (see :func:`accuracy_screen`, computed
    here when omitted) says a feature norm, or a parameter, reaches
    2^60/(d+H).  Below that neither the cast nor a sum in either GEMM can
    overflow float32 (a logit stays under 2^61), and no square in B
    overflows float64.  A stack of one model is screened too: the bundled
    default's 2,600 one-model evaluations (master seed 2, replayed on one
    CPU of a 2-vCPU Xeon, best of 5) took 150 us per call screened against
    192 us in float64, and none needed the full pass.

    When the stack holds coalition models of one round game,
    ``coalitions`` (its :func:`coalition_screen`) has already settled
    some samples for all of them: the screen, the refinement and the
    exact test above then see only the samples it left open, and each
    model's count adds the samples it proved correct.  A model sent to
    the full float64 pass still takes it over every sample.
    """
    norms, offsets, x32t = accuracy_screen(data) if screen is None else screen
    found, part_data = 0, data
    if coalitions is not None:
        part_data, (norms, offsets, x32t), found = coalitions
    exact = np.ones(len(stack), dtype=bool)
    limit = 2.0**60 / (arch.in_dim + arch.hidden)
    if norms.max(initial=0.0) < limit:
        exact = ~(np.abs(stack).max(axis=1) < limit)
    if exact.all():
        return _float64_accuracy(arch, stack, data)
    screened = ~exact
    part = stack[screened] if exact.any() else stack
    correct, settled = _float32_accuracy(arch, part, part_data, norms, offsets, x32t)
    done = settled.all(axis=1)
    if not done.all():
        rows = np.flatnonzero(~done)
        _float64_refinement(arch, part, part_data, correct, settled, rows)
        done[rows] = settled[rows].all(axis=1)
        exact[screened] = ~done
    acc = np.empty(len(stack))
    # The count of correct samples is exact, so this is np.mean's value.
    acc[screened] = (found + np.count_nonzero(correct, axis=1)) / data.n_samples
    if exact.any():
        acc[exact] = _float64_accuracy(arch, stack[exact], data)
    return acc


def _float64_accuracy(arch, stack, data):
    logits = _forward_stack(arch, stack, data.features)
    return np.mean(np.argmax(logits, axis=-1) == data.labels, axis=1)


def _float32_accuracy(arch, stack, data, norms, offsets, x32t):
    """(correct, settled) of a stack run in float32, each (models,
    samples): whether the label's logit is the top, which holds where
    ``settled``; see :func:`stack_accuracy`."""
    u = 2.0**-24
    c, n = len(stack), data.n_samples
    d, h, k = arch.in_dim, arch.hidden, arch.n_classes
    w1, _, w2, b2 = _split(arch, stack)
    _, a_b1, a_w2, a_b2 = _split(arch, np.abs(stack))
    w1_norm = np.sqrt(np.einsum("cdh,cdh->ch", w1, w1).max(axis=1))
    w2_l1 = a_w2.sum(axis=1)
    w2_max = w2_l1.max(axis=1)
    # 2B(i) = slope * ||x_i|| + offset: B expanded, scalars first.
    z_rate = 2.02 * (d + 4) * u
    slope = z_rate * w2_max * w1_norm
    offset = (
        w2_max * (z_rate * a_b1.max(axis=1) + 2.02 * _TANH32_ERR)
        + 2.02 * (h + 4) * u * (w2_l1 + a_b2).max(axis=1)
        + 2.0**-99
    )
    # b1 follows W1 in the packing, so [W1; b1] is one (d+1, H) block and
    # the bias folds into the first GEMM through x32t's row of ones.  One
    # GEMM per model: a single (c*H, d+1) product is large enough for
    # OpenBLAS to thread, which the forked Shapley workers oversubscribe
    # (12x slower per call with two workers on two CPUs).
    w1t = stack[:, : (d + 1) * h].reshape(c, d + 1, h).transpose(0, 2, 1)
    hidden = np.ascontiguousarray(w1t, dtype=np.float32) @ x32t
    np.tanh(hidden, out=hidden)
    logits = np.ascontiguousarray(w2.transpose(0, 2, 1), dtype=np.float32) @ hidden
    logits += b2.astype(np.float32)[:, :, None]
    # The largest and second largest logit of every sample, folded over
    # the class rows; a tie makes them equal, and NaN propagates.
    top = np.maximum(logits[:, 0], logits[:, 1])
    second = np.minimum(logits[:, 0], logits[:, 1])
    for j in range(2, k):
        np.maximum(second, np.minimum(top, logits[:, j]), out=second)
        np.maximum(top, logits[:, j], out=top)
    # Where the smaller of the label's logit and the runner-up lies below
    # top - 2B (in float64), the label leads alone or cannot lead.
    picked = np.take(logits.reshape(c, -1), offsets, axis=1)
    low = top - (slope[:, None] * norms + offset[:, None])
    return picked == top, np.minimum(picked, second) < low


def _float64_refinement(arch, stack, data, correct, settled, open_models):
    """Settle in float64 the samples the float32 screen left open, each on
    its own, updating ``correct`` and ``settled`` in place;
    ``open_models`` are the ascending rows of ``stack`` with an open
    sample, so only they are searched.  See :func:`stack_accuracy`."""
    u = 2.0**-53
    d, h = arch.in_dim, arch.hidden
    row_of, open_samples = np.nonzero(~settled[open_models])
    open_rows = open_models[row_of]
    for lo in range(0, len(open_rows), _REFINED_PAIRS):
        rows = open_rows[lo : lo + _REFINED_PAIRS]
        samples = open_samples[lo : lo + _REFINED_PAIRS]
        params = stack[rows]
        w1, b1, w2, b2 = _split(arch, params)
        a_w1, a_b1, a_w2, a_b2 = _split(arch, np.abs(params))
        x = data.features[samples][:, None]
        logits = (np.tanh(x @ w1 + b1[:, None]) @ w2)[:, 0] + b2
        ordered = np.sort(logits, axis=1)  # NaN sorts last, into the top
        top, second = ordered[:, -1], ordered[:, -2]
        picked = logits[np.arange(len(rows)), data.labels[samples]]
        reach = (np.abs(x) @ a_w1)[:, 0] + a_b1
        w2_l1 = a_w2.sum(axis=1)
        band = 4.04 * (
            w2_l1.max(axis=1) * ((d + 2) * u * reach.max(axis=1) + _TANH64_ERR)
            + (h + 2) * u * (w2_l1 + a_b2).max(axis=1)
        ) + 2.0**-998
        correct[rows, samples] = picked == top
        settled[rows, samples] = np.minimum(picked, second) < top - band


def _stack_loss_and_grad(params, grads, features, labels) -> np.ndarray:
    """Mean cross-entropy of every model in a stack, each on its own batch.

    ``params`` and ``grads`` are the :func:`_split` views of a
    (c, n_params) stack and of its gradient buffer, which is overwritten;
    ``features`` is (c, n, dim) and ``labels`` (c, n), one batch per model,
    or (1, n, dim) and (1, n), one batch for all of them.
    Returns the (c,) losses.  Every row goes through exactly the float
    operations a lone model does: one GEMM per product, its loss from a
    contiguous gather, and the bias gradients summed along the batch axis.
    """
    w1, b1, w2, b2 = params
    dw1, db1, dw2, db2 = grads
    n = features.shape[1]
    hidden, logits = _layers(features, w1, b1, w2, b2)
    logp = _log_softmax(logits)
    picked = (np.arange(len(logp))[:, None], np.arange(n), labels)
    losses = -(_sum(logp[picked], axis=1) / n)  # the mean, as ``mean`` divides

    dlogits = np.exp(logp)
    dlogits[picked] -= 1.0
    dlogits /= n
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=dw2)
    _sum(dlogits, axis=1, out=db2)
    dz1 = dlogits @ w2.transpose(0, 2, 1)
    dz1 *= 1.0 - hidden**2
    np.matmul(features.transpose(0, 2, 1), dz1, out=dw1)
    _sum(dz1, axis=1, out=db1)
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
    stack, diverged = sgd_train_rows(
        arch, params.values[None], [(data, seed)], epochs, lr, batch_size
    )
    if diverged is not None:
        raise diverged
    return ModelParams(stack[0])


def sgd_train_rows(
    arch: MlpArch,
    stack: np.ndarray | Sequence[np.ndarray],
    streams: Sequence[tuple[LabeledDataset, object]],
    epochs: int,
    lr: float,
    batch_size: int,
) -> tuple[np.ndarray, TrainingDiverged | None]:
    """:func:`sgd_train` on every row of a (R, n_params) stack at once.

    ``stack`` may also be a sequence of R parameter vectors; either way
    the rows are copied into one new stack, which is trained in place.

    Row r trains on its own stream ``streams[r]``, a (data, seed) pair;
    rows may share one, and a pair object passed for several rows is
    shuffled once.  Each stacked step takes the rows whose next batch has
    the same length at the same position of their own batch sequences,
    and gathers their batches as (rows, length, dim) features, at most
    ``_ROW_CAP`` rows per step.  No batch is padded, so every row ends
    bit-identical to training it alone.

    Returns ``(stack, diverged)``, the stack a new array.  ``diverged`` is
    None, or the TrainingDiverged of the lowest-indexed row whose loss or
    parameters became non-finite, with ``row`` set and the message of that
    row's first failure; rows from it on are then left part-trained, and
    every row below it is fully trained.  Raises ModelError on bad settings
    or when a row is not finite on entry.
    """
    if epochs < 0:
        raise ModelError(f"epochs must be nonnegative, got {epochs}")
    if lr <= 0 or batch_size < 1:
        raise ModelError(f"bad SGD settings: lr={lr} batch_size={batch_size}")
    # Row-major, so every row's parameters are one contiguous block: the
    # GEMMs of a column-major copy's strided rows round differently.
    stack = np.array(stack, dtype=np.float64, order="C")
    if stack.ndim != 2 or len(streams) != len(stack):
        raise ModelError(
            f"a stack of shape {stack.shape} needs one stream per row, "
            f"got {len(streams)}"
        )
    if not np.isfinite(stack).all():
        row = _first_nonfinite_row(stack)
        raise ModelError(f"parameters of row {row} contain non-finite values")
    if not len(stack):
        return stack, None
    features, labels, steps = _batch_plan(streams, epochs, batch_size)
    # No step takes more than _ROW_CAP rows, so neither does the buffer.
    grad = np.empty((min(len(stack), _ROW_CAP), stack.shape[1]))
    # Views into the two buffers, which are only ever updated in place.
    params, grads = _split(arch, stack), _split(arch, grad)
    diverged = None
    for rows, batch in steps:
        if diverged is not None:  # rows from the diverged one on are done
            keep = int(np.searchsorted(rows, diverged.row))
            if not keep:
                continue
            rows = rows[:keep]
            if len(batch) > 1:
                batch = batch[:keep]
        lo, r = int(rows[0]), len(rows)
        gathered = int(rows[-1]) + 1 - lo != r
        if gathered:
            models = stack[rows]
            views = _split(arch, models)
        else:
            models, views = stack[lo : lo + r], [view[lo : lo + r] for view in params]
        losses = _stack_loss_and_grad(
            views, [view[:r] for view in grads], features[batch], labels[batch]
        )
        step = grad[:r]
        step *= lr
        models -= step
        if gathered:
            stack[rows] = models
        if not (np.isfinite(losses).all() and np.isfinite(models).all()):
            finite_loss = np.isfinite(losses)
            finite = finite_loss & np.isfinite(models).all(axis=1)
            bad = int(np.argmin(finite))
            message = (
                f"local loss became {float(losses[bad])!r}"
                if not finite_loss[bad]
                else "parameters became non-finite after an update"
            )
            diverged = TrainingDiverged(message, row=int(rows[bad]))
    return stack, diverged


def _batch_plan(streams, epochs: int, batch_size: int):
    """The stacked steps of :func:`sgd_train_rows`, in order.

    Returns (features, labels, steps): the streams' datasets concatenated,
    and one (rows, batch) pair per step.  ``rows`` are the ascending rows
    that step, and ``batch`` indexes their samples in the concatenation,
    (1, length) when they all share one stream, else (rows, length).  Each
    stream draws one permutation per epoch from its own seed, as a lone
    run does, and cuts it into batches of ``batch_size``, the last short.
    """
    index: dict[int, int] = {}
    distinct, rows_of, row_stream = [], [], []
    for r, stream in enumerate(streams):
        u = index.setdefault(id(stream), len(distinct))
        if u == len(distinct):
            distinct.append(stream)
            rows_of.append([])
        rows_of[u].append(r)
        row_stream.append(u)
    sequences = []
    offset = 0
    for data, seed in distinct:
        n, rng = data.n_samples, np.random.default_rng(seed)
        sequence = []
        for _ in range(epochs):
            order = rng.permutation(n) + offset
            sequence.extend(order[j : j + batch_size] for j in range(0, n, batch_size))
        sequences.append(sequence)
        offset += n
    steps = []
    for k in range(max(len(sequence) for sequence in sequences)):
        groups: dict[int, list[int]] = {}
        for u, sequence in enumerate(sequences):
            if k < len(sequence):
                groups.setdefault(len(sequence[k]), []).append(u)
        for group in groups.values():
            rows = sorted(r for u in group for r in rows_of[u])
            if len(group) == 1:
                batch = sequences[group[0]][k][None]
            else:
                batch = np.stack([sequences[row_stream[r]][k] for r in rows])
            rows = np.array(rows)
            for lo in range(0, len(rows), _ROW_CAP):
                hi = lo + _ROW_CAP
                steps.append((rows[lo:hi], batch if len(batch) == 1 else batch[lo:hi]))
    features = np.concatenate([data.features for data, _ in distinct])
    labels = np.concatenate([data.labels for data, _ in distinct])
    return features, labels, steps


def _first_nonfinite_row(stack: np.ndarray) -> int:
    return int(np.argmin(np.isfinite(stack).all(axis=1)))
