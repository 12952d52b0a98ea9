"""The test-set loss kernel against the log-softmax it replaces.

``stack_mean_loss`` takes the row max one class column at a time
(``mlp._row_max``), gathers the label column of the logits before
subtracting the row max and the log-sum-exp, and below 8 classes folds
the exp-sum over the class columns.  The reference is the computation
from before: the full ``_log_softmax`` gathered at the labels.  Every
comparison is on the uint64 view of the float64 results, with no
tolerance.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.fedsim import LabeledDataset, MlpArch, ModelParams
from fedscore.fedsim import mlp

SPECIALS = [-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def reference_loss(arch, stack, data):
    logits = mlp._forward_stack(arch, stack, data.features)
    logp = mlp._log_softmax(logits)
    picked = logp[:, np.arange(data.n_samples), data.labels]
    return -np.ascontiguousarray(picked).mean(axis=1)


def test_row_max_matches_reduction_on_every_special_tuple():
    # 8^4 = 4096 rows of 4 classes as a (c, n, K) stack, so each class
    # column is a strided (c, n) view, as in the real call.
    logits = np.array(list(itertools.product(SPECIALS, repeat=4))).reshape(8, 512, 4)
    got, want = mlp._row_max(logits), logits.max(axis=-1)
    assert got.shape == want.shape == (8, 512)
    both_nan = np.isnan(got) & np.isnan(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(bits(got)[~both_nan], bits(want)[~both_nan])


@st.composite
def loss_cases(draw):
    k = draw(st.integers(2, 12))  # 8 and up: numpy sums the exp pairwise
    c = draw(st.integers(1, 9))
    n = draw(st.integers(1, 1200))
    scale = draw(st.sampled_from([0.01, 0.3, 3.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = MlpArch(in_dim=3, n_classes=k)
    stack = rng.normal(0.0, scale, size=(c, arch.n_params))
    data = LabeledDataset(rng.normal(size=(n, 3)), rng.integers(0, k, size=n), k)
    return arch, stack, data


@settings(max_examples=150, deadline=None)
@given(case=loss_cases())
def test_stack_mean_loss_matches_log_softmax_gather(case):
    arch, stack, data = case
    assert bits(mlp.stack_mean_loss(arch, stack, data)).tolist() == bits(
        reference_loss(arch, stack, data)).tolist()


@settings(max_examples=40, deadline=None)
@given(case=loss_cases())
def test_mean_loss_matches_log_softmax_gather(case):
    arch, stack, data = case
    want = reference_loss(arch, stack[:1], data)[0]
    params = ModelParams(stack[0])
    assert bits(mlp.stack_mean_loss(arch, params.values[None], data)[0]) == bits(want)
