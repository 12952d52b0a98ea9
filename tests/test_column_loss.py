"""The test-set loss kernel against the kernels it replaces.

``stack_mean_loss`` takes the row max one class column at a time
(``mlp._row_max``), gathers the shifted label logits by one flat-offset
``np.take``, and below 8 classes folds the exp-sum over the class
columns.  The references are the computations from before: the full
``_log_softmax`` gathered at the labels, and the column kernel with a
fancy-index gather kept in ``tests/reference_loss.py``.  Every
comparison is on the uint64 view of the float64 results, with no
tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.fedsim import LabeledDataset, MlpArch, ModelParams
from fedscore.fedsim import mlp

import reference_loss

SPECIALS = [-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def log_softmax_loss(arch, stack, data):
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
        log_softmax_loss(arch, stack, data)).tolist()


@settings(max_examples=40, deadline=None)
@given(case=loss_cases())
def test_mean_loss_matches_log_softmax_gather(case):
    arch, stack, data = case
    want = log_softmax_loss(arch, stack[:1], data)[0]
    params = ModelParams(stack[0])
    assert bits(mlp.stack_mean_loss(arch, params.values[None], data)[0]) == bits(want)


# K >= 8 takes the pairwise exp-sum reduction; one row takes the 2-D GEMMs.
@pytest.mark.parametrize("k", [2, 4, 8, 9])
@pytest.mark.parametrize("c", [1, 3, 8])
def test_stack_mean_loss_matches_the_kernel_it_replaces(c, k):
    rng = np.random.default_rng([c, k])
    arch = MlpArch(in_dim=24, n_classes=k)
    data = LabeledDataset(rng.normal(size=(1000, 24)), rng.integers(0, k, size=1000), k)
    for scale in (0.01, 0.3, 3.0):
        stack = rng.normal(0.0, scale, size=(c, arch.n_params))
        want = reference_loss.stack_mean_loss(arch, stack, data)
        assert bits(mlp.stack_mean_loss(arch, stack, data)).tolist() == bits(want).tolist()
