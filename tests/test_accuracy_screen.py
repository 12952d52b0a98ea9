"""The float32 screen of ``stack_accuracy`` against the float64 argmax.

``stack_accuracy`` decides a model from float32 logits only when a
rigorous error band settles every sample: the label leads alone, or it
lies below the band.  Every other model goes through the float64 pass.
The band rests on one measured assumption, that float32 ``np.tanh``
misses ``tanh`` by at most eps_t = 2^-20, so that is checked here too,
with room to spare.  Utilities are compared on their uint64 bits, with
no tolerance.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.fedsim import mlp
from fedscore.fedsim.data import LabeledDataset

from test_tabulation import ARCH, TEST, bits, reference_utility

TANH_ERR = 2.0**-20  # eps_t in the bound

D, H, K = ARCH.in_dim, ARCH.hidden, ARCH.n_classes


def tanh_error(x32):
    return np.abs(np.tanh(x32).astype(np.float64) - np.tanh(x32.astype(np.float64))).max()


def test_float32_tanh_stays_inside_the_assumed_error():
    # Largest errors measured: 1.01 * 2^-24 on numpy's default path and
    # 1.72 * 2^-24 with the AVX2/AVX-512 kernels disabled.
    grid = np.linspace(-10.0, 10.0, 2_000_001).astype(np.float32)
    normals = np.random.default_rng(0).normal(0.0, 3.0, 1_000_000).astype(np.float32)
    # In place on a 3-D block, as the forward pass calls it.
    block = normals.reshape(10, 1000, 100).copy()
    np.tanh(block, out=block)
    blocked = np.abs(block.ravel().astype(np.float64) - np.tanh(normals.astype(np.float64))).max()
    for err in (tanh_error(grid), tanh_error(normals), blocked):
        assert err <= TANH_ERR / 8


def accuracies(stack):
    return np.array([reference_utility("accuracy", row) for row in stack])


@settings(max_examples=40, deadline=None)
@given(
    models=st.integers(1, 9),
    scale=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_accuracy_matches_the_float64_argmax(models, scale, seed):
    stack = scale * np.random.default_rng(seed).standard_normal((models, ARCH.n_params))
    expect = bits(accuracies(stack))
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, stack, TEST)), expect)
    screen = mlp.accuracy_screen(TEST)
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, stack, TEST, screen)), expect)


def shared_head(b2):
    """A model whose K logits share one W2 column, so they differ by b2 alone."""
    rng = np.random.default_rng(3)
    w1 = 0.3 * rng.standard_normal(D * H)
    b1 = 0.3 * rng.standard_normal(H)
    w2 = np.repeat(0.3 * rng.standard_normal((H, 1)), K, axis=1).ravel()
    return np.concatenate([w1, b1, w2, b2])


def decided(stack):
    return mlp._float32_accuracy(ARCH, stack, TEST, *mlp.accuracy_screen(TEST))[1]


@pytest.mark.parametrize("gap", [0.0, 1e-7, 1e-6, 1e-5, 1e-4])
def test_ties_and_near_ties_take_the_float64_pass(gap):
    # Class 1 leads class 0 by `gap` on every sample, and some samples
    # carry each label; a plain model, led by a whole unit, is decided.
    near = shared_head(np.array([0.0, gap, -1.0, -1.0]))
    plain = shared_head(np.array([0.0, 1.0, -1.0, -1.0]))
    stack = np.stack([near, plain])
    assert decided(stack).tolist() == [False, True]
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, stack, TEST)),
                          bits(accuracies(stack)))


def test_a_tie_that_no_label_joins_is_decided():
    # Classes 0 and 1 tie at the top of every sample labelled 2 or 3, so
    # every such sample is a miss in both precisions.
    keep = TEST.labels >= 2
    data = LabeledDataset(TEST.features[keep], TEST.labels[keep], TEST.n_classes)
    stack = np.stack([shared_head(np.array([0.0, 0.0, -1.0, -1.0]))] * 2)
    acc, ok = mlp._float32_accuracy(ARCH, stack, data, *mlp.accuracy_screen(data))
    assert ok.all() and acc.tolist() == [0.0, 0.0]
    expect = [reference_utility("accuracy", row, data=data) for row in stack]
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, stack, data)), bits(expect))


def screened_models(monkeypatch):
    """Record the stacks that reach the float32 pass."""
    seen = []
    run = mlp._float32_accuracy

    def spy(arch, stack, *args):
        seen.append(stack.copy())
        return run(arch, stack, *args)

    monkeypatch.setattr(mlp, "_float32_accuracy", spy)
    return seen


def test_a_huge_parameter_goes_exact_without_a_warning(monkeypatch):
    seen = screened_models(monkeypatch)
    rng = np.random.default_rng(4)
    plain = 0.3 * rng.standard_normal(ARCH.n_params)
    huge = plain.copy()
    huge[7] = 1e30
    stack = np.stack([plain, huge, plain])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mlp.stack_accuracy(ARCH, stack, TEST)
    assert np.array_equal(bits(got), bits(accuracies(stack)))
    assert len(seen) == 1 and np.array_equal(seen[0], stack[[0, 2]])


def test_huge_features_send_every_model_exact(monkeypatch):
    seen = screened_models(monkeypatch)
    features = TEST.features.copy()
    features[5, 3] = 1e200
    data = LabeledDataset(features, TEST.labels, TEST.n_classes)
    stack = 0.3 * np.random.default_rng(5).standard_normal((2, ARCH.n_params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mlp.stack_accuracy(ARCH, stack, data)
        expect = [reference_utility("accuracy", row, data=data) for row in stack]
    assert np.array_equal(bits(got), bits(expect))
    assert seen == []


def test_one_model_goes_straight_to_float64(monkeypatch):
    seen = screened_models(monkeypatch)
    plain = shared_head(np.array([0.0, 1.0, -1.0, -1.0]))[None]
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, plain, TEST)), bits(accuracies(plain)))
    assert seen == []
