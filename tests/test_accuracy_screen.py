"""The accuracy screen of ``stack_accuracy`` against the float64 argmax.

``stack_accuracy`` decides a sample from float32 logits when a rigorous
error band settles it: the label leads alone, or it lies below the band.
The samples left open are run again in float64, each on its own, inside
a second, much narrower band; only a model with a sample still open (a
true tie, a NaN) goes through the full float64 pass.  Both bands rest on
one measured assumption each, that float32 ``np.tanh`` misses ``tanh`` by
at most eps_t = 2^-20 and float64 ``np.tanh`` by at most 2^-49, so those
are checked here too, with room to spare.  Utilities are compared on
their uint64 bits, with no tolerance.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.fedsim import mlp
from fedscore.fedsim.data import LabeledDataset

from test_tabulation import ARCH, TEST, bits, reference_utility

TANH_ERR = 2.0**-20  # eps_t in the float32 band
TANH64_ERR = 2.0**-49  # eps_64 in the float64 band

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


def test_float64_tanh_stays_inside_the_assumed_error():
    # Against np.longdouble's tanh, 11 bits finer on x86-64.  Largest
    # errors measured: 0.86 * 2^-53 on numpy's default path and
    # 1.72 * 2^-53 with the AVX2/AVX-512 kernels disabled.
    assert np.finfo(np.longdouble).eps <= 2.0**-60, "needs an extended longdouble"
    assert mlp._TANH32_ERR == TANH_ERR and mlp._TANH64_ERR == TANH64_ERR

    def error(x, got):
        exact = np.tanh(x.astype(np.longdouble))
        return float(np.abs(got.astype(np.longdouble) - exact).max())

    grid = np.linspace(-20.0, 20.0, 2_000_001)
    normals = np.random.default_rng(0).normal(0.0, 3.0, 1_000_000)
    # In place on a 3-D block, as the forward pass calls it, and on
    # 32-unit rows, as the refinement does.
    block = normals.reshape(10, 1000, 100).copy()
    np.tanh(block, out=block)
    rows = normals[:64_000].reshape(-1, 1, 32)
    for x, got in ((grid, np.tanh(grid)), (normals, np.tanh(normals)),
                   (normals, block.ravel()),
                   (rows, np.stack([np.tanh(row) for row in rows]))):
        assert error(x, got) <= TANH64_ERR / 8


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


def shared_head(b2, seed=3, scale=0.3):
    """A model whose K logits share one W2 column, so they differ by b2 alone."""
    rng = np.random.default_rng(seed)
    w1 = scale * rng.standard_normal(D * H)
    b1 = scale * rng.standard_normal(H)
    w2 = np.repeat(scale * rng.standard_normal((H, 1)), K, axis=1).ravel()
    return np.concatenate([w1, b1, w2, b2])


def decided(stack):
    """Which models the float32 screen alone settles."""
    settled = mlp._float32_accuracy(ARCH, stack, TEST, *mlp.accuracy_screen(TEST))[1]
    return settled.all(axis=1)


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
    correct, ok = mlp._float32_accuracy(ARCH, stack, data, *mlp.accuracy_screen(data))
    assert ok.all() and correct.mean(axis=1).tolist() == [0.0, 0.0]
    expect = [reference_utility("accuracy", row, data=data) for row in stack]
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, stack, data)), bits(expect))


def spied(monkeypatch, name):
    """Record the stacks that reach ``mlp.<name>``."""
    seen = []
    run = getattr(mlp, name)

    def spy(arch, stack, *args):
        seen.append(stack.copy())
        return run(arch, stack, *args)

    monkeypatch.setattr(mlp, name, spy)
    return seen


def screened_models(monkeypatch):
    """Record the stacks that reach the float32 pass."""
    return spied(monkeypatch, "_float32_accuracy")


@settings(max_examples=40, deadline=None)
@given(
    exponent=st.floats(-12.0, -4.0),
    lead=st.sampled_from([(0, 1), (1, 0), (2, 3), (1, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_ties_settle_in_float64_and_only_exact_ties_go_exact(exponent, lead, seed):
    # Two classes share the top of every logit vector, apart by 10^exponent
    # in the near model and tied in the other; a plain model leads by a unit.
    # At this scale 4 B64 reached 2.6e-13 at most over seeds 0-299, so a
    # 1e-12 gap settles with room.
    with pytest.MonkeyPatch.context() as patch:
        exact = spied(patch, "_float64_accuracy")
        low, high = lead
        b2 = np.full(K, -1.0)
        b2[[low, high]] = 0.0
        tie = shared_head(b2.copy(), seed, scale=0.1)
        b2[high] = 10.0**exponent
        near = shared_head(b2.copy(), seed, scale=0.1)
        b2[high] = 1.0
        plain = shared_head(b2, seed, scale=0.1)
        stack = np.stack([near, tie, plain])
        got = mlp.stack_accuracy(ARCH, stack, TEST)
    assert np.array_equal(bits(got), bits(accuracies(stack)))
    assert len(exact) == 1 and np.array_equal(exact[0], tie[None])


@pytest.mark.parametrize("gap, route", [
    (1.0, "_float32_accuracy"),
    (1e-7, "_float64_refinement"),
    (0.0, "_float64_accuracy"),
])
def test_one_model_is_screened_refined_or_sent_exact(monkeypatch, gap, route):
    # A one-model stack, as ModelEvaluator.__call__ evaluates, takes the
    # same three steps as a stack: a unit lead settles in float32, a 1e-7
    # gap in the float64 refinement, and only a tie goes to the full pass.
    seen = {name: spied(monkeypatch, name) for name in
            ("_float32_accuracy", "_float64_refinement", "_float64_accuracy")}
    model = shared_head(np.array([0.0, gap, -1.0, -1.0]))[None]
    assert np.array_equal(bits(mlp.stack_accuracy(ARCH, model, TEST)), bits(accuracies(model)))
    steps = ["_float32_accuracy", "_float64_refinement", "_float64_accuracy"]
    taken = steps[: steps.index(route) + 1]
    assert [name for name in steps if seen[name]] == taken
    assert all(np.array_equal(seen[name][0], model) for name in taken)


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
