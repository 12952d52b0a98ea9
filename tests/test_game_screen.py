"""The coalition bound of ``mlp.coalition_screen`` against the float64 argmax.

Before a round game's 2^N coalition models are evaluated under accuracy,
one interval bound over all of them settles the test samples whose label
leads, or trails, in every coalition's float64 logits.  Only the rest go
through the stacked screen.  Every settled sample is checked here against
the argmax of every row of ``_coalition_table``, computed by the plain
single-model formula of ``test_tabulation``, and every tabulated utility
against ``reference_utility`` on its uint64 bits.  The games include
near-ties below float64's resolution, where only the bound's margin keeps
a sample open, and scales at which tanh saturates.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.fedsim import ModelError, ModelEvaluator, round_oracle
from fedscore.fedsim import mlp
from fedscore.fedsim.federation import _coalition_table

from test_accuracy_screen import D, H, K
from test_tabulation import ARCH, TEST, bits, make_transcript, make_transcripts, reference_table


def coalition_argmax(transcript, data=TEST):
    """(coalitions, samples): whether each coalition model's float64 argmax,
    by the plain single-model formula, is the label."""
    w1, b1, w2, b2 = mlp._split(ARCH, _coalition_table(transcript))
    out = []
    for row in range(len(w1)):
        logits = np.tanh(data.features @ w1[row] + b1[row]) @ w2[row] + b2[row]
        out.append(np.argmax(logits, axis=1) == data.labels)
    return np.array(out)


def bound(transcript, data=TEST):
    terms = np.vstack([transcript.m0.values, transcript.updates])
    return mlp._coalition_bound(ARCH, terms, data, mlp.accuracy_screen(data)[0])


def assert_settled_agree(transcript):
    """Every settled sample agrees with every coalition; returns how many settled."""
    right, wrong = bound(transcript)
    assert not (right & wrong).any()
    correct = coalition_argmax(transcript)
    assert correct[:, right].all() and not correct[:, wrong].any()
    return int(np.count_nonzero(right | wrong))


def assert_tabulates_like_the_reference(transcript):
    evaluator = ModelEvaluator(ARCH, TEST, "accuracy")
    oracle = round_oracle(transcript, evaluator)
    table = oracle.tabulate()
    n = transcript.n_clients
    assert np.array_equal(bits(table), bits(reference_table(transcript, "accuracy")))
    assert oracle.call_count == evaluator.call_count == 2**n
    assert oracle.audit_log == tuple(range(2**n))


def shared_head_params(rng, scale, b2):
    """Parameters whose K logits share one W2 column, so they differ by b2 alone."""
    w1 = scale * rng.standard_normal(D * H)
    b1 = scale * rng.standard_normal(H)
    w2 = np.repeat(scale * rng.standard_normal((H, 1)), K, axis=1).ravel()
    return np.concatenate([w1, b1, w2, b2])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    scale=st.sampled_from([0.05, 0.3, 1.0, 3.0, 30.0, 1000.0]),
    update_scale=st.sampled_from([0.0, 1e-3, 0.03, 0.3, 3.0]),
    exponent=st.floats(-18.0, -4.0),
    lead=st.sampled_from([(0, 1), (1, 0), (2, 3), (1, 3)]),
    updates=st.sampled_from(["shared", "first layer", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_settled_samples_agree_with_every_coalition(
    n, scale, update_scale, exponent, lead, updates, seed
):
    # Two classes lead every sample 10^exponent apart in the start model.
    # Shared updates keep all W2 columns equal and b2 unchanged, so the
    # near-tie holds in every coalition; first-layer updates leave W2 and
    # b2 alone and move only the hidden units; the rest move every weight.
    rng = np.random.default_rng(seed)
    b2 = np.full(K, -1.0)
    b2[list(lead)] = (0.0, 10.0**exponent)
    m0 = shared_head_params(rng, scale, b2)
    if updates == "shared":
        deltas = np.stack([shared_head_params(rng, update_scale, np.zeros(K))
                           for _ in range(n)])
    else:
        deltas = update_scale * rng.standard_normal((n, ARCH.n_params))
        if updates == "first layer":
            m0[(D + 1) * H :] = rng.standard_normal(H * K + K)
            deltas[:, (D + 1) * H :] = 0.0
    t = make_transcript(1, m0, deltas)
    assert_settled_agree(t)
    assert_tabulates_like_the_reference(t)


@pytest.mark.parametrize("exponent", [-17, -16, -15, -14, -13, -12])
def test_near_ties_down_to_float64_resolution(exponent):
    # Class 1 leads class 0 by 10^exponent in every coalition.  Below
    # about 1e-16 float64 rounds the two logits together, so a sample
    # labelled 1 has argmax 0 while the exact gap favours 1: only the
    # margin keeps such a sample open.
    rng = np.random.default_rng(exponent + 100)
    m0 = shared_head_params(rng, 0.3, np.array([0.0, 10.0**exponent, -1.0, -1.0]))
    deltas = np.stack([shared_head_params(rng, 0.03, np.zeros(K)) for _ in range(3)])
    t = make_transcript(1, m0, deltas)
    assert_settled_agree(t)
    right, wrong = bound(t)
    tied = np.isin(TEST.labels, (0, 1))
    if exponent <= -16:
        assert not (right | wrong)[tied].any()
    assert (right | wrong)[~tied].all()  # classes 2 and 3 trail by a unit
    assert_tabulates_like_the_reference(t)


@pytest.mark.parametrize("n", [2, 4])
def test_first_layer_updates_leave_the_samples_they_flip_open(n):
    # W2 and b2 stay fixed, so only the hidden units' range over the
    # coalitions decides which samples can change their argmax.
    rng = np.random.default_rng(n)
    m0 = 0.3 * rng.standard_normal(ARCH.n_params)
    deltas = 0.05 * rng.standard_normal((n, ARCH.n_params))
    deltas[:, (D + 1) * H :] = 0.0
    t = make_transcript(1, m0, deltas)
    correct = coalition_argmax(t)
    flips = correct.any(axis=0) & ~correct.all(axis=0)
    assert flips.any()
    assert 0 < assert_settled_agree(t) <= TEST.n_samples - np.count_nonzero(flips)
    assert_tabulates_like_the_reference(t)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_plain_games_settle_samples(n):
    (t,) = make_transcripts(n, scale=0.01)
    assert assert_settled_agree(t) > TEST.n_samples // 20
    assert_tabulates_like_the_reference(t)


def test_a_game_without_updates_settles_every_sample_but_true_ties():
    m0 = shared_head_params(np.random.default_rng(7), 0.3, np.array([0.0, 1.0, 0.0, -1.0]))
    t = make_transcript(1, m0, np.zeros((2, ARCH.n_params)))
    right, wrong = bound(t)
    # Classes 0 and 2 tie exactly; a sample labelled 0 or 2 trails class 1
    # anyway, so every sample settles.
    assert (right | wrong).all() and (right == (TEST.labels == 1)).all()
    assert_tabulates_like_the_reference(t)


def stacks_screened(monkeypatch):
    """The sample counts of the datasets that reach the float32 screen."""
    seen = []
    run = mlp._float32_accuracy

    def spy(arch, stack, data, *args):
        seen.append(data.n_samples)
        return run(arch, stack, data, *args)

    monkeypatch.setattr(mlp, "_float32_accuracy", spy)
    return seen


def test_the_stacks_screen_only_the_open_samples(monkeypatch):
    (t,) = make_transcripts(5, scale=0.01)
    right, wrong = bound(t)
    seen = stacks_screened(monkeypatch)
    round_oracle(t, ModelEvaluator(ARCH, TEST, "accuracy")).tabulate()
    assert seen == [TEST.n_samples - int(np.count_nonzero(right | wrong))]


def test_a_huge_update_settles_nothing_and_screens_every_sample(monkeypatch):
    (t,) = make_transcripts(3)
    deltas = t.updates.copy()
    deltas[1, 7] = 1e30
    t = make_transcript(1, t.m0.values, deltas)
    seen = stacks_screened(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        right, wrong = bound(t)
        assert ModelEvaluator(ARCH, TEST, "accuracy").round_screen(t) is None
    assert not (right | wrong).any()
    assert_tabulates_like_the_reference(t)
    # The coalitions without client 1 are screened on every sample.
    assert seen and all(count == TEST.n_samples for count in seen)


def test_an_overflowing_table_settles_nothing_and_is_refused_by_name():
    # Each update and the aggregate are finite, but coalition {0, 2} sums
    # +1e308 twice in the last output bias and overflows.
    deltas = np.zeros((3, ARCH.n_params))
    deltas[:, -1] = (1e308, -1e308, 1e308)
    (t,) = make_transcripts(1)
    t = make_transcript(1, t.m0.values, deltas)
    evaluator = ModelEvaluator(ARCH, TEST, "accuracy")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        right, wrong = bound(t)
        assert evaluator.round_screen(t) is None
    assert not (right | wrong).any()
    oracle = round_oracle(t, evaluator)
    with np.errstate(over="ignore"), pytest.raises(ModelError, match=r"\(0, 2\)"):
        oracle.tabulate()
    assert oracle.audit_log == tuple(range(5))
    assert evaluator.call_count == 5


def test_neg_loss_games_are_not_screened():
    (t,) = make_transcripts(2)
    assert ModelEvaluator(ARCH, TEST, "neg_loss").round_screen(t) is None
