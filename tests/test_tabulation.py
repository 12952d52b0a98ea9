"""Batched round-game tabulation against the per-coalition reference.

The reference kept here is the computation from before batching: each
coalition model built alone by the ascending left fold m0 + U_a + U_b +
... (``reference_model``), and one model evaluated at a time by the
plain single-model forward formula below (``reference_utility``).  The
batched path must reproduce it bit for bit, so every comparison is on
the uint64 view of the float64 results, with no tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedscore import GameError, TableGame, mr_shapley, shapley_exact
from fedscore.fedsim import (
    MlpArch,
    ModelError,
    ModelEvaluator,
    ModelParams,
    RoundTranscript,
    SyntheticSpec,
    generate_synthetic,
    init_params,
    round_oracle,
)
from fedscore.fedsim.federation import _coalition_table
from fedscore.fedsim.mlp import stack_accuracy, stack_mean_loss
from fedscore.games import coalition_members, shapley_exact_all
from fedscore.scoring import (
    game_round_utilities,
    mr_shapley_games,
    utilities_from_transcript,
)

KINDS = ("accuracy", "neg_loss")

# Shaped like the bundled default scenario: 24 features, 4 classes, 1000
# test samples, so the kernel runs at the sizes the bundles use.
_, TEST = generate_synthetic(
    SyntheticSpec(n_classes=4, dim=24, samples_per_client=8,
                  test_samples_per_class=250, separation=0.5),
    2, seed=5,
)
ARCH = MlpArch.for_data(TEST)

_, SMALL_TEST = generate_synthetic(
    SyntheticSpec(n_classes=2, dim=3, samples_per_client=8,
                  test_samples_per_class=10, separation=1.0),
    2, seed=6,
)
SMALL_ARCH = MlpArch.for_data(SMALL_TEST)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def reference_utility(kind, vec, arch=ARCH, data=TEST):
    """The single-model forward formula from before batching."""
    d, h, k = arch.in_dim, arch.hidden, arch.n_classes
    w1 = vec[: d * h].reshape(d, h)
    b1 = vec[d * h : d * h + h]
    w2 = vec[d * h + h : d * h + h + h * k].reshape(h, k)
    b2 = vec[d * h + h + h * k :]
    logits = np.tanh(data.features @ w1 + b1) @ w2 + b2
    if kind == "accuracy":
        return float(np.mean(np.argmax(logits, axis=1) == data.labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -float(-logp[np.arange(data.n_samples), data.labels].mean())


def reference_model(transcript, mask):
    model = transcript.m0.values
    for i in coalition_members(mask):
        model = model + transcript.updates[i]
    return model


def reference_table(transcript, kind, arch=ARCH, data=TEST):
    """Every coalition evaluated alone, in mask order, by the kept formula."""
    return np.array([
        reference_utility(kind, reference_model(transcript, mask), arch, data)
        for mask in range(2**transcript.n_clients)
    ])


def make_transcript(rnd, m0, deltas):
    m = ModelParams(m0 + deltas.sum(axis=0))
    return RoundTranscript(rnd, ModelParams(m0), deltas, m)


def make_transcripts(n_clients, rounds=1, arch=ARCH, scale=0.3):
    rng = np.random.default_rng([n_clients, rounds])
    m0 = init_params(arch, seed=n_clients).values
    out = []
    for rnd in range(1, rounds + 1):
        deltas = scale * rng.standard_normal((n_clients, arch.n_params))
        out.append(make_transcript(rnd, m0, deltas))
        m0 = out[-1].m.values
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_single_model_forward_matches_reference(kind):
    rng = np.random.default_rng(1)
    evaluator = ModelEvaluator(ARCH, TEST, kind)
    for scale in (0.05, 0.5, 3.0):
        params = ModelParams(scale * rng.standard_normal(ARCH.n_params))
        expect = reference_utility(kind, params.values)
        direct = (stack_accuracy(ARCH, params.values[None], TEST)[0]
                  if kind == "accuracy"
                  else -stack_mean_loss(ARCH, params.values[None], TEST)[0])
        assert bits(direct) == bits(expect)
        assert bits(evaluator(params)) == bits(expect)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("kind", KINDS)
def test_tabulation_is_bit_identical_to_per_coalition_loop(kind, n):
    (t,) = make_transcripts(n)
    expect = reference_table(t, kind)
    evaluator = ModelEvaluator(ARCH, TEST, kind)
    oracle = round_oracle(t, evaluator)
    table = oracle.tabulate()
    assert np.array_equal(bits(table), bits(expect))
    assert oracle.call_count == 2**n
    assert oracle.audit_log == tuple(range(2**n))
    assert evaluator.call_count == 2**n
    # The scores on top of the table follow it bit for bit too.
    batched = shapley_exact(round_oracle(t, evaluator)).scores
    solved = shapley_exact(TableGame(n, expect).oracle()).scores
    assert np.array_equal(bits(batched), bits(solved))


@pytest.mark.parametrize("kind", KINDS)
def test_probe_set_of_the_tabulated_game_is_the_transcript_probe_set(kind):
    (t,) = make_transcripts(5)
    evaluator = ModelEvaluator(ARCH, TEST, kind)
    table = round_oracle(t, evaluator).tabulate()
    got = game_round_utilities(TableGame(t.n_clients, table))
    want = utilities_from_transcript(t, evaluator)
    for field in ("v_empty", "v_grand", "v_with", "v_without"):
        assert np.array_equal(bits(getattr(got, field)), bits(getattr(want, field)))


def test_coalition_table_is_the_ascending_left_fold():
    (t,) = make_transcripts(5)
    table = _coalition_table(t)
    assert table.shape == (2**5, ARCH.n_params) and table.flags.c_contiguous
    for mask, model in enumerate(table):
        assert np.array_equal(bits(model), bits(reference_model(t, mask)))


@pytest.mark.parametrize("kind", KINDS)
def test_mr_shapley_rows_in_round_order_at_two_to_the_n_per_round(kind):
    n, rounds = 5, 4
    transcripts = make_transcripts(n, rounds)
    evaluator = ModelEvaluator(ARCH, TEST, kind)
    games = mr_shapley_games(transcripts, evaluator)
    rows = [vector.scores for vector in shapley_exact_all(games)]
    assert evaluator.call_count == rounds * 2**n
    for t in transcripts:
        before = evaluator.call_count
        round_oracle(t, evaluator).tabulate()
        assert evaluator.call_count - before == 2**n
    for row, t in zip(rows, transcripts):
        solved = shapley_exact(TableGame(n, reference_table(t, kind)).oracle())
        assert np.array_equal(bits(row), bits(solved.scores))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    data=st.data(),
)
def test_generated_transcripts_tabulate_bit_identically(kind, data):
    n = data.draw(st.integers(1, 4), label="n_clients")
    values = st.floats(-2.0, 2.0, allow_nan=False, width=64)
    m0 = data.draw(arrays(np.float64, SMALL_ARCH.n_params, elements=values))
    deltas = data.draw(
        arrays(np.float64, (n, SMALL_ARCH.n_params), elements=values)
    )
    t = make_transcript(1, m0, deltas)
    expect = reference_table(t, kind, SMALL_ARCH, SMALL_TEST)
    evaluator = ModelEvaluator(SMALL_ARCH, SMALL_TEST, kind)
    oracle = round_oracle(t, evaluator)
    assert np.array_equal(bits(oracle.tabulate()), bits(expect))
    assert oracle.call_count == evaluator.call_count == 2**n
    assert oracle.audit_log == tuple(range(2**n))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_a_request_of_any_masks_reads_the_tabulated_rows(kind, data):
    n = data.draw(st.integers(1, 4), label="n_clients")
    (t,) = make_transcripts(n, arch=SMALL_ARCH)
    masks = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=12), label="masks")
    evaluator = ModelEvaluator(SMALL_ARCH, SMALL_TEST, kind)
    oracle = round_oracle(t, evaluator)
    got = oracle.utilities(masks)
    assert np.array_equal(bits(got), bits(oracle.tabulate()[masks]))
    assert oracle.audit_log == (*masks, *range(2**n))
    assert evaluator.call_count == len(masks) + 2**n


# perfbench/tracing.py audits the 2N+2 probe set by counting its
# ModelEvaluator.__call__ spans; tabulation evaluates stacks instead.
@pytest.mark.parametrize("kind", KINDS)
def test_probe_set_calls_the_evaluator_once_per_model_and_tabulation_never(
    kind, monkeypatch
):
    calls = []
    call = ModelEvaluator.__call__
    monkeypatch.setattr(ModelEvaluator, "__call__",
                        lambda self, model: calls.append(model) or call(self, model))
    (t,) = make_transcripts(5)
    evaluator = ModelEvaluator(ARCH, TEST, kind)
    utilities_from_transcript(t, evaluator)
    assert len(calls) == 2 * 5 + 2
    oracle = round_oracle(t, evaluator)
    oracle.tabulate()
    assert len(calls) == 2 * 5 + 2
    oracle.utilities([0, 3, 3])
    assert len(calls) == 2 * 5 + 2 + 3
    assert evaluator.call_count == 2 * 5 + 2 + 2**5 + 3


def _caught(fn):
    with pytest.raises(Exception) as info:
        fn()
    return info.value


# np.errstate reaches only this thread's context; the filter keeps the
# test independent of where shapley_exact_all solves the games (a lone
# game runs in this process, several on forked worker processes).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_coalition_model_is_refused_like_per_coalition_path():
    # Each update is finite and so is the aggregate, but the coalition
    # {0, 2} sums +1e308 twice in the last output bias and overflows.
    deltas = np.zeros((3, ARCH.n_params))
    deltas[:, -1] = (1e308, -1e308, 1e308)
    t = make_transcript(1, init_params(ARCH, seed=0).values, deltas)
    evaluator = ModelEvaluator(ARCH, TEST, "accuracy")
    per_coalition = round_oracle(t, evaluator)
    with np.errstate(over="ignore"):
        single = _caught(lambda: per_coalition.utilities(list(range(8))))
        batched = _caught(round_oracle(t, evaluator).tabulate)
        with pytest.raises(ModelError, match=r"\(0, 2\)"):
            mr_shapley([t], evaluator)
    assert type(batched) is type(single) is ModelError
    assert "(0, 2)" in str(batched)


def test_non_finite_utility_is_refused_like_per_coalition_path():
    # A 1e308 output bias leaves the model finite but sends the mean test
    # cross-entropy to infinity.
    deltas = np.zeros((1, ARCH.n_params))
    deltas[0, -1] = 1e308
    t = make_transcript(1, init_params(ARCH, seed=0).values, deltas)
    evaluator = ModelEvaluator(ARCH, TEST, "neg_loss")
    per_coalition = round_oracle(t, evaluator)
    with np.errstate(over="ignore"):
        single = _caught(lambda: per_coalition.utilities([0, 1]))
        batched = _caught(round_oracle(t, evaluator).tabulate)
    assert type(batched) is type(single) is GameError
    assert "(0,)" in str(batched)
