"""A round game's request other than the whole game: one model per mask.

``round_oracle`` builds the model of each mask of such a request alone,
in request order: a copy of m0 adds its members' updates in ascending
order, in place, and is evaluated before the next mask's model is built.
The reference kept here builds each coalition model alone by the same
ascending fold, out of place.  Every model and utility must match it on
the uint64 view, the request must make exactly one
``ModelEvaluator.__call__`` per mask, audited in request order, and a
non-finite model is refused after exactly the masks before it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fedscore.games import coalition_members

KINDS = ("accuracy", "neg_loss")

_, TEST = generate_synthetic(
    SyntheticSpec(n_classes=3, dim=4, samples_per_client=8,
                  test_samples_per_class=10, separation=1.0),
    2, seed=8,
)
ARCH = MlpArch.for_data(TEST)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def reference_model(transcript, mask):
    model = transcript.m0.values
    for i in coalition_members(mask):
        model = model + transcript.updates[i]
    return model


def make_transcript(n, seed=0, scale=0.3):
    rng = np.random.default_rng([n, seed])
    m0 = init_params(ARCH, seed=n).values
    deltas = scale * rng.standard_normal((n, ARCH.n_params))
    return RoundTranscript(1, ModelParams(m0), deltas, ModelParams(m0 + deltas.sum(axis=0)))


def recording(monkeypatch):
    """Record the model of every ModelEvaluator.__call__, in call order."""
    seen = []
    call = ModelEvaluator.__call__
    monkeypatch.setattr(ModelEvaluator, "__call__",
                        lambda self, model: seen.append(model.values) or call(self, model))
    return seen


@pytest.fixture
def calls(monkeypatch):
    return recording(monkeypatch)


def check_request(transcript, kind, masks, seen):
    evaluator = ModelEvaluator(ARCH, TEST, kind)
    oracle = round_oracle(transcript, evaluator)
    got = oracle.utilities(masks)
    models = [reference_model(transcript, mask) for mask in masks]
    assert [bits(model).tolist() for model in seen] == [bits(m).tolist() for m in models]
    alone = ModelEvaluator(ARCH, TEST, kind)
    want = [alone.evaluate_stack(model[None])[0] for model in models]
    assert bits(got).tolist() == bits(want).tolist()
    assert oracle.audit_log == tuple(masks)
    assert oracle.call_count == evaluator.call_count == len(masks)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_a_request_folds_every_model_like_the_per_member_fold(kind, data):
    n = data.draw(st.integers(1, 9), label="n_clients")
    masks = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=20), label="masks")
    t = make_transcript(n, data.draw(st.integers(0, 3), label="seed"))
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_request(t, kind, masks, recording(monkeypatch))


@pytest.mark.parametrize("kind", KINDS)
def test_one_client_probe_set_repeats_its_masks(kind, calls):
    # N = 1's probe set: empty, grand, singleton {0}, drop-one {}.
    check_request(make_transcript(1), kind, [0, 1, 1, 0], calls)


def test_a_request_longer_than_a_slice_folds_across_slices(calls):
    masks = [(7 * k) % 64 for k in range(515)]
    check_request(make_transcript(6), "neg_loss", masks, calls)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("masks", [
    pytest.param(range(3, 11), id="range-not-the-whole-game"),
    pytest.param(np.array([5, 0, 15, 8, 5, 14]), id="numpy-integers"),
])
def test_a_request_of_another_shape_builds_each_model(kind, masks, calls):
    check_request(make_transcript(4), kind, masks, calls)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("k", [0, 3, 258])
def test_an_overflowing_model_is_refused_after_the_models_before_it(k, calls):
    # Each update is finite and so is the aggregate, but the coalition
    # {0, 2} sums +1e308 twice in the last output bias and overflows.
    deltas = np.zeros((3, ARCH.n_params))
    deltas[:, -1] = (1e308, -1e308, 1e308)
    m0 = init_params(ARCH, seed=0).values
    t = RoundTranscript(1, ModelParams(m0), deltas, ModelParams(m0 + deltas.sum(axis=0)))
    # Masks 0, 3 and 6 leave m0's last output bias as it is; the
    # other masks' utilities are not finite.
    masks = [(3, 0, 6)[i % 3] for i in range(k)] + [5, 2, 5]
    evaluator = ModelEvaluator(ARCH, TEST, "neg_loss")
    oracle = round_oracle(t, evaluator)
    with np.errstate(over="ignore"):
        with pytest.raises(ModelError, match=r"model of coalition \(0, 2\) contains non-finite"):
            oracle.utilities(masks)
    assert oracle.audit_log == tuple(masks[:k])
    assert len(calls) == evaluator.call_count == k
