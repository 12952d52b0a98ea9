"""The lockstep SGD trainer and the federations built on it, against the
sequential code they replace (``reference_training``).

``sgd_train_rows`` trains each row of a stack on its own (data, seed)
stream; every row must end bit-identical to ``sgd_train`` on it alone and
to the one-model loop from before.  ``run_federation``, ``run_federations``
and ``run_repeats`` must reproduce one sequential federation per seed.
A divergence must be reported as the sequential order meets it first: the
lowest failing run, its first failing round, its lowest failing
client, with that client's first failure.  Every comparison of floats is
on their uint64 view, with no tolerance.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.experiments import parse_scenario, run_repeats
from fedscore.fedsim import (
    LabeledDataset,
    MlpArch,
    ModelParams,
    RetrainingGame,
    TrainingDiverged,
    federation,
    init_params,
    mlp,
    run_federation,
    run_federations,
    sgd_train,
)
from fedscore.fedsim.mlp import sgd_train_rows

import reference_training
from conftest import tiny_config


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_runs(transcripts, expected):
    assert len(transcripts) == len(expected)
    for got, want in zip(transcripts, expected):
        assert got.round == want.round
        assert np.array_equal(bits(got.m0.values), bits(want.m0.values))
        assert np.array_equal(bits(got.m.values), bits(want.m.values))
        assert got.updates.shape == want.updates.shape
        assert np.array_equal(bits(got.updates), bits(want.updates))


@st.composite
def row_stacks(draw):
    """Rows over a few ragged streams: shards shorter than a batch, 1 to 3
    batches, remainders of 1; several rows may share a stream."""
    batch_size = draw(st.integers(1, 6))
    sizes = draw(st.lists(
        st.one_of(
            st.integers(1, 3 * batch_size),
            st.integers(1, 3).map(lambda b: b * batch_size + 1),
        ),
        min_size=1, max_size=4,
    ))
    rows = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=9))
    return (batch_size, sizes, rows, draw(st.integers(0, 3)),
            draw(st.integers(0, 2**16)))


@settings(max_examples=80, deadline=None)
@given(row_stacks())
def test_rows_match_lone_training(case):
    batch_size, sizes, rows, epochs, seed = case
    rng = np.random.default_rng(seed)
    arch = MlpArch(in_dim=4, n_classes=3)
    streams = [
        (LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n), 3),
         [seed, u])
        for u, n in enumerate(sizes)
    ]
    stack = init_params(arch, seed).values + rng.normal(
        0.0, 0.05, size=(len(rows), arch.n_params)
    )
    kw = dict(epochs=epochs, lr=0.3, batch_size=batch_size)
    out, diverged = sgd_train_rows(arch, stack, [streams[u] for u in rows], **kw)
    assert diverged is None
    for r, u in enumerate(rows):
        data, stream_seed = streams[u]
        alone = sgd_train(arch, ModelParams(stack[r]), data, seed=stream_seed, **kw)
        before = reference_training.sgd(arch, stack[r], data, seed=stream_seed, **kw)
        assert np.array_equal(bits(out[r]), bits(alone.values))
        assert np.array_equal(bits(out[r]), bits(before))


@st.composite
def configs(draw):
    n = draw(st.integers(1, 5))
    noisy = draw(st.booleans())
    return tiny_config(
        n_clients=n,
        rounds=draw(st.integers(1, 3)),
        iid=draw(st.booleans()),
        local_epochs=draw(st.integers(0, 3)),
        noise_rates=(
            tuple(draw(st.floats(0.0, 1.0)) for _ in range(n)) if noisy else None
        ),
        batch_size=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=30, deadline=None)
@given(configs())
def test_run_federation_is_the_sequential_loop(config):
    transcripts, test = run_federation(config)
    expected, expected_test = reference_training.federate(config)
    assert_same_runs(transcripts, expected)
    assert np.array_equal(bits(test.features), bits(expected_test.features))


@settings(max_examples=10, deadline=None)
@given(configs(), st.lists(st.integers(0, 2**16), min_size=2, max_size=4))
def test_run_federations_is_one_sequential_loop_per_seed(config, seeds):
    runs = run_federations(config, seeds)
    assert len(runs) == len(seeds)
    for (transcripts, test), seed in zip(runs, seeds):
        expected, expected_test = reference_training.federate(
            dataclasses.replace(config, seed=seed)
        )
        assert_same_runs(transcripts, expected)
        assert np.array_equal(bits(test.features), bits(expected_test.features))


def test_no_seeds_run_no_federations():
    assert run_federations(tiny_config(), []) == []


REPEATS_SCENARIO = """\
[scenario]
name = repeats
repeats = 4
master_seed = 11
methods = LOO, FP
reference = MR-SV
reference_rounds = eval
eval_round = 3

[federation]
n_clients = 4
rounds = 3
dirichlet_mu = 0.3
local_epochs = 2
lr = 0.1
batch_size = 5
utility = neg_loss

[data]
n_classes = 3
dim = 6
samples_per_client = 11
test_samples_per_class = 10
separation = 1.0
"""


def test_run_repeats_matches_one_sequential_federation_per_repeat():
    scenario = parse_scenario(io.StringIO(REPEATS_SCENARIO), name="repeats")
    contexts = run_repeats(scenario)
    assert [c.repeat for c in contexts] == [0, 1, 2, 3]
    for ctx in contexts:
        assert_same_runs(ctx.transcripts, reference_training.federate(ctx.config)[0])


# A poisoned sample carries this value in its first feature; every batch
# that holds it reports a NaN loss for its model, in the lockstep kernel
# and in the sequential one alike.
SENTINEL = 7777.0


def _nan_on_sentinel(kernel):
    def poisoned(params, grads, features, labels):
        losses = kernel(params, grads, features, labels)
        hit = (np.asarray(features)[..., 0] == SENTINEL).any(axis=-1)
        return np.where(np.broadcast_to(hit, losses.shape), np.nan, losses)

    return poisoned


def _poison(monkeypatch, draws):
    """Poison, for each (seed, client) -> k in ``draws``, the sample that
    client draws k-th in its first epoch of round 1, so its training
    diverges at the step holding that draw."""
    real = federation._prepare

    def prepare(config):
        shards, test, arch, m_init = real(config)
        shards = list(shards)
        for (seed, client), k in draws.items():
            if seed != config.seed:
                continue
            shard = shards[client]
            stream = np.random.default_rng([seed, federation._SEED_TRAIN, 1, client])
            features = shard.features.copy()
            features[stream.permutation(shard.n_samples)[k], 0] = SENTINEL
            shards[client] = LabeledDataset(features, shard.labels, shard.n_classes)
        return shards, test, arch, m_init

    monkeypatch.setattr(federation, "_prepare", prepare)
    monkeypatch.setattr(
        mlp, "_stack_loss_and_grad", _nan_on_sentinel(mlp._stack_loss_and_grad)
    )
    monkeypatch.setattr(
        reference_training, "loss_and_grad",
        _nan_on_sentinel(reference_training.loss_and_grad),
    )


def _raised(run, *args):
    with pytest.raises(TrainingDiverged) as info:
        run(*args)
    return info.value


def test_client_two_diverges_and_client_zero_does_not(monkeypatch):
    config = tiny_config(n_clients=4)
    _poison(monkeypatch, {(config.seed, 2): 0})
    got = _raised(run_federation, config)
    want = _raised(reference_training.federate, config)
    assert str(got) == str(want) == "client 2 diverged in round 1: local loss became nan"
    assert got.round == want.round == 1
    game = _raised(lambda: RetrainingGame(config).oracle().tabulate())
    assert str(game) == (
        "client 2 diverged in round 1 in coalition (2,): local loss became nan"
    )


def test_the_lower_client_wins_though_it_diverges_later(monkeypatch):
    config = tiny_config(n_clients=4)  # 12-sample shards, batches of 8 and 4
    # client 1 fails in its second step, client 3 already in its first
    _poison(monkeypatch, {(config.seed, 1): 11, (config.seed, 3): 0})
    got = _raised(run_federation, config)
    want = _raised(reference_training.federate, config)
    assert str(got) == str(want) == "client 1 diverged in round 1: local loss became nan"
    game = _raised(lambda: RetrainingGame(config).oracle().tabulate())
    assert str(game) == (
        "client 1 diverged in round 1 in coalition (1,): local loss became nan"
    )


def test_the_lower_federation_wins_though_it_diverges_later(monkeypatch):
    config = tiny_config(n_clients=3)
    _poison(monkeypatch, {(20, 2): 11, (21, 0): 0})
    got = _raised(run_federations, config, [20, 21])
    want = _raised(reference_training.federate, tiny_config(n_clients=3, seed=20))
    assert str(got) == str(want) == "client 2 diverged in round 1: local loss became nan"
    alone = _raised(run_federations, config, [22, 21])
    assert str(alone) == "client 0 diverged in round 1: local loss became nan"


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 5),
    poisons=st.dictionaries(st.integers(0, 4), st.integers(0, 11), max_size=3),
    batch_size=st.integers(1, 12),
)
def test_divergence_report_is_the_sequential_one(n, poisons, batch_size):
    config = tiny_config(n_clients=n, batch_size=batch_size)
    draws = {(config.seed, c): k for c, k in poisons.items() if c < n}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poison(monkeypatch, draws)
        try:
            expected = reference_training.federate(config)[0]
        except TrainingDiverged as exc:
            got = _raised(run_federation, config)
            assert (str(got), got.round) == (str(exc), exc.round)
        else:
            assert_same_runs(run_federation(config)[0], expected)
