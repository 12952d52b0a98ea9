"""Lockstep retraining against the per-coalition federation it replaces.

``RetrainingGame`` trains every coalition round by round: round 1 in one
stacked SGD call with a row per client, later rounds in one call per chunk
of a round's (client, coalition) rows, client-major.  The
reference is the computation from before: one sequential federation per
coalition (``reference_training.federate``), its final model evaluated on
its own.  Every comparison is on the uint64 view of the float64 results,
with no tolerance.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore.fedsim import (
    LabeledDataset,
    MlpArch,
    ModelError,
    ModelParams,
    RetrainingGame,
    TrainingDiverged,
    init_params,
    run_federation,
    sgd_train,
)
from fedscore.fedsim import federation
from fedscore.fedsim.mlp import HIDDEN_UNITS, sgd_train_rows
from fedscore.games import coalition_members

import reference_training
from conftest import tiny_config


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def configs(draw):
    n = draw(st.integers(1, 5))
    noisy = draw(st.booleans())
    return tiny_config(
        n_clients=n,
        rounds=draw(st.integers(1, 3)),
        iid=draw(st.booleans()),
        utility_kind=draw(st.sampled_from(("accuracy", "neg_loss"))),
        noise_rates=(
            tuple(draw(st.floats(0.0, 1.0)) for _ in range(n)) if noisy else None
        ),
        batch_size=draw(st.integers(3, 12)),
        seed=draw(st.integers(0, 2**16)),
    )


def reference_table(game):
    """v(S) per mask from one sequential federation per coalition."""
    ev = game._evaluator
    table = [ev(game._m_init)]
    for mask in range(1, 1 << game.n_clients):
        transcripts, _ = reference_training.federate(
            game.config, coalition_members(mask)
        )
        table.append(ev(transcripts[-1].m))
    return np.array(table)


@settings(max_examples=25, deadline=None)
@given(configs())
def test_tabulation_matches_one_federation_per_coalition(config):
    game = RetrainingGame(config)
    table = game.oracle().tabulate()
    assert np.array_equal(bits(table), bits(reference_table(game)))


@settings(max_examples=10, deadline=None)
@given(configs())
def test_grand_coalition_is_the_full_run(config):
    transcripts, _ = run_federation(config)
    game = RetrainingGame(config)
    expect = game._evaluator(transcripts[-1].m)
    table = game.oracle().tabulate()
    grand = (1 << config.n_clients) - 1
    assert bits(table[grand]) == bits(expect)
    # a fresh game that trains only the grand coalition agrees too
    assert bits(RetrainingGame(config).value(grand)) == bits(expect)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 9),
    n=st.integers(1, 30),
    batch_size=st.integers(1, 12),
    epochs=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_stacked_rows_match_lone_training(k, n, batch_size, epochs, seed):
    rng = np.random.default_rng(seed)
    arch = MlpArch(in_dim=5, n_classes=3)
    data = LabeledDataset(rng.normal(size=(n, 5)), rng.integers(0, 3, size=n), 3)
    jitter = rng.normal(0.0, 0.05, size=(k, arch.n_params))
    stack = init_params(arch, seed).values + jitter
    kw = dict(epochs=epochs, lr=0.3, batch_size=batch_size)
    out, diverged = sgd_train_rows(arch, stack, [(data, [seed, 1])] * k, **kw)
    assert diverged is None
    for row in range(k):
        alone = sgd_train(arch, ModelParams(stack[row]), data, seed=[seed, 1], **kw)
        assert np.array_equal(bits(out[row]), bits(alone.values))


def test_short_last_batch_and_single_row():
    rng = np.random.default_rng(4)
    arch = MlpArch(in_dim=4, n_classes=3)
    data = LabeledDataset(rng.normal(size=(17, 4)), rng.integers(0, 3, size=17), 3)
    params = init_params(arch, seed=4)
    kw = dict(epochs=2, lr=0.2, batch_size=8)  # batches of 8, 8, 1
    lone = sgd_train(arch, params, data, seed=9, **kw)
    single, _ = sgd_train_rows(arch, params.values[None], [(data, 9)], **kw)
    assert single.shape == (1, arch.n_params)
    assert np.array_equal(bits(single[0]), bits(lone.values))


def test_tabulation_audits_every_mask_once_and_value_agrees():
    config = tiny_config(n_clients=4, rounds=2)
    game = RetrainingGame(config)
    oracle = game.oracle()
    before = game._evaluator.call_count
    table = oracle.tabulate()
    assert oracle.audit_log == tuple(range(16))
    assert oracle.call_count == 16
    assert game._evaluator.call_count - before == 16
    for mask in range(16):
        assert bits(game.value(mask)) == bits(table[mask])
    again = game.oracle()
    assert np.array_equal(bits(again.tabulate()), bits(table))
    assert again.audit_log == tuple(range(16))


def test_value_before_tabulation_matches_the_table():
    game = RetrainingGame(tiny_config(n_clients=3, rounds=1))
    first = game.value(0b101)
    calls = game._evaluator.call_count
    oracle = game.oracle()
    table = oracle.tabulate()
    assert bits(table[0b101]) == bits(first)
    assert oracle.audit_log == tuple(range(8))
    assert game._evaluator.call_count - calls == 8
    assert np.array_equal(bits(table), bits(reference_table(game)))


def _poison(monkeypatch, round_, client, row, corrupt):
    """Corrupt the ``row``-th row training ``client`` in ``round_`` of the
    stacked call that trains it."""
    real = federation.sgd_train_rows

    def patched(arch, stack, streams, **kw):
        mine = [r for r, (_, seed) in enumerate(streams)
                if list(seed[2:]) == [round_, client]]
        if mine:
            stack = stack.copy()
            return corrupt(real, arch, stack, streams, mine[row], **kw)
        return real(arch, stack, streams, **kw)

    monkeypatch.setattr(federation, "sgd_train_rows", patched)


def _masks_with(client, n):
    return [mask for mask in range(1, 1 << n) if mask >> client & 1]


def test_diverging_row_names_client_round_and_coalition(monkeypatch):
    config = tiny_config(n_clients=4, rounds=3)
    d, h, k = config.dataset.dim, HIDDEN_UNITS, config.dataset.n_classes

    def overflow(real, arch, stack, streams, row, **kw):
        # hidden units saturate positive and every output weight is huge,
        # so the logits overflow and the loss of this row goes non-finite
        stack[row] = 0.0
        stack[row, d * h : d * h + h] = 1.0
        stack[row, (d + 1) * h : (d + 1) * h + h * k] = 1e307
        return real(arch, stack, streams, **kw)

    _poison(monkeypatch, round_=2, client=1, row=3, corrupt=overflow)
    expect = coalition_members(_masks_with(1, 4)[3])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            RetrainingGame(config).oracle().tabulate()
    assert info.value.round == 2
    message = str(info.value)
    assert "client 1" in message and "round 2" in message
    assert f"coalition {expect}" in message


def test_round_one_divergence_names_the_first_coalition(monkeypatch):
    # Client 1 trains once in round 1; every coalition holding it would
    # diverge alike, so the sequential order meets its first coalition.
    config = tiny_config(n_clients=4, rounds=2)
    d, h, k = config.dataset.dim, HIDDEN_UNITS, config.dataset.n_classes

    def overflow(real, arch, stack, streams, row, **kw):
        stack[row] = 0.0
        stack[row, d * h : d * h + h] = 1.0
        stack[row, (d + 1) * h : (d + 1) * h + h * k] = 1e307
        return real(arch, stack, streams, **kw)

    _poison(monkeypatch, round_=1, client=1, row=0, corrupt=overflow)
    expect = coalition_members(_masks_with(1, 4)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            RetrainingGame(config).oracle().tabulate()
    assert info.value.round == 1
    message = str(info.value)
    assert "client 1" in message and "round 1" in message
    assert f"coalition {expect}" in message


def test_round_one_trains_each_client_once(monkeypatch):
    config = tiny_config(n_clients=4, rounds=2)
    real, rows = federation.sgd_train_rows, []

    def counting(arch, stack, streams, **kw):
        rows.extend(seed[2] for _, seed in streams)
        return real(arch, stack, streams, **kw)

    monkeypatch.setattr(federation, "sgd_train_rows", counting)
    RetrainingGame(config).oracle().tabulate()
    assert rows.count(1) == config.n_clients
    assert rows.count(2) == config.n_clients << (config.n_clients - 1)


def test_non_finite_coalition_model_names_the_coalition(monkeypatch):
    config = tiny_config(n_clients=4, rounds=2)

    def infinite(real, arch, stack, streams, row, **kw):
        out, diverged = real(arch, stack, streams, **kw)
        out[row] = np.inf
        return out, diverged

    _poison(monkeypatch, round_=2, client=2, row=1, corrupt=infinite)
    expect = coalition_members(_masks_with(2, 4)[1])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ModelError, match=re.escape(f"coalition {expect}")):
            RetrainingGame(config).oracle().tabulate()


def test_column_major_stack_trains_like_lone_rows():
    # uneven shards of 5, 19 and 12 samples: the strided rows of a
    # column-major stack would round the middle row differently
    config = tiny_config(n_clients=3, rounds=1, iid=False, batch_size=3, seed=0)
    shards, _, arch, m_init = federation._prepare(config)
    kw = dict(epochs=1, lr=config.lr, batch_size=3)
    streams = [(shard, [0, federation._SEED_TRAIN, 1, i])
               for i, shard in enumerate(shards)]
    stack = np.asfortranarray(np.tile(m_init.values, (3, 1)))
    out, _ = sgd_train_rows(arch, stack, streams, **kw)
    for row, (shard, seed) in enumerate(streams):
        alone = sgd_train(arch, m_init, shard, seed=seed, **kw)
        assert np.array_equal(bits(out[row]), bits(alone.values))


def test_kernel_refuses_a_non_finite_stack():
    arch = MlpArch(in_dim=3, n_classes=2)
    data = LabeledDataset(np.zeros((4, 3)), np.zeros(4, dtype=np.int64), 2)
    stack = np.zeros((3, arch.n_params))
    stack[2, 5] = np.nan
    with pytest.raises(ModelError, match="row 2"):
        sgd_train_rows(arch, stack, [(data, 0)] * 3, epochs=1, lr=0.1, batch_size=2)
