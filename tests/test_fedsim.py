"""Simulator internals: data, model, federation, retraining game, archive.

The model's loss is checked against scipy's log_softmax and the gradient
against central finite differences; the federation is mostly pinned down
by determinism and by the aggregate identity m = m0 + sum of deltas.
"""

import json
import re
import struct
import tempfile

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedscore import Coalition, GameError
from fedscore.fedsim import (
    ArchiveError,
    DataError,
    FederationConfig,
    FederationError,
    HIDDEN_UNITS,
    LabeledDataset,
    MlpArch,
    ModelError,
    ModelEvaluator,
    ModelParams,
    RetrainingGame,
    RoundTranscript,
    SyntheticSpec,
    TrainingDiverged,
    dirichlet_partition,
    flip_labels,
    generate_synthetic,
    iid_partition,
    init_params,
    load_transcripts,
    model_eval_oracle,
    round_oracle,
    run_federation,
    save_transcripts,
    sgd_train,
)
from fedscore.fedsim import data as data_module
from fedscore.fedsim import federation, mlp
from fedscore.fedsim import test_set_for as config_test_set
from fedscore.fedsim.mlp import stack_mean_loss

from conftest import TINY_SPEC, tiny_config
from helpers import loss_and_grad

# Archive values: signed zeros, subnormals and magnitudes up to 1e300.
ARCHIVE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def archived_runs(draw):
    """(config, transcripts) of 1-4 clients and 1-3 rounds; each vector
    repeats 1-6 drawn values over the parameters of the config's model."""
    n = draw(st.integers(1, 4))
    rounds = draw(st.integers(1, 3))
    width = draw(st.integers(1, 6))
    n_params = MlpArch(TINY_SPEC.dim, TINY_SPEC.n_classes).n_params
    vectors = st.lists(ARCHIVE_FLOATS, min_size=width, max_size=width).map(
        lambda values: np.resize(values, n_params))
    transcripts = []
    for rnd in range(1, rounds + 1):
        m0 = draw(vectors)
        deltas = np.array([draw(vectors) for _ in range(n)])
        m = m0 + deltas.sum(axis=0)
        assume(np.all(np.isfinite(m)))
        transcripts.append(RoundTranscript(
            round=rnd, m0=ModelParams(m0), updates=deltas, m=ModelParams(m),
        ))
    config = tiny_config(
        n_clients=n,
        rounds=rounds,
        noise_rates=draw(st.none() | st.tuples(*[st.floats(0.0, 1.0)] * n)),
        flip_target=draw(st.none() | st.integers(0, TINY_SPEC.n_classes - 1)),
    )
    return config, transcripts


class TestSyntheticData:
    def test_shapes_and_balance(self):
        spec = SyntheticSpec(n_classes=3, dim=5, samples_per_client=10,
                             test_samples_per_class=8)
        train, test = generate_synthetic(spec, n_clients=4, seed=1)
        assert train.n_samples == 40 and train.dim == 5
        assert test.n_samples == 24
        # test set is exactly balanced, train as even as divisibility allows
        assert all(np.sum(test.labels == c) == 8 for c in range(3))
        counts = [int(np.sum(train.labels == c)) for c in range(3)]
        assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        spec = SyntheticSpec()
        a, _ = generate_synthetic(spec, 3, seed=5)
        b, _ = generate_synthetic(spec, 3, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c, _ = generate_synthetic(spec, 3, seed=6)
        assert not np.array_equal(a.features, c.features)

    def test_needs_a_client(self):
        with pytest.raises(DataError):
            generate_synthetic(SyntheticSpec(), 0, seed=1)


class TestPartitions:
    def _pool(self, n=60):
        rng = np.random.default_rng(2)
        return LabeledDataset(rng.normal(size=(n, 4)),
                              rng.integers(0, 3, size=n), 3)

    def test_iid_sizes_near_equal(self):
        pool = self._pool(61)
        shards = iid_partition(pool, 4, seed=3)
        sizes = [s.n_samples for s in shards]
        assert sum(sizes) == 61
        assert max(sizes) - min(sizes) <= 1

    def test_iid_validation(self):
        with pytest.raises(DataError, match="need at least one client, got 0"):
            iid_partition(self._pool(4), 0, seed=0)
        with pytest.raises(DataError, match="cannot give 5 clients at least one of 4"):
            iid_partition(self._pool(4), 5, seed=0)

    def test_iid_deterministic(self):
        pool = self._pool()
        a = iid_partition(pool, 3, seed=3)
        b = iid_partition(pool, 3, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_dirichlet_covers_pool_and_no_empty_shard(self):
        pool = self._pool(50)
        for mu in (0.05, 0.5, 10.0):
            shards = dirichlet_partition(pool, 5, mu=mu, seed=4)
            assert sum(s.n_samples for s in shards) == 50
            assert all(s.n_samples >= 1 for s in shards)

    def test_dirichlet_skew_grows_as_mu_shrinks(self):
        pool = self._pool(300)
        def spread(mu):
            shards = dirichlet_partition(pool, 5, mu=mu, seed=11)
            sizes = np.array([s.n_samples for s in shards])
            return sizes.max() - sizes.min()
        assert spread(0.05) > spread(100.0)

    def test_dirichlet_repairs_empty_shards(self, monkeypatch):
        # 9 samples for 9 clients: every redraw leaves a client empty, so
        # the repair moves single samples into the empty shards.
        spec = SyntheticSpec(samples_per_client=1)
        train, _ = generate_synthetic(spec, n_clients=9, seed=0)
        draws = []
        real = data_module._largest_remainder

        def counting(shares, total):
            draws.append(total)
            return real(shares, total)

        monkeypatch.setattr(data_module, "_largest_remainder", counting)
        shards = dirichlet_partition(train, 9, mu=0.5, seed=0)
        assert len(draws) == data_module._MAX_PARTITION_ATTEMPTS * spec.n_classes
        assert [s.n_samples for s in shards] == [1] * 9
        rows = sorted(r.tobytes() for s in shards for r in s.features)
        assert rows == sorted(r.tobytes() for r in train.features)
        again = dirichlet_partition(train, 9, mu=0.5, seed=0)
        for a, b in zip(shards, again):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_dirichlet_validation(self):
        pool = self._pool(4)
        with pytest.raises(DataError, match="need at least one client, got 0"):
            dirichlet_partition(pool, 0, mu=0.5, seed=0)
        with pytest.raises(DataError):
            dirichlet_partition(pool, 5, mu=0.5, seed=0)  # more clients than rows
        with pytest.raises(DataError):
            dirichlet_partition(pool, 2, mu=0.0, seed=0)
        with pytest.raises(DataError):
            dirichlet_partition(pool, 2, mu=np.inf, seed=0)


class TestLabelFlips:
    def _data(self):
        rng = np.random.default_rng(5)
        return LabeledDataset(rng.normal(size=(200, 3)),
                              rng.integers(0, 4, size=200), 4)

    def test_rate_zero_is_identity(self):
        data = self._data()
        assert flip_labels(data, 0.0, seed=1) is data

    def test_rate_one_changes_every_label(self):
        data = self._data()
        flipped = flip_labels(data, 1.0, seed=1)
        assert np.all(flipped.labels != data.labels)
        assert np.array_equal(flipped.features, data.features)

    def test_targeted_flip_only_relabels_to_target(self):
        data = self._data()
        flipped = flip_labels(data, 1.0, seed=1, target=2)
        already = data.labels == 2
        assert np.all(flipped.labels[~already] == 2)
        assert np.array_equal(flipped.labels[already], data.labels[already])

    def test_partial_rate_flips_roughly_that_fraction(self):
        data = self._data()
        flipped = flip_labels(data, 0.3, seed=7)
        frac = np.mean(flipped.labels != data.labels)
        assert 0.15 < frac < 0.45

    def test_validation(self):
        data = self._data()
        with pytest.raises(DataError):
            flip_labels(data, 1.5, seed=0)
        with pytest.raises(DataError):
            flip_labels(data, 0.5, seed=0, target=4)


class TestModelParams:
    def test_non_finite_rejected(self):
        with pytest.raises(ModelError):
            ModelParams(np.array([1.0, np.nan]))

    def test_read_only(self):
        p = ModelParams(np.array([1.0]))
        with pytest.raises(ValueError):
            p.values[0] = 2.0


class TestMlp:
    ARCH = MlpArch(in_dim=4, n_classes=3)

    def test_param_count(self):
        d, h, k = 4, HIDDEN_UNITS, 3
        assert self.ARCH.n_params == (d + 1) * h + (h + 1) * k
        assert init_params(self.ARCH, seed=0).dim == self.ARCH.n_params

    def test_init_deterministic(self):
        a = init_params(self.ARCH, seed=3)
        b = init_params(self.ARCH, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_unpack_shapes(self):
        w1, b1, w2, b2 = mlp._split(self.ARCH, init_params(self.ARCH, seed=0).values)
        assert w1.shape == (4, HIDDEN_UNITS) and b1.shape == (HIDDEN_UNITS,)
        assert w2.shape == (HIDDEN_UNITS, 3) and b2.shape == (3,)

    def test_loss_matches_scipy_log_softmax(self):
        rng = np.random.default_rng(6)
        params = init_params(self.ARCH, seed=6)
        feats = rng.normal(size=(10, 4))
        labels = rng.integers(0, 3, size=10)
        data = LabeledDataset(feats, labels, 3)
        logits = mlp._forward_stack(self.ARCH, params.values[None], feats)[0]
        logp = scipy.special.log_softmax(logits, axis=1)
        expect = float(-logp[np.arange(10), labels].mean())
        assert abs(stack_mean_loss(self.ARCH, params.values[None], data)[0] - expect) < 1e-12

    def test_loss_and_grad_loss_agrees_with_mean_loss(self):
        rng = np.random.default_rng(16)
        params = init_params(self.ARCH, seed=16)
        feats = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        data = LabeledDataset(feats, labels, 3)
        loss, _ = loss_and_grad(self.ARCH, params, feats, labels)
        assert abs(loss - stack_mean_loss(self.ARCH, params.values[None], data)[0]) < 1e-12

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(17)
        params = init_params(self.ARCH, seed=17)
        feats = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, size=12)
        _, grad = loss_and_grad(self.ARCH, params, feats, labels)
        h = 1e-6
        for idx in rng.choice(params.dim, size=20, replace=False):
            e = np.zeros(params.dim)
            e[idx] = h
            up, _ = loss_and_grad(self.ARCH, ModelParams(params.values + e), feats, labels)
            dn, _ = loss_and_grad(self.ARCH, ModelParams(params.values - e), feats, labels)
            fd = (up - dn) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-5 * max(1.0, abs(fd))

    def test_accuracy_counts_argmax_hits(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 1, 0])
        data = LabeledDataset(feats, labels, 2)
        arch = MlpArch(in_dim=2, n_classes=2)
        params = init_params(arch, seed=1)
        logits = mlp._forward_stack(arch, params.values[None], feats)[0]
        expect = float(np.mean(np.argmax(logits, axis=1) == labels))
        assert mlp.stack_accuracy(arch, params.values[None], data)[0] == expect

    def test_sgd_zero_epochs_is_identity(self):
        data = LabeledDataset(np.zeros((4, 4)), np.zeros(4, dtype=np.int64), 3)
        params = init_params(self.ARCH, seed=2)
        out = sgd_train(self.ARCH, params, data, epochs=0, lr=0.1, batch_size=2, seed=0)
        assert np.array_equal(out.values, params.values)

    def test_sgd_deterministic_and_learns(self):
        spec = SyntheticSpec(n_classes=3, dim=4, samples_per_client=40,
                             test_samples_per_class=10, separation=2.0)
        train, _ = generate_synthetic(spec, 1, seed=9)
        params = init_params(self.ARCH, seed=9)
        kw = dict(epochs=5, lr=0.2, batch_size=8, seed=13)
        a = sgd_train(self.ARCH, params, train, **kw)
        b = sgd_train(self.ARCH, params, train, **kw)
        assert np.array_equal(a.values, b.values)
        assert (stack_mean_loss(self.ARCH, a.values[None], train)[0]
                < stack_mean_loss(self.ARCH, params.values[None], train)[0])

    def test_sgd_divergence_raises(self):
        # a model already at the overflow edge: every output weight is huge
        # and positive, so the logits overflow and the loss goes non-finite
        rng = np.random.default_rng(3)
        train = LabeledDataset(rng.normal(size=(16, 4)),
                               rng.integers(0, 3, size=16), 3)
        d, h, k = 4, HIDDEN_UNITS, 3
        vec = np.zeros(self.ARCH.n_params)
        vec[d * h : d * h + h] = 1.0  # b1: hidden saturates positive
        vec[(d + 1) * h : (d + 1) * h + h * k] = 1e307  # w2
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                sgd_train(self.ARCH, ModelParams(vec), train, epochs=1, lr=0.1,
                          batch_size=4, seed=0)


class TestFederation:
    def test_transcripts_per_round(self, tiny_run):
        config, transcripts, _ = tiny_run
        assert [t.round for t in transcripts] == list(range(1, config.rounds + 1))
        for t in transcripts:
            assert t.updates.shape == (config.n_clients, t.dim)

    def test_aggregate_identity(self, tiny_run):
        _, transcripts, _ = tiny_run
        for t in transcripts:
            total = t.m0.values + t.updates.sum(axis=0)
            np.testing.assert_allclose(t.m.values, total, atol=1e-9)

    def test_rounds_chain(self, tiny_run):
        _, transcripts, _ = tiny_run
        for prev, cur in zip(transcripts, transcripts[1:]):
            assert np.array_equal(cur.m0.values, prev.m.values)

    def test_bit_identical_reruns(self):
        config = tiny_config()
        a, _ = run_federation(config)
        b, _ = run_federation(config)
        for x, y in zip(a, b):
            assert np.array_equal(x.m.values, y.m.values)
            assert np.array_equal(x.updates, y.updates)

    def test_seed_changes_run(self):
        a, _ = run_federation(tiny_config())
        b, _ = run_federation(tiny_config(seed=8))
        assert not np.array_equal(a[-1].m.values, b[-1].m.values)

    def test_noise_rates_change_training(self):
        noisy = tiny_config(noise_rates=(0.0, 0.0, 1.0))
        a, _ = run_federation(tiny_config())
        b, _ = run_federation(noisy)
        assert not np.array_equal(a[-1].m.values, b[-1].m.values)
        # the clean clients still start from the same data
        assert np.array_equal(a[0].m0.values, b[0].m0.values)

    def test_transcript_validates_aggregate(self, tiny_run):
        _, transcripts, _ = tiny_run
        t = transcripts[0]
        broken = ModelParams(t.m.values + 1.0)
        with pytest.raises(FederationError):
            RoundTranscript(round=t.round, m0=t.m0, updates=t.updates, m=broken)

    @pytest.mark.parametrize("updates, message", [
        (np.zeros(3), "updates must be a (clients, dim) array with a row per "
                      "client, got shape (3,)"),
        (np.zeros((1, 2, 3)), "got shape (1, 2, 3)"),
        (np.zeros((0, 3)), "got shape (0, 3)"),
        (np.zeros((2, 4)), "updates have dim 4, expected 3"),
        (np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0]]),
         "update of client 1 contains non-finite values"),
        (np.array([[0.0, 0.0, -np.inf]]),
         "update of client 0 contains non-finite values"),
    ])
    def test_transcript_refuses_bad_updates(self, updates, message):
        m0 = ModelParams(np.zeros(3))
        with pytest.raises(FederationError, match=re.escape(message)):
            RoundTranscript(1, m0, updates, m0)

    def test_transcript_holds_a_frozen_copy_of_the_updates(self):
        deltas = np.eye(2, 3)
        t = RoundTranscript(1, ModelParams(np.zeros(3)), deltas,
                            ModelParams(deltas.sum(axis=0)))
        deltas[0, 0] = 5.0
        assert t.updates[0, 0] == 1.0 and t.updates.dtype == np.float64
        with pytest.raises(ValueError):
            t.updates[0, 0] = 2.0

    def test_config_validation(self):
        with pytest.raises(FederationError):
            tiny_config(n_clients=0)
        with pytest.raises(FederationError):
            tiny_config(noise_rates=(0.5,))  # wrong length
        with pytest.raises(FederationError):
            tiny_config(noise_rates=(0.0, 0.0, 1.5))
        with pytest.raises(FederationError):
            tiny_config(flip_target=3)
        with pytest.raises(FederationError):
            tiny_config(utility_kind="f1")
        with pytest.raises(FederationError, match="seed must be nonnegative, got -1"):
            tiny_config(seed=-1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(FederationError, match=f"lr={lr}"):
            tiny_config(lr=lr)


class TestEvaluatorAndOracles:
    def test_evaluator_counts_calls(self, tiny_run):
        config, transcripts, test = tiny_run
        ev = model_eval_oracle(test, "neg_loss")
        assert ev.call_count == 0
        ev(transcripts[0].m0)
        ev(transcripts[0].m)
        assert ev.call_count == 2

    def test_evaluate_stack_counts_only_well_shaped_stacks(self, tiny_run):
        config, transcripts, test = tiny_run
        ev = model_eval_oracle(test, "neg_loss")
        m = transcripts[0].m0.values
        for bad in (m, m[None, :-1], np.stack([m, m])[None]):
            with pytest.raises(ModelError, match=re.escape(str(bad.shape))):
                ev.evaluate_stack(bad)
        assert ev.call_count == 0
        ev.evaluate_stack(np.stack([m, m]))
        assert ev.call_count == 2

    def test_utility_kinds(self, tiny_run):
        config, transcripts, test = tiny_run
        arch = MlpArch.for_data(test)
        m = transcripts[-1].m
        neg = model_eval_oracle(test, "neg_loss")(m)
        acc = model_eval_oracle(test, "accuracy")(m)
        assert abs(neg - (-stack_mean_loss(arch, m.values[None], test)[0])) < 1e-12
        assert abs(acc - mlp.stack_accuracy(arch, m.values[None], test)[0]) < 1e-12
        with pytest.raises(FederationError):
            ModelEvaluator(arch, test, "auc")

    def test_round_oracle_endpoints(self, tiny_run):
        config, transcripts, test = tiny_run
        ev = model_eval_oracle(test, config.utility_kind)
        t = transcripts[0]
        oracle = round_oracle(t, ev)
        empty, grand = oracle.utilities([0, (1 << config.n_clients) - 1])
        assert empty == ev(t.m0)
        assert abs(grand - ev(t.m)) < 1e-9

    def test_test_set_matches_run(self, tiny_run):
        config, _, test = tiny_run
        again = config_test_set(config)
        assert np.array_equal(again.features, test.features)
        assert np.array_equal(again.labels, test.labels)


class TestRetrainingGame:
    def test_empty_coalition_scores_initial_model(self):
        game = RetrainingGame(tiny_config(rounds=1))
        v0 = game.value(Coalition(0))
        assert np.isfinite(v0)
        assert game.value(Coalition(0)) == v0

    def test_grand_matches_full_run(self):
        config = tiny_config(rounds=1)
        game = RetrainingGame(config)
        transcripts, test = run_federation(config)
        ev = model_eval_oracle(test, config.utility_kind)
        got = game.value(Coalition.of(range(config.n_clients)))
        assert abs(got - ev(transcripts[-1].m)) < 1e-12

    def test_out_of_range_coalition_rejected(self):
        game = RetrainingGame(tiny_config(rounds=1))
        with pytest.raises(GameError):
            game.value(Coalition.of([5]))

    def test_oracle_audits_over_memoised_game(self):
        game = RetrainingGame(tiny_config(rounds=1))
        oracle = game.oracle()
        oracle.utilities([0b10, 0b10])
        assert oracle.call_count == 2  # the audit counts every call

    def test_client_cap_checked_before_training(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data generated past the cap")

        monkeypatch.setattr(federation, "_prepare", no_data)
        with pytest.raises(FederationError, match="capped at 12 clients, got 13"):
            RetrainingGame(tiny_config(n_clients=13, rounds=1))

    def test_twelve_clients_construct_without_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained while constructing")

        monkeypatch.setattr(federation, "sgd_train_rows", no_training)
        assert RetrainingGame(tiny_config(n_clients=12, rounds=1)).n_clients == 12


class TestArchive:
    def test_roundtrip(self, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        save_transcripts(tmp_path / "arc", config, transcripts)
        config2, loaded = load_transcripts(tmp_path / "arc")
        assert config2 == config
        assert len(loaded) == len(transcripts)
        for a, b in zip(transcripts, loaded):
            assert a.round == b.round
            assert np.array_equal(a.m.values, b.m.values)
            assert np.array_equal(a.m0.values, b.m0.values)
            assert np.array_equal(a.updates, b.updates)

    @settings(max_examples=60, deadline=None)
    @given(archived_runs())
    def test_roundtrip_is_bit_exact(self, run):
        config, transcripts = run

        def bits(values):
            return values.view(np.uint64)

        with tempfile.TemporaryDirectory() as tmp:
            save_transcripts(tmp, config, transcripts)
            loaded_config, loaded = load_transcripts(tmp)
        assert loaded_config == config
        assert [t.round for t in loaded] == [t.round for t in transcripts]
        for a, b in zip(transcripts, loaded):
            assert np.array_equal(bits(a.m0.values), bits(b.m0.values))
            assert np.array_equal(bits(a.m.values), bits(b.m.values))
            assert a.updates.shape == b.updates.shape
            assert np.array_equal(bits(a.updates), bits(b.updates))

    def test_round_blob_layout(self, tmp_path):
        # The bytes are spelled out with struct, not numpy: a uint32 dim,
        # then m0, each update row in client order and m as float64, all
        # little-endian.
        config = tiny_config(n_clients=3, rounds=1)
        dim = MlpArch(TINY_SPEC.dim, TINY_SPEC.n_classes).n_params
        m0 = np.arange(dim) * 0.5
        deltas = np.arange(3 * dim).reshape(3, dim) / 8.0 - 100.0
        m = m0 + deltas.sum(axis=0)
        t = RoundTranscript(1, ModelParams(m0), deltas, ModelParams(m))
        save_transcripts(tmp_path / "arc", config, [t])
        want = struct.pack("<I", dim)
        for row in [m0, *deltas, m]:
            want += struct.pack(f"<{dim}d", *row.tolist())
        assert (tmp_path / "arc" / "rounds" / "round_0001.bin").read_bytes() == want

    def test_tampered_round_detected(self, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        save_transcripts(tmp_path / "arc", config, transcripts)
        victim = next((tmp_path / "arc" / "rounds").iterdir())
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError):
            load_transcripts(tmp_path / "arc")

    @pytest.mark.parametrize(
        "key", ["n_clients", "dim", "rounds", "config_sha256", "files"])
    def test_manifest_missing_key_named(self, key, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        arc = tmp_path / "arc"
        save_transcripts(arc, config, transcripts)
        manifest = json.loads((arc / "manifest.json").read_text())
        del manifest[key]
        (arc / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match=f"missing key '{key}'"):
            load_transcripts(arc)

    @pytest.mark.parametrize("text, problem", [
        ("[]", "not a JSON object"), ("{", "not valid JSON")])
    def test_manifest_not_an_object(self, text, problem, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        arc = tmp_path / "arc"
        save_transcripts(arc, config, transcripts)
        (arc / "manifest.json").write_text(text)
        with pytest.raises(ArchiveError, match=f"manifest.json: {problem}"):
            load_transcripts(arc)

    def test_empty_archive_rejected(self, tiny_run, tmp_path):
        config, _, _ = tiny_run
        with pytest.raises(ArchiveError):
            save_transcripts(tmp_path / "arc", config, [])

    def test_out_of_order_rounds_rejected(self, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        with pytest.raises(ArchiveError):
            save_transcripts(tmp_path / "arc", config, transcripts[::-1])
