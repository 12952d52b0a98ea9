"""Local training and the round loop as written before lockstep training.

One model trains at a time on 2-D batch features, and a federation trains
its clients one after another, each through its own SGD run.  The
lockstep trainer (``sgd_train_rows``) and the federations and retraining
games built on it must reproduce these bit for bit, and must report the
failure this sequential order meets first.
"""

import numpy as np

from fedscore.fedsim import (
    ModelParams,
    RoundTranscript,
    TrainingDiverged,
    federation,
)
from fedscore.fedsim.mlp import _layers, _split


def _log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_and_grad(params, grads, features, labels):
    """Loss and gradient of a one-row stack on one (n, dim) batch."""
    w1, b1, w2, b2 = params
    dw1, db1, dw2, db2 = grads
    n = features.shape[0]
    hidden, logits = _layers(features, w1, b1, w2, b2)
    logp = _log_softmax(logits)
    rows = np.arange(n)
    losses = -np.ascontiguousarray(logp[:, rows, labels]).mean(axis=1)

    dlogits = np.exp(logp)
    dlogits[:, rows, labels] -= 1.0
    dlogits /= n
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=dw2)
    dlogits.sum(axis=1, out=db2)
    dz1 = dlogits @ w2.transpose(0, 2, 1)
    dz1 *= 1.0 - hidden**2
    np.matmul(features.T, dz1, out=dw1)
    dz1.sum(axis=1, out=db1)
    return losses


def sgd(arch, values, data, epochs, lr, batch_size, seed):
    """One model's mini-batch SGD; returns the trained parameter vector."""
    stack = np.array(values, dtype=np.float64)[None]
    rng = np.random.default_rng(seed)
    grad = np.empty_like(stack)
    params, grads = _split(arch, stack), _split(arch, grad)
    n = data.n_samples
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            losses = loss_and_grad(
                params, grads, data.features[batch], data.labels[batch]
            )
            if not np.isfinite(losses).all():
                raise TrainingDiverged(
                    f"local loss became {float(losses[0])!r}", row=0
                )
            grad *= lr
            stack -= grad
            if not np.isfinite(stack).all():
                raise TrainingDiverged(
                    "parameters became non-finite after an update", row=0
                )
    return stack[0]


def federate(config, members=None):
    """(transcripts, test set) of one federation over ``members`` (all
    clients by default), every client trained by :func:`sgd` in turn.
    A round's k-th update is the k-th member's, labelled k."""
    shards, test, arch, m_init = federation._prepare(config)
    members = range(config.n_clients) if members is None else members
    scale = 1.0 / len(members)
    m0 = m_init
    transcripts = []
    for t in range(1, config.rounds + 1):
        updates = []
        for i in members:
            try:
                local = sgd(
                    arch, m0.values, shards[i],
                    epochs=config.local_epochs,
                    lr=config.lr,
                    batch_size=config.batch_size,
                    seed=[config.seed, federation._SEED_TRAIN, t, i],
                )
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"client {i} diverged in round {t}: {exc}", round=t
                ) from exc
            # refuses a non-finite update before later clients train
            updates.append(ModelParams((local - m0.values) * scale).values)
        m = ModelParams(m0.values + np.sum(updates, axis=0))
        transcripts.append(RoundTranscript(round=t, m0=m0, updates=np.stack(updates), m=m))
        m0 = m
    return transcripts, test
