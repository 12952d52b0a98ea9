"""The test-set loss kernel as written before the flat-offset gather.

``mlp.stack_mean_loss`` must reproduce :func:`stack_mean_loss` here bit
for bit: the same forward pass (the stacked GEMMs, the biases added out
of place), the row max folded over the class columns, the label column
gathered by fancy indexing and shifted by the row max, the exp-sum
folded over the class columns below 8 classes, and ``ndarray.mean``.
"""

import numpy as np

from fedscore.fedsim.mlp import _row_max, _split


def forward_stack(arch, stack, features):
    w1, b1, w2, b2 = _split(arch, stack)
    hidden = features @ w1
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    return hidden @ w2 + b2[..., None, :]


def stack_mean_loss(arch, stack, data):
    logits = forward_stack(arch, stack, data.features)
    top = _row_max(logits)
    picked = np.ascontiguousarray(logits[:, np.arange(data.n_samples), data.labels])
    picked -= top
    if arch.n_classes < 8:
        total = np.exp(logits[..., 0] - top)
        for j in range(1, arch.n_classes):
            total += np.exp(logits[..., j] - top)
    else:
        total = np.exp(logits - top[..., None]).sum(axis=-1)
    picked -= np.log(total)
    return -picked.mean(axis=1)
