"""Small game constructors shared across test modules."""

import numpy as np

from fedscore import TableGame
from fedscore.fedsim import mlp

# The worked 3-client example: additive with per-client values (0, 1, 2).
WORKED_VALUES = {
    0b000: 0.0,
    0b001: 0.0,
    0b010: 1.0,
    0b100: 2.0,
    0b011: 1.0,
    0b101: 2.0,
    0b110: 3.0,
    0b111: 3.0,
}


def loss_and_grad(arch, params, features, labels):
    """One model's mean cross-entropy on a batch and its gradient as one
    flat vector, through the stacked trainer's kernel."""
    grad = np.empty((1, arch.n_params))
    loss = mlp._stack_loss_and_grad(
        mlp._split(arch, params.values[None]), mlp._split(arch, grad),
        np.asarray(features)[None], np.asarray(labels)[None],
    )
    return float(loss[0]), grad[0]


def write_table_game(game: TableGame, path) -> None:
    """Write a game in load_table_game's text format, masks in order."""
    rows = [f"{m} {v!r}\n" for m, v in enumerate(game.table.tolist())]
    path.write_text(f"{game.n_clients}\n" + "".join(rows))


def worked_game() -> TableGame:
    return TableGame.from_values(3, WORKED_VALUES)


def additive_game(per_client) -> TableGame:
    """v(S) = sum of per_client[i] over i in S; v(empty) = 0."""
    c = np.asarray(per_client, dtype=np.float64)
    n = c.size
    values = {}
    for mask in range(2**n):
        members = [i for i in range(n) if mask >> i & 1]
        values[mask] = float(c[members].sum()) if members else 0.0
    return TableGame.from_values(n, values)


def random_game(rng, n, zero_empty=True) -> TableGame:
    """Uniform[-1, 1] utility per coalition."""
    draws = rng.uniform(-1.0, 1.0, size=2**n)
    values = {mask: float(v) for mask, v in enumerate(draws)}
    if zero_empty:
        values[0] = 0.0
    return TableGame.from_values(n, values)


def swap_clients(game: TableGame, i: int, j: int) -> TableGame:
    """Relabel clients i and j in a tabulated game."""
    n = game.n_clients
    values = {}
    for mask in range(2**n):
        bi, bj = mask >> i & 1, mask >> j & 1
        swapped = mask & ~(1 << i) & ~(1 << j) | (bi << j) | (bj << i)
        values[swapped] = float(game.table[mask])
    return TableGame.from_values(n, values)


def insert_null(game: TableGame, pos: int) -> TableGame:
    """Extend a game by one client at bit position pos whose presence
    never changes any coalition's value."""
    n = game.n_clients
    low = (1 << pos) - 1
    values = {}
    for mask in range(2 ** (n + 1)):
        stripped = (mask & low) | ((mask >> (pos + 1)) << pos)
        values[mask] = float(game.table[stripped])
    return TableGame.from_values(n + 1, values)
