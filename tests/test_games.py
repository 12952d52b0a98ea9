"""Coalition plumbing and exact allocation rules.

The Shapley implementation is checked against an independent oracle: the
permutation definition (average marginal contribution over all N! client
orderings), written here with plain itertools so the two computations
share no code.
"""

import itertools
import math

import numpy as np
import pytest

from fedscore import (
    CoalitionOracle,
    GameError,
    ScoreVector,
    TableGame,
    load_table_game,
    scoring,
    shapley_exact,
)
from fedscore import games as games_module
from fedscore.games import coalition_members

from helpers import (
    WORKED_VALUES, additive_game, random_game, worked_game, write_table_game,
)


def permutation_shapley(game: TableGame) -> np.ndarray:
    """Reference Shapley via the N! orderings definition."""
    n = game.n_clients
    totals = np.zeros(n)
    for order in itertools.permutations(range(n)):
        mask = 0
        for i in order:
            with_i = mask | (1 << i)
            totals[i] += game.table[with_i] - game.table[mask]
            mask = with_i
    return totals / math.factorial(n)


def popcount_game(masks):
    """A batch game: each coalition's utility is its size, in one array."""
    return [[bin(mask).count("1") for mask in masks]]


class TestCoalition:
    def test_members_roundtrip(self):
        assert coalition_members(0b101001) == (0, 3, 5)

    def test_negative_member_rejected(self):
        with pytest.raises(GameError, match="coalition mask must be nonnegative, got -1"):
            coalition_members(-1)

    def test_empty(self):
        assert coalition_members(0) == ()


class TestCoalitionOracle:
    def test_counts_every_call(self):
        oracle = CoalitionOracle(3, popcount_game)
        got = oracle.utilities([0b000, 0b001, 0b011, 0b111, 0b001])
        assert np.array_equal(got, [0, 1, 2, 3, 1])
        assert oracle.call_count == 5
        assert oracle.audit_log == (0b000, 0b001, 0b011, 0b111, 0b001)

    def test_request_keeps_order_and_audits_each_repeat(self):
        # N = 1's probe set asks for empty, grand, singleton, drop-one.
        oracle = TableGame(1, [0.25, 1.5]).oracle()
        u = scoring._probe_set(oracle)
        assert (u.v_empty, u.v_grand) == (0.25, 1.5)
        assert list(u.v_with) == [1.5] and list(u.v_without) == [0.25]
        assert oracle.audit_log == (0, 1, 1, 0)
        assert oracle.call_count == 4

    def test_out_of_range_rejected(self):
        asked = []
        oracle = CoalitionOracle(2, lambda masks: asked.append(masks) or [])
        with pytest.raises(GameError, match=r"coalition \(2,\) has members outside"):
            oracle.utilities([0b100])
        assert asked == [] and oracle.audit_log == ()

    @pytest.mark.parametrize("masks, message", [
        pytest.param([0, 4, 1], r"coalition \(2,\) has members outside 0\.\.1",
                     id="list"),
        pytest.param([3, -1], "mask must be nonnegative, got -1", id="negative"),
        pytest.param(np.array([0, 4]), r"coalition \(2,\) has members outside 0\.\.1",
                     id="numpy"),
        pytest.param(range(5), r"coalition \(2,\) has members outside", id="range"),
        # 2^40 masks: a range is checked at its ends, not mask by mask.
        pytest.param(range(2**40), r"coalition \(0, 1, .*, 39\) has members outside",
                     id="huge-range"),
    ])
    def test_out_of_range_mask_in_a_request_rejected(self, masks, message):
        asked = []
        oracle = CoalitionOracle(2, lambda masks: asked.append(masks) or [])
        with pytest.raises(GameError, match=message):
            oracle.utilities(masks)
        assert asked == [] and oracle.audit_log == ()

    def test_non_finite_value_rejected(self):
        oracle = CoalitionOracle(2, lambda masks: [[1.0, math.inf, math.nan]])
        with pytest.raises(GameError, match=r"coalition \(0,\) is not finite: inf"):
            oracle.utilities([3, 1, 2])
        assert oracle.audit_log == (3, 1, 2)

    @pytest.mark.parametrize("chunks, audited", [
        pytest.param([[0.0, 0.0, 0.0]], (), id="past-in-one-chunk"),
        pytest.param([[0.0], [0.0], [0.0]], (2, 1), id="one-at-a-time"),
    ])
    def test_a_game_that_answers_more_than_asked_is_refused(self, chunks, audited):
        oracle = CoalitionOracle(2, lambda masks: chunks)
        with pytest.raises(GameError, match=(
                "a game of 2 clients yielded more than 2 utilities for 2 masks")):
            oracle.utilities([2, 1])
        assert oracle.audit_log == audited

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_a_raising_game_leaves_the_masks_before_it_audited(self, k):
        masks = [5, 3, 3, 6]

        def game(asked):
            for j, mask in enumerate(asked):
                if j == k:
                    raise RuntimeError(f"mask {mask}")
                yield [0.0]

        oracle = CoalitionOracle(3, game)
        with pytest.raises(RuntimeError, match=f"mask {masks[k]}"):
            oracle.utilities(masks)
        assert oracle.audit_log == tuple(masks[:k])
        assert oracle.call_count == k

    def test_tabulation_audits_each_mask_in_order(self):
        oracle = CoalitionOracle(4, popcount_game)
        assert np.array_equal(oracle.tabulate(), [bin(m).count("1") for m in range(16)])
        assert oracle.audit_log == tuple(range(2**4))

    @pytest.mark.parametrize("k", [0, 5, 15])
    def test_tabulation_audits_only_the_coalitions_before_a_raising_fn(self, k):
        def game(masks):
            for mask in masks:
                if mask == k:
                    raise RuntimeError(f"mask {k}")
                yield [0.0]

        oracle = CoalitionOracle(4, game)
        with pytest.raises(RuntimeError, match=f"mask {k}"):
            oracle.tabulate()
        assert oracle.audit_log == tuple(range(k))
        assert oracle.call_count == k

    def test_tabulation_refuses_the_first_non_finite_utility(self):
        values = np.zeros(8)
        values[[5, 6]] = (np.inf, np.nan)
        oracle = CoalitionOracle(3, lambda masks: [values[:4], values[4:]])
        with pytest.raises(GameError, match=r"coalition \(0, 2\) is not finite: inf"):
            oracle.tabulate()
        assert oracle.audit_log == tuple(range(8))

    def test_tabulation_is_capped_before_evaluating(self):
        oracle = CoalitionOracle(21, lambda masks: pytest.fail("evaluated"))
        with pytest.raises(GameError, match="capped at 20 clients, got 21"):
            oracle.tabulate()


class TestTableGame:
    def test_from_values_key_forms(self):
        by_mask = TableGame.from_values(2, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0})
        by_numpy_mask = TableGame.from_values(2, {np.int64(m): float(m) for m in range(4)})
        assert np.array_equal(by_mask.table, by_numpy_mask.table)

    @pytest.mark.parametrize("key, message", [
        pytest.param(2.0, "coalition key 2.0 is not an integer bitmask", id="float"),
        pytest.param((1,), r"coalition key \(1,\) is not an integer bitmask", id="tuple"),
        pytest.param("2", "coalition key '2' is not an integer bitmask", id="string"),
        pytest.param(-1, "coalition mask -1 out of range for 2 clients", id="negative"),
    ])
    def test_key_that_is_not_a_mask_is_refused_by_name(self, key, message):
        with pytest.raises(GameError, match=message):
            TableGame.from_values(2, {0: 0.0, 1: 1.0, key: 1.0, 3: 2.0})

    def test_missing_coalition_rejected(self):
        with pytest.raises(GameError, match="missing"):
            TableGame.from_values(2, {0: 0.0, 1: 1.0, 3: 3.0})

    @pytest.mark.parametrize("values", [
        pytest.param({0: 0.0, 1: math.nan}, id="nan"),
        pytest.param({0: 0.0, 1: math.nan, (0,): 1.0}, id="nan-then-again"),
    ])
    def test_non_finite_utility_is_refused_by_its_coalition(self, values):
        with pytest.raises(GameError, match=r"coalition \(0,\) is not finite: nan"):
            TableGame.from_values(1, values)

    @pytest.mark.parametrize("n_clients, table, message", [
        pytest.param(1, [0.0, math.nan], r"coalition \(0,\) is not finite: nan",
                     id="nan"),
        pytest.param(2, [0.0, 1.0, math.inf, math.nan],
                     r"coalition \(1,\) is not finite: inf", id="inf-before-nan"),
        pytest.param(2, [-math.inf, 1.0, 2.0, 3.0],
                     r"coalition \(\) is not finite: -inf", id="empty-coalition"),
    ])
    def test_non_finite_table_is_refused_by_its_first_bad_coalition(
        self, n_clients, table, message
    ):
        with pytest.raises(GameError, match=message):
            TableGame(n_clients, table)

    def test_value_lookup(self):
        oracle = worked_game().oracle()
        assert list(oracle.utilities([0b110, 0])) == [3.0, 0.0]

    def test_oracle_tabulation_cost(self):
        game = worked_game()
        oracle = game.oracle()
        sv = shapley_exact(oracle)
        assert oracle.call_count == 2**3
        assert oracle.audit_log == tuple(range(8))
        assert sv.method == "SV"

    def test_too_many_clients_rejected(self):
        with pytest.raises(GameError):
            TableGame(21, np.zeros(2**21))

    @pytest.mark.parametrize("n_clients", [-1, 0, 64])
    def test_from_values_checks_count_before_allocating(self, n_clients):
        with pytest.raises(GameError, match="table games support 1..20"):
            TableGame.from_values(n_clients, {})


class TestScoreVector:
    def test_validation(self):
        ScoreVector("LOO", np.array([1.0, 2.0]), round=1)
        with pytest.raises(GameError):
            ScoreVector("XX", np.array([1.0]), round=1)
        with pytest.raises(GameError):
            ScoreVector("LOO", np.array([np.inf]), round=1)
        with pytest.raises(GameError):
            ScoreVector("LOO", np.array([1.0]), round=0)

    def test_round_optional(self):
        vec = ScoreVector("SV", np.array([0.5]))
        assert vec.round is None
        assert vec.n_clients == 1


class TestShapley:
    def test_worked_example(self):
        sv = shapley_exact(worked_game().oracle())
        np.testing.assert_allclose(sv.scores, [0.0, 1.0, 2.0], atol=1e-12)

    def test_matches_permutation_definition(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            game = random_game(rng, n)
            got = shapley_exact(game.oracle()).scores
            np.testing.assert_allclose(got, permutation_shapley(game), atol=1e-12)

    def test_additive_games_give_per_client_values(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            c = rng.normal(size=int(rng.integers(1, 7)))
            sv = shapley_exact(additive_game(c).oracle()).scores
            np.testing.assert_allclose(sv, c, atol=1e-12)

    def test_tabulation_that_skips_a_coalition_fails_the_audit(self):
        game = worked_game()

        def chunks():  # every coalition but the grand one
            yield game.table[:-1]

        oracle = CoalitionOracle(game.n_clients, lambda masks: chunks())
        with pytest.raises(GameError, match="7 evaluations, expected 8"):
            shapley_exact(oracle)

    @pytest.mark.parametrize("chunks, audited", [
        pytest.param(lambda t: [np.append(t, 0.0)], 0, id="past-in-one-chunk"),
        pytest.param(lambda t: [t, t], 2**10, id="second-full-table"),
        pytest.param(lambda t: [*np.split(t, 32), [0.0]], 2**10,
                     id="past-after-the-table"),
    ])
    def test_tabulation_past_two_to_the_n_is_refused(self, chunks, audited):
        game = TableGame(10, np.arange(2**10) ** 1.5)
        oracle = CoalitionOracle(game.n_clients, lambda masks: chunks(game.table))
        with pytest.raises(GameError, match=(
                "a game of 10 clients yielded more than 1024 utilities for "
                "1024 masks")):
            shapley_exact(oracle)
        assert oracle.audit_log == tuple(range(audited))

    def test_efficiency(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            game = random_game(rng, int(rng.integers(2, 7)), zero_empty=False)
            sv = shapley_exact(game.oracle()).scores
            expected = game.table[-1] - game.table[0]
            assert abs(sv.sum() - expected) < 1e-9


class TestGameFiles:
    def test_roundtrip(self, tmp_path):
        game = worked_game()
        path = tmp_path / "worked.game"
        write_table_game(game, path)
        loaded = load_table_game(path)
        assert loaded.n_clients == 3
        assert np.array_equal(loaded.table, game.table)

    def test_roundtrip_preserves_exact_floats(self, tmp_path):
        rng = np.random.default_rng(65)
        game = random_game(rng, 4, zero_empty=False)
        path = tmp_path / "random.game"
        write_table_game(game, path)
        assert np.array_equal(load_table_game(path).table, game.table)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "annotated.game"
        path.write_text(
            "# a 1-client game\n"
            "1\n"
            "\n"
            "0 0.0  # empty\n"
            "1 2.5\n"
        )
        game = load_table_game(path)
        assert game.table[0b1] == 2.5

    def test_each_entry_is_checked_once(self, tmp_path, monkeypatch):
        game = worked_game()
        path = tmp_path / "worked.game"
        write_table_game(game, path)
        seen = []
        check = games_module._table_entry
        monkeypatch.setattr(games_module, "_table_entry",
                            lambda n, mask, value: seen.append(mask) or check(n, mask, value))
        assert np.array_equal(load_table_game(path).table, game.table)
        assert sorted(seen) == list(range(8))

    def test_duplicate_mask_rejected(self, tmp_path):
        path = tmp_path / "dup.game"
        path.write_text("1\n0 0.0\n1 1.0\n1 2.0\n")
        with pytest.raises(GameError, match=":4"):
            load_table_game(path)

    def test_unparseable_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("1\n0 0.0\nnot a row\n")
        with pytest.raises(GameError, match=":3"):
            load_table_game(path)

    def test_missing_row_rejected(self, tmp_path):
        path = tmp_path / "short.game"
        path.write_text("2\n0 0.0\n1 1.0\n2 2.0\n")
        with pytest.raises(GameError, match=(
                r"short\.game: missing utility for coalition mask 3")):
            load_table_game(path)

    @pytest.mark.parametrize("row, message", [
        pytest.param("9 1.0", "coalition mask 9 out of range for 1 clients",
                     id="mask-past-the-game"),
        pytest.param("-1 1.0", "coalition mask -1 out of range for 1 clients",
                     id="negative-mask"),
        pytest.param("1 1e999", r"utility of coalition \(0,\) is not finite: inf",
                     id="overflowing-utility"),
        pytest.param("1 nan", r"utility of coalition \(0,\) is not finite: nan",
                     id="nan-utility"),
    ])
    def test_bad_row_names_line(self, row, message, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text(f"1\n0 0.0\n{row}\n1 1.0\n")
        with pytest.raises(GameError, match=rf"bad\.game:3: {message}$"):
            load_table_game(path)

    @pytest.mark.parametrize("count", [-1, 0, 21, 64])
    def test_client_count_out_of_range_names_line(self, count, tmp_path):
        path = tmp_path / "big.game"
        path.write_text(f"# header\n{count}\n0 0.0\n")
        with pytest.raises(GameError, match=(
                rf"big\.game:2: table games support 1\.\.20 clients, got {count}")):
            load_table_game(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.game"
        path.write_text("# nothing here\n")
        with pytest.raises(GameError, match="empty"):
            load_table_game(path)


def test_worked_values_are_additive():
    """The shared example really is the additive game over (0, 1, 2)."""
    assert np.array_equal(worked_game().table, additive_game([0.0, 1.0, 2.0]).table)
    assert WORKED_VALUES[0b111] == 3.0
