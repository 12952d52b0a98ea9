"""Round scorers: LOO, IOI, FP, EE, cosine, and multi-round Shapley.

FP and EE are checked against plain-loop reference implementations that
share no code with the vectorised versions, then against the worked
3-client example whose scores are known in closed form.
"""

import io
import re

import numpy as np
import pytest

from fedscore import (
    RoundUtilities,
    ScoringError,
    TableGame,
    cos_accumulated,
    cos_score,
    ee,
    ee_numerators,
    fp,
    fp_alpha,
    game_round_utilities,
    ioi,
    loo,
    mr_shapley,
    scores_from_csv,
    scores_to_csv,
    shapley_exact,
    utilities_from_transcript,
)
from fedscore.fedsim import (
    ClientUpdate,
    ModelParams,
    RoundTranscript,
    model_eval_oracle,
    round_oracle,
)
from fedscore.scoring import mr_shapley_games, score_row

from helpers import random_game, worked_game


def narrow_second_round(transcripts):
    """The first two rounds, the second cut to its first two clients."""
    t = transcripts[1]
    updates = t.updates[:2]
    m = ModelParams(t.m0.values + np.sum([u.delta.values for u in updates], axis=0))
    return [transcripts[0], RoundTranscript(t.round, t.m0, updates, m)]


def ref_fp_alpha(u: RoundUtilities) -> list[float]:
    """(LOO term + IOI term) / 2, written longhand."""
    out = []
    for i in range(u.n_clients):
        loo_i = u.v_grand - u.v_without[i]
        ioi_i = u.v_with[i] - u.v_empty
        out.append((loo_i + ioi_i) / 2.0)
    return out


def ref_ee_mass(u: RoundUtilities) -> list[float]:
    """EE numerator m(i) from the other clients' probes, written longhand."""
    n = u.n_clients
    out = []
    for i in range(n):
        beta = sum(u.v_grand - u.v_with[j] for j in range(n) if j != i)
        gamma = sum(u.v_without[j] - u.v_empty for j in range(n) if j != i)
        out.append((beta + gamma) / (2.0 * (n - 1) ** 2))
    return out


def random_utilities(rng, n) -> RoundUtilities:
    return RoundUtilities(
        v_empty=float(rng.uniform(-1, 1)),
        v_grand=float(rng.uniform(-1, 1)),
        v_with=rng.uniform(-1, 1, size=n),
        v_without=rng.uniform(-1, 1, size=n),
    )


class TestRoundUtilities:
    def test_from_worked_game(self):
        u = game_round_utilities(worked_game())
        assert u.v_empty == 0.0
        assert u.v_grand == 3.0
        np.testing.assert_array_equal(u.v_with, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(u.v_without, [3.0, 2.0, 1.0])

    def test_validation(self):
        with pytest.raises(ScoringError):
            RoundUtilities(0.0, 1.0, np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ScoringError):
            RoundUtilities(0.0, np.nan, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ScoringError):
            RoundUtilities(0.0, 1.0, np.array([]), np.array([]))

    def test_replace_client(self):
        u = game_round_utilities(worked_game())
        u2 = u.replace_client(1, 9.0, -9.0)
        assert u2.v_with[1] == 9.0 and u2.v_without[1] == -9.0
        # untouched entries keep their exact bits
        assert u.v_with[1] == 1.0
        assert np.array_equal(np.delete(u2.v_with, 1), np.delete(u.v_with, 1))

    def test_arrays_read_only(self):
        u = game_round_utilities(worked_game())
        with pytest.raises(ValueError):
            u.v_with[0] = 5.0


class TestSingleRoundScores:
    def test_worked_example(self):
        u = game_round_utilities(worked_game())
        np.testing.assert_allclose(loo(u).scores, [0.0, 1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(ioi(u).scores, [0.0, 1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(fp(u).scores, [0.0, 1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(ee(u).scores, [0.75, 1.0, 1.25], atol=1e-12)

    def test_methods_labelled(self):
        u = game_round_utilities(worked_game())
        assert loo(u).method == "LOO"
        assert ioi(u).method == "IOI"
        assert fp(u).method == "FP"
        assert ee(u).method == "EE"

    def test_fp_alpha_matches_reference(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            u = random_utilities(rng, int(rng.integers(2, 9)))
            parts = fp_alpha(u)
            np.testing.assert_allclose(parts.alpha, ref_fp_alpha(u), atol=1e-12)

    def test_ee_mass_matches_reference(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            u = random_utilities(rng, int(rng.integers(2, 9)))
            nums = ee_numerators(u)
            np.testing.assert_allclose(nums.m, ref_ee_mass(u), atol=1e-12)

    def test_fp_and_ee_sum_to_grand_utility(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            u = random_utilities(rng, int(rng.integers(2, 9)))
            assert abs(fp(u).scores.sum() - u.v_grand) < 1e-9
            assert abs(ee(u).scores.sum() - u.v_grand) < 1e-9

    def test_ee_single_client_rejected(self):
        u = RoundUtilities(0.0, 1.0, np.array([1.0]), np.array([0.0]))
        with pytest.raises(ScoringError, match="two clients"):
            ee_numerators(u)

    def test_ee_ignores_own_reports(self):
        """m(i) is bit-identical no matter what client i reports."""
        rng = np.random.default_rng(104)
        u = random_utilities(rng, 6)
        honest = ee_numerators(u).m
        for i in range(6):
            lied = u.replace_client(i, 1e6, -1e6)
            assert ee_numerators(lied).m[i] == honest[i]


class TestRescaleFallbacks:
    def test_alpha_used_when_nonzero(self):
        u = game_round_utilities(worked_game())
        assert score_row("FP", u).used == "alpha"
        assert score_row("EE", u).used == "m"

    def test_fp_falls_back_to_loo_terms(self):
        # alpha sums to zero (loo and ioi masses cancel) but loo does not
        u = RoundUtilities(
            v_empty=0.0,
            v_grand=2.0,
            v_with=np.array([-1.0, -1.0]),
            v_without=np.array([1.0, 1.0]),
        )
        scores, used, _ = score_row("FP", u)
        assert used == "loo"
        assert abs(scores.sum() - 2.0) < 1e-12

    def test_fp_uniform_fallback_splits_evenly(self):
        # loo and ioi masses each cancel: v_with = v_empty, v_without = v_grand
        u = RoundUtilities(
            v_empty=0.5,
            v_grand=3.0,
            v_with=np.array([0.5, 0.5, 0.5]),
            v_without=np.array([3.0, 3.0, 3.0]),
        )
        scores, used, _ = score_row("FP", u)
        assert used == "uniform"
        np.testing.assert_allclose(scores, [1.0, 1.0, 1.0], atol=1e-12)

    def test_ee_uniform_fallback_splits_evenly(self):
        # beta and gamma cancel: v_with = v_grand, v_without = v_empty
        u = RoundUtilities(
            v_empty=0.5,
            v_grand=3.0,
            v_with=np.array([3.0, 3.0, 3.0]),
            v_without=np.array([0.5, 0.5, 0.5]),
        )
        scores, used, _ = score_row("EE", u)
        assert used == "uniform"
        np.testing.assert_allclose(scores, [1.0, 1.0, 1.0], atol=1e-12)


class TestTranscriptScoring:
    def test_utility_extraction_cost_and_coverage(self, tiny_run):
        config, transcripts, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        before = evaluator.call_count
        u = utilities_from_transcript(transcripts[0], evaluator)
        n = config.n_clients
        assert evaluator.call_count - before == 2 * n + 2
        # and the values really are the round game's coalitions
        oracle = round_oracle(transcripts[0], evaluator)
        grand = (1 << n) - 1
        assert u.v_grand == oracle.utilities([grand])[0]
        for i in range(n):
            assert u.v_with[i] == oracle.utilities([1 << i])[0]
            assert u.v_without[i] == oracle.utilities([grand & ~(1 << i)])[0]

    def test_cos_matches_hand_computation(self, tiny_run):
        config, transcripts, _ = tiny_run
        t = transcripts[0]
        got = cos_score(t)
        assert got.round == t.round
        for i, update in enumerate(t.updates):
            probe = t.m0.values + update.delta.values
            expect = np.dot(probe, t.m.values) / (
                np.linalg.norm(probe) * np.linalg.norm(t.m.values)
            )
            assert abs(got.scores[i] - expect) < 1e-12

    def test_cos_zero_norm_probe_scores_zero(self, tiny_run):
        _, transcripts, _ = tiny_run
        t = transcripts[0]
        # a probe that exactly cancels m0 has zero norm
        killer = ModelParams(-t.m0.values)
        updates = (t.updates[0].__class__(0, killer),) + t.updates[1:]
        m = ModelParams(t.m0.values + np.sum([u.delta.values for u in updates], axis=0))
        t2 = t.__class__(round=t.round, m0=t.m0, updates=updates, m=m)
        assert cos_score(t2).scores[0] == 0.0

    def test_cos_accumulated_sums_rounds(self, tiny_run):
        _, transcripts, _ = tiny_run
        total = cos_accumulated(transcripts)
        expect = np.sum([cos_score(t).scores for t in transcripts], axis=0)
        np.testing.assert_allclose(total.scores, expect, atol=1e-12)
        assert total.round == transcripts[-1].round
        with pytest.raises(ScoringError):
            cos_accumulated([])

    def test_cos_accumulated_names_a_round_of_another_width(self, tiny_run):
        _, transcripts, _ = tiny_run
        with pytest.raises(ScoringError, match="round 2 has 2 clients, expected 3"):
            cos_accumulated(narrow_second_round(transcripts))


class TestMrShapley:
    def test_single_round_equals_exact_shapley_of_round_game(self, tiny_run):
        config, transcripts, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        t = transcripts[0]
        # tabulate the round game explicitly and solve it independently
        oracle = round_oracle(t, evaluator)
        n = config.n_clients
        table = dict(enumerate(oracle.utilities(list(range(2**n)))))
        expect = shapley_exact(TableGame.from_values(n, table).oracle()).scores
        got = mr_shapley([t], evaluator)
        np.testing.assert_allclose(got.scores, expect, atol=1e-12)
        assert got.method == "MR-SV"

    def test_mean_of_round_rows(self, tiny_run):
        config, transcripts, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        per_round = [mr_shapley([t], evaluator).scores for t in transcripts]
        vec = mr_shapley(transcripts, evaluator)
        np.testing.assert_allclose(
            vec.scores, np.mean(per_round, axis=0), atol=1e-12
        )
        assert vec.round == transcripts[-1].round

    def test_cost_is_two_to_the_n_per_round(self, tiny_run):
        config, transcripts, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        before = evaluator.call_count
        mr_shapley(transcripts, evaluator)
        expect = len(transcripts) * 2**config.n_clients
        assert evaluator.call_count - before == expect

    def test_empty_rejected(self, tiny_run):
        config, _, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        with pytest.raises(ScoringError):
            mr_shapley([], evaluator)

    def test_games_name_a_round_of_another_width(self, tiny_run):
        config, transcripts, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        with pytest.raises(ScoringError, match="round 2 has 2 clients, expected 3"):
            mr_shapley_games(narrow_second_round(transcripts), evaluator)
        assert evaluator.call_count == 0

    def test_rows_refuse_thirteen_clients_before_evaluating(self, tiny_run):
        config, transcripts, test = tiny_run
        evaluator = model_eval_oracle(test, config.utility_kind)
        m0 = transcripts[0].m0
        zero = ModelParams(np.zeros(m0.dim))
        wide = RoundTranscript(
            1, m0, tuple(ClientUpdate(i, zero) for i in range(13)), m0
        )
        with pytest.raises(ScoringError, match="capped at 12 clients, got 13"):
            mr_shapley([wide], evaluator)
        assert evaluator.call_count == 0


class TestScoreTables:
    def test_csv_roundtrip(self, tmp_path):
        u = game_round_utilities(worked_game())
        vectors = [loo(u), fp(u), ee(u)]
        path = tmp_path / "scores.csv"
        scores_to_csv(vectors, path)
        loaded = scores_from_csv(path)
        assert [v.method for v in loaded] == ["LOO", "FP", "EE"]
        for got, sent in zip(loaded, vectors):
            assert np.array_equal(got.scores, sent.scores)
            assert got.round == sent.round

    def test_stream_gets_the_file_bytes(self, tmp_path):
        u = game_round_utilities(worked_game())
        vectors = [loo(u), ee(u)]
        path = tmp_path / "scores.csv"
        scores_to_csv(vectors, path)
        stream = io.StringIO(newline="")
        scores_to_csv(vectors, stream)
        assert stream.getvalue().encode("utf-8") == path.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,client_0\nLOO,1.0\n")
        with pytest.raises(ScoringError, match="header"):
            scores_from_csv(path)

    @pytest.mark.parametrize("row", [
        "LOO,x,1.0,2.0",        # round not an integer
        "LOO,1,abc,2.0",        # score not a float
        "BANZHAF,1,1.0,2.0",    # unknown method label
        "LOO,1,nan,2.0",        # non-finite score
    ])
    def test_bad_cell_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"method,round,client_0,client_1\nFP,1,0.5,0.5\n{row}\n")
        with pytest.raises(ScoringError, match=re.escape(f"{path}:3: ")):
            scores_from_csv(path)

    def test_mixed_width_rejected(self, tmp_path):
        rng = np.random.default_rng(105)
        u2 = random_utilities(rng, 2)
        u3 = random_utilities(rng, 3)
        with pytest.raises(ScoringError):
            scores_to_csv([loo(u2), loo(u3)], tmp_path / "x.csv")
