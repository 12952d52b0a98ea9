"""Reporting, misreports, influence accounting, and the robust EE variant.

The influence matrix has a sharp cross-check: column j must sum to
exactly the EE numerator m(j), because the matrix is just that numerator
broken out by which client's reports supplied the mass.
"""

import numpy as np
import pytest

from fedscore import (
    MisreportStrategy,
    ProtocolError,
    collect_reports,
    ee,
    ee_numerators,
    game_round_utilities,
    influence,
    influence_matrix,
    loo,
    manipulation_sweep,
    robust_ee,
    RoundUtilities,
)

from helpers import worked_game
from test_scoring import random_utilities


class TestMisreportStrategy:
    def test_apply_semantics(self):
        assert MisreportStrategy("honest", 0).apply(1.0, 2.0) == (1.0, 2.0)
        assert MisreportStrategy("additive_bias", 0, 0.5).apply(1.0, 2.0) == (1.5, 2.5)
        assert MisreportStrategy("scale", 0, 2.0).apply(1.0, 2.0) == (2.0, 4.0)
        assert MisreportStrategy("deflate_to", 0, -1.0).apply(1.0, 2.0) == (-1.0, -1.0)

    def test_describe(self):
        assert MisreportStrategy("scale", 3, 2.0).describe() == "scale(2.0)"
        assert MisreportStrategy("honest", 0).describe() == "honest"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            MisreportStrategy("invert", 0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ProtocolError):
            MisreportStrategy("scale", 0, np.inf)


class TestCollectReports:
    def test_honest_profile_is_the_input(self):
        u = game_round_utilities(worked_game())
        assert collect_reports(u, []) is u

    def test_one_strategy_rewrites_one_client(self):
        u = game_round_utilities(worked_game())
        seen = collect_reports(u, [MisreportStrategy("scale", 1, 10.0)])
        assert seen.v_with[1] == 10.0 and seen.v_without[1] == 20.0
        assert np.array_equal(np.delete(seen.v_with, 1), np.delete(u.v_with, 1))
        assert seen.v_grand == u.v_grand and seen.v_empty == u.v_empty

    def test_duplicate_target_rejected(self):
        u = game_round_utilities(worked_game())
        twice = [MisreportStrategy("scale", 1, 2.0),
                 MisreportStrategy("honest", 1)]
        with pytest.raises(ProtocolError, match="client 1"):
            collect_reports(u, twice)

    def test_out_of_range_target_rejected(self):
        u = game_round_utilities(worked_game())
        with pytest.raises(ProtocolError):
            collect_reports(u, [MisreportStrategy("honest", 7)])


class TestInfluence:
    def test_closed_form(self):
        u = game_round_utilities(worked_game())
        for i in range(3):
            expect = (u.v_grand - u.v_with[i]) + (u.v_without[i] - u.v_empty)
            assert influence(u, i) == expect

    def test_columns_sum_to_ee_numerators(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            u = random_utilities(rng, int(rng.integers(2, 9)))
            mat = influence_matrix(u)
            m = ee_numerators(u).m
            np.testing.assert_allclose(mat.entries.sum(axis=0), m, atol=1e-12)

    def test_diagonal_exactly_zero(self):
        rng = np.random.default_rng(32)
        u = random_utilities(rng, 6)
        mat = influence_matrix(u)
        assert np.all(np.diag(mat.entries) == 0.0)
        assert np.all(np.diag(mat.normalized) == 0.0)

    def test_normalized_columns_sum_to_one(self):
        u = game_round_utilities(worked_game())
        mat = influence_matrix(u)
        assert mat.flagged_columns == ()
        np.testing.assert_allclose(mat.normalized.sum(axis=0), np.ones(3), atol=1e-12)

    def test_zero_column_flagged_and_left_zero(self):
        # all probes sit exactly at the endpoints, so nobody carries mass
        u = RoundUtilities(0.0, 1.0, np.array([1.0, 1.0, 1.0]),
                           np.array([0.0, 0.0, 0.0]))
        mat = influence_matrix(u)
        assert mat.flagged_columns == (0, 1, 2)
        assert np.all(mat.normalized == 0.0)

    def test_negative_column_flagged_and_scaled_by_abs_sum(self):
        # negative per-client mass: v_with above grand, v_without below empty
        u = RoundUtilities(0.0, 1.0, np.array([3.0, 3.0, 3.0]),
                           np.array([-1.0, -1.0, -1.0]))
        mat = influence_matrix(u)
        assert mat.flagged_columns == (0, 1, 2)
        np.testing.assert_allclose(np.abs(mat.normalized).sum(axis=0),
                                   np.ones(3), atol=1e-12)

    def test_single_client_rejected(self):
        u = RoundUtilities(0.0, 1.0, np.array([1.0]), np.array([0.0]))
        with pytest.raises(ProtocolError):
            influence_matrix(u)


class TestManipulationSweep:
    def test_honest_rows_are_zero(self):
        u = game_round_utilities(worked_game())
        rows = manipulation_sweep(u, [MisreportStrategy("honest", 0)])
        assert {r.scorer for r in rows} == {"LOO", "FP", "EE"}
        for r in rows:
            assert r.own_delta == 0.0
            assert r.max_other_delta == 0.0
            assert r.numerator_delta == 0.0

    def test_ee_numerator_never_moves(self):
        rng = np.random.default_rng(33)
        kinds = ("additive_bias", "scale", "deflate_to")
        for _ in range(30):
            u = random_utilities(rng, int(rng.integers(2, 8)))
            target = int(rng.integers(0, u.n_clients))
            kind = kinds[int(rng.integers(0, 3))]
            strat = MisreportStrategy(kind, target, float(rng.uniform(-3, 3)))
            rows = [r for r in manipulation_sweep(u, [strat]) if r.scorer == "EE"]
            assert rows[0].numerator_delta == 0.0

    def test_loo_deflation_raises_own_score(self):
        u = game_round_utilities(worked_game())
        # reporting a lower drop-one value inflates v(grand) - v(without me)
        strat = MisreportStrategy("deflate_to", 1, -5.0)
        (row,) = [r for r in manipulation_sweep(u, [strat]) if r.scorer == "LOO"]
        assert row.own_delta > 0.0
        assert row.numerator_delta == pytest.approx(u.v_without[1] - (-5.0))

    def test_unknown_scorer_rejected(self):
        u = game_round_utilities(worked_game())
        with pytest.raises(ProtocolError):
            manipulation_sweep(u, [], scorers=("SV",))


class TestRobustEe:
    def test_mean_is_plain_ee(self):
        rng = np.random.default_rng(34)
        u = random_utilities(rng, 5)
        a = robust_ee(u, "mean")
        b = ee(u)
        assert a.method == "EE"
        assert np.array_equal(a.scores, b.scores)

    def test_median_label(self):
        rng = np.random.default_rng(35)
        u = random_utilities(rng, 5)
        assert robust_ee(u, "median").method == "EE-MED"

    def test_median_shrugs_off_one_wild_report(self):
        # a scale misreport leaves the two wild terms unbalanced (deflate_to
        # would not: beta and gamma contributions of a constant report cancel
        # in the mean), so it is the right probe for outlier robustness
        rng = np.random.default_rng(36)
        u = random_utilities(rng, 7)
        honest_med = robust_ee(u, "median").scores
        wild = collect_reports(u, [MisreportStrategy("scale", 0, 50.0)])
        dirty_med = robust_ee(wild, "median").scores
        dirty_mean = robust_ee(wild, "mean").scores
        honest_mean = robust_ee(u, "mean").scores
        med_shift = np.max(np.abs(np.delete(dirty_med - honest_med, 0)))
        mean_shift = np.max(np.abs(np.delete(dirty_mean - honest_mean, 0)))
        assert med_shift < mean_shift

    def test_median_needs_three_clients(self):
        rng = np.random.default_rng(37)
        u = random_utilities(rng, 2)
        with pytest.raises(ProtocolError, match="three"):
            robust_ee(u, "median")

    def test_unknown_aggregator_rejected(self):
        rng = np.random.default_rng(38)
        u = random_utilities(rng, 4)
        with pytest.raises(ProtocolError):
            robust_ee(u, "mode")
