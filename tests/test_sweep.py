"""Stacked scoring rules and misreport sweep against the per-row reference.

The reference kept here is the computation from before stacking: each
excluded sum as a masked 1-D ``np.sum`` per client, each efficiency
rescale on one 1-D mass at a time, and the sweep rebuilding the seen
utilities with ``collect_reports`` and scoring honest and lied reports
separately for every (strategy, scorer) pair.  The stacked kernels must
reproduce it bit for bit, so every float is compared on its uint64 view,
with no tolerance.  N runs across 8 and 9 so that N - 1 crosses the
8-wide unrolled summation loop.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedscore import (
    GameError,
    MisreportStrategy,
    ProtocolError,
    RoundUtilities,
    ScoringError,
    collect_reports,
    ee,
    ee_numerators,
    fp,
    fp_alpha,
    manipulation_sweep,
)
from fedscore.games import ScoreVector
from fedscore.metrics import normalize_scores
from fedscore.protocol import SweepRow
from fedscore.scoring import ZERO_SUM_TOL, _efficient_rescale, score_row

SIZES = (1, 2, 3, 8, 9, 16, 17)
KINDS = ("honest", "additive_bias", "scale", "deflate_to")
SCORERS = ("LOO", "FP", "EE")


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


# ---------------------------------------------------------------------------
# the per-row reference


def ref_sum_excluding(terms, i):
    mask = np.ones(len(terms), dtype=bool)
    mask[i] = False
    return float(np.sum(terms[mask]))


def ref_rescale(candidates, v_grand, n, method):
    for name, mass in candidates:
        total = float(np.sum(mass))
        if abs(total) > ZERO_SUM_TOL:
            return ScoreVector(method, mass * (v_grand / total)), name
    return ScoreVector(method, np.full(n, v_grand / n)), "uniform"


def ref_fp_parts(u):
    loo_terms = u.v_grand - u.v_without
    ioi_terms = u.v_with - u.v_empty
    return (loo_terms + ioi_terms) / 2.0, loo_terms, ioi_terms


def ref_fp_scored(u):
    alpha, loo_terms, ioi_terms = ref_fp_parts(u)
    return ref_rescale([("alpha", alpha), ("loo", loo_terms), ("ioi", ioi_terms)],
                       u.v_grand, u.n_clients, "FP")


def ref_ee_parts(u):
    n = u.n_clients
    if n < 2:
        raise ScoringError("EE needs at least two clients")
    denom = float((n - 1) ** 2)
    beta_terms = u.v_grand - u.v_with
    gamma_terms = u.v_without - u.v_empty
    beta = np.array([ref_sum_excluding(beta_terms, i) / denom for i in range(n)])
    gamma = np.array([ref_sum_excluding(gamma_terms, i) / denom for i in range(n)])
    return (beta + gamma) / 2.0, beta, gamma


def ref_ee_scored(u):
    m, beta, gamma = ref_ee_parts(u)
    return ref_rescale([("m", m), ("beta", beta), ("gamma", gamma)],
                       u.v_grand, u.n_clients, "EE")


def ref_score(scorer, u):
    if scorer == "LOO":
        return ScoreVector("LOO", u.v_grand - u.v_without).scores
    if scorer == "FP":
        return ref_fp_scored(u)[0].scores
    return ref_ee_scored(u)[0].scores


def ref_mass(scorer, u, client):
    if scorer == "LOO":
        return float(u.v_grand - u.v_without[client])
    if scorer == "FP":
        return float(ref_fp_parts(u)[0][client])
    return float(ref_ee_parts(u)[0][client])


def ref_sweep(u, strategies, scorers=SCORERS):
    rows = []
    for strategy in strategies:
        seen = collect_reports(u, [strategy])
        i = strategy.target
        for scorer in scorers:
            honest = ref_score(scorer, u)
            lied = ref_score(scorer, seen)
            others = np.delete(np.abs(lied - honest), i)
            rows.append(SweepRow(
                scorer=scorer,
                attacker=i,
                strategy=strategy.describe(),
                own_delta=float(lied[i] - honest[i]),
                max_other_delta=float(others.max()) if others.size else 0.0,
                numerator_delta=float(ref_mass(scorer, seen, i)
                                      - ref_mass(scorer, u, i)),
            ))
    return rows


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.scorer, g.attacker, g.strategy) == (w.scorer, w.attacker, w.strategy)
        for field in ("own_delta", "max_other_delta", "numerator_delta"):
            assert same_bits(getattr(g, field), getattr(w, field)), (field, g, w)


def outcome(fn, *args):
    """(rows, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except (ProtocolError, ScoringError, GameError) as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(u, strategies, scorers=SCORERS):
    got, got_exc = outcome(manipulation_sweep, u, strategies, scorers)
    want, want_exc = outcome(ref_sweep, u, strategies, scorers)
    assert got_exc == want_exc
    if want_exc is None:
        assert_same_rows(got, want)
    return want_exc


def standard_strategies(n):
    values = {"honest": 0.0, "additive_bias": 0.25, "scale": 2.0, "deflate_to": 0.0}
    return [MisreportStrategy(kind, i, values[kind]) for i in range(n) for kind in KINDS]


# ---------------------------------------------------------------------------
# generated rounds

values = st.floats(-2.0, 2.0, allow_nan=False, width=64)


@st.composite
def rounds(draw, sizes=SIZES):
    n = draw(st.sampled_from(sizes), label="n_clients")
    return RoundUtilities(
        v_empty=draw(values),
        v_grand=draw(values),
        v_with=draw(arrays(np.float64, n, elements=values)),
        v_without=draw(arrays(np.float64, n, elements=values)),
    )


def misreports(n):
    return st.lists(
        st.builds(MisreportStrategy, kind=st.sampled_from(KINDS),
                  target=st.integers(0, n - 1),
                  value=st.floats(-3.0, 3.0, allow_nan=False, width=64)),
        max_size=12,
    )


@settings(max_examples=150, deadline=None)
@given(u=rounds())
def test_scoring_rules_match_the_reference(u):
    alpha, loo_terms, ioi_terms = ref_fp_parts(u)
    parts = fp_alpha(u)
    assert same_bits(parts.alpha, alpha)
    assert same_bits(parts.loo_terms, loo_terms)
    assert same_bits(parts.ioi_terms, ioi_terms)
    got, got_exc = outcome(score_row, "FP", u)
    want, want_exc = outcome(ref_fp_scored, u)
    assert got_exc == want_exc
    if want is not None:
        assert got.used == want[1]
        assert same_bits(got.scores, want[0].scores)
        assert same_bits(fp(u).scores, want[0].scores)
    if u.n_clients < 2:
        for fn in (ee_numerators, ee):
            with pytest.raises(ScoringError, match="two clients"):
                fn(u)
        return
    m, beta, gamma = ref_ee_parts(u)
    nums = ee_numerators(u)
    assert same_bits(nums.beta, beta)
    assert same_bits(nums.gamma, gamma)
    assert same_bits(nums.m, m)
    got, got_exc = outcome(score_row, "EE", u)
    want, want_exc = outcome(ref_ee_scored, u)
    assert got_exc == want_exc
    if want is not None:
        assert got.used == want[1]
        assert same_bits(got.scores, want[0].scores)
        assert same_bits(ee(u).scores, want[0].scores)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_matches_the_reference(data):
    u = data.draw(rounds())
    strategies = data.draw(misreports(u.n_clients), label="strategies")
    assert_same_outcome(u, strategies)
    assert_same_outcome(u, standard_strategies(u.n_clients))


@settings(max_examples=40, deadline=None)
@given(u=rounds(sizes=(1,)), scorers=st.sampled_from([("LOO",), ("FP",), ("LOO", "FP"),
                                                       ("FP", "LOO")]))
def test_single_client_sweep_without_ee(u, scorers):
    rows = manipulation_sweep(u, standard_strategies(1), scorers)
    assert_same_rows(rows, ref_sweep(u, standard_strategies(1), scorers))
    assert len(rows) == 4 * len(scorers)
    assert all(bits(r.max_other_delta) == bits(0.0) for r in rows)


def test_single_client_ee_rejected_only_when_scored():
    u = RoundUtilities(0.0, 1.0, np.array([0.5]), np.array([0.25]))
    with pytest.raises(ScoringError, match="two clients"):
        manipulation_sweep(u, standard_strategies(1))
    assert manipulation_sweep(u, []) == []


@settings(max_examples=60, deadline=None)
@given(u=rounds(sizes=(2, 3, 8, 9, 16, 17)), data=st.data())
def test_ee_numerator_never_moves(u, data):
    strategies = data.draw(misreports(u.n_clients), label="strategies")
    for row in manipulation_sweep(u, strategies):
        if row.scorer == "EE":
            assert bits(row.numerator_delta) == bits(0.0)


def test_sweep_rows_have_slots_and_stay_replaceable():
    u = RoundUtilities(0.0, 1.0, np.array([0.5, 0.75]), np.array([0.25, 0.5]))
    row = manipulation_sweep(u, standard_strategies(2))[0]
    assert not hasattr(row, "__dict__")
    moved = dataclasses.replace(row, numerator_delta=1e-12)
    assert moved.numerator_delta == 1e-12
    assert (moved.scorer, moved.strategy) == (row.scorer, row.strategy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.own_delta = 0.0


class TestFallbackRows:
    def test_fp_rows_fall_back_to_loo_and_uniform(self):
        # honest alpha sums to zero but loo does not; deflating client 0 to
        # 0.0 also zeroes the loo mass, so that row splits uniformly
        u = RoundUtilities(0.0, 2.0, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert score_row("FP", u).used == "loo"
        deflate = MisreportStrategy("deflate_to", 0, 0.0)
        assert ref_fp_scored(collect_reports(u, [deflate]))[1] == "alpha"
        uniform = RoundUtilities(0.5, 3.0, np.array([0.5, 0.5, 0.5]),
                                 np.array([3.0, 3.0, 3.0]))
        assert score_row("FP", uniform).used == "uniform"
        for utilities in (u, uniform):
            strategies = standard_strategies(utilities.n_clients)
            strategies.append(MisreportStrategy("additive_bias", 1, -0.5))
            assert assert_same_outcome(utilities, strategies) is None

    def test_ee_rows_fall_back_to_uniform(self):
        u = RoundUtilities(0.5, 3.0, np.array([3.0, 3.0, 3.0]),
                           np.array([0.5, 0.5, 0.5]))
        assert score_row("EE", u).used == "uniform"
        # an honest report keeps the uniform row; scaling client 1 moves the
        # other clients' mass, so that row rescales m
        strategies = [MisreportStrategy("honest", 0), MisreportStrategy("scale", 1, 2.0)]
        assert [ref_ee_scored(collect_reports(u, [s]))[1] for s in strategies] == [
            "uniform", "m"]
        assert assert_same_outcome(u, strategies) is None

    def test_rescale_names_every_row(self):
        masses = {"alpha": np.array([[1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]),
                  "loo": np.array([[2.0, 0.0], [5.0, 5.0], [0.0, 0.0]])}
        scores, used = _efficient_rescale(masses, 2.0)
        assert used == ["loo", "alpha", "uniform"]
        assert same_bits(scores, [[2.0, 0.0], [1.0, 1.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# faults: the same exception as the per-strategy loop, from the same strategy

HUGE = RoundUtilities(0.0, 1.0, np.array([1e308, 0.5]), np.array([0.25, 0.5]))

# Honest FP mass sums to about 5e299; scaling client 1 by 2 cancels it down
# to a few ulps of 1e300, so the lied row's rescale overflows.
_HALF = np.nextafter(-5e299, 0.0)
OVERFLOW = RoundUtilities(0.0, 1e300, np.array([1e300, _HALF]), np.array([1e300, 5e299]))
OVERFLOW_LIE = MisreportStrategy("scale", 1, 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestFaults:
    def test_non_finite_lie_raises_scoring_error(self):
        exc = assert_same_outcome(HUGE, [MisreportStrategy("scale", 0, 2.0)])
        assert exc == (ScoringError, "utilities contain non-finite values")

    def test_rescale_overflow_raises_game_error(self):
        assert np.all(np.isfinite(fp(OVERFLOW).scores))
        exc = assert_same_outcome(OVERFLOW, [MisreportStrategy("honest", 0), OVERFLOW_LIE])
        assert exc == (GameError, "scores contain non-finite values")

    def test_bad_target_rejected(self):
        exc = assert_same_outcome(HUGE, [MisreportStrategy("honest", 2)])
        assert exc[0] is ProtocolError and "client 2" in exc[1]

    @pytest.mark.parametrize("utilities, first", [(HUGE, MisreportStrategy("scale", 0, 2.0)),
                                                  (OVERFLOW, OVERFLOW_LIE)])
    def test_earlier_failure_wins(self, utilities, first):
        bad_target = MisreportStrategy("honest", 5)
        early = assert_same_outcome(utilities, [first, bad_target])
        assert early[0] is not ProtocolError
        late = assert_same_outcome(utilities, [bad_target, first])
        assert late[0] is ProtocolError

    def test_scorer_order_decides_within_a_strategy(self):
        # N=1: FP overflow never happens, EE fails on every row; LOO first
        # then EE still raises the EE error for the first strategy
        u = RoundUtilities(0.0, 1.0, np.array([0.5]), np.array([0.25]))
        exc = assert_same_outcome(u, [MisreportStrategy("honest", 0)], ("LOO", "EE"))
        assert exc[0] is ScoringError
        exc = assert_same_outcome(OVERFLOW, [OVERFLOW_LIE], ("LOO", "EE", "FP"))
        assert exc == (GameError, "scores contain non-finite values")


# ---------------------------------------------------------------------------
# FP and EE agree after normalisation (ROADMAP item 1)


@settings(max_examples=200, deadline=None)
@given(u=rounds(sizes=(2, 3, 8, 9, 16, 17)))
def test_fp_and_ee_normalise_alike(u):
    """With c_i = (v_grand - v_with[i]) + (v_without[i] - v_empty), FP's
    alpha and EE's m are both decreasing affine maps of c_i, and each score
    rescales its mass by v_grand over the mass's sum.  So when the two sums
    share a sign the scores are a positive affine map of each other and
    normalise alike; when the signs differ the map is negative and the
    rankings are reversed."""
    c = (u.v_grand - u.v_with) + (u.v_without - u.v_empty)
    scale = 1.0 + abs(u.v_grand - u.v_empty) + np.abs(c).max()
    # Nearly constant c leaves only rounding noise after the shift, and
    # scores scaled by a tiny v_grand lose bits to underflow.
    if np.ptp(c) < 1e-3 * scale or abs(u.v_grand) < 1e-100:
        return
    fp_scores, fp_used, _ = score_row("FP", u)
    ee_scores, ee_used, _ = score_row("EE", u)
    if (fp_used, ee_used) != ("alpha", "m"):
        return
    same_sign = np.sign(fp_alpha(u).alpha.sum()) == np.sign(ee_numerators(u).m.sum())
    ee_scores = ee_scores if same_sign else -ee_scores
    np.testing.assert_allclose(normalize_scores(fp_scores).scores,
                               normalize_scores(ee_scores).scores,
                               rtol=1e-9, atol=1e-9)


def test_fp_and_ee_rank_in_reverse_when_the_sums_differ_in_sign():
    # neg_loss utilities: every model has negative utility, v_grand < 0,
    # and the single-client probes beat the drop-one probes by far more
    # than the aggregate beats the start model.
    u = RoundUtilities(-1.0, -0.9, np.array([-0.2, -0.4, -0.3]),
                       np.array([-1.0, -1.1, -1.3]))
    assert fp_alpha(u).alpha.sum() > 0.0 > ee_numerators(u).m.sum()
    fp_vec, ee_vec = fp(u), ee(u)
    assert list(np.argsort(fp_vec.scores)) == list(np.argsort(ee_vec.scores))[::-1]
    np.testing.assert_allclose(normalize_scores(fp_vec.scores).scores,
                               normalize_scores(-ee_vec.scores).scores,
                               rtol=1e-9, atol=1e-9)
