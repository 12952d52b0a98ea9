"""Release gate: one test per user-facing guarantee.

Every test states its tolerance inline and, where the guarantee covers
cost, asserts an exact oracle-call count or a wall-clock budget.  The
three bundled scenarios run once per session (see conftest) and are
shared across this file; their tables are byte-deterministic, so the
default scenario's rank-fidelity means are additionally pinned as
golden values to catch silent numeric drift.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from fedscore import (
    MisreportStrategy,
    ModelEvaluator,
    RoundUtilities,
    SyntheticSpec,
    collect_reports,
    ee,
    ee_numerators,
    fp,
    fp_alpha,
    game_round_utilities,
    influence_matrix,
    ioi,
    loo,
    mr_shapley,
    shapley_exact,
    utilities_from_transcript,
)
from fedscore.experiments import run_scenario
from fedscore.experiments.runs import _weighted_model
from fedscore.fedsim import (
    ClientUpdate,
    MlpArch,
    ModelParams,
    RoundTranscript,
    generate_synthetic,
    init_params,
)
from fedscore.fedsim.mlp import stack_mean_loss
from fedscore.scenarios import bundled_path

from helpers import (
    additive_game,
    insert_null,
    loss_and_grad,
    random_game,
    swap_clients,
    worked_game,
)
from test_scoring import random_utilities

# Means from tables/rank_fidelity.csv of the default bundle, transcribed
# from a hand-checked run.  Reruns are byte-deterministic, so these only
# move when the pipeline's arithmetic changes; update them deliberately.
GOLDEN_FIDELITY_MEANS = {
    ("LOO", "l2"): 1.4358054600556358,
    ("LOO", "spearman"): 0.709394168919561,
    ("LOO", "kendall"): 0.5789634693045996,
    ("LOO", "pearson"): 0.812132018065007,
    ("FP", "l2"): 1.286935609114683,
    ("FP", "spearman"): 0.7871853294058282,
    ("FP", "kendall"): 0.6627010690473364,
    ("FP", "pearson"): 0.8465623983596163,
    ("EE", "l2"): 1.2869356091146824,
    ("EE", "spearman"): 0.7871853294058282,
    ("EE", "kendall"): 0.6627010690473364,
    ("EE", "pearson"): 0.8465623983596163,
    ("COS", "l2"): 1.7448555054844799,
    ("COS", "spearman"): 0.7216666666666667,
    ("COS", "kendall"): 0.5777777777777777,
    ("COS", "pearson"): 0.7113056149258933,
}


def _table(bundle_dir, name):
    with open(Path(bundle_dir) / "tables" / name, newline="") as fh:
        return list(csv.DictReader(fh))


def test_worked_example_scores_exactly():
    """Additive 3-client game with per-client values (0, 1, 2):
    SV = LOO = FP = (0, 1, 2) and EE = (3/4, 1, 5/4), all to 1e-12."""
    t0 = time.perf_counter()
    game = worked_game()
    u = game_round_utilities(game)
    additive = np.array([0.0, 1.0, 2.0])
    sv = shapley_exact(game.oracle()).scores
    np.testing.assert_allclose(sv, additive, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(loo(u).scores, additive, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fp(u).scores, additive, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        ee(u).scores, [0.75, 1.0, 1.25], rtol=0.0, atol=1e-12
    )
    assert time.perf_counter() - t0 < 1.0


def test_allocation_axioms_on_random_games():
    """1000 random games, 2 to 8 clients: FP, EE and SV split exactly
    v(grand) - v(empty) (1e-9); relabeling two clients permutes every
    method's scores (1e-12); a client whose presence never changes any
    coalition's value gets FP and SV of zero (1e-12).  Under 30s."""
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        game = random_game(rng, n)
        u = game_round_utilities(game)
        fp_scores, ee_scores = fp(u).scores, ee(u).scores
        sv = shapley_exact(game.oracle()).scores
        total = float(game.table[2**n - 1])
        for scores in (fp_scores, ee_scores, sv):
            assert abs(float(scores.sum()) - total) < 1e-9

        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        swapped = swap_clients(game, i, j)
        us = game_round_utilities(swapped)
        perm = np.arange(n)
        perm[i], perm[j] = j, i
        np.testing.assert_allclose(
            fp(us).scores, fp_scores[perm], rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            ee(us).scores, ee_scores[perm], rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            shapley_exact(swapped.oracle()).scores, sv[perm], rtol=0.0, atol=1e-12
        )

        if n < 8:
            pos = int(rng.integers(0, n + 1))
            grown = insert_null(game, pos)
            assert abs(float(fp(game_round_utilities(grown)).scores[pos])) < 1e-12
            assert abs(float(shapley_exact(grown.oracle()).scores[pos])) < 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_ee_immune_to_own_misreports_while_deflation_inflates_loo():
    """1000 random rounds: whatever a client reports, its own EE
    numerator is bit-identical to the honest one; meanwhile reporting a
    drop-one utility below the honest value strictly raises the same
    client's LOO score in every such instance.  Under 10s."""
    rng = np.random.default_rng(31)
    kinds = ("additive_bias", "scale", "deflate_to")
    t0 = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        u = random_utilities(rng, n)
        target = int(rng.integers(n))
        lie = MisreportStrategy(
            kinds[trial % 3], target, float(rng.uniform(-4.0, 4.0))
        )
        seen = collect_reports(u, [lie])
        honest, distorted = ee_numerators(u), ee_numerators(seen)
        assert distorted.beta[target] == honest.beta[target]
        assert distorted.gamma[target] == honest.gamma[target]
        assert distorted.m[target] == honest.m[target]

        drop = float(u.v_without[target]) - float(rng.uniform(0.1, 2.0))
        deflated = collect_reports(
            u, [MisreportStrategy("deflate_to", target, drop)]
        )
        assert loo(deflated).scores[target] > loo(u).scores[target]
    assert time.perf_counter() - t0 < 10.0


def _synthetic_transcripts(n_clients, rounds=1):
    """Transcripts with random updates, no training: m = m0 + sum(deltas)
    holds exactly by construction, so only evaluation costs anything."""
    spec = SyntheticSpec(
        n_classes=3,
        dim=6,
        samples_per_client=8,
        test_samples_per_class=10,
        separation=1.0,
    )
    _, test = generate_synthetic(spec, n_clients, seed=3)
    arch = MlpArch.for_data(test)
    rng = np.random.default_rng(n_clients)
    m0 = init_params(arch, seed=11)
    transcripts = []
    for r in range(1, rounds + 1):
        deltas = 0.01 * rng.standard_normal((n_clients, arch.n_params))
        updates = tuple(
            ClientUpdate(i, ModelParams(deltas[i])) for i in range(n_clients)
        )
        m = ModelParams(m0.values + deltas.sum(axis=0))
        transcripts.append(RoundTranscript(r, m0, updates, m))
        m0 = m
    return arch, test, transcripts


def test_oracle_call_budgets_are_exact():
    """Scoring a round from its transcript costs exactly 2N + 2 model
    evaluations for N in {2, 5, 9, 15}; multi-round Shapley costs exactly
    2^N evaluations per round for N in {3, 6, 9}."""
    for n in (2, 5, 9, 15):
        arch, test, (t,) = _synthetic_transcripts(n)
        evaluator = ModelEvaluator(arch, test)
        u = utilities_from_transcript(t, evaluator)
        assert evaluator.call_count == 2 * n + 2
        fp(u)
        ee(u)
        assert evaluator.call_count == 2 * n + 2

    for n, rounds in ((3, 2), (6, 1), (9, 1)):
        arch, test, transcripts = _synthetic_transcripts(n, rounds)
        evaluator = ModelEvaluator(arch, test)
        mr_shapley(transcripts, evaluator)
        assert evaluator.call_count == rounds * 2**n


def test_additive_games_collapse_to_per_client_values():
    """200 additive games up to 6 clients: SV, LOO, IOI and the raw FP
    mass all equal the per-client values to 1e-9."""
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = rng.uniform(-1.0, 1.0, size=n)
        game = additive_game(c)
        u = game_round_utilities(game)
        for got in (
            shapley_exact(game.oracle()).scores,
            loo(u).scores,
            ioi(u).scores,
            fp_alpha(u).alpha,
        ):
            np.testing.assert_allclose(got, c, rtol=0.0, atol=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "EE's numerator on an additive game is affine, not proportional, "
        "in the per-client values: with C = sum(c), m(i) = ((N - 2) * C "
        "+ c_i) / (N - 1)^2 and sum(m) = C, so the efficiency rescale is "
        "a no-op and the (N - 2) * C offset survives into the scores for "
        "every N >= 3.  The worked 3-client example shows it concretely: "
        "EE = (3/4, 1, 5/4) against per-client values (0, 1, 2).  This "
        "is the price of scoring each client purely from the other "
        "clients' reports."
    ),
)
def test_ee_matches_additive_per_client_values():
    """EE does NOT collapse to the per-client values on additive games
    with three or more clients (two-client games are the one case where
    the offset vanishes)."""
    rng = np.random.default_rng(56)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        c = rng.uniform(0.1, 1.0, size=n)
        u = game_round_utilities(additive_game(c))
        np.testing.assert_allclose(ee(u).scores, c, rtol=0.0, atol=1e-9)


def test_influence_matrix_zero_diagonal_and_unit_columns():
    """Six-client rounds with positive mass: the influence matrix has an
    exactly zero diagonal and every normalized column sums to 1 within
    1e-9.  Under 1s."""
    rng = np.random.default_rng(66)
    t0 = time.perf_counter()
    for _ in range(100):
        u = RoundUtilities(
            v_empty=0.0,
            v_grand=1.0,
            v_with=rng.uniform(0.0, 0.9, size=6),
            v_without=rng.uniform(0.1, 1.0, size=6),
        )
        infl = influence_matrix(u)
        assert infl.flagged_columns == ()
        assert np.all(np.diag(infl.entries) == 0.0)
        assert np.all(np.diag(infl.normalized) == 0.0)
        np.testing.assert_allclose(
            infl.normalized.sum(axis=0), 1.0, rtol=0.0, atol=1e-9
        )
    assert time.perf_counter() - t0 < 1.0


def test_mlp_gradients_match_central_differences():
    """100 random coordinates across five architectures: analytic
    gradient vs central differences, relative error below 1e-4."""
    rng = np.random.default_rng(77)
    probes = 0
    for trial in range(5):
        spec = SyntheticSpec(
            n_classes=int(rng.integers(2, 5)),
            dim=int(rng.integers(3, 9)),
            samples_per_client=10,
            test_samples_per_class=6,
            separation=1.0,
        )
        _, data = generate_synthetic(spec, 2, seed=trial)
        arch = MlpArch.for_data(data)
        params = ModelParams(0.5 * rng.standard_normal(arch.n_params))
        _, grad = loss_and_grad(arch, params, data.features, data.labels)
        h = 1e-6
        for k in rng.choice(arch.n_params, size=20, replace=False):
            step = np.zeros(arch.n_params)
            step[k] = h
            up = stack_mean_loss(arch, (params.values + step)[None], data)[0]
            dn = stack_mean_loss(arch, (params.values - step)[None], data)[0]
            fd = (up - dn) / (2.0 * h)
            rel = abs(float(grad[k]) - fd) / max(abs(float(grad[k])), abs(fd), 1e-8)
            assert rel < 1e-4, f"coordinate {k}: analytic {grad[k]}, central {fd}"
            probes += 1
    assert probes == 100


def test_default_scenario_rank_fidelity_ordering_and_goldens(default_bundle):
    """Default scenario: FP tracks the multi-round reference better than
    LOO (spearman), EE better than COS (spearman), FP beats LOO on L2;
    all 16 summary means match the pinned goldens to rtol 1e-12.  The
    whole scenario runs in under five minutes."""
    bundle, seconds = default_bundle
    assert seconds < 300.0
    means = {
        (r["method"], r["metric"]): float(r["mean"])
        for r in _table(bundle, "rank_fidelity.csv")
    }
    assert means[("FP", "spearman")] > means[("LOO", "spearman")]
    assert means[("EE", "spearman")] > means[("COS", "spearman")]
    assert means[("FP", "l2")] < means[("LOO", "l2")]
    assert set(means) == set(GOLDEN_FIDELITY_MEANS)
    for key, want in GOLDEN_FIDELITY_MEANS.items():
        assert means[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


def test_attack_scenario_detection_rates(attack_bundle):
    """Attack scenario: FP and EE rank the attacker last at least as
    often as COS does, and in at least 70% of repeats.  Under five
    minutes."""
    bundle, seconds = attack_bundle
    assert seconds < 300.0
    rates = {
        r["method"]: float(r["detection_rate"])
        for r in _table(bundle, "misbehavior.csv")
    }
    assert rates["FP"] >= rates["COS"]
    assert rates["EE"] >= rates["COS"]
    assert rates["FP"] >= 0.7
    assert rates["EE"] >= 0.7


def test_unit_weights_reproduce_fedavg_and_weighting_helps_when_noisy(
    tiny_run, noisy_bundle
):
    """Score-weighted aggregation with all weights 1 rebuilds each
    round's FedAvg aggregate bit for bit; on the noisy scenario, FP and
    EE weighting end with final negative loss at least as good as plain
    FedAvg in at least 8 of 10 repeats.  Under five minutes."""
    config, transcripts, _ = tiny_run
    ones = np.ones(config.n_clients)
    for t in transcripts:
        assert np.array_equal(_weighted_model(t, ones).values, t.m.values)

    bundle, seconds = noisy_bundle
    assert seconds < 300.0
    rows = {r["method"]: r for r in _table(bundle, "weighted_summary.csv")}
    for method in ("FP", "EE"):
        assert int(rows[method]["repeats"]) == 10
        assert int(rows[method]["wins_vs_fedavg"]) >= 8


def test_bundled_scenario_rerun_is_byte_identical(attack_bundle, tmp_path):
    """Running a bundled scenario twice produces byte-identical result
    tables and seed records."""
    bundle, _ = attack_bundle
    rerun = run_scenario(bundled_path("attack"), out_dir=str(tmp_path / "rerun"))
    first = sorted(p.name for p in (Path(bundle) / "tables").iterdir())
    second = sorted(p.name for p in (Path(rerun) / "tables").iterdir())
    assert first and first == second
    for name in first:
        a = (Path(bundle) / "tables" / name).read_bytes()
        b = (Path(rerun) / "tables" / name).read_bytes()
        assert a == b, f"tables/{name} differs between runs"
    assert (Path(bundle) / "seeds.json").read_bytes() == (
        Path(rerun) / "seeds.json"
    ).read_bytes()
