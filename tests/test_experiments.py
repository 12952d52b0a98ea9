"""Scenario files, experiment runs, result bundles, and the CLI.

Everything here runs on a deliberately tiny scenario (3 clients, 2
rounds, 2 repeats) so the full pipeline stays fast; the bundled
paper-shaped scenarios are exercised by the release gate instead.
"""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import weakref
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedscore import (
    cos_accumulated,
    ee,
    fp,
    ioi,
    loo,
    model_eval_oracle,
    mr_shapley,
    scores_from_csv,
    utilities_from_transcript,
)
from fedscore.experiments import bundle as bundle_module
from fedscore.experiments import runs
from fedscore.experiments import (
    AblationBlock,
    ExperimentError,
    InfluenceBlock,
    Scenario,
    ScenarioError,
    WeightedBlock,
    ablation,
    derive_seeds,
    influence_summary,
    manipulation_summary,
    misbehavior,
    parse_scenario,
    rank_fidelity,
    run_repeats,
    run_scenario,
    scenario_with,
    verify_bundle,
    weighted_aggregation,
    weights_from_scores,
    write_table,
)
from fedscore import fedsim
from fedscore.fedsim import load_transcripts, save_transcripts

from helpers import additive_game, write_table_game

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TINY_SCENARIO = """\
[scenario]
name = tiny
repeats = 2
master_seed = 5
methods = LOO, FP, EE, COS
reference = MR-SV
reference_rounds = eval
eval_round = 2

[federation]
n_clients = 3
rounds = 2
iid = true
local_epochs = 1
lr = 0.1
batch_size = 8
utility = neg_loss

[data]
n_classes = 3
dim = 6
samples_per_client = 12
test_samples_per_class = 20
separation = 1.0
"""

DOWNSTREAM_BLOCKS = """\
[ablation]
axis = round
values = 1, 2

[downstream.weighted]
weight_mode = cumulative
rates = linear

[downstream.misbehavior]
attacker = 0
rate = 1.0

[downstream.influence]

[downstream.manipulation]
"""


def tiny_scenario(extra=""):
    return parse_scenario(io.StringIO(TINY_SCENARIO + extra), name="tiny")


# Scenario fuzzing: one change to the full tiny scenario per example.
FUZZ_LINES = (TINY_SCENARIO + DOWNSTREAM_BLOCKS).splitlines()
FUZZ_SECTIONS = [l[1:-1] for l in FUZZ_LINES if l.startswith("[")]
FUZZ_KEYS = {l.split(" = ")[0] for l in FUZZ_LINES if " = " in l}
FUZZ_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
            max_size=12),
    st.integers().map(str),
    st.floats().map(str),
    st.sampled_from(["", "linear", "LINEAR", "nan"]),
)
FUZZ_NAMES = st.from_regex(r"[a-z_.]{1,12}", fullmatch=True)


def fuzz_text(index, line):
    lines = list(FUZZ_LINES)
    lines[index] = line
    return "\n".join(lines) + "\n"


FUZZED_SCENARIOS = st.one_of(
    # one key's value replaced
    st.builds(lambda i, v: fuzz_text(i, f"{FUZZ_LINES[i].split(' = ')[0]} = {v}"),
              st.sampled_from([i for i, l in enumerate(FUZZ_LINES)
                               if " = " in l]),
              FUZZ_VALUES),
    # an unknown key added to one section
    st.builds(lambda i, k, v: fuzz_text(i, f"{FUZZ_LINES[i]}\n{k} = {v}"),
              st.sampled_from([i for i, l in enumerate(FUZZ_LINES)
                               if l.startswith("[")]),
              FUZZ_NAMES.filter(lambda k: k not in FUZZ_KEYS),
              FUZZ_VALUES),
    # an unknown section added
    st.builds(lambda s: fuzz_text(0, f"[{s}]\n{FUZZ_LINES[0]}"),
              FUZZ_NAMES.filter(lambda s: s not in FUZZ_SECTIONS)),
)


def table_rows(tables):
    """A component's (name, header, rows) tables as name -> rows."""
    return {name: rows for name, _, rows in tables}


class TestScenarioParsing:
    def test_full_file(self):
        sc = tiny_scenario(DOWNSTREAM_BLOCKS)
        assert sc.name == "tiny"
        assert sc.repeats == 2 and sc.master_seed == 5
        assert sc.methods == ("LOO", "FP", "EE", "COS")
        assert sc.reference == "MR-SV" and sc.reference_rounds == "eval"
        assert sc.federation.n_clients == 3 and sc.federation.iid
        assert sc.federation.dataset.dim == 6
        assert sc.ablation.axis == "round" and sc.ablation.values == (1, 2)
        kinds = [type(b).__name__ for b in sc.downstream]
        assert kinds == ["WeightedBlock", "MisbehaviorBlock",
                         "InfluenceBlock", "ManipulationBlock"]

    def test_missing_n_clients_named(self):
        text = TINY_SCENARIO.replace("n_clients = 3\n", "")
        with pytest.raises(ScenarioError,
                           match="federation.n_clients: required field is missing"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_unknown_key_named(self):
        text = TINY_SCENARIO.replace("lr = 0.1", "lr = 0.1\nmomentum = 0.9")
        with pytest.raises(ScenarioError, match="federation.momentum"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="plotting"):
            parse_scenario(io.StringIO(TINY_SCENARIO + "\n[plotting]\nstyle = dark\n"),
                           name="scenario")

    @pytest.mark.parametrize("key", ["foo = 1", "repeats = 2"])
    def test_default_section_is_an_unknown_section(self, key):
        # configparser would otherwise merge [DEFAULT] into every section
        text = TINY_SCENARIO + f"\n[DEFAULT]\n{key}\n"
        with pytest.raises(ScenarioError, match=r"^DEFAULT: unknown section"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_unknown_method_rejected(self):
        text = TINY_SCENARIO.replace("LOO, FP, EE, COS", "LOO, BANZHAF")
        with pytest.raises(ScenarioError, match="BANZHAF"):
            parse_scenario(io.StringIO(text), name="scenario")

    @pytest.mark.parametrize("field, value, message", [
        ("master_seed", -1, r"scenario\.master_seed: must be nonnegative, got -1"),
        ("methods", ("LOO", "FP", "LOO"), r"scenario\.methods: LOO listed twice"),
    ])
    def test_scenario_field_checked_in_files_and_copies(self, field, value, message):
        raw = ", ".join(value) if isinstance(value, tuple) else str(value)
        text = re.sub(rf"^{field} = .*$", f"{field} = {raw}", TINY_SCENARIO,
                      flags=re.M)
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(io.StringIO(text), name="scenario")
        with pytest.raises(ScenarioError, match=message):
            dataclasses.replace(tiny_scenario(), **{field: value})

    def test_bad_reference_rounds_rejected(self):
        text = TINY_SCENARIO.replace("reference_rounds = eval",
                                     "reference_rounds = some")
        with pytest.raises(ScenarioError, match="reference_rounds"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_eval_round_out_of_range(self):
        text = TINY_SCENARIO.replace("eval_round = 2", "eval_round = 9")
        with pytest.raises(ScenarioError, match="eval_round"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_unparseable_value_names_field(self):
        text = TINY_SCENARIO.replace("rounds = 2", "rounds = two")
        with pytest.raises(ScenarioError, match="federation.rounds"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_linear_noise_rates(self):
        text = TINY_SCENARIO.replace("utility = neg_loss",
                                     "utility = neg_loss\nnoise_rates = linear")
        sc = parse_scenario(io.StringIO(text), name="scenario")
        assert sc.federation.noise_rates == (0.0, 0.5, 1.0)

    def test_explicit_noise_rates(self):
        text = TINY_SCENARIO.replace(
            "utility = neg_loss",
            "utility = neg_loss\nnoise_rates = 0.1, 0.2, 0.3")
        sc = parse_scenario(io.StringIO(text), name="scenario")
        assert sc.federation.noise_rates == (0.1, 0.2, 0.3)

    def test_mr_sv_cap_names_n_clients(self):
        text = TINY_SCENARIO.replace("n_clients = 3", "n_clients = 13")
        with pytest.raises(ScenarioError, match=(
                r"federation\.n_clients: MR-SV .* capped at 12 clients, got 13")):
            parse_scenario(io.StringIO(text), name="scenario")
        twelve = parse_scenario(io.StringIO(
            TINY_SCENARIO.replace("n_clients = 3", "n_clients = 12")),
            name="scenario")
        assert twelve.federation.n_clients == 12

    def test_true_sv_cap_names_n_clients(self):
        text = TINY_SCENARIO.replace("reference = MR-SV", "reference = true-SV")
        with pytest.raises(ScenarioError, match=(
                r"federation\.n_clients: SV .* capped at 12 clients, got 13")):
            parse_scenario(io.StringIO(text.replace("n_clients = 3", "n_clients = 13")),
                           name="scenario")
        twelve = parse_scenario(io.StringIO(
            text.replace("n_clients = 3", "n_clients = 12")), name="scenario")
        assert (twelve.reference, twelve.federation.n_clients) == ("true-SV", 12)

    def test_true_sv_cap_names_ablation_values(self):
        text = (TINY_SCENARIO.replace("methods = LOO, FP, EE, COS",
                                      "methods = LOO, SV")
                .replace("reference = MR-SV", "reference = true-SV")
                + "\n[ablation]\naxis = n_clients\nvalues = 3, 13\n")
        with pytest.raises(ScenarioError, match=(
                r"ablation\.values: SV .* capped at 12 clients, got 13")):
            parse_scenario(io.StringIO(text), name="scenario")

    @pytest.mark.parametrize("block, field", [
        pytest.param("[downstream.misbehavior]\neval_round = 3\n",
                     r"downstream\.misbehavior\.eval_round: 3 outside 1\.\.2",
                     id="misbehavior.eval_round-high"),
        pytest.param("[downstream.misbehavior]\neval_round = 0\n",
                     r"downstream\.misbehavior\.eval_round: 0 outside 1\.\.2",
                     id="misbehavior.eval_round-zero"),
        pytest.param("[downstream.influence]\nround = 3\n",
                     r"downstream\.influence\.round: 3 outside 1\.\.2",
                     id="influence.round"),
        pytest.param("[downstream.weighted]\nrates = 0.0, 0.5\n",
                     r"downstream\.weighted\.rates: 2 values for 3 clients",
                     id="weighted.rates-count"),
        pytest.param("[downstream.weighted]\nrates = 0.0, 0.5, 1.5\n",
                     r"downstream\.weighted\.rates: 1\.5 outside \[0, 1\]",
                     id="weighted.rates-range"),
        pytest.param("[ablation]\naxis = round\nvalues = 1, 3\n",
                     r"ablation\.values: 3 outside 1\.\.2",
                     id="ablation.values-round"),
        pytest.param("[ablation]\naxis = mu\nvalues = 0.5, 0\n",
                     r"ablation\.values: dirichlet_mu must be positive, got 0\.0",
                     id="ablation.values-mu"),
        pytest.param("[ablation]\naxis = n_clients\nvalues = 3, 0\n",
                     r"ablation\.values: need at least one client, got 0",
                     id="ablation.values-n_clients"),
    ])
    def test_block_field_checked_at_parse(self, block, field):
        with pytest.raises(ScenarioError, match=field):
            tiny_scenario("\n" + block)

    def test_client_axis_checks_noise_rates(self):
        text = TINY_SCENARIO.replace(
            "utility = neg_loss",
            "utility = neg_loss\nnoise_rates = 0.1, 0.2, 0.3")
        with pytest.raises(ScenarioError, match=(
                r"ablation\.values: noise_rates has 3 entries for 2 clients")):
            parse_scenario(io.StringIO(
                text + "\n[ablation]\naxis = n_clients\nvalues = 2\n"),
                name="scenario")

    def test_linear_weighted_rates_need_two_clients(self):
        text = TINY_SCENARIO.replace("n_clients = 3", "n_clients = 1")
        with pytest.raises(ScenarioError, match=(
                r"downstream\.weighted\.rates: linear schedule needs >= 2")):
            parse_scenario(io.StringIO(text + "\n[downstream.weighted]\n"),
                           name="scenario")

    def test_replaced_copy_is_checked(self):
        sc = tiny_scenario("\n[downstream.influence]\nround = 2\n")
        fed = dataclasses.replace(sc.federation, rounds=1)
        with pytest.raises(ScenarioError, match="downstream.influence.round"):
            dataclasses.replace(sc, federation=fed, eval_round=1)

    def test_empty_ablation_values_rejected(self):
        with pytest.raises(ScenarioError, match="ablation.values: empty list"):
            dataclasses.replace(tiny_scenario(),
                                ablation=AblationBlock("round", ()))

    def test_unknown_ablation_axis_named(self):
        with pytest.raises(ScenarioError, match="ablation.axis: 'seed'"):
            tiny_scenario("\n[ablation]\naxis = seed\nvalues = 0.5\n")

    @pytest.mark.parametrize("line, fault, message", [
        ("n_classes = 3", "n_classes = 1",
         r"data: need at least two classes, got 1"),
        ("dim = 6", "dim = 0", r"data: feature dimension must be positive"),
        ("samples_per_client = 12", "samples_per_client = 0",
         r"data: samples_per_client must be positive"),
        ("test_samples_per_class = 20", "test_samples_per_class = 0",
         r"data: test_samples_per_class must be positive"),
        ("separation = 1.0", "separation = -1",
         r"data: separation must be positive, got -1\.0"),
    ])
    def test_data_fault_names_section(self, line, fault, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(io.StringIO(TINY_SCENARIO.replace(line, fault)),
                           name="scenario")

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_names_federation(self, lr):
        text = TINY_SCENARIO.replace("lr = 0.1", f"lr = {lr}")
        with pytest.raises(ScenarioError, match=rf"federation: .*lr={lr}"):
            parse_scenario(io.StringIO(text), name="scenario")

    def test_weight_mode_checked_on_copies(self):
        with pytest.raises(ScenarioError, match=(
                r"downstream\.weighted\.weight_mode: 'bogus' not one of")):
            dataclasses.replace(tiny_scenario(), downstream=(
                WeightedBlock(weight_mode="bogus"),))

    @settings(max_examples=300, deadline=None)
    @given(FUZZED_SCENARIOS)
    def test_fuzzed_scenario_parses_or_names_a_section(self, text):
        try:
            parse_scenario(io.StringIO(text), name="fuzz")
        except ScenarioError as exc:
            sections = re.findall(r"^\[(.+)\]$", text, flags=re.M)
            named = "|".join(map(re.escape, sections))
            assert re.match(rf"({named})(\.[^\s:]+)?: ", str(exc)), str(exc)

    def test_scenario_with_overrides_federation(self):
        sc = tiny_scenario()
        sc2 = scenario_with(sc, iid=False, dirichlet_mu=0.1)
        assert sc2.federation.iid is False
        assert sc2.federation.dirichlet_mu == 0.1
        assert sc.federation.iid is True  # original untouched
        assert sc2.methods == sc.methods


class TestSeeds:
    def test_matches_seed_sequence(self):
        got = derive_seeds(42, 4)
        expect = [
            int(np.random.SeedSequence([42, r]).generate_state(1)[0])
            for r in range(4)
        ]
        assert got == expect

    def test_distinct_across_repeats_and_masters(self):
        a = derive_seeds(1, 10)
        b = derive_seeds(2, 10)
        assert len(set(a)) == 10
        assert set(a).isdisjoint(b)


class TestRunRepeats:
    def test_contexts(self):
        sc = tiny_scenario()
        contexts = run_repeats(sc)
        assert [c.repeat for c in contexts] == [0, 1]
        assert len({c.seed for c in contexts}) == 2
        for c in contexts:
            assert len(c.transcripts) == sc.federation.rounds
            assert c.config.seed == c.seed

    def test_cost_audit_helper(self):
        sc = tiny_scenario()
        ctx = run_repeats(sc)[0]
        before = ctx.evaluator.call_count
        runs.round_utilities(ctx, len(ctx.transcripts))
        assert ctx.evaluator.call_count - before == 2 * 3 + 2


@pytest.fixture(scope="module")
def fidelity_result():
    sc = tiny_scenario()
    return table_rows(rank_fidelity(sc, run_repeats(sc)))


class TestRankFidelity:
    @pytest.fixture
    def result(self, fidelity_result):
        return fidelity_result

    def test_shape(self, result):
        per_seed = result["rank_fidelity_per_seed"]
        assert [r[2] for r in per_seed] == ["LOO", "FP", "EE", "COS"] * 2
        assert len(result["rank_fidelity"]) == 4 * 4

    def test_fp_and_ee_rank_identically(self, result):
        # EE is an affine map of FP's mass, and the normalisation removes
        # affine differences, so their fidelity rows coincide
        means = {(m, metric): mean
                 for m, metric, mean, _ in result["rank_fidelity"]}
        for metric in ("spearman", "kendall"):
            assert means["FP", metric] == means["EE", metric]

    def test_metric_ranges(self, result):
        for _, metric, mean, var in result["rank_fidelity"]:
            if metric != "l2":
                assert -1.0 <= mean <= 1.0
            else:
                assert mean >= 0.0
            assert var >= 0.0

    def test_contexts_reused(self):
        sc = tiny_scenario()
        contexts = run_repeats(sc)
        assert rank_fidelity(sc, contexts) == rank_fidelity(sc, contexts)


class TestScoringCache:
    def test_utilities_extracted_once_per_round(self):
        sc = tiny_scenario()
        contexts = run_repeats(sc)
        rank_fidelity(sc, contexts)
        calls = [c.evaluator.call_count for c in contexts]
        influence_summary(sc, InfluenceBlock(), contexts)
        manipulation_summary(sc, contexts=contexts)
        assert [c.evaluator.call_count for c in contexts] == calls

    def test_one_retraining_game_per_repeat(self, monkeypatch):
        text = (TINY_SCENARIO.replace("methods = LOO, FP, EE, COS",
                                      "methods = LOO, SV")
                .replace("reference = MR-SV", "reference = true-SV"))
        sc = parse_scenario(io.StringIO(text), name="scenario")
        built = []

        class CountingGame(runs.RetrainingGame):
            def __init__(self, config):
                built.append(config.seed)
                super().__init__(config)

        monkeypatch.setattr(runs, "RetrainingGame", CountingGame)
        per_seed = table_rows(rank_fidelity(sc, run_repeats(sc)))[
            "rank_fidelity_per_seed"]
        assert built == derive_seeds(sc.master_seed, sc.repeats)
        for row in per_seed:
            if row[2] == "SV":
                assert row[3] == 0.0  # the method is its own reference

    def test_one_mr_sv_game_per_round(self, monkeypatch):
        # With eval-round references, each ablation value reads MR-SV
        # rows 1..value; rounds 1-2 are shared and solved once.
        text = (TINY_SCENARIO.replace("\nrounds = 2\n", "\nrounds = 4\n")
                .replace("methods = LOO, FP, EE, COS", "methods = LOO, EE, MR-SV"))
        sc = parse_scenario(
            io.StringIO(text + "\n[ablation]\naxis = round\nvalues = 2, 4\n"),
            name="scenario")
        solved = []
        real = runs.shapley_exact_all

        def counting(oracles):
            solved.append(len(oracles))
            return real(oracles)

        monkeypatch.setattr(runs, "shapley_exact_all", counting)
        rows = table_rows(ablation(sc, sc.ablation, run_repeats(sc)))["ablation"]
        # 2 repeats x (rounds 1-2, then rounds 3-4); 12 games if each
        # horizon solved its own rounds
        assert [k for k in solved if k] == [4, 4]
        # each value's rows equal a fidelity pass on fresh federations
        for value in (2, 4):
            fresh = dataclasses.replace(sc, eval_round=value, ablation=None)
            plain = table_rows(rank_fidelity(fresh, run_repeats(fresh)))[
                "rank_fidelity"]
            assert [r[2:] for r in rows if r[1] == value] == plain


class TestAblation:
    def test_round_axis_shares_contexts(self):
        sc = tiny_scenario(
            "\n[ablation]\naxis = round\nvalues = 1, 2\n")
        contexts = run_repeats(sc)
        rows = table_rows(ablation(sc, sc.ablation, contexts))["ablation"]
        values = sorted({row[1] for row in rows})
        assert values == [1, 2]
        # eval_round = 2 rows must equal a plain fidelity pass
        plain = table_rows(rank_fidelity(sc, contexts))["rank_fidelity"]
        for method, metric, mean, _ in plain:
            match = [r for r in rows
                     if r[1] == 2 and r[2] == method and r[3] == metric]
            assert match and match[0][4] == mean

    def test_client_axis_ignores_blocks_sized_for_the_base(self):
        # Explicit weighted rates fit N = 3 only; the N = 2 variant of the
        # client axis feeds rank fidelity and must not trip their check.
        sc = tiny_scenario("\n[ablation]\naxis = n_clients\nvalues = 2\n"
                           "\n[downstream.weighted]\nrates = 0.0, 0.5, 1.0\n")
        rows = table_rows(ablation(sc, sc.ablation, None))["ablation"]
        assert {(r[0], r[1]) for r in rows} == {("n_clients", 2)}


class TestWeights:
    def test_clamp_and_mean_one(self):
        weights, degenerate = weights_from_scores([2.0, -1.0, 1.0])
        assert not degenerate
        assert weights.min() >= 0.0
        assert abs(weights.mean() - 1.0) < 1e-12
        assert weights[1] == 0.0

    def test_degenerate_falls_back_to_uniform(self):
        weights, degenerate = weights_from_scores([-1.0, -2.0])
        assert degenerate
        assert np.array_equal(weights, [1.0, 1.0])


class TestWeightedAggregation:
    def test_curves_and_summary(self):
        sc = tiny_scenario("\n[downstream.weighted]\nweight_mode = cumulative\n"
                           "rates = 0.0, 0.5, 1.0\n")
        result = table_rows(weighted_aggregation(sc, *sc.downstream))
        curves = result["weighted_curves"]
        methods = {row[2] for row in curves}
        assert "FedAvg" in methods
        assert {"LOO", "FP", "EE", "COS"} <= methods
        for method, wins, repeats, *_ in result["weighted_summary"]:
            assert 0 <= wins <= repeats == sc.repeats
        rounds = {row[1] for row in curves}
        assert rounds == {1, 2}

    def test_means_and_summary_restate_the_curves(self, coverage_bundle):
        # The coverage bundle weights per round, over MR-SV among others.
        bundle, _ = coverage_bundle
        tables = {
            name: json.loads((Path(bundle) / "tables" / f"{name}.json")
                             .read_text())["rows"]
            for name in ("weighted_curves", "weighted_curves_mean",
                         "weighted_summary")
        }
        curves = {(rep, rnd, m): v for rep, rnd, m, v in tables["weighted_curves"]}
        repeats = sorted({rep for rep, _, _ in curves})
        last = max(rnd for _, rnd, _ in curves)
        means = {(rnd, m): mean for rnd, m, mean, _ in tables["weighted_curves_mean"]}
        summary = tables["weighted_summary"]
        assert "MR-SV" in [row[0] for row in summary]
        for method, wins, n_repeats, final, fedavg_final in summary:
            assert final == means[last, method]
            assert fedavg_final == means[last, "FedAvg"]
            assert wins == sum(
                curves[rep, last, method] >= curves[rep, last, "FedAvg"]
                for rep in repeats
            )
            assert n_repeats == len(repeats)


class TestMisbehavior:
    def test_obvious_attacker_is_found(self):
        sc = tiny_scenario("\n[downstream.misbehavior]\nattacker = 0\nrate = 1.0\n")
        result = table_rows(misbehavior(sc, *sc.downstream))
        summary = result["misbehavior"]
        methods = [row[0] for row in summary]
        assert methods == ["LOO", "FP", "EE", "COS"]
        for row in summary:
            rate = row[1]
            assert 0.0 <= rate <= 1.0
        assert len(result["misbehavior_per_seed"]) == sc.repeats * len(methods)


class TestInfluenceAndManipulationSummaries:
    def test_influence_summary(self):
        sc = tiny_scenario("\n[downstream.influence]\n")
        contexts = run_repeats(sc)
        rows = table_rows(influence_summary(sc, *sc.downstream, contexts))[
            "influence"]
        assert len(rows) == 3 * 3
        for source, target, value in rows:
            if source == target:
                assert value == 0.0

    def test_manipulation_summary_ee_row_is_silent(self):
        sc = tiny_scenario("\n[downstream.manipulation]\n")
        contexts = run_repeats(sc)
        rows = table_rows(manipulation_summary(sc, contexts=contexts))
        ee_rows = [r for r in rows["manipulation"] if r[0] == "EE"]
        assert ee_rows, "expected EE rows in the sweep"
        for _, kind, _, max_numerator_delta in ee_rows:
            assert max_numerator_delta == 0.0


def test_degenerate_rows_reach_the_bundle(tmp_path):
    # With no local training every update is zero: every weighted basis
    # degenerates to uniform weights (2 repeats x 2 rounds x 4 methods = 16
    # rows) and every influence column is zero (2 repeats x 3 = 6 rows).
    path = tmp_path / "flat.scenario"
    path.write_text(TINY_SCENARIO.replace("local_epochs = 1", "local_epochs = 0")
                    + "\n[downstream.weighted]\n\n[downstream.influence]\n")
    out = run_scenario(str(path), out_dir=str(tmp_path / "out"))
    assert verify_bundle(out) == []
    rows = {
        name: json.loads((Path(out) / "tables" / f"{name}.json").read_text())["rows"]
        for name in ("weighted_flagged", "influence_flagged")
    }
    assert rows["weighted_flagged"] == [
        [repeat, rnd, method] for repeat in (0, 1) for rnd in (1, 2)
        for method in ("LOO", "FP", "EE", "COS")
    ]
    assert rows["influence_flagged"] == [
        [repeat, column, "degenerate column"] for repeat in (0, 1)
        for column in range(3)
    ]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    scenario_path = root / "tiny.scenario"
    scenario_path.write_text(TINY_SCENARIO + DOWNSTREAM_BLOCKS)
    out = root / "out"
    run_scenario(str(scenario_path), out_dir=str(out))
    return out


class TestBundles:
    def test_inventory(self, bundle):
        meta = json.loads((bundle / "run.json").read_text())
        assert meta["scenario"] == "tiny"
        assert meta["components"] == [
            "rank_fidelity", "ablation", "weighted_aggregation",
            "misbehavior", "influence", "manipulation",
        ]
        for name in meta["tables"]:
            assert (bundle / "tables" / name).exists()
        assert (bundle / "seeds.json").exists()
        assert (bundle / "scenario.snapshot").exists()
        assert (bundle / "checksums.json").exists()

    def test_seeds_recorded(self, bundle):
        seeds = json.loads((bundle / "seeds.json").read_text())
        assert seeds["master_seed"] == 5
        assert seeds["seeds"] == derive_seeds(5, 2)

    def test_rows_match_headers(self, bundle):
        for name in json.loads((bundle / "run.json").read_text())["tables"]:
            if name.endswith(".json"):
                table = json.loads((bundle / "tables" / name).read_text())
                for row in table["rows"]:
                    assert len(row) == len(table["header"]), name

    def test_checksums_verify(self, bundle):
        assert verify_bundle(str(bundle)) == []

    def test_tamper_detected(self, bundle):
        victim = bundle / "tables" / "rank_fidelity.csv"
        original = victim.read_bytes()
        victim.write_bytes(original + b"tail\n")
        try:
            assert "tables/rank_fidelity.csv" in verify_bundle(str(bundle))
        finally:
            victim.write_bytes(original)

    @pytest.mark.parametrize("stale", [
        pytest.param(lambda meta: {**meta, "tables": meta["tables"][2:]}, id="table-missing"),
        pytest.param(lambda meta: {**meta, "tables": meta["tables"] + ["old.csv"]},
                     id="table-extra"),
        pytest.param(lambda meta: {"scenario": meta["scenario"]}, id="no-tables"),
        pytest.param(None, id="no-run-json"),
    ])
    def test_run_json_must_list_the_checksummed_tables(self, bundle, stale):
        run_json = bundle / "run.json"
        original = run_json.read_bytes()
        if stale is None:
            run_json.unlink()
        else:
            run_json.write_text(json.dumps(stale(json.loads(original))))
        try:
            assert verify_bundle(str(bundle)) == ["run.json"]
        finally:
            run_json.write_bytes(original)

    def test_rerun_is_byte_identical(self, bundle, tmp_path):
        scenario_path = bundle.parent / "tiny.scenario"
        again = tmp_path / "again"
        run_scenario(str(scenario_path), out_dir=str(again))
        for name in sorted(os.listdir(bundle / "tables")):
            a = (bundle / "tables" / name).read_bytes()
            b = (again / "tables" / name).read_bytes()
            assert a == b, f"tables/{name} differs between reruns"

    def test_seed_override_changes_tables(self, bundle, tmp_path):
        scenario_path = bundle.parent / "tiny.scenario"
        other = tmp_path / "other"
        run_scenario(str(scenario_path), out_dir=str(other), master_seed=6)
        a = (bundle / "tables" / "rank_fidelity.csv").read_bytes()
        b = (other / "tables" / "rank_fidelity.csv").read_bytes()
        assert a != b


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Under neg_loss v(grand) is a negative loss while FP's masses sum "
        "positive whenever training helps, so the efficiency rescale to "
        "v(grand) multiplies them by a negative factor and reverses FP's "
        "order (and EE's) against every other method."
    ),
)
def test_fp_ranks_in_the_direction_of_loo_on_neg_loss(coverage_bundle):
    bundle, _ = coverage_bundle
    with open(Path(bundle) / "tables" / "rank_fidelity.csv", newline="") as fh:
        spearman = {row["method"]: float(row["mean"])
                    for row in csv.DictReader(fh) if row["metric"] == "spearman"}
    assert np.sign(spearman["FP"]) == np.sign(spearman["LOO"]) != 0


class TestExecutionOrder:
    """run_scenario scores the base federations first and frees them
    before the blocks that train their own federations run."""

    def test_base_contexts_are_dead_before_self_training_blocks(
        self, tmp_path, monkeypatch
    ):
        refs = []

        def tracked_repeats(scenario):
            contexts = run_repeats(scenario)
            refs.extend(weakref.ref(ctx) for ctx in contexts)
            return contexts

        alive = {}

        def recording(name, component):
            def wrapper(scenario, block):
                alive[name] = [ref() is not None for ref in refs]
                return component(scenario, block)
            return wrapper

        monkeypatch.setattr(bundle_module, "run_repeats", tracked_repeats)
        for name, component in (("weighted_aggregation", weighted_aggregation),
                                ("misbehavior", misbehavior)):
            monkeypatch.setattr(bundle_module, name, recording(name, component))
        path = tmp_path / "tiny.scenario"
        path.write_text(TINY_SCENARIO + DOWNSTREAM_BLOCKS)
        run_scenario(str(path), out_dir=str(tmp_path / "out"))
        assert len(refs) == 2
        assert alive == {
            "weighted_aggregation": [False, False],
            "misbehavior": [False, False],
        }

    def test_n_clients_ablation_tables_match_scenario_order(self, tmp_path):
        # The ablation retrains per value, so it runs after influence and
        # manipulation; every table must match running the components in
        # scenario order on one shared set of contexts.
        text = (TINY_SCENARIO + DOWNSTREAM_BLOCKS).replace(
            "axis = round\nvalues = 1, 2", "axis = n_clients\nvalues = 2, 3")
        path = tmp_path / "tiny.scenario"
        path.write_text(text)
        out = tmp_path / "out"
        run_scenario(str(path), out_dir=str(out))

        sc = parse_scenario(str(path), name="tiny")
        assert sc.ablation.axis == "n_clients"
        contexts = run_repeats(sc)
        weighted, misbehaving, influence, _ = sc.downstream
        expected = tmp_path / "expected"
        for tables in (
            rank_fidelity(sc, contexts),
            ablation(sc, sc.ablation, contexts),
            weighted_aggregation(sc, weighted),
            misbehavior(sc, misbehaving),
            influence_summary(sc, influence, contexts),
            manipulation_summary(sc, contexts),
        ):
            for name, header, rows in tables:
                write_table(str(expected), name, header, rows)
        names = sorted(os.listdir(expected))
        assert sorted(os.listdir(out / "tables")) == names
        for name in names:
            assert (out / "tables" / name).read_bytes() == (
                expected / name).read_bytes(), name
        assert json.loads((out / "run.json").read_text())["components"] == [
            "rank_fidelity", "ablation", "weighted_aggregation",
            "misbehavior", "influence", "manipulation",
        ]


def _overcounting(real):
    def utilities(transcript, evaluator):
        found = real(transcript, evaluator)
        evaluator.add_calls(1)  # one row more than the probe set
        return found
    return utilities


def _off_by_one_ulp(real):
    def weighted(transcript, weights):
        return fedsim.ModelParams(
            np.nextafter(real(transcript, weights).values, np.inf))
    return weighted


class TestBundleReplacement:
    """run_scenario builds the bundle beside out_dir and moves it in last,
    so a failed run leaves nothing that verifies and no stale tables."""

    def old_bundle(self, tmp_path):
        path = tmp_path / "tiny.scenario"
        path.write_text(TINY_SCENARIO + DOWNSTREAM_BLOCKS)
        out = tmp_path / "out"
        run_scenario(str(path), out_dir=str(out))
        assert verify_bundle(str(out)) == []
        (out / "notes.txt").write_text("kept\n")
        return path, out

    @pytest.mark.parametrize("error", [RuntimeError, BrokenProcessPool])
    def test_failed_run_leaves_nothing_that_verifies(
        self, tmp_path, monkeypatch, error
    ):
        path, out = self.old_bundle(tmp_path)

        def broken(scenario, block):
            raise error("component failed")

        monkeypatch.setattr(bundle_module, "misbehavior", broken)
        with pytest.raises(error, match="component failed"):
            run_scenario(str(path), out_dir=str(out))
        with pytest.raises(FileNotFoundError):
            verify_bundle(str(out))
        assert sorted(os.listdir(out)) == ["notes.txt"]
        assert sorted(os.listdir(tmp_path)) == ["out", "tiny.scenario"]

    @pytest.mark.parametrize("name, broken, message", [
        ("utilities_from_transcript", _overcounting,
         "scoring cost audit failed: 9 model evaluations for 3 clients, "
         "expected 8"),
        ("_weighted_model", _off_by_one_ulp,
         "uniform weights failed to reproduce FedAvg in round 1"),
    ])
    def test_failed_invariant_leaves_nothing_that_verifies(
        self, tmp_path, monkeypatch, name, broken, message
    ):
        path, out = self.old_bundle(tmp_path)
        monkeypatch.setattr(runs, name, broken(getattr(runs, name)))
        with pytest.raises(ExperimentError, match=re.escape(message)):
            run_scenario(str(path), out_dir=str(out))
        with pytest.raises(FileNotFoundError):
            verify_bundle(str(out))
        assert sorted(os.listdir(out)) == ["notes.txt"]

    def test_refused_seed_leaves_the_older_bundle(self, tmp_path):
        path, out = self.old_bundle(tmp_path)
        with pytest.raises(ScenarioError, match=r"scenario\.master_seed"):
            run_scenario(str(path), out_dir=str(out), master_seed=-1)
        assert verify_bundle(str(out)) == []

    def test_rerun_replaces_every_table_of_an_older_bundle(self, tmp_path):
        path, out = self.old_bundle(tmp_path)
        smaller = tmp_path / "smaller.scenario"
        smaller.write_text(TINY_SCENARIO)
        run_scenario(str(smaller), out_dir=str(out))
        assert verify_bundle(str(out)) == []
        assert sorted(os.listdir(out / "tables")) == [
            "rank_fidelity.csv", "rank_fidelity.json",
            "rank_fidelity_per_seed.csv", "rank_fidelity_per_seed.json",
        ]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == [
            "out", "smaller.scenario", "tiny.scenario"]


class TestWriteTable:
    def test_cell_formats(self, tmp_path):
        files = write_table(
            str(tmp_path), "t", ["name", "flag", "value"],
            [("a", True, 0.1), ("b", False, 2.0)],
        )
        assert files == ["t.csv", "t.json"]
        text = (tmp_path / "t.csv").read_text()
        assert "a,true,0.1\n" in text
        assert "b,false,2.0\n" in text
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["header"] == ["name", "flag", "value"]


class TestCli:
    def _run(self, *args, env=None, stdout=subprocess.PIPE,
             python=("-m", "fedscore")):
        # Run the CLI as a module so the tests need no installed script;
        # ``python`` holds the interpreter's own arguments.
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, full_env.get("PYTHONPATH")) if p
        )
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, *python, *args],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=full_env,
        )

    def test_import_loads_no_process_pool_or_scipy(self):
        # Every benchmark workload times two fresh imports of the CLI; the
        # worker pool's modules load only when a pool starts.
        proc = self._run(python=("-c", (
            "import sys, fedscore.experiments.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'concurrent', 'multiprocessing', 'scipy'}))")))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("damage, named", [
        pytest.param(lambda recorded: "[]", "checksums.json", id="list"),
        pytest.param(lambda recorded: "{", "checksums.json", id="not-json"),
        pytest.param(lambda recorded: json.dumps({**recorded, "tables": "00"}),
                     "tables", id="directory"),
    ])
    def test_report_names_a_malformed_manifest(self, bundle, damage, named):
        manifest = bundle / "checksums.json"
        original = manifest.read_bytes()
        manifest.write_text(damage(json.loads(original)))
        try:
            assert verify_bundle(str(bundle)) == [named]
            report = self._run("report", str(bundle))
        finally:
            manifest.write_bytes(original)
        assert report.returncode == 1
        assert report.stderr == f"fedscore: checksum mismatch: {named}\n"

    def test_game_shapley(self, tmp_path):
        path = tmp_path / "additive.game"
        write_table_game(additive_game([0.0, 1.0, 2.0]), path)
        proc = self._run("game", "shapley", str(path))
        assert proc.returncode == 0
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert rows[0]["method"] == "SV"
        got = [float(rows[0][f"client_{i}"]) for i in range(3)]
        np.testing.assert_allclose(got, [0.0, 1.0, 2.0], atol=1e-12)

    def test_score_stamps_round(self, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        arc = tmp_path / "arc"
        save_transcripts(arc, config, transcripts)
        out = tmp_path / "scores.csv"
        proc = self._run("score", str(arc), "--method", "ee",
                         "--round", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        (vec,) = scores_from_csv(out)
        assert vec.method == "EE" and vec.round == 1

    def test_score_default_round_is_last(self, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        arc = tmp_path / "arc"
        save_transcripts(arc, config, transcripts)
        proc = self._run("score", str(arc), "--method", "loo")
        assert proc.returncode == 0, proc.stderr
        row = list(csv.DictReader(proc.stdout.splitlines()))[0]
        assert row["round"] == str(config.rounds)

    @pytest.mark.parametrize("flag", ["loo", "ioi", "fp", "ee", "cos", "mrsv"])
    def test_score_flag_matches_library(self, flag, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        arc = tmp_path / "arc"
        save_transcripts(arc, config, transcripts)
        # the accumulating methods over both rounds, the others at round 1
        rnd = 2 if flag in ("cos", "mrsv") else 1
        out = tmp_path / "scores.csv"
        proc = self._run("score", str(arc), "--method", flag,
                         "--round", str(rnd), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        (got,) = scores_from_csv(out)

        loaded_config, loaded = load_transcripts(arc)
        evaluator = model_eval_oracle(
            fedsim.test_set_for(loaded_config), loaded_config.utility_kind)
        rules = {"loo": loo, "ioi": ioi, "fp": fp, "ee": ee}
        if flag in rules:
            want = rules[flag](
                utilities_from_transcript(loaded[rnd - 1], evaluator))
        elif flag == "cos":
            want = cos_accumulated(loaded[:rnd])
        else:
            want = mr_shapley(loaded[:rnd], evaluator)
        assert got.method == want.method
        assert got.round == rnd
        assert (got.scores.view(np.uint64).tolist()
                == want.scores.view(np.uint64).tolist())

    def test_influence_csv(self, tiny_run, tmp_path):
        config, transcripts, _ = tiny_run
        arc = tmp_path / "arc"
        save_transcripts(arc, config, transcripts)
        proc = self._run("influence", str(arc))
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()
        assert rows[0].startswith("source,")

    def test_run_and_report(self, tmp_path):
        scenario_path = tmp_path / "tiny.scenario"
        scenario_path.write_text(TINY_SCENARIO)
        out = tmp_path / "bundle"
        proc = self._run("run", str(scenario_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = self._run("report", str(out))
        assert report.returncode == 0
        assert "scenario: tiny" in report.stdout
        assert "checksums: all match" in report.stdout

    def test_report_into_a_closed_pipe_is_quiet(self, coverage_bundle):
        # `fedscore report B | head -1`, with the reader gone before the
        # first write, so every write meets the closed pipe.
        bundle, _ = coverage_bundle
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run("report", str(bundle), stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1

    def test_report_flags_tampering(self, tmp_path):
        scenario_path = tmp_path / "tiny.scenario"
        scenario_path.write_text(TINY_SCENARIO)
        out = tmp_path / "bundle"
        assert self._run("run", str(scenario_path), "--out", str(out)).returncode == 0
        victim = out / "tables" / "rank_fidelity.csv"
        victim.write_bytes(victim.read_bytes() + b"x")
        report = self._run("report", str(out))
        assert report.returncode == 1
        assert "checksum mismatch" in report.stderr

    def test_report_flags_a_stale_run_json(self, tmp_path):
        scenario_path = tmp_path / "tiny.scenario"
        scenario_path.write_text(TINY_SCENARIO)
        out = tmp_path / "bundle"
        assert self._run("run", str(scenario_path), "--out", str(out)).returncode == 0
        run_json = out / "run.json"
        meta = json.loads(run_json.read_text())
        meta["tables"] += ["ablation.csv", "ablation.json"]  # left by an earlier run
        run_json.write_text(json.dumps(meta))
        report = self._run("report", str(out))
        assert report.returncode == 1
        assert "checksum mismatch: run.json" in report.stderr

    def test_seed_env_and_flag_precedence(self, tmp_path):
        scenario_path = tmp_path / "tiny.scenario"
        scenario_path.write_text(TINY_SCENARIO)
        env_out = tmp_path / "env"
        flag_out = tmp_path / "flag"
        base_out = tmp_path / "base"
        assert self._run("run", str(scenario_path), "--out", str(base_out),
                         "--seed", "6").returncode == 0
        assert self._run("run", str(scenario_path), "--out", str(env_out),
                         env={"FEDSCORE_SEED": "6"}).returncode == 0
        assert self._run("run", str(scenario_path), "--out", str(flag_out),
                         "--seed", "6", env={"FEDSCORE_SEED": "7"}).returncode == 0
        seeds = [json.loads((d / "seeds.json").read_text())["master_seed"]
                 for d in (base_out, env_out, flag_out)]
        assert seeds == [6, 6, 6]

    def test_bad_env_seed_is_an_error(self, tmp_path):
        scenario_path = tmp_path / "tiny.scenario"
        scenario_path.write_text(TINY_SCENARIO)
        proc = self._run("run", str(scenario_path),
                         env={"FEDSCORE_SEED": "not-a-number"})
        assert proc.returncode != 0
        assert "FEDSCORE_SEED" in proc.stderr

    def test_game_client_count_out_of_range(self, tmp_path):
        path = tmp_path / "negative.game"
        path.write_text("-1\n0 0.0\n")
        proc = self._run("game", "shapley", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("fedscore: error:")
        assert "negative.game:1: table games support 1..20" in proc.stderr

    def test_game_row_refusal_names_the_line(self, tmp_path):
        path = tmp_path / "nan.game"
        path.write_text("# one client\n1\n0 0.0\n1 nan\n")
        proc = self._run("game", "shapley", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"fedscore: error: {path}:4: utility of "
                               "coalition (0,) is not finite: nan\n")

    def test_errors_exit_one(self, tmp_path):
        proc = self._run("game", "shapley", str(tmp_path / "missing.game"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("fedscore: error:")
