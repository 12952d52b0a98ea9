"""Scenario files, experiment runs, result bundles, and the CLI.

Everything here runs on a deliberately tiny scenario (3 clients, 2
rounds, 2 repeats) so the full pipeline stays fast; the bundled
paper-shaped scenarios are exercised by the release gate instead.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fedscore import save_table_game, scores_from_csv
from fedscore.experiments import (
    ExperimentError,
    Scenario,
    ScenarioError,
    ablation,
    audited_round_utilities,
    derive_seeds,
    influence_summary,
    manipulation_summary,
    misbehavior,
    parse_scenario_text,
    rank_fidelity,
    run_repeats,
    run_scenario,
    scenario_with,
    verify_bundle,
    weighted_aggregation,
    weights_from_scores,
    write_table,
)
from fedscore.fedsim import save_transcripts

from helpers import additive_game

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
    return parse_scenario_text(TINY_SCENARIO + extra, name="tiny")


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
            parse_scenario_text(text)

    def test_unknown_key_named(self):
        text = TINY_SCENARIO.replace("lr = 0.1", "lr = 0.1\nmomentum = 0.9")
        with pytest.raises(ScenarioError, match="federation.momentum"):
            parse_scenario_text(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="plotting"):
            parse_scenario_text(TINY_SCENARIO + "\n[plotting]\nstyle = dark\n")

    def test_unknown_method_rejected(self):
        text = TINY_SCENARIO.replace("LOO, FP, EE, COS", "LOO, BANZHAF")
        with pytest.raises(ScenarioError, match="BANZHAF"):
            parse_scenario_text(text)

    def test_bad_reference_rounds_rejected(self):
        text = TINY_SCENARIO.replace("reference_rounds = eval",
                                     "reference_rounds = some")
        with pytest.raises(ScenarioError, match="reference_rounds"):
            parse_scenario_text(text)

    def test_eval_round_out_of_range(self):
        text = TINY_SCENARIO.replace("eval_round = 2", "eval_round = 9")
        with pytest.raises(ScenarioError, match="eval_round"):
            parse_scenario_text(text)

    def test_unparseable_value_names_field(self):
        text = TINY_SCENARIO.replace("rounds = 2", "rounds = two")
        with pytest.raises(ScenarioError, match="federation.rounds"):
            parse_scenario_text(text)

    def test_linear_noise_rates(self):
        text = TINY_SCENARIO.replace("utility = neg_loss",
                                     "utility = neg_loss\nnoise_rates = linear")
        sc = parse_scenario_text(text)
        assert sc.federation.noise_rates == (0.0, 0.5, 1.0)

    def test_explicit_noise_rates(self):
        text = TINY_SCENARIO.replace(
            "utility = neg_loss",
            "utility = neg_loss\nnoise_rates = 0.1, 0.2, 0.3")
        sc = parse_scenario_text(text)
        assert sc.federation.noise_rates == (0.1, 0.2, 0.3)

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
        audited_round_utilities(ctx.transcripts[-1], ctx.evaluator)
        assert ctx.evaluator.call_count - before == 2 * 3 + 2


@pytest.fixture(scope="module")
def fidelity_result():
    return rank_fidelity(tiny_scenario())


class TestRankFidelity:
    @pytest.fixture
    def result(self, fidelity_result):
        return fidelity_result

    def test_shape(self, result):
        assert result.methods == ("LOO", "FP", "EE", "COS")
        assert result.reference == "MR-SV"
        assert len(result.per_repeat) == 2 * 4
        assert len(result.summary) == 4 * 4

    def test_fp_and_ee_rank_identically(self, result):
        # EE is an affine map of FP's mass, and the normalisation removes
        # affine differences, so their fidelity rows coincide
        for metric in ("spearman", "kendall"):
            assert result.mean("FP", metric) == result.mean("EE", metric)

    def test_metric_ranges(self, result):
        for _, metric, mean, var in result.summary:
            if metric != "l2":
                assert -1.0 <= mean <= 1.0
            else:
                assert mean >= 0.0
            assert var >= 0.0

    def test_mean_accessor_rejects_unknown(self, result):
        with pytest.raises(KeyError):
            result.mean("SV", "l2")

    def test_contexts_reused(self):
        sc = tiny_scenario()
        contexts = run_repeats(sc)
        a = rank_fidelity(sc, contexts)
        b = rank_fidelity(sc, contexts)
        assert a.per_repeat == b.per_repeat


class TestAblation:
    def test_round_axis_shares_contexts(self):
        sc = tiny_scenario(
            "\n[ablation]\naxis = round\nvalues = 1, 2\n")
        contexts = run_repeats(sc)
        result = ablation(sc, contexts=contexts)
        values = sorted({row[1] for row in result.rows})
        assert values == [1, 2]
        # eval_round = 2 rows must equal a plain fidelity pass
        plain = rank_fidelity(sc, contexts)
        for method, metric, mean, _ in plain.summary:
            match = [r for r in result.rows
                     if r[1] == 2 and r[2] == method and r[3] == metric]
            assert match and match[0][4] == mean

    def test_missing_block_rejected(self):
        with pytest.raises(ExperimentError):
            ablation(tiny_scenario())


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
        result = weighted_aggregation(sc)
        methods = {row[2] for row in result.curves}
        assert "FedAvg" in methods
        assert {"LOO", "FP", "EE", "COS"} <= methods
        for method, wins, repeats, *_ in result.summary:
            assert 0 <= wins <= repeats == sc.repeats
        rounds = {row[1] for row in result.curves}
        assert rounds == {1, 2}


class TestMisbehavior:
    def test_obvious_attacker_is_found(self):
        sc = tiny_scenario("\n[downstream.misbehavior]\nattacker = 0\nrate = 1.0\n")
        result = misbehavior(sc)
        assert result.attacker == 0
        methods = [row[0] for row in result.summary]
        assert methods == ["LOO", "FP", "EE", "COS"]
        for row in result.summary:
            rate = row[1]
            assert 0.0 <= rate <= 1.0
        assert len(result.per_repeat) == sc.repeats * len(methods)


class TestInfluenceAndManipulationSummaries:
    def test_influence_summary(self):
        sc = tiny_scenario("\n[downstream.influence]\n")
        contexts = run_repeats(sc)
        result = influence_summary(sc, contexts=contexts)
        assert result.round == sc.eval_round
        assert len(result.rows) == 3 * 3
        for source, target, value in result.rows:
            if source == target:
                assert value == 0.0

    def test_manipulation_summary_ee_row_is_silent(self):
        sc = tiny_scenario("\n[downstream.manipulation]\n")
        contexts = run_repeats(sc)
        result = manipulation_summary(sc, contexts=contexts)
        ee_rows = [r for r in result.rows if r[0] == "EE"]
        assert ee_rows, "expected EE rows in the sweep"
        for _, kind, _, max_numerator_delta in ee_rows:
            assert max_numerator_delta == 0.0


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
    def _run(self, *args, env=None):
        # Run the CLI as a module so the tests need no installed script.
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, full_env.get("PYTHONPATH")) if p
        )
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "fedscore", *args],
            capture_output=True, text=True, env=full_env,
        )

    def test_game_shapley(self, tmp_path):
        path = tmp_path / "additive.game"
        save_table_game(additive_game([0.0, 1.0, 2.0]), path)
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

    def test_errors_exit_one(self, tmp_path):
        proc = self._run("game", "shapley", str(tmp_path / "missing.game"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("fedscore: error:")
