"""Exact-Shapley reference games tabulated on forked worker processes.

``games.shapley_exact_all`` solves independent games on a fork-context
process pool, or one after another in this process when one CPU is
usable.  Both paths must give the same bits (uint64 views, no
tolerance), leave the same audit and evaluation counts, raise the same
first failure, and leave no worker process behind; a scenario run that
fails on a worker leaves no bundle that verifies.  ``_usable_cpus`` is
patched to pick the path, so the pool path runs even on one CPU.
"""

import dataclasses
import io
import multiprocessing
import os
import threading
from concurrent.futures import process

import numpy as np
import pytest

from fedscore import CoalitionOracle, games
from fedscore.experiments import (
    parse_scenario,
    rank_fidelity,
    run_repeats,
    run_scenario,
    verify_bundle,
)
from fedscore.fedsim import RetrainingGame, TrainingDiverged, federation, round_oracle
from fedscore.fedsim.mlp import HIDDEN_UNITS
from fedscore.games import shapley_exact_all

from conftest import tiny_config
from test_experiments import TINY_SCENARIO

# MR-SV and a true-SV reference, so both kinds of game are solved.
SCENARIO = (TINY_SCENARIO
            .replace("methods = LOO, FP, EE, COS", "methods = LOO, EE, MR-SV")
            .replace("reference = MR-SV", "reference = true-SV"))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.fixture
def pools(monkeypatch):
    """Set the usable CPU count; returns the list of pools opened."""
    opened = []

    class Recorded(process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recorded)

    def use(cpus):
        monkeypatch.setattr(games, "_usable_cpus", lambda: cpus)
        return opened
    return use


def solve_references(scenario, contexts):
    tables = rank_fidelity(scenario, contexts)
    refs = {
        (ctx.repeat, key): bits(value).tolist()
        for ctx in contexts for key, value in ctx.cache.items()
        if key[0] in ("MR-SV", "SV")
    }
    return tables, refs, [ctx.evaluator.call_count for ctx in contexts]


def test_scenario_references_match_in_process_bit_for_bit(pools):
    sc = parse_scenario(io.StringIO(SCENARIO), name="workers")
    opened = pools(1)
    serial = solve_references(sc, run_repeats(sc))
    assert opened == []
    pools(2)
    pooled = solve_references(sc, run_repeats(sc))
    assert opened == [2]  # one pool for every game of the component
    assert multiprocessing.active_children() == []
    assert pooled == serial
    # both repeats' MR-SV rows, one per round, and SV went through the
    # pool and the cache
    assert sorted(pooled[1]) == [
        (r, key) for r in (0, 1)
        for key in (("MR-SV", 1), ("MR-SV", 2), ("SV", 2))
    ]


def oracles_and_evaluators():
    config = tiny_config(n_clients=3, rounds=2)
    transcripts, test = federation.run_federation(config)
    evaluator = federation.model_eval_oracle(test, config.utility_kind)
    game = RetrainingGame(config)
    oracles = [round_oracle(t, evaluator) for t in transcripts] + [game.oracle()]
    return oracles, [evaluator, game._evaluator]


def test_audits_and_evaluator_counts_fold_back(pools):
    results = []
    for cpus in (1, 2):
        opened = pools(cpus)
        oracles, evaluators = oracles_and_evaluators()
        scores = [bits(v.scores).tolist() for v in shapley_exact_all(oracles)]
        results.append((
            scores,
            [o.call_count for o in oracles],
            [o.audit_log for o in oracles],
            [e.call_count for e in evaluators],
        ))
    assert opened == [2]
    assert results[0] == results[1]
    assert results[1][1] == [8, 8, 8]
    assert results[1][2] == [tuple(range(8))] * 3
    assert results[1][3] == [16, 8]
    assert multiprocessing.active_children() == []


def poison_two_repeats(monkeypatch, seeds):
    """Diverge client 1 in round 2 of repeat 0's retraining and in round 1
    of repeat 1's, so the later repeat fails in an earlier round."""
    config = tiny_config()
    d, h, k = config.dataset.dim, HIDDEN_UNITS, config.dataset.n_classes
    targets = {(seeds[0], 2, 1), (seeds[1], 1, 1)}
    real = federation.sgd_train_rows

    def patched(arch, stack, streams, **kw):
        mine = [r for r, (_, seed) in enumerate(streams)
                if (seed[0], *seed[2:]) in targets]
        if mine:
            stack = np.array(stack)
            stack[mine[0]] = 0.0
            stack[mine[0], d * h : d * h + h] = 1.0
            stack[mine[0], (d + 1) * h : (d + 1) * h + h * k] = 1e307
        return real(arch, stack, streams, **kw)

    monkeypatch.setattr(federation, "sgd_train_rows", patched)


def test_first_failure_in_game_order_is_raised(pools, monkeypatch):
    sc = parse_scenario(io.StringIO(SCENARIO), name="workers")
    contexts = run_repeats(sc)  # trained before any training is poisoned
    poison_two_repeats(monkeypatch, [ctx.seed for ctx in contexts])
    raised = []
    for cpus in (1, 2):
        opened = pools(cpus)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                rank_fidelity(sc, contexts)
        raised.append((str(info.value), info.value.round, info.value.row))
        assert multiprocessing.active_children() == []
    assert opened == [2]
    assert raised[0] == raised[1]
    assert raised[1][1] == 2  # repeat 0's failure, though repeat 1's is earlier
    assert "client 1 diverged in round 2" in raised[1][0]


def test_killed_worker_breaks_the_call_and_leaves_no_worker(pools):
    pools(2)
    parent = os.getpid()

    def utility(coalition):
        if os.getpid() != parent:
            os._exit(3)
        return 0.0

    with pytest.raises(process.BrokenProcessPool):
        shapley_exact_all([CoalitionOracle(2, utility) for _ in range(3)])
    assert multiprocessing.active_children() == []


def test_other_threads_keep_the_games_in_process(pools):
    opened = pools(2)
    oracles, evaluators = oracles_and_evaluators()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        vectors = shapley_exact_all(oracles)
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert opened == []
    assert len(vectors) == 3
    assert [e.call_count for e in evaluators] == [16, 8]


def failed_runs(pools, tmp_path, scenario_text, owner, name, replacement):
    """Run a scenario with ``owner.name`` replaced, over an older bundle,
    in-process and then on the forked pool; return each run's
    (exception type, message)."""
    path = tmp_path / "faulty.scenario"
    path.write_text(scenario_text)
    raised = []
    for cpus in (1, 2):
        out = tmp_path / f"out-{cpus}"
        opened = pools(1)
        run_scenario(str(path), out_dir=str(out))  # the older bundle
        assert verify_bundle(str(out)) == []
        (out / "notes.txt").write_text("kept\n")
        pools(cpus)
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(owner, name, replacement)
            with pytest.raises(Exception) as info:
                run_scenario(str(path), out_dir=str(out))
        raised.append((type(info.value), str(info.value)))
        with pytest.raises(FileNotFoundError):
            verify_bundle(str(out))
        assert sorted(os.listdir(out)) == ["notes.txt"]
        assert multiprocessing.active_children() == []
    assert opened == [2]  # only the failing run on two CPUs forked workers
    return raised


def test_nan_utility_in_a_worker_fails_the_run_as_in_process(pools, tmp_path):
    # Every stacked evaluation, so every MR-SV tabulation and nothing of
    # the 2N+2 probe set, reads NaN for its last coalition.
    real = federation.ModelEvaluator.evaluate_stack

    def evaluate_stack(self, stack, *args):
        utilities = real(self, stack, *args)
        if len(stack) > 1:
            utilities[-1] = np.nan
        return utilities

    raised = failed_runs(pools, tmp_path, TINY_SCENARIO,
                         federation.ModelEvaluator, "evaluate_stack", evaluate_stack)
    assert raised[0] == raised[1] == (
        games.GameError, "utility of coalition (0, 1, 2) is not finite: nan")


def test_diverged_true_sv_game_in_a_worker_fails_the_run_as_in_process(pools, tmp_path):
    # The retraining game trains at a learning rate of 1e308, so its local
    # loss overflows in the first round; the base federations train as set.
    real = RetrainingGame.__init__

    def init(self, config):
        real(self, config)
        self.config = dataclasses.replace(config, lr=1e308)

    raised = failed_runs(pools, tmp_path, SCENARIO, RetrainingGame, "__init__", init)
    assert raised[0] == raised[1] == (
        TrainingDiverged,
        "client 0 diverged in round 1 in coalition (0,): local loss became inf",
    )
