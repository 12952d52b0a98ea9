"""The benchmark's workloads: set-up, one timed pass, and the correctness gate.

A pass is one execution of a workload's timed body.

* default: ``run_scenario`` on the bundled default scenario, master seed
  from ``--seed``;
* retrain: ``run_scenario`` on ``scenarios/retrain.scenario`` (true-SV
  reference, so every coalition is retrained);
* server: set-up writes seeded transcript archives with
  ``save_transcripts``; the pass opens each archive (``load_transcripts``,
  ``test_set_for``, evaluator) and, closed loop with one caller, serves
  two requests per round in turn:

  - score: the round's 2N+2 probe utilities (``utilities_from_transcript``),
    LOO, IOI, FP, EE, ``cos_score`` and ``influence_matrix``;
  - audit: ``manipulation_sweep`` with the four standard misreports for
    every client.

Every operation (one bundle, one request) is checked once the clock has
stopped; a check that fails counts one failed operation and is never
skipped.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time

import numpy as np

import fedscore
import fedscore.experiments
import fedscore.fedsim
from fedscore.scenarios import bundled_path

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# The standard misreports, as in the bundled manipulation summary.
SWEEP_KINDS = (
    ("honest", 0.0),
    ("additive_bias", 0.25),
    ("scale", 2.0),
    ("deflate_to", 0.0),
)
SUM_TOL = 1e-9
SCORE_RULES = ("loo", "ioi", "fp", "ee")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    scenario: str


@dataclasses.dataclass(frozen=True)
class ServerSpec:
    n_clients: int
    rounds: int
    archives: int
    dataset: dict


_DATA = dict(n_classes=4, dim=24, samples_per_client=25,
             test_samples_per_class=250, separation=0.5)
_TINY_DATA = dict(n_classes=3, dim=6, samples_per_client=12,
                  test_samples_per_class=20, separation=1.0)

SPECS = {
    "full": {
        "default": ScenarioSpec(bundled_path("default")),
        "retrain": ScenarioSpec(
            os.path.join(HERE, "scenarios", "retrain.scenario")),
        "server": ServerSpec(n_clients=16, rounds=25, archives=8,
                             dataset=_DATA),
    },
    "tiny": {
        "default": ScenarioSpec(
            os.path.join(HERE, "scenarios", "default-tiny.scenario")),
        "retrain": ScenarioSpec(
            os.path.join(HERE, "scenarios", "retrain-tiny.scenario")),
        "server": ServerSpec(n_clients=4, rounds=3, archives=2,
                             dataset=_TINY_DATA),
    },
}
WORKLOADS = tuple(SPECS["full"])


@dataclasses.dataclass
class State:
    """What set-up leaves for the passes."""

    workload: str
    size: str
    spec: object
    seed: int
    workdir: str
    archives: list = dataclasses.field(default_factory=list)
    save_s: float = 0.0
    archive_bytes: int = 0


@dataclasses.dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    score_ms: list = dataclasses.field(default_factory=list)
    audit_ms: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    def fail(self, problem, ops=1):
        self.failed += ops
        self.problems.append(problem)


def _strategies(n_clients):
    return [
        fedscore.MisreportStrategy(kind=kind, target=i, value=value)
        for i in range(n_clients)
        for kind, value in SWEEP_KINDS
    ]


def _server_config(spec, seed):
    return fedscore.FederationConfig(
        n_clients=spec.n_clients, rounds=spec.rounds, dirichlet_mu=0.5,
        local_epochs=2, lr=0.08, batch_size=16, seed=int(seed),
        utility_kind="neg_loss",
        dataset=fedscore.SyntheticSpec(**spec.dataset),
    )


def setup(workload, size, seed, workdir):
    """Everything before the timed body, for one workload."""
    spec = SPECS[size][workload]
    state = State(workload, size, spec, int(seed), workdir)
    if isinstance(spec, ScenarioSpec):
        # Parsed here so that a bad scenario fails before any timing.
        fedscore.experiments.parse_scenario(spec.scenario)
        return state
    seeds = fedscore.experiments.derive_seeds(state.seed, spec.archives)
    for k, archive_seed in enumerate(seeds):
        config = _server_config(spec, archive_seed)
        transcripts, _ = fedscore.run_federation(config)
        path = os.path.join(workdir, f"archive{k}")
        t0 = time.perf_counter()
        fedscore.fedsim.save_transcripts(path, config, transcripts)
        state.save_s += time.perf_counter() - t0
        state.archives.append(path)
        for dirpath, _, files in os.walk(path):
            state.archive_bytes += sum(
                os.path.getsize(os.path.join(dirpath, f)) for f in files
            )
    return state


def run_pass(state, tracer=None):
    """One timed pass; the checks run after the clock stops."""
    result = PassResult()
    if isinstance(state.spec, ScenarioSpec):
        _scenario_pass(state, result)
    else:
        _server_pass(state, result, tracer)
    return result


def _scenario_pass(state, result):
    out = tempfile.mkdtemp(prefix="bundle", dir=state.workdir)
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            bundle = fedscore.experiments.run_scenario(
                state.spec.scenario, out_dir=out, master_seed=state.seed
            )
        except Exception as exc:  # one failed bundle, reported below
            bundle, error = None, exc
        result.wall_s = time.perf_counter() - t0
        result.cpu_s = time.process_time() - c0
        result.attempted += 1
        if bundle is None:
            result.fail(f"run_scenario raised {error!r}")
        else:
            _check_bundle(state, bundle, result)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _server_pass(state, result, tracer):
    served = []
    c0, t0 = time.process_time(), time.perf_counter()
    for path in state.archives:
        name = os.path.basename(path)
        try:
            config, transcripts = fedscore.fedsim.load_transcripts(path)
            evaluator = fedscore.model_eval_oracle(
                fedscore.fedsim.test_set_for(config), config.utility_kind
            )
        except Exception as exc:  # every request of the archive fails
            ops = 2 * state.spec.rounds
            result.attempted += ops
            result.fail(f"{name}: opening raised {exc!r}", ops)
            continue
        strategies = _strategies(config.n_clients)
        _serve([(f"{name}:round{t.round}", t, evaluator, strategies)
                for t in transcripts], result, tracer, served)
    result.wall_s = time.perf_counter() - t0
    result.cpu_s = time.process_time() - c0
    result.digests["requests"] = _check_requests(served, result)


def _serve(rounds, result, tracer, served):
    """Serve a score then an audit request for each round, in order,
    keeping what each returned in ``served``."""
    for request, transcript, evaluator, strategies in rounds:
        if tracer is not None:
            tracer.request = request
        before = evaluator.call_count
        t0 = time.perf_counter()
        try:
            utilities = fedscore.utilities_from_transcript(transcript, evaluator)
            scores = {r: getattr(fedscore, r)(utilities).scores
                      for r in SCORE_RULES}
            scores["cos"] = fedscore.cos_score(transcript).scores
            influence = fedscore.influence_matrix(utilities)
        except Exception as exc:  # the audit needs the utilities too
            result.attempted += 2
            result.fail(f"{request}: score raised {exc!r}", 2)
            continue
        t1 = time.perf_counter()
        used = evaluator.call_count - before
        try:
            rows = fedscore.manipulation_sweep(utilities, strategies)
        except Exception as exc:
            rows, error = None, exc
        t2 = time.perf_counter()
        result.attempted += 2
        result.score_ms.append(1e3 * (t1 - t0))
        if rows is None:
            result.fail(f"{request}: audit raised {error!r}")
        else:
            result.audit_ms.append(1e3 * (t2 - t1))
        served.append((request, transcript.n_clients, used, utilities,
                       scores, influence, rows))
    if tracer is not None:
        tracer.request = None


def _check_requests(served, result):
    """Check every served request; returns the digest of their outputs."""
    digest = hashlib.sha256()
    for request, n, used, utilities, scores, influence, rows in served:
        problems = []
        if used != 2 * n + 2:
            problems.append(f"probe set cost {used} evaluations, "
                            f"expected {2 * n + 2}")
        for rule in ("fp", "ee"):
            gap = abs(float(np.sum(scores[rule])) - utilities.v_grand)
            if not gap <= SUM_TOL:
                problems.append(f"{rule} sums {gap:.3g} off v(grand)")
        if problems:
            result.fail(f"{request}: score: {'; '.join(problems)}")
        digest.update(np.concatenate(
            [scores[r] for r in sorted(scores)]
            + [influence.normalized.ravel()]
        ).tobytes())
        if rows is None:
            continue
        moved = [r.strategy for r in rows
                 if r.scorer == "EE" and r.numerator_delta != 0.0]
        if moved:
            result.fail(f"{request}: audit: EE numerator moved under "
                        f"{moved[0]}")
        digest.update(np.array(
            [(r.own_delta, r.max_other_delta, r.numerator_delta)
             for r in rows]
        ).tobytes())
    return digest.hexdigest()


def _check_bundle(state, bundle, result):
    problems = [f"checksum mismatch: {rel}"
                for rel in fedscore.experiments.verify_bundle(bundle)]
    with open(os.path.join(bundle, "checksums.json"), "rb") as fh:
        result.digests["bundle"] = hashlib.sha256(fh.read()).hexdigest()
    tables = os.path.join(bundle, "tables")
    manipulation = _read_table(tables, "manipulation")
    for scorer, kind, _, numerator in manipulation:
        if scorer == "EE" and float(numerator) != 0.0:
            problems.append(f"EE numerator moved under {kind}")
    golden = _recorded_for(state).get("golden_fidelity_means")
    if golden and state.seed == golden["seed"]:
        means = {f"{m}/{metric}": float(mean) for m, metric, mean, _
                 in _read_table(tables, "rank_fidelity")}
        for key, value in golden["means"].items():
            if means.get(key) != value:
                problems.append(f"rank_fidelity {key} = {means.get(key)!r}, "
                                f"golden {value!r}")
    if problems:
        result.fail(f"bundle: {'; '.join(problems)}")


def _read_table(tables, name):
    path = os.path.join(tables, f"{name}.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def _recorded():
    """Full-size outputs: digests per workload and seed, golden means."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _recorded_for(state):
    if state.size != "full":
        return {}
    return _recorded().get(state.workload, {})


def check_recorded(state, result):
    """Compare a pass's digests with those recorded for its seed."""
    expected = _recorded_for(state).get(str(state.seed), {})
    for key, want in expected.items():
        got = result.digests.get(key)
        if got == want:
            continue
        ops = 1 if key == "bundle" else len(result.score_ms) + len(
            result.audit_ms)
        result.fail(f"{key} digest {got} differs from the recorded {want}",
                    ops)


def record(state, result):
    """Store a pass's digests as the expected output for its seed."""
    data = _recorded()
    data.setdefault(state.workload, {})[str(state.seed)] = result.digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
