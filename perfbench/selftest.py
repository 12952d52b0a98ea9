"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at tiny size (one repeat, three or four clients)
   with --trace 0 and --trace 1, and checks that the last line of output
   carries exactly the metrics BENCHMARK.json names, each with its unit,
   and that no operation failed.
2. Alters outputs on purpose and checks that the correctness gate trips
   on each: a bundle table edited after writing, rank-fidelity means that
   differ from the goldens, an FP vector that no longer sums to v(grand),
   an EE numerator that moved, an evaluator call outside the probe set,
   and a digest that differs from the recorded one.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, where it must exit non-zero without printing a result.

Prints one line per check and exits non-zero if any fails.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

sys.path.insert(0, os.path.join(ROOT, "src"))

import fedscore  # noqa: E402
import fedscore.experiments  # noqa: E402

import workloads  # noqa: E402

FAILURES = []


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail
                                                   and not ok else ""))
    if not ok:
        FAILURES.append(label)


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace} prints every {kind} metric"
            done = run_benchmark(
                ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny",
            )
            if done.returncode != 0:
                check(label, False, done.stderr.strip()[-300:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m.get("unit") for name, m in
                   result["metrics"].items()}
            check(label, got == want and all(
                isinstance(m["value"], (int, float))
                for m in result["metrics"].values()
            ), f"missing {sorted(set(want) - set(got))}, "
               f"extra {sorted(set(got) - set(want))}")
            check(f"{workload} --trace {trace} is correct",
                  result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, done.stderr.strip()[-300:])


@contextlib.contextmanager
def swapped(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def tampered_table(run_scenario):
    def run(*args, **kwargs):
        bundle = run_scenario(*args, **kwargs)
        path = os.path.join(bundle, "tables", "rank_fidelity.csv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("x\n")
        return bundle
    return run


def shifted_fp(fp):
    def run(utilities):
        vector = fp(utilities)
        return fedscore.ScoreVector(vector.method, vector.scores + 1e-6)
    return run


def moved_ee_numerator(sweep):
    import dataclasses

    def run(utilities, strategies):
        rows = sweep(utilities, strategies)
        k = next(i for i, r in enumerate(rows) if r.scorer == "EE")
        rows[k] = dataclasses.replace(rows[k], numerator_delta=1e-12)
        return rows
    return run


def extra_evaluation(probe):
    def run(transcript, evaluator):
        evaluator(transcript.m)
        return probe(transcript, evaluator)
    return run


def check_gate_trips(workdir):
    scenario = workloads.setup("default", "tiny", 3, workdir)
    server = workloads.setup("server", "tiny", 3, workdir)
    clean = workloads.run_pass(scenario)
    check("gate passes an unaltered tiny default pass", clean.failed == 0,
          "; ".join(clean.problems))

    cases = (
        ("edited bundle table", scenario, fedscore.experiments,
         "run_scenario", tampered_table, "checksum mismatch"),
        ("FP not summing to v(grand)", server, fedscore, "fp", shifted_fp,
         "fp sums"),
        ("EE numerator moved", server, fedscore, "manipulation_sweep",
         moved_ee_numerator, "EE numerator moved"),
        ("evaluation outside the probe set", server, fedscore,
         "utilities_from_transcript", extra_evaluation, "probe set cost"),
    )
    for label, state, owner, name, alter, expected in cases:
        with swapped(owner, name, alter):
            result = workloads.run_pass(state)
        check(f"gate trips on {label}", result.failed > 0 and any(
            expected in p for p in result.problems
        ), "; ".join(result.problems[:2]) or "no failure recorded")

    # The tiny bundle posing as the default workload at its golden seed.
    golden = dict(vars(scenario), size="full", seed=2)
    result = workloads.run_pass(workloads.State(**golden))
    check("gate trips on rank-fidelity means off the goldens",
          any("golden" in p for p in result.problems),
          "; ".join(result.problems[:2]) or "no failure recorded")

    recorded = workloads.State(**dict(vars(server), size="full", seed=1))
    result = workloads.run_pass(server)
    workloads.check_recorded(recorded, result)
    check("gate trips on a digest that differs from the recorded one",
          any("differs from the recorded" in p for p in result.problems),
          "no digest recorded for server seed 1?")


def check_bare_directory(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run_benchmark(bare, "--workload", "server", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    check("exits non-zero without a result where src/ is missing",
          done.returncode != 0 and '"metrics"' not in done.stdout,
          f"exit {done.returncode}")


def main():
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORKDIR)
    try:
        check_printed_metrics()
        check_gate_trips(workdir)
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
