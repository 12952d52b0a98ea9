"""fedscore benchmark.

    python3 perfbench/run.py --workload {default,retrain,server} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; fedscore is imported from its
``src`` directory.  After set-up, passes of the workload (see
``workloads.py``) run until ``--seconds`` have elapsed, at least one.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the
median pass wall time, the median of three set-ups (this process and two
fresh interpreters run one after the other), and peak resident memory.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of BENCHMARK.json, averaged over the traced passes.
``trace.overhead_s`` is the median traced pass wall time minus the median
untraced one; request latency percentiles come from the untraced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment.  Check failures go to standard error.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("default", "retrain", "server"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--record", action="store_true",
                   help="store this seed's output digests as expected")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    sys.path.insert(0, SRC)
    import workloads
    import fedscore
    where = os.path.dirname(os.path.abspath(fedscore.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"fedscore imported from {where}, not from {SRC}")
    return workloads


def _environment(load_start):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in THREAD_VARS
                         if k in os.environ},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def _child_setup_s(args):
    """Set-up time of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _quantile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def _report(values, kind):
    """Every metric of one kind in BENCHMARK.json, with its unit."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in _declared(kind)}


def main(argv=None):
    args = _args(argv)
    load_start = list(os.getloadavg())
    try:
        workloads = _import_program()
    except ImportError as exc:
        print(f"cannot import fedscore from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        state = workloads.setup(args.workload, args.size, args.seed, workdir)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, passes = _traced_run(workloads, state, args)
        else:
            setups = [setup_s] + [_child_setup_s(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            metrics, passes = _untraced_run(workloads, state, args, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"env": _environment(load_start)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _passes(workloads, state, args, run_some):
    """Call ``run_some`` (which returns a list of passes) until --seconds
    have elapsed, at least once.  Each pass is checked against the
    recorded digests and against the first pass of the run."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        for result in run_some():
            if args.record and not passes and args.size == "full":
                workloads.record(state, result)
            workloads.check_recorded(state, result)
            if passes and result.digests != passes[0].digests:
                result.fail("output differs from the first pass of this "
                            "run", result.attempted)
            passes.append(result)
            print(f"pass {len(passes)}: {result.wall_s:.3f} s, "
                  f"{result.failed}/{result.attempted} failed",
                  file=sys.stderr)
    return passes


def _untraced_run(workloads, state, args, setups):
    passes = _passes(workloads, state, args,
                     lambda: [workloads.run_pass(state)])
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return _report(values, "end_to_end"), passes


def _traced_run(workloads, state, args):
    import tracing

    tracer = tracing.Tracer()
    layers = []

    def pair():
        untraced = workloads.run_pass(state)
        tracer.install()
        try:
            traced = workloads.run_pass(state, tracer)
        finally:
            tracer.uninstall()
        values, problems = tracing.layer_metrics(tracer.take())
        for problem in problems:
            traced.fail(f"trace: {problem}")
        values["process.cpu_s"] = traced.cpu_s
        values["wall_s"] = traced.wall_s
        values["untraced_wall_s"] = untraced.wall_s
        layers.append(values)
        return [untraced, traced]

    passes = _passes(workloads, state, args, pair)
    values = {name: statistics.fmean(v[name] for v in layers)
              for name in layers[0]}
    values["trace.overhead_s"] = (
        statistics.median(v["wall_s"] for v in layers)
        - statistics.median(v["untraced_wall_s"] for v in layers)
    )
    values["fedsim.archive.save_s"] = state.save_s
    values["fedsim.archive.bytes"] = state.archive_bytes
    # Request latencies come from the untraced passes only.
    untraced = passes[0::2]
    for kind in ("score", "audit"):
        latencies = [v for p in untraced for v in getattr(p, f"{kind}_ms")]
        for q in (50, 95):
            values[f"round_{kind}_ms.p{q}"] = _quantile(latencies, q)
    values["failed_ops_share"] = (
        sum(p.failed for p in passes) / sum(p.attempted for p in passes)
    )
    return _report(values, "per_layer"), passes


if __name__ == "__main__":
    sys.exit(main())
