"""Per-layer tracing of fedscore from outside the package.

``Tracer.install`` wraps the public function at each layer boundary by
rebinding every reference to it in the loaded ``fedscore`` modules (a
``from x import f`` copy included), plus two methods on their classes:
``ModelEvaluator.__call__`` and ``RetrainingGame.value``.
``Tracer.uninstall`` puts every original back, so untraced passes run the
program exactly as shipped.

Each wrapped call records a span: name, start, end, parent span, thread,
and the request it served.  Spans stay in memory until the pass ends;
``layer_metrics`` turns one pass's spans into the per-layer numbers.
Local training runs on a thread pool, so a span opened on a fresh worker
thread takes as parent the innermost span open on the main thread (the
``run_repeats`` call waiting for it).  Overlapping spans are summed as busy
time and never added to wall time.
"""

import functools
import itertools
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

RULES = ("loo", "ioi", "fp", "ee", "cos_score", "cos_accumulated")
METRIC_FUNCS = (
    "normalize_scores", "l2_distance", "pearson", "spearman", "kendall",
    "rank_correlation", "detection_rate",
)
COMPONENTS = (
    "rank_fidelity", "ablation", "weighted_aggregation", "misbehavior",
    "influence_summary", "manipulation_summary",
)

# (module, function, span name, note); a note turns (args, result) into
# the span's info once the call returns.
_FUNCTIONS = (
    ("fedscore.fedsim.mlp", "sgd_train", "sgd_train", None),
    ("fedscore.fedsim.federation", "test_set_for", "test_set_for", None),
    ("fedscore.fedsim.archive", "load_transcripts", "load_transcripts", None),
    ("fedscore.games", "shapley_exact", "shapley_exact", None),
    ("fedscore.scoring", "utilities_from_transcript", "probe",
     lambda args, utilities: utilities.n_clients),
    ("fedscore.protocol", "manipulation_sweep", "manipulation_sweep", None),
    ("fedscore.protocol", "influence_matrix", "influence_matrix", None),
    ("fedscore.experiments.runs", "run_repeats", "run_repeats", None),
    ("fedscore.experiments.bundle", "write_table", "write_table",
     lambda args, files: sum(
         os.path.getsize(os.path.join(args[0], f)) for f in files)),
    ("fedscore.experiments.bundle", "verify_bundle", "verify_bundle", None),
    *(("fedscore.scoring", f, f, None) for f in RULES),
    *(("fedscore.metrics", f, f, None) for f in METRIC_FUNCS),
    *(("fedscore.experiments.runs", f, f, None) for f in COMPONENTS),
)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "request", "start", "end",
                 "info")

    def __init__(self, span_id, name, parent, thread, request, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.request = request
        self.start = start
        self.end = None
        self.info = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``request`` tags the spans of one
    served request with a shared identifier."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._patches = []

    def install(self):
        import fedscore.experiments  # noqa: F401  (loads every traced module)
        from fedscore.fedsim import ModelEvaluator, RetrainingGame

        for module, name, span_name, note in _FUNCTIONS:
            original = getattr(sys.modules[module], name)
            self._rebind(original, self._wrap(original, span_name, note))
        self._patch(ModelEvaluator, "__call__", self._wrap(
            ModelEvaluator.__call__,
            lambda args: "eval_" + args[0].utility_kind,
            note=_model_key,
        ))
        self._patch(RetrainingGame, "value",
                    self._wrap(RetrainingGame.value, "retrain_value"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self):
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name != "fedscore" and not module_name.startswith(
                "fedscore."
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _wrap(self, fn, name, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span.info = note(args, result)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main_ident:
                self._main_stack = stack
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    self.request, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def _model_key(args, result):
    # Holding the evaluator keeps its id unique for the life of the spans.
    return args[0], hash(args[1].values.tobytes())


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one pass, plus the invariant violations found.

    Returns (metrics, problems).  A layer that the pass never entered
    reports zero calls and zero time.
    """
    by_id = {s.id: s for s in spans}
    child_s = defaultdict(float)
    children = Counter()
    evals = Counter()

    def parent(s):
        return by_id.get(s.parent)

    def has_ancestor(s, names):
        p = parent(s)
        while p is not None:
            if p.name in names:
                return True
            p = parent(p)
        return False

    def named(*names):
        return [s for s in spans if s.name in names]

    def top(names):
        return [s for s in named(*names)
                if parent(s) is None or parent(s).name not in names]

    def busy(group):
        return sum(s.seconds for s in group)

    for s in spans:
        p = parent(s)
        if p is not None:
            child_s[p.id] += s.seconds
            children[p.id] += 1
        if s.name.startswith("eval_"):
            while p is not None:
                evals[p.id] += 1
                p = parent(p)

    m = {}
    problems = []

    sgd = named("sgd_train")
    repeats = named("run_repeats")
    m["fedsim.mlp.sgd_train.calls"] = len(sgd)
    m["fedsim.mlp.sgd_train.busy_s"] = busy(sgd)
    m["experiments.runs.run_repeats.wall_s"] = busy(repeats)
    m["experiments.runs.train_overlap"] = _ratio(
        busy(s for s in sgd if has_ancestor(s, ("run_repeats",))),
        busy(repeats),
    )

    all_evals = named("eval_accuracy", "eval_neg_loss")
    for kind in ("accuracy", "neg_loss"):
        group = named("eval_" + kind)
        prefix = f"fedsim.federation.eval_{kind}"
        m[prefix + ".calls"] = len(group)
        m[prefix + ".busy_s"] = busy(group)
        m[prefix + ".us_per_call"] = 1e6 * _ratio(busy(group), len(group))
    # Distinct models within one operation: a request, or the bundle.
    m["fedsim.federation.eval_unique_ratio"] = _ratio(
        len({(s.request, id(s.info[0]), s.info[1]) for s in all_evals}),
        len(all_evals),
    )

    retrain = named("retrain_value")
    m["fedsim.federation.retrain_value.calls"] = len(retrain)
    m["fedsim.federation.retrain_value.memo_hit_ratio"] = _ratio(
        sum(1 for s in retrain if children[s.id] == 0), len(retrain)
    )

    games = named("shapley_exact")
    probes = named("probe")
    for prefix, group in (("games.shapley_exact", games),
                          ("scoring.probe", probes)):
        m[prefix + ".calls"] = len(group)
        m[prefix + ".busy_s"] = busy(group)
        m[prefix + ".evals"] = sum(evals[s.id] for s in group)
        m[prefix + ".self_s"] = sum(s.seconds - child_s[s.id] for s in group)
    for s in probes:
        if evals[s.id] != 2 * s.info + 2:
            problems.append(
                f"probe set for {s.info} clients cost {evals[s.id]} "
                f"evaluations, expected {2 * s.info + 2}"
            )

    rules = top(RULES)
    m["scoring.rules.calls"] = len(rules)
    m["scoring.rules.busy_s"] = busy(rules)
    metric_calls = top(METRIC_FUNCS)
    m["metrics.calls"] = len(metric_calls)
    m["metrics.busy_s"] = busy(metric_calls)

    sweeps = named("manipulation_sweep")
    sweep_ids = {s.id for s in sweeps}
    m["protocol.manipulation_sweep.calls"] = len(sweeps)
    m["protocol.manipulation_sweep.busy_s"] = busy(sweeps)
    m["protocol.manipulation_sweep.scorer_calls"] = sum(
        1 for s in named(*RULES) if s.parent in sweep_ids
    )
    influence = named("influence_matrix")
    m["protocol.influence_matrix.calls"] = len(influence)
    m["protocol.influence_matrix.busy_s"] = busy(influence)

    for component in COMPONENTS:
        m[f"experiments.runs.{component}.wall_s"] = busy(
            s for s in named(component) if not has_ancestor(s, COMPONENTS)
        )

    m["fedsim.archive.load_s"] = busy(named("load_transcripts"))
    m["fedsim.data.test_set_for.busy_s"] = busy(named("test_set_for"))
    tables = named("write_table")
    m["experiments.bundle.write_table.busy_s"] = busy(tables)
    m["experiments.bundle.bytes"] = sum(s.info for s in tables)
    m["experiments.bundle.verify_s"] = busy(named("verify_bundle"))

    # The paper's cost claim, per round: exact round game over probe set.
    # Retraining games (true-SV) are not round games and stay out of it.
    retraining = {s.parent for s in retrain}
    round_games = [s for s in games if s.id not in retraining]
    if round_games and probes:
        m["scoring.cost_ratio.evals"] = (
            statistics.fmean(evals[s.id] for s in round_games)
            / statistics.fmean(evals[s.id] for s in probes)
        )
        m["scoring.cost_ratio.time"] = (
            statistics.fmean(s.seconds for s in round_games)
            / statistics.fmean(s.seconds for s in probes)
        )
    else:
        m["scoring.cost_ratio.evals"] = 0.0
        m["scoring.cost_ratio.time"] = 0.0
    return m, problems
