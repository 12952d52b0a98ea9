"""Average ranks in numpy, and a runtime that needs no scipy.

``metrics._average_ranks`` replaces ``scipy.stats.rankdata(method=
"average")`` on the Spearman path.  Tie-group means are exact halves, so
the two must agree on every bit; scipy stays the oracle here.  The
subprocess test blocks scipy outright and drives the library and the CLI,
so an import of scipy on the runtime path fails it.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedscore.metrics import _average_ranks

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def assert_matches_scipy(x):
    got = _average_ranks(np.asarray(x, dtype=np.float64))
    want = scipy.stats.rankdata(x, method="average")
    assert got.dtype == want.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


sizes = st.integers(1, 40)
# a handful of values drawn many times: mostly ties
tied = sizes.flatmap(lambda n: arrays(
    np.float64, n, elements=st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])))
finite = sizes.flatmap(lambda n: arrays(
    np.float64, n, elements=st.floats(-1e300, 1e300, allow_nan=False)))


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(tied, finite))
def test_matches_rankdata(x):
    assert_matches_scipy(x)


@settings(max_examples=40, deadline=None)
@given(n=sizes, value=st.sampled_from([-0.0, 0.0, 1.0, -7.25]))
def test_all_equal(n, value):
    x = np.full(n, value)
    assert_matches_scipy(x)
    assert _average_ranks(x).tolist() == [(n + 1) / 2] * n


def test_signed_zeros_tie():
    x = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
    assert_matches_scipy(x)
    assert _average_ranks(x).tolist() == [2.5, 2.5, 5.0, 2.5, 2.5]


def test_runtime_works_with_scipy_blocked(tmp_path):
    table = tmp_path / "additive.game"
    table.write_text("2\n0 0.0\n1 1.0\n2 2.0\n3 3.0\n")
    script = textwrap.dedent(f"""
        import runpy, sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import fedscore.experiments.cli
        from fedscore import rank_correlation
        r = rank_correlation([1.0, 2.0, 2.0, 3.0], [0.0, 0.0, 1.0, 5.0])
        assert not r.degenerate and r.spearman > 0.0, r
        sys.argv = ["fedscore", "game", "shapley", {str(table)!r}]
        runpy.run_module("fedscore", run_name="__main__")
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("method,")
