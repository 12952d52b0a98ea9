"""The bytes of every bundled scenario, pinned.

A bundle's digest is the sha256 of its ``checksums.json``, which holds
the sha256 of every table and of ``seeds.json``, so one value per
scenario pins every byte the scenario writes under its checksums.  The
values were recorded from the shipped scenario files at their master
seeds, and from ``scenarios/coverage.scenario``, which reaches the paths
the shipped ones leave out.  The bundles come from the session fixtures, so this file trains
nothing of its own.

The bytes depend on the low bits of float64 ``np.tanh`` and of the BLAS
GEMM kernel, so the pins hold on one kernel set: numpy's AVX-512 kernels
with OpenBLAS's SkylakeX core.  A mismatch names the kernel set it ran on.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

DIGESTS = {
    "default": "eeab8aa6fa8698c888ce7d536a90b7c72a8063b582c397b620518931e1657911",
    "attack": "018506b374adc7c55263a45b67deb1e41a9ada0b11dedbd6bed23ae0fc3b74eb",
    "noisy": "73493ed784cd83f27ed02ec58f6ac6e0db70448770ceb58ee42115e47967e2d6",
    "coverage": "17f7fc722e6ef7088d565df8d19d86344326ae9bdd62044bc22de5dda1bb1ae3",
}


def kernel_set() -> str:
    """numpy's enabled AVX-512, X86_V3 and X86_V4 features, and the core
    that numpy's bundled OpenBLAS runs on ("unknown" without the symbol)."""
    from numpy._core._multiarray_umath import __cpu_features__

    simd = [name for name, on in sorted(__cpu_features__.items())
            if on and name.startswith(("AVX512", "X86_V3", "X86_V4"))]
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return f"numpy features {' '.join(simd) or 'none'}; OpenBLAS core {core}"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_scenario_bytes_are_pinned(name, request):
    bundle, _ = request.getfixturevalue(f"{name}_bundle")
    checksums = (Path(bundle) / "checksums.json").read_bytes()
    assert hashlib.sha256(checksums).hexdigest() == DIGESTS[name], (
        f"the pins hold on numpy's AVX-512 kernels with OpenBLAS's SkylakeX "
        f"core; this run has {kernel_set()}"
    )
