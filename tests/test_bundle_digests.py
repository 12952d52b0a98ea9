"""The bytes of every bundled scenario, pinned.

A bundle's digest is the sha256 of its ``checksums.json``, which holds
the sha256 of every table and of ``seeds.json``, so one value per
scenario pins every byte the scenario writes under its checksums.  The
values were recorded from the shipped scenario files at their master
seeds, and from ``scenarios/coverage.scenario``, which reaches the paths
the shipped ones leave out.  The bundles come from the session fixtures, so this file trains
nothing of its own.
"""

import hashlib
from pathlib import Path

import pytest

DIGESTS = {
    "default": "eeab8aa6fa8698c888ce7d536a90b7c72a8063b582c397b620518931e1657911",
    "attack": "018506b374adc7c55263a45b67deb1e41a9ada0b11dedbd6bed23ae0fc3b74eb",
    "noisy": "73493ed784cd83f27ed02ec58f6ac6e0db70448770ceb58ee42115e47967e2d6",
    "coverage": "17f7fc722e6ef7088d565df8d19d86344326ae9bdd62044bc22de5dda1bb1ae3",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_scenario_bytes_are_pinned(name, request):
    bundle, _ = request.getfixturevalue(f"{name}_bundle")
    checksums = (Path(bundle) / "checksums.json").read_bytes()
    assert hashlib.sha256(checksums).hexdigest() == DIGESTS[name]
