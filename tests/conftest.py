"""Shared fixtures.

The expensive pieces (a small federation run, the three bundled scenario
executions and the coverage scenario) are session scoped so the whole
suite pays for each exactly once.  Bundle fixtures return (bundle_dir, wall_seconds) because the
release gate asserts runtime bounds as well as numbers.
"""

import time
from pathlib import Path

import pytest

from fedscore import FederationConfig, SyntheticSpec, run_federation
from fedscore.experiments import run_scenario
from fedscore.scenarios import bundled_path

from helpers import worked_game

TINY_SPEC = SyntheticSpec(
    n_classes=3,
    dim=6,
    samples_per_client=12,
    test_samples_per_class=20,
    separation=1.0,
)


def tiny_config(**overrides) -> FederationConfig:
    base = dict(
        n_clients=3,
        rounds=2,
        iid=True,
        local_epochs=1,
        lr=0.1,
        batch_size=8,
        seed=7,
        dataset=TINY_SPEC,
    )
    base.update(overrides)
    return FederationConfig(**base)


@pytest.fixture
def worked():
    return worked_game()


@pytest.fixture(scope="session")
def tiny_run():
    """(config, transcripts, test_set) for a 3-client, 2-round federation."""
    config = tiny_config()
    transcripts, test = run_federation(config)
    return config, transcripts, test


def _timed_bundle(name, tmp_path_factory, path=None):
    out = str(tmp_path_factory.mktemp(f"{name}-bundle"))
    t0 = time.perf_counter()
    bundle = run_scenario(path or bundled_path(name), out_dir=out)
    return bundle, time.perf_counter() - t0


@pytest.fixture(scope="session")
def default_bundle(tmp_path_factory):
    return _timed_bundle("default", tmp_path_factory)


@pytest.fixture(scope="session")
def attack_bundle(tmp_path_factory):
    return _timed_bundle("attack", tmp_path_factory)


@pytest.fixture(scope="session")
def noisy_bundle(tmp_path_factory):
    return _timed_bundle("noisy", tmp_path_factory)


@pytest.fixture(scope="session")
def coverage_bundle(tmp_path_factory):
    """Three clients, every method and every block: the paths the bundled
    scenarios leave out (``scenarios/coverage.scenario``)."""
    path = Path(__file__).parent / "scenarios" / "coverage.scenario"
    return _timed_bundle("coverage", tmp_path_factory, str(path))
