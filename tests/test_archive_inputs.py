"""Damaged transcript archives fail as ``ArchiveError`` naming the culprit.

Each manifest field is checked for type and range before it is used, so
a bad value names ``manifest.json`` and the key instead of surfacing as a
bare ``int()`` error, an empty archive, or a disagreement with the
config.  A file the manifest relies on but the directory lacks names
that file.
"""

import json
import os
import subprocess
import sys

import pytest

from fedscore.fedsim import ArchiveError, load_transcripts, save_transcripts

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def archive(tiny_run, tmp_path):
    config, transcripts, _ = tiny_run
    arc = tmp_path / "arc"
    save_transcripts(arc, config, transcripts)
    return arc


def _set_manifest(arc, key, value):
    manifest = json.loads((arc / "manifest.json").read_text())
    manifest[key] = value
    (arc / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["n_clients", "dim", "rounds"])
@pytest.mark.parametrize("value", ["x", "3", 0, -1, True, 2.0])
def test_count_field_must_be_a_positive_int(archive, key, value):
    _set_manifest(archive, key, value)
    with pytest.raises(ArchiveError, match=f"manifest.json: '{key}' must be a positive integer"):
        load_transcripts(archive)


@pytest.mark.parametrize("files", [
    ["round_0001.bin", "round_0002.bin"],
    "round_0001.bin",
    None,
    {"round_0001.bin": 1, "round_0002.bin": "00"},
])
def test_files_must_map_names_to_strings(archive, files):
    _set_manifest(archive, "files", files)
    with pytest.raises(ArchiveError, match="manifest.json: 'files' must be an object"):
        load_transcripts(archive)


def test_missing_config_named(archive):
    (archive / "config.json").unlink()
    with pytest.raises(ArchiveError, match="config.json: cannot read"):
        load_transcripts(archive)


def test_missing_round_named(archive):
    (archive / "rounds" / "round_0002.bin").unlink()
    with pytest.raises(ArchiveError, match="rounds/round_0002.bin: cannot read"):
        load_transcripts(archive)


def test_valid_fields_still_load(archive, tiny_run):
    config, transcripts, _ = tiny_run
    loaded_config, loaded = load_transcripts(archive)
    assert loaded_config == config
    assert len(loaded) == len(transcripts)


def test_cli_names_the_key(archive):
    # `rounds: 0` used to load as an empty archive and fail later as
    # "round 0 outside 1..0"
    _set_manifest(archive, "rounds", 0)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fedscore", "score", str(archive), "--method", "loo"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "manifest.json: 'rounds' must be a positive integer, got 0" in proc.stderr
