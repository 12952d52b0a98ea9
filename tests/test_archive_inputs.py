"""Damaged transcript archives fail as ``ArchiveError`` naming the culprit.

Each manifest field is checked for type and range before it is used, so
a bad value names ``manifest.json`` and the key instead of surfacing as a
bare ``int()`` error, an empty archive, or a disagreement with the
config; so do an unsupported format, a client count or parameter count
the config does not share, a round file the manifest has no checksum
for and a file name past the manifest's round count.  Each
``config.json`` field must be there with its JSON type, so a bad one is
named instead of loading and failing later.  A file the manifest relies
on but the directory lacks names that file, and so does a round file
whose checksum matches but whose contents do not parse.  A save that
fails part-way leaves no archive that loads.
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fedscore.fedsim import ArchiveError, load_transcripts, save_transcripts
from fedscore.fedsim import archive as archive_module

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


DELETE = object()


def _set_config(arc, path, value):
    """Set (or, for DELETE, drop) the config field at ``path`` and rewrite
    the manifest checksum, so only the field itself is wrong."""
    config = json.loads((arc / "config.json").read_text())
    *parents, key = path
    target = config
    for name in parents:
        target = target[name]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    data = json.dumps(config, indent=2, sort_keys=True).encode()
    (arc / "config.json").write_bytes(data)
    _set_manifest(arc, "config_sha256", hashlib.sha256(data).hexdigest())


@pytest.mark.parametrize("path, value, message", [
    (("dataset", "dim"), 2.5, "dataset.dim must be an integer, got 2.5"),
    (("dataset", "n_classes"), 3.0, "dataset.n_classes must be an integer, got 3.0"),
    (("dataset", "separation"), "0.8", "dataset.separation must be a number, got '0.8'"),
    (("dataset", "dim"), DELETE, "missing field dataset.dim"),
    (("seed",), "x", "seed must be an integer, got 'x'"),
    (("rounds",), True, "rounds must be an integer, got True"),
    (("lr",), None, "lr must be a number, got None"),
    (("iid",), "no", "iid must be a boolean, got 'no'"),
    (("iid",), 0, "iid must be a boolean, got 0"),
    (("noise_rates",), [0.1, "0.2", 0.0], "noise_rates must be null or a list of numbers"),
    (("noise_rates",), 0.1, "noise_rates must be null or a list of numbers, got 0.1"),
    (("flip_target",), 1.0, "flip_target must be null or an integer, got 1.0"),
    (("utility_kind",), 1, "utility_kind must be a string, got 1"),
    (("batch_size",), DELETE, "missing field batch_size"),
    (("batch_sizes",), 8, "unknown field batch_sizes"),
    (("dataset",), [4, 20], "dataset must be an object, got [4, 20]"),
    (("n_clients",), 0, "need at least one client, got 0"),
    (("seed",), -1, "seed must be nonnegative, got -1"),
])
def test_bad_config_field_is_named(archive, path, value, message):
    _set_config(archive, path, value)
    with pytest.raises(ArchiveError, match=re.escape(f"config.json: {message}")):
        load_transcripts(archive)


def _drop_round_checksum(arc):
    files = json.loads((arc / "manifest.json").read_text())["files"]
    del files["round_0002.bin"]
    _set_manifest(arc, "files", files)


def _touch_config(arc):
    (arc / "config.json").write_bytes((arc / "config.json").read_bytes() + b"\n")


@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda arc: _set_manifest(arc, "format_version", 2),
                 "manifest.json: unsupported 'format_version' 2, expected 1",
                 id="format-version"),
    pytest.param(_touch_config, "config.json does not match its manifest checksum",
                 id="config-checksum"),
    pytest.param(lambda arc: _set_manifest(arc, "n_clients", 4),
                 "manifest.json: 'n_clients' 4 disagrees with config.json n_clients 3",
                 id="client-count"),
    pytest.param(_drop_round_checksum,
                 "manifest.json: 'files' has no checksum for round_0002.bin",
                 id="round-checksum-missing"),
    pytest.param(lambda arc: _set_manifest(arc, "rounds", 1),
                 "manifest.json: 'files' names round_0002.bin, which 'rounds' 1 "
                 "does not count",
                 id="round-past-rounds"),
    pytest.param(lambda arc: _set_config(arc, ("dataset", "dim"), 5),
                 "manifest.json: 'dim' 323 disagrees with the 291 parameters "
                 "of config.json's model",
                 id="config-model-dim"),
    pytest.param(lambda arc: _set_manifest(arc, "dim", 324),
                 "manifest.json: 'dim' 324 disagrees with the 323 parameters "
                 "of config.json's model",
                 id="manifest-dim"),
])
def test_manifest_refusal_is_named(archive, damage, message):
    damage(archive)
    with pytest.raises(ArchiveError, match=re.escape(message)):
        load_transcripts(archive)


def test_cli_prints_the_manifest_refusal(archive):
    _set_manifest(archive, "format_version", 2)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fedscore", "score", str(archive), "--method", "loo"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "fedscore: error: manifest.json: unsupported 'format_version' 2, expected 1\n"
    )


def test_cli_names_a_round_file_past_rounds(archive):
    # The config and the round files still say two rounds; only the
    # manifest's count was lowered, which used to load one round quietly.
    _set_manifest(archive, "rounds", 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fedscore", "score", str(archive), "--method", "ee"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "fedscore: error: manifest.json: 'files' names round_0002.bin, "
        "which 'rounds' 1 does not count\n"
    )


def test_save_refuses_a_client_count_the_config_does_not_share(tiny_run, tmp_path):
    config, transcripts, _ = tiny_run
    wider = dataclasses.replace(config, n_clients=config.n_clients + 1)
    with pytest.raises(ArchiveError, match=re.escape(
            "round 1 has 3 clients, the config has 4")):
        save_transcripts(tmp_path / "arc", wider, transcripts)
    assert not (tmp_path / "arc").exists()


def test_cli_names_a_dim_the_config_does_not_share(archive):
    # The config's rounds and checksums all match; only its model is
    # smaller than the stored rounds, which `--method cos` used to score.
    _set_config(archive, ("dataset", "dim"), 5)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fedscore", "score", str(archive), "--method", "cos"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "fedscore: error: manifest.json: 'dim' 323 disagrees with the 291 "
        "parameters of config.json's model\n"
    )


def test_save_refuses_a_dim_the_config_does_not_share(tiny_run, tmp_path):
    config, transcripts, _ = tiny_run
    narrower = dataclasses.replace(
        config, dataset=dataclasses.replace(config.dataset, dim=5))
    with pytest.raises(ArchiveError, match=re.escape(
            "round 1 has dim 323, the config's model has 291 parameters")):
        save_transcripts(tmp_path / "arc", narrower, transcripts)
    assert not (tmp_path / "arc").exists()


def test_missing_config_named(archive):
    (archive / "config.json").unlink()
    with pytest.raises(ArchiveError, match="config.json: cannot read"):
        load_transcripts(archive)


def test_missing_round_named(archive):
    (archive / "rounds" / "round_0002.bin").unlink()
    with pytest.raises(ArchiveError, match="rounds/round_0002.bin: cannot read"):
        load_transcripts(archive)


def _rewrite_round(arc, name, blob):
    """Replace a round file and its manifest checksum, so only the blob
    itself is wrong."""
    (arc / "rounds" / name).write_bytes(blob)
    manifest = json.loads((arc / "manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256(blob).hexdigest()
    (arc / "manifest.json").write_text(json.dumps(manifest))


def _nan_start_model(blob):
    return blob[:4] + np.array([np.nan], dtype="<f8").tobytes() + blob[12:]


def _nan_aggregate(blob):
    # the aggregate is the last vector of the file
    return blob[:-8] + np.array([np.nan], dtype="<f8").tobytes()


def _nan_update_1(blob):
    # the header, m0 and update 0 come first
    at = 4 + 8 * 2 * int(np.frombuffer(blob[:4], dtype="<u4")[0])
    return blob[:at] + np.array([np.nan], dtype="<f8").tobytes() + blob[at + 8:]


@pytest.mark.parametrize("damage, message", [
    pytest.param(_nan_start_model,
                 "round_0001.bin: start model contains non-finite values", id="nan"),
    pytest.param(_nan_aggregate,
                 "round_0001.bin: aggregate contains non-finite values",
                 id="nan-aggregate"),
    pytest.param(_nan_update_1,
                 "round_0001.bin: update of client 1 contains non-finite values",
                 id="nan-update"),
    pytest.param(lambda blob: bytes(4),
                 "round_0001.bin: dim 0 disagrees with manifest dim", id="dim-0"),
    pytest.param(lambda blob: blob[:2],
                 "round_0001.bin: blob too short for a header", id="no-header"),
    pytest.param(lambda blob: blob[:-8],
                 "round_0001.bin: blob holds", id="truncated"),
])
def test_damaged_round_is_named(archive, damage, message):
    blob = (archive / "rounds" / "round_0001.bin").read_bytes()
    _rewrite_round(archive, "round_0001.bin", damage(blob))
    with pytest.raises(ArchiveError, match=re.escape(message)):
        load_transcripts(archive)


def test_cli_names_the_damaged_round(archive):
    blob = (archive / "rounds" / "round_0001.bin").read_bytes()
    _rewrite_round(archive, "round_0001.bin", _nan_start_model(blob))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fedscore", "score", str(archive), "--method", "loo"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "fedscore: error: round_0001.bin: start model contains non-finite values\n"
    )


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


def test_config_that_is_not_json_is_named(archive):
    data = b'{"n_clients": 3,'
    (archive / "config.json").write_bytes(data)
    _set_manifest(archive, "config_sha256", hashlib.sha256(data).hexdigest())
    with pytest.raises(ArchiveError, match="config.json: not valid JSON"):
        load_transcripts(archive)


def test_cli_names_the_config_field(archive):
    # a float dimension used to load and then raise a bare TypeError, with
    # a traceback, inside the data generator
    _set_config(archive, ("dataset", "dim"), 2.5)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fedscore", "score", str(archive), "--method", "loo"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "fedscore: error: config.json: dataset.dim must be an integer, got 2.5\n"
    )


def test_failed_save_leaves_no_archive_and_no_staging(archive, tiny_run, monkeypatch):
    config, transcripts, _ = tiny_run
    (archive / "notes.txt").write_text("kept")
    real = archive_module._round_blob

    def failing(transcript):
        if transcript.round == 2:
            raise OSError("disk full")
        return real(transcript)

    monkeypatch.setattr(archive_module, "_round_blob", failing)
    with pytest.raises(OSError, match="disk full"):
        save_transcripts(archive, config, transcripts)
    with pytest.raises(ArchiveError, match="no manifest.json"):
        load_transcripts(archive)
    assert sorted(os.listdir(archive.parent)) == ["arc"]
    assert (archive / "notes.txt").read_text() == "kept"


def test_shorter_save_leaves_no_stale_round(archive, tiny_run):
    config, transcripts, _ = tiny_run
    save_transcripts(archive, config, transcripts[:1])
    assert os.listdir(archive / "rounds") == ["round_0001.bin"]
    assert len(load_transcripts(archive)[1]) == 1
