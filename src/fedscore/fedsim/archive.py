"""On-disk transcript archives.

An archive directory holds:

* ``config.json``     -- the federation configuration, enough to regenerate
                         the synthetic test set when scoring later;
* ``rounds/round_NNNN.bin`` -- one binary blob per round: a little-endian
                         uint32 parameter dimension, then raw little-endian
                         float64 vectors in the order start model, one
                         scaled update per client (client order), aggregate;
* ``manifest.json``    -- shapes plus a SHA-256 per blob and for the config,
                         checked on load.

Client ids in an archive are implicitly 0..N-1, matching full-federation
transcripts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from .data import SyntheticSpec
from .federation import (
    ClientUpdate,
    FederationConfig,
    FederationError,
    RoundTranscript,
)
from .mlp import ModelParams

_FORMAT_VERSION = 1
_MANIFEST_KEYS = ("n_clients", "dim", "rounds", "config_sha256", "files")


class ArchiveError(ValueError):
    """Malformed or inconsistent transcript archive."""


def config_to_dict(config: FederationConfig) -> dict:
    out = dataclasses.asdict(config)
    if out["noise_rates"] is not None:
        out["noise_rates"] = list(out["noise_rates"])
    return out


def config_from_dict(raw: dict) -> FederationConfig:
    try:
        data = dict(raw)
        dataset = SyntheticSpec(**data.pop("dataset"))
        if data.get("noise_rates") is not None:
            data["noise_rates"] = tuple(float(r) for r in data["noise_rates"])
        return FederationConfig(dataset=dataset, **data)
    except (KeyError, TypeError) as exc:
        raise ArchiveError(f"bad federation config: {exc}") from exc


def _round_blob(transcript: RoundTranscript) -> bytes:
    parts = [np.asarray([transcript.dim], dtype="<u4").tobytes()]
    vectors = [transcript.m0.values]
    vectors += [u.delta.values for u in transcript.updates]
    vectors.append(transcript.m.values)
    for vec in vectors:
        parts.append(np.asarray(vec, dtype="<f8").tobytes())
    return b"".join(parts)


def _parse_round_blob(blob: bytes, round_index: int, n_clients: int) -> RoundTranscript:
    if len(blob) < 4:
        raise ArchiveError(f"round {round_index}: blob too short for a header")
    dim = int(np.frombuffer(blob[:4], dtype="<u4")[0])
    expected = 4 + 8 * dim * (n_clients + 2)
    if len(blob) != expected:
        raise ArchiveError(
            f"round {round_index}: blob holds {len(blob)} bytes, expected "
            f"{expected} for dim={dim} and {n_clients} clients"
        )
    flat = np.frombuffer(blob[4:], dtype="<f8").reshape(n_clients + 2, dim)
    m0 = ModelParams(flat[0])
    updates = tuple(
        ClientUpdate(client=i, delta=ModelParams(flat[1 + i])) for i in range(n_clients)
    )
    m = ModelParams(flat[n_clients + 1])
    try:
        return RoundTranscript(round=round_index, m0=m0, updates=updates, m=m)
    except FederationError as exc:
        raise ArchiveError(f"round {round_index}: {exc}") from exc


def _round_name(index: int) -> str:
    return f"round_{index:04d}.bin"


def _check_manifest_fields(manifest: dict) -> None:
    for key in ("n_clients", "dim", "rounds"):
        value = manifest[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ArchiveError(
                f"manifest.json: {key!r} must be a positive integer, got {value!r}"
            )
    files = manifest["files"]
    if not isinstance(files, dict) or not all(
        isinstance(name, str) and isinstance(digest, str)
        for name, digest in files.items()
    ):
        raise ArchiveError(
            "manifest.json: 'files' must be an object mapping file names to checksums"
        )


def _read_member(dirpath, *parts: str) -> bytes:
    name = "/".join(parts)
    try:
        with open(os.path.join(dirpath, *parts), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ArchiveError(f"{name}: cannot read ({exc.strerror})") from None


def save_transcripts(dirpath, config: FederationConfig, transcripts) -> None:
    """Write an archive; the directory is created if needed."""
    transcripts = list(transcripts)
    if not transcripts:
        raise ArchiveError("nothing to save: no transcripts")
    if [t.round for t in transcripts] != list(range(1, len(transcripts) + 1)):
        raise ArchiveError("transcripts must cover rounds 1..R in order")
    for t in transcripts:
        members = [u.client for u in t.updates]
        if members != list(range(config.n_clients)):
            raise ArchiveError(
                "archives hold full-federation transcripts with clients 0..N-1"
            )

    os.makedirs(os.path.join(dirpath, "rounds"), exist_ok=True)
    config_bytes = json.dumps(config_to_dict(config), indent=2, sort_keys=True).encode()
    with open(os.path.join(dirpath, "config.json"), "wb") as fh:
        fh.write(config_bytes)

    files = {}
    for t in transcripts:
        blob = _round_blob(t)
        name = _round_name(t.round)
        with open(os.path.join(dirpath, "rounds", name), "wb") as fh:
            fh.write(blob)
        files[name] = hashlib.sha256(blob).hexdigest()

    manifest = {
        "format_version": _FORMAT_VERSION,
        "n_clients": config.n_clients,
        "dim": transcripts[0].dim,
        "rounds": len(transcripts),
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "files": files,
    }
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_transcripts(dirpath) -> tuple[FederationConfig, list[RoundTranscript]]:
    """Read an archive back, verifying checksums and shapes."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ArchiveError(f"{dirpath}: no manifest.json, not a transcript archive")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ArchiveError(f"manifest.json: not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ArchiveError("manifest.json: not a JSON object")
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ArchiveError(
            f"unsupported archive format {manifest.get('format_version')!r}"
        )
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise ArchiveError(f"manifest.json: missing key {key!r}")
    _check_manifest_fields(manifest)

    config_bytes = _read_member(dirpath, "config.json")
    if hashlib.sha256(config_bytes).hexdigest() != manifest["config_sha256"]:
        raise ArchiveError("config.json does not match its manifest checksum")
    config = config_from_dict(json.loads(config_bytes))
    if config.n_clients != manifest["n_clients"]:
        raise ArchiveError("manifest client count disagrees with the config")

    transcripts = []
    for t in range(1, manifest["rounds"] + 1):
        name = _round_name(t)
        if name not in manifest["files"]:
            raise ArchiveError(f"manifest lists no checksum for {name}")
        blob = _read_member(dirpath, "rounds", name)
        if hashlib.sha256(blob).hexdigest() != manifest["files"][name]:
            raise ArchiveError(f"{name} does not match its manifest checksum")
        transcript = _parse_round_blob(blob, t, config.n_clients)
        if transcript.dim != manifest["dim"]:
            raise ArchiveError(
                f"{name}: dim {transcript.dim} disagrees with manifest "
                f"dim {manifest['dim']}"
            )
        transcripts.append(transcript)
    return config, transcripts

