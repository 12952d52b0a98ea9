"""On-disk transcript archives.

An archive directory holds:

* ``config.json``     -- the federation configuration, enough to regenerate
                         the synthetic test set when scoring later;
* ``rounds/round_NNNN.bin`` -- one binary blob per round: a little-endian
                         uint32 parameter dimension, then the rows of a
                         little-endian float64 (N + 2, dim) array: the
                         start model, the N rows of the transcript's
                         updates, the aggregate;
* ``manifest.json``    -- shapes plus a SHA-256 per blob and for the config,
                         checked on load.

Row k of a round's updates is client k's, so client ids are implicit.  The
manifest's ``dim`` must be the parameter count of the config's model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from .data import DataError, SyntheticSpec
from .federation import FederationConfig, FederationError, RoundTranscript
from .mlp import MlpArch, ModelError, ModelParams

_FORMAT_VERSION = 1
_MANIFEST_KEYS = ("n_clients", "dim", "rounds", "config_sha256", "files")
# An archive's entries, its manifest first (see write_staged).
_ENTRIES = ("manifest.json", "config.json", "rounds")


class ArchiveError(ValueError):
    """Malformed or inconsistent transcript archive."""


def config_to_dict(config: FederationConfig) -> dict:
    out = dataclasses.asdict(config)
    if out["noise_rates"] is not None:
        out["noise_rates"] = list(out["noise_rates"])
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# The JSON type of a config field, by the field's annotation.
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "int | None": ("null or an integer", lambda v: v is None or _is_int(v)),
    "tuple[float, ...] | None": (
        "null or a list of numbers",
        lambda v: v is None or isinstance(v, list) and all(map(_is_number, v)),
    ),
}


def _typed_fields(cls, raw, prefix: str = "") -> dict:
    """The keyword arguments of dataclass ``cls`` from JSON object ``raw``;
    every field must be present with its JSON type, and no other key."""
    if not isinstance(raw, dict):
        raise ArchiveError(
            f"config.json: {prefix[:-1] or 'the config'} must be an object, got {raw!r}"
        )
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(raw.keys() - fields.keys())
    if unknown:
        raise ArchiveError(f"config.json: unknown field {prefix}{unknown[0]}")
    out = {}
    for name, annotation in fields.items():
        if name not in raw:
            raise ArchiveError(f"config.json: missing field {prefix}{name}")
        value = raw[name]
        if annotation == "SyntheticSpec":
            value = SyntheticSpec(**_typed_fields(SyntheticSpec, value, f"{name}."))
        else:
            what, valid = _JSON_TYPES[annotation]
            if not valid(value):
                raise ArchiveError(
                    f"config.json: {prefix}{name} must be {what}, got {value!r}"
                )
        out[name] = value
    return out


def config_from_dict(raw: dict) -> FederationConfig:
    """The config that :func:`config_to_dict` wrote; a field that is
    missing, unknown, of the wrong JSON type or out of range raises
    ArchiveError naming it."""
    try:
        return FederationConfig(**_typed_fields(FederationConfig, raw))
    except (FederationError, DataError) as exc:
        raise ArchiveError(f"config.json: {exc}") from exc


def _round_blob(transcript: RoundTranscript) -> bytes:
    header = np.asarray([transcript.dim], dtype="<u4")
    rows = np.concatenate(
        [transcript.m0.values[None], transcript.updates, transcript.m.values[None]]
    )
    return header.tobytes() + rows.astype("<f8").tobytes()


def _parse_round_blob(
    blob: bytes, name: str, round_index: int, n_clients: int, dim: int
) -> RoundTranscript:
    """Round ``round_index`` from the blob of file ``name``, whose header
    must give the manifest's ``dim``; any fault raises ArchiveError
    naming the file."""
    if len(blob) < 4:
        raise ArchiveError(f"{name}: blob too short for a header")
    header = int(np.frombuffer(blob[:4], dtype="<u4")[0])
    if header != dim:
        raise ArchiveError(f"{name}: dim {header} disagrees with manifest dim {dim}")
    expected = 4 + 8 * dim * (n_clients + 2)
    if len(blob) != expected:
        raise ArchiveError(
            f"{name}: blob holds {len(blob)} bytes, expected "
            f"{expected} for dim={dim} and {n_clients} clients"
        )
    flat = np.frombuffer(blob[4:], dtype="<f8").reshape(n_clients + 2, dim)
    try:
        m0 = ModelParams(flat[0])
        m = ModelParams(flat[n_clients + 1])
        return RoundTranscript(round_index, m0, flat[1 : n_clients + 1], m)
    except (ModelError, FederationError) as exc:
        raise ArchiveError(f"{name}: {exc}") from exc


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
    # Every counted round needs its checksum (see load_transcripts), so
    # 'files' holds more names than 'rounds' only when it names others.
    rounds = manifest["rounds"]
    if len(files) > rounds:
        counted = {_round_name(t) for t in range(1, rounds + 1)}
        raise ArchiveError(
            f"manifest.json: 'files' names {min(set(files) - counted)}, "
            f"which 'rounds' {rounds} does not count"
        )


def _read_member(dirpath, *parts: str) -> bytes:
    name = "/".join(parts)
    try:
        with open(os.path.join(dirpath, *parts), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ArchiveError(f"{name}: cannot read ({exc.strerror})") from None


def write_staged(dirpath, entries, write) -> None:
    """Replace ``entries`` of directory ``dirpath`` with what ``write`` makes.

    ``entries`` lists the names a writer owns, the manifest a reader checks
    first: the old ones are removed in that order, so what is left of them
    never verifies.  ``write(staging)`` fills a new sibling directory, whose
    entries are then moved in, the manifest last, and the staging directory
    is removed even when ``write`` raises.  Other files in ``dirpath`` are
    left alone; ``dirpath`` is created if needed.
    """
    os.makedirs(dirpath, exist_ok=True)
    for name in entries:
        target = os.path.join(dirpath, name)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.lexists(target):
            os.remove(target)
    full = os.path.abspath(dirpath)
    staging = tempfile.mkdtemp(
        prefix=f".{os.path.basename(full)}-", dir=os.path.dirname(full)
    )
    try:
        write(staging)
        for name in sorted(os.listdir(staging), key=lambda n: n == entries[0]):
            os.replace(os.path.join(staging, name), os.path.join(dirpath, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _model_dim(config: FederationConfig) -> int:
    """The parameter count of the model a config trains."""
    return MlpArch(config.dataset.dim, config.dataset.n_classes).n_params


def save_transcripts(dirpath, config: FederationConfig, transcripts) -> None:
    """Write an archive; the directory is created if needed.

    An older archive in ``dirpath`` is removed first, its manifest before
    anything else, and the new one is written next to ``dirpath`` and
    moved in, ``manifest.json`` last (:func:`write_staged`).
    """
    transcripts = list(transcripts)
    if not transcripts:
        raise ArchiveError("nothing to save: no transcripts")
    if [t.round for t in transcripts] != list(range(1, len(transcripts) + 1)):
        raise ArchiveError("transcripts must cover rounds 1..R in order")
    dim = _model_dim(config)
    for t in transcripts:
        if t.n_clients != config.n_clients:
            raise ArchiveError(
                f"round {t.round} has {t.n_clients} clients, the config has "
                f"{config.n_clients}"
            )
        if t.dim != dim:
            raise ArchiveError(
                f"round {t.round} has dim {t.dim}, the config's model has {dim} parameters"
            )

    write_staged(dirpath, _ENTRIES, lambda staging: _write_archive(
        staging, config, transcripts
    ))


def _write_archive(dirpath, config: FederationConfig, transcripts) -> None:
    os.makedirs(os.path.join(dirpath, "rounds"))
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
            f"manifest.json: unsupported 'format_version' "
            f"{manifest.get('format_version')!r}, expected {_FORMAT_VERSION}"
        )
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise ArchiveError(f"manifest.json: missing key {key!r}")
    _check_manifest_fields(manifest)

    config_bytes = _read_member(dirpath, "config.json")
    if hashlib.sha256(config_bytes).hexdigest() != manifest["config_sha256"]:
        raise ArchiveError("config.json does not match its manifest checksum")
    try:
        raw = json.loads(config_bytes)
    except ValueError as exc:
        raise ArchiveError(f"config.json: not valid JSON ({exc})") from None
    config = config_from_dict(raw)
    if config.n_clients != manifest["n_clients"]:
        raise ArchiveError(
            f"manifest.json: 'n_clients' {manifest['n_clients']} disagrees "
            f"with config.json n_clients {config.n_clients}"
        )
    dim = _model_dim(config)
    if manifest["dim"] != dim:
        raise ArchiveError(
            f"manifest.json: 'dim' {manifest['dim']} disagrees with the {dim} "
            f"parameters of config.json's model"
        )

    transcripts = []
    for t in range(1, manifest["rounds"] + 1):
        name = _round_name(t)
        if name not in manifest["files"]:
            raise ArchiveError(f"manifest.json: 'files' has no checksum for {name}")
        blob = _read_member(dirpath, "rounds", name)
        if hashlib.sha256(blob).hexdigest() != manifest["files"][name]:
            raise ArchiveError(f"{name} does not match its manifest checksum")
        transcripts.append(_parse_round_blob(blob, name, t, config.n_clients, dim))
    return config, transcripts

