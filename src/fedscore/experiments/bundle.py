"""Result bundles: everywhere a scenario's numbers land on disk.

A bundle is a directory of CSV tables with JSON mirrors, the scenario
snapshot, the seed list, and a checksum manifest.  Table bytes are fully
deterministic (repr floats, sorted JSON keys, \\n newlines), so rerunning
a scenario must reproduce every checksum; only the bundle directory's
default name carries a timestamp.

A bundle is written into a sibling temporary directory and moved into
place entry by entry, its checksum manifest last, so a run that fails
or is cut short leaves nothing that :func:`verify_bundle` accepts.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time

from .runs import (
    ablation,
    derive_seeds,
    influence_summary,
    manipulation_summary,
    misbehavior,
    rank_fidelity,
    run_repeats,
    weighted_aggregation,
)
from .scenario import (
    AblationBlock,
    InfluenceBlock,
    ManipulationBlock,
    MisbehaviorBlock,
    WeightedBlock,
    parse_scenario,
)


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(tables_dir, name, header, rows):
    """One logical table as <name>.csv plus a <name>.json mirror."""
    os.makedirs(tables_dir, exist_ok=True)
    csv_path = os.path.join(tables_dir, f"{name}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    json_path = os.path.join(tables_dir, f"{name}.json")
    payload = {
        "name": name,
        "header": list(header),
        "rows": [list(row) for row in rows],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    return [f"{name}.csv", f"{name}.json"]


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# A bundle's entries, its manifest first: an old bundle is removed in this
# order, so what is left of it never verifies.
_ENTRIES = ("checksums.json", "run.json", "seeds.json", "scenario.snapshot", "tables")


# Per block type: its run.json name, whether it scores the base
# federations (given the block), and how it runs.  Each call looks its
# component up by module-level name when it runs, so a rebound name (a
# tracer's wrapper) is the one called.
_BLOCKS = {
    AblationBlock: (
        "ablation", lambda block: block.axis == "round",
        lambda scenario, contexts: ablation(scenario, contexts),
    ),
    WeightedBlock: (
        "weighted_aggregation", lambda block: False,
        lambda scenario, _: weighted_aggregation(scenario),
    ),
    MisbehaviorBlock: (
        "misbehavior", lambda block: False,
        lambda scenario, _: misbehavior(scenario),
    ),
    InfluenceBlock: (
        "influence", lambda block: True,
        lambda scenario, contexts: influence_summary(scenario, contexts),
    ),
    ManipulationBlock: (
        "manipulation", lambda block: True,
        lambda scenario, contexts: manipulation_summary(scenario, contexts),
    ),
}


def run_scenario(path, out_dir=None, master_seed=None):
    """Parse, execute, and persist a scenario; returns the bundle dir.

    The base federations are trained once and shared by rank fidelity,
    a round-axis ablation, influence, and manipulation; weighted
    aggregation, misbehavior and an n_clients or mu ablation train their
    own, because they change the split, the labels or the federation.
    The components that read the base federations run first, in scenario
    order; then every reference to the base federations, their scoring
    caches included, is dropped, so they are freed before the others
    train, again in scenario order.  So the execution order can differ
    from the scenario order that ``run.json`` lists; the tables do not
    depend on it.

    An older bundle in ``out_dir`` is removed before anything runs, and
    the new one is written next to ``out_dir`` and moved into it at the
    end; other files in ``out_dir`` are left alone.
    """
    scenario = parse_scenario(path, name=_stem(path))
    if master_seed is not None:
        scenario = dataclasses.replace(scenario, master_seed=int(master_seed))

    if out_dir is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out_dir = os.path.join("results", f"{scenario.name}-{stamp}")
    os.makedirs(out_dir, exist_ok=True)
    for name in _ENTRIES:
        target = os.path.join(out_dir, name)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.lexists(target):
            os.remove(target)
    full = os.path.abspath(out_dir)
    staging = tempfile.mkdtemp(
        prefix=f".{os.path.basename(full)}-", dir=os.path.dirname(full)
    )
    try:
        _write_bundle(path, scenario, staging)
        for name in sorted(os.listdir(staging), key=lambda n: n == "checksums.json"):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return out_dir


def _write_bundle(path, scenario, out_dir):
    """Run every component of the scenario and write its bundle."""
    tables_dir = os.path.join(out_dir, "tables")
    os.makedirs(tables_dir)

    components = [(
        "rank_fidelity", True,
        lambda scenario, contexts: rank_fidelity(scenario, contexts),
    )]
    for block in (scenario.ablation, *scenario.downstream):
        if block is not None:
            name, reads_base, run = _BLOCKS[type(block)]
            components.append((name, reads_base(block), run))
    contexts = run_repeats(scenario)
    files = []
    for base in (True, False):
        for _, reads_base, run in components:
            if reads_base == base:
                for name, header, rows in run(scenario, contexts):
                    files += write_table(tables_dir, name, header, rows)
        contexts = None  # frees the base federations and their caches

    seeds_path = os.path.join(out_dir, "seeds.json")
    with open(seeds_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {
                "master_seed": scenario.master_seed,
                "seeds": derive_seeds(scenario.master_seed, scenario.repeats),
            },
            sort_keys=True, separators=(",", ":"),
        ))
        fh.write("\n")

    _snapshot(path, out_dir)

    checksums = {
        f"tables/{name}": _sha256(os.path.join(tables_dir, name))
        for name in sorted(files)
    }
    checksums["seeds.json"] = _sha256(seeds_path)
    with open(os.path.join(out_dir, "checksums.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(checksums, sort_keys=True, indent=1))
        fh.write("\n")

    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {
                "scenario": scenario.name,
                "components": [name for name, *_ in components],
                "tables": sorted(files),
            },
            sort_keys=True, separators=(",", ":"),
        ))
        fh.write("\n")


def _stem(path):
    base = os.path.basename(str(path))
    return base[:-len(".scenario")] if base.endswith(".scenario") else base


def _snapshot(path, out_dir):
    """Copy the scenario source next to its results."""
    target = os.path.join(out_dir, "scenario.snapshot")
    with open(path, "rb") as src, open(target, "wb") as dst:
        dst.write(src.read())


def verify_bundle(bundle_dir):
    """Recompute every checksum in a bundle; returns the mismatch list.

    ``run.json`` is not checksummed, so it is listed as a mismatch when it
    is missing or unreadable, or when its tables are not exactly the
    checksummed ones: a stale ``run.json`` left beside a newer manifest.
    """
    manifest = os.path.join(bundle_dir, "checksums.json")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"{bundle_dir}: no checksums.json")
    with open(manifest, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    bad = []
    for rel, digest in sorted(recorded.items()):
        full = os.path.join(bundle_dir, rel)
        if not os.path.exists(full) or _sha256(full) != digest:
            bad.append(rel)
    tables = sorted(rel[len("tables/"):] for rel in recorded if rel.startswith("tables/"))
    try:
        with open(os.path.join(bundle_dir, "run.json"), "r", encoding="utf-8") as fh:
            listed = json.load(fh)["tables"]
    except (OSError, ValueError, KeyError, TypeError):
        listed = None
    if listed != tables:
        bad.append("run.json")
    return bad
