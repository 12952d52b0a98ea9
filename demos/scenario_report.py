"""Scenario files, result bundles, and why reruns are byte-identical.

The experiment driver's unit of work is a scenario file: one INI-style
description of a federation, the scoring methods to compare, and the
downstream analyses to run.  Executing it produces a bundle, a plain
directory of CSV/JSON tables plus enough metadata to reproduce or audit
every number.  This demo runs the bundled attack scenario twice and
pokes at what comes back.

Equivalent CLI:  fedscore run <scenario> --out <dir>
                 fedscore report <bundle>
"""

# %%
import json
import tempfile
import time
from pathlib import Path

from fedscore.experiments import parse_scenario, run_scenario, verify_bundle
from fedscore.scenarios import BUNDLED, bundled_path

print("bundled scenarios:", ", ".join(BUNDLED))

scenario = parse_scenario(bundled_path("attack"))
print(f"attack scenario: {scenario.federation.n_clients} clients, client 0 "
      f"flips every label, {scenario.repeats} repeats")

# %%
# The work directory and both bundles in it are removed at the end.
tmp = tempfile.TemporaryDirectory(prefix="fedscore-demo-")
workdir = Path(tmp.name)
t0 = time.perf_counter()
bundle = Path(run_scenario(bundled_path("attack"), out_dir=str(workdir / "first")))
print(f"ran in {time.perf_counter() - t0:.1f}s -> {bundle}")

manifest = json.loads((bundle / "run.json").read_text())
seeds = json.loads((bundle / "seeds.json").read_text())
print("components:", manifest["components"])
print("tables    :", manifest["tables"])
print(f"seeds     : master {seeds['master_seed']} -> {seeds['seeds'][:3]} ...")

# %%
# The detection table: how often each method put the attacker strictly
# last, and the spread of the attacker's normalised score.
print((bundle / "tables" / "misbehavior.csv").read_text())

# At this scale a label-flipping attacker is obvious to everyone, which
# is itself the point: detection parity with the expensive reference
# comes at 2N + 2 evaluations, and FP/EE keep it while staying immune
# to reporting games (see demos/worked_example.py for that half).

# %%
# Every table is checksummed at write time.  verify_bundle recomputes.
problems = verify_bundle(str(bundle))
print("verify:", problems if problems else "all checksums match")

# %%
# Determinism: the same scenario file produces byte-identical tables,
# not just statistically similar ones.  Seeds derive from the master
# seed per repeat; nothing reads the clock or the platform.
rerun = Path(run_scenario(bundled_path("attack"), out_dir=str(workdir / "second")))
same = all(
    (bundle / "tables" / p.name).read_bytes() == p.read_bytes()
    for p in sorted((rerun / "tables").iterdir())
)
print("rerun tables byte-identical:", same)

# %%
# And when a number is edited after the fact, the report catches it.
victim = rerun / "tables" / "misbehavior.csv"
victim.write_text(victim.read_text().replace("1.0", "0.9", 1))
print("after tampering:", verify_bundle(str(rerun)))

tmp.cleanup()
