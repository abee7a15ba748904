"""Seeded benchmark inputs: a pure function of (workload, size, seed).

Trace workloads take a catalog spec, replace ``WorkloadSpec.seed`` with
the benchmark seed, generate the intent stream, collect it on the OLD
node and write the trace file.  The campaign workload writes a grid
spec.  Every trace input is written with its ground-truth idle record
(``truth.npz``) beside it, so fidelity needs no regeneration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from fidelity import save_truth
from repro.campaign.plan import expand
from repro.campaign.spec import load_spec
from repro.experiments import old_node
from repro.trace.writers import dump_trace
from repro.workloads.catalog import get_spec
from repro.workloads.generator import WorkloadSpec, collect_trace, generate_intents

#: The campaign grid's workload axis: one MSPS pair (MSNFS, DAP), one
#: FIU trace without device stamps (ikki), one MSRC volume (usr).
GRID_WORKLOADS = ("MSNFS", "DAP", "ikki", "usr")


def seeded_spec(name: str, n_requests: int, seed: int) -> WorkloadSpec:
    return replace(get_spec(name).scaled(n_requests), seed=seed)


def write_trace_input(
    input_dir: Path, workload: str, n_requests: int, seed: int, device_times: bool, fmt: str
) -> Path:
    """Generate, collect on the OLD node, and write one trace file."""
    intents = generate_intents(seeded_spec(workload, n_requests, seed))
    old = collect_trace(intents, old_node(), record_device_times=device_times)
    path = input_dir / ("old.npz" if fmt == "npz" else "old.csv")
    dump_trace(old, path, fmt)
    save_truth(input_dir / "truth.npz", intents)
    return path


def grid_sizes(base_sizes: tuple[int, ...], seed: int) -> tuple[int, ...]:
    """The grid's size axis for ``seed``.

    Campaign points generate their traces from catalog seeds, which a
    spec cannot override.  Shifting every size by a few requests
    redraws every trace of the grid (the generator draws whole columns
    up front), while the cost of a point moves by well under 1 %.
    """
    offset = seed % 64
    return tuple(n + offset for n in base_sizes)


def grid_spec(sizes: tuple[int, ...]) -> dict:
    return {
        "name": "perfbench-grid",
        "action": "reconstruct",
        "workloads": list(GRID_WORKLOADS),
        "devices": ["new-node", "old-node"],
        "methods": ["tracetracker", "revision"],
        "n_requests": list(sizes),
    }


def write_campaign_input(input_dir: Path, base_sizes: tuple[int, ...], seed: int) -> Path:
    """Write the grid spec and plan it (the campaign generates its own traces).

    A spec that does not plan to the whole grid fails set-up rather
    than the timed run.
    """
    path = input_dir / "grid.json"
    doc = grid_spec(grid_sizes(base_sizes, seed))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    n_points = len(expand(load_spec(path)).keys())
    expected = len(GRID_WORKLOADS) * len(doc["devices"]) * len(doc["methods"]) * len(base_sizes)
    if n_points != expected:
        raise ValueError(f"grid spec plans {n_points} points, expected {expected}")
    return path


def file_digest(path: Path) -> str:
    """Content digest of one file.

    ``.npz`` archives are hashed by their arrays, because the zip
    container stamps write times into its headers.
    """
    digest = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as doc:
            for key in sorted(doc.files):
                digest.update(key.encode())
                digest.update(np.ascontiguousarray(doc[key]).tobytes())
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def input_digest(input_dir: Path) -> str:
    """Content digest of an input directory (file names and contents)."""
    digest = hashlib.sha256()
    for path in sorted(input_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(file_digest(path).encode())
    return digest.hexdigest()
