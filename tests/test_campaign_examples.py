"""The shipped example campaign specs stay loadable and runnable.

Documented commands must not rot: every ``examples/*.yaml`` spec must
parse, expand to a non-empty grid (the device sweep to its advertised
>= 24 points) of pinned run keys, and the cheap ones must execute
end-to-end.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

from repro.campaign import CampaignEngine, expand, load_spec

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
SPEC_PATHS = sorted(EXAMPLES_DIR.glob("*.yaml"))


def test_examples_exist():
    assert len(SPEC_PATHS) >= 4


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.name)
def test_spec_loads_and_expands(path: Path):
    spec = load_spec(path)
    plan = expand(spec)
    assert len(plan) >= 1
    # Keys are unique across the grid and stable across expansions.
    assert len(set(plan.keys())) == len(plan)
    assert plan.keys() == expand(spec).keys()
    # Every device description resolves to a concrete simulator.
    for device in spec.devices:
        assert device.build().fingerprint()


def write_json_twin(path: Path, directory: Path) -> Path:
    """The YAML spec at ``path`` dumped as JSON into ``directory``."""
    twin = directory / f"{path.stem}.json"
    twin.write_text(json.dumps(yaml.safe_load(path.read_text(encoding="utf-8"))))
    return twin


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.name)
def test_json_twin_loads_to_the_same_plan(path: Path, tmp_path: Path):
    spec = load_spec(path)
    twin = load_spec(write_json_twin(path, tmp_path))
    assert twin == spec
    assert expand(twin).keys() == expand(spec).keys()


def test_json_spec_loads_without_yaml(tmp_path: Path, monkeypatch):
    path = EXAMPLES_DIR / "device_workload_sweep.yaml"
    twin = write_json_twin(path, tmp_path)
    keys = expand(load_spec(path)).keys()
    monkeypatch.setitem(sys.modules, "yaml", None)  # ``import yaml`` now raises
    with pytest.raises(ImportError):
        import yaml as _  # noqa: F401
    assert expand(load_spec(twin)).keys() == keys


#: Per spec: the number of run keys it plans, and the first 16 hex
#: digits of the SHA-1 of its sorted keys joined by newlines.  Run keys
#: name the segment checkpoint lines, so a change here orphans every
#: result recorded under the old keys; change them only on purpose.
PINNED_RUN_KEYS = {
    "device_workload_sweep": (24, "9147da404719d6ef"),
    "fig14_target_diff": (31, "b83c6e44525ec2ba"),
    "fig16_idle": (31, "a061b23ee821eef9"),
    "method_grid": (14, "69595004950b1001"),
    "raid_ab": (6, "31a3cc2a0048fdfe"),
    "raid_width_sweep": (8, "fb563584619447e8"),
}


def test_every_example_has_pinned_keys():
    assert sorted(p.stem for p in SPEC_PATHS) == sorted(PINNED_RUN_KEYS)


@pytest.mark.parametrize("name", sorted(PINNED_RUN_KEYS))
def test_run_keys_pinned(name: str):
    keys = sorted(expand(load_spec(EXAMPLES_DIR / f"{name}.yaml")).keys())
    digest = hashlib.sha1("\n".join(keys).encode("utf-8")).hexdigest()[:16]
    assert (len(keys), digest) == PINNED_RUN_KEYS[name]


def test_device_sweep_is_at_least_24_points():
    plan = expand(load_spec(EXAMPLES_DIR / "device_workload_sweep.yaml"))
    assert len(plan) >= 24
    assert len({p.device.name for p in plan.points}) >= 4


def test_raid_width_sweep_runs_end_to_end(tmp_path: Path):
    spec = load_spec(EXAMPLES_DIR / "raid_width_sweep.yaml").with_limit(2)
    result = CampaignEngine(spec, out_dir=tmp_path / "raid").run()
    assert result.n_computed == 2
    assert (tmp_path / "raid" / "report.md").exists()
    speedups = result.table.column("speedup")
    assert all(s > 0 for s in speedups)


def test_raid_ab_report(tmp_path: Path):
    """The A/B example emits confidence intervals and a verdict."""
    spec = load_spec(EXAMPLES_DIR / "raid_ab.yaml")
    assert spec.options["ab"] == {"baseline": "mirror", "treatment": "stripe"}
    result = CampaignEngine(spec, out_dir=tmp_path / "raid-ab").run()
    assert result.n_computed == len(expand(spec)) == 6
    report = (tmp_path / "raid-ab" / "report.md").read_text(encoding="utf-8")
    assert "A/B: stripe* vs mirror*" in report
    assert "ci95" in report and "verdict" in report
    assert "| significant |" in report
    # Three replicates per arm: the speedup row carries a real CI.
    speedups = result.table.column("speedup")
    assert len(speedups) == 6 and all(s > 0 for s in speedups)


def test_method_grid_exclude_filter_applies():
    spec = load_spec(EXAMPLES_DIR / "method_grid.yaml")
    plan = expand(spec)
    assert len(plan) == 3 * 5 - 1
    assert not any(
        p.workload == "prxy" and p.method == "acceleration:100" for p in plan.points
    )
