"""Campaign layer: specs, device registry, planning, results, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    DeviceSpec,
    ResultsTable,
    build_device,
    expand,
    load_spec,
    loads_spec,
    run_campaign,
    run_key,
)
from repro.campaign.cli import main as cli_main
from repro.experiments.nodes import calibration_disk, new_node, old_node


# ----------------------------------------------------------------------
# Spec loading
# ----------------------------------------------------------------------


class TestSpecLoading:
    def test_json_round_trip(self):
        spec = CampaignSpec(
            name="rt",
            action="idle",
            workloads=("MSNFS", "ikki"),
            devices=(DeviceSpec("d", "hdd", {"rpm": 10000.0}),),
            methods=("tracetracker",),
            n_requests=(500, 1000),
            options={"min_idle_us": 100.0},
            exclude=({"workload": "ikki", "n_requests": 500},),
        )
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_loads_json_text(self):
        spec = loads_spec(json.dumps({"name": "j", "workloads": ["MSNFS"]}))
        assert spec.name == "j"
        assert spec.devices[0].kind == "new-node"

    def test_loads_yaml_text(self):
        pytest.importorskip("yaml")
        spec = loads_spec("name: y\nworkloads: [MSNFS]\ndevices: [old-node]\n")
        assert spec.devices[0].name == "old-node"

    def test_load_file(self, tmp_path: Path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "f", "n_requests": 300}))
        assert load_spec(path).n_requests == (300,)

    def test_scalar_fields_promote_to_axes(self):
        spec = CampaignSpec.from_dict(
            {"name": "s", "workloads": "MSNFS", "methods": "revision", "n_requests": 400}
        )
        assert spec.workloads == ("MSNFS",)
        assert spec.methods == ("revision",)
        assert spec.n_requests == (400,)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec field"):
            CampaignSpec.from_dict({"name": "x", "wrokloads": ["MSNFS"]})

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            CampaignSpec(name="x", action="destroy")

    def test_duplicate_device_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec.from_dict(
                {"name": "x", "devices": [{"name": "d", "kind": "hdd"}, {"name": "d", "kind": "flash"}]}
            )


# ----------------------------------------------------------------------
# Device registry
# ----------------------------------------------------------------------


class TestDeviceRegistry:
    def test_presets_match_evaluation_nodes(self):
        # Fingerprint equality == identical traces and shared store keys.
        assert build_device("old-node").fingerprint() == old_node().fingerprint()
        assert build_device("new-node").fingerprint() == new_node().fingerprint()
        assert (
            build_device("calibration-disk").fingerprint()
            == calibration_disk().fingerprint()
        )

    def test_kinds_build(self):
        assert build_device("hdd", {"rpm": 10000.0}).geometry.rpm == 10000.0
        assert build_device("flash_array", {"n_ssds": 2}).n_ssds == 2
        raid = build_device("raid0", {"n": 3, "member": {"kind": "hdd"}})
        assert len(raid.members) == 3
        # Distinct member seeds -> distinct fingerprints.
        assert len({m.fingerprint() for m in raid.members}) == 3

    def test_unknown_kind_and_param_rejected(self):
        with pytest.raises(ValueError, match="unknown device kind"):
            build_device("quantum-drive")
        with pytest.raises(ValueError, match="unknown parameter"):
            build_device("hdd", {"rpmm": 7200})

    def test_preset_with_overrides(self):
        device = build_device("old-node", {"rpm": 15000.0})
        assert device.geometry.rpm == 15000.0

    def test_raid0_preset_members_get_distinct_seeds(self):
        # A preset member kind must still receive per-spindle seeds.
        raid = build_device("raid0", {"n": 3, "member": {"kind": "old-node"}})
        assert len({m.fingerprint() for m in raid.members}) == 3


# ----------------------------------------------------------------------
# Plan expansion
# ----------------------------------------------------------------------


def _grid_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="grid",
        action="reconstruct",
        workloads=("MSNFS", "ikki"),
        devices=(DeviceSpec("a", "new-node"), DeviceSpec("b", "old-node")),
        methods=("tracetracker", "revision"),
        n_requests=(300,),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestPlan:
    def test_cross_product_order(self):
        plan = expand(_grid_spec())
        assert len(plan) == 2 * 2 * 2
        # Workloads outermost, then devices, then methods.
        assert [p.workload for p in plan.points[:4]] == ["MSNFS"] * 4
        assert [p.device.name for p in plan.points[:4]] == ["a", "a", "b", "b"]

    def test_selectors(self):
        plan = expand(_grid_spec(workloads=("family:MSPS",)))
        assert len(plan) == 8 * 2 * 2
        all_plan = expand(_grid_spec(workloads=("all",), methods=("revision",)))
        assert len(all_plan) == 31 * 2
        with pytest.raises(KeyError):
            expand(_grid_spec(workloads=("nope",)))

    def test_exclude_and_limit(self):
        plan = expand(_grid_spec(exclude=({"workload": "ikki", "device": "b"},)))
        assert len(plan) == 8 - 2
        assert not any(
            p.workload == "ikki" and p.device.name == "b" for p in plan.points
        )
        assert len(expand(_grid_spec(limit=3))) == 3

    def test_run_keys_stable_and_content_sensitive(self):
        spec = _grid_spec()
        keys = expand(spec).keys()
        assert keys == expand(spec).keys()
        assert len(set(keys)) == len(keys)
        # Campaign name does not change keys (resume across renames)...
        renamed = _grid_spec(name="other")
        assert expand(renamed).keys() == keys
        # ...but device parameters and options do.
        retuned = _grid_spec(devices=(DeviceSpec("a", "hdd", {"rpm": 9999.0}), DeviceSpec("b", "old-node")))
        assert expand(retuned).keys() != keys
        opted = _grid_spec(options={"device_times": False})
        assert expand(opted).keys() != keys

    def test_empty_expansion_rejected(self):
        with pytest.raises(ValueError, match="zero grid points"):
            expand(_grid_spec(exclude=({"workload": "MSNFS"}, {"workload": "ikki"})))


# ----------------------------------------------------------------------
# Results table
# ----------------------------------------------------------------------


class TestResultsTable:
    ROWS = [
        {"workload": "a", "n": 1, "value": 1.5, "flag": True},
        {"workload": "b", "n": 2, "value": 2.5, "flag": False},
        {"workload": "c", "n": 3, "value": float("inf"), "extra": [1, 2]},
    ]

    def test_from_rows_and_back(self):
        table = ResultsTable.from_rows(self.ROWS)
        assert len(table) == 3
        assert table.rows()[0]["workload"] == "a"
        assert table.rows()[0]["extra"] is None  # ragged key filled with None
        assert table.column("n") == [1, 2, 3]

    def test_npz_round_trip(self, tmp_path: Path):
        table = ResultsTable.from_rows(self.ROWS)
        path = tmp_path / "t.npz"
        table.save_npz(path)
        assert ResultsTable.load_npz(path) == table

    def test_select(self):
        table = ResultsTable.from_rows(self.ROWS)
        assert table.select(workload="b").column("value") == [2.5]

    def test_renderings(self, tmp_path: Path):
        table = ResultsTable.from_rows(self.ROWS)
        md = table.to_markdown()
        assert md.count("\n") == 4 and "| workload |" in md
        csv_text = table.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == csv_text
        assert csv_text.splitlines()[0] == "workload,n,value,flag,extra"

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            ResultsTable({"a": [1], "b": [1, 2]})


# ----------------------------------------------------------------------
# Engine + CLI (tiny grids)
# ----------------------------------------------------------------------


def _tiny_spec() -> CampaignSpec:
    return CampaignSpec(
        name="tiny",
        action="reconstruct",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=(200,),
    )


def _two_workload_spec() -> CampaignSpec:
    """Two cheap trace-backed points, one per workload."""
    return CampaignSpec(
        name="pooled",
        action="reconstruct",
        workloads=("MSNFS", "ikki"),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=(200,),
    )


class TestEngine:
    def test_in_process_run(self):
        table = run_campaign(_tiny_spec())
        assert len(table) == 1
        row = table.rows()[0]
        assert row["method_name"] == "revision"
        assert row["new_duration_us"] > 0

    def test_outputs_written(self, tmp_path: Path):
        out = tmp_path / "camp"
        result = CampaignEngine(_tiny_spec(), out_dir=out).run()
        assert result.n_computed == 1 and result.n_resumed == 0
        for name in ("results.npz", "results.csv", "report.md", "spec.json"):
            assert (out / name).exists(), name
        assert ResultsTable.load_npz(out / "results.npz") == result.table
        report = (out / "report.md").read_text()
        assert "Campaign report: tiny" in report and "| workload |" in report

    def test_corrupt_checkpoint_recomputed(self, tmp_path: Path):
        out = tmp_path / "camp"
        spec = _tiny_spec()
        CampaignEngine(spec, out_dir=out, checkpoint_format="json").run()
        key = expand(spec).keys()[0]
        (out / "runs" / f"{key}.json").write_text("{not json")
        result = CampaignEngine(spec, out_dir=out, checkpoint_format="json").run()
        assert result.n_computed == 1

    def test_torn_segment_line_recomputed(self, tmp_path: Path):
        """A crash mid-append leaves a torn line; that point recomputes."""
        out = tmp_path / "camp"
        spec = _tiny_spec()
        CampaignEngine(spec, out_dir=out).run()
        (segment,) = (out / "runs").glob("segment-*.jsonl")
        text = segment.read_text()
        segment.write_text(text[: len(text) // 2])  # tear the line
        result = CampaignEngine(spec, out_dir=out).run()
        assert result.n_computed == 1 and result.n_resumed == 0

    def test_trace_store_round_trip(self, tmp_path: Path):
        """A store-backed run materialises traces and reproduces exactly."""
        store = tmp_path / "store"
        cold = CampaignEngine(
            _tiny_spec(), out_dir=tmp_path / "a",
            use_trace_store=True, trace_store_dir=store,
        ).run()
        assert list(store.glob("*.npz"))  # traces landed in the store
        warm = CampaignEngine(
            _tiny_spec(), out_dir=tmp_path / "b",
            use_trace_store=True, trace_store_dir=store,
        ).run()
        assert warm.table == cold.table
        bare = CampaignEngine(_tiny_spec(), out_dir=tmp_path / "c").run()
        assert bare.table == cold.table  # store hits reproduce misses

    def test_trace_store_shared_with_workers(self, tmp_path: Path):
        """Forked workers inherit the store the run installs, and the
        caller's default store is back in place afterwards."""
        from repro.trace.io.cache import get_default_store

        spec = _two_workload_spec()
        before = get_default_store()
        store = tmp_path / "store"
        pooled = CampaignEngine(
            spec, out_dir=tmp_path / "a", jobs=2,
            use_trace_store=True, trace_store_dir=store,
        ).run()
        assert get_default_store() is before
        assert len(list(store.glob("*.npz"))) == 2  # one trace per workload
        inline = CampaignEngine(spec, out_dir=tmp_path / "b").run()
        assert pooled.table == inline.table

    def test_in_memory_workers_leave_no_temp_dir(self, tmp_path: Path, monkeypatch):
        """Heartbeats of a run without an out_dir live in a temporary
        directory scoped to the run."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = CampaignEngine(_two_workload_spec(), out_dir=None, jobs=2).run()
        assert result.supervision is not None  # the workers really ran
        assert list(tmp_path.glob("repro-supervise-*")) == []

    def test_jobs_sharding_matches_inline(self, tmp_path: Path):
        spec = CampaignSpec(
            name="shards",
            action="reconstruct",
            workloads=("MSNFS", "ikki", "CFS"),
            devices=(DeviceSpec("new", "new-node"),),
            methods=("revision",),
            n_requests=(200,),
        )
        inline = CampaignEngine(spec, out_dir=tmp_path / "a", jobs=1).run()
        sharded = CampaignEngine(spec, out_dir=tmp_path / "b", jobs=3).run()
        assert inline.table == sharded.table
        assert inline.supervision is None and sharded.supervision is not None


class TestCli:
    def _write_spec(self, tmp_path: Path) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_tiny_spec().to_dict()))
        return path

    def test_plan_run_report(self, tmp_path: Path, capsys):
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        store = tmp_path / "store"  # keep test disk traffic out of ~/.cache
        run_args = ["--out-dir", str(out), "--trace-store-dir", str(store), "--quiet"]
        assert cli_main(["plan", str(spec_path)]) == 0
        assert "1 point(s)" in capsys.readouterr().out
        assert cli_main(["run", str(spec_path), *run_args]) == 0
        assert "0 resumed, 1 computed" in capsys.readouterr().out
        assert cli_main(["run", str(spec_path), *run_args]) == 0
        assert "1 resumed, 0 computed" in capsys.readouterr().out
        assert cli_main(["report", str(out)]) == 0
        assert "| workload |" in capsys.readouterr().out

    def test_report_on_partial_campaign(self, tmp_path: Path, capsys):
        """An interrupted campaign's checkpoints are reportable."""
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(spec_path), "--out-dir", str(out), "--no-trace-store", "--quiet"]
        ) == 0
        capsys.readouterr()
        # Simulate the interruption: aggregate gone, checkpoints intact.
        (out / "results.npz").unlink()
        assert cli_main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "| workload |" in captured.out
        assert "partial campaign: 1/1" in captured.err

    def test_bad_inputs(self, tmp_path: Path, capsys):
        missing = tmp_path / "nope.yaml"
        assert cli_main(["run", str(missing)]) == 2
        assert cli_main(["report", str(tmp_path)]) == 1
        capsys.readouterr()


class TestCliResilience:
    """Run flags from ISSUE 9: --chaos, quarantine reporting, corrupt
    aggregate recovery in ``report``."""

    def _write_spec(self, tmp_path: Path, n_points: int = 3) -> Path:
        spec = CampaignSpec(
            name="cli-chaos",
            action="synthetic",
            workloads=("MSNFS",),
            devices=(DeviceSpec("new", "new-node"),),
            methods=("revision",),
            n_requests=tuple(range(100, 100 + n_points)),
            options={"iters_per_request": 3},
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    def test_chaos_forces_supervised_and_recovers(self, tmp_path: Path, capsys):
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(spec_path), "--out-dir", str(out), "--no-trace-store",
             "--chaos", "exc@1", "--retries", "3"]
        ) == 0
        captured = capsys.readouterr()
        # Supervision counters are logged only when workers ran, and
        # chaos runs workers even at the default --jobs 1.
        assert "(dead=0, hung=0, respawned=0)" in captured.err
        assert "3 point(s) (0 resumed, 3 computed)" in captured.out
        assert "quarantined" not in captured.out  # exc is transient: retried

    def test_poison_quarantine_reported(self, tmp_path: Path, capsys):
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(spec_path), "--out-dir", str(out), "--no-trace-store",
             "--quiet", "--chaos", "poison@1", "--retries", "2"]
        ) == 0
        captured = capsys.readouterr()
        # The grepped summary line stays first and intact ...
        assert "3 point(s) (0 resumed, 3 computed)" in captured.out
        # ... and the quarantine note follows it.
        assert "quarantined: 1 point(s)" in captured.out

    def test_report_rebuilds_from_corrupt_aggregate(self, tmp_path: Path, capsys):
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(spec_path), "--out-dir", str(out), "--no-trace-store", "--quiet"]
        ) == 0
        capsys.readouterr()
        npz = out / "results.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        assert cli_main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "rebuilding from checkpoints" in captured.err
        assert (out / "results.npz.bad").exists()
        assert "| workload |" in captured.out
