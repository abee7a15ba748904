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
from repro.campaign.plan import CampaignPlan, RunPoint
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


class TestDeviceValidationAtLoad:
    """Every device parameter is checked when the spec loads, nested
    RAID members included, before any point is planned or run; each
    device is built once, so its constructor checks the values."""

    @pytest.mark.parametrize(
        "device, kind, bad",
        [
            ({"kind": "flash", "chanels": 4}, "flash", "chanels"),
            ({"kind": "raid1", "member": {"kind": "hdd", "rmp": 5}}, "hdd", "rmp"),
            # A preset member resolves to its base kind before the check.
            ({"kind": "raid0", "member": {"kind": "new-node", "rpm": 1.0}}, "flash_array", "rpm"),
            # Removed fault knobs are unknown parameters like any other.
            ({"kind": "flash", "latency_factor": 2.0}, "flash", "latency_factor"),
            ({"kind": "raid1", "failed_member": 0}, "raid1", "failed_member"),
            ({"kind": "new-node", "offline_at": 10}, "flash_array", "offline_at"),
        ],
        ids=["chanels", "member-rmp", "preset-member-rpm", "latency_factor",
             "failed_member", "preset-offline_at"],
    )
    def test_unknown_parameter_rejected_at_load(self, device, kind, bad):
        with pytest.raises(ValueError) as excinfo:
            CampaignSpec.from_dict({"name": "bad", "devices": [{"name": "d", **device}]})
        message = str(excinfo.value)
        assert message.startswith("device 'd': ")
        assert f"unknown parameter(s) for device kind {kind!r}: [{bad!r}]" in message
        assert "valid parameters: [" in message

    @pytest.mark.parametrize("member", [None, "hdd"])
    def test_member_must_be_a_mapping(self, member):
        with pytest.raises(ValueError, match="device 'd': raid0 member: 'member' must be"):
            CampaignSpec.from_dict(
                {"name": "bad", "devices": [{"name": "d", "kind": "raid0", "member": member}]}
            )

    def test_source_device_checked_too(self):
        with pytest.raises(ValueError, match="device 'src': unknown parameter"):
            CampaignSpec.from_dict(
                {"name": "bad", "source_device": {"name": "src", "kind": "hdd", "sed": 1}}
            )

    def test_valid_nested_members_accepted(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "ok",
                "devices": [
                    {"name": "m", "kind": "raid1", "n": 3, "member": {"kind": "hdd", "seed": 5}},
                    {"name": "s", "kind": "raid0", "member": {"kind": "old-node", "rpm": 15000.0}},
                    {"name": "f", "kind": "raid0", "member": {"kind": "flash", "channels": 4}},
                ],
            }
        )
        for device in spec.devices:
            assert device.build().fingerprint()

    def test_plan_exits_2_before_listing_the_grid(self, tmp_path: Path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "typo",
                    "devices": [
                        "old-node",
                        {"name": "m", "kind": "raid1", "member": {"kind": "hdd", "rmp": 5}},
                    ],
                }
            )
        )
        assert cli_main(["plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: device 'm': raid1 member: ")
        assert "['rmp']" in lines[0] and "'rpm'" in lines[0]


    @pytest.mark.parametrize(
        "device, message",
        [
            (
                {"kind": "hdd", "channel": "sata3"},
                "unknown channel 'sata3'; known channels: ['pcie3x4', 'sata300', 'sata600']",
            ),
            ({"kind": "raid1", "n": 1}, "a mirror needs at least two members"),
            ({"kind": "flash_array", "n_ssds": 0}, "need at least one SSD"),
            ({"kind": "flash_array", "stripe_kb": 0}, "stripe unit must be positive"),
            ({"kind": "flash", "channels": 0}, "geometry counts must be positive"),
            (
                {"kind": "hdd", "rpm": "fast"},
                "'<=' not supported between instances of 'str' and 'int'",
            ),
        ],
        ids=["channel", "raid1-n", "n_ssds", "stripe_kb", "flash-channels", "rpm-type"],
    )
    def test_bad_value_exits_2_before_any_point_runs(
        self, tmp_path: Path, capsys, device, message
    ):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad-value",
                    "workloads": ["MSNFS"],
                    "n_requests": [200],
                    "devices": ["old-node", {"name": "h", **device}],
                }
            )
        )
        out_dir = tmp_path / "out"
        for argv in (["plan", str(path)], ["run", str(path), "--out-dir", str(out_dir)]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: device 'h': {message}"]
        assert not out_dir.exists()  # no point ran, none was checkpointed


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


class TestChunks:
    """``CampaignPlan.chunks``, the supervised path's dispatch rule: the
    points that share an OLD trace (same workload and size) travel
    together, largest groups first."""

    @staticmethod
    def _plan(runs: list[tuple[str, int, int]]) -> CampaignPlan:
        """A plan of consecutive runs of ``count`` points per (workload, size)."""
        device = DeviceSpec("a", "new-node")
        points = [
            RunPoint(workload, device, f"acceleration:{k + 1}", n)
            for workload, n, count in runs
            for k in range(count)
        ]
        return CampaignPlan(spec=_grid_spec(), points=tuple(points))

    @staticmethod
    def _group(plan: CampaignPlan, index: int) -> tuple[str, int]:
        point = plan.points[index]
        return point.workload, point.n_requests

    def test_every_index_appears_exactly_once(self):
        plan = expand(_grid_spec(n_requests=(100, 200, 300)))
        for indices in (None, list(range(0, len(plan), 2)), [23, 5, 11, 0, 17, 6]):
            wanted = list(range(len(plan))) if indices is None else indices
            for size in range(1, 10):
                chunks = plan.chunks(size, indices=indices)
                assert sorted(i for chunk in chunks for i in chunk) == sorted(wanted)
                assert all(1 <= len(chunk) <= size for chunk in chunks)
        with pytest.raises(ValueError, match="at least 1"):
            plan.chunks(0)

    def test_group_that_fits_stays_in_one_chunk(self):
        plan = expand(_grid_spec(n_requests=(100, 200, 300)))  # six groups of 4
        for size in (4, 5, 6, 7, 8, 12):
            homes: dict[tuple[str, int], set[int]] = {}
            for n, chunk in enumerate(plan.chunks(size)):
                for index in chunk:
                    homes.setdefault(self._group(plan, index), set()).add(n)
            assert len(homes) == 6
            assert all(len(chunks) == 1 for chunks in homes.values()), size
        # The perfbench campaign-grid shape: one group per chunk, each
        # group's points in plan order.
        chunks = plan.chunks(6)
        assert [len(chunk) for chunk in chunks] == [4] * 6
        assert all(chunk == sorted(chunk) for chunk in chunks)

    def test_groups_queued_by_descending_summed_requests(self):
        plan = self._plan(
            [("MSNFS", 300, 1), ("ikki", 100, 4), ("MSNFS", 200, 2), ("ikki", 200, 2), ("CFS", 150, 3)]
        )
        order: list[tuple[str, int]] = []
        for chunk in plan.chunks(4):
            for index in chunk:
                if self._group(plan, index) not in order:
                    order.append(self._group(plan, index))
        # Sums 450, then three ties at 400 in plan order, then 300: the
        # largest single point runs last because its group is smallest.
        assert order == [("CFS", 150), ("ikki", 100), ("MSNFS", 200), ("ikki", 200), ("MSNFS", 300)]

    def test_small_groups_are_packed_up_to_chunk_size(self):
        singles = self._plan([("MSNFS", n, 1) for n in range(100, 110)])
        assert singles.chunks(4) == [[9, 8, 7, 6], [5, 4, 3, 2], [1, 0]]
        # Sums 200, 100, 300: CFS opens a chunk, MSNFS cannot join it,
        # ikki joins MSNFS.
        mixed = self._plan([("MSNFS", 100, 2), ("ikki", 100, 1), ("CFS", 100, 3)])
        assert mixed.chunks(4) == [[3, 4, 5], [0, 1, 2]]

    def test_oversized_group_later_pieces_follow_every_first_piece(self):
        plan = self._plan([("MSNFS", 500, 10), ("ikki", 100, 2), ("CFS", 200, 3)])
        chunks = plan.chunks(4)
        assert chunks == [[0, 1, 2, 3], [12, 13, 14], [10, 11], [4, 5, 6, 7], [8, 9]]
        flat = [i for chunk in chunks for i in chunk]
        assert flat.index(4) > max(flat.index(10), flat.index(12))


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


def _synthetic_spec(n_points: int) -> CampaignSpec:
    """Cheap deterministic points, one per ``n_requests`` value."""
    return CampaignSpec(
        name="cli-chaos",
        action="synthetic",
        workloads=("MSNFS",),
        devices=(DeviceSpec("new", "new-node"),),
        methods=("revision",),
        n_requests=tuple(range(100, 100 + n_points)),
        options={"iters_per_request": 3},
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
        for name in ("results.csv", "report.md", "spec.json"):
            assert (out / name).exists(), name
        assert (out / "results.csv").read_text(encoding="utf-8") == result.table.to_csv()
        report = (out / "report.md").read_text()
        assert "Campaign report: tiny" in report and "| workload |" in report

    def test_corrupt_checkpoint_recomputed(self, tmp_path: Path):
        """A segment with no decodable line is quarantined on resume;
        its point recomputes and the degradation is logged."""
        out = tmp_path / "camp"
        spec = _tiny_spec()
        first = CampaignEngine(spec, out_dir=out).run()
        (segment,) = (out / "runs").glob("segment-*.jsonl")
        segment.write_bytes(b"\x00\xff not one json line\n")
        result = CampaignEngine(spec, out_dir=out).run()
        assert result.n_computed == 1 and result.n_resumed == 0
        assert result.table == first.table
        assert result.n_degraded == 1
        assert segment.name in (out / "degraded.log").read_text(encoding="utf-8")
        assert (out / "runs" / f"{segment.name}.bad").exists()

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

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_workers_generate_and_fit_each_trace_once(
        self, tmp_path: Path, monkeypatch, jobs: int
    ):
        """The points that share an OLD trace run on one worker, so each
        trace is generated once and each bare (FIU) trace fitted once,
        by the worker whose model memo then serves its second
        tracetracker point.  At four workers the 1/(4*jobs) chunk share
        is 2 points, below a group's 4, so the chunks must grow to keep
        every group whole.  The patches go in before the engine forks,
        so the workers inherit them and log every call to one file; the
        slow generation makes two workers racing for one trace visible."""
        import time

        import repro.inference.idle as idle_mod
        import repro.workloads.materialize as materialize_mod

        log = tmp_path / "calls.log"
        generate, estimate = materialize_mod.generate_intents, idle_mod.estimate_model

        def logged_generate(wspec):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"generate {wspec.name} {wspec.n_requests}\n")
            time.sleep(0.05)
            return generate(wspec)

        def logged_estimate(trace, config=None):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"fit {trace.name} {len(trace)}\n")
            return estimate(trace, config)

        monkeypatch.setattr(materialize_mod, "generate_intents", logged_generate)
        monkeypatch.setattr(idle_mod, "estimate_model", logged_estimate)
        monkeypatch.setattr(idle_mod, "_MODEL_MEMO", {})  # no fit inherited from earlier tests
        sizes = (150, 200, 250, 300)
        spec = _grid_spec(n_requests=sizes)  # 32 points, 8 OLD traces
        pooled = CampaignEngine(
            spec, out_dir=tmp_path / "a", jobs=jobs,
            use_trace_store=True, trace_store_dir=tmp_path / "store",
        ).run()
        calls = log.read_text(encoding="utf-8").splitlines()
        assert sorted(line for line in calls if line.startswith("generate")) == sorted(
            f"generate {w} {n}" for w in ("MSNFS", "ikki") for n in sizes
        )
        assert sorted(line for line in calls if line.startswith("fit")) == [
            f"fit ikki {n}" for n in sizes
        ]
        inline = CampaignEngine(spec, out_dir=tmp_path / "b").run()
        assert pooled.table == inline.table

    @pytest.mark.parametrize(
        "workloads, devices, sizes, jobs, chunk",
        [
            (1, 3, (100,), 2, 3),  # one 6-point group, cut across both workers
            (1, 3, (100,), 4, 2),
            (2, 2, (100, 110, 120, 130), 4, 4),  # 1/(4*jobs) is 2, grown to a group
            (4, 2, (100, 110, 120), 2, 6),  # the perfbench campaign-grid shape
        ],
    )
    def test_chunk_size_keeps_groups_whole_up_to_a_worker_share(
        self, tmp_path: Path, monkeypatch,
        workloads: int, devices: int, sizes: tuple[int, ...], jobs: int, chunk: int,
    ):
        """A chunk holds 1/(4*jobs) of the pending points or the largest
        trace group, whichever is larger, but never more than 1/jobs of
        them, so a grid with fewer trace groups than workers still
        reaches every worker.  A group here holds two points per
        device."""
        asked: list[int] = []
        chunks = CampaignPlan.chunks

        def logged_chunks(plan, chunk_size, indices=None):
            asked.append(chunk_size)
            return chunks(plan, chunk_size, indices=indices)

        monkeypatch.setattr(CampaignPlan, "chunks", logged_chunks)
        spec = CampaignSpec(
            name="chunk-size",
            action="synthetic",
            workloads=("MSNFS", "ikki", "CFS", "DAP")[:workloads],
            devices=tuple(DeviceSpec(f"d{k}", "new-node") for k in range(devices)),
            methods=("revision", "tracetracker"),
            n_requests=sizes,
            options={"iters_per_request": 1},
        )
        result = CampaignEngine(spec, out_dir=tmp_path / "out", jobs=jobs).run()
        assert asked == [chunk]
        assert result.n_computed == len(expand(spec))

    def test_workers_reuse_the_parent_plan(self, tmp_path: Path, monkeypatch):
        """Forked workers run the plan the parent expanded: no worker
        re-parses the spec or re-expands the grid.  The patches go in
        before the engine forks, so every process logs to one file."""
        import os

        import repro.campaign.engine as engine_mod

        log = tmp_path / "calls.log"
        original_expand, original_from_dict = engine_mod.expand, CampaignSpec.from_dict

        def note(name: str) -> None:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{name} {os.getpid()}\n")

        def logged_expand(spec):
            note("expand")
            return original_expand(spec)

        def logged_from_dict(cls, data):
            note("from_dict")
            return original_from_dict.__func__(cls, data)

        monkeypatch.setattr(engine_mod, "expand", logged_expand)
        monkeypatch.setattr(CampaignSpec, "from_dict", classmethod(logged_from_dict))
        result = CampaignEngine(_synthetic_spec(12), out_dir=tmp_path / "out", jobs=2).run()
        assert result.n_computed == 12 and result.supervision is not None
        assert log.read_text(encoding="utf-8").splitlines() == [f"expand {os.getpid()}"]

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
        """An interrupted campaign's checkpoints are reportable; with no
        point missing, ``report`` says nothing on stderr."""
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(spec_path), "--out-dir", str(out), "--no-trace-store", "--quiet"]
        ) == 0
        capsys.readouterr()
        # Simulate the interruption: aggregate gone, checkpoints intact.
        (out / "results.csv").unlink()
        (out / "report.md").unlink()
        assert cli_main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "| workload |" in captured.out
        assert captured.err == ""

    def test_report_csv_is_the_results_file(self, tmp_path: Path, capsys):
        """``report --format csv`` on a finished campaign prints the bytes
        of its ``results.csv``, rebuilt from the checkpoints, and the
        run leaves no other copy of the table."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_two_workload_spec().to_dict()))
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(path), "--out-dir", str(out), "--no-trace-store", "--quiet"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["report", str(out), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == (out / "results.csv").read_bytes()
        assert captured.err == ""
        assert not (out / "results.npz").exists()

    def test_interrupted_rerun_leaves_no_stale_aggregate(
        self, tmp_path: Path, capsys, monkeypatch
    ):
        """A rerun that fails part-way removes the older, smaller
        aggregate first, so ``report`` rebuilds from the checkpoints and
        says the campaign is partial instead of printing old rows."""
        import repro.campaign.engine as engine_mod

        spec = _synthetic_spec(8)
        out = tmp_path / "out"
        CampaignEngine(spec.with_limit(2), out_dir=out).run()
        original = engine_mod.run_point
        computed = []

        def failing_run_point(spec, point):
            if len(computed) == 4:
                raise RuntimeError("simulated failure")
            computed.append(point)
            return original(spec, point)

        monkeypatch.setattr(engine_mod, "run_point", failing_run_point)
        with pytest.raises(RuntimeError, match="simulated failure"):
            CampaignEngine(spec, out_dir=out).run()
        for name in ("results.npz", "results.csv", "report.md"):
            assert not (out / name).exists(), name
        assert cli_main(["report", str(out), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "partial campaign: 6/8" in captured.err
        assert len(captured.out.splitlines()) == 1 + 6  # header + rows

    def test_bad_inputs(self, tmp_path: Path, capsys):
        missing = tmp_path / "nope.yaml"
        assert cli_main(["run", str(missing)]) == 2
        assert cli_main(["report", str(tmp_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            (
                "spec.yaml",
                "name: x\nworkloads: [MSNFS\n",
                "line 3, column 1: while parsing a flow sequence; "
                "expected ',' or ']', but got '<stream end>'",
            ),
            (
                "spec.json",
                '{"name": "x", "workloads": ["MSNFS"\n',
                "line 2, column 1: Expecting ',' delimiter",
            ),
        ],
        ids=["yaml", "json"],
    )
    def test_malformed_spec_exits_2_with_one_line(
        self, tmp_path: Path, capsys, name, text, message
    ):
        path = tmp_path / name
        path.write_text(text)
        out_dir = tmp_path / "out"
        for argv in (["plan", str(path)], ["run", str(path), "--out-dir", str(out_dir)]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {path}: {message}"]
        assert not out_dir.exists()

    def test_lake_option_is_a_usage_error(self, tmp_path: Path, capsys):
        """Results live only in the out-dir: ``--lake`` is refused before
        anything is created."""
        spec_path = self._write_spec(tmp_path)
        out, lake = tmp_path / "out", tmp_path / "lake.sqlite"
        with pytest.raises(SystemExit) as exited:
            cli_main(["run", str(spec_path), "--out-dir", str(out), "--lake", str(lake)])
        assert exited.value.code == 2
        assert "--lake" in capsys.readouterr().err
        assert not out.exists() and not lake.exists()
        with pytest.raises(TypeError, match="lake"):
            CampaignEngine(_tiny_spec(), lake=lake)

    def test_closed_stdout_exits_zero(self, tmp_path: Path, capsys, closed_stdout):
        """``repro-campaign plan spec | head -1`` is not bad input."""
        spec_path = self._write_spec(tmp_path)
        with closed_stdout:
            assert cli_main(["plan", str(spec_path)]) == 0
        assert capsys.readouterr().err == ""


class TestCliResilience:
    """Run flags: --chaos, quarantine reporting, and the refusal of
    settings that cannot act."""

    def _write_spec(self, tmp_path: Path, n_points: int = 3) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_synthetic_spec(n_points).to_dict()))
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--point-timeout", "0", "point_timeout_s must be positive"),
            ("--point-timeout", "-1", "point_timeout_s must be positive"),
            ("--respawn-budget", "-1", "respawn_budget must be non-negative"),
            ("--point-timeout", "inf", "point_timeout_s must be finite"),
            ("--hang-timeout", "nan", "hang_timeout_s must be positive"),
            ("--hang-timeout", "inf", "hang_timeout_s must be finite"),
        ],
    )
    def test_settings_that_cannot_act_exit_2(self, tmp_path: Path, capsys, flag, value, message):
        """A timeout that never fires or a negative budget is refused
        with one line, as ``--hang-timeout 0`` is, before anything runs."""
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", str(spec_path), "--out-dir", str(out), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_hang_with_zero_point_timeout_refused(self, tmp_path: Path):
        """A zero point timeout does not pass for a deadline that could
        recover an injected hang: the run exits 2 before any point
        instead of wedging on the hour-long sleep.  Run in its own
        process group under a 30 s ceiling, so a wedge fails the test
        and takes its workers with it."""
        import os
        import signal
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
        )
        out = tmp_path / "pt0"
        argv = [
            sys.executable, "-m", "repro.campaign.cli", "run",
            str(root / "examples" / "method_grid.yaml"), "--out-dir", str(out),
            "--no-trace-store", "--chaos", "hang@1", "--point-timeout", "0",
        ]
        proc = subprocess.Popen(
            argv, env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("--point-timeout 0 wedged the run on the injected hang")
        assert proc.returncode == 2
        assert stdout == ""
        assert stderr.splitlines() == ["error: point_timeout_s must be positive"]
        assert not out.exists()  # no point computed, none checkpointed

    def test_huge_point_timeout_is_armed(self, tmp_path: Path, capsys):
        """A budget past the interval timer's range arms the timer's cap
        instead of failing every attempt with an overflow."""
        spec_path = self._write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(spec_path), "--out-dir", str(out), "--no-trace-store",
             "--quiet", "--limit", "2", "--point-timeout", "1e12"]
        ) == 0
        captured = capsys.readouterr()
        assert "2 point(s) (0 resumed, 2 computed)" in captured.out
        assert "quarantined" not in captured.out
