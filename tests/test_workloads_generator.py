"""Unit tests for workload specs, intent generation, and trace collection."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import new_node, old_node
from repro.storage import ConstantLatencyDevice, SATA_600
from repro.trace import OpType
from repro.workloads import (
    WORKLOAD_SPECS,
    IdleProcess,
    SizeMix,
    WorkloadSpec,
    collect_trace,
    generate_intents,
)
from repro.workloads.catalog import EXTRA_SPECS, get_spec

_TAIL = (8, 16, 64, 256)

#: ``SizeMix.for_average_kb`` of every catalog entry and of the
#: ``WorkloadSpec`` default, as the 600-step scalar search computed them.
PINNED_MIXES = {
    "24HR": (_TAIL, (0.7291597751749546, 0.20052700502762483, 0.05514714485683309, 0.015166074940587542)),
    "24HRS": (_TAIL, (0.3794617116814416, 0.27544957297142736, 0.19994762294709906, 0.14514109240003198)),
    "BS": (_TAIL, (0.478678504143155, 0.2742251868941035, 0.15709803652393933, 0.08999827243880218)),
    "CFS": (_TAIL, (0.6865092622361959, 0.22020315548520233, 0.0706318652245033, 0.022655717054098492)),
    "DADS": (_TAIL, (0.3794617116814416, 0.27544957297142736, 0.19994762294709906, 0.14514109240003198)),
    "DAP": (_TAIL, (0.07941748523910407, 0.1468563199215369, 0.27156209537440257, 0.5021640994649565)),
    "DDR": (_TAIL, (0.4244090882225976, 0.27694529446792127, 0.18071878820770224, 0.11792682910177875)),
    "MSNFS": (_TAIL, (0.6612842227051491, 0.23043532316725954, 0.08029896425772667, 0.027981489869864682)),
    "ikki": (_TAIL, (0.9075071463187118, 0.08399837390400734, 0.0077748443603324405, 0.0007196354169483431)),
    "madmax": (_TAIL, (0.9762724178318513, 0.02316488613202099, 0.000549653907770159, 1.3042128357772695e-05)),
    "online": (_TAIL, (0.9900000099000001, 0.009900000099000002, 9.900000099000003e-05, 9.900000099000002e-07)),
    "topgun": ((4, 8, 16), (0.06499999999999995, 0.935, 0.0001)),
    "webmail": (_TAIL, (0.9900000099000001, 0.009900000099000002, 9.900000099000003e-05, 9.900000099000002e-07)),
    "casa": (_TAIL, (0.9900000099000001, 0.009900000099000002, 9.900000099000003e-05, 9.900000099000002e-07)),
    "webresearch": (_TAIL, (0.9900000099000001, 0.009900000099000002, 9.900000099000003e-05, 9.900000099000002e-07)),
    "webusers": (_TAIL, (0.9605291432036107, 0.03791514816689296, 0.0014966317999710252, 5.9076829525365534e-05)),
    "mail+online": (_TAIL, (0.9900000099000001, 0.009900000099000002, 9.900000099000003e-05, 9.900000099000002e-07)),
    "homes": (_TAIL, (0.8618963423960023, 0.11930375065704749, 0.016514033324786244, 0.0022858736221637887)),
    "mds": (_TAIL, (0.3348892965002336, 0.27042088881949733, 0.21836307661709914, 0.17632673806317)),
    "prn": (_TAIL, (0.5629069625550135, 0.26059758272099115, 0.1206435603705769, 0.05585189435341848)),
    "proj": (_TAIL, (0.3694943827154524, 0.27463953493011467, 0.2041353743791984, 0.15173070797523466)),
    "prxy": (_TAIL, (0.7166087952334763, 0.20663050849594214, 0.05958085823853291, 0.01717983803204873)),
    "rsrch": (_TAIL, (0.7229469363649277, 0.20358119502736252, 0.057328278029866814, 0.016143590577842818)),
    "src1": (_TAIL, (0.31060513109997606, 0.2661033096674771, 0.22797746825757656, 0.19531409097497035)),
    "src2": (_TAIL, (0.26831952007394744, 0.25571649639461136, 0.24370543935943936, 0.23225854417200179)),
    "stg": (_TAIL, (0.40943670186890896, 0.2768328949823184, 0.1871753347818543, 0.1265550683669184)),
    "web": (_TAIL, (0.7718978189875796, 0.17774685875324064, 0.040930217730221166, 0.009425104528958476)),
    "wdev": (_TAIL, (0.3251215671792743, 0.26882262715454186, 0.22227256560442843, 0.18378324006175542)),
    "usr": (_TAIL, (0.28684908675544146, 0.2607340816536096, 0.2369966106732308, 0.21542022091771806)),
    "hm": (_TAIL, (0.5673534952181165, 0.2595654957630449, 0.11875179611753962, 0.05432921290129904)),
    "ts": (_TAIL, (0.7068642276739241, 0.2111883334578237, 0.06309629267201666, 0.018851146196235576)),
    "Exchange": (_TAIL, (0.3447180555486394, 0.27184536179932534, 0.21437780685490923, 0.16905877579712608)),
    "default": (_TAIL, (0.7352485272043395, 0.19747096829206945, 0.053036193715992455, 0.014244310787598656)),
}


class TestSizeMix:
    def test_mean_and_probabilities(self):
        mix = SizeMix(sizes=(8, 16), weights=(1.0, 1.0))
        assert mix.mean_sectors() == pytest.approx(12.0)
        assert mix.mean_kb() == pytest.approx(6.0)
        np.testing.assert_allclose(mix.probabilities, [0.5, 0.5])

    @pytest.mark.parametrize("avg_kb", [4.0, 8.27, 10.71, 28.79, 74.42])
    def test_for_average_kb_hits_target(self, avg_kb):
        mix = SizeMix.for_average_kb(avg_kb)
        assert mix.mean_kb() == pytest.approx(avg_kb, rel=0.15)

    def test_for_average_kb_has_size_variety(self):
        # The inference model needs at least two sizes per op type.
        for avg in (4.0, 9.0, 40.0):
            assert len(SizeMix.for_average_kb(avg).sizes) >= 3

    @staticmethod
    def _scalar_search(avg_kb):
        """The reference: the ratio grid walked one step at a time, first minimum kept."""
        buckets_kb = np.array([4.0, 8.0, 32.0, 128.0])
        best = None
        for r in np.geomspace(0.01, 12.0, 600):
            w = r ** np.arange(len(buckets_kb), dtype=np.float64)
            err = abs(float(np.dot(buckets_kb, w) / w.sum()) - avg_kb)
            if best is None or err < best[0]:
                best = (err, w)
        return tuple(float(x) for x in best[1] / best[1].sum())

    def test_vectorised_search_equals_scalar_search(self):
        for avg_kb in np.linspace(4.0, 130.0, 64).tolist() + [10.71, 74.42]:
            assert SizeMix.for_average_kb(avg_kb).weights == self._scalar_search(avg_kb), avg_kb

    def test_catalog_mixes_are_pinned(self):
        """Every catalog mix, to the last bit: traces and store keys depend on them."""
        specs = {**WORKLOAD_SPECS, **EXTRA_SPECS, "default": WorkloadSpec(name="default")}
        got = {name: (spec.size_mix.sizes, spec.size_mix.weights) for name, spec in specs.items()}
        assert got == PINNED_MIXES

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeMix(sizes=(), weights=())
        with pytest.raises(ValueError):
            SizeMix(sizes=(8,), weights=(-1.0,))
        with pytest.raises(ValueError):
            SizeMix(sizes=(0,), weights=(1.0,))


class TestIdleProcess:
    def test_idle_fraction_respected(self, rng):
        proc = IdleProcess(idle_fraction=0.3, idle_median_us=1e5)
        flags = [proc.sample_think(rng)[1] for _ in range(5000)]
        assert np.mean(flags) == pytest.approx(0.3, abs=0.03)

    def test_idles_longer_than_bursts(self, rng):
        proc = IdleProcess(idle_fraction=0.5, idle_median_us=1e5, cpu_burst_mean_us=40.0)
        idles, bursts = [], []
        for _ in range(2000):
            value, is_idle = proc.sample_think(rng)
            (idles if is_idle else bursts).append(value)
        assert np.median(idles) > 100 * np.median(bursts)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdleProcess(idle_fraction=1.5)


class TestWorkloadSpec:
    def test_scaled(self, mixed_spec):
        assert mixed_spec.scaled(123).n_requests == 123
        # Other fields unchanged.
        assert mixed_spec.scaled(123).seed == mixed_spec.seed

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", n_requests=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", address_space_sectors=4)


class TestGenerateIntents:
    def test_deterministic(self, mixed_spec):
        a = generate_intents(mixed_spec)
        b = generate_intents(mixed_spec)
        np.testing.assert_array_equal(a.lbas, b.lbas)
        np.testing.assert_array_equal(a.thinks, b.thinks)

    def test_read_fraction_approximate(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        read_frac = np.mean(stream.ops == int(OpType.READ))
        assert read_frac == pytest.approx(mixed_spec.read_fraction, abs=0.08)

    def test_async_fraction_approximate(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert np.mean(~stream.syncs) == pytest.approx(mixed_spec.async_fraction, abs=0.05)

    def test_sequential_continuations_share_op(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        seq_mask = stream.lbas[1:] == stream.lbas[:-1] + stream.sizes[:-1]
        same_op = stream.ops[1:] == stream.ops[:-1]
        assert same_op[seq_mask].all()

    def test_first_request_has_no_think(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert stream.thinks[0] == 0.0
        assert not stream.is_idle[0]

    def test_idle_accounting(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert stream.idle_count() == int(stream.is_idle.sum())
        assert stream.total_idle_us() == pytest.approx(stream.thinks[stream.is_idle].sum())

    def test_lbas_within_address_space(self, mixed_spec):
        stream = generate_intents(mixed_spec)
        assert (stream.lbas >= 0).all()
        # Sequential runs may extend a little past a jump target but
        # must stay within the configured space plus one max run.
        assert stream.lbas.max() < mixed_spec.address_space_sectors * 1.01


#: SHA-256 over the dtype and bytes of all six ``IntentStream`` columns,
#: two catalog workloads per family at two sizes.  Collected traces,
#: trace-store entries and every figure derive from these streams, so a
#: faster generator must reproduce them bit for bit.
PINNED_INTENT_DIGESTS = {
    ("MSNFS", 700): "44dd50f7cf1e54157420595f387e8bfb4e387d2de4012f5e9409d6e293425c10",
    ("MSNFS", 5000): "96556db3f44b89de5cb711430cfbc9f6b3a434f4a13781d4f7e57116c8dbc651",
    ("DAP", 700): "8361a6bdb779723de820b220a60f474c865f40acd2cb45e93d76462f026a26c4",
    ("DAP", 5000): "66752983e06615fdf4fdd20b87c3414902c4ba5bc618f83b7a2dce1eafb1af3c",
    ("ikki", 700): "a90d05f98fd0fd318f895d1daba7b9fd190be84823dc998e94d0dca2e4b7e0ae",
    ("ikki", 5000): "ce082044cfd2fdad5a3210fc921cb18b1f3f4ec3c36dc9c2ac0e662d65992a8c",
    ("madmax", 700): "899fae8bfe5dfb05ebb8b6636fd8b34d2d4cbdbe141aee6a4332e8d6ef202fea",
    ("madmax", 5000): "a9383f4e75562d04b9a4936238d0440bfcbcd133e56c66f8d5b6cd97df964cd5",
    ("usr", 700): "993145f08539bc3c2efb717b2ef289dc46fc2320193e8fe0a66e7cb8fd05c12c",
    ("usr", 5000): "1da39dd41e719514df289c3d9d6f291d4c41044580da47e73cecda487ac006aa",
    ("rsrch", 700): "f8b29d9bac3b94778924fa7951ea48c19252698004a6034e25915b282876557a",
    ("rsrch", 5000): "9d78c142e1f1d89b88f77312fe11de621449b189244a9ed2b04df8b17646fb80",
}


class TestIntentDigests:
    @staticmethod
    def _digest(stream) -> str:
        digest = hashlib.sha256()
        for name in ("ops", "lbas", "sizes", "thinks", "is_idle", "syncs"):
            column = getattr(stream, name)
            digest.update(f"{name}:{column.dtype.str}:".encode())
            digest.update(np.ascontiguousarray(column).tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("workload, n_requests", list(PINNED_INTENT_DIGESTS))
    def test_catalog_streams_are_pinned(self, workload, n_requests):
        stream = generate_intents(get_spec(workload).scaled(n_requests))
        assert self._digest(stream) == PINNED_INTENT_DIGESTS[(workload, n_requests)]


class TestCollectTrace:
    @pytest.mark.parametrize("node", [old_node, new_node], ids=["old", "new"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_refuses_non_finite_or_negative_think(self, node, bad):
        stream = generate_intents(get_spec("MSNFS").scaled(50))
        thinks = stream.thinks.copy()
        thinks[10] = bad
        thinks[20] = bad
        with pytest.raises(ValueError, match="think 10 is"):
            collect_trace(replace(stream, thinks=thinks), node())

    def test_sync_semantics_gap_includes_service(self):
        # All-sync, no idle: each gap = previous completion + think(0).
        spec = WorkloadSpec(
            name="sync",
            n_requests=50,
            async_fraction=0.0,
            idle=IdleProcess(idle_fraction=0.0, cpu_burst_mean_us=10.0),
            seq_run_continue=0.0,
            seed=3,
        )
        device = ConstantLatencyDevice(SATA_600, read_us=500.0, write_us=500.0)
        trace = collect_trace(generate_intents(spec), device)
        gaps = trace.inter_arrival_times()
        # Every gap must exceed the 500 us device time (sync wait).
        assert (gaps > 500.0).all()

    def test_async_requests_produce_short_gaps(self):
        spec = WorkloadSpec(
            name="async",
            n_requests=200,
            async_fraction=1.0,
            idle=IdleProcess(idle_fraction=0.0, cpu_burst_mean_us=10.0),
            seq_run_continue=0.0,
            seed=3,
        )
        device = ConstantLatencyDevice(SATA_600, read_us=500.0, write_us=500.0)
        trace = collect_trace(generate_intents(spec), device)
        gaps = trace.inter_arrival_times()
        # Async submitters only pay channel delay + burst, far below 500us.
        assert np.median(gaps) < 200.0

    def test_device_stamps_optional(self, mixed_spec, const_device):
        stream = generate_intents(mixed_spec.scaled(100))
        with_dev = collect_trace(stream, const_device, record_device_times=True)
        without = collect_trace(stream, const_device, record_device_times=False)
        assert with_dev.has_device_times
        assert not without.has_device_times
        np.testing.assert_allclose(with_dev.timestamps, without.timestamps)

    def test_sync_flags_recorded_when_asked(self, mixed_spec, const_device):
        stream = generate_intents(mixed_spec.scaled(100))
        trace = collect_trace(stream, const_device, record_sync_flags=True)
        assert trace.has_sync_flags
        assert trace.syncs is not None
        np.testing.assert_array_equal(trace.syncs, stream.syncs)

    def test_metadata_carries_ground_truth(self, mixed_spec, const_device):
        stream = generate_intents(mixed_spec.scaled(100))
        trace = collect_trace(stream, const_device)
        assert trace.metadata["n_user_idles"] == stream.idle_count()
        assert trace.metadata["collected_on"] == const_device.name

    def test_same_pattern_different_devices(self, mixed_spec, hdd, flash):
        # The paper's OLD/NEW methodology: identical request patterns,
        # different timing.
        stream = generate_intents(mixed_spec.scaled(300))
        old = collect_trace(stream, hdd)
        new = collect_trace(stream, flash)
        np.testing.assert_array_equal(old.lbas, new.lbas)
        np.testing.assert_array_equal(old.ops, new.ops)
        assert old.duration > new.duration  # flash is faster
