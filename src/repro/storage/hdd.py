"""Hard disk drive model (Ruemmler & Wilkes style).

This is the "OLD" storage node of the paper: the 2007-2009 systems the
public traces were collected on, and the enterprise disk used to
calibrate :math:`T_{movd}`.  The model captures the mechanics the
inference model must later recover from timing alone:

- **seek** — square-root curve in cylinder distance, calibrated so the
  average random seek matches the datasheet number;
- **rotational latency** — uniform in one revolution for non-sequential
  accesses (deterministic via a seeded RNG);
- **media transfer** — request size over the track transfer rate;
- **streaming** — an access that starts exactly where the previous one
  ended skips both seek and rotation (the head is already there);
- **optional write-back cache** — absorbs writes at transfer speed
  until the cache is full, then throttles to media speed.

The sum "seek + rotation" is precisely what the paper calls the moving
delay :math:`T_{movd}`; the per-sector transfer slope is what the
:math:`\\beta` / :math:`\\eta` coefficients recover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.record import SECTOR_BYTES, OpType
from .channel import SATA_300, InterfaceChannel
from .device import StorageDevice

__all__ = ["HDDGeometry", "HDDModel"]


@dataclass(frozen=True, slots=True)
class HDDGeometry:
    """Mechanical parameters of the simulated disk.

    Defaults approximate a 7200 rpm enterprise SATA drive of the trace
    collection era (~2007): 8.5 ms average seek, ~100 MB/s media rate.
    """

    rpm: float = 7200.0
    avg_seek_ms: float = 8.5
    track_to_track_ms: float = 0.8
    sectors_per_track: int = 1600
    heads: int = 4
    total_sectors: int = 2 * 1024**3 // 512 * 1000  # ~1 TB in sectors

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise ValueError("rpm must be positive")
        if self.avg_seek_ms < self.track_to_track_ms:
            raise ValueError("average seek cannot be below track-to-track seek")
        if self.sectors_per_track <= 0 or self.heads <= 0 or self.total_sectors <= 0:
            raise ValueError("geometry counts must be positive")

    @property
    def rotation_us(self) -> float:
        """One full revolution in microseconds."""
        return 60e6 / self.rpm

    @property
    def sectors_per_cylinder(self) -> int:
        """Sectors under the heads without seeking."""
        return self.sectors_per_track * self.heads

    @property
    def cylinders(self) -> int:
        """Number of cylinders implied by capacity and track density."""
        return max(1, self.total_sectors // self.sectors_per_cylinder)

    @property
    def transfer_us_per_sector(self) -> float:
        """Media transfer time per sector (one track per revolution)."""
        return self.rotation_us / self.sectors_per_track

    def cylinder_of(self, lba: int) -> int:
        """Cylinder containing ``lba`` (clamped to the last cylinder)."""
        return min(lba // self.sectors_per_cylinder, self.cylinders - 1)

    def seek_us(self, distance_cylinders: int) -> float:
        """Seek time for a cylinder distance, square-root law.

        ``seek(d) = t2t + k * sqrt(d)`` with ``k`` calibrated so a seek
        across one third of the disk (the classic average random seek
        distance) costs ``avg_seek_ms``.
        """
        if distance_cylinders < 0:
            raise ValueError("distance must be non-negative")
        if distance_cylinders == 0:
            return 0.0
        avg_distance = max(1.0, self.cylinders / 3.0)
        k = (self.avg_seek_ms - self.track_to_track_ms) * 1e3 / np.sqrt(avg_distance)
        return self.track_to_track_ms * 1e3 + k * float(np.sqrt(distance_cylinders))


class HDDModel(StorageDevice):
    """Single-spindle disk with a seeded pseudo-random rotational phase.

    Parameters
    ----------
    geometry:
        Mechanical description; defaults to :class:`HDDGeometry()`.
    channel:
        Host link; defaults to SATA II, the era-appropriate interface.
    write_back_cache_kb:
        Size of the on-drive write cache.  0 (default) disables it —
        disabled is the configuration the inference model's linear
        :math:`T_{sdev}` assumption describes, and matches enterprise
        deployments that disable volatile caches for durability.
    seed:
        RNG seed for rotational phases (reproducible runs).
    """

    def __init__(
        self,
        geometry: HDDGeometry | None = None,
        channel: InterfaceChannel = SATA_300,
        write_back_cache_kb: int = 0,
        seed: int = 42,
    ) -> None:
        super().__init__(channel)
        self.geometry = geometry or HDDGeometry()
        self.write_back_cache_kb = write_back_cache_kb
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._busy_until = 0.0
        self._head_cylinder = 0
        self._last_end_lba = -1
        self._cache_drain_at = 0.0  # virtual time the write cache is drained

    @property
    def name(self) -> str:
        """Human-readable model name."""
        return f"hdd({self.geometry.rpm:.0f}rpm)"

    def fingerprint(self) -> str:
        return (
            f"{super().fingerprint()}|{self.geometry!r}"
            f"|cache={self.write_back_cache_kb}|seed={self._seed}"
        )

    def reset(self) -> None:
        """Cold state: head at cylinder 0, caches empty, RNG reseeded."""
        super().reset()
        self._rng = np.random.default_rng(self._seed)
        self._busy_until = 0.0
        self._head_cylinder = 0
        self._last_end_lba = -1
        self._cache_drain_at = 0.0

    # ------------------------------------------------------------------

    def _mechanical_us(self, lba: int, sequential: bool) -> float:
        """Seek + rotational delay (:math:`T_{movd}`) for this access."""
        if sequential:
            return 0.0
        target = self.geometry.cylinder_of(lba)
        seek = self.geometry.seek_us(abs(target - self._head_cylinder))
        rotation = float(self._rng.uniform(0.0, self.geometry.rotation_us))
        return seek + rotation

    def _service(self, op: OpType, lba: int, size: int, t_ready: float) -> tuple[float, float]:
        sequential = lba == self._last_end_lba
        start = max(t_ready, self._busy_until)
        transfer = size * self.geometry.transfer_us_per_sector
        cache_bytes = self.write_back_cache_kb * 1024
        if op is OpType.WRITE and cache_bytes > 0 and self._cache_fits(size, start, cache_bytes):
            # Write-back hit: ack at electronic speed, drain in background.
            finish = start + max(1.0, transfer * 0.05)
            self._cache_drain_at = max(self._cache_drain_at, start) + self._mechanical_us(
                lba, sequential
            ) + transfer
            self._busy_until = finish
        else:
            # One fused add of (mechanical + transfer) so the scalar and
            # vectorised batch paths round identically.
            finish = start + (self._mechanical_us(lba, sequential) + transfer)
            self._busy_until = finish
        self._head_cylinder = self.geometry.cylinder_of(lba + size - 1)
        self._last_end_lba = lba + size
        return start, finish

    fifo_single_server = True

    def supports_batch(self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray) -> bool:
        """Gap-invariant unless the write-back cache is enabled.

        With the cache on, admission depends on how far the drain
        backlog runs ahead of *wall-clock* submission times, so
        latencies are no longer a function of request order alone.
        """
        return self.write_back_cache_kb == 0

    def _service_batch(
        self, ops: np.ndarray, lbas: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Vectorised seek/rotation/transfer model.

        Reproduces the scalar :meth:`_service` arithmetic elementwise —
        including the order of the rotational-phase RNG draws (one per
        non-sequential request) — so results are bit-identical.  No
        extent end ``lba + size`` is formed in int64: an extent may end
        past sector ``2**63 - 1``, which the scalar path's Python ints
        hold, so sequentiality and the end cylinder come from
        differences and remainders.
        """
        g = self.geometry
        lbas = np.asarray(lbas, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(lbas)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        spc = g.sectors_per_cylinder
        sequential = np.empty(n, dtype=bool)
        sequential[0] = int(lbas[0]) == self._last_end_lba
        sequential[1:] = lbas[1:] - sizes[:-1] == lbas[:-1]
        end_cyl = np.minimum(lbas // spc + (lbas % spc + (sizes - 1)) // spc, g.cylinders - 1)
        head = np.concatenate([[self._head_cylinder], end_cyl[:-1]])
        target = np.minimum(lbas // spc, g.cylinders - 1)
        distance = np.abs(target - head)
        avg_distance = max(1.0, g.cylinders / 3.0)
        k = (g.avg_seek_ms - g.track_to_track_ms) * 1e3 / np.sqrt(avg_distance)
        seek = np.where(
            distance == 0, 0.0, g.track_to_track_ms * 1e3 + k * np.sqrt(distance)
        )
        rotation = np.zeros(n, dtype=np.float64)
        non_seq = ~sequential
        n_draws = int(non_seq.sum())
        if n_draws:
            # Same generator stream as n scalar uniform() calls.
            rotation[non_seq] = self._rng.uniform(0.0, g.rotation_us, n_draws)
        mechanical = np.where(sequential, 0.0, seek + rotation)
        svc = mechanical + sizes * g.transfer_us_per_sector
        self._head_cylinder = int(end_cyl[-1])
        self._last_end_lba = int(lbas[-1]) + int(sizes[-1])
        return svc

    def _cache_fits(self, size: int, now: float, cache_bytes: int) -> bool:
        """Crude cache admission: accept while the drain backlog is short.

        The backlog is represented by how far ``_cache_drain_at`` runs
        ahead of ``now``; we admit while that lead is under the time it
        would take to drain a full cache.
        """
        full_drain_us = cache_bytes / SECTOR_BYTES * self.geometry.transfer_us_per_sector
        backlog_us = max(0.0, self._cache_drain_at - now)
        return backlog_us + size * self.geometry.transfer_us_per_sector < full_drain_us

    @property
    def expected_movd_us(self) -> float:
        """Analytic mean moving delay (seek + half rotation).

        This is the ground truth the :math:`T_{movd}` inference
        (Section III, Figure 7a) should approximately recover.
        """
        avg_distance = max(1.0, self.geometry.cylinders / 3.0)
        return self.geometry.seek_us(int(avg_distance)) + self.geometry.rotation_us / 2.0
