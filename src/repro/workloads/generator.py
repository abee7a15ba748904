"""Synthetic workload generation and trace collection.

The paper's verification methodology issues a known request pattern to
an HDD node (producing the "OLD" trace) and to a flash node (producing
the ground-truth "NEW" trace).  We reproduce that exactly, except the
nodes are simulators:

1. a :class:`WorkloadSpec` describes an application's behaviour — size
   mix, read ratio, sequentiality, CPU bursts, user idle process,
   async fraction;
2. :func:`generate_intents` expands the spec into a deterministic
   *intent stream*: the device-independent sequence of requests plus
   the host-side think time preceding each one;
3. :func:`collect_trace` replays the intent stream against any
   :class:`~repro.storage.device.StorageDevice` with proper sync/async
   semantics and records what a block-layer tracer would see.

Because the same intent stream can be collected on different devices,
OLD/NEW trace pairs share their user behaviour by construction — the
property every verification experiment in Section V relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..replay.qdepth import submit_stream
from ..storage.device import StorageDevice
from ..trace.record import OpType
from ..trace.trace import BlockTrace

__all__ = ["SizeMix", "IdleProcess", "WorkloadSpec", "IntentStream", "generate_intents", "collect_trace"]


@dataclass(frozen=True, slots=True)
class SizeMix:
    """Discrete request-size mixture (sectors, probability weights)."""

    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must be equal-length and non-empty")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")

    @property
    def probabilities(self) -> np.ndarray:
        """Normalised weights."""
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()

    def mean_sectors(self) -> float:
        """Expected request size in sectors."""
        return float(np.dot(self.sizes, self.probabilities))

    def mean_kb(self) -> float:
        """Expected request size in KB."""
        return self.mean_sectors() * 512 / 1024

    @classmethod
    def for_average_kb(cls, avg_kb: float) -> "SizeMix":
        """Construct a plausible mixture with the requested mean size.

        Server traces are dominated by 4 KB pages with a tail of larger
        transfers; we keep a fixed shape — 4 KB, 8 KB, 32 KB, 128 KB
        buckets — and tune the tail weight to hit ``avg_kb``.  At least
        three distinct sizes are always present because the inference
        model needs two per operation type (plus variety for realism).
        """
        if avg_kb < 4.0:
            # Mostly 4 KB with a sliver of sub-page 2 KB requests.
            small_w = min(0.9, (4.0 - avg_kb) / 2.0)
            return cls(sizes=(4, 8, 16), weights=(small_w, 1.0 - small_w, 0.0001))
        buckets_kb = np.array([4.0, 8.0, 32.0, 128.0])
        # Weights: geometric with ratio r; solve r for the mean.  Ratios
        # below 1 give 4 KB-dominated mixes, above 1 large-transfer-heavy
        # ones (the mean spans ~4.6 KB to ~116 KB over this sweep).  The
        # grid is searched at once (argmin keeps the first minimum); the
        # chosen ratio's weights are then computed as a scalar.
        powers = np.arange(len(buckets_kb), dtype=np.float64)
        grid = np.geomspace(0.01, 12.0, 600)
        w = grid[:, None] ** powers
        err = np.abs(w @ buckets_kb / w.sum(axis=1) - avg_kb)
        w = grid[int(np.argmin(err))] ** powers
        weights = w / w.sum()
        return cls(
            sizes=tuple(int(kb * 2) for kb in buckets_kb),
            weights=tuple(float(x) for x in weights),
        )


@dataclass(frozen=True, slots=True)
class IdleProcess:
    """User/system idleness model.

    With probability ``idle_fraction`` the host inserts a *user idle*
    before preparing the next request; otherwise only a short CPU burst
    (mode switches, buffer copies, address translation — the costs
    Section II attributes to the storage stack) separates requests.

    Idle periods are log-normal: ``exp(N(log(median_us), sigma))``,
    which produces the heavy right tail Figures 16/17 report (most idle
    *time* lives in the >100 ms bucket even when idle *events* are a
    minority).

    The two log-medians are computed once, at construction, into slots
    outside ``repr`` and equality, so the spec's description (which
    keys the trace store) and its comparisons are those of the five
    parameters alone.
    """

    idle_fraction: float = 0.2
    idle_median_us: float = 20_000.0
    idle_sigma: float = 1.6
    cpu_burst_mean_us: float = 40.0
    cpu_burst_sigma: float = 0.6
    _log_idle_median: float = field(init=False, repr=False, compare=False)
    _log_burst_mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_fraction <= 1.0:
            raise ValueError("idle_fraction must lie in [0, 1]")
        if self.idle_median_us < 0 or self.cpu_burst_mean_us < 0:
            raise ValueError("durations must be non-negative")
        object.__setattr__(self, "_log_idle_median", np.log(max(self.idle_median_us, 1e-9)))
        object.__setattr__(self, "_log_burst_mean", np.log(max(self.cpu_burst_mean_us, 1e-9)))

    def sample_think(self, rng: np.random.Generator) -> tuple[float, bool]:
        """Draw one think time; returns ``(microseconds, is_user_idle)``."""
        if rng.random() < self.idle_fraction:
            return float(rng.lognormal(self._log_idle_median, self.idle_sigma)), True
        return float(rng.lognormal(self._log_burst_mean, self.cpu_burst_sigma)), False


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Deterministic description of one synthetic workload.

    Attributes mirror the knobs the paper's workloads differ in; the
    catalog (:mod:`repro.workloads.catalog`) instantiates 31 of these
    from Table I and the idle statistics of Figures 16/17.
    """

    name: str
    category: str = "synthetic"
    n_requests: int = 8_000
    read_fraction: float = 0.6
    seq_run_continue: float = 0.5
    size_mix: SizeMix = field(default_factory=lambda: SizeMix.for_average_kb(8.0))
    idle: IdleProcess = field(default_factory=IdleProcess)
    async_fraction: float = 0.2
    address_space_sectors: int = 200_000_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        for label, value in (
            ("read_fraction", self.read_fraction),
            ("seq_run_continue", self.seq_run_continue),
            ("async_fraction", self.async_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1]")
        if self.address_space_sectors <= max(self.size_mix.sizes):
            raise ValueError("address space must exceed the largest request size")

    def scaled(self, n_requests: int) -> "WorkloadSpec":
        """Copy with a different request count (same behaviour otherwise)."""
        return replace(self, n_requests=n_requests)


@dataclass(frozen=True, slots=True)
class IntentStream:
    """Device-independent request stream with ground-truth host behaviour.

    Columns (all length ``n``):

    - ``ops``, ``lbas``, ``sizes`` — the block requests;
    - ``thinks`` — host-side delay (µs) *before* each request is ready,
      relative to the moment the host became free;
    - ``is_idle`` — whether that delay was a user idle (vs a CPU burst);
    - ``syncs`` — whether the host blocks on this request's completion.
    """

    ops: np.ndarray
    lbas: np.ndarray
    sizes: np.ndarray
    thinks: np.ndarray
    is_idle: np.ndarray
    syncs: np.ndarray
    spec: WorkloadSpec

    def __len__(self) -> int:
        return len(self.ops)

    def idle_count(self) -> int:
        """Number of user-idle gaps in the stream."""
        return int(self.is_idle.sum())

    def total_idle_us(self) -> float:
        """Summed user-idle time (µs)."""
        return float(self.thinks[self.is_idle].sum())


def generate_intents(spec: WorkloadSpec) -> IntentStream:
    """Expand a :class:`WorkloadSpec` into its deterministic intent stream.

    The spatial process alternates sequential runs and random jumps:
    after each request the stream continues sequentially with
    probability ``seq_run_continue``, otherwise it jumps to a uniform
    random aligned address.  Sequential continuations keep the current
    operation type (real streams are homogeneous); jumps re-draw it.

    Sizes and sync flags are drawn as whole columns up front; the rest
    is one draw sequence per request, so the loop runs over Python
    scalars with the generator's methods bound once and builds each
    column from a list at the end.
    """
    rng = np.random.default_rng(spec.seed)
    random, integers, sample_think = rng.random, rng.integers, spec.idle.sample_think
    read_op, write_op = int(OpType.READ), int(OpType.WRITE)
    read_fraction, seq_run_continue = spec.read_fraction, spec.seq_run_continue
    space = spec.address_space_sectors
    sizes_choices = np.asarray(spec.size_mix.sizes, dtype=np.int64)
    sizes = rng.choice(sizes_choices, size=spec.n_requests, p=spec.size_mix.probabilities)
    syncs = random(spec.n_requests) >= spec.async_fraction
    current_op = read_op if random() < read_fraction else write_op
    cursor = int(integers(0, space // 2))
    ops: list[int] = []
    lbas: list[int] = []
    thinks: list[float] = []
    flags: list[bool] = []
    for i, size in enumerate(sizes.tolist()):
        if i == 0 or random() >= seq_run_continue:
            # Random jump: new aligned location, re-draw the op type.
            cursor = int(integers(0, space - size))
            cursor -= cursor % 8  # 4 KB alignment, as filesystems issue
            current_op = read_op if random() < read_fraction else write_op
        ops.append(current_op)
        lbas.append(cursor)
        cursor += size
        think, idle_flag = sample_think(rng)
        thinks.append(think)
        flags.append(idle_flag)
    # The first request has no preceding gap to model.
    thinks[0] = 0.0
    flags[0] = False
    return IntentStream(
        ops=np.array(ops, dtype=np.int8),
        lbas=np.array(lbas, dtype=np.int64),
        sizes=sizes,
        thinks=np.array(thinks, dtype=np.float64),
        is_idle=np.array(flags, dtype=bool),
        syncs=syncs,
        spec=spec,
    )


def collect_trace(
    intents: IntentStream,
    device: StorageDevice,
    record_device_times: bool = True,
    record_sync_flags: bool = False,
    name: str | None = None,
) -> BlockTrace:
    """Issue an intent stream to a device and record the block trace.

    Submission semantics follow the paper's Figure 2b:

    - the host becomes *free* at the previous request's completion when
      it was synchronous, or at its channel acknowledgement when it was
      asynchronous;
    - the next request is submitted ``think`` microseconds after the
      host became free (CPU burst or user idle);
    - the tracer records the submit time below the block layer, plus
      issue/completion stamps when ``record_device_times`` (an MSPS or
      MSRC style collection; pass ``False`` for an FIU-style trace).

    The device is reset before collection so runs are reproducible.

    This is the replay engines' submission rule with the intent
    stream's sync flags as the per-request wait flags (see
    :mod:`repro.replay.qdepth`): the clock starts at the first think
    time and each later think time is the gap after its predecessor.
    :func:`~repro.replay.qdepth.submit_stream` picks the loop, so
    collection takes the same per-device loop as replay — the priced
    FIFO loop on single-FIFO-server devices that price the stream up
    front, the streaming flash loop on flash devices, and the event loop
    over ``device._service`` otherwise.
    """
    metadata = {
        "category": intents.spec.category,
        "collected_on": device.name,
        "n_user_idles": intents.idle_count(),
        "total_user_idle_us": intents.total_idle_us(),
    }
    thinks = intents.thinks
    bad = np.flatnonzero(~np.isfinite(thinks) | (thinks < 0))
    if bad.size:
        # As the replay entry points refuse such idle: a NaN think
        # would poison every later stamp, a negative one go unseen.
        i = int(bad[0])
        raise ValueError(f"think times must be finite and non-negative; think {i} is {thinks[i]}")
    # The host is free at time 0 and thinks before its first request.
    lead = 0.0 + float(thinks[0]) if len(thinks) else 0.0
    gap = np.zeros(len(thinks), dtype=np.float64)
    gap[:-1] = thinks[1:]
    submits, __, __, finishes = submit_stream(
        device, intents.ops, intents.lbas, intents.sizes, gap, lead=lead, wait=intents.syncs
    )
    return BlockTrace(
        timestamps=submits,
        lbas=intents.lbas,
        sizes=intents.sizes,
        ops=intents.ops,
        issues=submits if record_device_times else None,
        completes=finishes if record_device_times else None,
        syncs=intents.syncs if record_sync_flags else None,
        name=name if name is not None else intents.spec.name,
        metadata=metadata,
    )
