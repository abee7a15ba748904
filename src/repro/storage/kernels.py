"""Columnar (structure-of-arrays) kernels for the device-model hot path.

The flash/array/RAID emulation layer services page extents with
per-page Python loops over die/channel busy lists (`flash.py`), and
fans requests out over members with per-request Python loops
(`array.py`, `raid.py`).  This module holds the vectorized
replacements: a NumPy *wave decomposition* of the page-occupancy
recurrences and a grouped unique-shape evaluator for whole request
streams.  Every kernel is **bit-identical** to the scalar code it
replaces — it performs the same IEEE-754 operations in the same
order — and the scalar code is retained as the oracle
(`tests/test_device_kernels_identity.py` enforces the identity, in CI
under both engines).

Wave decomposition
------------------
A request's pages are consecutive, and pages stripe over dies
round-robin (``die_slot = page % total_dies``) with
``channel = page % channels``.  Page ``i`` of the request is therefore
visit number ``i // total_dies`` ("wave") of its die and visit number
``i // channels`` ("round") of its channel.  The scalar per-page
recurrences factor into:

- per-die chains — an elementwise vector recurrence across waves
  (``cur = cur + op_us``), because consecutive visits to one die are
  one wave apart;
- per-channel transfer chains — an elementwise vector recurrence
  across rounds, with a gather from the die matrix where the read
  chain feeds the transfer chain (reads) or vice versa (programs).

Both reproduce the scalar chains addition-for-addition: ``max`` is
order-insensitive for the values involved and ``fl(max(a, b) + c)``
equals ``max(fl(a + c), fl(b + c))`` is never relied upon — each chain
applies the exact scalar operation sequence, just one vector lane per
die/channel.

Engine selection
----------------
``columnar_enabled()`` gates every columnar path; setting the
environment variable ``REPRO_SCALAR_KERNELS=1`` (read at import, or
via :func:`set_force_scalar` in tests) forces the retained scalar
oracles everywhere so CI can exercise both engines.  The per-page wave
kernels additionally only engage above :data:`COLUMNAR_MIN_PAGES`
pages — below that, list indexing beats NumPy's per-call overhead —
but remain bit-identical at every size.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "COLUMNAR_MIN_PAGES",
    "columnar_enabled",
    "set_force_scalar",
    "page_span",
    "group_shapes",
    "read_wave_kernel",
    "program_wave_kernel",
]

#: Page count above which the wave kernels beat the scalar walk
#: (below it, Python-list indexing wins on per-call overhead; measured
#: break-even ~64 pages on the default geometry, see
#: ``benchmarks/bench_pipeline.py`` stage ``flash_read_pages``).
COLUMNAR_MIN_PAGES = 64

_FORCE_SCALAR = os.environ.get("REPRO_SCALAR_KERNELS", "") not in ("", "0")


def columnar_enabled() -> bool:
    """Whether the columnar kernels are engaged (env-gated, see module doc)."""
    return not _FORCE_SCALAR


def set_force_scalar(force: bool) -> None:
    """Test hook: force the retained scalar oracles on or off."""
    global _FORCE_SCALAR
    _FORCE_SCALAR = force


def page_span(lbas, sizes, page_sectors: int):
    """``(first_page, n_pages)`` of the page extent touching a sector extent.

    Works elementwise on arrays and on plain ints — the single
    definition shared by the scalar ``_pages_of`` walk and the batch
    kernels, so the two can never disagree on extent math.
    """
    first = lbas // page_sectors
    n_pages = (lbas + sizes - 1) // page_sectors - first + 1
    return first, n_pages


def group_shapes(
    ops: np.ndarray, slots: np.ndarray, n_pages: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group request rows by service shape ``(op, slot, n_pages, size)``.

    Returns ``(uniq, inverse)`` where ``uniq`` is a ``(k, 4)`` int64
    array of the distinct shapes and ``inverse`` maps each input row to
    its shape index — the scatter side of the grouped service kernels.
    Shapes are packed into one int64 key when the value ranges allow
    (the common case — one ``np.unique`` over a flat array), falling
    back to row-wise ``np.unique`` otherwise.
    """
    ops = np.asarray(ops, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    n_pages = np.asarray(n_pages, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(ops) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.intp)
    m_op = int(ops.max()) + 1
    m_slot = int(slots.max()) + 1
    m_np = int(n_pages.max()) + 1
    m_size = int(sizes.max()) + 1
    if float(m_op) * m_slot * m_np * m_size < 2**62:
        packed = ((ops * m_slot + slots) * m_np + n_pages) * m_size + sizes
        uniq_packed, inverse = np.unique(packed, return_inverse=True)
        rest, u_sizes = np.divmod(uniq_packed, m_size)
        rest, u_np = np.divmod(rest, m_np)
        u_ops, u_slots = np.divmod(rest, m_slot)
        uniq = np.column_stack([u_ops, u_slots, u_np, u_sizes])
        return uniq, inverse
    rows = np.column_stack([ops, slots, n_pages, sizes])
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inverse.reshape(-1)


def _per_die_op_us(
    counts: np.ndarray, base_us: float, planes_per_die: int, plane_interleave: bool
) -> np.ndarray:
    """Vector twin of ``FlashSSD._page_op_us`` over per-die page counts."""
    if not plane_interleave:
        return np.full(len(counts), base_us, dtype=np.float64)
    denom = np.maximum(1, np.minimum(planes_per_die, counts))
    return np.where(counts <= 1, base_us, base_us / denom)


def read_wave_kernel(
    first_page: int,
    n_pages: int,
    t_ready: float,
    die_busy: list[float],
    chan_busy: list[float],
    channels: int,
    total_dies: int,
    read_us: float,
    xfer_us: float,
    planes_per_die: int,
    plane_interleave: bool,
) -> float:
    """Columnar ``_read_pages``: die read chains, then channel transfers.

    Mutates ``die_busy``/``chan_busy`` (Python lists, the live
    simulator state, slot-indexed: die ``page % total_dies``, channel
    ``page % channels``) exactly as the scalar walk would and returns
    the request finish time.  Bit-identical to the retained scalar
    ``FlashSSD._read_pages`` for every page count and state.
    """
    base = first_page % total_dies
    slots = (base + np.arange(n_pages, dtype=np.int64)) % total_dies
    counts = np.bincount(slots, minlength=total_dies)
    ru = _per_die_op_us(counts, read_us, planes_per_die, plane_interleave)
    db0 = np.fromiter(die_busy, dtype=np.float64, count=len(die_busy))
    waves = -(-n_pages // total_dies)
    rd = np.empty((waves, total_dies), dtype=np.float64)
    cur = np.maximum(t_ready, db0) + ru
    rd[0] = cur
    for w in range(1, waves):
        cur = cur + ru
        rd[w] = cur
    # Channel transfer chains: round j of channel c is page
    # (ch_off[c] + j*channels).  The read_done feed is gathered as one
    # (rounds, channels) matrix; only the last round can be partial,
    # and the chain is monotone per channel, so the final chain value
    # is both the commit stamp and the per-channel maximum.
    ch_off = (np.arange(channels, dtype=np.int64) - base) % channels
    cb0 = np.fromiter(chan_busy, dtype=np.float64, count=len(chan_busy))
    rounds = -(-n_pages // channels)
    pages = ch_off[None, :] + np.arange(rounds, dtype=np.int64)[:, None] * channels
    # Out-of-range lanes of the (only possibly partial) last round are
    # masked below; clip their gather indices to stay in bounds.
    safe = np.minimum(pages, n_pages - 1)
    feed = rd[safe // total_dies, (base + safe) % total_dies]
    x = cb0.copy()
    maximum = np.maximum
    for j in range(rounds - 1):
        x = maximum(feed[j], x) + xfer_us
    last_active = pages[rounds - 1] < n_pages
    if last_active.all():
        x = maximum(feed[rounds - 1], x) + xfer_us
        visited = np.arange(channels)
    else:
        # Channels inactive in the (only possibly partial) last round
        # keep their chain value from the earlier full rounds.
        xa = maximum(feed[rounds - 1, last_active], x[last_active]) + xfer_us
        x[last_active] = xa
        visited = np.nonzero(ch_off < n_pages)[0]
    xv = x[visited]
    m = xv.max()
    finish = float(m) if m > t_ready else t_ready
    # Commit: final die read stamp is its last wave; channels their chain.
    present = np.nonzero(counts)[0]
    die_final = rd[counts[present] - 1, present]
    for s, v in zip(present.tolist(), die_final.tolist()):
        die_busy[s] = v
    for c, v in zip(visited.tolist(), xv.tolist()):
        chan_busy[c] = v
    return finish


def program_wave_kernel(
    first_page: int,
    n_pages: int,
    t_ready: float,
    die_busy: list[float],
    chan_busy: list[float],
    channels: int,
    total_dies: int,
    program_us: float,
    xfer_us: float,
    planes_per_die: int,
    plane_interleave: bool,
) -> float:
    """Columnar ``_program_pages``: channel transfers, then die programs.

    Same contract as :func:`read_wave_kernel`; bit-identical to the
    retained scalar ``FlashSSD._program_pages``.
    """
    base = first_page % total_dies
    slots = (base + np.arange(n_pages, dtype=np.int64)) % total_dies
    counts = np.bincount(slots, minlength=total_dies)
    pu = _per_die_op_us(counts, program_us, planes_per_die, plane_interleave)
    # Channel transfer chains feed the die program chains.  After the
    # first visit x >= t_ready, so max(t_ready, x_prev) is x_prev
    # bitwise and the chain is a pure vector add per round.
    ch_off = (np.arange(channels, dtype=np.int64) - base) % channels
    cb0 = np.fromiter(chan_busy, dtype=np.float64, count=len(chan_busy))
    rounds = -(-n_pages // channels)
    xd = np.empty((rounds, channels), dtype=np.float64)
    xcur = np.maximum(t_ready, cb0) + xfer_us
    xd[0] = xcur
    for j in range(1, rounds):
        xcur = xcur + xfer_us
        xd[j] = xcur
    # Die program chains: wave w of slot s gathers its page's transfer
    # from the channel matrix — one (waves, total_dies) gather, with
    # only the last wave possibly partial.  The chain is monotone per
    # die, so the final value is both the stamp and the per-die max.
    slot_off = (np.arange(total_dies, dtype=np.int64) - base) % total_dies
    slot_ch = np.arange(total_dies, dtype=np.int64) % channels
    cur = np.fromiter(die_busy, dtype=np.float64, count=len(die_busy))
    waves = -(-n_pages // total_dies)
    pages_m = slot_off[None, :] + np.arange(waves, dtype=np.int64)[:, None] * total_dies
    # Clip the masked out-of-range lanes of the partial last wave.
    safe_m = np.minimum(pages_m, n_pages - 1)
    feed = xd[safe_m // channels, np.broadcast_to(slot_ch, pages_m.shape)]
    maximum = np.maximum
    for w in range(waves - 1):
        cur = maximum(feed[w], cur) + pu
    last_active = pages_m[waves - 1] < n_pages
    if last_active.all():
        cur = maximum(feed[waves - 1], cur) + pu
    else:
        pd = maximum(feed[waves - 1, last_active], cur[last_active]) + pu[last_active]
        cur[last_active] = pd
    present = np.nonzero(counts)[0]
    curp = cur[present]
    m = curp.max()
    finish = float(m) if m > t_ready else t_ready
    for s, v in zip(present.tolist(), curp.tolist()):
        die_busy[s] = v
    # A channel's final transfer stamp is its last round's chain value.
    visited = ch_off < n_pages
    last_round = (n_pages - 1 - ch_off[visited]) // channels
    vis_idx = np.nonzero(visited)[0]
    for c, v in zip(vis_idx.tolist(), xd[last_round, vis_idx].tolist()):
        chan_busy[c] = v
    return finish
