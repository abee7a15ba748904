"""The 31-workload catalog: FIU, MSPS, and MSRC families from Table I.

Every workload the paper reconstructs is represented by a
:class:`~repro.workloads.generator.WorkloadSpec` whose parameters are
matched to the published characteristics:

- average request ("data") size per Table I;
- trace counts per workload per Table I (577 block traces overall);
- idle behaviour per Figures 16/17 — MSPS workloads idle *often* but
  *briefly* (average idle ~0.27 s), FIU and MSRC idle rarely but for a
  long time (averages 2.80 s and 2.25 s, with outliers ``madmax``
  ≈ 20.5 s, ``rsrch`` ≈ 69.2 s, ``wdev`` ≈ 403 s);
- plausible read ratios and sequentiality per the workloads' published
  descriptions (web servers read-heavy, MSRC volumes write-heavy, ...).

Absolute trace sizes are scaled down (default 6 000 requests per trace)
so the whole catalog regenerates in seconds; every consumer can rescale
via :meth:`WorkloadSpec.scaled`.
"""

from __future__ import annotations

from .generator import IdleProcess, SizeMix, WorkloadSpec

__all__ = [
    "WORKLOAD_SPECS",
    "EXTRA_SPECS",
    "TABLE1_N_TRACES",
    "MSPS_WORKLOADS",
    "FIU_WORKLOADS",
    "MSRC_WORKLOADS",
    "ALL_WORKLOADS",
    "STAMPED_FAMILIES",
    "get_spec",
    "workload_names",
    "spec_variants",
]

#: Default per-trace request count for the scaled-down catalog.
_DEFAULT_N = 6_000

# Idle processes per family, tuned to Figures 16/17:
# log-normal mean = median * exp(sigma^2 / 2).
_MSPS_IDLE = IdleProcess(
    idle_fraction=0.55, idle_median_us=10_000.0, idle_sigma=2.4, cpu_burst_mean_us=45.0
)
_FIU_IDLE = IdleProcess(
    idle_fraction=0.20, idle_median_us=250_000.0, idle_sigma=2.2, cpu_burst_mean_us=35.0
)
_MSRC_IDLE = IdleProcess(
    idle_fraction=0.17, idle_median_us=200_000.0, idle_sigma=2.2, cpu_burst_mean_us=40.0
)


def _spec(
    name: str,
    category: str,
    avg_kb: float,
    read_fraction: float,
    seq: float,
    idle: IdleProcess,
    async_fraction: float = 0.2,
    seed: int = 0,
) -> WorkloadSpec:
    """Catalog entry shorthand."""
    return WorkloadSpec(
        name=name,
        category=category,
        n_requests=_DEFAULT_N,
        read_fraction=read_fraction,
        seq_run_continue=seq,
        size_mix=SizeMix.for_average_kb(avg_kb),
        idle=idle,
        async_fraction=async_fraction,
        seed=seed,
    )


def _long_idle(median_s: float) -> IdleProcess:
    """FIU/MSRC-style idle process with a given median idle (seconds)."""
    return IdleProcess(
        idle_fraction=0.18,
        idle_median_us=median_s * 1e6,
        idle_sigma=2.2,
        cpu_burst_mean_us=38.0,
    )


# ----------------------------------------------------------------------
# Microsoft Production Server (2007): 8 workloads.
# ----------------------------------------------------------------------
_MSPS = {
    "24HR": _spec("24HR", "MSPS", 8.27, 0.55, 0.35, _MSPS_IDLE, seed=101),
    "24HRS": _spec("24HRS", "MSPS", 28.79, 0.50, 0.55, _MSPS_IDLE, seed=102),
    "BS": _spec("BS", "MSPS", 20.73, 0.45, 0.45, _MSPS_IDLE, seed=103),
    "CFS": _spec("CFS", "MSPS", 9.71, 0.60, 0.30, _MSPS_IDLE, seed=104),
    "DADS": _spec("DADS", "MSPS", 28.66, 0.65, 0.55, _MSPS_IDLE, seed=105),
    "DAP": _spec("DAP", "MSPS", 74.42, 0.60, 0.70, _MSPS_IDLE, seed=106),
    "DDR": _spec("DDR", "MSPS", 24.78, 0.70, 0.50, _MSPS_IDLE, seed=107),
    "MSNFS": _spec("MSNFS", "MSPS", 10.71, 0.60, 0.35, _MSPS_IDLE, seed=108),
}

# ----------------------------------------------------------------------
# FIU (SRCMap 2008 + IODedup 2009): 10 workloads.
# ----------------------------------------------------------------------
_FIU = {
    "ikki": _spec("ikki", "FIU", 4.64, 0.25, 0.25, _FIU_IDLE, seed=201),
    "madmax": _spec("madmax", "FIU", 4.11, 0.20, 0.20, _long_idle(1.5), seed=202),
    "online": _spec("online", "FIU", 4.00, 0.30, 0.22, _FIU_IDLE, seed=203),
    "topgun": _spec("topgun", "FIU", 3.87, 0.22, 0.20, _FIU_IDLE, seed=204),
    "webmail": _spec("webmail", "FIU", 4.00, 0.35, 0.25, _FIU_IDLE, seed=205),
    "casa": _spec("casa", "FIU", 4.04, 0.28, 0.22, _FIU_IDLE, seed=206),
    "webresearch": _spec("webresearch", "FIU", 4.00, 0.40, 0.25, _FIU_IDLE, seed=207),
    "webusers": _spec("webusers", "FIU", 4.20, 0.45, 0.28, _FIU_IDLE, seed=208),
    "mail+online": _spec("mail+online", "FIU", 4.00, 0.30, 0.22, _FIU_IDLE, seed=209),
    "homes": _spec("homes", "FIU", 5.23, 0.35, 0.30, _FIU_IDLE, seed=210),
}

# ----------------------------------------------------------------------
# MSR Cambridge (2008): 13 workloads.
# ----------------------------------------------------------------------
_MSRC = {
    "mds": _spec("mds", "MSRC", 33.0, 0.30, 0.50, _MSRC_IDLE, seed=301),
    "prn": _spec("prn", "MSRC", 15.4, 0.25, 0.40, _MSRC_IDLE, seed=302),
    "proj": _spec("proj", "MSRC", 29.6, 0.45, 0.60, _MSRC_IDLE, seed=303),
    "prxy": _spec("prxy", "MSRC", 8.6, 0.05, 0.30, _MSRC_IDLE, seed=304),
    "rsrch": _spec("rsrch", "MSRC", 8.4, 0.10, 0.30, _long_idle(5.0), seed=305),
    "src1": _spec("src1", "MSRC", 35.7, 0.45, 0.60, _MSRC_IDLE, seed=306),
    "src2": _spec("src2", "MSRC", 40.9, 0.30, 0.60, _MSRC_IDLE, seed=307),
    "stg": _spec("stg", "MSRC", 26.2, 0.35, 0.50, _MSRC_IDLE, seed=308),
    "web": _spec("web", "MSRC", 7.0, 0.70, 0.35, _MSRC_IDLE, seed=309),
    "wdev": _spec("wdev", "MSRC", 34.0, 0.20, 0.50, _long_idle(30.0), seed=310),
    "usr": _spec("usr", "MSRC", 38.65, 0.55, 0.60, _MSRC_IDLE, seed=311),
    "hm": _spec("hm", "MSRC", 15.16, 0.35, 0.40, _MSRC_IDLE, seed=312),
    "ts": _spec("ts", "MSRC", 9.0, 0.25, 0.35, _MSRC_IDLE, seed=313),
}

#: Every catalog workload, keyed by name.
WORKLOAD_SPECS: dict[str, WorkloadSpec] = {**_MSPS, **_FIU, **_MSRC}

#: Workloads used by individual figures but not part of the 577-trace
#: Table I inventory.  ``Exchange`` is the Microsoft Exchange server
#: collection (5,000 users) the introduction and Figure 3 use.
EXTRA_SPECS: dict[str, WorkloadSpec] = {
    "Exchange": _spec("Exchange", "MSPS-extra", 32.0, 0.55, 0.40, _MSPS_IDLE, seed=150),
}

#: Block-trace counts per workload, exactly as Table I lists them
#: (they sum to 577).
TABLE1_N_TRACES: dict[str, int] = {
    "24HR": 18, "24HRS": 18, "BS": 96, "CFS": 36, "DADS": 48, "DAP": 48,
    "DDR": 24, "MSNFS": 36,
    "ikki": 20, "madmax": 20, "online": 20, "topgun": 20, "webmail": 20,
    "casa": 20, "webresearch": 28, "webusers": 28,
    "mail+online": 21, "homes": 21,
    "mds": 2, "prn": 2, "proj": 5, "prxy": 2, "rsrch": 3, "src1": 3,
    "src2": 3, "stg": 2, "web": 4, "wdev": 4, "usr": 3, "hm": 1, "ts": 1,
}

MSPS_WORKLOADS: tuple[str, ...] = tuple(_MSPS)
FIU_WORKLOADS: tuple[str, ...] = tuple(_FIU)
MSRC_WORKLOADS: tuple[str, ...] = tuple(_MSRC)
ALL_WORKLOADS: tuple[str, ...] = tuple(WORKLOAD_SPECS)

#: Families whose traces carry device (issue/completion) stamps:
#: Section V's ":math:`T_{sdev}` known" group.  FIU traces do not.
STAMPED_FAMILIES: tuple[str, ...] = ("MSPS", "MSRC")


def get_spec(name: str) -> WorkloadSpec:
    """Look up a catalog workload by name (extras like ``Exchange`` included).

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    if name in WORKLOAD_SPECS:
        return WORKLOAD_SPECS[name]
    if name in EXTRA_SPECS:
        return EXTRA_SPECS[name]
    known = sorted(WORKLOAD_SPECS) + sorted(EXTRA_SPECS)
    raise KeyError(f"unknown workload {name!r}; catalog has {known}")


def workload_names(category: str | None = None) -> tuple[str, ...]:
    """Workload names, optionally filtered by family (``MSPS``/``FIU``/``MSRC``)."""
    if category is None:
        return ALL_WORKLOADS
    names = tuple(n for n, s in WORKLOAD_SPECS.items() if s.category == category)
    if not names:
        raise ValueError(f"unknown category {category!r}; use 'MSPS', 'FIU' or 'MSRC'")
    return names


def spec_variants(name: str, count: int | None = None) -> list[WorkloadSpec]:
    """Per-trace spec variants of one workload (distinct seeds).

    ``count`` defaults to the Table I trace count for the workload —
    asking for the full catalog this way regenerates all 577 traces.
    """
    base = get_spec(name)
    n = TABLE1_N_TRACES.get(name, 1) if count is None else count
    if n <= 0:
        raise ValueError("variant count must be positive")
    return [
        WorkloadSpec(
            name=base.name,
            category=base.category,
            n_requests=base.n_requests,
            read_fraction=base.read_fraction,
            seq_run_continue=base.seq_run_continue,
            size_mix=base.size_mix,
            idle=base.idle,
            async_fraction=base.async_fraction,
            address_space_sectors=base.address_space_sectors,
            seed=base.seed * 1000 + k,
        )
        for k in range(n)
    ]
