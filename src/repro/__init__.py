"""TraceTracker reproduction: hardware/software co-evaluation for
large-scale I/O workload reconstruction (Kwon et al., IISWC 2017).

Quick start::

    from repro import (
        TraceTracker, FlashArray, HDDModel,
        get_spec, generate_intents, collect_trace,
    )

    spec = get_spec("MSNFS")
    old = collect_trace(generate_intents(spec), HDDModel())
    result = TraceTracker().reconstruct(old, FlashArray())
    print(result.trace)

Subpackages
-----------
``repro.trace``
    Block trace data layer: records, containers, parsers, writers.
``repro.analysis``
    Distributions, Algorithm 1 steepness, pchip/spline interpolation.
``repro.storage``
    Device simulators: HDD, flash SSD, all-flash array, channels.
``repro.workloads``
    Synthetic workload specs (the 31-workload catalog), generation,
    trace collection, idle injection.
``repro.inference``
    The software-evaluation half: latency model inference and idle
    extraction.
``repro.replay``
    The hardware-evaluation half: replayer, collector, async revival.
``repro.core``
    The TraceTracker pipeline and the baseline methods.
``repro.metrics``
    Verification statistics, trace comparisons, idle breakdowns.
``repro.experiments``
    Evaluation nodes, OLD/NEW pairs, per-figure experiments, the
    parallel experiment runner (``repro-report``).
``repro.campaign``
    Declarative device x workload sweep campaigns with resumable
    sharded execution (``repro-campaign``).
``repro.service``
    Always-on streaming reconstruction daemon that tails one trace
    file, with group-committed crash recovery and poison-record
    quarantine (``repro-serve``).
"""

from .campaign import (
    CampaignEngine,
    CampaignSpec,
    DeviceSpec,
    ResultsTable,
    load_spec,
    run_campaign,
)
from .core import (
    Acceleration,
    Dynamic,
    FixedThreshold,
    ReconstructionMethod,
    ReconstructionResult,
    Revision,
    TraceTracker,
    TraceTrackerConfig,
    TraceTrackerMethod,
    standard_methods,
)
from .inference import (
    IdleExtraction,
    InferenceConfig,
    InferenceReport,
    LatencyModel,
    estimate_model,
    extract_idle,
)
from .storage import (
    ConstantLatencyDevice,
    FlashArray,
    FlashGeometry,
    FlashSSD,
    HDDGeometry,
    HDDModel,
    InterfaceChannel,
    StorageDevice,
)
from .trace import (
    BlockTrace,
    IORecord,
    OpType,
    TraceBuilder,
    TraceReader,
    TraceStore,
    dump_trace,
    load_trace,
    load_trace_npz,
    save_trace_npz,
)
from .workloads import (
    WorkloadSpec,
    collect_trace,
    generate_intents,
    get_spec,
    inject_idles,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "CampaignEngine",
    "CampaignSpec",
    "DeviceSpec",
    "ResultsTable",
    "load_spec",
    "run_campaign",
    "Acceleration",
    "Dynamic",
    "FixedThreshold",
    "ReconstructionMethod",
    "ReconstructionResult",
    "Revision",
    "TraceTracker",
    "TraceTrackerConfig",
    "TraceTrackerMethod",
    "standard_methods",
    "IdleExtraction",
    "InferenceConfig",
    "InferenceReport",
    "LatencyModel",
    "estimate_model",
    "extract_idle",
    "ConstantLatencyDevice",
    "FlashArray",
    "FlashGeometry",
    "FlashSSD",
    "HDDGeometry",
    "HDDModel",
    "InterfaceChannel",
    "StorageDevice",
    "BlockTrace",
    "IORecord",
    "OpType",
    "TraceBuilder",
    "TraceReader",
    "TraceStore",
    "load_trace",
    "load_trace_npz",
    "save_trace_npz",
    "dump_trace",
    "WorkloadSpec",
    "collect_trace",
    "generate_intents",
    "get_spec",
    "inject_idles",
    "workload_names",
    "__version__",
]
