"""TraceTracker core: pipeline, configuration, and baseline methods."""

from .baselines import (
    Acceleration,
    Dynamic,
    FixedThreshold,
    ReconstructionMethod,
    Revision,
    TraceTrackerMethod,
    standard_methods,
)
from .config import TraceTrackerConfig
from .pipeline import ReconstructionResult, TraceTracker
from .stages import (
    EmulateStage,
    InferStage,
    MetricsStage,
    PostprocessStage,
    ReconstructionMetrics,
    StreamedReconstruction,
    StreamingReconstructionSession,
)

__all__ = [
    "Acceleration",
    "Dynamic",
    "FixedThreshold",
    "ReconstructionMethod",
    "Revision",
    "TraceTrackerMethod",
    "standard_methods",
    "TraceTrackerConfig",
    "ReconstructionResult",
    "TraceTracker",
    "InferStage",
    "EmulateStage",
    "PostprocessStage",
    "MetricsStage",
    "ReconstructionMetrics",
    "StreamedReconstruction",
    "StreamingReconstructionSession",
]
