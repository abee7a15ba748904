"""Scenario campaign engine: declarative device x workload sweeps.

The paper's promise is that a reconstructed trace can be re-evaluated
against *any* storage configuration.  This package is the orchestration
layer that makes that practical at scale:

- :mod:`~repro.campaign.spec` — a declarative campaign description
  (:class:`CampaignSpec`), loadable from YAML/JSON, naming the device
  grid, the workload selection, the method and size axes, and the
  action to run at every grid point;
- :mod:`~repro.campaign.devices` — the device registry that turns a
  small parameter dict (``{"kind": "flash_array", "n_ssds": 2}``) into
  a concrete :class:`~repro.storage.device.StorageDevice`;
- :mod:`~repro.campaign.plan` — deterministic cross-product expansion
  into :class:`RunPoint` grid points with stable, content-derived run
  keys (the unit of checkpointing and resumption);
- :mod:`~repro.campaign.engine` — :class:`CampaignEngine`, which runs
  the plan inline at ``jobs=1`` and across supervised worker processes
  otherwise, checkpoints every completed run key to disk, and resumes
  interrupted campaigns without recomputing anything;
- :mod:`~repro.campaign.results` — :class:`ResultsTable`, the columnar
  aggregate consumed by the ``repro-campaign`` CLI and the reporting
  helpers;
- :mod:`~repro.campaign.supervise` — the fault-tolerance substrate:
  retry/backoff policies with a transient-vs-permanent error taxonomy,
  per-point wall-clock timeouts, poison-point quarantine, the
  heartbeat-and-lease :class:`SupervisedExecutor` behind every
  multi-process run, and the deterministic chaos-injection harness the
  ``tests/chaos`` suite drives.

The paper figures that sweep the workload catalog
(:func:`~repro.experiments.figures.fig13_intt_gap` and friends) are
defined *as* campaign specs, so a new scenario — a RAID-width scan, a
device grid, a queue-depth sweep — is a ten-line YAML file rather than
a new module.  See ``examples/*.yaml`` and ``docs/architecture.md``.
"""

from .devices import DEVICE_KINDS, DEVICE_PRESETS, build_device
from .engine import CampaignEngine, CampaignResult, run_campaign
from .plan import CampaignPlan, RunPoint, expand, run_key
from .results import ResultsTable
from .spec import CampaignSpec, DeviceSpec, load_spec, loads_spec
from .supervise import (
    ChaosSpec,
    PermanentPointError,
    PointTimeout,
    Resilience,
    RetryPolicy,
    SupervisedExecutor,
    SupervisionError,
    TransientPointError,
    classify_error,
)

__all__ = [
    "CampaignEngine",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "ChaosSpec",
    "DEVICE_KINDS",
    "DEVICE_PRESETS",
    "DeviceSpec",
    "PermanentPointError",
    "PointTimeout",
    "Resilience",
    "ResultsTable",
    "RetryPolicy",
    "RunPoint",
    "SupervisedExecutor",
    "SupervisionError",
    "TransientPointError",
    "build_device",
    "classify_error",
    "expand",
    "load_spec",
    "loads_spec",
    "run_campaign",
    "run_key",
]
