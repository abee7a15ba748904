"""Content-addressed result lake: catalog, ingestion, CLI.

The lake turns the repository's flat per-directory artifacts — binary
trace-store entries, campaign checkpoint directories, results tables —
into one queryable, deduplicated system:

- :mod:`~repro.lake.catalog` — the SQLite (WAL-mode) metadata catalog:
  content fingerprints → artifacts, plus every completed campaign grid
  point.  The catalog is a *rebuildable index*; the flat files remain
  the source of truth.
- :mod:`~repro.lake.ingest` — directory-tree ingestion, including the
  full ``--rescan`` rebuild.
- :mod:`~repro.lake.cli` — the ``repro-lake`` command.

Producers integrate at two points: :class:`~repro.trace.io.cache.
TraceStore` registers entries it materialises, and
:class:`~repro.campaign.engine.CampaignEngine` records each completed
point — which is what lets a *new* campaign skip any point a prior
campaign already computed (incremental across runs, not just resumable
within one directory).
"""

from .catalog import SCHEMA_VERSION, LakeCatalog, LakeError, default_lake_path, spec_fingerprint
from .ingest import IngestReport, ingest_campaign_dir, ingest_tree, record_campaign_point

__all__ = [
    "SCHEMA_VERSION",
    "LakeCatalog",
    "LakeError",
    "default_lake_path",
    "spec_fingerprint",
    "IngestReport",
    "ingest_tree",
    "ingest_campaign_dir",
    "record_campaign_point",
]
