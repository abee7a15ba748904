"""The documentation system stays green: API build + link check.

``docs/build_docs.py`` is what CI runs with ``--strict``; these tests
run the same code in-process so a missing public docstring or a dead
relative markdown link fails the tier-1 suite too.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def build_docs():
    """The ``docs/build_docs.py`` module, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "build_docs", REPO_ROOT / "docs" / "build_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["build_docs"] = module
    spec.loader.exec_module(module)
    return module


def test_api_build_has_zero_warnings(build_docs, tmp_path: Path):
    names = build_docs.iter_module_names()
    assert "repro.campaign.engine" in names and "repro.core.stages" in names
    warnings = build_docs.build_api(tmp_path, names)
    assert warnings == []
    # One page per module plus the index, each carrying real content.
    assert (tmp_path / "index.md").exists()
    assert len(list(tmp_path.glob("*.md"))) == len(names) + 1
    stages = (tmp_path / "repro.core.stages.md").read_text(encoding="utf-8")
    assert "## class `StagedReconstructionPipeline`" in stages


def test_committed_api_reference_is_present(build_docs):
    committed = REPO_ROOT / "docs" / "api"
    assert (committed / "index.md").exists()
    assert (committed / "repro.campaign.spec.md").exists()
    assert (committed / "repro.trace.io.reader.md").exists()
    # Exactly one page per current module plus the index: a stale
    # committed page is invisible to a diff of the regenerated directory.
    pages = {path.stem for path in committed.glob("*.md")}
    assert pages == set(build_docs.iter_module_names()) | {"index"}


def test_stale_module_pages_removed(build_docs, tmp_path: Path):
    """A rebuild deletes the page of a module that no longer exists and
    leaves files that are not module pages alone."""
    (tmp_path / "repro.gone.md").write_text("# stale\n")
    (tmp_path / "notes.md").write_text("kept\n")
    build_docs.build_api(tmp_path, ["repro", "repro.core.stages"])
    pages = sorted(path.name for path in tmp_path.glob("*.md"))
    assert pages == ["index.md", "notes.md", "repro.core.stages.md", "repro.md"]


def test_markdown_links_resolve(build_docs):
    assert build_docs.check_links(REPO_ROOT) == []


def test_dead_link_detected(build_docs, tmp_path: Path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("[broken](docs/missing.md) [ok](#x)")
    warnings = build_docs.check_links(tmp_path)
    assert len(warnings) == 1 and "missing.md" in warnings[0]


def test_cli_strict_mode(build_docs, tmp_path: Path, capsys):
    assert build_docs.main(["--out", str(tmp_path / "api"), "--strict", "--check-links"]) == 0
    out = capsys.readouterr().out
    assert "0 warning(s)" in out
