#!/usr/bin/env python
"""Build the API reference and lint the documentation tree.

Two jobs, both runnable locally and in CI:

- **API reference generation** (``--out docs/api``): walk every module
  of the ``repro`` package and emit one markdown page per module
  (module docstring, public classes with their public methods, public
  functions, all with signatures) plus an ``index.md``.  A
  ``repro*.md`` page in the output directory that this run did not
  write (the page of a deleted module) is removed; other files are
  left alone.  When `pdoc
  <https://pdoc.dev>`_ is importable and ``--pdoc`` is given, pdoc's
  HTML output is produced instead; the built-in generator keeps the
  docs buildable in environments without it (the reference markdown in
  the repository comes from the built-in generator, so diffs review
  well).

- **Lint** (always): a missing module docstring, or a missing
  docstring on any public class/function/method defined in the
  package, is a warning; ``--strict`` turns warnings into a non-zero
  exit.  ``--check-links`` additionally verifies that every relative
  markdown link in ``README.md`` and ``docs/**/*.md`` points at a file
  that exists.

Usage::

    PYTHONPATH=src python docs/build_docs.py --strict --check-links
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "docs" / "api"

#: Markdown files whose relative links --check-links verifies.
LINKED_DOCS = ("README.md", "docs")


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------


def iter_module_names(package_name: str = "repro") -> list[str]:
    """Every module in the package, sorted, including the root."""
    package = importlib.import_module(package_name)
    names = [package_name]
    for info in pkgutil.walk_packages(package.__path__, prefix=f"{package_name}."):
        names.append(info.name)
    return sorted(names)


def public_members(module) -> list[tuple[str, object]]:
    """Public top-level classes and functions defined *by* this module."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out.append((name, obj))
    return out


def public_methods(cls) -> list[tuple[str, object]]:
    """Public methods/properties defined directly on ``cls``."""
    out = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            out.append((name, member))
        elif inspect.isfunction(member):
            out.append((name, member))
        elif isinstance(member, (classmethod, staticmethod)):
            out.append((name, member.__func__))
    return out


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _first_paragraph(doc: str) -> str:
    return doc.split("\n\n", 1)[0].strip()


def audit_module(module) -> list[str]:
    """Docstring warnings for one module (empty = clean)."""
    warnings = []
    if not inspect.getdoc(module):
        warnings.append(f"{module.__name__}: missing module docstring")
    for name, obj in public_members(module):
        if not inspect.getdoc(obj):
            warnings.append(f"{module.__name__}.{name}: missing docstring")
        if inspect.isclass(obj):
            for mname, member in public_methods(obj):
                target = member.fget if isinstance(member, property) else member
                if not inspect.getdoc(target):
                    warnings.append(
                        f"{module.__name__}.{name}.{mname}: missing docstring"
                    )
    return warnings


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------


def render_module(module) -> str:
    """One module's API reference page as markdown."""
    lines = [f"# `{module.__name__}`", ""]
    doc = inspect.getdoc(module)
    if doc:
        lines += [doc, ""]
    classes = [(n, o) for n, o in public_members(module) if inspect.isclass(o)]
    functions = [(n, o) for n, o in public_members(module) if inspect.isfunction(o)]
    for name, cls in sorted(classes):
        lines += [f"## class `{name}`", ""]
        cls_doc = inspect.getdoc(cls)
        if cls_doc:
            lines += [cls_doc, ""]
        for mname, member in sorted(public_methods(cls)):
            if isinstance(member, property):
                lines += [f"### property `{name}.{mname}`", ""]
                mdoc = inspect.getdoc(member.fget) if member.fget else None
            else:
                lines += [f"### `{name}.{mname}{_signature(member)}`", ""]
                mdoc = inspect.getdoc(member)
            if mdoc:
                lines += [_first_paragraph(mdoc), ""]
    for name, fn in sorted(functions):
        lines += [f"## `{name}{_signature(fn)}`", ""]
        fn_doc = inspect.getdoc(fn)
        if fn_doc:
            lines += [fn_doc, ""]
    return "\n".join(lines).rstrip() + "\n"


def build_api(out_dir: Path, module_names: list[str]) -> list[str]:
    """Write one markdown page per module plus an index; returns warnings.

    Module pages left over from an earlier build that this one did not
    write are deleted, so the directory holds the current modules only.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    index = ["# API reference", "", "Generated by `docs/build_docs.py`; do not edit by hand.", ""]
    written: set[str] = set()
    for name in module_names:
        module = importlib.import_module(name)
        warnings.extend(audit_module(module))
        page = f"{name}.md"
        (out_dir / page).write_text(render_module(module), encoding="utf-8")
        written.add(page)
        doc = inspect.getdoc(module)
        hook = _first_paragraph(doc).splitlines()[0] if doc else ""
        index.append(f"- [`{name}`]({page}) — {hook}")
    (out_dir / "index.md").write_text("\n".join(index) + "\n", encoding="utf-8")
    for stale in out_dir.glob("repro*.md"):
        if stale.name not in written:
            stale.unlink()
    return warnings


def build_api_pdoc(out_dir: Path) -> None:
    """HTML reference via pdoc (only when pdoc is importable)."""
    import pdoc  # noqa: F401  (gated optional dependency)
    import pdoc.web  # noqa: F401

    from pdoc import pdoc as run_pdoc

    run_pdoc("repro", output_directory=out_dir)


# ----------------------------------------------------------------------
# Link checking
# ----------------------------------------------------------------------

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(root: Path) -> list[str]:
    """Dead relative links in README.md and docs/**/*.md."""
    warnings = []
    files = [root / "README.md"] if (root / "README.md").exists() else []
    docs_dir = root / "docs"
    if docs_dir.exists():
        files.extend(sorted(docs_dir.rglob("*.md")))
    for path in files:
        text = path.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                warnings.append(
                    f"{path.relative_to(root)}: dead link -> {target}"
                )
    return warnings


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Build the reference, run the lint, report warnings."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="API output directory")
    parser.add_argument("--strict", action="store_true", help="exit non-zero on any warning")
    parser.add_argument("--check-links", action="store_true", help="verify relative markdown links")
    parser.add_argument(
        "--pdoc", action="store_true",
        help="use pdoc (HTML) instead of the built-in markdown generator",
    )
    args = parser.parse_args(argv)

    if args.pdoc:
        try:
            build_api_pdoc(args.out)
            warnings: list[str] = []
        except ImportError:
            print("pdoc is not installed; falling back to the built-in generator", file=sys.stderr)
            warnings = build_api(args.out, iter_module_names())
    else:
        warnings = build_api(args.out, iter_module_names())
    if args.check_links:
        warnings.extend(check_links(REPO_ROOT))

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"docs built into {args.out} ({len(warnings)} warning(s))")
    if warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
