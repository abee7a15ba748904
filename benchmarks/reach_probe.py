"""Which ``src/repro`` functions no workload enters.

Runs, in this one process under ``sys.setprofile`` and
``threading.setprofile``:

- the four timed regions of ``perfbench/rep.py``, on inputs that
  ``perfbench/inputs.py`` writes at perfbench's sizes;
- ``repro.experiments.runner --fast --no-trace-store``;
- every ``examples/*.yaml`` through ``repro-campaign run --jobs 1``,
  so each campaign point runs in this process.

It then prints every function defined under ``src/repro`` that none of
them entered, with its line count, module by module.  A function
listed here is reached, if at all, only by tests, benchmarks or inputs
outside this set — the evidence for deleting a fast path no workload
uses.  The profiler sees Python frames of this process only:
``campaign-grid`` computes its points in worker processes, which the
examples cover in-process instead.  Input set-up is not probed.

Usage::

    PYTHONPATH=src python benchmarks/reach_probe.py [--seed N]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys
import tempfile
import threading
import time
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "perfbench"))

import rep  # noqa: E402  (perfbench's timed regions)
import run as perfbench  # noqa: E402  (perfbench's sizes and input set-up)

from repro.campaign import cli as campaign_cli  # noqa: E402
from repro.experiments import runner  # noqa: E402


def defined_functions(path: Path) -> Iterator[tuple[int, str, int]]:
    """``(first line, dotted name, line count)`` of every ``def`` in a module.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[int, str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                yield first, name, child.end_lineno - first + 1
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), "")


@contextlib.contextmanager
def probed(codes: dict[int, object]) -> Iterator[None]:
    """Record the code object of every Python call made inside the block."""

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # Keyed by id, holding the object so the id stays unique:
            # hashing a code object hashes its whole body on every call.
            codes[id(code)] = code

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def run_workloads(seed: int, work: Path, codes: dict[int, object]) -> None:
    """Every workload the module docstring lists, each under the probe."""
    sink = open(os.devnull, "w", encoding="utf-8")
    for workload, region in rep.REGIONS.items():
        inp, out = work / workload / "input", work / workload / "out"
        inp.mkdir(parents=True)
        out.mkdir(parents=True)
        perfbench.setup(workload, inp, seed, perfbench.SIZES)
        start = time.perf_counter()
        with probed(codes), contextlib.redirect_stdout(sink):
            region(inp, out)
        print(f"probed {workload}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    argv = ["--fast", "--no-trace-store", "--out", str(work / "report.txt")]
    start = time.perf_counter()
    with probed(codes), contextlib.redirect_stdout(sink):
        runner.main(argv)
    print(f"probed repro-report --fast: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for spec in sorted((ROOT / "examples").glob("*.yaml")):
        argv = [
            "run", str(spec), "--jobs", "1",
            "--out-dir", str(work / "campaigns" / spec.stem),
            "--trace-store-dir", str(work / "store"),
            "--quiet",
        ]
        start = time.perf_counter()
        with probed(codes), contextlib.redirect_stdout(sink):
            code = campaign_cli.main(argv)
        if code:
            raise SystemExit(f"repro-campaign run {spec.name} exited with {code}")
        print(f"probed {spec.name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sink.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3, help="perfbench input seed (default 3)")
    args = parser.parse_args(argv)
    codes: dict[int, object] = {}
    with tempfile.TemporaryDirectory(prefix="reach-probe-") as tmp:
        run_workloads(args.seed, Path(tmp), codes)
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes.values()}
    total_fns = total_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        missed = [
            (name, n_lines)
            for first, name, n_lines in defined_functions(path)
            if (real, first) not in entered
        ]
        if not missed:
            continue
        print(f"{path.relative_to(PACKAGE.parent)}: {len(missed)} never entered")
        for name, n_lines in missed:
            print(f"  {name}  ({n_lines} lines)")
        total_fns += len(missed)
        total_lines += sum(n for __, n in missed)
    print(f"{total_fns} functions ({total_lines} lines) never entered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
