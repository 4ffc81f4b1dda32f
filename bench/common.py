"""Paths shared by the benchmark's processes, and the guarded package import.

Every process of the benchmark imports ``girthforge`` from ``src/`` of the
checkout that holds this directory, never from an installed copy, so the
numbers always describe the tree under test.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # inputs, outputs, spans and run records


class PackageMissing(RuntimeError):
    """The checkout has no importable ``src/girthforge``."""


def load_package():
    """Import ``girthforge`` from this checkout's ``src/`` or raise."""
    if not (SRC / "girthforge" / "__init__.py").is_file():
        raise PackageMissing(f"no package source at {SRC / 'girthforge'}")
    if str(SRC) in sys.path:
        sys.path.remove(str(SRC))
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("girthforge")
    where = Path(pkg.__file__).resolve()
    if SRC not in where.parents:
        raise PackageMissing(f"girthforge was imported from {where}, not {SRC}")
    return pkg
