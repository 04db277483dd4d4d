"""Check that every function the benchmark tracer wraps still exists.

    PYTHONPATH=src python3 tools/tracer_targets.py

Imports every module of the diracpl on PYTHONPATH, then installs and
uninstalls perfbench/tracer.py's Tracer, which looks up each of its TARGETS
by name: a renamed or dropped function raises here.  Prints the number of
targets and exits 0 when all of them resolve.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import diracpl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import TARGETS, Tracer  # noqa: E402

for module in pkgutil.iter_modules(diracpl.__path__):
    importlib.import_module(f"diracpl.{module.name}")
with Tracer():
    pass
print(f"all {len(TARGETS)} tracer targets resolve")
