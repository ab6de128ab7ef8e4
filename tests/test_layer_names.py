"""Every function the benchmark's per-layer trace names must still resolve.

``bench/layers.py`` finds each traced function by its dotted name, and a
traced run counts a name that no longer resolves as a failed op.  The file
is read and executed here, not imported, so nothing is written next to it.
"""

from __future__ import annotations

import importlib
import pkgutil
import types
from pathlib import Path

import cocycle_forge

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers() -> types.ModuleType:
    module = types.ModuleType("layers")
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), module.__dict__)
    return module


def test_every_benchmark_layer_name_resolves():
    for info in pkgutil.iter_modules(cocycle_forge.__path__):
        importlib.import_module(f"{cocycle_forge.__name__}.{info.name}")
    _, missing = _layers().layer_metrics({}, "cocycle_forge")
    assert missing == []
