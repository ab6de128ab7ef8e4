"""Each module hides one decision, so the imports between them are pinned.

``census`` enumerates and fingerprints cocycles and lists ideal chains; it
reads no identity, decomposition, generator or realization code, and nothing
of the sweep.  The sweep's private kernels and walks are read by no other
module.  The imports are read from the source with ``ast``, so a lazy import
inside a function counts too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cocycle_forge

SRC = Path(cocycle_forge.__file__).resolve().parent


def _imports(module: str):
    """(sibling module, name) for each name the package module imports from
    a sibling; ``from . import x`` gives (x, "")."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or ""
        elif (node.module or "").startswith("cocycle_forge."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            yield (source.split(".")[0], alias.name) if source else (alias.name, "")


def test_census_imports_nothing_of_the_sweep_or_the_identities():
    banned = {"decomposition", "generators", "semilinear", "sweep"}
    assert [pair for pair in _imports("census") if pair[0] in banned] == []


def _sweep_privates(module: str):
    return [name for source, name in _imports(module) if source == "sweep" and name.startswith("_")]


def test_cli_imports_no_sweep_private():
    assert _sweep_privates("cli") == []


def test_no_other_module_imports_a_sweep_private():
    others = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "sweep")
    assert [(module, name) for module in others for name in _sweep_privates(module)] == []
