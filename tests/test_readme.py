"""The README's python blocks run as written, in order, in one namespace."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_python_blocks_run():
    blocks = _python_blocks()
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["bad"].where == (1, 3, 4)
