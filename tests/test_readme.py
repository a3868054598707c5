"""The README's python blocks run as written, and the package exports what
it lists."""

import re
from pathlib import Path

import hermsurf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_listed_export_resolves():
    missing = [name for name in hermsurf.__all__ if not hasattr(hermsurf, name)]
    assert missing == []
    assert len(set(hermsurf.__all__)) == len(hermsurf.__all__)
