"""The README's Python examples run as written against the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    """Each ```python block, padded with blank lines so tracebacks name README lines."""
    return [
        "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        for m in re.finditer(r"```python\n(.*?)```", text, re.S)
    ]


def test_python_blocks_run_in_order():
    """Later blocks reuse the names earlier ones define, as a reader would."""
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
