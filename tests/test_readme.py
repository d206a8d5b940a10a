"""The python code blocks of README.md, run in order as one script, so the
documented examples cannot drift from the API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    """Each python block's source and the README line it starts on."""
    return [
        (match.group(1), text.count("\n", 0, match.start(1)) + 1)
        for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


def test_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for source, line in blocks:
        # padded so that a traceback names the README's own line
        code = compile("\n" * (line - 1) + source, str(README), "exec")
        exec(code, namespace)
