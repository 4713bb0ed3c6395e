"""The README's Library examples run as written, in order."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    """The ```python blocks of the README's "Library" section."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "| step | max_error | order |"
