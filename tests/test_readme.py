"""The README's Library examples and command-line block run as written, in
order."""

import re
import shlex
from pathlib import Path

from fracsolve.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    """The text of one "## " section of the README."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_blocks():
    """The ```python blocks of the README's "Library" section."""
    return re.findall(r"```python\n(.*?)```", section("Library"), re.S)


def command_block():
    """The one ```sh block of the README's "Command line" section, as a
    shell script."""
    [block] = re.findall(r"```sh\n(.*?)```", section("Command line"), re.S)
    return block


def test_library_examples_run(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "| step | max_error | order |"


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in command_block().replace("\\\n", "").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[:2] for argv in commands] == [
        ["fracsolve", "ml"], ["fracsolve", "relax"], ["fracsolve", "subdiff"],
        ["fracsolve", "converge"]]
    for argv in commands:
        assert run(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""
    for name in ("series.csv", "profile.csv"):
        assert (tmp_path / name).read_text().startswith("x,value,exact,error\n")
