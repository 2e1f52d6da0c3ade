"""README's examples run as written: the library one prints what its comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from spidernets import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), {})
    # Each print line's comment starts with what it prints.
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    printed = stdout.getvalue().splitlines()
    assert len(printed) == len(comments) > 0
    for line, comment in zip(printed, comments):
        assert comment.startswith(line)


def test_command_line_examples_exit_0(monkeypatch, tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("spidernets ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        try:
            code = cli.main(argv[1:])
        except SystemExit as exc:  # argparse rejects the line
            code = exc.code
        assert code == 0, (argv, capsys.readouterr().err)
