"""README's library example runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
