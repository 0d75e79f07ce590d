"""The README's examples must run as shown."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from nlhb import authsvc, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_three_line_session():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A three-line session:\s*```python\n(.*?)```", text, re.S).group(1)
    shown = re.search(r"^print\(.*\)\s+#\s*(.*)$", block, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().strip() == shown == "True 273 405"


def test_readme_command_line_tour(tmp_path, monkeypatch):
    # in order, since `simulate --replay` reads what `simulate --out` wrote;
    # `serve` and `auth` need a live service and are left out
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command-line tour\s*```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("nlhb ")]
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv[0] in ("serve", "auth"):
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 0, "%s\n%s" % (line, err.getvalue())
        ran += 1
    assert ran == len(lines) - 2


def test_readme_keystore_snippet(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"writes the\s+`keys.txt`.*?```python\n(.*?)```", text, re.S).group(1)
    tour = re.search(r"## Command-line tour\s*```sh\n(.*?)```", text, re.S).group(1)
    identity = re.search(r"--identity (\S+)", tour).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    entries = authsvc.read_keystore("keys.txt")
    assert list(entries) == [identity]
    assert entries[identity].params.blinded is False
