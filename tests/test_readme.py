"""The README's three-line session must print what its comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_three_line_session():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A three-line session:\s*```python\n(.*?)```", text, re.S).group(1)
    shown = re.search(r"^print\(.*\)\s+#\s*(.*)$", block, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().strip() == shown == "True 273 405"
