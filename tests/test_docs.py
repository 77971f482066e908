"""The README examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading):
    """The first ```python block under the README section ``heading``."""
    text = README.read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("Library quick tour"), str(README), "exec"), {})
    margin, verdict = out.getvalue().splitlines()[0].split()
    assert float(margin) > 0.0 and verdict == "strictly-below"
    alpha_c, beta = map(float, out.getvalue().splitlines()[1].split())
    assert alpha_c > 0.0 and beta > 0.0
