"""README's library example, run as written, so it cannot drift from the API it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_prints_what_it_says():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    deviation, verdict = out.getvalue().splitlines()
    assert float(deviation) < 1e-9
    assert verdict == "True"
