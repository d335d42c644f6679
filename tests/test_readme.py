"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

from cubicml.graph import is_cubic

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_documented():
    block = _quick_start()
    ns: dict[str, object] = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, ns)
    assert is_cubic(ns["g"])
    prints = [ln for ln in block.splitlines() if ln.startswith("print(")]
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints)
    for src, got in zip(prints, lines):
        comment = src.partition("#")[2].split("  ")[0].strip()
        # a comment that is not a value, like the per-phase seconds, is prose
        if comment[:1].isdigit():
            assert got == comment, src
